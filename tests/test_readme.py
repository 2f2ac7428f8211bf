import importlib
import re
from pathlib import Path

import qmemsim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start : len(README) if end < 0 else end]


def test_readme_names_only_existing_api():
    # Every bare name in the "Lower-level entry points" paragraph is
    # exported, and every module in the layout can be imported.
    library = _section("Library use")
    paragraph = library[library.index("Lower-level entry points:") :].split("\n\n")[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) >= 10
    assert [name for name in names if name not in qmemsim.__all__] == []
    modules = re.findall(r"^\s+(\w+)\.py\b", _section("Layout"), flags=re.MULTILINE)
    assert len(modules) >= 8
    for name in modules:
        importlib.import_module(f"{qmemsim.__name__}.{name}")
