import importlib
import json
import re
from pathlib import Path

import qmemsim
from qmemsim.config import config_from_dict

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


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    library = _section("Library use")
    example = library[library.index("```python\n") + len("```python\n") :].split("```")[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 7
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["table1.csv", "table1.json"]


def test_readme_example_config_loads():
    # The "Scenario config" example is a complete, valid document.
    text = _section("Scenario config")
    example = text[text.index("```json\n") + len("```json\n") :].split("```")[0]
    cfg = config_from_dict(json.loads(example))
    assert [ch.id for ch in cfg.channels] == ["S2"]
    assert cfg.memory.r0_overrides == {0.8: 0.127}
