import importlib
import json
import re
import types
from pathlib import Path

import numpy as np

import qmemsim
from qmemsim.config import ScenarioConfig, config_from_dict
from qmemsim.fitting import channel_model, closed_form_fidelity
from qmemsim.memory import retrieval_efficiency
from qmemsim.scenarios import calibrate_table

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _section(heading: str) -> str:
    start = README.index(f"\n## {heading}\n")
    end = README.find("\n## ", start + 1)
    return README[start : len(README) if end < 0 else end]


def test_readme_names_only_existing_api():
    # Every bare name in the "Lower-level entry points" paragraph is
    # exported, no submodule is, and every module in the layout can be
    # imported.
    library = _section("Library use")
    paragraph = library[library.index("Lower-level entry points:") :].split("\n\n")[0]
    names = re.findall(r"`([A-Za-z_]\w*)`", paragraph)
    assert len(names) >= 10
    assert [name for name in names if name not in qmemsim.__all__] == []
    assert [n for n in qmemsim.__all__ if isinstance(getattr(qmemsim, n), types.ModuleType)] == []
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
    assert retrieval_efficiency(cfg.channel("S2").theta, 0.0, cfg.memory) == 0.127


HEADLINE_FIDELITY = {
    "default": ["0.966", "0.955", "0.792"],
    "calibrated": ["0.914", "0.904", "0.753"],
}


def test_readme_headline_numbers_match_the_model():
    # The table states S2's model fidelity at 5 us, 0.85 ms and 6 ms to 3
    # decimals; the text says every channel's curve peaks at t = 0.
    text = _section("The paper's headline numbers")
    rows = re.findall(r"^\| (\w+)\b.*\| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", text, re.M)
    assert {name: cells for name, *cells in rows} == HEADLINE_FIDELITY
    configs = {"default": ScenarioConfig()}
    configs["calibrated"] = config_from_dict(calibrate_table(configs["default"]))
    for name, cfg in configs.items():
        model = channel_model(cfg.channel("S2"), cfg.memory, cfg.detection)
        values = closed_form_fidelity(np.array([0.005, 0.85, 6.0]), **model)
        assert [f"{v:.3f}" for v in values] == HEADLINE_FIDELITY[name]
        for channel in cfg.channels:
            model = channel_model(channel, cfg.memory, cfg.detection)
            assert np.all(np.diff(closed_form_fidelity(np.linspace(0.0, 6.0, 601), **model)) < 0)
