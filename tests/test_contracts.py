"""Contracts checked on fresh ``python -m qmemsim`` processes, as a user runs them."""

import json
import os
import subprocess
import sys

from qmemsim import tomography
from qmemsim.config import config_from_dict
from qmemsim.scenarios import run_simulate

#: 7 channels x 200 storage times in [0, 6] ms: one stack of 1400 expected-count chi.
GRID = {"storage_times": [6.0 * i / 199 for i in range(200)]}


def test_certified_chi_stack_matches_the_model(tmp_path, monkeypatch):
    # The certificate passes every chi of the grid's stack, so eigh is
    # skipped.  Every row's fidelity must equal the closed-form model, no row
    # may depend on how many threads BLAS uses, and no numpy RuntimeWarning
    # may be raised.  Both runs write to the same directory, because the
    # config echo records it.
    masks, certify = [], tomography._certified
    monkeypatch.setattr(tomography, "_certified", lambda c: masks.append(certify(c)) or masks[-1])
    run_simulate(config_from_dict(GRID), expected_counts=True)
    assert [mask.shape for mask in masks] == [(1400,)] and masks[0].all()
    config, out = tmp_path / "grid.json", tmp_path / "grid"
    config.write_text(json.dumps(GRID))
    argv = ["simulate", "--expected-counts", "--config", str(config), "--out", str(out)]
    for threads in (1, 2):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONWARNINGS": "error::RuntimeWarning",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "qmemsim", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        out.rename(tmp_path / f"grid-{threads}")
    for name in ("simulate.csv", "simulate.json"):
        one, two = (tmp_path / f"grid-{threads}" / name for threads in (1, 2))
        assert one.read_bytes() == two.read_bytes(), name
    art = json.loads((tmp_path / "grid-1" / "simulate.json").read_text())
    f, m = (art["columns"].index(c) for c in ("fidelity", "model_fidelity"))
    worst = max(abs(row[f] - row[m]) for row in art["rows"])
    assert len(art["rows"]) == 1400 and worst <= 1e-6, worst


def test_config_echo_reproduces_its_run(tmp_path):
    # The "config" echo of an artifact is a complete config: a rerun with it
    # as --config, into the same --out, writes the same bytes.  Checked on
    # every runner that builds its artifact through the shared count-runner
    # builder: simulate, table1, fig4 and fig5.
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}

    def run(cmd, config, out):
        argv = [sys.executable, "-m", "qmemsim", *cmd, "--config", str(config), "--out", str(out)]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    mc50 = tmp_path / "mc50.json"
    mc50.write_text(json.dumps({"mc_resamples": 50}))
    for cmd in (["simulate"], ["reproduce", "table1"], ["reproduce", "fig4"], ["reproduce", "fig5"]):
        target = cmd[-1]
        out, echo, first = (tmp_path / f"echo-{target}{end}" for end in ("", ".json", "-first"))
        run(cmd, mc50, out)
        echo.write_text(json.dumps(json.loads((out / f"{target}.json").read_text())["config"]))
        out.rename(first)
        run(cmd, echo, out)
        for name in (f"{target}.csv", f"{target}.json"):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name
