"""Contracts checked on fresh ``python -m qmemsim`` processes, as a user runs them."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qmemsim import tomography
from qmemsim.config import config_from_dict
from qmemsim.polarization import density_of, ket_from_named
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


def test_expected_count_run_calls_no_linalg(monkeypatch):
    # The exact map and the einsum solve call no numpy.linalg function, and
    # the certificate passes every chi of the grid's stack, so eigh is
    # skipped: with every numpy.linalg function raising, the run, with the
    # cached map built afresh, must give the same rows.
    cfg = config_from_dict(GRID)
    want = run_simulate(cfg, expected_counts=True).rows

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError, match="numpy.linalg was called"):
        np.linalg.eigh(np.eye(2))
    tomography._input_set.cache_clear()
    got = run_simulate(cfg, expected_counts=True).rows
    monkeypatch.undo()
    assert got == want and len(got) == 1400
    # A set that is not informationally complete is still refused.
    pairs = [(density_of(ket_from_named(l)),) * 2 for l in ("H", "V", "D", "A")]
    with pytest.raises(ValueError, match="informationally complete"):
        tomography.process_matrix(pairs)


def test_config_echo_reproduces_its_run(tmp_path):
    # The "config" echo of an artifact is a complete config: a rerun with it
    # as --config, into the same --out, writes the same bytes.  Checked on
    # every runner that builds its artifact through the shared count-runner
    # builder: simulate, table1, fig4 and fig5.  The first run has BLAS on 1
    # thread and the rerun on 2, so the same bytes also show that no row,
    # each scenario's units taken in batched tiles and the bootstrap's draws
    # scored in batched slices, depends on how many threads BLAS uses.

    def run(cmd, config, out, threads):
        argv = [sys.executable, "-m", "qmemsim", *cmd, "--config", str(config), "--out", str(out)]
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONWARNINGS": "error::RuntimeWarning",
        }
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    mc50 = tmp_path / "mc50.json"
    mc50.write_text(json.dumps({"mc_resamples": 50}))
    for cmd in (["simulate"], ["reproduce", "table1"], ["reproduce", "fig4"], ["reproduce", "fig5"]):
        target = cmd[-1]
        out, echo, first = (tmp_path / f"echo-{target}{end}" for end in ("", ".json", "-first"))
        run(cmd, mc50, out, threads=1)
        echo.write_text(json.dumps(json.loads((out / f"{target}.json").read_text())["config"]))
        out.rename(first)
        run(cmd, echo, out, threads=2)
        for name in (f"{target}.csv", f"{target}.json"):
            assert (out / name).read_bytes() == (first / name).read_bytes(), name


def _spread(a, b, at):
    # Largest relative difference of two JSON floats, relative to the larger
    # magnitude; every other value must be equal, of the same type.
    if isinstance(a, float) and isinstance(b, float):
        return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_spread(a[k], b[k], f"{at}.{k}") for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_spread(x, y, f"{at}[{i}]") for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    assert type(a) is type(b) and a == b, f"{at}: {a!r} != {b!r}"
    return 0.0


def test_cpu_kernel_moves_no_csv_byte_and_no_json_float_beyond_1e_12(tmp_path):
    # OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE forces one.
    # eigh's eigenvalues, on the chi the certificate cannot pass, may move
    # the last bits of a row with the kernel.  Every CSV (9 significant
    # digits) must stay byte-identical; every JSON float must stay within
    # 1e-12 of the other run's, relative to the larger magnitude, and every
    # other JSON value equal.  Measured on a 2-vCPU Xeon between the
    # detected kernel, Prescott, Haswell and Sandybridge: 3.9e-14 at most, on
    # fig5's residual at 1.5 ms (fidelity minus model, -0.0028, moved by one
    # ulp of the fidelity), and at most 4.3e-15 on every other float.  An
    # expected-count run, on the default grid and on GRID, calls no LAPACK or
    # BLAS at all, so its JSON must be byte-identical.
    out = tmp_path / "core"
    mc50, grid = tmp_path / "mc50.json", tmp_path / "grid.json"
    mc50.write_text(json.dumps({"mc_resamples": 50}))
    grid.write_text(json.dumps(GRID))
    commands = (
        ["simulate", "--out", str(out)],
        ["reproduce", "table1", "--config", str(mc50), "--out", str(out)],
        ["reproduce", "fig5", "--config", str(mc50), "--out", str(out)],
        ["simulate", "--expected-counts", "--out", str(out / "expected")],
        ["simulate", "--expected-counts", "--config", str(grid), "--out", str(out / "grid")],
    )
    cores = ("Prescott", "Haswell")
    for core in cores:
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONWARNINGS": "error::RuntimeWarning"}
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "qmemsim", *argv], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
        out.rename(tmp_path / core)
    first, second = (tmp_path / core for core in cores)
    for name in ("simulate", "table1", "fig5", "expected/simulate", "grid/simulate"):
        assert (first / f"{name}.csv").read_bytes() == (second / f"{name}.csv").read_bytes(), name
        a, b = (json.loads((side / f"{name}.json").read_text()) for side in (first, second))
        worst = _spread(a, b, name)
        assert worst <= 1e-12, (name, worst)
    for name in ("expected/simulate.json", "grid/simulate.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
