"""Byte-identity guard on the CSVs of four small sampled runs.

``tests/golden/`` holds the CSVs that ``reproduce table1``, ``reproduce
fig5``, ``reproduce fig4`` and ``simulate`` write on the default config
with ``mc_resamples: 50`` (default pulses and seed; fig4 does not
resample, so its file is that of the default config).  Any change that
moves a printed digit of a fidelity, an efficiency, its error bar, the
model or a residual fails here.  Regenerate the files only in a change
that means to move them, with

    echo '{"mc_resamples": 50}' > cfg.json
    python -m qmemsim reproduce table1 --config cfg.json --format csv --out tests/golden
    python -m qmemsim reproduce fig5 --config cfg.json --format csv --out tests/golden
    python -m qmemsim reproduce fig4 --config cfg.json --format csv --out tests/golden
    python -m qmemsim simulate --config cfg.json --format csv --out tests/golden

and delete the ``*.config.json`` echoes that this also writes.
"""

import json
from pathlib import Path

import pytest

from qmemsim.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("target", ["table1", "fig5", "fig4", "simulate"])
def test_sampled_csv_is_byte_identical_to_golden(tmp_path, capsys, target):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mc_resamples": 50}))
    command = ["simulate"] if target == "simulate" else ["reproduce", target]
    argv = [*command, "--config", str(config), "--format", "csv", "--out", str(tmp_path)]
    assert main(argv) == EXIT_OK
    name = f"{target}.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
