"""Regenerate bench/reference/<workload>.json at the default seed.

Usage (from the root of a checkout): ``python3 bench/make_reference.py
[WORKLOAD ...]``.  Each reference pins the rows and fit parameters of the
workload's JSON artifact; run it only on a commit whose outputs are
known good, because every later benchmark run at the default seed is
checked against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import qmemsim.cli  # noqa: E402


def make(name: str) -> None:
    workload = WORKLOADS[name]
    work = os.path.join(BENCH_DIR, ".work", f"reference-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    try:
        os.chdir(work)
        with open("config.json", "w", encoding="utf-8") as fh:
            json.dump(workload.config(DEFAULT_SEED), fh)
        code = qmemsim.cli.main(workload.argv("config.json", "out"))
        if code != 0:
            raise SystemExit(f"{name}: cli.main returned {code}")
        payload = checks.artifact_payload("out", workload)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    problems = checks.check_rows(workload, payload)
    if problems:
        raise SystemExit(f"{name}: {problems[:5]}")
    record = checks.reference_record(payload)
    rows = ",\n".join(json.dumps(row) for row in record.pop("rows"))
    header = json.dumps({"seed": DEFAULT_SEED, **record})
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    with open(checks.reference_path(name), "w", encoding="utf-8") as fh:
        # One row per line keeps the files small and their diffs readable.
        fh.write(f'{header[:-1]}, "rows": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or sorted(WORKLOADS):
        make(workload_name)
