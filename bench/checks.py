"""Output checks applied to every benchmark invocation.

An invocation passes only if every check here returns no problem; the
benchmark never retries or re-seeds a failed one.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: Tolerances against the committed reference rows (default seed only).
ROW_ABS_TOL = 1e-9
FIT_REL_TOL = 1e-6
#: Acceptance-suite tolerance between expected-counts and closed-form fidelity.
MODEL_ABS_TOL = 1e-6

_FLOAT_COLUMNS = ("theta_deg", "t_ms", "fidelity", "fidelity_sigma", "model_fidelity", "residual")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


def reference_record(payload: dict) -> dict:
    """The part of a JSON artifact that the reference pins."""
    record = {"columns": payload["columns"], "rows": payload["rows"]}
    fit = payload["meta"].get("fit")
    if fit is not None:
        record["fit_params"] = fit.get("params")
    return record


def compare_to_reference(payload: dict, reference: dict) -> list[str]:
    """Rows within ROW_ABS_TOL and fit parameters within FIT_REL_TOL."""
    problems = []
    if payload["columns"] != reference["columns"]:
        return [f"columns {payload['columns']} != reference {reference['columns']}"]
    if len(payload["rows"]) != len(reference["rows"]):
        return [f"{len(payload['rows'])} rows, reference has {len(reference['rows'])}"]
    for i, (row, ref) in enumerate(zip(payload["rows"], reference["rows"])):
        for col, value, expected in zip(payload["columns"], row, ref):
            if col in _FLOAT_COLUMNS:
                if not abs(value - expected) <= ROW_ABS_TOL:
                    problems.append(f"row {i} {col}: {value!r} vs reference {expected!r}")
            elif value != expected:
                problems.append(f"row {i} {col}: {value!r} vs reference {expected!r}")
    ref_fit = reference.get("fit_params")
    if ref_fit is not None:
        fit = payload["meta"].get("fit", {}).get("params") or {}
        for key, expected in ref_fit.items():
            value = fit.get(key)
            if value is None or not abs(value - expected) <= FIT_REL_TOL * abs(expected):
                problems.append(f"fit {key}: {value!r} vs reference {expected!r}")
    return problems


def check_rows(workload, payload: dict) -> list[str]:
    """Shape and invariants that hold at every seed."""
    problems = []
    rows = payload["rows"]
    if len(rows) != workload.rows:
        problems.append(f"{len(rows)} rows, expected {workload.rows}")
    cols = payload["columns"]
    fid, sigma, model = (cols.index(c) for c in ("fidelity", "fidelity_sigma", "model_fidelity"))
    for i, row in enumerate(rows):
        f, s, m = row[fid], row[sigma], row[model]
        if not all(isinstance(v, float) and math.isfinite(v) for v in (f, s, m)):
            problems.append(f"row {i}: non-finite fidelity, sigma or model")
            continue
        if not (0.0 <= f <= 1.0 and 0.0 <= m <= 1.0):
            problems.append(f"row {i}: fidelity {f!r} or model {m!r} outside [0, 1]")
        if workload.sampled and not s > 0.0:
            problems.append(f"row {i}: sampled run with sigma {s!r}")
        if not workload.sampled:
            if s != 0.0:
                problems.append(f"row {i}: expected-counts run with sigma {s!r}")
            if not abs(f - m) <= MODEL_ABS_TOL:
                problems.append(f"row {i}: fidelity {f!r} vs model {m!r}")
    fit = payload["meta"].get("fit")
    if fit is not None and "error" in fit:
        problems.append(f"fit failed: {fit['error']}")
    return problems


def artifact_payload(out_dir: str, workload) -> dict:
    with open(os.path.join(out_dir, f"{workload.artifact}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def artifact_bytes(out_dir: str) -> dict[str, bytes]:
    """Every file the run wrote, by name."""
    result = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            result[name] = fh.read()
    return result


def compare_bytes(first: dict[str, bytes], current: dict[str, bytes]) -> list[str]:
    """Artifacts of a repetition must equal the run's first, byte for byte."""
    if sorted(first) != sorted(current):
        return [f"artifact files {sorted(current)} differ from {sorted(first)}"]
    return [f"{name} differs from the first repetition" for name in first if first[name] != current[name]]
