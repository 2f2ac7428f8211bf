"""In-memory span tracer for the qmemsim package, and the per-layer metrics.

``Tracer.install`` wraps every public function defined in a loaded
``qmemsim`` module and rebinds it at every module-level binding that
refers to it.  The package's modules import each other with
``from .x import y``, so rebinding only the defining module would miss
most calls.  ``Tracer.uninstall`` puts every original binding back.

A span is ``(name, parent, invocation, start, end, failed, probe)``:
``parent`` is the index of the enclosing span (-1 at the root) and
``probe`` holds a value read from the function's result (see
``PROBES``).  Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
import types
from collections import defaultdict

PACKAGE = "qmemsim"
ROOT_SPAN = "cli.main"

#: Values read from a traced function's return value, keyed by span name.
PROBES = {
    "tomography.project_process_matrix": lambda r: bool(r[1]),
    "tomography.state_estimate": lambda r: bool(r.physical_projection_applied),
    "fitting.fit_sigma_gamma": lambda r: r.iterations,
    "scenarios.emit": lambda paths: sum(os.path.getsize(p) for p in paths),
}

#: Per-layer metrics reported by a traced run, with their units.  The
#: last dotted part names the statistic, the rest the span.
PER_LAYER = {
    "tomography.monte_carlo_error.total_s": "s",
    "tomography.monte_carlo_error.self_s": "s",
    "tomography.reconstruct_from_records.calls": "count",
    "tomography.reconstruct_from_records.total_s": "s",
    "tomography.process_matrix_linear.calls": "count",
    "tomography.process_matrix_linear.total_s": "s",
    "scenarios.derive_rng.calls": "count",
    "scenarios.derive_rng.total_s": "s",
    "tomography.project_process_matrix.calls": "count",
    "tomography.project_process_matrix.total_s": "s",
    "tomography.project_process_matrix.fired_frac": "fraction",
    "tomography.state_estimate.calls": "count",
    "tomography.state_estimate.total_s": "s",
    "tomography.state_estimate.fired_frac": "fraction",
    "tomography.stokes_from_counts.total_s": "s",
    "tomography.stokes_from_counts.failed": "count",
    "tomography.process_fidelity.total_s": "s",
    "polarization.check_density.calls": "count",
    "polarization.check_density.total_s": "s",
    "polarization.uhlmann_fidelity.total_s": "s",
    "detection.expected_rates.calls": "count",
    "detection.expected_rates.total_s": "s",
    "detection.sample_counts.total_s": "s",
    "detection.expected_counts.total_s": "s",
    "memory.release.calls": "count",
    "memory.release.total_s": "s",
    "tomography.run_process_tomography.total_s": "s",
    "tomography.run_process_tomography.self_s": "s",
    "scenarios.tomography_point.calls": "count",
    "scenarios.tomography_point.self_s": "s",
    "scenarios.tomography_point.p50_ms": "ms",
    "scenarios.tomography_point.p90_ms": "ms",
    "scenarios.emit.total_s": "s",
    "scenarios.emit.bytes": "bytes",
    "config.effective_config.total_s": "s",
    "fitting.fit_sigma_gamma.total_s": "s",
    "fitting.fit_sigma_gamma.iterations": "count",
    "fitting.fidelity_at.total_s": "s",
    "config.load_config.total_s": "s",
    "cli.main.total_s": "s",
    "cli.main.self_s": "s",
}

_MARK = "__bench_traced__"


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def span_name(fn: types.FunctionType) -> str:
    """``module.function`` with the package prefix dropped."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self, invocation: int = 0) -> None:
        self.spans: list[tuple] = []
        self.invocation = invocation
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> int:
        """Wrap every public package function at every binding; return the count."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        public = {}
        for mod in modules:
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__name__ == attr
                    and obj.__module__.startswith(PACKAGE)
                ):
                    public[id(obj)] = obj
        wrappers = {key: self._wrap(fn) for key, fn in public.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and public[id(obj)] is obj:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return len(self._saved)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrap(self, fn: types.FunctionType):
        name = span_name(fn)
        probe = PROBES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[index] = (name, parent, self.invocation, start, end, True, None)
                raise
            end = clock()
            stack.pop()
            value = probe(result) if probe is not None else None
            spans[index] = (name, parent, self.invocation, start, end, False, value)
            return result

        setattr(traced, _MARK, True)
        return traced

    def write(self, path: str) -> None:
        """Write the recorded spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for index, span in enumerate(self.spans):
                name, parent, invocation, start, end, failed, value = span
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "parent": parent,
                            "invocation": invocation,
                            "start": start,
                            "end": end,
                            "failed": failed,
                            "probe": value,
                        }
                    )
                )
                fh.write("\n")


def traced_bindings() -> list[str]:
    """Module-level bindings in the package that still hold a tracer wrapper."""
    return [
        f"{mod.__name__}.{attr}"
        for mod in _package_modules()
        for attr, obj in vars(mod).items()
        if getattr(obj, _MARK, False)
    ]


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[1] >= 0:
            children[span[1]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[3], span[4]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda i: spans[i][3]):
            lo = max(spans[child][3], cursor)
            hi = min(spans[child][4], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile, q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _empty_stats() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0, "probes": [], "durations": []}


def layer_stats(spans: list[tuple]) -> dict[str, dict]:
    """Aggregate spans by name into calls, total, self, failures and probes.

    ``total_s`` counts only outermost spans of a name, so a function that
    reaches itself again through a traced binding is not counted twice.
    """
    own = self_times(spans)
    stats: dict[str, dict] = defaultdict(_empty_stats)
    for index, span in enumerate(spans):
        name, parent, _, start, end, failed, value = span
        entry = stats[name]
        entry["calls"] += 1
        entry["self_s"] += own[index]
        entry["durations"].append(end - start)
        if failed:
            entry["failed"] += 1
        if value is not None:
            entry["probes"].append(value)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:
            entry["total_s"] += end - start
    return dict(stats)


def per_layer_metrics(spans: list[tuple], names=PER_LAYER) -> dict[str, float]:
    """Values of the named per-layer metrics; 0 for spans never entered."""
    stats = layer_stats(spans)
    empty = _empty_stats()
    out = {}
    for metric in names:
        span, stat = metric.rsplit(".", 1)
        entry = stats.get(span, empty)
        if stat in ("calls", "failed", "total_s", "self_s"):
            value = entry[stat]
        elif stat == "fired_frac":
            value = sum(entry["probes"]) / len(entry["probes"]) if entry["probes"] else 0.0
        elif stat in ("iterations", "bytes"):
            value = sum(entry["probes"])
        elif stat == "p50_ms":
            value = 1e3 * _quantile(entry["durations"], 0.5)
        elif stat == "p90_ms":
            value = 1e3 * _quantile(entry["durations"], 0.9)
        else:
            raise ValueError(f"unknown statistic in metric {metric!r}")
        out[metric] = value
    return out
