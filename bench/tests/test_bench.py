"""Tests of the benchmark's own machinery: tracer, output checks, metric lists.

Run with ``python3 -m pytest bench/tests`` from the root of a checkout.
"""

import copy
import json
import os

import pytest

import checks
import run
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def span(name, parent, start, end, value=None):
    return (name, parent, 0, start, end, False, value)


def test_self_times_subtract_the_children_they_cover():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("b", 0, 5.0, 9.0),
        span("c", 2, 6.0, 7.0),
        span("c", 2, 6.5, 8.0),  # overlaps its sibling: covered once
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])


def test_self_times_of_a_nested_tree_sum_to_the_root_total():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("scenarios.tomography_point", 0, 0.5, 4.5),
        span("tomography.monte_carlo_error", 1, 1.0, 4.0),
        span("tomography.reconstruct_from_records", 2, 1.5, 2.0),
        span("tomography.reconstruct_from_records", 2, 2.5, 3.25),
        span("scenarios.tomography_point", 0, 5.0, 6.0),
        span("scenarios.emit", 0, 7.0, 7.5, value=1234),
    ]
    own = tracer.self_times(spans)
    assert sum(own) == pytest.approx(10.0)
    metrics = tracer.per_layer_metrics(
        spans,
        [
            "cli.main.self_s",
            "tomography.monte_carlo_error.self_s",
            "tomography.reconstruct_from_records.calls",
            "tomography.reconstruct_from_records.total_s",
            "scenarios.tomography_point.p50_ms",
            "scenarios.emit.bytes",
            "fitting.fit_sigma_gamma.total_s",
        ],
    )
    assert metrics["cli.main.self_s"] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert metrics["tomography.monte_carlo_error.self_s"] == pytest.approx(3.0 - 0.5 - 0.75)
    assert metrics["tomography.reconstruct_from_records.calls"] == 2
    assert metrics["tomography.reconstruct_from_records.total_s"] == pytest.approx(1.25)
    assert metrics["scenarios.tomography_point.p50_ms"] == pytest.approx(2500.0)
    assert metrics["scenarios.emit.bytes"] == 1234
    assert metrics["fitting.fit_sigma_gamma.total_s"] == 0.0


def test_total_time_counts_a_recursive_span_once():
    spans = [span("f", -1, 0.0, 4.0), span("f", 0, 1.0, 2.0)]
    stats = tracer.layer_stats(spans)
    assert stats["f"]["calls"] == 2
    assert stats["f"]["total_s"] == pytest.approx(4.0)


def _bindings():
    return {
        (mod.__name__, attr): obj
        for mod in tracer._package_modules()
        for attr, obj in vars(mod).items()
    }


def test_wrap_then_unwrap_restores_every_binding():
    import qmemsim.cli  # noqa: F401  (loads every package module)
    from qmemsim import scenarios, tomography
    from qmemsim.config import ScenarioConfig

    before = _bindings()
    spans = tracer.Tracer()
    wrapped = spans.install()
    try:
        assert wrapped > 50
        assert tomography.check_density is not before[("qmemsim.tomography", "check_density")]
        assert scenarios.monte_carlo_error is not before[("qmemsim.scenarios", "monte_carlo_error")]
        cfg = ScenarioConfig(pulses_per_setting=1000, mc_resamples=3)
        scenarios.tomography_point(cfg, "S2", 0.005)
    finally:
        spans.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer.traced_bindings() == []
    names = {s[0] for s in spans.spans}
    assert {"scenarios.derive_rng", "tomography.monte_carlo_error", "polarization.check_density"} <= names
    assert [s[0] for s in spans.spans if s[1] < 0] == ["scenarios.tomography_point"]
    assert tracer.per_layer_metrics(spans.spans, ["tomography.reconstruct_from_records.calls"]) == {
        "tomography.reconstruct_from_records.calls": 3
    }


def _payload(workload_name):
    reference = checks.load_reference(workload_name)
    payload = {"columns": reference["columns"], "rows": copy.deepcopy(reference["rows"]), "meta": {}}
    if "fit_params" in reference:
        payload["meta"]["fit"] = {"params": dict(reference["fit_params"])}
    return payload, reference


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_reference_matches_itself_and_passes_row_checks(workload_name):
    payload, reference = _payload(workload_name)
    assert reference["seed"] == DEFAULT_SEED
    assert checks.compare_to_reference(payload, reference) == []
    assert checks.check_rows(WORKLOADS[workload_name], payload) == []


def test_perturbed_fidelity_fails_the_reference_check():
    payload, reference = _payload("table1_bootstrap")
    col = payload["columns"].index("fidelity")
    payload["rows"][3][col] += 2e-9
    problems = checks.compare_to_reference(payload, reference)
    assert len(problems) == 1 and "row 3 fidelity" in problems[0]


def test_perturbed_fit_parameter_fails_the_reference_check():
    payload, reference = _payload("fig5_lowcount")
    payload["meta"]["fit"]["params"]["sigma_gamma"] *= 1 + 2e-6
    problems = checks.compare_to_reference(payload, reference)
    assert len(problems) == 1 and "fit sigma_gamma" in problems[0]


def test_expected_counts_rows_must_match_the_model():
    payload, _ = _payload("grid_expected")
    col = payload["columns"].index("fidelity")
    payload["rows"][100][col] += 2e-6
    problems = checks.check_rows(WORKLOADS["grid_expected"], payload)
    assert len(problems) == 1 and "row 100" in problems[0]


def test_changed_artifact_bytes_are_reported():
    first = {"table1.csv": b"a", "table1.json": b"b"}
    assert checks.compare_bytes(first, dict(first)) == []
    assert checks.compare_bytes(first, {"table1.csv": b"a", "table1.json": b"c"}) == [
        "table1.json differs from the first repetition"
    ]


def test_workload_configs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert workload.config(7) == workload.config(7)
        assert workload.config(7)["seed"] == 7
        assert workload.config(7) != workload.config(8)


def test_scaled_samples_use_their_own_or_the_surrounding_probes(tmp_path):
    r = run.Run(WORKLOADS["grid_expected"], 1, False, str(tmp_path))
    ref = run.PROBE_REF_S
    r.probes = [(ref, ref), (2 * ref, 4 * ref), (3 * ref, 4 * ref), (6 * ref, 4 * ref)]
    r.samples = {
        "setup_s": [1.0, 2.0, 3.0, 6.0],
        "wall_s": [3.0, 6.0, 4.0],
        "cpu_s": [3.0, 4.0, 4.0],
        "peak_rss_mb": [30.0, 31.0, 32.0],
    }
    r.probe_before = [0, 1, 2]
    scaled = r.scaled()
    assert scaled["setup_s"] == pytest.approx([1.0, 1.0, 1.0, 1.0])
    # Probes 0-2 around the first invocation, 0-3 around the second, 1-3 around the third.
    assert scaled["wall_s"] == pytest.approx([3.0 / 2.0, 6.0 / 3.0, 4.0 / (11.0 / 3.0)])
    assert scaled["cpu_s"] == pytest.approx([3.0 / 3.0, 4.0 / 3.25, 4.0 / 4.0])
    assert scaled["peak_rss_mb"] == [30.0, 31.0, 32.0]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.xfail(raises=ValueError, strict=True, reason="zero-count basis in a bootstrap resample")
def test_fig5_lowcount_at_3000_pulses_survives_a_zero_count_resample():
    # The known defect that keeps fig5_lowcount at M=6000: at M=3000,
    # seed 3 draws a bootstrap resample with no counts in one basis at 6 ms.
    from qmemsim.config import config_from_dict
    from qmemsim.scenarios import tomography_point

    data = WORKLOADS["fig5_lowcount"].config(3)
    data["pulses_per_setting"] = 3000
    cfg = config_from_dict(data)
    tomography_point(cfg, "S2", cfg.storage_times[-1])
