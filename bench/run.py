"""qmemsim benchmark: one workload, timed end to end or traced per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload table1_bootstrap [--seed 12345]
        [--seconds 40] [--trace 0|1]

Each invocation of ``qmemsim.cli.main`` runs in its own fresh interpreter
(``bench/worker.py``), one at a time, with BLAS and OpenMP limited to one
thread.  The run repeats invocations until ``--seconds`` would be
exceeded and reports medians.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
invocations and reports the per-layer metrics (``bench/tracer.py``).

The machine this runs on is shared, and its speed drifts by up to 1.7x
over minutes.  So an untraced run brackets every invocation with set-up
probes, each of which also times ``worker.speed_probe``, a fixed numpy
workload.  ``setup_s``, ``wall_s`` and ``cpu_s`` are reported at the
reference speed at which that probe takes ``PROBE_REF_S``: each sample
is multiplied by ``PROBE_REF_S`` over the probe time around it
(``Run.scaled``).  The raw medians are printed too and kept in the
result file.

Every invocation's artifacts are checked (``bench/checks.py``).  The last
line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with the
environment and every sample, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracer
from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracer.PER_LAYER, "trace_overhead_frac": "fraction"}

INVOCATION_TIMEOUT_S = 150.0
#: Speed-probe time (s) that defines the reference speed: close to the
#: fastest probe times seen on a 2-vCPU Intel Xeon.
PROBE_REF_S = 0.22
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Run:
    """The worker processes of one benchmark run and their checked outcomes.

    ``attempted`` counts every worker started, invocations of the CLI and
    set-up probes alike; ``failures`` holds one reason per failed worker.
    """

    def __init__(self, workload, seed: int, trace: bool, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.probes: list[tuple[float, float]] = []
        self.probe_before: list[int] = []
        self.traced: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.invocations = 0
        self.environment: dict = {}
        self.first_artifacts: dict[str, bytes] | None = None
        self.reference = checks.load_reference(workload.name) if seed == DEFAULT_SEED else None
        with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(workload.config(seed), fh, indent=2)
            fh.write("\n")

    def _spawn(self, job: dict, tag: str) -> dict | str:
        """Run worker.py on ``job``; return its report or why it failed."""
        self.attempted += 1
        job["config"] = "config.json"
        job["report"] = os.path.join(self.work, f"report-{tag}.json")
        job_path = os.path.join(self.work, f"job-{tag}.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        env = {**os.environ, **SINGLE_THREAD_ENV, "PYTHONPATH": SRC, "PYTHONHASHSEED": "0"}
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path, repr(started)],
                cwd=self.work,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=INVOCATION_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"
        if proc.returncode != 0:
            return f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        with open(job["report"], encoding="utf-8") as fh:
            return json.load(fh)

    def probe(self) -> None:
        """Start an interpreter that imports qmemsim, loads the config and times the speed probe."""
        report = self._spawn({"argv": None, "trace": False}, "probe")
        if isinstance(report, str):
            self.fail("set-up probe", report)
        else:
            self.samples["setup_s"].append(report["setup_s"])
            self.probes.append((report["probe_wall_s"], report["probe_cpu_s"]))

    def invoke(self, traced: bool) -> None:
        """Run and check one invocation of the CLI in a fresh interpreter."""
        index = self.invocations
        self.invocations += 1
        out_dir = os.path.join(self.work, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        job = {
            "index": index,
            "argv": self.workload.argv("config.json", "out"),
            "trace": traced,
            "environment": index == 0,
            "spans_path": os.path.join(RESULTS_DIR, f"{self.workload.name}.spans.jsonl.gz") if traced else None,
        }
        report = self._spawn(job, str(index))
        problems = [report] if isinstance(report, str) else self.check(report, out_dir, traced)
        if problems:
            self.fail(f"invocation {index}", "; ".join(problems[:10]))
            return
        self.environment = self.environment or report.get("environment", {})
        if traced:
            self.traced.append(report)
        else:
            self.probe_before.append(len(self.probes) - 1)
            for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                self.samples[name].append(report[name])

    def check(self, report: dict, out_dir: str, traced: bool) -> list[str]:
        problems = []
        expected_module = os.path.join(SRC, "qmemsim", "__init__.py")
        if os.path.realpath(report["module"]) != os.path.realpath(expected_module):
            problems.append(f"imported qmemsim from {report['module']}, not {expected_module}")
        if report["exit_code"] != 0:
            problems.append(f"cli.main returned {report['exit_code']}")
            return problems
        if traced:
            if report["left_wrapped"]:
                problems.append(f"tracer left wrappers on {report['left_wrapped'][:5]}")
            if report["roots"] != [tracer.ROOT_SPAN]:
                problems.append(f"trace roots {report['roots'][:5]}, expected [{tracer.ROOT_SPAN}]")
            gap = abs(report["self_sum_s"] - report["traced_s"])
            if gap > 1e-6 * report["traced_s"]:
                problems.append(f"self times sum to {report['self_sum_s']!r}, root total {report['traced_s']!r}")
        artifacts = checks.artifact_bytes(out_dir)
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        else:
            problems += checks.compare_bytes(self.first_artifacts, artifacts)
        payload = checks.artifact_payload(out_dir, self.workload)
        problems += checks.check_rows(self.workload, payload)
        if self.reference is not None:
            problems += checks.compare_to_reference(payload, self.reference)
        return problems

    def fail(self, what: str, reason: str) -> None:
        self.failures.append(f"{what}: {reason}")
        print(f"FAILED {what}: {reason}", file=sys.stderr)

    def metrics(self) -> dict[str, dict]:
        """Medians of the reported metrics; a metric without samples is left out."""
        if self.trace:
            units = PER_LAYER
            values = {}
            if self.traced:
                for name in tracer.PER_LAYER:
                    values[name] = statistics.median(r["per_layer"][name] for r in self.traced)
                # Each traced invocation is compared with the untraced one right after it.
                pairs = zip(self.traced, self.samples["wall_s"])
                ratios = [r["traced_s"] / wall for r, wall in pairs]
                if ratios:
                    values["trace_overhead_frac"] = statistics.median(ratios) - 1.0
        else:
            units = END_TO_END
            values = {name: statistics.median(v) for name, v in self.scaled().items() if v}
        return {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}

    def scaled(self) -> dict[str, list[float]]:
        """Timing samples at the reference speed (see the module docstring).

        A set-up sample is scaled by the probe of its own process.  An
        invocation is scaled by the mean probe time of the two probes
        before it and the two after it: the machine's speed changes
        within seconds, and one short probe on each side tracks it poorly.
        """
        wall, cpu = [], []
        for k, w, c in zip(self.probe_before, self.samples["wall_s"], self.samples["cpu_s"]):
            around = self.probes[max(k - 1, 0) : k + 3]
            if around:  # empty only if every probe failed, which is counted already
                wall.append(w * PROBE_REF_S * len(around) / sum(p[0] for p in around))
                cpu.append(c * PROBE_REF_S * len(around) / sum(p[1] for p in around))
        return {
            "setup_s": [v * PROBE_REF_S / p[0] for v, p in zip(self.samples["setup_s"], self.probes)],
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": self.samples["peak_rss_mb"],
        }


def measure(run: Run, seconds: float) -> None:
    """Repeat invocations until the next one would overrun ``seconds``.

    An untraced run starts with a probe and follows each invocation with
    one.  A traced run alternates traced and untraced invocations,
    starting with a traced one, and makes at least one of each.
    """
    deadline = time.monotonic() + seconds
    rounds: list[float] = []
    if not run.trace:
        run.probe()
    while True:
        started = time.monotonic()
        if run.trace:
            run.invoke(traced=run.invocations % 2 == 0)
        else:
            run.invoke(traced=False)
            run.probe()
        rounds.append(time.monotonic() - started)
        if run.trace and run.invocations < 2:
            continue
        if time.monotonic() + statistics.median(rounds) > deadline:
            break


def summary(run: Run, metrics: dict, elapsed: float) -> dict:
    samples = {name: len(values) for name, values in run.samples.items()}
    samples["traced"] = len(run.traced)
    return {
        "workload": run.workload.name,
        "why": run.workload.why,
        "seed": run.seed,
        "trace": int(run.trace),
        "elapsed_s": elapsed,
        "attempted": run.attempted,
        "invocations": run.invocations,
        "failed": len(run.failures),
        "failed_frac": len(run.failures) / run.attempted,
        "failures": run.failures,
        "reference_checked": run.reference is not None,
        "metrics": metrics,
        "samples_per_median": samples,
        "samples": run.samples,
        "scaled_samples": run.scaled(),
        "probes": run.probes,
        "probe_ref_s": PROBE_REF_S,
        "environment": {**run.environment, "cpu_model": cpu_model()},
        "config": run.workload.config(run.seed),
        "argv": run.workload.argv("config.json", "out"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qmemsim", "cli.py")):
        print(f"error: no qmemsim sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    work = os.path.join(WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    began = time.monotonic()
    try:
        run = Run(workload, args.seed, bool(args.trace), work)
        measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    metrics = run.metrics()
    record = summary(run, metrics, time.monotonic() - began)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    env = record["environment"]
    print(
        f"# {workload.name} seed={args.seed} trace={args.trace}: python {env.get('python')}, "
        f"numpy {env.get('numpy')}, {env.get('blas')}, nproc {env.get('nproc')}, {env.get('cpu_model')}"
    )
    for metric, entry in metrics.items():
        n = record["samples_per_median"].get("traced" if args.trace else metric, 0)
        raw = run.samples.get(metric) if not args.trace else None
        note = f"; raw {statistics.median(raw):.6g}" if raw and metric != "peak_rss_mb" else ""
        print(f"{metric:48s} {entry['value']:14.6g} {entry['unit']:8s} (median of {n}{note})")
    print(f"{'failed_frac':48s} {record['failed_frac']:14.6g} {'fraction':8s} ({run.attempted} attempted)")
    expected = PER_LAYER if args.trace else END_TO_END
    correct = not run.failures and set(metrics) == set(expected)
    print(
        json.dumps(
            {"correct": correct, "attempted": run.attempted, "failed": len(run.failures), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
