"""One benchmark invocation of ``qmemsim.cli.main`` in a fresh interpreter.

Usage: ``python worker.py JOB.json SPAWN_TIME``.  ``SPAWN_TIME`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, ``import qmemsim`` and loading the
workload's config.  The job file names the config, the CLI arguments,
whether to trace, and where to write the report (JSON).  A job without
CLI arguments measures set-up and then runs ``speed_probe``.  Run it
from the workload's work directory, with the checkout's ``src`` on
``PYTHONPATH``.

Exceptions from the CLI are not caught: they end this process with a
traceback and a non-zero exit code, which the parent counts as a failure.
"""

import json
import sys
import time

#: Iterations of the speed probe: 0.22-0.5 s on a shared 2-vCPU Xeon.
PROBE_ROUNDS = 4000


def speed_probe() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of small numpy calls and Python code.

    The mix resembles qmemsim's own (4x4 eigh, 16x16 least squares, Python
    glue) but uses only numpy, so a change to qmemsim cannot change it.
    Its time tracks how fast the machine runs such code at the moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    mats = rng.normal(size=(64, 4, 4))
    mats = mats + mats.transpose(0, 2, 1)
    a = rng.normal(size=(16, 16))
    b = rng.normal(size=16)
    acc = 0.0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i in range(PROBE_ROUNDS):
        acc += float(np.linalg.eigh(mats[i % 64])[0][0])
        acc += float(np.linalg.lstsq(a, b, rcond=None)[0][0])
    return time.perf_counter() - wall0, time.process_time() - cpu0


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    spawned = float(sys.argv[2])

    import qmemsim.cli
    from qmemsim.config import load_config

    load_config(job["config"])
    setup_s = time.monotonic() - spawned

    import os
    import resource

    report = {"setup_s": setup_s, "module": qmemsim.__file__}
    if job["argv"] is None:
        code = 0
        report["probe_wall_s"], report["probe_cpu_s"] = speed_probe()
    elif job["trace"]:
        import tracer

        spans = tracer.Tracer(job["index"])
        spans.install()
        try:
            code = qmemsim.cli.main(job["argv"])
        finally:
            spans.uninstall()
        report["left_wrapped"] = tracer.traced_bindings()
        root = [s for s in spans.spans if s[1] < 0]
        report["roots"] = [s[0] for s in root]
        report["traced_s"] = sum(s[4] - s[3] for s in root)
        report["self_sum_s"] = sum(tracer.self_times(spans.spans))
        report["per_layer"] = tracer.per_layer_metrics(spans.spans)
        if job.get("spans_path"):
            spans.write(job["spans_path"])
    else:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = qmemsim.cli.main(job["argv"])
        report["wall_s"] = time.perf_counter() - wall0
        report["cpu_s"] = time.process_time() - cpu0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["exit_code"] = code

    if job.get("environment"):
        import numpy

        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        report["environment"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_config": blas.get("openblas configuration", ""),
            "nproc": os.cpu_count(),
        }

    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
