"""The repository benchmark: BlinkML one-shot training and the serving stack.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload oneshot_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the median),
measures it for ``--seconds`` with telemetry and the warm cache off, checks
every answer and prints the end-to-end metrics.  ``--trace 1`` measures the
workload once untraced, then once more with the timing wrappers of
``perfbench/tracing.py`` installed, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are detail records (machine fingerprint, per-pair sweep rows, the
run's result digest, the metric values under the names of the paper
tables).  See ``perfbench/README.md`` for the definition of each metric.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned and the program's own environment overrides
# (REPRO_* runtime switches, DEFAULT_* configuration knobs) are removed
# before anything imports NumPy or the program, so that ambient settings can
# neither change the thread count nor turn cold work into warm-cache hits.
PINNED_THREADS = 1
for _name in list(os.environ):
    if _name.startswith(("REPRO_", "DEFAULT_")):
        del os.environ[_name]
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("oneshot_sweep", "serve_hits", "serve_cold_bursts")
SETUP_REPEATS = 3
#: a root call's per-layer self times must sum to its wall time within this
#: share of it
TRACE_BOUND = 0.05


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def fingerprint() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_blas_threads": PINNED_THREADS,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile, at most p95, with at least ten samples beyond it.

    Above p95 the serving tail is a few requests that waited out a second
    batching window or a pause of the machine, and its level differs from
    run to run far more than a change to the program would move it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    beyond = max(10, math.ceil(0.05 * n))
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def end_to_end(measured, setup_times: list[float]) -> tuple[dict, dict]:
    typical = measured.class_times()
    pooled = [v for values in measured.latencies.values() for v in values]
    geomean = math.exp(sum(math.log(v) for v in typical.values()) / len(typical))
    tail_s, percentile = tail(pooled)
    reference = measured.reference_times()
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "latency_ms": (1e3 * geomean, "ms"),
        "tail_ms": (1e3 * tail_s, "ms"),
        "ops_per_s": (measured.ops_per_s, "1/s"),
        "speedup": (sum(reference.values()) / sum(typical.values()), "ratio"),
        "sample_fraction": (sum(measured.fractions) / len(measured.fractions), "ratio"),
    }
    detail = {
        "samples": len(pooled),
        "tail_percentile": percentile,
        "setup_times_s": setup_times,
        "class_median_s": typical,
        "reference_median_s": reference,
        "guarantee_violations": measured.violations,
    }
    return metrics, detail


def named(workload: str, measured, metrics: dict) -> dict:
    """The values under the names the paper tables and ROADMAP use."""
    pooled = [v for values in measured.latencies.values() for v in values]
    if workload == "oneshot_sweep":
        train_s = sum(measured.class_times().values())
        full_s = sum(measured.reference_times().values())
        return {
            "train_s": train_s,
            "full_train_s": full_s,
            "speedup": full_s / train_s,
            "sample_fraction": metrics["sample_fraction"][0],
            "guarantee_violations": measured.violations,
        }
    tail_s, percentile = tail(pooled)
    if workload == "serve_hits":
        return {
            "hit_p50_us": 1e6 * median(pooled),
            "hit_tail_us": 1e6 * tail_s,
            "hit_tail_percentile": percentile,
            "hit_samples": len(pooled),
            "hit_rps": measured.ops_per_s,
        }
    return {
        "cold_p50_s": median(pooled),
        "cold_tail_s": tail_s,
        "cold_tail_percentile": percentile,
        "cold_samples": len(pooled),
        "contracts_per_s": measured.ops_per_s,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def timed_setup(workload) -> float:
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def check_digest(workload_name: str, seed: int, digest: str, measured) -> None:
    """A run's result digest must repeat across runs of one seed."""
    store = BENCH_DIR / ".runs"
    store.mkdir(exist_ok=True)
    path = store / f"{workload_name}-{seed}.digest"
    if path.exists():
        previous = path.read_text().strip()
        if previous != digest:
            measured.fail_check(f"digest {digest} differs from earlier run's {previous}")
        return
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)


def run_untraced(workload, seconds: float):
    import workloads

    setup_times = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        setup_times.append(timed_setup(workload))
    measured = workload.measure(seconds)
    workloads.run_checks(measured)
    metrics, detail = end_to_end(measured, setup_times)
    return metrics, measured, detail


def run_traced(workload_name: str, workload, seconds: float):
    import layers
    import workloads
    from tracing import Tracer, install

    # The serving workloads' full-training references are left out of both
    # windows: they are not serving work.
    workload.setup()
    untraced = workload.measure(seconds, references=False)
    workloads.run_checks(untraced)
    workload.teardown()

    tracer = Tracer()
    install(tracer)
    try:
        workload.setup()
        before = layers.Counters.read(workload, tracer)
        traced = workload.measure(seconds, references=False)
        after = layers.Counters.read(workload, tracer)
    finally:
        tracer.uninstall()
    workloads.run_checks(traced)
    metrics, detail = layers.per_layer(workload_name, untraced, traced, before, after)
    if detail["trace_self_sum_err"] > TRACE_BOUND:
        traced.fail_check(
            f"per-layer self times miss a root's wall time by "
            f"{detail['trace_self_sum_err']:.3f} of it (bound {TRACE_BOUND})"
        )
    if untraced.digest != traced.digest:
        traced.fail_check("traced pass gave different results from the untraced pass")
    traced.merge(untraced)
    return metrics, traced, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="BlinkML repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "benchmarks").is_dir():
        print(f"perfbench: no program sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import workloads
    from repro.obs import set_obs_enabled

    set_obs_enabled(False)
    emit({"fingerprint": fingerprint()})
    workload = workloads.make(args.workload, args.seed, BENCH_DIR / ".work")
    try:
        if args.trace:
            metrics, measured, detail = run_traced(args.workload, workload, args.seconds)
        else:
            metrics, measured, detail = run_untraced(workload, args.seconds)
            emit({"named": named(args.workload, measured, metrics)})
    finally:
        workload.teardown()
    check_digest(args.workload, args.seed, measured.digest, measured)
    if args.trace:
        metrics["failed_frac"] = (measured.failed / measured.attempted, "ratio")
    for record in measured.details:
        emit(record)
    emit(
        {
            "detail": detail,
            "digest": measured.digest,
            "check_failures": measured.check_failures,
            "theta_n_overshoots": measured.overshoots,
        }
    )
    emit(
        {
            "correct": measured.failed == 0,
            "attempted": measured.attempted,
            "failed": measured.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
