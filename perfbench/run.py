"""qobdd benchmark: certification throughput, program build/eval latency, layer traces.

    python3 perfbench/run.py --workload certify-mod3 --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each call into qobdd starts when the
previous one has returned and been checked.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics;
the line before it holds the run's details (environment, sample counts, gate
errors).  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run.  See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
BLAS_THREADS = "1"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
BUILD_FIRST_S = 1.0
BUILD_SHARE = 0.25


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="print the seconds from start to a constructed workload, then exit",
    )
    return parser.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy

    for library in glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def setup_seconds(args: argparse.Namespace) -> float:
    """Median over fresh interpreters of imports plus workload construction."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe",
    ]  # fmt: skip
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it.

    When that percentile would fall below the median (fewer than 21 samples),
    the slowest sample is reported as percentile 100.
    """
    ordered = sorted(samples)
    index = len(ordered) - 11
    if len(ordered) < 21:
        return ordered[-1], 100.0
    return ordered[index], 100.0 * index / (len(ordered) - 1)


def loop(workload, seconds: float) -> list:
    """Closed loop of whole passes until `seconds` have passed.

    Builds are timed for BUILD_FIRST_S before the first pass and, after every
    pass, for BUILD_SHARE of that pass's time.  So the builds sample the host
    throughout the run, in the same proportion as the calls they sit between.
    """
    ops = []
    started = time.perf_counter()
    workload.time_builds(BUILD_FIRST_S)
    while not ops or time.perf_counter() - started < seconds:
        pass_started = time.perf_counter()
        for _ in range(workload.pass_length):
            ops.append(workload.step(len(ops)))
        workload.time_builds(BUILD_SHARE * (time.perf_counter() - pass_started))
    return ops


def end_to_end(workload, ops: list, setup_s: float) -> tuple[dict, dict]:
    calls = [op for op in ops if op.kind == workload.kind]
    seconds = [op.seconds for op in calls]
    tail_s, percentile = tail(seconds)
    metrics = {
        "inputs_per_s": (sum(op.inputs for op in calls) / sum(seconds), "1/s"),
        "call_p50_s": (statistics.median(seconds), "s"),
        "build_s": (workload.build_seconds(), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "calls": len(calls),
        "call_tail_s": tail_s,
        "call_tail_percentile": percentile,
        "builds": len(workload.build_times),
    }
    return metrics, details


def traced(workload, seconds: float) -> tuple[list, dict, dict, list]:
    """Alternate untraced and traced passes; per-layer figures are per traced pass."""
    from tracing import PER_LAYER_UNITS, Tracer, layer_metrics

    tracer = Tracer()
    ops, plain, with_trace = [], [], []
    started = time.perf_counter()
    index = 0
    while not with_trace or time.perf_counter() - started < seconds:
        for times, active in ((plain, None), (with_trace, tracer)):
            workload.tracer = active
            if active is not None:
                tracer.install()
            try:
                batch = [workload.step(index + i) for i in range(workload.pass_length)]
            finally:
                tracer.restore()
                workload.tracer = None
            index += workload.pass_length
            ops.extend(batch)
            times.append(sum(op.seconds for op in batch))
    values = layer_metrics(tracer, len(with_trace))
    values["trace.overhead_s"] = statistics.median(with_trace) - statistics.median(plain)
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    details = {"passes": len(with_trace), "untraced_pass_s": plain, "traced_pass_s": with_trace}
    return ops, metrics, details, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qobdd" / "__init__.py").is_file():
        print(f"error: qobdd sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: with two, load from other processes on a shared host
    # roughly doubled the run-to-run spread of the sweep-bound workloads.
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, RESULTS)
    if args.setup_probe:
        print(time.perf_counter() - _STARTED)
        return 0
    spans = []
    try:
        if args.trace:
            ops, metrics, details, spans = traced(workload, args.seconds)
        else:
            setup_s = setup_seconds(args)
            ops = loop(workload, args.seconds)
            metrics, details = end_to_end(workload, ops, setup_s)
    finally:
        workload.close()
    failed = sum(1 for op in ops if op.errors)
    details.update(
        workload=args.workload,
        trace=args.trace,
        environment=environment(args.seed),
        errors=[error for op in ops for error in op.errors][:20],
    )
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    saved = {"details": details, "metrics": metrics, "build_times": workload.build_times, "spans": spans}
    out.write_text(json.dumps(saved))
    details["results_file"] = str(out.relative_to(ROOT))
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
