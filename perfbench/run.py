"""Benchmark of the pspurity package, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Measures one workload (fuzz, multimode, reproduce, fockmix) on the package
under ``src/`` and prints, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it is a JSON record with the
environment, the sample counts and the first failures.  Exits 2 without a
result when the package source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 5
#: BLAS runs on one thread: the matrices here are small, and a second thread
#: on a 2-CPU machine made the fockmix workload 1.7 times slower
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import pspurity; "
    "print(repr(time.perf_counter() - t0))"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fuzz", "multimode", "reproduce", "fockmix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_seconds(env: dict) -> float:
    """One fresh interpreter's ``import pspurity``, timed inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import numpy

    libs_dir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs_dir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": usable_cpus(),
        "cpu": cpu_model(),
        "seed": seed,
    }


def quantile_tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples above it.

    With fewer than eleven samples no percentile has ten above it, and the
    maximum is reported at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def untraced(workload, seed: int, seconds: float):
    from workloads import measure

    per_round = workload.ops_per_round()
    workload.warmup()
    start = time.perf_counter()
    tally = measure(
        workload, workload.ops(seed),
        lambda t: time.perf_counter() - start >= seconds and t.ops % per_round == 0,
    )
    heavy = list(tally.latencies["heavy"].values())
    light = list(tally.latencies["light"].values())
    metrics = {
        "throughput_per_s": tally.attempted / tally.busy_s,
        "heavy_p50_ms": 1e3 * statistics.median(heavy),
        "light_p50_ms": 1e3 * statistics.median(light),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tails = {}
    for kind, samples in (("heavy", heavy), ("light", light)):
        value, level = quantile_tail(samples)
        tails[kind] = {"ms": 1e3 * value, "percentile": level, "samples": len(samples)}
    detail = {"wall_s": time.perf_counter() - start, "ops": tally.ops, "tails": tails}
    return tally, metrics, detail


def traced(workload, seed: int, package):
    """The same fixed operation list, untraced and then traced."""
    from tracing import Tracer
    from workloads import measure

    count = workload.trace_rounds * workload.ops_per_round()
    workload.warmup()
    plain = measure(workload, itertools.islice(workload.ops(seed), count),
                    lambda t: False)
    tracer = Tracer(package)
    tracer.install()
    bytes_before = getattr(workload, "bytes_written", 0)
    try:
        traced_tally = measure(workload, itertools.islice(workload.ops(seed), count),
                               lambda t: False, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.bytes_written"] = getattr(workload, "bytes_written", 0) - bytes_before
    metrics["trace.overhead_s"] = traced_tally.busy_s - plain.busy_s
    spans_file = OUT / f"spans-{workload.name}-{seed}.json"
    tracer.write(spans_file)
    detail = {
        "ops": traced_tally.ops,
        "untraced_s": plain.busy_s,
        "traced_s": traced_tally.busy_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "exceptions_by_type": tracer.exceptions,
        "refused": tracer.refused,
        "checks": {name: {"deviation": dev, "tolerance": tol}
                   for name, (dev, tol) in tracer.checks.items()},
    }
    return [plain, traced_tally], metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pspurity" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'pspurity'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in BLAS_VARS:
        os.environ[var] = "1"
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = [] if args.trace else [import_seconds(child_env) for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(SRC))
    import pspurity

    if Path(pspurity.__file__).resolve().parent != SRC / "pspurity":
        print(f"perfbench: imported pspurity from {pspurity.__file__}", file=sys.stderr)
        return 2
    from workloads import make_workload

    workload = make_workload(args.workload, ROOT)
    try:
        if args.trace:
            tallies, metrics, detail = traced(workload, args.seed, pspurity)
            wanted = spec["per_layer"]
        else:
            tally, metrics, detail = untraced(workload, args.seed, args.seconds)
            metrics["setup_s"] = statistics.median(setup)
            tallies = [tally]
            wanted = spec["end_to_end"]
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()

    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 2
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failure_types = {}
    for t in tallies:
        for kind, n in t.failure_types.items():
            failure_types[kind] = failure_types.get(kind, 0) + n
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup_samples_s": setup,
        "failure_types": failure_types,
        "computed": {
            "bytes_written": getattr(workload, "bytes_written", 0),
            "fock_state_dim": getattr(workload, "state_dim", 0),
            "fock_state_bytes": 16 * getattr(workload, "state_dim", 0),
        },
        "failures": [f for t in tallies for f in t.failures][:20],
        **detail,
    }
    print(json.dumps({"record": record}, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
