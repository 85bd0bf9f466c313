"""lmgcycle benchmark: one workload, timed end to end, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 20 --trace 0

Workloads are catalogue, large_n and point_queries (see workloads.py).
The run sets up (a fresh-interpreter import of lmgcycle, input
generation, reference load and warm-up, each repeated and the median
taken), then repeats passes of the workload until --seconds of pass time
has been measured, checking every pass's outputs outside its timed
region.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it runs the same untraced phase, then a traced phase with every public
lmgcycle function wrapped, and reports the per-layer metrics.  The last
line of standard output is one JSON object: correct, attempted, failed
and metrics.  Spans and a record of each run go to .bench_out/.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
# The traced phase measures this share of --seconds: enough passes for
# per-pass layer figures, without holding millions of spans.
TRACED_SHARE = 0.25
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lmgcycle, lmgcycle.cli; "
    "print(time.perf_counter() - t)"
)

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile that takes the sample just above rank q*n."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def import_seconds() -> float:
    """Time `import lmgcycle` in a fresh interpreter, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def calibrated_median(meter, step) -> tuple[float, float]:
    """Median of SETUP_REPEATS runs of step(), which returns its seconds.

    Returns the calibrated and the raw median.
    """
    meter.begin()
    raw = [meter.end_query(step()) for _ in range(SETUP_REPEATS)]
    scaled = [t * f for t, f in zip(raw, meter.end())]
    return statistics.median(scaled), statistics.median(raw)


def measure(workload, meter, seconds: float, first_index: int, tracer=None) -> list:
    """Closed loop: passes back to back until `seconds` of pass time.

    The meter takes calibration samples around and inside the queries of
    each pass and gives each query its factor (see calibration.py).
    """
    passes = []
    spent = 0.0
    workload.meter = meter
    while spent < seconds or not passes:
        meter.begin()
        if tracer is not None:
            tracer.mark_pass()
        done = workload.run_pass(first_index + len(passes))
        done.factors = meter.end(done.kinds)
        done.samples = meter.samples
        passes.append(done)
        spent += done.wall_s
    return passes


def end_to_end(passes, setup_s: float, scaled: bool = True) -> dict:
    """End-to-end metrics; scaled=False gives the raw measured values."""
    def latencies(p):
        if scaled:
            return sorted(t * f for t, f in zip(p.latencies_s, p.factors))
        return sorted(p.latencies_s)

    walls = [sum(latencies(p)) for p in passes]

    def per_pass(count):
        return statistics.median(count(p) / w for p, w in zip(passes, walls))

    def pass_percentile(q):
        return statistics.median(1e6 * percentile(latencies(p), q) for p in passes)

    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "rows_per_s": per_pass(lambda p: p.rows),
        "cycles_per_s": per_pass(lambda p: p.cycles),
        "queries_per_s": per_pass(lambda p: len(p.latencies_s)),
        "query_p50_us": pass_percentile(0.50),
        "query_p99_us": pass_percentile(0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def mode_flags(passes) -> dict:
    """Which query kind holds the p50 and p99 samples (1 if the expected one)."""
    samples = sorted((t, k) for p in passes for t, k in zip(p.latencies_s, p.kinds))
    p50_kind = percentile(samples, 0.50)[1]
    p99_kind = percentile(samples, 0.99)[1]
    return {
        "queries.p50_is_exact_cycle": int(p50_kind == "exact"),
        "queries.p99_is_asymptotic_cycle": int(p99_kind == "asymptotic"),
    }


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="lmgcycle benchmark")
    parser.add_argument("--workload", required=True, choices=("catalogue", "large_n", "point_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lmgcycle" / "__init__.py").is_file():
        print(f"error: no lmgcycle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    import calibration
    import workloads

    cls = {
        "catalogue": workloads.Catalogue,
        "large_n": workloads.LargeN,
        "point_queries": workloads.PointQueries,
    }[args.workload]
    meter = calibration.Calibration(cls.kernel, cls.query_kernels)

    import_s, raw_import_s = calibrated_median(meter, import_seconds)
    import lmgcycle
    import lmgcycle.cli  # noqa: F401  (the figures verb is driven through it)

    prepared = [None]

    def prepare() -> float:
        prepared[0] = None
        start = perf_counter()
        prepared[0] = cls(lmgcycle, workdir, args.seed)
        prepared[0].warm_up()
        return perf_counter() - start

    prepare_s, raw_prepare_s = calibrated_median(meter, prepare)
    workload = prepared[0]
    setup_s = import_s + prepare_s
    raw_setup_s = raw_import_s + raw_prepare_s

    passes = measure(workload, meter, args.seconds, 0)
    metrics = end_to_end(passes, setup_s)
    raw = end_to_end(passes, raw_setup_s, scaled=False)

    if args.trace:
        import tracing

        # Probes inside a traced call would count as its self time.
        meter.probing = False
        tracer = tracing.Tracer(lmgcycle)
        try:
            traced = measure(workload, meter, TRACED_SHARE * args.seconds, len(passes), tracer)
        finally:
            tracer.close()
        traced_metrics = end_to_end(traced, setup_s)
        traced_raw = end_to_end(traced, raw_setup_s, scaled=False)
        factor = traced_metrics["wall_s"] / traced_raw["wall_s"]
        traced_wall = traced_metrics["wall_s"]
        report = tracing.layer_metrics(tracer, len(traced), factor, traced_wall, metrics["wall_s"],
                                       sum(p.wall_s for p in traced))
        report.update(mode_flags(passes))
        tracer.write(OUT / f"spans-{args.workload}.npz")
        passes += traced
    else:
        report = metrics
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(report) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(report) ^ set(units))}")

    attempted = sum(len(p.latencies_s) for p in passes)
    failed = sum(p.failed_ops for p in passes)
    strict = sum(p.strict_misses for p in passes)
    admitted = sum(p.admitted for p in passes)
    env = environment()

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# passes={len(passes)} queries/pass={len(passes[0].latencies_s)} "
          f"latency samples={sum(len(p.latencies_s) for p in passes)}")
    for name, value in report.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("# raw, before calibration scaling: "
          + ", ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.3g} "
          f"(base: {attempted} top-level calls, each with all its outputs checked)")
    print(f"# outputs within tolerance but beyond a {workloads.oracle.STRICT_FACTOR:g}x tighter "
          f"bound: {strict}")
    print(f"# outputs admitted only by the series-erf rounding allowance: {admitted}")
    for note in [n for p in passes for n in p.notes][:10]:
        print(f"# mismatch: {note}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, strict_misses=strict, admitted=admitted, raw=raw,
                  passes=[{"wall_s": p.wall_s, "samples": p.samples} for p in passes])
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
