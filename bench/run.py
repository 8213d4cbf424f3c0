"""piercelib benchmark: one workload in one process, one closed-loop caller.

    python3 bench/run.py --workload exact_arith --seed 1 --seconds 35 --trace 0

Workloads: exact_arith, law_sampling, dimension_report (see workloads.py).
The library is imported from src/ of the checkout this file lives in; no
installed copy is used.  `--seconds` fixes the amount of work, not a timer:
a run makes round(seconds / nominal pass time) passes (at least 4) of the
workload's op layout, so two commits compared under one setting do
identical work.  Every pass has the same layout of op kinds, with inputs of
its own.  Each op's output is checked; a failed check is counted, never
fatal.

A shared host switches between a slow state, its usual one, and a fast one
for seconds at a time; on the 2-vCPU Xeon VM the benchmark was written on,
interpreter-bound code ran up to 1.5 times faster in the fast state.  The
median of a run flips between the two states from run to run, so the timings
are upper quantiles over passes: `wall_s` and
`cpu_s` are the PASS_QUANTILE quantile of the pass times, and the latency
metrics read each op position at that quantile over the passes.  They read
the slow state whenever it covers a tenth of the passes.

With --trace 0 the last stdout line holds the end-to-end metrics.  With
--trace 1, odd passes run with span tracing (tracing.py) and the last line
holds the per-layer metrics, per traced pass, with the tracing overhead
(traced minus untraced quantile pass time).  The spans are written to
bench/out/ at exit.  The line before the last is a JSON record of the run:
op counts, the tail percentile, failures, pass times and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODULES = ("expansion", "intervals", "profiles", "families", "dimension", "laws", "_precision", "cli")

DEFAULT_SEED = 1  # used while the benchmark was written; 4242 is held out (README.md)
MIN_PASSES = 4  # the fewest passes a quantile over passes is taken from
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms is the slowest op with this many ops beyond it
PASS_QUANTILE = 0.9  # quantile over passes of the pass times and of each op's time

# One set-up in a fresh interpreter, timed inside it: cold import of the
# library and the workloads, then the workload's prepare().
SETUP_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:3]; "
    "import piercelib, piercelib.cli; from workloads import WORKLOADS; "
    "WORKLOADS[sys.argv[3]](piercelib, int(sys.argv[4]), int(sys.argv[5])).prepare(); "
    "print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not (SRC / "piercelib" / "__init__.py").is_file():
        fail(f"no piercelib source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import piercelib
    import piercelib.cli  # noqa: F401  (dimension_report calls cli.main)

    if Path(piercelib.__file__).resolve().parent != (SRC / "piercelib").resolve():
        fail(f"imported piercelib from {piercelib.__file__}, not from {SRC}")
    return piercelib


def child_setup_seconds(workload: str, seed: int, passes: int) -> float:
    """One cold set-up in a child interpreter; returns once the child has ended."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed), str(passes)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def source_loc(module: str) -> int:
    """Non-blank lines of a module that are not comment-only."""
    text = (SRC / "piercelib" / f"{module}.py").read_text(encoding="utf-8")
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


def environment() -> dict:
    import mpmath

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run_pass(ops) -> tuple[list[float], list[float], list[str]]:
    """Run one pass; per op its wall and CPU seconds, and the failure messages."""
    walls, cpus, failures = [], [], []
    for op in ops:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            message = op.run()
        except Exception as exc:  # a raising op is a failed op, never a stopped run
            message = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if message is not None:
            failures.append(f"{op.kind}: {message}"[:300])
    return walls, cpus, failures


def quantile(values, q: float = PASS_QUANTILE) -> float:
    """The q quantile of `values`, interpolated between order statistics."""
    ordered = sorted(values)
    at = q * (len(ordered) - 1)
    low = int(at)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (at - low)


def position_quantiles(passes: list[list[float]]) -> list[float]:
    """Each op position's quantile latency over the passes."""
    return [quantile(column) for column in zip(*passes)]


def kind_stats(kinds: list[str], latencies: list[float]) -> dict:
    """Per op kind, from the position quantiles of one pass: ops per pass,
    median latency in ms and seconds per pass."""
    by_kind: dict[str, list[float]] = {}
    for kind, seconds in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(seconds)
    return {
        kind: {
            "per_pass": len(v),
            "p50_ms": 1000 * statistics.median(v),
            "s_per_pass": math.fsum(v),
        }
        for kind, v in sorted(by_kind.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = import_library()
    from tracing import Tracer, layer_metrics
    from workloads import NULL_TRACER, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    passes = min(cls.max_passes, max(MIN_PASSES, round(args.seconds / cls.nominal_pass_s)))

    workload = cls(lib, args.seed, passes)
    workload.prepare()
    # The set-ups run in children spread over the run, so that their median
    # samples the machine states the passes see, not one moment.
    setup_before = [round(j * passes / SETUP_REPEATS) for j in range(SETUP_REPEATS)]
    setup_samples = []

    tracer = Tracer()
    walls = {False: [], True: []}  # per pass, per op
    cpus: list[list[float]] = []
    failures: list[str] = []
    kinds: list[str] = []
    attempted = 0
    for p in range(passes):
        for _ in range(setup_before.count(p)):
            setup_samples.append(child_setup_seconds(args.workload, args.seed, passes))
        traced = bool(args.trace) and p % 2 == 1
        ops = workload.ops(p, tracer if traced else NULL_TRACER)
        if kinds and [op.kind for op in ops] != kinds:
            fail(f"pass {p} of {args.workload} has another op layout than pass 0")
        kinds = [op.kind for op in ops]
        if traced:
            tracer.install()
        try:
            wall, cpu, bad = run_pass(ops)
        finally:
            tracer.uninstall()
        walls[traced].append(wall)
        attempted += len(ops)
        failures += bad
        if not traced:
            cpus.append(cpu)

    pass_walls = {traced: [math.fsum(w) for w in ws] for traced, ws in walls.items()}
    untraced_wall = quantile(pass_walls[False])
    # every op of the run at its position's quantile latency, in sorted order
    typical = position_quantiles(walls[False])
    ordered = sorted(typical)
    k = len(walls[False])
    n_ops = k * len(ordered)
    tail_rank = max(0, n_ops - 1 - TAIL_BEYOND)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "traced_passes": len(walls[True]),
        "ops": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "ops_per_pass": len(kinds),
        "op_tail_percentile": 100 * (tail_rank + 1) / n_ops,
        "timed_ops": n_ops,
        "ops_beyond_tail": n_ops - 1 - tail_rank,
        "op_kinds": kind_stats(kinds, typical),
        "pass_wall_s": pass_walls[False],
        "traced_pass_wall_s": pass_walls[True],
        "setup_samples_s": setup_samples,
        "environment": environment(),
    }
    if args.trace:
        traced_passes = len(walls[True])
        metrics = {name: (value, _unit(name)) for name, value in layer_metrics(tracer, traced_passes).items()}
        metrics["trace.overhead_s"] = (quantile(pass_walls[True]) - untraced_wall, "s")
        for module in MODULES:
            metrics[f"{module.lstrip('_')}.loc"] = (source_loc(module), "lines")
        out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out)
        record["spans_file"] = str(out.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (untraced_wall, "s"),
            "cpu_s": (quantile([math.fsum(c) for c in cpus]), "s"),
            "ops_per_s": (len(kinds) / untraced_wall, "1/s"),
            "op_p50_ms": (1000 * statistics.median(ordered), "ms"),
            "op_tail_ms": (1000 * ordered[tail_rank // k], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    if ".digits_per_s." in metric:
        return "1/s"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return {
        "laws.bits_per_digit": "bit/digit",
        "laws.retry_ratio": "ratio",
        "cli.bytes_out": "B",
    }.get(metric, "count")


if __name__ == "__main__":
    sys.exit(main())
