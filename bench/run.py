"""Benchmark of spherecurv: one workload per process, one JSON result line.

    python3 bench/run.py --workload converge --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout.  With ``--trace 0`` the last line of standard output carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced phase and the tracing overhead, and the spans are written to
``bench/out/``.  Times are reported at reference speed: a speed probe
(speed.py) samples the shared core's speed during the run, and each time is
rescaled by the slowdown it saw.  See bench/README.md.
"""

import os

# Pinned before numpy is imported: on two shared cores single-threaded
# OpenBLAS is both faster and steadier for these problem sizes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import atexit  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# the speed probe's kernel for each workload's operations, see speed.py;
# set-up is always scaled by "int"
PROBE_KERNEL = {"converge": "int", "edge": "int", "classify": "fraction", "dbar": "int"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_package():
    """Import spherecurv from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        sc = importlib.import_module("spherecurv")
    except ImportError as exc:
        log(f"cannot import spherecurv from {src}: {exc}")
        sys.exit(2)
    if not Path(sc.__file__).resolve().is_relative_to(src.resolve()):
        log(f"spherecurv was imported from {sc.__file__}, not from {src}")
        sys.exit(2)
    return sc


def run_cycles(ops, n_cycles=None, seconds=None, tag=None, tracer=None):
    """Run whole passes over ops: n_cycles of them, or until seconds of op wall time.

    Returns (intervals, cycles, failed, problems, last clean (op, output)),
    where intervals holds the (start, end) clock readings of each operation.
    """
    intervals, failed, problems = [], 0, []
    clean = None
    cycles = 0
    wall = 0.0
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op = tag
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a failed one
                intervals.append((t0, time.perf_counter()))
                wall += intervals[-1][1] - t0
                failed += 1
                log(f"FAILED {op.label}: {type(exc).__name__}: {exc}")
                continue
            intervals.append((t0, time.perf_counter()))
            wall += intervals[-1][1] - t0
            op_problems, fault = op.check(out)
            problems += [f"{op.label}: {p}" for p in op_problems]
            if fault is not None:
                failed += 1
                if cycles == 0:
                    log(f"FAILED {op.label}: {fault}")
            elif not op_problems:
                clean = (op, out)
        cycles += 1
        if (n_cycles is not None and cycles >= n_cycles) or (seconds is not None and wall >= seconds):
            return intervals, cycles, failed, problems, clean


def scaled(probe, kernel, intervals):
    """Times of the intervals at reference speed, and their raw wall times."""
    return [probe.scaled(kernel, t0, t1) for t0, t1 in intervals], [t1 - t0 for t0, t1 in intervals]


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(PROBE_KERNEL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    probe = speed.SpeedProbe()
    probe.start()
    atexit.register(probe.stop)  # no tick may land after the handler is gone

    import numpy as np
    import scipy

    sc = import_package()
    import tracing
    import workloads

    t_imported = time.perf_counter()
    log(
        f"workload={args.workload} seed={args.seed} trace={args.trace} numpy={np.__version__} "
        f"scipy={scipy.__version__} nproc={os.cpu_count()} "
        + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    )

    build_grid_cache_clear = sc.geometry.build_grid.cache_clear
    kernel = PROBE_KERNEL[args.workload]
    tracer = tracing.Tracer(sc, probe, kernel) if args.trace else None
    if tracer is not None:
        tracer.install()
    prepare = workloads.PREPARE[args.workload]
    setup_intervals = [(T_START, t_imported)]  # import, preparations, warm-up
    for rep in range(SETUP_REPS):
        if tracer is not None:
            tracer.op = f"setup-{rep}"
        t0 = time.perf_counter()
        build_grid_cache_clear()
        ops, warmup = prepare(sc, args.seed)
        setup_intervals.append((t0, time.perf_counter()))
    if tracer is not None:
        tracer.uninstall()
    t0 = time.perf_counter()
    warmup()
    setup_intervals.append((t0, time.perf_counter()))

    if tracer is None:
        intervals, cycles, failed, problems, clean = run_cycles(ops, seconds=args.seconds)
        attempted = len(intervals)
    else:
        i_plain, cycles, f_plain, p_plain, _ = run_cycles(ops, seconds=args.seconds / 2)
        tracer.counts.clear()
        tracer.install()
        try:
            i_traced, _, f_traced, p_traced, clean = run_cycles(ops, n_cycles=cycles, tag="traced", tracer=tracer)
        finally:
            tracer.uninstall()
        intervals = i_plain + i_traced
        attempted, failed, problems = len(intervals), f_plain + f_traced, p_plain + p_traced
    probe.stop()

    setup_parts, setup_raw = scaled(probe, "int", setup_intervals)
    setup_s = setup_parts[0] + statistics.median(setup_parts[1:-1]) + setup_parts[-1]
    durations, raw = scaled(probe, kernel, intervals)
    log(
        "setup at reference speed: import {:.3f}s, prepare {}s, warm-up {:.3f}s; raw wall {:.3f}s".format(
            setup_parts[0], " ".join(f"{t:.3f}" for t in setup_parts[1:-1]), setup_parts[-1],
            setup_raw[0] + statistics.median(setup_raw[1:-1]) + setup_raw[-1],
        )
    )
    log(
        f"operations: {attempted} in {cycles} cycle(s); at reference speed {sum(durations):.3f}s "
        f"(median {statistics.median(durations):.4f}s), raw wall {sum(raw):.3f}s (median {statistics.median(raw):.4f}s); "
        f"probe: {len(probe.starts)} samples, mean {kernel} slowdown {probe.slowdown(kernel, T_START, time.perf_counter()):.3f}"
    )

    if clean is None:
        problems.append("no operation produced a clean output to self-test the checks on")
    else:
        problems += workloads.selftest(args.workload, *clean)
    for p in problems:
        log(f"WRONG {p}")

    if tracer is None:
        metrics = {
            "ops_per_s": (attempted / sum(durations), "1/s"),
            "latency_p50_s": (statistics.median(durations), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layer = tracing.layer_metrics(tracer, {"traced"}, cycles, SETUP_REPS)
        metrics = {k: (v, tracing.unit_of(k)) for k, v in layer.items()}
        plain = len(i_plain) / sum(durations[: len(i_plain)])
        traced = len(i_traced) / sum(durations[len(i_plain) :])
        metrics["trace.ops_per_s_untraced"] = (plain, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced, "1/s")
        metrics["trace.overhead_share"] = (plain / traced - 1.0, "ratio")
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(path)
        log(f"spans written to {path}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
