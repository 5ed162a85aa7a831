"""Collect the benchmark into a checked-in BENCH_<n>.json and compare it with the last one.

    python3 tools/bench_collect.py                       # writes BENCH_<n+1>.json
    python3 tools/bench_collect.py --against other/BENCH_3.json
    python3 tools/bench_collect.py --fingerprint-only    # writes nothing

It measures the checkout it sits in.  For every workload of BENCHMARK.json it
runs ``bench/run.py --trace 0`` at seeds 101-110 and ``--trace 1`` once at
seed 104, each in its own process, one after another, and keeps every
result line.  It adds the numpy/scipy versions and BLAS thread variables
the runs logged, the OpenBLAS build, and a correctness fingerprint: the
workloads' inputs (bench/workloads.py, imported and used as is) run once
each at seeds 101 and 104, recording

- ``residual_sup``, ``residual_fine``, b, MINRES iterations and Newton
  steps (the trace's iterations summed) of every ``converge`` input and of
  every solve behind a ``dbar`` input; a monomial class solves on the m = 0
  grid by dense corrections, so its MINRES iterations read 0;
- b, ``p_f`` and ``dbar_rel_l2`` of every ``dbar`` input;
- the stall coupling, ``stop_reason`` and stratum of every ``edge`` row;
- ``div_eta`` of every ``classify`` vector (exact and float), and in
  ``classify_reports`` its ``j_star``, ``s_minus`` and a 12-digit sha256 of
  the witness repr, for both reports, and the float report's ``margin`` as
  ``float.hex``, so a classifier change can show its margins bitwise unchanged.

b and ``p_f`` are rounded to 1e-10.  Residuals are recorded unrounded,
so read them against their roundoff floor.  ``residual_sup`` is formed
from the solver's packed coefficients.  A residual formed after analyzing a
nodal u again carries that round trip's roundoff, amplified by the
Laplacian's 4*pi*l(l+1): at l_max 64 it reads 6.4e-9 to 2.1e-8 on the
two-pole classes at 4*pi, against at most 1.2e-9 from the packed
coefficients.  ``residual_fine`` is formed from packed coefficients too,
but it moves with any change of roundoff: re-analyzing the returned u of
z, k=5 at 4*pi, l_max 24, moves it from 1.7246e-8 to 1.7998e-8, and two
trees that differ only in roundoff have read up to 47% apart in it.

The file then prints a table of median deltas and fingerprint differences
against ``--against``, by default the newest earlier ``BENCH_*.json`` in the
root.  A run takes about 20 minutes.

``--fingerprint-only`` computes the fingerprint alone and prints its
differences against that file, so a change can show unchanged b before a
full collection.  It writes no file, exits 0, and takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(101, 111)
TRACE_SEED = 104
FINGERPRINT_SEEDS = (101, 104)
ROUND = 10  # decimals kept of b and p_f


def bench_index(path: Path) -> int:
    m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    return int(m.group(1)) if m else -1


def src_digest() -> str:
    """sha256 over the package sources (path and content), so a file can be matched to a checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    logged = next((line for line in proc.stderr.splitlines() if line.startswith("workload=")), "")
    env = {k: v for k, v in re.findall(r"(\w+)=(\S+)", logged) if k not in ("workload", "seed", "trace")}
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode, "env": env, "result": result}


# ----------------------------------------------------------------------
# fingerprint: the workloads' outputs, run once in this process
# ----------------------------------------------------------------------


def _b(b) -> list:
    return [[round(float(z.real), ROUND), round(float(z.imag), ROUND)] for z in b]


def _solve(res) -> dict:
    return {
        "residual_sup": float(res.residual_sup),
        "residual_fine": float(res.residual_fine),
        "minres_iters": int(res.minres_iters),
        "newton_steps": sum(int(iters) for _, iters, _ in res.continuation_trace),
    }


def fingerprint(seed: int) -> dict:
    """Outputs of one pass over every workload's inputs at ``seed``."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # as bench/run.py pins them; only effective before numpy loads
    for path in (str(ROOT / "bench"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spherecurv as sc
    import workloads

    out = {}
    # dbar's inputs are built in preparation: record its solves and b_coords there
    solves, coords = [], []
    solve, b_coords = sc.pde.solve_phi_system, sc.cohomology.b_coords

    def solve_rec(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    def b_coords_rec(*args, **kwargs):
        coords.append(b_coords(*args, **kwargs))
        return coords[-1]

    sc.pde.solve_phi_system, sc.cohomology.b_coords = solve_rec, b_coords_rec
    try:
        dbar_ops, _ = workloads.prepare_dbar(sc, seed)
    finally:
        sc.pde.solve_phi_system, sc.cohomology.b_coords = solve, b_coords
    inputs = []
    for op, c in zip(dbar_ops, coords):
        sol = op.run()
        inputs.append({"label": op.label, "b": _b(c.b), "p_f": _b(sol.p_f), "dbar_rel_l2": sol.report["dbar_rel_l2"]})
    out["dbar"] = {"fixture_solves": [_solve(r) for r in solves], "inputs": inputs}

    ops, _ = workloads.prepare_converge(sc, seed)
    out["converge"] = []
    for op in ops:
        o = op.run()
        out["converge"].append({"label": op.label, **_solve(o.result), "b": _b(o.b), "stratum": o.report.stratum_m})

    ops, _ = workloads.prepare_edge(sc, seed)
    out["edge"] = []
    for op in ops:
        rec = op.run()
        rows = [{"lambda": r["lambda"], "stall_lambda": r["stall_lambda"], "stop_reason": r["stop_reason"],
                 "stratum": r["stratum"]} for r in rec.rows]
        out["edge"].append({
            "label": op.label,
            "rows": rows,
            "first_failure_lambda": rec.summary["first_failure_lambda"],
            "minres_iters": rec.summary["minres_iters"],
        })

    ops, _ = workloads.prepare_classify(sc, seed)
    outs = [op.run() for op in ops]
    out["classify"] = [[[e.div_eta, f.div_eta] for e, f in reports] for reports in outs]
    out["classify_reports"] = [
        [{"exact": _report(e), "float": {**_report(f), "margin": f.margin.hex()}} for e, f in reports]
        for reports in outs
    ]
    return out


def _report(rep) -> dict:
    witness = hashlib.sha256(repr(rep.witness).encode()).hexdigest()[:12]
    return {"j_star": rep.j_star, "s_minus": rep.s_minus, "witness": witness}


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------


def medians(data: dict) -> dict:
    """(workload, metric) -> median over the untraced seeds, and the traced run's metrics."""
    vals = {}
    for run in data["runs"]:
        if run["result"] is None:
            continue
        for name, m in run["result"]["metrics"].items():
            vals.setdefault((run["workload"], name), []).append(m["value"])
    return {key: statistics.median(v) for key, v in vals.items()}


def _flat(obj, path=""):
    """Leaves of a nested fingerprint as {path: value}."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flat(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flat(v, f"{path}[{i}]")
    else:
        yield path, obj


def fingerprint_diffs(old: dict, new: dict) -> list:
    """One line per differing non-number leaf; per number field, the count and largest change;
    per key found in one file only, with its indices blanked, the count."""
    a, b = dict(_flat(old)), dict(_flat(new))
    only = Counter(re.sub(r"\[\d+\]", "[]", k) for k in set(a) ^ set(b))  # counted per index-free key
    lines = [f"  only in one file: {k} ({n})" for k, n in sorted(only.items())]
    worst = {}  # field name -> [leaves differing, max abs change, max relative change]
    for k in sorted(set(a) & set(b)):
        x, y = a[k], b[k]
        if x == y or (isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y)):
            continue
        if isinstance(x, (int, float)) and isinstance(y, (int, float)) and not isinstance(x, bool):
            w = worst.setdefault(re.sub(r"\[\d+\]", "[]", k), [0, 0.0, 0.0])
            w[0] += 1
            w[1] = max(w[1], abs(y - x))
            w[2] = max(w[2], abs(y - x) / max(abs(x), abs(y)))
        else:
            lines.append(f"  {k}: {x!r} -> {y!r}")
    lines += [f"  {k}: {n} differ, max abs {d:.2e}, max rel {r:.2e}" for k, (n, d, r) in sorted(worst.items())]
    return lines


def report(old: dict, new: dict, old_name: str) -> str:
    mo, mn = medians(old), medians(new)
    out = [f"medians against {old_name} (ratio new/old):"]
    for key in sorted(set(mo) & set(mn)):
        x, y = mo[key], mn[key]
        if x == y == 0:  # a layer the workload never enters
            continue
        ratio = y / x if x else math.nan
        out.append(f"  {key[0]:9s} {key[1]:38s} {x:12.6g} -> {y:12.6g}  {ratio:7.3f}")
    return "\n".join(out + fingerprint_report(old, new["fingerprint"]))


def fingerprint_report(old: dict, prints: dict) -> list:
    diffs = fingerprint_diffs(old.get("fingerprint", {}), prints)
    return ["fingerprint differences:" if diffs else "fingerprint: identical"] + diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--against", help="earlier result file to compare with (default: the newest BENCH_*.json)")
    parser.add_argument("--fingerprint-only", action="store_true",
                        help="print the fingerprint's differences only; run no benchmark and write no file")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = sorted(ROOT.glob("BENCH_*.json"), key=bench_index)
    out = ROOT / f"BENCH_{bench_index(earlier[-1]) + 1 if earlier else 1}.json"
    against = Path(args.against) if args.against else (earlier[-1] if earlier else None)
    if args.fingerprint_only:
        prints = {str(s): fingerprint(s) for s in FINGERPRINT_SEEDS}
        if against is None:
            print("no earlier BENCH_*.json to compare with")
        else:
            print("\n".join([f"against {against.name}:"] + fingerprint_report(json.loads(against.read_text()), prints)))
        return 0

    workloads = [w["name"] for w in spec["workloads"]]
    plan = [(w, s, 0) for w in workloads for s in SEEDS] + [(w, TRACE_SEED, 1) for w in workloads]
    runs = []
    for i, (w, s, trace) in enumerate(plan, 1):
        t0 = time.time()
        runs.append(run_one(w, s, spec["run_seconds"], trace))
        print(f"[{i}/{len(plan)}] {w} seed {s} trace {trace}: exit {runs[-1]['exit']} ({time.time() - t0:.0f} s)",
              file=sys.stderr, flush=True)

    prints = {str(s): fingerprint(s) for s in FINGERPRINT_SEEDS}  # first import of numpy in this process
    import numpy as np

    envs = sorted({tuple(sorted(r["env"].items())) for r in runs if r["env"]})
    data = {
        "src_sha256": src_digest(),
        "python": sys.version.split()[0],
        "run_env": [dict(e) for e in envs],  # numpy/scipy versions, nproc and the BLAS thread variables each run logged
        "openblas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration"),
        "run_seconds": spec["run_seconds"],
        "runs": runs,
        "fingerprint": prints,
    }
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    if against is not None:
        print(report(json.loads(against.read_text()), data, against.name))
    else:
        print("no earlier BENCH_*.json to compare with")
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
