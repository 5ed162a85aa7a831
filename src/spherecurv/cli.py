"""Command-line entry points.

Verbs: grid-check, classify, dualize, solve, sweep, symmetry-audit, radial,
family.  Each reads one JSON config (schema 1) plus flag overrides; the exit
code is 0 only when every invariant check in the run passes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from ._rational import QQi
from .bundles import BundleSpec, divisor_of
from .cohomology import b_coords, dual_map_H0, dualization_condition
from .errors import SpecMismatch, ZeroClass
from .geometry import build_grid
from .lab import DRIVERS, ExperimentConfig, write_run
from .strata import DEFAULT_TOL, div_classifier, existence_range


def _parse_coords(text: str, exact: bool) -> list:
    """Parse 're,im;re,im;...' into complex entries, or exact 'p/q,p/q;...' into QQi."""
    out = []
    for pair in (p for p in text.split(";") if p.strip()):
        parts = pair.split(",")
        if len(parts) != 2:
            raise ValueError(f"entry {pair!r} is not a 're,im' pair")
        re, im = (Fraction(x) if exact else float(x) for x in parts)
        out.append(QQi(re, im) if exact else complex(re, im))
    return out


def _config_file(path: str) -> ExperimentConfig:
    """``--config`` type: a config that fails to load is a usage error (exit 2), not a traceback."""
    try:
        return ExperimentConfig.from_json(path)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from exc


def _load_config(args, default_experiment: str) -> ExperimentConfig:
    cfg = args.config or ExperimentConfig(experiment=default_experiment)
    cfg.experiment = default_experiment
    if args.out:
        cfg.out_dir = args.out
    if args.lmax is not None:
        cfg.solver = dict(cfg.solver, l_max=args.lmax)
    if args.tol is not None:
        cfg.tol = args.tol
    return cfg


def _tol(args) -> float:
    return DEFAULT_TOL if args.tol is None else args.tol


def _cmd_grid_check(args) -> int:
    l_max = 32 if args.lmax is None else args.lmax
    grid = build_grid(l_max)
    checks = {}
    checks["weights_sum"] = abs(grid.weights.sum() - 1.0) < 1e-12
    ones = np.ones((grid.n_lat, grid.n_lon))
    checks["integrate_one"] = abs(grid.integrate(ones) - 1.0) < 1e-12
    # the (m, cos|sin, l) = (2, cos, 3) basis function
    y = grid.synthesize((grid.packed_entries == (2, 0, 3)).all(axis=1).astype(float))
    checks["harmonic_mean_zero"] = abs(grid.integrate(y)) < 1e-12
    lap = grid.laplacian(y)
    checks["laplace_eigenvalue"] = np.abs(lap + 4 * np.pi * 12 * y).max() < 1e-9
    checks["roundtrip"] = np.abs(grid.synthesize(grid.analyze(y)) - y).max() < 1e-10
    for name, ok in checks.items():
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 1


def _cmd_classify(args) -> int:
    spec = BundleSpec(args.deg_l1, args.deg_l2)
    b = _parse_coords(args.b, args.exact)
    rep = div_classifier(b, spec, tol=_tol(args), exact=args.exact)
    rng = existence_range(b, spec, tol=_tol(args), exact=args.exact)
    out = {
        "div_eta": rep.div_eta,
        "j_star": rep.j_star,
        "s_minus": rep.s_minus,
        "stratum_m": rep.stratum_m,
        "margin": rep.margin,
        "witness": "zero-h" if rep.witness == "zero-h" else "rational",
        "existence_range": [rng.lo, rng.hi],
        "no_solution_band": list(rng.no_solution_band),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_dualize(args) -> int:
    spec = BundleSpec(args.deg_l1, args.deg_l2)
    a = _parse_coords(args.a, exact=False)
    grid = build_grid(32 if args.lmax is None else args.lmax)
    from .bundles import HoloClass

    phi = HoloClass(spec, a)
    eta = dual_map_H0(phi, grid)
    rep = div_classifier(eta.b, spec, tol=_tol(args))
    out = {
        "b": [[x.real, x.imag] for x in eta.b],
        "stratum_m": rep.stratum_m,
        "margin": rep.margin,
        "dualization_condition": dualization_condition(spec, grid),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_family(args) -> int:
    cfg = _load_config(args, "family")
    phi = cfg.the_class()
    div = divisor_of(phi)
    out = {
        "coefficients": [[x.real, x.imag] for x in phi.a],
        "divisor": [
            {"w": [p.w.real, p.w.imag] if np.isfinite(p.w) else "south-pole", "multiplicity": m}
            for p, m in div.points
        ],
        "total_multiplicity": div.total,
    }
    print(json.dumps(out, indent=2, default=str))
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_config(args, "solve")
    phi = cfg.the_class()
    scfg = cfg.solve_config()
    lam = float(cfg.lambda_grid[-1]) if args.lam is None else args.lam
    from .pde import solve_phi_system

    res = solve_phi_system(phi, lam, scfg)
    grid = build_grid(scfg.l_max)
    report = {
        "lambda": lam,
        "converged": res.converged,
        "reached_lambda": res.lam,
        "stop_reason": res.stop_reason,
        "stop_residual_fine": None if np.isnan(res.stop_residual_fine) else res.stop_residual_fine,
        "residual_sup": res.residual_sup,
        "offset": res.offset,
        "sup_u": float(np.abs(res.u.total).max()),
        "trace_points": len(res.continuation_trace),
    }
    if res.converged:
        # the conformal curvature actually realized by the solution
        from .bundles import phi_norm_sq

        kfield = 2.0 * phi_norm_sq(phi, res.u, grid)
        report["curvature_min"] = float(kfield.min())
        report["curvature_max"] = float(kfield.max())
        b = b_coords(phi, res.u, grid)
        rep = div_classifier(b.b, phi.spec, tol=cfg.tol)
        report["stratum_m"] = rep.stratum_m
        report["margin"] = rep.margin
    print(json.dumps(report, indent=2))
    return 0 if res.converged else 1


def _cmd_driver(args, verb: str) -> int:
    cfg = _load_config(args, verb)
    record = DRIVERS[verb](cfg)
    paths = write_run(record, cfg)
    print(json.dumps({"summary": record.summary, "paths": paths}, indent=2, default=str))
    return 0 if record.ok() else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spherecurv", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--config", type=_config_file, help="JSON experiment config (schema 1)")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--lmax", type=int, help="spectral degree override")
        p.add_argument("--tol", type=float, help="classifier tolerance override")

    p = sub.add_parser("grid-check", help="grid and transform invariant checks")
    common(p)

    p = sub.add_parser("classify", help="classify a coordinate vector")
    common(p)
    p.add_argument("--b", required=True, help="coordinates 're,im;re,im;...' (exact: 'p/q,p/q;...')")
    p.add_argument("--exact", action="store_true", help="exact rational classifier mode")
    p.add_argument("--deg-l1", type=int, default=0)
    p.add_argument("--deg-l2", type=int, required=True)

    p = sub.add_parser("dualize", help="flat-metric dual coordinates of a class")
    common(p)
    p.add_argument("--a", required=True, help="class coefficients 're,im;...'")
    p.add_argument("--deg-l1", type=int, default=0)
    p.add_argument("--deg-l2", type=int, required=True)

    p = sub.add_parser("solve", help="solve the curvature system at one coupling")
    common(p)
    p.add_argument("--lam", type=float, help="coupling value (default: last grid point)")

    for verb in ("sweep", "symmetry-audit", "radial"):
        p = sub.add_parser(verb)
        common(p)

    p = sub.add_parser("family", help="print a family class and its divisor")
    common(p)

    args = parser.parse_args(argv)
    for flag in ("lmax", "tol", "lam"):
        value = getattr(args, flag, None)
        if value is not None and value <= 0:
            parser.error(f"--{flag} must be positive, got {value}")
    if getattr(args, "lmax", None) is not None and args.lmax < 4:
        parser.error(f"--lmax must be at least 4, got {args.lmax}")
    if args.verb == "grid-check":
        return _cmd_grid_check(args)
    try:
        if args.verb == "classify":
            return _cmd_classify(args)
        if args.verb == "dualize":
            return _cmd_dualize(args)
    except (ValueError, SpecMismatch, ZeroClass) as exc:  # malformed, wrong-length, zero or non-finite input
        parser.error(str(exc))
    if args.verb == "solve":
        return _cmd_solve(args)
    if args.verb == "family":
        return _cmd_family(args)
    return _cmd_driver(args, args.verb)


if __name__ == "__main__":
    sys.exit(main())
