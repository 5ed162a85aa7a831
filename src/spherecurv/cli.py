"""Command-line entry points.

Verbs: grid-check, classify, dualize, solve, sweep, radial, family; each
takes only the flags it reads (``VERBS``), and the last four a JSON config
(schema 1).  Exit code 0 means every invariant check in the run passed (for
a sweep of a Z_n-symmetric class, b stayed on the symmetry's indices), 2 a
usage error, including a config the verb cannot run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from ._rational import QQi
from .bundles import BundleSpec, HoloClass, divisor_of, phi_norm_sq
from .cohomology import b_coords, dual_map_H0, dualization_condition, flat_mass
from .errors import SpecMismatch, SphereCurvError, ZeroClass
from .geometry import build_grid
from .lab import DRIVERS, ExperimentConfig, _row, _value, write_run
from .pde import RadialProfile, solve_phi_system
from .strata import ExistenceRange, div_classifier


def _parse_coords(text: str, exact: bool) -> list:
    """Parse 're,im;re,im;...' into complex entries, or exact 'p/q,p/q;...' into QQi."""
    out = []
    for pair in (p for p in text.split(";") if p.strip()):
        parts = pair.split(",")
        if len(parts) != 2:
            raise ValueError(f"entry {pair!r} is not a 're,im' pair")
        try:
            re, im = (Fraction(x) if exact else float(x) for x in parts)
        except ZeroDivisionError:
            raise ValueError(f"entry {pair!r} has a zero denominator") from None
        out.append(QQi(re, im) if exact else complex(re, im))
    return out


def _config_file(path: str) -> ExperimentConfig:
    """``--config`` type: a config that fails to load is a usage error (exit 2), not a traceback."""
    try:
        return ExperimentConfig.from_json(path)
    except (OSError, ValueError, SphereCurvError) as exc:  # json.JSONDecodeError is a ValueError
        raise argparse.ArgumentTypeError(f"{path}: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    cfg = args.config
    cfg.experiment = args.verb
    if getattr(args, "out", None):  # solve writes no files, so it takes no --out
        cfg.out_dir = args.out
    if args.lmax is not None:
        cfg.solver = dict(cfg.solver, l_max=args.lmax)
    return cfg


def _cmd_grid_check(args) -> int:
    grid = build_grid(32 if args.lmax is None else args.lmax)
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
    rep = div_classifier(b, spec, exact=args.exact)
    rng = ExistenceRange.of_report(rep, spec)
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
    eta = dual_map_H0(HoloClass(spec, _parse_coords(args.a, exact=False)))
    rep = div_classifier(eta.b, spec)
    out = {
        "b": [[x.real, x.imag] for x in eta.b],
        "stratum_m": rep.stratum_m,
        "margin": rep.margin,
        "dualization_condition": dualization_condition(spec),
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_family(args) -> int:
    phi = args.config.the_class()
    div = divisor_of(phi)
    out = {
        "coefficients": [[x.real, x.imag] for x in phi.a],
        "divisor": [
            {"w": [p.w.real, p.w.imag] if np.isfinite(p.w) else "south-pole", "multiplicity": m}
            for p, m in div.points
        ],
        "total_multiplicity": div.total,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_solve(args) -> int:
    cfg = _load_config(args)
    phi = cfg.the_class()
    scfg = cfg.solve_config()
    lam = float(cfg.lambda_grid[-1]) if args.lam is None else args.lam
    res = solve_phi_system(phi, lam, scfg)
    grid = build_grid(scfg.l_max)
    report = {
        **_row(lam, res),
        "reached_lambda": res.lam,
        "sup_u": _value(np.abs(res.u.total).max()),
        "trace_points": len(res.continuation_trace),
    }
    if res.converged:
        # the conformal curvature actually realized by the solution
        kfield = 2.0 * phi_norm_sq(phi, res.u, grid)
        report["curvature_min"] = _value(kfield.min())
        report["curvature_max"] = _value(kfield.max())
        b = b_coords(phi, res.u, grid)
        rep = div_classifier(b.b, phi.spec)
        report["stratum_m"] = rep.stratum_m
        report["margin"] = rep.margin
    print(json.dumps(report, indent=2))
    return 0 if res.converged else 1


def _cmd_driver(args) -> int:
    cfg = _load_config(args)
    record = DRIVERS[args.verb](cfg)
    paths = write_run(record, cfg)
    print(json.dumps({"summary": record.summary, "paths": paths}, indent=2))
    return 0 if record.ok() else 1


FLAGS = {
    "config": dict(type=_config_file, required=True, help="JSON experiment config (schema 1)"),
    "out": dict(help="output directory override"),
    "lmax": dict(type=int, help="spectral degree override"),
    "b": dict(required=True, help="coordinates 're,im;re,im;...' (exact: 'p/q,p/q;...')"),
    "a": dict(required=True, help="class coefficients 're,im;...'"),
    "exact": dict(action="store_true", help="exact rational classifier mode"),
    "deg-l1": dict(type=int, default=0),
    "deg-l2": dict(type=int, required=True),
    "lam": dict(type=float, help="coupling value (default: last grid point)"),
}
RUN = ["config", "out", "lmax"]
# verb: (help, the flags it reads)
VERBS = {
    "grid-check": ("grid and transform invariant checks", ["lmax"]),
    "classify": ("classify a coordinate vector", ["b", "exact", "deg-l1", "deg-l2"]),
    "dualize": ("flat-metric dual coordinates of a class", ["a", "deg-l1", "deg-l2"]),
    "solve": ("solve the curvature system at one coupling", ["config", "lam", "lmax"]),
    "sweep": ("existence sweep along the coupling grid", RUN),
    "radial": ("radial shooting probe at 4*pi", RUN),
    "family": ("print a family class and its divisor", ["config"]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spherecurv", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, flags) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    args = parser.parse_args(argv)
    for flag in ("lmax", "lam"):
        value = getattr(args, flag, None)
        if value is not None and not 0 < value < float("inf"):
            parser.error(f"--{flag} must be positive and finite, got {value}")
    if getattr(args, "lmax", None) is not None and args.lmax < 4:
        parser.error(f"--lmax must be at least 4, got {args.lmax}")
    if args.verb == "grid-check":
        return _cmd_grid_check(args)
    try:
        if args.verb == "classify":
            return _cmd_classify(args)
        if args.verb == "dualize":
            return _cmd_dualize(args)
        # a config the verb cannot run is a usage error too, found before the run
        if args.verb == "solve" and args.lam is None and not args.config.lambda_grid:
            raise ValueError("solve needs --lam or a non-empty lambda_grid")
        if args.verb in ("solve", "sweep", "radial"):
            flat_mass(args.config.the_class())  # a class scaled out of the solvers' float range
        if args.verb == "radial":
            RadialProfile.from_class(args.config.the_class())
    except (ValueError, SpecMismatch, ZeroClass) as exc:  # malformed, wrong-length, zero or non-finite input
        parser.error(str(exc))
    return {"solve": _cmd_solve, "family": _cmd_family}.get(args.verb, _cmd_driver)(args)


if __name__ == "__main__":
    sys.exit(main())
