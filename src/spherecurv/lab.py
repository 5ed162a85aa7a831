"""Experiment drivers: curvature families, sweeps, audits, flat-file output.

Each driver consumes an :class:`ExperimentConfig` (JSON schema version 1) and
produces a :class:`RunRecord` holding per-coupling rows plus a summary; rows
go to CSV (one fixed header, diffable), the config echo and summary to JSON.
Summaries report where continuation stopped and cite the classifier bound;
they never claim non-existence.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .bundles import BundleSpec, HoloClass
from .cohomology import IsometryAction, b_coords, dual_map_H0, pullback_class
from .errors import HypothesisViolation
from .geometry import build_grid
from .pde import SolveConfig, solve_phi_system, solve_radial
from .strata import DEFAULT_TOL, div_classifier

SCHEMA_VERSION = 1

CSV_HEADER_PREFIX = ["lambda", "converged", "stall_lambda", "residual_sup", "offset"]
CSV_HEADER_SUFFIX = ["stratum", "margin"]


@dataclass
class ExperimentConfig:
    experiment: str
    deg_L1: int = 0
    deg_L2: int = 4
    family: dict | None = None          # {"kind": 1|2|3, "a":..., "n":..., "q":[...]}
    class_coeffs: list | None = None    # [[re, im], ...] alternative to family
    lambda_grid: list = field(default_factory=lambda: [np.pi, 2 * np.pi, 3 * np.pi, 4 * np.pi])
    solver: dict = field(default_factory=dict)
    out_dir: str = "runs"
    tol: float = DEFAULT_TOL
    schema: int = SCHEMA_VERSION

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config root must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported config schema {schema!r}; expected {SCHEMA_VERSION}")
        solver = data.get("solver", {})
        if not isinstance(solver, dict):
            raise ValueError(f"config key 'solver' must be a JSON object, got {type(solver).__name__}")
        solver_keys = {f.name for f in fields(SolveConfig)}  # l_max alone: the other solver values are constants
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        unknown += sorted(f"solver.{key}" for key in set(solver) - solver_keys)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        l_max = solver.get("l_max", SolveConfig.l_max)
        if isinstance(l_max, bool) or not isinstance(l_max, int) or l_max < 4:
            raise ValueError(f"solver.l_max must be an integer >= 4, got {l_max!r}")

        def number(x) -> bool:
            return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)

        def positive(x) -> bool:
            return number(x) and x > 0

        def pair(c) -> bool:
            return isinstance(c, list) and len(c) == 2 and all(map(number, c))

        lambdas = data.get("lambda_grid", [])
        if not isinstance(lambdas, list) or not all(map(positive, lambdas)):
            raise ValueError(f"lambda_grid must be a list of positive finite numbers, got {lambdas!r}")
        if not positive(data.get("tol", DEFAULT_TOL)):
            raise ValueError(f"tol must be a positive finite number, got {data['tol']!r}")
        for key in ("deg_L1", "deg_L2"):
            if key in data and (isinstance(data[key], bool) or not isinstance(data[key], int)):
                raise ValueError(f"config key {key!r} must be an integer, got {data[key]!r}")
        family, coeffs = data.get("family"), data.get("class_coeffs")
        if family is not None and not isinstance(family, dict):
            raise ValueError(f"config key 'family' must be a JSON object, got {family!r}")
        if coeffs is not None and not (isinstance(coeffs, list) and all(map(pair, coeffs))):
            raise ValueError(f"config key 'class_coeffs' must be a list of [re, im] number pairs, got {coeffs!r}")
        if "experiment" not in data:
            raise ValueError("config needs the key 'experiment'")
        cfg = cls(**data)
        try:
            cfg.the_class()  # family hypotheses, coefficient length and zero class fail here, not mid-run
        except TypeError as exc:  # of the keys the class reads, only family's values are unchecked above
            raise ValueError(f"config key 'family' holds a value of the wrong type: {exc}") from exc
        return cfg

    def spec(self) -> BundleSpec:
        return BundleSpec(self.deg_L1, self.deg_L2)

    def solve_config(self) -> SolveConfig:
        return SolveConfig(**self.solver)

    def the_class(self) -> HoloClass:
        if (self.family is None) == (self.class_coeffs is None):
            raise ValueError("config must carry exactly one of 'family' or 'class_coeffs'")
        if self.family is not None:
            fam = dict(self.family)
            return gen_family(fam.pop("kind", None), fam, self.spec())
        a = np.array([complex(re, im) for re, im in self.class_coeffs])
        return HoloClass(self.spec(), a)

    def canonical_dict(self) -> dict:
        d = asdict(self)
        d["lambda_grid"] = [float(x) for x in d["lambda_grid"]]
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunRecord:
    config_hash: str
    rows: list
    summary: dict
    wall_time: float
    curves: dict = field(default_factory=dict)  # name -> list of row dicts

    def ok(self) -> bool:
        return bool(self.summary.get("checks_passed", True))


# ----------------------------------------------------------------------
# curvature families
# ----------------------------------------------------------------------


def gen_family(kind: int, params: dict, spec: BundleSpec) -> HoloClass:
    """Polynomial classes whose squared norms are the named curvature shapes.

    kind 1: g = z^a            (zeros split between the two poles)
    kind 2: g = z^a (z^n - 1)  (polar zeros plus a regular equatorial ring;
            only the pole-balanced variant is promised a solve at 4*pi)
    kind 3: g = z^a prod_i (z^n - q_i)   (rings at prescribed moduli)

    Raises HypothesisViolation naming the failed inequality.
    """
    k = spec.k
    a = int(params.get("a", 0))
    if kind == 1:
        if not 0 < a < k - 2:
            raise HypothesisViolation(f"kind 1 requires 0 < a < k-2, got a={a}, k={k}")
        coeffs = np.zeros(k - 1, dtype=complex)
        coeffs[a] = 1.0
        return HoloClass(spec, coeffs)
    if kind == 2:
        n = int(params.get("n", 0))
        if not (n > 2 * a > 0):
            raise HypothesisViolation(f"kind 2 requires n > 2a > 0, got a={a}, n={n}")
        # pole-balanced (2a+n = k-2, multiplicity a at each pole) or pole-free
        # (a+n = k-2, all zeros explicit) variants of the ring family.  The
        # pole-free variant leaves the chart pole without multiplicity, so its
        # branch can concentrate there: it carries no existence promise at
        # the curvature coupling 4*pi (k=7, a=1, n=4 stalls below it).
        if 2 * a + n != k - 2 and a + n != k - 2:
            raise HypothesisViolation(
                f"kind 2 requires 2a + n = k-2 or a + n = k-2, got a={a}, n={n}, k={k}"
            )
        coeffs = np.zeros(k - 1, dtype=complex)
        coeffs[a + n] = 1.0
        coeffs[a] = -1.0
        return HoloClass(spec, coeffs)
    if kind == 3:
        n = int(params.get("n", 0))
        q = [complex(x) if not isinstance(x, (list, tuple)) else complex(*x) for x in params.get("q", [])]
        m = len(q)
        if not (n > a > 0):
            raise HypothesisViolation(f"kind 3 requires n > a > 0, got a={a}, n={n}")
        if not a + m * n < k - 2:
            raise HypothesisViolation(f"kind 3 requires a + m*n < k-2, got {a}+{m}*{n} >= {k - 2}")
        # the pole multiplicity b = k-2-a-mn must be a proper remainder mod n
        b = k - 2 - a - m * n
        if not 0 < b < n:
            raise HypothesisViolation(
                f"kind 3 requires 0 < (k-2-a) mod n and k-2-a-mn < n, got b={b}, n={n}"
            )
        poly = np.zeros(1, dtype=complex)
        poly[0] = 1.0
        for qi in q:
            factor = np.zeros(n + 1, dtype=complex)
            factor[0] = -qi
            factor[n] = 1.0
            poly = np.convolve(poly, factor)
        coeffs = np.zeros(k - 1, dtype=complex)
        coeffs[a : a + len(poly)] = poly
        return HoloClass(spec, coeffs)
    raise ValueError(f"unknown family kind {kind}")


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def ring_parameters(cfg: ExperimentConfig) -> tuple[int, int]:
    """(a, n) of a ring family (kind 2 or 3); raises ValueError for any other class."""
    if cfg.family is None or cfg.family.get("kind") not in (2, 3):
        raise ValueError("symmetry audit requires a family of kind 2 or 3")
    return int(cfg.family["a"]), int(cfg.family["n"])


def random_class(spec: BundleSpec, seed: int) -> HoloClass:
    """Seedable random test class; the seed belongs in every emitted artifact."""
    rng = np.random.default_rng(seed)
    k = spec.k
    return HoloClass(spec, rng.normal(size=k - 1) + 1j * rng.normal(size=k - 1))


def _row(lam, result, b, stratum, margin, tol):
    # an unconverged row's residual_sup and offset belong to stall_lambda,
    # the last coupling the solver reached, not to the target lambda
    row = {
        "lambda": float(lam),
        "converged": bool(result.converged) if result is not None else False,
        "stall_lambda": None if result is None or result.converged else float(result.lam),
        "residual_sup": float(result.residual_sup) if result is not None else float("nan"),
        "offset": float(result.offset) if result is not None else float("nan"),
        "stop_reason": None if result is None else result.stop_reason,
        "stop_residual_fine": float("nan") if result is None else float(result.stop_residual_fine),
    }
    row["b"] = None if b is None else [complex(x) for x in b]
    row["stratum"] = stratum
    row["margin"] = margin
    row["boundary_flag"] = margin is not None and margin < 10 * tol
    return row


def _solve_point(phi, lam, scfg, grid, tol, start):
    result = solve_phi_system(phi, lam, scfg, start=start)
    if result.converged:
        b = b_coords(phi, result.u, grid).b
        rep = div_classifier(b, phi.spec, tol=tol)
        return _row(lam, result, b, rep.stratum_m, rep.margin, tol), result
    return _row(lam, result, None, None, None, tol), result


def _warm_ladder(phi, cfg: ExperimentConfig, grid) -> tuple[list, int]:
    """Ascending rows, each continued from the last converged point (so stall_lambda is the branch's).

    Once a solve stalls, every higher coupling reuses that stalled result and
    solves nothing: its ramp would only repeat the stalled one from the same
    converged point.  Returns the rows and the MINRES iterations of all solves.
    """
    scfg = cfg.solve_config()
    rows = []
    last = stalled = None
    minres_iters = 0
    for lam in sorted(float(x) for x in cfg.lambda_grid):
        if stalled is not None:
            rows.append(_row(lam, stalled, None, None, None, cfg.tol))
            continue
        row, result = _solve_point(phi, lam, scfg, grid, cfg.tol, start=last)
        rows.append(row)
        minres_iters += result.minres_iters
        if result.converged:
            last = result
        else:
            stalled = result
    return rows, minres_iters


def _stop(rows) -> dict:
    """Why the branch stopped: the first unconverged row's stop fields, or "converged"."""
    row = next((r for r in rows if not r["converged"]), {"stop_reason": "converged", "stop_residual_fine": np.nan})
    fine = row["stop_residual_fine"]
    return {"stop_reason": row["stop_reason"], "stop_residual_fine": None if np.isnan(fine) else fine}  # null, not NaN


def run_existence_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Solve along the coupling grid; classify the emitted coordinates.

    Each point continues the branch from the last converged point below it;
    points above the first stall reuse the stalled result.
    """
    t0 = time.time()
    phi = cfg.the_class()
    grid = build_grid(cfg.solve_config().l_max)
    rows, minres_iters = _warm_ladder(phi, cfg, grid)

    b0 = dual_map_H0(phi, grid)
    rep0 = div_classifier(b0.b, phi.spec, tol=cfg.tol)
    bound = 4.0 * np.pi * rep0.stratum_m
    failed = [r["lambda"] for r in rows if not r["converged"]]
    summary = {
        "experiment": "sweep",
        "flat_dual_stratum": rep0.stratum_m,
        "lambda_bound_from_classifier": bound,
        "first_failure_lambda": failed[0] if failed else None,
        "boundary_lambdas": [r["lambda"] for r in rows if r["boundary_flag"]],
        "statement": (
            f"continuation failed first at lambda={failed[0]:.6f}; classifier bound 4*pi*m={bound:.6f}"
            if failed
            else f"all sweep points converged; classifier bound 4*pi*m={bound:.6f}"
        ),
        **_stop(rows),
        "minres_iters": minres_iters,
        "checks_passed": True,
    }
    return RunRecord(cfg.config_hash(), rows, summary, time.time() - t0)


def run_symmetry_audit(cfg: ExperimentConfig) -> RunRecord:
    """Sparsity-pattern audit for ring-symmetric families (kind 2 or 3).

    The emitted coordinates may be nonzero only at indices j with
    j - 1 = a (mod n); the audit reports the worst off-pattern mass over the
    coupling grid, plus identity- and reflection-isometry consistency.
    """
    t0 = time.time()
    a, n = ring_parameters(cfg)
    phi = cfg.the_class()
    grid = build_grid(cfg.solve_config().l_max)
    k = phi.spec.k

    pattern = np.array([(j - 1 - a) % n == 0 for j in range(1, k)])
    rows, minres_iters = _warm_ladder(phi, cfg, grid)
    worst = 0.0
    for row in rows:
        if row["converged"]:
            b = np.array(row["b"])
            off = float(np.linalg.norm(b[~pattern]) / np.linalg.norm(b))
            row["off_pattern"] = off
            worst = max(worst, off)

    # identity audit is exact; reflection conjugates coefficients
    ident = pullback_class(IsometryAction.identity(), phi)
    ident_err = float(np.abs(ident.a - phi.a).max())
    refl = pullback_class(IsometryAction.reflection(), phi)
    refl_err = float(np.abs(refl.a - np.conj(phi.a)).max())

    converged_rows = [r for r in rows if r["converged"]]
    summary = {
        "experiment": "symmetry-audit",
        "pattern_indices": [int(j) for j in range(1, k) if pattern[j - 1]],
        "max_off_pattern": worst,
        "identity_pullback_error": ident_err,
        "reflection_conjugation_error": refl_err,
        "all_converged": len(converged_rows) == len(rows),
        **_stop(rows),
        "minres_iters": minres_iters,
        "checks_passed": bool(worst < 1e-6 and ident_err < 1e-12 and refl_err < 1e-12),
    }
    return RunRecord(cfg.config_hash(), rows, summary, time.time() - t0)


def run_radial_nonexistence(cfg: ExperimentConfig) -> RunRecord:
    """Shooting sweep at the curvature coupling for axis-divisor classes.

    Emits the defect curve, its minimum, and the classifier side of the
    argument (flat-dual coordinates sit in the bottom stratum, capping the
    solvable range at 4*pi).
    """
    t0 = time.time()
    phi = cfg.the_class()
    scfg = cfg.solve_config()
    grid = build_grid(scfg.l_max)
    lam = 4.0 * np.pi

    rad = solve_radial(phi, lam, scfg)

    b0 = dual_map_H0(phi, grid)
    rep = div_classifier(b0.b, phi.spec, tol=cfg.tol)
    bvec = b0.b
    hankel_ok = True
    for j in range(len(bvec) - 2):
        lhs = bvec[j] * bvec[j + 2]
        rhs = bvec[j + 1] ** 2
        if abs(lhs - rhs) > 1e-8 * max(abs(rhs), np.abs(bvec).max() ** 2):
            hankel_ok = False

    curve = [
        {"alpha": float(a_), "mismatch": float(v)}
        for a_, v in zip(rad.mismatch_alphas, rad.mismatch_values)
        if np.isfinite(v)
    ]
    row = _row(lam, None, bvec, rep.stratum_m, rep.margin, cfg.tol)
    row["converged"] = rad.converged
    row["stall_lambda"] = None if rad.converged else lam
    row["residual_sup"] = rad.residual_sup if rad.residual_sup is not None else float("nan")
    row["offset"] = float(rad.u.offset) if rad.u is not None else float("nan")
    rows = [row]
    summary = {
        "experiment": "radial",
        "radial_root_found": rad.converged,
        "root_alpha": rad.root_alpha,
        "mismatch_min": rad.mismatch_min,
        "error_estimate": rad.error_estimate,
        "degenerate_family": rad.degenerate_family,
        "flat_dual_stratum": rep.stratum_m,
        "hankel_rank_one": hankel_ok,
        "existence_range_hi": 4.0 * np.pi * rep.stratum_m,
        "statement": (
            "radial root found"
            if rad.converged
            else f"no shooting root; min |defect| = {rad.mismatch_min:.3e} "
            f"(noise {rad.error_estimate:.1e}); classifier caps the range at 4*pi"
        ),
        "checks_passed": True,
    }
    return RunRecord(cfg.config_hash(), rows, summary, time.time() - t0, curves={"shooting": curve})


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def write_run(record: RunRecord, cfg: ExperimentConfig) -> dict:
    """One JSON (config echo + summary) and one CSV per run in ``cfg.out_dir``;
    extra long-format CSVs for any curves.  Returns the paths written."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.experiment}-{record.config_hash}"
    paths = {}

    k = cfg.spec().k
    header = (
        CSV_HEADER_PREFIX
        + [f"b_{j}_{p}" for j in range(1, k) for p in ("re", "im")]
        + CSV_HEADER_SUFFIX
    )
    csv_path = out / f"{stem}.csv"
    with open(csv_path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in record.rows:
            b = row.get("b")
            bcols = []
            for j in range(k - 1):
                if b is None:
                    bcols.extend(["", ""])
                else:
                    bcols.extend([f"{b[j].real:.17g}", f"{b[j].imag:.17g}"])
            writer.writerow(
                [
                    f"{row['lambda']:.17g}",
                    int(row["converged"]),
                    "" if row["stall_lambda"] is None else f"{row['stall_lambda']:.17g}",
                    f"{row['residual_sup']:.17g}",
                    f"{row['offset']:.17g}",
                ]
                + bcols
                + [
                    "" if row["stratum"] is None else row["stratum"],
                    "" if row["margin"] is None else f"{row['margin']:.17g}",
                ]
            )
    paths["csv"] = str(csv_path)

    for name, curve in record.curves.items():
        cpath = out / f"{stem}-{name}.csv"
        with open(cpath, "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if curve:
                keys = list(curve[0])
                writer.writerow(keys)
                for point in curve:
                    writer.writerow([f"{point[key]:.17g}" for key in keys])
        paths[name] = str(cpath)

    json_path = out / f"{stem}.json"
    payload = {
        "config": cfg.canonical_dict(),
        "config_hash": record.config_hash,
        "summary": record.summary,
        "wall_time_s": record.wall_time,
    }
    json_path.write_text(json.dumps(payload, indent=2, default=_json_default) + "\n", encoding="utf-8")
    paths["json"] = str(json_path)
    return paths


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


DRIVERS = {
    "sweep": run_existence_sweep,
    "symmetry-audit": run_symmetry_audit,
    "radial": run_radial_nonexistence,
}
