"""Experiment drivers: curvature families, sweeps, audits, flat-file output.

Each driver consumes an :class:`ExperimentConfig` (JSON schema version 1) and
produces a :class:`RunRecord` holding per-coupling rows plus a summary.  The
sweep and the symmetry audit solve one warm-started ladder of couplings; the
radial probe writes one row at 4*pi and a shooting curve.  ``write_run``
names every file of a run ``<experiment>-<config_hash>``: a JSON with the
config echo, hash, summary and wall time, a CSV of the rows (one fixed
header, diffable) and, for the radial probe, ``-shooting.csv``.  Summaries
report where continuation stopped and cite the classifier bound; they never
claim non-existence.
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
from .pde import SolveConfig, SolveResult, solve_phi_system, solve_radial
from .strata import DEFAULT_TOL, div_classifier

SCHEMA_VERSION = 1

CSV_HEADER_PREFIX = ["lambda", "converged", "stall_lambda", "residual_sup", "offset"]
CSV_HEADER_SUFFIX = ["stratum", "margin"]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _pair(c) -> bool:
    return isinstance(c, list) and len(c) == 2 and all(map(_number, c))


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

        def positive(x) -> bool:
            return _number(x) and x > 0

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
        if coeffs is not None and not (isinstance(coeffs, list) and all(map(_pair, coeffs))):
            raise ValueError(f"config key 'class_coeffs' must be a list of [re, im] number pairs, got {coeffs!r}")
        if "experiment" not in data:
            raise ValueError("config needs the key 'experiment'")
        cfg = cls(**data)
        cfg.the_class()  # family values and hypotheses, coefficient length and zero class fail here, not mid-run
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

    ``kind``, ``a`` and ``n`` are integers and ``q`` a list of numbers or
    [re, im] pairs; any other value, or a key the kind does not read, raises
    ValueError naming ``family.<key>``.  Raises HypothesisViolation naming the
    failed inequality.
    """

    def wrong_type(key, want, value):
        return ValueError(
            f"config key 'family' holds a value of the wrong type: family.{key} must be {want}, got {value!r}"
        )

    def integer(key):
        value = params.get(key, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise wrong_type(key, "an integer", value)
        return value

    if isinstance(kind, bool) or not isinstance(kind, int) or kind not in (1, 2, 3):
        raise ValueError(f"unknown family kind {kind!r}: family.kind must be 1, 2 or 3")
    reads = ("a", "n", "q")[:kind]
    unread = sorted(set(params) - set(reads))
    if unread:
        raise ValueError(
            f"config key 'family' holds a key its kind does not read: family kind {kind} reads "
            f"{', '.join(reads)}, got {', '.join(f'family.{key}' for key in unread)}"
        )
    k = spec.k
    a = integer("a")
    coeffs = np.zeros(k - 1, dtype=complex)
    if kind == 1:
        if not 0 < a < k - 2:
            raise HypothesisViolation(f"kind 1 requires 0 < a < k-2, got a={a}, k={k}")
        coeffs[a] = 1.0
        return HoloClass(spec, coeffs)
    n = integer("n")
    if kind == 2:
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
        coeffs[a + n] = 1.0
        coeffs[a] = -1.0
        return HoloClass(spec, coeffs)
    q = params.get("q", [])
    if not isinstance(q, list) or not all(_number(x) or _pair(x) for x in q):
        raise wrong_type("q", "a list of numbers or [re, im] pairs", q)
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
    poly = np.ones(1, dtype=complex)
    for qi in q:
        factor = np.zeros(n + 1, dtype=complex)
        factor[0] = -(complex(*qi) if isinstance(qi, list) else qi)
        factor[n] = 1.0
        poly = np.convolve(poly, factor)
    coeffs[a : a + len(poly)] = poly
    return HoloClass(spec, coeffs)


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def ring_parameters(cfg: ExperimentConfig) -> tuple[int, int]:
    """(a, n) of a ring family (kind 2 or 3); raises ValueError for any other class."""
    if cfg.family is None or cfg.family.get("kind") not in (2, 3):
        raise ValueError("symmetry audit requires a family of kind 2 or 3")
    return cfg.family["a"], cfg.family["n"]


NO_COORDINATES = {"b": None, "stratum": None, "margin": None, "boundary_flag": False}


def _coordinates(b, rep, tol) -> dict:
    """A row's coordinate cells: b, its stratum and margin, and whether the margin is under 10*tol."""
    return {
        "b": [complex(x) for x in b],
        "stratum": rep.stratum_m,
        "margin": rep.margin,
        "boundary_flag": rep.margin < 10 * tol,
    }


def _row(lam, result: SolveResult) -> dict:
    # an unconverged row's residual_sup and offset belong to stall_lambda,
    # the last coupling the solver reached, not to the target lambda
    return {
        "lambda": float(lam),
        "converged": bool(result.converged),
        "stall_lambda": None if result.converged else float(result.lam),
        "residual_sup": float(result.residual_sup),
        "offset": float(result.offset),
        "stop_reason": result.stop_reason,
        "stop_residual_fine": float(result.stop_residual_fine),
    }


def _ladder(phi, cfg: ExperimentConfig, grid) -> tuple[list, dict]:
    """Ascending rows, each continued from the last converged point (so stall_lambda is the branch's).

    Once a solve stalls, every higher coupling reuses that stalled result and
    solves nothing: its ramp would only repeat the stalled one from the same
    converged point.  Returns the rows and the summary fields of the stop:
    the stalled result's reason and fine residual (null, not NaN) and the
    MINRES iterations of all solves.
    """
    scfg = cfg.solve_config()
    rows, result, minres_iters = [], None, 0
    for lam in sorted(float(x) for x in cfg.lambda_grid):
        if result is None or result.converged:
            result = solve_phi_system(phi, lam, scfg, start=result)
            minres_iters += result.minres_iters
        coords = NO_COORDINATES
        if result.converged:
            b = b_coords(phi, result.u, grid).b
            coords = _coordinates(b, div_classifier(b, phi.spec, tol=cfg.tol), cfg.tol)
        rows.append({**_row(lam, result), **coords})
    reason, fine = ("converged", math.nan) if result is None else (result.stop_reason, result.stop_residual_fine)
    fine = None if math.isnan(fine) else fine  # null, not NaN
    return rows, {"stop_reason": reason, "stop_residual_fine": fine, "minres_iters": minres_iters}


def _run(cfg: ExperimentConfig, body) -> RunRecord:
    """Every driver's clock, class, grid and record around ``body(cfg, phi, grid) -> (rows, summary, curves)``."""
    t0 = time.time()
    phi = cfg.the_class()
    rows, summary, curves = body(cfg, phi, build_grid(cfg.solve_config().l_max))
    return RunRecord(cfg.config_hash(), rows, summary, time.time() - t0, curves)


def run_existence_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Solve along the coupling grid; classify the emitted coordinates.

    Each point continues the branch from the last converged point below it;
    points above the first stall reuse the stalled result.
    """
    return _run(cfg, _sweep)


def _sweep(cfg, phi, grid):
    rows, stop = _ladder(phi, cfg, grid)
    rep0 = div_classifier(dual_map_H0(phi, grid).b, phi.spec, tol=cfg.tol)
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
        **stop,
        "checks_passed": True,
    }
    return rows, summary, {}


def run_symmetry_audit(cfg: ExperimentConfig) -> RunRecord:
    """Sparsity-pattern audit for ring-symmetric families (kind 2 or 3).

    The emitted coordinates may be nonzero only at indices j with
    j - 1 = a (mod n); the audit reports the worst off-pattern mass over the
    coupling grid, plus identity- and reflection-isometry consistency.
    """
    return _run(cfg, _audit)


def _audit(cfg, phi, grid):
    a, n = ring_parameters(cfg)
    k = phi.spec.k
    pattern = np.array([(j - 1 - a) % n == 0 for j in range(1, k)])
    rows, stop = _ladder(phi, cfg, grid)
    worst = 0.0
    for row in rows:
        if row["converged"]:
            b = np.array(row["b"])
            row["off_pattern"] = float(np.linalg.norm(b[~pattern]) / np.linalg.norm(b))
            worst = max(worst, row["off_pattern"])

    # identity audit is exact; reflection conjugates coefficients
    ident_err = float(np.abs(pullback_class(IsometryAction.identity(), phi).a - phi.a).max())
    refl_err = float(np.abs(pullback_class(IsometryAction.reflection(), phi).a - np.conj(phi.a)).max())
    summary = {
        "experiment": "symmetry-audit",
        "pattern_indices": [j for j in range(1, k) if pattern[j - 1]],
        "max_off_pattern": worst,
        "identity_pullback_error": ident_err,
        "reflection_conjugation_error": refl_err,
        "all_converged": all(r["converged"] for r in rows),
        **stop,
        "checks_passed": bool(worst < 1e-6 and ident_err < 1e-12 and refl_err < 1e-12),
    }
    return rows, summary, {}


def run_radial_nonexistence(cfg: ExperimentConfig) -> RunRecord:
    """Shooting sweep at the curvature coupling for axis-divisor classes.

    Emits the defect curve, its minimum, and the classifier side of the
    argument (flat-dual coordinates sit in the bottom stratum, capping the
    solvable range at 4*pi).
    """
    return _run(cfg, _radial)


def _radial(cfg, phi, grid):
    lam = 4.0 * np.pi
    rad = solve_radial(phi, lam, cfg.solve_config())
    b = dual_map_H0(phi, grid).b
    rep = div_classifier(b, phi.spec, tol=cfg.tol)
    # a rank-one Hankel matrix: b_j b_{j+2} = b_{j+1}^2 up to 1e-8 max|b|^2
    hankel_ok = not np.any(np.abs(b[:-2] * b[2:] - b[1:-1] ** 2) > 1e-8 * np.abs(b).max() ** 2)
    row = {
        "lambda": lam,
        "converged": rad.converged,
        "stall_lambda": None if rad.converged else lam,
        "residual_sup": math.nan if rad.residual_sup is None else rad.residual_sup,
        "offset": math.nan if rad.u is None else float(rad.u.offset),
        "stop_reason": None,
        "stop_residual_fine": math.nan,
        **_coordinates(b, rep, cfg.tol),
    }
    curve = [
        {"alpha": float(a_), "mismatch": float(v)}
        for a_, v in zip(rad.mismatch_alphas, rad.mismatch_values)
        if np.isfinite(v)
    ]
    summary = {
        "experiment": "radial",
        "radial_root_found": rad.root_alpha is not None,
        "polish_converged": rad.converged,
        "root_alpha": rad.root_alpha,
        "mismatch_min": rad.mismatch_min,
        "error_estimate": rad.error_estimate,
        "degenerate_family": rad.degenerate_family,
        "flat_dual_stratum": rep.stratum_m,
        "hankel_rank_one": hankel_ok,
        "existence_range_hi": 4.0 * np.pi * rep.stratum_m,
        "reason": rad.reason,
        "statement": {
            "converged": "radial root found",
            "no_root": f"no shooting root; min |defect| = {rad.mismatch_min:.3e} "
            f"(noise {rad.error_estimate:.1e}); classifier caps the range at 4*pi",
            "polish": "shooting root found; spectral polish unconverged",
            "shots_failed": "inconclusive: shooting integrations failed across most of the sweep",
            "within_noise": f"inconclusive: no sign change, min |defect| = {rad.mismatch_min:.3e} "
            f"within noise {rad.error_estimate:.1e}",
        }[rad.reason],
        "checks_passed": True,
    }
    return [row], summary, {"shooting": curve}


# ----------------------------------------------------------------------
# emission
# ----------------------------------------------------------------------


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, bool):
        return int(x)
    return f"{x:.17g}" if isinstance(x, float) else x


def _write_csv(path: str, header: list, rows) -> str:
    """One CSV, UTF-8 with ``\\n`` endings: cells None -> blank, bool -> 0/1, float -> .17g.
    Without a header (an empty curve) the file is empty."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows([_cell(x) for x in row] for row in rows)
    return path


def write_run(record: RunRecord, cfg: ExperimentConfig) -> dict:
    """Write ``<experiment>-<config_hash>`` files in ``cfg.out_dir``: the rows'
    ``.csv``, one ``-<name>.csv`` per curve and the ``.json`` (config echo,
    hash, summary, wall time).  Returns the paths written."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = out / f"{cfg.experiment}-{record.config_hash}"

    k = cfg.spec().k
    b_header = [f"b_{j}_{p}" for j in range(1, k) for p in ("re", "im")]
    rows = (
        [row[key] for key in CSV_HEADER_PREFIX]
        + ([None] * len(b_header) if row["b"] is None else [part for x in row["b"] for part in (x.real, x.imag)])
        + [row[key] for key in CSV_HEADER_SUFFIX]
        for row in record.rows
    )
    paths = {"csv": _write_csv(f"{stem}.csv", CSV_HEADER_PREFIX + b_header + CSV_HEADER_SUFFIX, rows)}
    for name, curve in record.curves.items():
        keys = list(curve[0]) if curve else []
        paths[name] = _write_csv(f"{stem}-{name}.csv", keys, ([point[key] for key in keys] for point in curve))

    payload = {
        "config": cfg.canonical_dict(),
        "config_hash": record.config_hash,
        "summary": record.summary,
        "wall_time_s": record.wall_time,
    }
    paths["json"] = f"{stem}.json"
    Path(paths["json"]).write_text(json.dumps(payload, indent=2, default=_json_default) + "\n", encoding="utf-8")
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
