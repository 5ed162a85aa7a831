"""Experiment drivers: curvature families, sweeps, radial probes, flat-file output.

Each driver consumes an :class:`ExperimentConfig` (JSON schema version 1) and
produces a :class:`RunRecord` holding per-coupling rows plus a summary.  The
sweep solves one warm-started ladder of couplings; for a class with a
rotation symmetry of order n >= 2 (``HoloClass.rotation_symmetry``) each
converged row reports ``off_pattern``, the share of b off the symmetry's
indices, and the run's checks pass when its maximum is below 1e-6.  The
radial probe writes one row at 4*pi and a shooting curve.  ``write_run``
names every file of a run ``<experiment>-<config_hash>``: a JSON with the
config echo, hash, summary and wall time, a CSV of the rows (one fixed
header, diffable) and, for the radial probe, ``-shooting.csv``.  A value a
run does not have (a NaN or infinite number included) is None wherever a row
or summary is built, a solve's cells by ``_row`` alone, so the JSON holds null
there and the CSV a blank cell: every file is standard JSON.  Summaries report
where continuation stopped and the classifier bound, never non-existence.
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
from .cohomology import b_coords, dual_map_H0
from .errors import HypothesisViolation
from .geometry import build_grid
from .pde import SolveConfig, SolveResult, solve_phi_system, solve_radial
from .strata import DEFAULT_TOL, ExistenceRange, div_classifier

SCHEMA_VERSION = 1

CSV_HEADER_PREFIX = ["lambda", "converged", "stall_lambda", "residual_sup", "offset"]
CSV_HEADER_SUFFIX = ["stratum", "margin"]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _value(x) -> float | None:
    """x as a float, or None for a missing value: None, NaN or infinite."""
    return float(x) if _number(x) else None


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
    schema: int = SCHEMA_VERSION

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config root must be a JSON object, got {type(data).__name__}")
        schema = data.get("schema")
        if isinstance(schema, bool) or not isinstance(schema, int) or schema != SCHEMA_VERSION:
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
        lambdas = data.get("lambda_grid", [])
        if not isinstance(lambdas, list) or not all(_number(x) and x > 0 for x in lambdas):
            raise ValueError(f"lambda_grid must be a list of positive finite numbers, got {lambdas!r}")
        for key in ("deg_L1", "deg_L2"):
            if key in data and (isinstance(data[key], bool) or not isinstance(data[key], int)):
                raise ValueError(f"config key {key!r} must be an integer, got {data[key]!r}")
        for key in ("experiment", "out_dir"):
            if key in data and not isinstance(data[key], str):
                raise ValueError(f"config key {key!r} must be a string, got {data[key]!r}")
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


NO_COORDINATES = {"b": None, "stratum": None, "margin": None, "boundary_flag": False}


def _coordinates(b, rep) -> dict:
    """A row's coordinate cells: b, its stratum and margin, and whether the margin is under 10*DEFAULT_TOL."""
    return {
        "b": [complex(x) for x in b],
        "stratum": rep.stratum_m,
        "margin": rep.margin,
        "boundary_flag": rep.margin < 10 * DEFAULT_TOL,
    }


def _row(lam, result: SolveResult | None) -> dict:
    """A row's solve cells at ``lam``, each number through ``_value``; ``result`` None means no solve ran there.

    An unconverged row's residual_sup and offset belong to stall_lambda, the last
    coupling the solver reached (``lam`` if no solve ran), not to the target lambda.
    """
    if result is None:
        return {"lambda": _value(lam), "converged": False, "stall_lambda": _value(lam), "residual_sup": None,
                "offset": None, "stop_reason": None, "stop_residual_fine": None}
    return {
        "lambda": _value(lam),
        "converged": bool(result.converged),
        "stall_lambda": None if result.converged else _value(result.lam),
        "residual_sup": _value(result.residual_sup),
        "offset": _value(result.offset),
        "stop_reason": result.stop_reason,
        "stop_residual_fine": _value(result.stop_residual_fine),
    }


def _ladder(phi, cfg: ExperimentConfig) -> tuple[list, dict]:
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
            b = b_coords(phi, result.u, build_grid(scfg.l_max)).b
            coords = _coordinates(b, div_classifier(b, phi.spec))
        rows.append({**_row(lam, result), **coords})
    reason, fine = ("converged", None) if result is None else (result.stop_reason, _value(result.stop_residual_fine))
    return rows, {"stop_reason": reason, "stop_residual_fine": fine, "minres_iters": minres_iters}


def _run(cfg: ExperimentConfig, body) -> RunRecord:
    """Every driver's clock, class and record around ``body(cfg, phi) -> (rows, summary, curves)``."""
    t0 = time.time()
    rows, summary, curves = body(cfg, cfg.the_class())
    return RunRecord(cfg.config_hash(), rows, summary, time.time() - t0, curves)


def run_existence_sweep(cfg: ExperimentConfig) -> RunRecord:
    """Solve along the coupling grid; classify the emitted coordinates.

    Each point continues the branch from the last converged point below it;
    points above the first stall reuse the stalled result.
    """
    return _run(cfg, _sweep)


def _sweep(cfg, phi):
    rows, stop = _ladder(phi, cfg)
    # a Z_n-symmetric class (n >= 2) keeps b on the indices = r (mod n): each
    # converged row reports the share of b off them
    n, r = phi.rotation_symmetry()
    if n >= 2:
        off = (np.arange(phi.spec.k - 1) - r) % n != 0
        for row in rows:
            if row["converged"]:
                b = np.array(row["b"])
                row["off_pattern"] = float(np.linalg.norm(b[off]) / np.linalg.norm(b))
    worst = max((row["off_pattern"] for row in rows if "off_pattern" in row), default=None)
    rep0 = div_classifier(dual_map_H0(phi).b, phi.spec)
    bound = ExistenceRange.of_report(rep0, phi.spec).hi
    failed = [r["lambda"] for r in rows if not r["converged"]]
    summary = {
        "experiment": "sweep",
        "flat_dual_stratum": rep0.stratum_m,
        "lambda_bound_from_classifier": bound,
        "first_failure_lambda": failed[0] if failed else None,
        "boundary_lambdas": [r["lambda"] for r in rows if r["boundary_flag"]],
        "max_off_pattern": worst,
        "statement": (
            f"continuation failed first at lambda={failed[0]:.6f}; classifier bound 4*pi*m={bound:.6f}"
            if failed
            else f"all sweep points converged; classifier bound 4*pi*m={bound:.6f}"
        ),
        **stop,
        "checks_passed": worst is None or worst < 1e-6,
    }
    return rows, summary, {}


def run_radial_nonexistence(cfg: ExperimentConfig) -> RunRecord:
    """Shooting sweep at the curvature coupling for axis-divisor classes.

    Emits the defect curve, its minimum, and the classifier side of the
    argument: the stratum m of the flat-dual coordinates and the end 4*pi*m
    of the solvable range (``existence_range_hi``).  The flat dual of z^a is
    a multiple of e_{a+1}, of stratum 1 + min(a, k-2-a): the bottom stratum,
    whose range ends at 4*pi, only when every zero sits at one pole; its Hankel
    products vanish exactly then, so ``hankel_rank_one`` reads m == 1.
    """
    return _run(cfg, _radial)


def _radial(cfg, phi):
    lam = 4.0 * np.pi
    rad = solve_radial(phi, lam, cfg.solve_config())
    b = dual_map_H0(phi).b
    rep = div_classifier(b, phi.spec)
    row = {**_row(lam, rad.polish), **_coordinates(b, rep)}
    curve = [
        {"alpha": float(a_), "mismatch": float(v)}
        for a_, v in zip(rad.mismatch_alphas, rad.mismatch_values)
        if np.isfinite(v)
    ]
    hi = ExistenceRange.of_report(rep, phi.spec).hi
    summary = {
        "experiment": "radial",
        "radial_root_found": rad.root_alpha is not None,
        "polish_converged": rad.converged,
        "root_alpha": rad.root_alpha,
        "mismatch_min": _value(rad.mismatch_min),
        "error_estimate": _value(rad.error_estimate),
        "degenerate_family": rad.degenerate_family,
        "flat_dual_stratum": rep.stratum_m,
        "hankel_rank_one": rep.stratum_m == 1,
        "existence_range_hi": hi,
        "reason": rad.reason,
        "statement": {
            "converged": "radial root found",
            "no_root": f"no shooting root; min |defect| = {rad.mismatch_min:.3e} "
            f"(noise {rad.error_estimate:.1e}); classifier caps the range at 4*pi*m={hi:.6f}",
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
    Path(paths["json"]).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return paths


DRIVERS = {
    "sweep": run_existence_sweep,
    "radial": run_radial_nonexistence,
}
