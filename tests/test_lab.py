import json
import re

import numpy as np
import pytest

from spherecurv import cli, lab, strata
from spherecurv.bundles import BundleSpec, divisor_of
from spherecurv.cli import main as cli_main
from spherecurv.errors import HypothesisViolation
from spherecurv.lab import (
    ExperimentConfig,
    gen_family,
    run_existence_sweep,
    run_radial_nonexistence,
    run_symmetry_audit,
    write_run,
)
from spherecurv.pde import solve_phi_system

from oracles import at_pole


def spec_k(k):
    return BundleSpec(0, k)


class TestGenFamily:
    def test_kind1(self):
        phi = gen_family(1, {"a": 1}, spec_k(4))
        assert np.allclose(phi.a, [0, 1, 0])
        d = divisor_of(phi)
        assert d.total == 2 and at_pole(d) == 1

    def test_kind2_pole_free(self):
        phi = gen_family(2, {"a": 1, "n": 4}, spec_k(7))
        d = divisor_of(phi)
        assert d.total == 5 and at_pole(d) == 0
        ring = [p for p, m in d.points if abs(abs(p.z) - 1.0) < 1e-8]
        assert len(ring) == 4

    def test_kind2_pole_balanced(self):
        phi = gen_family(2, {"a": 1, "n": 4}, spec_k(8))
        d = divisor_of(phi)
        assert d.total == 6 and at_pole(d) == 1

    def test_kind3(self):
        phi = gen_family(3, {"a": 1, "n": 3, "q": [[1.0, 0.0], [0.0, 2.0]]}, spec_k(10))
        d = divisor_of(phi)
        assert d.total == 8 and at_pole(d) == 1

    def test_kind3_q_numbers_or_pairs(self):
        # a real q_i may be a bare number; a pair is [re, im]
        mixed = gen_family(3, {"a": 1, "n": 3, "q": [1, [0.0, 2.0]]}, spec_k(10))
        pairs = gen_family(3, {"a": 1, "n": 3, "q": [[1.0, 0.0], [0.0, 2.0]]}, spec_k(10))
        assert np.array_equal(mixed.a, pairs.a)

    def test_kind1_violation(self):
        with pytest.raises(HypothesisViolation):
            gen_family(1, {"a": 3}, spec_k(4))

    def test_kind2_violation(self):
        with pytest.raises(HypothesisViolation):
            gen_family(2, {"a": 2, "n": 3}, spec_k(9))  # n > 2a fails

    def test_kind3_violation_names_inequality(self):
        with pytest.raises(HypothesisViolation, match="mod n"):
            gen_family(3, {"a": 2, "n": 3, "q": [[1.0, 0.0]]}, spec_k(10))


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sweep",
            deg_L2=4,
            family={"kind": 1, "a": 1},
            lambda_grid=[1.0, 2.0],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.canonical_dict()))
        cfg2 = ExperimentConfig.from_json(p)
        assert cfg2.config_hash() == cfg.config_hash()

    def test_schema_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema": 2, "experiment": "sweep"}))
        with pytest.raises(ValueError, match="schema"):
            ExperimentConfig.from_json(p)

    def test_unknown_keys_rejected(self, tmp_path):
        # no driver reads a seed or an exact flag, so neither is a config key;
        # l_max is the solver's only setting, its guards are constants
        p = tmp_path / "bad.json"
        cases = [
            ({"bogus": 1}, "bogus"),
            ({"seed": 7}, "seed"),
            ({"exact": True}, "exact"),
            ({"solver": {"bogus": 1}}, "solver.bogus"),
            ({"solver": {"l_max": 16, "spurious_tol": 0.1}}, "solver.spurious_tol"),
        ]
        for extra, name in cases:
            p.write_text(json.dumps({"schema": 1, "experiment": "sweep", **extra}))
            with pytest.raises(ValueError, match=re.escape(f"unknown config keys: ['{name}']")):
                ExperimentConfig.from_json(p)

    @pytest.mark.parametrize(
        "data,message",
        [([1], "config root must be a JSON object, got list"),
         ({"schema": 1, "experiment": "solve", "solver": ["l_max"]}, "config key 'solver' must be a JSON object, got list")],
        ids=["root_list", "solver_list"],
    )
    def test_non_object_is_usage_error(self, tmp_path, capsys, data, message):
        # a list where an object belongs is one usage line naming the field
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json(p)
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--config", str(p)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_class_and_family_exclusive(self):
        cfg = ExperimentConfig(experiment="sweep", family={"kind": 1, "a": 1}, class_coeffs=[[1, 0]])
        with pytest.raises(ValueError):
            cfg.the_class()


def small_sweep_config(tmp_path, lambdas=(2.0, 4.0)):
    return ExperimentConfig(
        experiment="sweep",
        deg_L1=0,
        deg_L2=4,
        family={"kind": 1, "a": 1},
        lambda_grid=list(lambdas),
        solver={"l_max": 16},
        out_dir=str(tmp_path),
    )


def pole_free_ring_config(tmp_path, experiment, lambdas):
    return ExperimentConfig(
        experiment=experiment,
        deg_L2=7,
        family={"kind": 2, "a": 1, "n": 4},
        lambda_grid=[float(x) for x in lambdas],
        solver={"l_max": 32},
        out_dir=str(tmp_path),
    )


LADDER = [np.pi, 2 * np.pi, 3 * np.pi, 4 * np.pi]
# one small run of each driver, at l_max 16
SMALL_RUNS = {
    "sweep": dict(deg_L2=4, family={"kind": 1, "a": 1}, lambda_grid=[2.0, 4.0]),
    "symmetry-audit": dict(deg_L2=7, family={"kind": 2, "a": 1, "n": 4}, lambda_grid=[float(np.pi)]),
    "radial": dict(deg_L2=4, class_coeffs=[[0, 0], [0, 0], [1, 0]]),
}


class TestSweep:
    def test_rows_and_summary(self, tmp_path):
        rec = run_existence_sweep(small_sweep_config(tmp_path))
        assert len(rec.rows) == 2
        assert all(r["converged"] for r in rec.rows)
        assert rec.summary["flat_dual_stratum"] == 2
        assert rec.summary["first_failure_lambda"] is None
        assert all(r["stall_lambda"] is None for r in rec.rows)
        assert {r["stop_reason"] for r in rec.rows} == {rec.summary["stop_reason"]} == {"converged"}
        assert rec.summary["stop_residual_fine"] is None

    def test_stall_lambda_on_pole_free_ring(self, tmp_path):
        # the branch stalls below 4*pi; the 4*pi row's residual and offset
        # come from the stall coupling, which the row must name.  Continuing
        # from the last converged point, a coarser or finer coupling grid
        # reaches the same stall.
        stalls = []
        for lambdas in ([4 * np.pi], LADDER):
            row = run_existence_sweep(pole_free_ring_config(tmp_path, "sweep", lambdas)).rows[-1]
            assert not row["converged"]
            assert row["lambda"] == pytest.approx(4 * np.pi)
            assert 0 < row["stall_lambda"] < 4 * np.pi
            stalls.append(row["stall_lambda"])
        assert stalls[1] == pytest.approx(stalls[0], abs=1e-3 * 4 * np.pi)

    def test_one_solve_per_coupling(self, tmp_path, monkeypatch):
        # no point is solved twice, even where the branch stalls
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_phi_system(*args, **kwargs)

        monkeypatch.setattr(lab, "solve_phi_system", counting)
        rec = run_existence_sweep(pole_free_ring_config(tmp_path, "sweep", LADDER))
        assert not rec.rows[-1]["converged"]
        assert calls == sorted(float(x) for x in LADDER)

    def test_no_solve_above_the_first_stall(self, tmp_path, monkeypatch):
        # the branch stalls near 3.15*pi: 3.5*pi is the last coupling solved,
        # and the rows above it reuse its stalled result
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return solve_phi_system(*args, **kwargs)

        monkeypatch.setattr(lab, "solve_phi_system", counting)
        lambdas = [x * np.pi for x in (1, 2, 3, 3.5, 3.75, 4)]
        rec = run_existence_sweep(pole_free_ring_config(tmp_path, "sweep", lambdas))
        assert calls == lambdas[:4]
        stalled = rec.rows[3:]
        assert not any(r["converged"] for r in stalled)
        for key in ("stall_lambda", "residual_sup", "offset", "stop_reason", "stop_residual_fine"):
            assert len({r[key] for r in stalled}) == 1, key
        assert stalled[0]["stall_lambda"] < lambdas[3]
        # the fine-grid filter, not Newton, stopped the branch
        assert rec.summary["stop_reason"] == stalled[0]["stop_reason"] == "filter"
        assert rec.summary["stop_residual_fine"] > 0.01 * stalled[0]["stall_lambda"]
        assert rec.summary["minres_iters"] > 0

    @pytest.mark.parametrize("experiment", ["sweep", "symmetry-audit", "radial"])
    def test_reproducible_csv(self, tmp_path, experiment):
        # a rerun rewrites every file byte for byte, the JSON apart from its wall time
        cfg = ExperimentConfig(experiment, solver={"l_max": 16}, out_dir=str(tmp_path), **SMALL_RUNS[experiment])
        runs = []
        for _ in range(2):
            paths = write_run(lab.DRIVERS[experiment](cfg), cfg)
            runs.append({key: open(path, "rb").read() for key, path in paths.items()})
        assert set(runs[0]) == {"csv", "json"} | ({"shooting"} if experiment == "radial" else set())
        for run in runs:
            run["json"] = {**json.loads(run["json"]), "wall_time_s": None}
        assert runs[0] == runs[1]

    def test_p1_class_reports_failure_and_bound(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sweep",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            lambda_grid=[2.0, float(4 * np.pi)],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_existence_sweep(cfg)
        assert rec.summary["flat_dual_stratum"] == 1
        assert rec.summary["first_failure_lambda"] == pytest.approx(4 * np.pi)
        assert "continuation failed" in rec.summary["statement"]
        assert "bound" in rec.summary["statement"]

    def test_minimal_bundle_point(self, tmp_path):
        # k=2 single class at a subcritical coupling: constant solution
        cfg = ExperimentConfig(
            experiment="sweep",
            deg_L2=2,
            class_coeffs=[[1, 0]],
            lambda_grid=[float(2 * np.pi)],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_existence_sweep(cfg)
        row = rec.rows[0]
        assert row["converged"]
        assert row["offset"] == pytest.approx(0.5 * np.log(0.5), abs=1e-9)
        assert row["residual_sup"] < 1e-9

    def test_csv_format(self, tmp_path):
        cfg = small_sweep_config(tmp_path)
        paths = write_run(run_existence_sweep(cfg), cfg)
        raw = open(paths["csv"], "rb").read()
        assert b"\r\n" not in raw
        header = raw.decode("utf-8").splitlines()[0]
        assert header == (
            "lambda,converged,stall_lambda,residual_sup,offset,b_1_re,b_1_im,b_2_re,b_2_im,b_3_re,b_3_im,stratum,margin"
        )

    def test_csv_blank_cells_on_failure(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sweep",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            lambda_grid=[float(4 * np.pi)],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        paths = write_run(run_existence_sweep(cfg), cfg)
        lines = open(paths["csv"]).read().splitlines()
        cells = lines[1].split(",")
        assert cells[1] == "0"  # not converged
        assert 0 < float(cells[2]) < 4 * np.pi  # stall_lambda
        assert cells[5] == "" and cells[-1] == ""  # b and margin blank


class TestCsvCells:
    """Every cell of a written CSV reads back as the row or curve point it came from."""

    @staticmethod
    def read(path):
        lines = open(path, encoding="utf-8").read().splitlines()
        return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]

    @staticmethod
    def same(cell, value):
        # blank <-> None, floats through float(); NaN reads back as nan
        if value is None:
            return cell == ""
        return float(cell) == value or (np.isnan(value) and cell == "nan")

    def check_rows(self, rec, cfg, path):
        k = cfg.spec().k
        cells = self.read(path)
        assert len(cells) == len(rec.rows)
        for cell, row in zip(cells, rec.rows):
            assert cell["converged"] == str(int(row["converged"]))
            for key in ("lambda", "stall_lambda", "residual_sup", "offset", "margin"):
                assert self.same(cell[key], row[key]), key
            assert cell["stratum"] == ("" if row["stratum"] is None else str(row["stratum"]))
            for j in range(1, k):
                x = None if row["b"] is None else row["b"][j - 1]
                assert self.same(cell[f"b_{j}_re"], None if x is None else x.real)
                assert self.same(cell[f"b_{j}_im"], None if x is None else x.imag)

    def test_sweep_with_stalled_row(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="sweep",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            lambda_grid=[2.0, float(4 * np.pi)],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_existence_sweep(cfg)
        assert [r["converged"] for r in rec.rows] == [True, False]
        self.check_rows(rec, cfg, write_run(rec, cfg)["csv"])

    def test_radial_row_and_curve(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="radial",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_radial_nonexistence(cfg)
        paths = write_run(rec, cfg)
        self.check_rows(rec, cfg, paths["csv"])
        curve = rec.curves["shooting"]
        cells = self.read(paths["shooting"])
        assert len(cells) == len(curve) > 10
        for cell, point in zip(cells, curve):
            assert cell.keys() == point.keys() == {"alpha", "mismatch"}
            assert all(float(cell[key]) == point[key] for key in point)

    def test_empty_curve_writes_empty_file(self, tmp_path):
        cfg = small_sweep_config(tmp_path)
        rec = lab.RunRecord(cfg.config_hash(), [], {}, 0.0, curves={"shooting": []})
        paths = write_run(rec, cfg)
        assert open(paths["shooting"], "rb").read() == b""
        assert len(open(paths["csv"]).read().splitlines()) == 1  # the header alone


class TestRadialDriver:
    def test_no_root_case(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="radial",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_radial_nonexistence(cfg)
        assert not rec.summary["radial_root_found"]
        assert rec.summary["flat_dual_stratum"] == 1
        assert rec.summary["hankel_rank_one"]
        assert rec.summary["mismatch_min"] > 10 * rec.summary["error_estimate"]
        assert "never" not in rec.summary["statement"]  # no non-existence claim
        assert rec.summary["reason"] == "no_root"
        paths = write_run(rec, cfg)
        lines = open(paths["shooting"]).read().splitlines()
        assert lines[0] == "alpha,mismatch"
        assert len(lines) > 10

    def test_control_k2(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="radial",
            deg_L2=2,
            class_coeffs=[[1, 0]],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_radial_nonexistence(cfg)
        assert rec.summary["radial_root_found"]
        assert rec.summary["reason"] == "converged" and rec.summary["statement"] == "radial root found"

    def test_root_found_polish_unconverged(self, tmp_path):
        # at l_max 8 the shooting root of z, k=5 at 4*pi is found but its
        # spectral polish fails: the two outcomes are two fields
        cfg = ExperimentConfig(
            experiment="radial", deg_L2=6, family={"kind": 1, "a": 1}, solver={"l_max": 8}, out_dir=str(tmp_path)
        )
        rec = run_radial_nonexistence(cfg)
        assert rec.summary["reason"] == "polish" and rec.summary["root_alpha"] is not None
        assert rec.summary["radial_root_found"] is True
        assert rec.summary["polish_converged"] is False
        assert rec.summary["statement"] == "shooting root found; spectral polish unconverged"

    def test_inconclusive_sweep_is_reported(self, tmp_path, monkeypatch):
        from spherecurv import pde

        monkeypatch.setattr(pde, "_shoot", lambda *args, **kw: (np.nan, None))
        cfg = ExperimentConfig(
            experiment="radial",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        rec = run_radial_nonexistence(cfg)
        assert not rec.summary["radial_root_found"]
        assert rec.summary["reason"] == "shots_failed"
        assert rec.summary["statement"].startswith("inconclusive")
        assert rec.curves["shooting"] == []


class TestSymmetryAudit:
    def test_k7_pattern(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="symmetry-audit",
            deg_L2=7,
            family={"kind": 2, "a": 1, "n": 4},
            lambda_grid=[float(np.pi)],
            solver={"l_max": 24},
            out_dir=str(tmp_path),
        )
        rec = run_symmetry_audit(cfg)
        assert rec.summary["pattern_indices"] == [2, 6]
        assert rec.summary["max_off_pattern"] < 1e-6
        assert rec.summary["identity_pullback_error"] == 0.0
        assert rec.summary["reflection_conjugation_error"] < 1e-12
        assert rec.ok()

    def test_unconverged_row_reports_branch_stall(self, tmp_path):
        # the audit's 4*pi row stalls where the sweep's branch does, not at
        # its target coupling
        audit = run_symmetry_audit(pole_free_ring_config(tmp_path, "symmetry-audit", LADDER))
        sweep = run_existence_sweep(pole_free_ring_config(tmp_path, "sweep", LADDER))
        row = audit.rows[-1]
        assert not row["converged"]
        assert row["stall_lambda"] < 4 * np.pi
        assert row["stall_lambda"] == sweep.rows[-1]["stall_lambda"]
        assert audit.summary["max_off_pattern"] < 1e-6
        # the same solves, so the same linear-solver work
        assert audit.summary["minres_iters"] == sweep.summary["minres_iters"] > 0

    def test_requires_ring_family(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="symmetry-audit",
            deg_L2=4,
            family={"kind": 1, "a": 1},
            out_dir=str(tmp_path),
        )
        with pytest.raises(ValueError):
            run_symmetry_audit(cfg)


def config_file(tmp_path, verb, **data):
    """A schema-1 config for ``verb`` at l_max 16; keys set to None are left out."""
    data = {"schema": 1, "experiment": verb, "solver": {"l_max": 16}, **data}
    p = tmp_path / f"{verb}.json"
    p.write_text(json.dumps({key: value for key, value in data.items() if value is not None}))
    return str(p)


RING = {"deg_L2": 7, "family": {"kind": 2, "a": 1, "n": 4}}
TWO_POLE = {"deg_L2": 4, "class_coeffs": [[0, 0], [1, 0], [0, 0]]}
# the flags each verb reads; every other one of the four is an unknown argument
READS = {
    "grid-check": ("lmax",),
    "classify": ("tol",),
    "dualize": ("lmax", "tol"),
    "family": ("config",),
    "solve": ("config", "lmax", "tol"),
    "sweep": ("config", "out", "lmax", "tol"),
    "symmetry-audit": ("config", "out", "lmax", "tol"),
    "radial": ("config", "out", "lmax", "tol"),
}
CONFIG_VERBS = [verb for verb, flags in READS.items() if "config" in flags]


class TestCliFlags:
    @pytest.mark.parametrize("verb,flag", [(v, f) for v in READS for f in ("config", "out", "lmax", "tol")])
    def test_verb_takes_only_the_flags_it_reads(self, tmp_path, monkeypatch, capsys, verb, flag):
        seen = []
        for name in ("_cmd_grid_check", "_cmd_classify", "_cmd_dualize", "_cmd_family", "_cmd_solve", "_cmd_driver"):
            monkeypatch.setattr(cli, name, lambda args, *rest: seen.append(args) or 0)
        cfg = config_file(tmp_path, verb, **(TWO_POLE if verb == "radial" else RING))
        argv = {
            "classify": ["classify", "--b", "1,0;0.5,0;0.25,0", "--deg-l2", "4"],
            "dualize": ["dualize", "--a", "0,0;1,0;0,0", "--deg-l2", "4"],
        }.get(verb, [verb] + (["--config", cfg] if verb in CONFIG_VERBS else []))
        value = {"out": str(tmp_path / "out"), "lmax": "16", "tol": "1e-6"}.get(flag)
        if flag in READS[verb]:
            if flag != "config":  # config verbs already carry it
                argv += [f"--{flag}", value]
            assert cli_main(argv) == 0
            parsed = getattr(seen[0], flag)
            if flag == "config":
                assert parsed.experiment == verb
            else:
                assert parsed == type(parsed)(value)
        else:
            with pytest.raises(SystemExit) as exc:
                cli_main(argv + [f"--{flag}", value or cfg])
            assert exc.value.code == 2
            assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
            assert not seen

    @pytest.mark.parametrize("verb", CONFIG_VERBS)
    def test_config_is_required(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main([verb])
        assert exc.value.code == 2
        assert "the following arguments are required: --config" in capsys.readouterr().err

    UNRUNNABLE = {
        "family_hypothesis": ("sweep", {"deg_L2": 4, "family": {"kind": 1, "a": 5}}, "kind 1 requires 0 < a < k-2, got a=5, k=4"),
        "family_without_kind": ("family", {"deg_L2": 4, "family": {"a": 1}}, "unknown family kind None"),
        "coeffs_wrong_length": ("solve", {"deg_L2": 4, "class_coeffs": [[1, 0]]}, "coefficient vector has length (1,), expected 3"),
        "coeffs_zero": ("solve", {"deg_L2": 4, "class_coeffs": [[0, 0]] * 3}, "must have a nonzero coefficient vector"),
        "lambda_negative": ("sweep", {**TWO_POLE, "lambda_grid": [1.0, -1]}, "lambda_grid must be a list of positive finite numbers"),
        "lambda_string": ("sweep", {**TWO_POLE, "lambda_grid": ["x"]}, "lambda_grid must be a list of positive finite numbers"),
        "tol_string": ("sweep", {**TWO_POLE, "tol": "big"}, "tol must be a positive finite number, got 'big'"),
        "no_experiment": ("sweep", {**TWO_POLE, "experiment": None}, "config needs the key 'experiment'"),
        "solve_empty_lambda_grid": ("solve", {**TWO_POLE, "lambda_grid": []}, "solve needs --lam or a non-empty lambda_grid"),
        "audit_kind1": ("symmetry-audit", {"deg_L2": 4, "family": {"kind": 1, "a": 1}}, "symmetry audit requires a family of kind 2 or 3"),
        "radial_not_monomial": ("radial", RING, "radial reduction requires a monomial class"),
        # a JSON value of the wrong type names its key instead of argparse's "invalid _config_file value"
        "coeffs_wrong_type": ("solve", {"deg_L2": 4, "class_coeffs": [["a", 0], [1, 0], [1, 0]]}, "config key 'class_coeffs' must be a list of [re, im] number pairs"),
        "family_not_object": ("family", {"deg_L2": 4, "family": [1]}, "config key 'family' must be a JSON object, got [1]"),
        "family_value_wrong_type": ("family", {"deg_L2": 4, "family": {"kind": 2, "a": 1, "n": [1]}}, "config key 'family' holds a value of the wrong type"),
        # family values are taken as given, never converted: a = 1.7 used to run as a = 1
        "family_a_float": ("family", {"deg_L2": 4, "family": {"kind": 1, "a": 1.7}}, "family.a must be an integer, got 1.7"),
        "family_n_string": ("sweep", {"deg_L2": 7, "family": {"kind": 2, "a": 1, "n": "4"}}, "family.n must be an integer, got '4'"),
        "family_kind_bool": ("family", {"deg_L2": 4, "family": {"kind": True, "a": 1}}, "unknown family kind True: family.kind must be 1, 2 or 3"),
        "family_kind_float": ("family", {"deg_L2": 4, "family": {"kind": 1.0, "a": 1}}, "unknown family kind 1.0: family.kind must be 1, 2 or 3"),
        "family_q_string": ("family", {"deg_L2": 10, "family": {"kind": 3, "a": 1, "n": 3, "q": ["abc"]}}, "family.q must be a list of numbers or [re, im] pairs, got ['abc']"),
        "family_q_not_list": ("family", {"deg_L2": 10, "family": {"kind": 3, "a": 1, "n": 3, "q": 2}}, "family.q must be a list of numbers or [re, im] pairs, got 2"),
        "degree_wrong_type": ("family", {"deg_L2": "4", "family": {"kind": 1, "a": 1}}, "config key 'deg_L2' must be an integer, got '4'"),
        # a key the kind does not read, misspelled or not, used to be ignored: this ran as z without its ring
        "family_key_misspelled": ("family", {"deg_L2": 5, "family": {"kind": 3, "a": 1, "n": 3, "qs": [[2, 0]]}}, "family kind 3 reads a, n, q, got family.qs"),
        "family_keys_unread": ("family", {"deg_L2": 4, "family": {"kind": 1, "a": 1, "n": 99, "q": "x"}}, "family kind 1 reads a, got family.n, family.q"),
    }

    @pytest.mark.parametrize("case", UNRUNNABLE)
    def test_config_that_cannot_run_is_usage_error(self, tmp_path, capsys, case):
        # exit 2 with one error line, before any solve, instead of a traceback mid-run
        verb, data, message = self.UNRUNNABLE[case]
        with pytest.raises(SystemExit) as exc:
            cli_main([verb, "--config", config_file(tmp_path, verb, **data)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0] and "Traceback" not in err


class TestCli:
    def test_grid_check(self, capsys):
        assert cli_main(["grid-check", "--lmax", "16"]) == 0
        out = capsys.readouterr().out
        assert "weights_sum: ok" in out

    def test_classify(self, capsys):
        code = cli_main(["classify", "--b", "1,0;0.5,0;0.25,0", "--deg-l2", "4"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stratum_m"] == 1

    def test_classify_exact(self, capsys):
        code = cli_main(["classify", "--b", "1,0;1/2,0;1/4,0", "--deg-l2", "4", "--exact"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stratum_m"] == 1 and data["margin"] is None

    def test_sweep_via_config(self, tmp_path, capsys):
        cfg = small_sweep_config(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.canonical_dict()))
        code = cli_main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["first_failure_lambda"] is None

    def test_radial_verb(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            experiment="radial",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            solver={"l_max": 16},
            out_dir=str(tmp_path / "out"),
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.canonical_dict()))
        code = cli_main(["radial", "--config", str(p)])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["radial_root_found"] is False
        assert "shooting" in data["paths"]

    def test_family_verb(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            experiment="family", deg_L2=7, family={"kind": 2, "a": 1, "n": 4}, out_dir=str(tmp_path)
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.canonical_dict()))
        assert cli_main(["family", "--config", str(p)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_multiplicity"] == 5

    def test_classify_profiles_once(self, monkeypatch, capsys):
        # the existence range comes from the one classifier report
        calls = []
        profile = strata._profile
        monkeypatch.setattr(strata, "_profile", lambda *args: calls.append(1) or profile(*args))
        assert cli_main(["classify", "--b", "1,0;0.5,0;0.25,0", "--deg-l2", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert data["existence_range"] == [0.0, 4 * np.pi * data["stratum_m"]]

    def test_dualize_verb(self, capsys):
        assert cli_main(["dualize", "--a", "0,0;1,0;0,0", "--deg-l2", "4", "--lmax", "16"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["stratum_m"] == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["grid-check", "--lmax", "0"], "must be positive"),
            (["classify", "--b", "1,0", "--deg-l2", "2", "--tol", "0"], "must be positive"),
            (["solve", "--config", "{cfg}", "--lam", "0"], "must be positive"),
            (["solve", "--config", "{cfg}", "--lam", "nan"], "--lam must be positive and finite, got nan"),
            (["classify", "--b", "1,0", "--deg-l2", "2", "--tol", "inf"], "--tol must be positive and finite, got inf"),
            (["grid-check", "--lmax", "2"], "--lmax must be at least 4, got 2"),
        ],
        ids=["lmax", "tol", "lam", "lam_nan", "tol_inf", "lmax_below_grid_minimum"],
    )
    def test_zero_override_rejected(self, argv, message, capsys, tmp_path):
        # a zero or too small override is a usage error, not a fall back to
        # the default or a traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_sweep_config(tmp_path).canonical_dict()))
        with pytest.raises(SystemExit) as exc:
            cli_main([arg.format(cfg=cfg) for arg in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classify", "--b", "nan,0;1,0;0.5,0", "--deg-l2", "4"], "coordinates must be finite"),
            (["classify", "--b", "1,0", "--deg-l2", "4"], "coordinate vector has length 1, expected 3"),
            (["classify", "--b", "1;2", "--deg-l2", "4"], "entry '1' is not a 're,im' pair"),
            (["classify", "--b", "1/2,0;x,0;1,0", "--deg-l2", "4", "--exact"], "Invalid literal for Fraction"),
            (["dualize", "--a", "1,0", "--deg-l2", "4"], "coefficient vector has length (1,), expected 3"),
        ],
        ids=["nan", "wrong_length", "malformed", "malformed_exact", "dualize_wrong_length"],
    )
    def test_bad_coordinates_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_config_with_solver_constant_is_usage_error(self, tmp_path, capsys):
        # an old config that sets a solver guard gets one line naming the key
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema": 1, "experiment": "solve", "solver": {"spurious_tol": 0.1}}))
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--config", str(p)])
        assert exc.value.code == 2
        assert "unknown config keys: ['solver.spurious_tol']" in capsys.readouterr().err

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        # a missing file or broken JSON is one usage line, not a traceback
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        for path in (tmp_path / "missing.json", bad):
            with pytest.raises(SystemExit) as exc:
                cli_main(["solve", "--config", str(path)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --config: {path}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("l_max", ["16", 16.0, True, None, 3])
    def test_config_l_max_type_is_usage_error(self, tmp_path, capsys, l_max):
        # a string l_max used to load, then crash in SphereGrid
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema": 1, "experiment": "solve", "solver": {"l_max": l_max}}))
        with pytest.raises(ValueError, match=f"solver.l_max must be an integer >= 4, got {re.escape(repr(l_max))}"):
            ExperimentConfig.from_json(p)
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--config", str(p)])
        assert exc.value.code == 2
        assert "solver.l_max must be an integer >= 4" in capsys.readouterr().err

    def test_solve_exit_code(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            experiment="solve",
            deg_L2=4,
            class_coeffs=[[0, 0], [0, 0], [1, 0]],
            solver={"l_max": 16},
            out_dir=str(tmp_path),
        )
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.canonical_dict()))
        # the bottom-stratum class cannot be continued to 4*pi: exit code 1
        code = cli_main(["solve", "--config", str(p), "--lam", str(4 * np.pi)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["stop_reason"] == "filter" and report["stop_residual_fine"] > 0.01 * report["reached_lambda"]
