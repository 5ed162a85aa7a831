import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_collect  # noqa: E402


def run(workload, seed, metrics):
    return {"workload": workload, "seed": seed, "trace": 0, "exit": 0, "env": {},
            "result": {"metrics": {k: {"value": v, "unit": "1/s"} for k, v in metrics.items()}}}


class TestBenchCollect:
    def test_bench_index(self):
        assert bench_collect.bench_index(Path("BENCH_12.json")) == 12
        assert bench_collect.bench_index(Path("BENCHMARK.json")) == -1

    def test_medians_over_seeds(self):
        data = {"runs": [run("edge", s, {"ops_per_s": v}) for s, v in zip(range(3), (1.0, 3.0, 2.0))]}
        data["runs"].append({"workload": "edge", "seed": 3, "trace": 0, "exit": 1, "env": {}, "result": None})
        assert bench_collect.medians(data) == {("edge", "ops_per_s"): 2.0}

    def test_fingerprint_diffs(self):
        old = {"101": {"converge": [{"b": [[1.0, 0.0]], "residual_sup": 1e-9}], "edge": [{"stop_reason": "filter"}]}}
        new = json.loads(json.dumps(old))
        assert bench_collect.fingerprint_diffs(old, new) == []
        new["101"]["converge"][0]["residual_sup"] = 1.5e-9
        new["101"]["edge"][0]["stop_reason"] = "newton"
        new["101"]["classify_reports"] = [[{"j_star": 4}, {"j_star": 5}]]
        lines = bench_collect.fingerprint_diffs(old, new)
        assert "  101.edge[0].stop_reason: 'filter' -> 'newton'" in lines
        assert "  only in one file: 101.classify_reports[][].j_star (2)" in lines
        assert "  101.converge[].residual_sup: 1 differ, max abs 5.00e-10, max rel 3.33e-01" in lines

    def test_fingerprint_covers_every_workload(self):
        fp = bench_collect.fingerprint(101)
        assert len(fp["converge"]) == 12 and all(len(c["b"]) >= 2 for c in fp["converge"])
        assert len(fp["dbar"]["inputs"]) == 6 and len(fp["dbar"]["fixture_solves"]) == 2
        assert [len(e["rows"]) for e in fp["edge"]] == [4, 4, 4]
        assert all(e["minres_iters"] > 0 for e in fp["edge"])
        assert len(fp["classify"]) == 50 and all(len(r) == 10 for r in fp["classify"])
        reports = [v for r in fp["classify_reports"] for v in r]
        assert len(fp["classify_reports"]) == 50 and len(reports) == 500
        assert all(set(v) == {"exact", "float"} for v in reports)
        assert all(set(rep) == {"j_star", "s_minus", "witness"} for v in reports for rep in v.values())
        assert all(len(rep["witness"]) == 12 for v in reports for rep in v.values())
        assert json.loads(json.dumps(fp)) == fp

    def test_fingerprint_only_writes_nothing(self, monkeypatch, capsys):
        old = json.loads((ROOT / "BENCH_1.json").read_text())
        monkeypatch.setattr(bench_collect, "fingerprint", lambda seed: old["fingerprint"][str(seed)])
        before = sorted(p.relative_to(ROOT) for p in ROOT.rglob("*") if ".git" not in p.parts)
        assert bench_collect.main(["--fingerprint-only", "--against", str(ROOT / "BENCH_1.json")]) == 0
        assert sorted(p.relative_to(ROOT) for p in ROOT.rglob("*") if ".git" not in p.parts) == before
        assert capsys.readouterr().out.splitlines() == ["against BENCH_1.json:", "fingerprint: identical"]
