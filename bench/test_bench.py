"""
Tests of the benchmark itself, on tiny sizes:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import affwgraph.regress as regress  # noqa: E402
import affwgraph.verify as verify  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The metrics the benchmark is specified to report.
NAMED_END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}
NAMED_PER_LAYER = [
    *(f"tworow.build_dual_equiv.{k}" for k in ("s", "self_s", "calls", "pairs", "hit_ratio")),
    *(f"tworow.build_affine_graph.{k}" for k in ("s", "self_s", "calls", "repeat_ratio")),
    "tworow.edges", "tworow.build_equal_variant.s", "tworow.build_finite_graph.s",
    *(f"verify.check_hecke_relations.{k}" for k in ("s", "self_s", "calls")),
    "verify.hecke_holds.s", "verify.hecke.relations",
    "verify.check_bonding.s", "verify.bonding.pairs_scanned", "verify.check_polygon.s",
    "verify.check_compatibility.s", "verify.check_simplicity.s", "verify.witnesses",
    "verify.classify_restriction_cells.s", "rsk.rsk.s", "rsk.rsk.calls", "rsk.finsh.s",
    "rsk.finsh.calls", "wgraph.restrict_parabolic.s", "wgraph.cells.s",
    "tableaux.enumerate_rsyt.s", "tableaux.enumerate_rsyt.calls", "tableaux.omega_shift.s",
    "tableaux.omega_shift.calls", "tableaux.is_standard.calls", "affperm.min_coset_reps.s",
    "affperm.upsilon.s", "wgraph.simple_underlying.s", "wgraph.simple_components.s",
    "wgraph.simple_component_ids.s", "wgraph.graph_from_json.s", "wgraph.graph_to_json.s",
    *(f"regress.{name}.s" for name in regress.ALL_CHECKS),
    "fixtures.load_fixture.s", "cli.main.self_s",
    "mutants.p50_s", "mutants.p90_s", "mutants.samples", "trace.overhead_s",
]


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_metric():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units == NAMED_END_TO_END
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert set(NAMED_PER_LAYER) <= set(per_layer)
    assert len(per_layer) == len(set(per_layer))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _fail_ratio(ops) -> float:
    return sum(not op.ok for op in ops) / len(ops)


def test_corrupted_digest_counts_as_failure(tmp_path):
    w = workloads.prepare("mutants", 5, "tiny", tmp_path)
    _, ops = workloads.run_pass(w)
    assert _fail_ratio(ops) == 0
    shape, k, _ = w.inputs[0]
    key = f"{shape[0]},{shape[1]}"
    w.expected = {**w.expected, key: list(w.expected[key])}
    w.expected[key][k] = "0" * 16
    _, ops = workloads.run_pass(w)
    assert _fail_ratio(ops) > 0
    assert "digest" in ops[0].detail and not ops[0].ok


def test_wrong_early_exit_verdict_counts_as_failure(tmp_path, monkeypatch):
    w = workloads.prepare("mutants", 5, "tiny", tmp_path)
    original = verify.hecke_holds
    monkeypatch.setattr(verify, "hecke_holds", lambda g: not original(g))
    _, ops = workloads.run_pass(w)
    assert _fail_ratio(ops) == 1


def test_wrong_rule_verdict_counts_as_failure(tmp_path, monkeypatch):
    w = workloads.prepare("verify_big", 0, "tiny", tmp_path)
    monkeypatch.setattr(verify, "check_polygon", lambda g: verify.RuleReport("polygon", False, ((0,),)))
    _, ops = workloads.run_pass(w)
    failed = [op.name for op in ops if not op.ok]
    assert failed == [f"{shape}:polygon".replace(" ", "") for shape in w.inputs]


def test_failing_check_counts_as_failure(tmp_path, monkeypatch):
    w = workloads.prepare("sweep10", 0, "tiny", tmp_path)
    monkeypatch.setattr(regress, "check_rsk_vector", lambda: regress.RegressResult("rsk_vector", False))
    _, ops = workloads.run_pass(w)
    assert [op.name for op in ops if not op.ok] == ["rsk_vector"]


def test_crash_counts_as_failure(tmp_path, monkeypatch):
    w = workloads.prepare("sweep10", 0, "tiny", tmp_path)

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(regress, "check_fixtures", boom)
    _, ops = workloads.run_pass(w)
    assert _fail_ratio(ops) == 1


def test_counts_repeat_and_tracer_restores_functions(tmp_path):
    w = workloads.prepare("sweep10", 0, "tiny", tmp_path)
    original = regress.build_affine_graph
    counts = []
    for _ in range(2):
        tracer = Tracer("test")
        with tracer:
            assert regress.build_affine_graph is not original
            workloads.run_pass(w)
        calls = {k: v["calls"] for k, v in tracer.layer_times().items()}
        counts.append((dict(tracer.counts), calls))
        assert regress.build_affine_graph is original
    assert counts[0] == counts[1]
    assert counts[0][0]["tworow.edges"] > 0 and counts[0][1]["rsk.rsk"] > 0


def test_changed_count_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "BASELINE", tmp_path / "baseline.json")

    class Args:
        workload, scale, seed = "sweep10", "tiny", 0

    layers = {"tworow.edges": 10, "rsk.rsk.calls": 4}
    assert run.check_counts({"layers": layers}, Args) == []
    assert run.check_counts({"layers": layers}, Args) == []
    assert run.check_counts({"layers": {**layers, "tworow.edges": 11}}, Args) != []


def test_count_differing_from_baseline_is_reported_on_first_run(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "BASELINE", tmp_path / "baseline.json")

    class Args:
        workload, scale, seed = "mutants", "full", 7

    layers = {"tworow.edges": 10, "rsk.rsk.calls": 4, "rsk.rsk.s": 0.5, "rsk.finsh.calls": 3}
    named = {k: v for k, v in layers.items() if k != "rsk.finsh.calls"}  # per-layer metrics only
    traced = {"seed": 7, "per_layer": {**named, "tworow.edges": 11, "rsk.rsk.s": 0.6}}
    baseline = {"source_digest": run.source_digest(), "workloads": {"mutants": {"traced": traced}}}
    run.BASELINE.write_text(json.dumps(baseline))
    assert [p.split(":")[0] for p in run.check_counts({"layers": layers}, Args)] == ["tworow.edges"]
    Args.seed = 8  # the baseline's mutants are another seed's
    assert run.check_counts({"layers": layers}, Args) == []
    baseline["source_digest"] = "other"
    run.BASELINE.write_text(json.dumps(baseline))
    Args.seed = 7
    assert run.check_counts({"layers": layers}, Args) == []  # a baseline of other sources is skipped


def test_self_time_subtracts_direct_children_and_probe_slices():
    tracer = Tracer("test")
    tracer.spans[:] = [
        ("outer", 0.0, 10.0, -1, "test"),
        ("inner", 1.0, 4.0, 0, "test"),
        ("outer", 2.0, 3.0, 1, "test"),  # recursion through inner
        ("inner", 5.0, 6.0, 0, "test"),
        (speed.SLICE_SPAN, 7.0, 7.5, 0, "test"),
        (speed.SLICE_SPAN, 1.5, 1.75, 1, "test"),
    ]
    table = tracer.layer_times()
    assert set(table) == {"outer", "inner"}
    assert table["outer"] == {"calls": 2, "s": 10.0 - 0.75, "self_s": 5.5 + 1.0}
    assert table["inner"] == {"calls": 2, "s": 4.0 - 0.25, "self_s": 1.75 + 1.0}


def test_fails_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / "bench")
    proc = _bench("--workload", "sweep10", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
