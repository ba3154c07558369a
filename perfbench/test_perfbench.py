"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

import bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import threshlab.adversarial  # noqa: E402
import threshlab.concavity  # noqa: E402
import threshlab.lowrank  # noqa: E402


def _declared(section):
    return set(bench.declared_units(section))


def _summary(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1])


def test_self_time_subtracts_direct_children():
    # item [0, 10] > solver [1, 4] > operators.lq [2, 3]; item > operators.hard [5, 6]
    spans = [
        [tracing.ITEM_SPAN, 0.0, 10.0, -1, None],
        ["solver.iterate_threshold", 1.0, 4.0, 0, {"steps": 3, "backtracks": 0}],
        ["operators.lq", 2.0, 3.0, 1, {"rows": 1}],
        ["operators.hard", 5.0, 6.0, 0, {"rows": 4}],
    ]
    sums = tracing.span_sums(spans)
    assert sums["self:bench"] == 6.0
    assert sums["self:solver"] == 2.0
    assert sums["self:operators"] == 2.0
    assert sums["t:solver.iterate_threshold"] == 3.0
    assert sums["rows:operators.hard"] == 4
    metrics = tracing.layer_metrics(sums)
    assert metrics["operators.share"] == pytest.approx(0.2)
    assert metrics["solver.us_per_step"] == pytest.approx(1e6)
    assert metrics["operators.rows_per_s"] == pytest.approx(2.5)


def test_end_to_end_uses_item_medians_and_cut_passes():
    # two whole passes, then one cut at the deadline before item 0 ran
    passes = [
        bench.PassResult(3.0, [1.0, 2.0], []),
        bench.PassResult(5.0, [3.0, 2.0], []),
        bench.PassResult(4.0, [None, 4.0], []),
    ]
    metrics, extra = bench.end_to_end(passes, setup_s=0.5)
    assert metrics["wall_s"] == 4.0  # median 2.0 of item 0 + median 2.0 of item 1
    assert metrics["items_per_s"] == 0.5
    assert metrics["item_p50_ms"] == 2000.0
    assert extra["item_samples"] == 5
    assert extra["whole_pass_walls_s"] == [3.0, 5.0]


def test_tracer_records_nesting_and_restores_every_binding():
    original = threshlab.concavity.empirical_concavity
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = threshlab.concavity.empirical_concavity
        assert patched is not original
        assert threshlab.adversarial.empirical_concavity is patched
        assert threshlab.lowrank.empirical_concavity is patched
        with tracer.span(tracing.ITEM_SPAN):
            assert workloads._search("hard", 4, 2, None, 10, 1, 0)
    assert threshlab.concavity.empirical_concavity is original
    assert threshlab.adversarial.empirical_concavity is original
    names = [s[0] for s in tracer.spans]
    assert names[:2] == [tracing.ITEM_SPAN, "concavity.search.hard"]
    assert "operators.hard" in names
    for name, start, end, parent, _ in tracer.spans[1:]:
        assert 0 <= parent and tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]


def test_same_seed_same_inputs(tmp_path):
    def inputs(seed):
        return [item.run.args for item in workloads.build("convergence", seed, str(tmp_path)).items]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_pass_emits_every_end_to_end_metric(name, capsys):
    assert bench.untraced_run(name, 0, 0.0, smoke=True) == 0
    summary = _summary(capsys)
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    assert set(summary["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in summary["metrics"].values())


def test_smoke_traced_run_covers_every_layer(capsys):
    assert bench.traced_run(0, 0.0, smoke=True) == 0
    summary = _summary(capsys)
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == _declared("per_layer")
    with open(bench.OUT / "results" / "all-seed0-trace1.json") as fh:
        calls = json.load(fh)["extra"]["layer_calls_per_pass"]
    for layer in tracing.LAYERS:
        assert any(calls[w][layer] > 0 for w in workloads.WORKLOADS), layer


def test_injected_item_failure_shows_in_failed_frac(monkeypatch, capsys):
    real_build = workloads.build

    def build_with_failure(name, seed, out_dir, smoke=False):
        workload = real_build(name, seed, out_dir, smoke)

        def broken():
            raise RuntimeError("injected")

        workload.items[-1] = workloads.Item("injected", broken)
        return workload

    monkeypatch.setattr(workloads, "build", build_with_failure)
    assert bench.untraced_run("regression", 0, 0.0, smoke=True) == 1
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    n = len(workloads.SMOKE["regression"]["reps"])
    assert not summary["correct"]
    assert (summary["attempted"], summary["failed"]) == (n, 1)
    assert f"failed_frac = {1 / n}" in out


def test_fails_without_program_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
