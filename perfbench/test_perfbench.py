"""Tests of the benchmark harness itself, on tiny workload variants."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from cfrank import intervention, synthgen
from cfrank.mathcore import RandomStream
from perfbench import checks
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_prints_the_listed_metrics(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    full, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, full["failures"]
    assert result["attempted"] >= 1
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if trace:
        assert full["differing_artifacts"] == []
        assert result["metrics"]["corpus.load.calls"]["value"] == 5
    else:
        assert full["stages_failed"] == 0
        for key in ("hr10_target", "ndcg10_target", "hr10_cpr", "ndcg10_cpr"):
            assert key in full["metrics"]
        assert ("cf_label_acc" in full["metrics"]) == WORKLOADS[workload].synthetic


def test_benchmark_json_matches_the_contract():
    s = spec()
    assert s["command"] == ["python3", "perfbench/run.py"]
    assert s["paths"] == ["perfbench"]
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    for w in s["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == WORKLOADS[w["name"]].why and len(w["why"]) <= 200
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    metrics = s["end_to_end"] + s["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in metrics:
        assert unit_re.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench("mind-sample", 0, cwd=tmp_path, script="perfbench/run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def _cfrank_bindings():
    import cfrank.mathcore

    modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "cfrank"}
    state = {k: dict(vars(m)) for k, m in modules.items()}
    state["RandomStream"] = dict(vars(cfrank.mathcore.RandomStream))
    return state


def test_tracer_restores_every_binding():
    import cfrank.cli
    import cfrank.evalkit
    import cfrank.intervention
    import cfrank.mathcore

    before = _cfrank_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        rankers = before["cfrank.rankers"]
        assert cfrank.evalkit.recommend_topn is not rankers["recommend_topn"]
        assert cfrank.intervention.loss_pointwise is not rankers["loss_pointwise"]
        assert cfrank.mathcore.adam_step is not before["cfrank.mathcore"]["adam_step"]
        assert cfrank.cli.PIPELINE_STAGES is not before["cfrank.cli"]["PIPELINE_STAGES"]
        assert "normal" in vars(cfrank.mathcore.RandomStream)
    finally:
        tracer.uninstall()
    after = _cfrank_bindings()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for name, value in attrs.items():
            assert after[key][name] is value, f"{key}.{name}"


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["cli.stage.train-sim", 0.0, 10.0, -1],
        ["simulator.train_impression_model", 1.0, 7.0, 0],
        ["mathcore.adam_step", 2.0, 3.0, 1],
        ["mathcore.adam_step", 4.0, 4.5, 1],
        ["textio.save_matrices", 8.0, 9.0, 0],
    ]
    m = tracer.layer_metrics()
    assert m["cli.stage.train-sim_s"] == 10.0
    assert m["simulator.train_impression_model_s"] == pytest.approx(4.5)
    assert m["mathcore.adam_step.calls"] == 2
    assert m["mathcore.adam_step_s"] == pytest.approx(1.5)
    assert m["textio.save_matrices_s"] == pytest.approx(1.0)


def test_wrapper_overhead_counts_layer_spans_only():
    tracer = Tracer()
    tracer.spans = [["cli.stage.evaluate", 0.0, 1.0, -1]]
    assert tracer.wrapper_overhead_s(calls=1000, repeats=1) == 0.0
    tracer.spans += [["mathcore.adam_step", 0.0, 0.1, 0]] * 1000
    assert 0.0 < tracer.wrapper_overhead_s(calls=1000, repeats=3) < 1.0


@pytest.mark.parametrize("mode", ["pointwise", "pairwise"])
def test_cf_label_acc_scores_against_the_world(tmp_path, mode):
    world = synthgen.make_world(
        n_users=4, n_items=8, d=3, noise_std=0.0, stream=RandomStream(1)
    )
    synthgen.save_world(world, tmp_path / "world.txt")
    world = synthgen.load_world(tmp_path / "world.txt")
    liked = np.array(
        [[synthgen.user_feedback(world, u, j, "nonlinear") for j in range(8)]
         for u in range(4)]
    )
    batch = intervention.CounterfactualBatch(mode=mode)
    agree = total = 0
    for u in range(4):
        for j in range(8):
            if mode == "pointwise":
                label = int(liked[u, j]) if (u + j) % 3 else 1 - int(liked[u, j])
                batch.points.append((u, j, label))
                total += 1
                agree += label == liked[u, j]
            else:
                other = (j + 1) % 8
                batch.triplets.append((u, j, other))
                if liked[u, j] != liked[u, other]:
                    total += 1
                    agree += liked[u, j] == 1
            batch.confidences.append(1.0)
            batch.provenance.append("t")
    batch.to_tsv(tmp_path / "batches.tsv")
    assert total > 0
    acc = checks.cf_label_acc(str(tmp_path), {"synth.mode": "nonlinear"})
    assert acc == pytest.approx(agree / total)
