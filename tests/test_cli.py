import ctypes
import functools
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

from cfrank import cli
from cfrank.cli import (
    ConfigError,
    ExperimentConfig,
    MissingArtifactError,
    load_config,
    main,
    run_pipeline,
    stage_evaluate,
    stage_fit_posterior,
    stage_intervene,
    stage_synth_gen,
    stage_train_sim,
    stage_train_target,
)

TINY = {
    "seed": 5,
    "synth.n_users": 40,
    "synth.n_items": 30,
    "synth.d": 6,
    "simulator.d_r": 8,
    "simulator.d_s": 8,
    "simulator.epochs": 4,
    "posterior.epochs": 15,
    "target.d": 8,
    "target.epochs": 6,
    "intervention.rounds": 1,
    "intervention.actions": 1,
    "intervention.k": 2,
    "intervention.pretrain_episodes": 3,
    "intervention.pretrain_steps": 6,
}


def tiny_cfg(**extra):
    values = dict(TINY)
    values.update(extra)
    return load_config(overrides={k: str(v) for k, v in values.items()})


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg["seed"] == 7
        assert cfg["target.kind"] == "bpr-mf"

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\ntarget.kind = gmf  # comment\n")
        cfg = load_config(path, overrides={"target.d": "16"})
        assert cfg["seed"] == 11
        assert cfg["target.kind"] == "gmf"
        assert cfg["target.d"] == 16

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment line\n  # an indented one\n"
            "dataset.path = /data/run#2/b.tsv\nseed = 3\t# after a tab\n"
        )
        cfg = load_config(path)
        assert cfg["dataset.path"] == "/data/run#2/b.tsv"
        assert cfg["seed"] == 3

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense.key = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(overrides={"seed": "banana"})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.cfg")

    def test_bool_parsing(self):
        cfg = load_config(overrides={"eval.coldness": "true"})
        assert cfg["eval.coldness"] is True

    def test_out_dir_excluded_from_provenance(self):
        cfg = load_config(overrides={"out.dir": "/somewhere"})
        assert not any("out.dir" in line for line in cfg.resolved_lines())

    def test_dataset_path_excluded_from_provenance(self):
        cfg = load_config(overrides={"dataset.path": "/somewhere/data.tsv"})
        assert not any("dataset.path" in line for line in cfg.resolved_lines())


class TestPipeline:
    def test_manual_composition_matches_pipeline(self, tmp_path):
        cfg = tiny_cfg()
        auto = tmp_path / "auto"
        manual = tmp_path / "manual"
        auto.mkdir()
        manual.mkdir()
        run_pipeline(cfg, str(auto))
        for stage in (
            stage_synth_gen,
            stage_train_sim,
            stage_fit_posterior,
            stage_train_target,
            stage_intervene,
            stage_evaluate,
        ):
            stage(cfg, str(manual))
        for name in ("data.tsv", "batches.tsv", "report.txt", "report.tsv", "world.txt",
                     "sim.txt", "posterior.txt", "target.txt", "policy.txt",
                     "target_cpr.txt"):
            assert (auto / name).read_bytes() == (manual / name).read_bytes(), name

    def test_stage_results_released_before_next_stage(self, tmp_path, monkeypatch):
        from cfrank import cli

        class Result:
            pass

        seen = []

        def stage(name):
            def run(cfg, out, **kwargs):
                assert all(ref() is None for ref in seen), name
                result = Result()
                seen.append(weakref.ref(result))
                return result

            return run

        def no_fork():
            raise AssertionError("a worker started for a substituted train-target")

        real = cli.PIPELINE_STAGES
        stage_synth_gen(tiny_cfg(), str(tmp_path))
        monkeypatch.setattr(
            cli, "PIPELINE_STAGES", tuple((name, stage(name)) for name, _ in cli.PIPELINE_STAGES)
        )
        # The overlap gate holds and a dataset is there to load, but
        # train-target is not the real stage.
        monkeypatch.setattr(cli, "_overlap_possible", lambda: True)
        monkeypatch.setattr(os, "fork", no_fork)
        last = run_pipeline(tiny_cfg(), str(tmp_path))
        assert len(seen) == len(cli.PIPELINE_STAGES)
        assert seen[-1]() is last

        # The real stages hand the ranker models forward, each until the
        # stage it was handed to ends. intervene fine-tunes the model it
        # was handed and returns it, so evaluate is handed the same object;
        # without intervene, no stage takes train-target's model.
        monkeypatch.setattr(cli, "_overlap_possible", lambda: False)
        for rounds, held in (
            (1, {"intervene": {"train-target"}, "evaluate": {"train-target", "intervene"}}),
            (0, {}),
        ):
            models = {}

            def holding(name, stage, models=models, held=held):
                @functools.wraps(stage)
                def run(cfg, out, **kwargs):
                    alive = {n for n, ref in models.items() if ref() is not None}
                    assert alive == held.get(name, set()), name
                    result = stage(cfg, out, **kwargs)
                    if name in ("train-target", "intervene"):
                        models[name] = weakref.ref(result)
                    return result

                return run

            monkeypatch.setattr(
                cli, "PIPELINE_STAGES", tuple((name, holding(name, fn)) for name, fn in real)
            )
            run_pipeline(
                tiny_cfg(**{"intervention.rounds": rounds}), str(tmp_path / f"real{rounds}")
            )
            assert "train-target" in models
            assert all(ref() is None for ref in models.values())

    def test_plain_wrappers_keep_the_handoff(self, tmp_path, monkeypatch):
        # Stages wrapped without functools.wraps still hand their models on:
        # only evaluate loads a model checkpoint, target.txt.
        from cfrank import cli, rankers

        loads = []
        load = rankers.load_model

        def counting_load(path):
            loads.append(os.path.basename(path))
            return load(path)

        def plain(fn):
            return lambda cfg, out, **kw: fn(cfg, out, **kw)

        monkeypatch.setattr(rankers, "load_model", counting_load)
        monkeypatch.setattr(cli, "_overlap_possible", lambda: False)
        monkeypatch.setattr(
            cli, "PIPELINE_STAGES", tuple((n, plain(fn)) for n, fn in cli.PIPELINE_STAGES)
        )
        run_pipeline(tiny_cfg(), str(tmp_path))
        assert loads == ["target.txt"]

    def test_reports_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_cfg()
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(cfg, str(a))
        run_pipeline(cfg, str(b))
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        assert (a / "report.tsv").read_bytes() == (b / "report.tsv").read_bytes()

    def test_zero_rounds_is_baseline_only(self, tmp_path):
        cfg = tiny_cfg(**{"intervention.rounds": 0})
        out = tmp_path / "base"
        run_pipeline(cfg, str(out))
        report = (out / "report.txt").read_text()
        assert "bpr-mf" in report
        assert "cpr" not in report
        assert not (out / "target_cpr.txt").exists()

    def test_zero_rounds_rerun_ignores_an_older_cpr_model(self, tmp_path):
        reused, fresh = tmp_path / "reused", tmp_path / "fresh"
        run_pipeline(tiny_cfg(), str(reused))
        cfg = tiny_cfg(**{"intervention.rounds": 0, "target.epochs": 8})
        run_pipeline(cfg, str(reused))
        run_pipeline(cfg, str(fresh))
        # The older run's intervene artifacts are removed with the rest.
        assert run_files(reused) == run_files(fresh)

    def test_random_mode_row_name(self, tmp_path):
        cfg = tiny_cfg(**{"intervention.mode": "random"})
        out = tmp_path / "rand"
        run_pipeline(cfg, str(out))
        report = (out / "report.txt").read_text()
        assert "cpr-bpr-mf-r" in report

    def test_coldness_sections(self, tmp_path):
        cfg = tiny_cfg(**{"eval.coldness": True, "intervention.rounds": 0})
        out = tmp_path / "cold"
        run_pipeline(cfg, str(out))
        report = (out / "report.txt").read_text()
        assert "coldness buckets" in report

    def test_report_embeds_config(self, tmp_path):
        cfg = tiny_cfg()
        out = tmp_path / "prov"
        run_pipeline(cfg, str(out))
        report = (out / "report.txt").read_text()
        assert "# seed = 5" in report
        assert "# target.kind = bpr-mf" in report

    def test_report_records_blas_threads(self, tmp_path, monkeypatch):
        # Neither setting is "1", so the overlap gate stays shut here.
        reports = []
        for openblas, omp in (("3", None), (None, "2")):
            for var, value in zip(BLAS_VARS, (openblas, omp)):
                if value is None:
                    monkeypatch.delenv(var, raising=False)
                else:
                    monkeypatch.setenv(var, value)
            out = tmp_path / f"{openblas}-{omp}"
            run_pipeline(tiny_cfg(**{"intervention.rounds": 0}), str(out))
            reports.append(((out / "report.txt").read_text().splitlines(),
                            (out / "report.tsv").read_bytes()))
        (txt3, tsv3), (txt2, tsv2) = reports
        assert tsv3 == tsv2
        assert len(txt3) == len(txt2)
        (changed,) = [i for i, (a, b) in enumerate(zip(txt3, txt2)) if a != b]
        assert txt3[changed] == "# blas threads: OPENBLAS_NUM_THREADS=3, OMP_NUM_THREADS=unset"
        assert txt2[changed] == "# blas threads: OPENBLAS_NUM_THREADS=unset, OMP_NUM_THREADS=2"

    def test_behaviors_report_independent_of_location(self, tmp_path):
        sample = os.path.join(os.path.dirname(__file__), "data", "behaviors_sample.tsv")
        reports = []
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            path = tmp_path / name / "behaviors.tsv"
            shutil.copy(sample, path)
            cfg = tiny_cfg(**{
                "dataset.kind": "behaviors",
                "dataset.path": str(path),
                "dataset.max_users": 30,
                "simulator.epochs": 1,
                "posterior.epochs": 3,
            })
            run_pipeline(cfg, str(tmp_path / name / "run"))
            reports.append((tmp_path / name / "run" / "report.txt").read_bytes())
        assert reports[0] == reports[1]
        with open(sample, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert f"# dataset.sha256 = {digest}\n".encode() in reports[0]
        assert b"dataset.path" not in reports[0]

    def test_missing_artifact_names_file(self, tmp_path):
        cfg = tiny_cfg()
        with pytest.raises(MissingArtifactError, match="data.tsv"):
            stage_fit_posterior(cfg, str(tmp_path))
        stage_synth_gen(cfg, str(tmp_path))
        with pytest.raises(MissingArtifactError, match="sim.txt"):
            stage_fit_posterior(cfg, str(tmp_path))

    def test_itempop_pipeline_without_rounds(self, tmp_path):
        cfg = tiny_cfg(**{"target.kind": "itempop", "intervention.rounds": 0})
        out = tmp_path / "pop"
        run_pipeline(cfg, str(out))
        assert "itempop" in (out / "report.txt").read_text()

    def test_sampled_candidates_shared_across_models(self, tmp_path):
        # One fixed scorer saved as both the target and the CPR model: under
        # sampled candidates both rows must rank against the same negatives.
        cfg = tiny_cfg(**{
            "target.kind": "itempop",
            "eval.candidates": "sampled:8",
            "eval.n": 3,
            "eval.coldness": True,
        })
        out = tmp_path / "sampled"
        out.mkdir()
        stage_synth_gen(cfg, str(out))
        stage_train_target(cfg, str(out))
        shutil.copy(out / "target.txt", out / "target_cpr.txt")
        stage_evaluate(cfg, str(out))
        rows = {}
        for line in (out / "report.tsv").read_text().splitlines():
            fields = line.split("\t")
            rows[fields[0]] = fields[1:4]
        pairs = [(name, "cpr-" + name) for name in rows if name.startswith("itempop")]
        assert len(pairs) >= 2  # the overall row and at least one bucket
        for target, cpr in pairs:
            assert rows[target] == rows[cpr], target

    def test_coldness_ranks_each_test_user_once(self, tmp_path, monkeypatch):
        from cfrank import evalkit, rankers

        cfg = tiny_cfg(**{"target.kind": "itempop", "eval.coldness": True})
        out = tmp_path / "once"
        out.mkdir()
        stage_synth_gen(cfg, str(out))
        stage_train_target(cfg, str(out))
        shutil.copy(out / "target.txt", out / "target_cpr.txt")
        ranked = []

        def counting(model, users, *args, **kwargs):
            ranked.append(len(users))
            return rankers.recommend_topn(model, users, *args, **kwargs)

        monkeypatch.setattr(evalkit, "recommend_topn", counting)
        reports = stage_evaluate(cfg, str(out))
        n_test = next(iter(reports.values())).n_users
        assert n_test > 0 and ranked == [n_test, n_test]  # one call per model
        tsv = (out / "report.tsv").read_text()
        assert tsv.count("@") >= 2  # bucket rows were written for both models

    def test_negative_actions_fail_before_anything_loads(self, tmp_path, capsys):
        setting = config_args("intervention.actions=-1")
        assert main(["intervene", "--out", str(tmp_path / "empty"), *setting]) == 1
        out = tmp_path / "run"
        assert main(["pipeline", "--out", str(out), *setting]) == 1
        assert (out / "target.txt").exists()
        assert not (out / "policy.txt").exists()
        message = "failed: intervention.actions=-1 must be >= 0"
        assert capsys.readouterr().err.count(message) == 2

    def test_untrainable_target_cannot_intervene(self, tmp_path):
        cfg = tiny_cfg(**{"target.kind": "itempop"})
        from cfrank.cli import StageError

        with pytest.raises(StageError, match="intervene"):
            run_pipeline(cfg, str(tmp_path / "x"))


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
STAGE_NAMES = ["synth-gen", "train-sim", "fit-posterior", "train-target", "intervene",
               "evaluate"]

# Runs a `cfrank` command with the overlap gate forced on (argv[1] == "1:")
# or off ("0:"). A mode after the colon makes a child die before it reports,
# the train-target worker ("1:die"), the intervene child ("1:die-intervene")
# or the target_cpr.txt writer ("1:die-writer"; with the gate off the save
# runs in process and nothing dies), or makes intervene's round 0 raise on
# either path ("1:raise-round", "0:raise-round"), or makes intervene's
# batches.tsv write fail ("fail-batches"). Every stage is wrapped as
# a tracer wraps it. Prints one JSON line: the exit code, the forks made,
# the stages this process called, and whether a child process is left,
# running or unreaped. Mode "handoff" adds the checkpoints this process
# loaded and, per model handed to a stage ("target" to intervene, "cpr" to
# evaluate), whether it equals its checkpoint array for array. Mode "parse"
# adds the files this process parsed with `textio.load_matrices`.
OVERLAP_DRIVER = """
import functools, json, os, sys
import numpy as np
from cfrank import cli, intervention, rankers, textio

forks, called, loads, handed, parses = [], [], [], {}, []
fork = os.fork
load, save = rankers.load_model, rankers.save_model
load_matrices = textio.load_matrices

def counting_fork():
    forks.append(os.getpid())
    return fork()

def traced(name, stage):
    @functools.wraps(stage)
    def run(*args, **kwargs):
        called.append(name)
        models = getattr(kwargs.get("run"), "models", {})
        for key, checkpoint in (("target", "target.txt"), ("cpr", "target_cpr.txt")):
            if checkpoint in models:  # copied: intervene trains it in place
                arrays, meta = rankers.model_state(models[checkpoint])
                handed[key] = ({k: v.copy() for k, v in arrays.items()}, meta)
        return stage(*args, **kwargs)
    return run

def counting_load(path):
    loads.append(os.path.basename(path))
    return load(path)

def counting_parse(path):
    parses.append(os.path.basename(path))
    return load_matrices(path)

def dying_save(model, path):
    if os.path.basename(path) == "target_cpr.txt.part":
        os._exit(9)
    save(model, path)

def failing_to_tsv(batch, path):
    raise OSError(f"cannot write {os.path.basename(path)}")

def same(state, path):
    arrays, meta = rankers.model_state(load(path))
    got, got_meta = state
    return got_meta == meta and got.keys() == arrays.keys() and all(
        np.array_equal(got[k], arrays[k]) for k in arrays
    )

def raise_in_round_0(*args):
    raise ValueError("round 0 raised")
    yield

gate, _, mode = sys.argv[1].partition(":")
os.fork = counting_fork
cli._overlap_possible = lambda: gate == "1"
if mode == "die":
    cli._fit_target = lambda *args: os._exit(9)
if mode == "die-intervene":
    cli._round_batches = lambda *args: os._exit(9)
if mode == "raise-round":
    cli._round_batches = raise_in_round_0
if mode == "die-writer":
    rankers.save_model = dying_save
if mode == "handoff":
    rankers.load_model = counting_load
if mode == "parse":
    textio.load_matrices = counting_parse
if mode == "fail-batches":
    intervention.CounterfactualBatch.to_tsv = failing_to_tsv
cli.PIPELINE_STAGES = tuple((n, traced(n, s)) for n, s in cli.PIPELINE_STAGES)
code = cli.main(sys.argv[2:])
try:
    os.waitpid(-1, os.WNOHANG)
    child = True
except ChildProcessError:
    child = False
result = {"code": code, "forks": len(forks), "stages": called, "child": child}
if mode == "parse":
    result["parses"] = parses
if mode == "handoff":
    out = sys.argv[sys.argv.index("--out") + 1]
    result["loads"] = loads
    result["handed"] = {
        key: same(handed[key], os.path.join(out, name))
        for key, name in (("target", "target.txt"), ("cpr", "target_cpr.txt"))
    }
print(json.dumps(result))
"""


def clean_env(**blas):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(PYTHONPATH=SRC, **blas)
    return env


def config_args(*settings):
    return [f"--set={k}={v}" for k, v in TINY.items()] + [f"--set={s}" for s in settings]


def forced_command(overlap, command, out, *settings, mode=""):
    """(driver result, stderr) of a `cfrank` command in a fresh process. One
    BLAS thread keeps that process single-threaded, so its fork does not
    raise Python 3.12's DeprecationWarning, which -W turns into an error."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", OVERLAP_DRIVER,
         f"{int(overlap)}:{mode}", command, "--out", str(out),
         *config_args(*settings)],
        capture_output=True, text=True, env=clean_env(OPENBLAS_NUM_THREADS="1"),
        timeout=120,
    )
    assert proc.stdout, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def forced_pipeline(overlap, out, *settings, mode=""):
    return forced_command(overlap, "pipeline", out, *settings, mode=mode)


def run_files(out):
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    assert not [name for name in files if ".part" in name], sorted(files)
    return files


def error_lines(err):
    return [line for line in err.splitlines() if "error" in line]


class TestOverlappedPipeline:
    """synth-gen, train-target and intervene each with a forked child,
    against the same stages run one after another in one process."""

    @pytest.mark.parametrize(
        "settings",
        [(), ("target.kind=neumf", "target.objective=pointwise")],
        ids=["bpr-mf", "neumf-pointwise"],
    )
    def test_run_directory_identical_on_both_paths(self, tmp_path, monkeypatch, settings):
        # The stages run here by hand record the BLAS settings of the
        # forced commands in report.txt.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        files = {}
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, *settings)
            # synth-gen, the train-target worker, intervene's rounds and the
            # target_cpr.txt writer
            assert result == {
                "code": 0, "forks": 4 * overlap, "stages": STAGE_NAMES, "child": False
            }, err
            files[overlap] = run_files(out)
            # By hand: synth-gen and intervene fork on their own.
            hand = tmp_path / f"hand-{overlap}"
            for stage in STAGE_NAMES:
                if stage in ("synth-gen", "intervene"):
                    result, err = forced_command(overlap, stage, hand, *settings)
                    assert result == {
                        "code": 0, "forks": int(overlap), "stages": [stage],
                        "child": False,
                    }, err
                else:
                    assert main([stage, "--out", str(hand), *config_args(*settings)]) == 0
            files[f"hand-{overlap}"] = run_files(hand)
        assert "batches.tsv" in files[True]
        for other in (False, "hand-True", "hand-False"):
            assert files[other] == files[True], other

    @pytest.mark.parametrize(
        "setting, code, forks",
        [
            ("target.batch_size=-1", 2, 2),
            ("target.negatives=0", 2, 2),
            # checked before the fork: no worker starts, only synth-gen forks
            ("target.objective=listwise", 1, 1),
        ],
    )
    def test_failing_fit_fails_alike_on_both_paths(self, tmp_path, setting, code, forks):
        errors = {}
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, setting)
            assert result == {
                "code": code, "forks": forks if overlap else 0,
                "stages": STAGE_NAMES[:4], "child": False,
            }, err
            assert not (out / "target.txt").exists()
            errors[overlap] = error_lines(err)
        assert errors[True] == errors[False]
        assert len(errors[True]) == 1
        assert errors[True][0].startswith("error: stage 'train-target' failed: ")

    def test_failing_train_sim_waits_for_the_worker(self, tmp_path):
        files, errors = {}, {}
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, "simulator.lr=1e300")
            assert result == {
                "code": 3, "forks": 2 * overlap, "stages": STAGE_NAMES[:2],
                "child": False,
            }, err
            files[overlap] = run_files(out)
            errors[overlap] = error_lines(err)
        assert errors[True] == errors[False]
        assert errors[True] == [
            "error: stage 'train-sim' failed: exposure training diverged at epoch 0"
        ]
        # The worker was waited for, not killed, and what it wrote under a
        # temporary name was removed: the serial run's directory.
        assert "target.txt" not in files[True]
        assert files[True] == files[False]

    def test_worker_that_dies_fails_the_stage(self, tmp_path):
        result, err = forced_pipeline(True, tmp_path, mode="die")
        assert result == {
            "code": 2, "forks": 2, "stages": STAGE_NAMES[:4], "child": False
        }, err
        assert (
            "error: stage 'train-target' failed: the train-target worker ended"
            " without a result (exit code 9)" in err
        )
        assert not (tmp_path / "target.txt").exists()

    def test_intervene_child_that_dies_fails_the_stage(self, tmp_path):
        result, err = forced_pipeline(True, tmp_path, mode="die-intervene")
        assert result == {
            "code": 2, "forks": 3, "stages": STAGE_NAMES[:5], "child": False
        }, err
        assert error_lines(err) == [
            "error: stage 'intervene' failed: the intervene worker ended"
            " without a result (exit code 9)"
        ]
        assert (tmp_path / "policy.txt").exists()
        assert not (tmp_path / "batches.tsv").exists()
        assert not (tmp_path / "target_cpr.txt").exists()

    @pytest.mark.parametrize(
        "settings",
        [(), ("target.kind=neumf", "target.objective=pointwise")],
        ids=["bpr-mf", "neumf-pointwise"],
    )
    def test_models_handed_forward_equal_their_checkpoints(self, tmp_path, settings):
        for overlap in (True, False):
            result, err = forced_pipeline(
                overlap, tmp_path / str(overlap), *settings, mode="handoff"
            )
            # Only evaluate can load a model checkpoint: target.txt, which
            # intervene's fine-tune left behind in memory. With the gate on,
            # train-target's child sends that model again.
            assert result == {
                "code": 0, "forks": 4 * overlap, "stages": STAGE_NAMES, "child": False,
                "loads": [] if overlap else ["target.txt"],
                "handed": {"target": True, "cpr": True},
            }, err

    def test_pipeline_parses_only_target_without_the_gate(self, tmp_path):
        # Each checkpoint a stage reads is handed on in memory; with the gate
        # off, evaluate parses target.txt, which intervene fine-tuned away.
        for overlap in (True, False):
            result, err = forced_pipeline(
                overlap, tmp_path / str(overlap), "eval.coldness=true", mode="parse"
            )
            assert result == {
                "code": 0, "forks": 4 * overlap, "stages": STAGE_NAMES, "child": False,
                "parses": [] if overlap else ["target.txt"],
            }, err

    def test_target_cpr_writer_that_dies_fails_evaluate(self, tmp_path):
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, mode="die-writer")
            assert result == {
                "code": 2 if overlap else 0, "forks": 4 * overlap,
                "stages": STAGE_NAMES, "child": False,
            }, err
            files = run_files(out)
            if overlap:
                assert error_lines(err) == [
                    "error: stage 'evaluate' failed: the target_cpr.txt worker ended"
                    " without a result (exit code 9)"
                ]
                assert "target_cpr.txt" not in files and "report.tsv" not in files
                assert {"target.txt", "batches.tsv"} <= files.keys()
            else:
                assert error_lines(err) == []
                assert {"target_cpr.txt", "report.tsv"} <= files.keys()

    def test_failing_evaluate_keeps_target_cpr(self, tmp_path):
        files, errors = {}, {}
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, "eval.n=0")
            assert result == {
                "code": 2, "forks": 4 * overlap, "stages": STAGE_NAMES, "child": False
            }, err
            files[overlap] = run_files(out)
            errors[overlap] = error_lines(err)
        assert errors[True] == errors[False]
        assert errors[True] == ["error: stage 'evaluate' failed: n=0 must be >= 1"]
        # intervene completed, so the writer was waited for and its files kept
        assert "target_cpr.txt" in files[True]
        assert "report.tsv" not in files[True]
        assert files[True] == files[False]

    def test_failing_batches_write_removes_the_target_cpr_writer(self, tmp_path):
        files, errors = {}, {}
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, mode="fail-batches")
            assert result == {
                "code": 2, "forks": 4 * overlap, "stages": STAGE_NAMES[:5], "child": False
            }, err
            files[overlap] = run_files(out)
            errors[overlap] = error_lines(err)
        assert errors[True] == errors[False]
        assert errors[True] == ["error: stage 'intervene' failed: cannot write batches.tsv"]
        # The writer had forked, but intervene did not complete: its files
        # were removed, and train-target's were kept.
        assert not {"batches.tsv", "target_cpr.txt"} & files[True].keys()
        assert {"target.txt", "policy.txt"} <= files[True].keys()
        assert files[True] == files[False]

    @pytest.mark.parametrize(
        "settings, mode, code",
        [
            # The parent's first fine-tune diverges while the child still
            # produces rounds: each round's pickle (about 190 KB) is larger
            # than the pipe holds, so the child is blocked writing.
            (("intervention.finetune_lr=1e300", "intervention.rounds=4",
              "intervention.actions=40"), "", 3),
            # Round 0 raises, in the child or in process, after pretraining.
            ((), "raise-round", 2),
        ],
        ids=["parent-fails", "round-raises"],
    )
    def test_failing_intervene_fails_alike_on_both_paths(
        self, tmp_path, settings, mode, code
    ):
        files, errors = {}, {}
        for overlap in (True, False):
            out = tmp_path / str(overlap)
            result, err = forced_pipeline(overlap, out, *settings, mode=mode)
            assert result == {
                "code": code, "forks": 3 * overlap, "stages": STAGE_NAMES[:5],
                "child": False,
            }, err
            files[overlap] = run_files(out)
            errors[overlap] = error_lines(err)
        assert errors[True] == errors[False]
        assert len(errors[True]) == 1
        assert errors[True][0].startswith("error: stage 'intervene' failed: ")
        assert "batches.tsv" not in files[True]
        # train-target completed, so its model was handed on and its files kept
        assert "target.txt" in files[True]
        assert files[True] == files[False]


class TestOverlapGate:
    @pytest.fixture
    def gate(self, monkeypatch):
        """Sets every input of the gate to pass; a test then changes one."""
        tasks = ["1"]
        listdir = os.listdir
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(
            os, "listdir", lambda path: tasks if path == "/proc/self/task" else listdir(path)
        )
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        return monkeypatch, tasks

    def test_all_conditions_met(self, gate):
        from cfrank import cli

        assert cli._overlap_possible()

    @pytest.mark.parametrize(
        "openblas, omp, expected",
        [
            (None, "1", True),
            ("1", "4", True),
            (None, None, False),
            ("2", None, False),
            ("2", "1", False),
            ("0", None, False),
        ],
    )
    def test_blas_threads(self, gate, openblas, omp, expected):
        from cfrank import cli

        monkeypatch, _ = gate
        for var, value in zip(BLAS_VARS, (openblas, omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert cli._overlap_possible() is expected

    def test_not_linux(self, gate):
        from cfrank import cli

        gate[0].setattr(sys, "platform", "darwin")
        assert not cli._overlap_possible()

    def test_one_usable_cpu(self, gate):
        from cfrank import cli

        gate[0].setattr(os, "sched_getaffinity", lambda pid: {3})
        assert not cli._overlap_possible()

    def test_another_thread(self, gate):
        from cfrank import cli

        gate[1].append("2")
        assert not cli._overlap_possible()


class TestCommandBlasDefault:
    """`cfrank` and `python -m cfrank` give BLAS one thread unless told
    otherwise; importing the package as a library sets nothing."""

    REPORT = (
        "import json, os, sys; print(json.dumps([sys.modules.get('numpy') is not None,"
        " [os.environ.get(v) for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS')]]))"
    )

    def report(self, statement, **blas):
        proc = subprocess.run(
            [sys.executable, "-c", f"{statement}\n{self.REPORT}"],
            capture_output=True, text=True, env=clean_env(**blas), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_library_import_loads_no_numpy_and_sets_nothing(self):
        assert self.report("import cfrank") == [False, [None, None]]

    @pytest.mark.parametrize(
        "blas, expected",
        [
            ({}, ["1", None]),
            ({"OPENBLAS_NUM_THREADS": "3"}, ["3", None]),
            ({"OMP_NUM_THREADS": "2"}, [None, "2"]),
        ],
    )
    def test_command_default(self, blas, expected):
        with open(os.path.join(SRC, os.pardir, "pyproject.toml"), encoding="utf-8") as fh:
            script = re.search(r'^cfrank = "(.+)"$', fh.read(), re.MULTILINE)
        module, name = script.group(1).split(":")
        assert module == "cfrank.__main__"
        assert self.report(f"from {module} import {name}", **blas) == [True, expected]

    def test_exports_load_on_first_use(self):
        import cfrank
        from cfrank import rankers

        assert cfrank.train_pairwise is rankers.train_pairwise
        assert set(cfrank.__all__) <= set(dir(cfrank))
        with pytest.raises(AttributeError):
            cfrank.no_such_name


class FakeLibcFunction:
    def __init__(self):
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return 1


def refusing_cdll(name):
    raise OSError(f"cannot open {name!r}")


FAULTS_PER_STEP = """
import resource
from cfrank import cli, rankers
from cfrank.mathcore import AdamGroup, RandomStream

cli._pin_malloc_thresholds()
stream = RandomStream(3)
model = rankers.make_model("bpr-mf", 293, 719, d=64, stream=stream)
opt = AdamGroup(model.params(), lr=1e-3)


def step():
    u = stream.integers(0, 293, 512)
    i, j = stream.integers(0, 719, 512), stream.integers(0, 719, 512)
    _, grads = rankers.pairwise_loss_grad(model, u, i, j)
    opt.step(model.params(), grads)


for _ in range(20):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    step()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


HEAP_RELEASE = """
import json, os
import numpy as np
from cfrank import cli

def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

cli._pin_malloc_thresholds()
block = np.ones(24 << 17)  # 24 MiB, under the mmap threshold: from the heap
del block
kept = resident_mb()
cli._release_free_heap()
print(json.dumps([kept, resident_mb()]))
"""


def has_glibc_malloc():
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return False
    return all(hasattr(libc, name) for name in ("mallopt", "malloc_trim"))


class TestMallocThresholds:
    """`main` fixes glibc's mmap and trim thresholds once per process, so
    training steps reuse freed heap blocks instead of faulting in fresh
    pages, and a pipeline hands the heap's free pages back after each
    stage; without glibc's functions both carry on, and importing sets
    nothing."""

    def test_main_sets_both_thresholds(self, monkeypatch, capsys):
        libc = types.SimpleNamespace(mallopt=FakeLibcFunction())
        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or libc)
        assert main(["theory-check", "--theorem", "1", "--trials", "10"]) == 0
        assert opened == [None]
        assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]
        assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)

    @pytest.mark.parametrize(
        "cdll", [lambda name: types.SimpleNamespace(), refusing_cdll],
        ids=["no-mallopt", "oserror"],
    )
    def test_main_works_without_mallopt(self, cdll, monkeypatch, capsys):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(["theory-check", "--theorem", "1", "--trials", "10"]) == 0
        assert capsys.readouterr().out.startswith("bound N")

    def test_release_trims_the_heap(self, monkeypatch):
        libc = types.SimpleNamespace(malloc_trim=FakeLibcFunction())
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
        cli._release_free_heap()
        assert libc.malloc_trim.calls == [(0,)]
        assert libc.malloc_trim.argtypes == (ctypes.c_size_t,)
        for cdll in (lambda name: types.SimpleNamespace(), refusing_cdll):
            monkeypatch.setattr(ctypes, "CDLL", cdll)
            cli._release_free_heap()

    def test_pipeline_releases_after_every_stage(self, tmp_path, monkeypatch):
        done = []
        run_stage = cli.run_stage

        def recording(name, *args, **kwargs):
            result = run_stage(name, *args, **kwargs)
            done.append(name)
            return result

        monkeypatch.setattr(cli, "run_stage", recording)
        monkeypatch.setattr(cli, "_release_free_heap", lambda: done.append("release"))
        run_pipeline(tiny_cfg(), str(tmp_path))
        assert done == [x for name in STAGE_NAMES for x in (name, "release")]

    @pytest.mark.skipif(not has_glibc_malloc(), reason="the C library is not glibc's")
    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="no /proc")
    def test_release_returns_a_freed_block(self):
        proc = subprocess.run(
            [sys.executable, "-c", HEAP_RELEASE],
            capture_output=True, text=True, timeout=120, env=clean_env(),
        )
        assert proc.returncode == 0, proc.stderr
        kept, released = json.loads(proc.stdout)
        assert kept - released > 16

    @pytest.mark.parametrize("module", ["cfrank", "cfrank.cli"])
    def test_import_sets_nothing(self, module):
        spy = (
            "import ctypes, json\n"
            "opened, real = [], ctypes.CDLL\n"
            "ctypes.CDLL = lambda name, *a, **k: opened.append(name) or real(name, *a, **k)\n"
            f"import {module}\n"
            "print(json.dumps(opened))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", spy],
            capture_output=True, text=True, env=clean_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @pytest.mark.skipif(not has_glibc_malloc(), reason="the C library is not glibc's")
    def test_ranker_steps_stop_faulting(self):
        proc = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_STEP],
            capture_output=True, text=True, timeout=300,
            env=clean_env(OPENBLAS_NUM_THREADS="1"),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 5


class TestReportPins:
    """report.tsv digests of four tiny pipelines, fixed before evaluation
    ranked users in blocks: a ranking change that alters any HR/NDCG digit
    shows here. The two gradient-trained cases also pin the simulator and
    ranker checkpoints and the counterfactual batches, fixed before the
    training-step kernels (gradient scatter, negative rejection, sigmoid)
    were rewritten: those rewrites must not move a bit. Their posterior and
    policy digests were fixed before the training data, the simulator
    parameters and the posterior's two likelihood halves each took one
    shape."""

    SIM = "219089200f1c1bd263b3176450c77cdbd5dd2481bda9f4b360ff740efefd4b28"
    POSTERIOR = "d2821562651e48a91e5050e570fbf06a1f65cca89f42875be65ea8eff6b72a50"

    @pytest.mark.parametrize(
        "extra, digests",
        [
            (
                {},
                {
                    "report.tsv": "ea4d912ea827c978dbaa54cf6e5f8f69fbf6da8097f5646d80beba6d2d030974",
                    "target.txt": "874c85140dce2815a0bb27cc9b03a4293144b64cbb0e78056c1e25d5b66f91c1",
                    "target_cpr.txt": "1fb23948cf1d346d724dbf393705957a643466051db99bff0aee6003ef9c5e07",
                    "sim.txt": SIM,
                    "batches.tsv": "1324c5ef2b72e8836b5e0bfac4fe35a5dbd30e10d02478d32ea622973391b519",
                    "posterior.txt": POSTERIOR,
                    "policy.txt": "a91697e9d0ef848edde9d0478b1923e1011400049dec5278bbd77b01b9718af6",
                },
            ),
            (
                {"target.kind": "neumf", "target.objective": "pointwise",
                 "eval.coldness": True},
                {
                    "report.tsv": "9bbe64fb1913604070e660876623d553d9c3f14cbbcdb7b4ddef06e9d8674792",
                    "target.txt": "996bee7aab370a348ee47091479fe3d194c67109377044a1f660b42655d3db31",
                    "target_cpr.txt": "da2b7bb0cd2f2438d1b9f0fc2327d25b6a2aac51981fe116211aa0acb395cd60",
                    "sim.txt": SIM,
                    "batches.tsv": "9031ee0020ee0a72b2121309c1cb23b3ec372df0ac49921dce64132b1557fde5",
                    "posterior.txt": POSTERIOR,
                    "policy.txt": "6a1ff4754f451ca0466c5fd0345ec094ff9f6c632af387c6f40a09794324f4b2",
                },
            ),
            (
                {"target.kind": "itemknn", "intervention.rounds": 0,
                 "eval.candidates": "sampled:20", "eval.coldness": True},
                {"report.tsv": "a91a097b427b187c7d901ec51d526735ad17c4be01c8f52c20bb3d5f5ad09bd7"},
            ),
            (
                {"target.kind": "itempop", "intervention.rounds": 0, "eval.n": 5},
                {"report.tsv": "00ce058412b7a62c517d915620966a96afdc0976bdaaf476bbae6acde1213dc0"},
            ),
        ],
        ids=["bpr-mf-all", "neumf-pointwise-coldness", "itemknn-sampled-coldness",
             "itempop-n5"],
    )
    def test_report_digest(self, tmp_path, extra, digests):
        cfg = tiny_cfg(**{"synth.n_items": 80, **extra})
        run_pipeline(cfg, str(tmp_path))
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in digests
        }
        assert got == digests


class TestMainEntry:
    def test_theory_check_exit_zero(self, capsys):
        code = main(
            ["theory-check", "--theorem", "1", "--eta", "0.75", "--delta", "0.05",
             "--trials", "2000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound N" in out and "6" in out

    def test_theory_check_tsv(self, capsys):
        code = main(
            ["theory-check", "--theorem", "2", "--trials", "20", "--tsv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bound N\t" in out

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--theorem", "1", "--trials", "0"], "trials=0 must be >= 1"),
            (["--theorem", "1", "--trials", "-5"], "trials=-5 must be >= 1"),
            (["--theorem", "2", "--trials", "0"], "trials=0 must be >= 1"),
            (["--theorem", "2", "--trials", "-5"], "trials=-5 must be >= 1"),
            (["--theorem", "1", "--eta", "0.5"], "eta must lie in (0,1) and differ from 1/2"),
            (["--theorem", "2", "--zeta", "0.6"], "zeta must lie in [0, 0.5)"),
        ],
    )
    def test_theory_check_bad_argument_is_a_config_error(self, args, message, capsys):
        assert main(["theory-check", *args]) == 1
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_python_m_entry_point(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "cfrank", "theory-check", "--theorem", "1",
             "--trials", "200", "--tsv"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("bound N\t")

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 1\n")
        code = main(["pipeline", "--config", str(bad)])
        assert code == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        code = main(
            ["evaluate", "--set", "dataset.kind=native",
             "--set", "dataset.path=/nonexistent.tsv", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_stage_exit_code(self, tmp_path, capsys):
        code = main(
            ["pipeline", "--out", str(tmp_path)]
            + [f"--set={k}={v}" for k, v in TINY.items()]
            + ["--set=simulator.lr=1e300"]
        )
        assert code == 3
        assert "exposure training diverged" in capsys.readouterr().err
        assert not (tmp_path / "sim.txt").exists()

    def test_bad_batch_size_fails_the_stage(self, tmp_path, capsys):
        code = main(
            ["pipeline", "--out", str(tmp_path)]
            + [f"--set={k}={v}" for k, v in TINY.items()]
            + ["--set=target.batch_size=-1"]
        )
        assert code == 2
        assert "stage 'train-target' failed: batch_size=-1" in capsys.readouterr().err
        assert not (tmp_path / "target.txt").exists()

    def test_stage_subcommand_error_is_one_line(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "cfrank", "synth-gen", "--out", str(tmp_path),
             "--set", "synth.list_len=0"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert (
            "error: stage 'synth-gen' failed: list_len must be >= 1, got 0"
            in proc.stderr
        )
        assert "Traceback" not in proc.stderr

    def test_bad_cutoff_fails_the_evaluate_stage(self, tmp_path, capsys):
        args = ["--out", str(tmp_path)] + [f"--set={k}={v}" for k, v in TINY.items()]
        for stage in ("synth-gen", "train-target"):
            assert main([stage] + args) == 0
        assert main(["evaluate", "--set=eval.n=0"] + args) == 2
        assert "stage 'evaluate' failed: n=0 must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report.tsv").exists()

    def test_zero_target_negatives_fails_the_stage(self, tmp_path, capsys):
        code = main(
            ["pipeline", "--out", str(tmp_path)]
            + [f"--set={k}={v}" for k, v in TINY.items()]
            + ["--set=target.negatives=0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stage 'train-target' failed: neg_per_pos=0 must be >= 1" in err
        assert not (tmp_path / "target.txt").exists()

    def test_unknown_objective_fails_before_training(self, tmp_path, capsys):
        code = main(
            ["pipeline", "--out", str(tmp_path)]
            + [f"--set={k}={v}" for k, v in TINY.items()]
            + ["--set=target.objective=listwise", "--set=intervention.rounds=0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stage 'train-target' failed: unknown target.objective 'listwise'" in err
        assert not (tmp_path / "target.txt").exists()

    def test_negative_max_users_is_a_config_error(self, tmp_path, capsys):
        sample = os.path.join(os.path.dirname(__file__), "data", "behaviors_sample.tsv")
        code = main(
            ["train-sim", "--out", str(tmp_path), "--set=dataset.kind=behaviors",
             f"--set=dataset.path={sample}", "--set=dataset.max_users=-1"]
        )
        assert code == 1
        assert "dataset.max_users=-1 must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "sim.txt").exists()

    @pytest.mark.parametrize("command", ["pipeline", "train-sim"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(
        self, tmp_path, capsys, command
    ):
        existing = tmp_path / "file"
        existing.write_text("")
        for out in (existing, existing / "run"):  # FileExistsError, NotADirectoryError
            assert main([command, "--out", str(out), *config_args()]) == 1
            (line,) = error_lines(capsys.readouterr().err)
            assert line.startswith(f"config error: run directory {str(out)!r}: ")
        assert existing.read_text() == ""

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            ("synth-gen", "synth.d=0", "stage 'synth-gen' failed: d=0 must be >= 1"),
            ("pipeline", "simulator.d_s=-1", "stage 'train-sim' failed: d_s=-1 must be >= 1"),
            ("pipeline", "target.d=0", "stage 'train-target' failed: d=0 must be >= 1"),
            ("pipeline", "intervention.pretrain_episodes=-1",
             "stage 'intervene' failed: episodes=-1 must be >= 0"),
        ],
    )
    def test_bad_size_fails_its_stage(self, tmp_path, capsys, command, setting, message):
        assert main([command, "--out", str(tmp_path), *config_args(setting)]) == 2
        assert error_lines(capsys.readouterr().err) == [f"error: {message}"]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("simulator.lr=nan", "stage 'train-sim' failed: lr=nan must be finite and > 0"),
            ("posterior.lr=-1", "stage 'fit-posterior' failed: lr=-1.0 must be finite and > 0"),
            ("target.lr=inf", "stage 'train-target' failed: lr=inf must be finite and > 0"),
            ("target.l2=-1", "stage 'train-target' failed: l2=-1.0 must be finite and >= 0"),
            ("intervention.policy_lr=-1",
             "stage 'intervene' failed: lr=-1.0 must be finite and > 0"),
            ("intervention.explore_std=nan",
             "stage 'intervene' failed: explore_start=nan must be finite and >= 0"),
            ("intervention.finetune_lr=-1",
             "stage 'intervene' failed: lr=-1.0 must be finite and > 0"),
        ],
    )
    def test_bad_rate_fails_its_stage(self, tmp_path, capsys, setting, message):
        assert main(["pipeline", "--out", str(tmp_path), *config_args(setting)]) == 2
        assert error_lines(capsys.readouterr().err) == [f"error: {message}"]
        assert not (tmp_path / "report.txt").exists()

    def test_stage_subcommand(self, tmp_path, capsys):
        code = main(
            ["synth-gen", "--out", str(tmp_path)]
            + [f"--set={k}={v}" for k, v in TINY.items()]
        )
        assert code == 0
        assert (tmp_path / "data.tsv").exists()
        assert (tmp_path / "world.txt").exists()
