import hashlib
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

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
        for name in ("data.tsv", "sim.txt", "posterior.txt", "target.txt",
                     "target_cpr.txt", "batches.tsv", "report.txt", "report.tsv"):
            assert (auto / name).read_bytes() == (manual / name).read_bytes(), name

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

    def test_untrainable_target_cannot_intervene(self, tmp_path):
        cfg = tiny_cfg(**{"target.kind": "itempop"})
        from cfrank.cli import StageError

        with pytest.raises(StageError, match="intervene"):
            run_pipeline(cfg, str(tmp_path / "x"))


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

    def test_stage_subcommand(self, tmp_path, capsys):
        code = main(
            ["synth-gen", "--out", str(tmp_path)]
            + [f"--set={k}={v}" for k, v in TINY.items()]
        )
        assert code == 0
        assert (tmp_path / "data.tsv").exists()
        assert (tmp_path / "world.txt").exists()
