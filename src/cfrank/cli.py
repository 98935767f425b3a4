"""Experiment driver: a flat key=value config, one subcommand per pipeline
stage, and an end-to-end pipeline that composes them through file artifacts.

Every stage reads its inputs from the run directory (or the configured
dataset path), derives all randomness from labeled substreams of the config
seed, and writes plain-text artifacts, so composing stages by hand produces
byte-identical results to the one-shot pipeline. Each matrix checkpoint
(`world.txt`, `sim.txt`, `posterior.txt`, `target.txt`, `policy.txt`,
`target_cpr.txt`) has a binary twin `<name>.f64` beside it, which the next
stage reads in place of parsing the text while it matches the text's sha256
(see `textio`); the text stays the artifact of record.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys

import numpy as np

from . import evalkit, intervention, rankers, simulator, synthgen, theorylab
from .corpus import (
    InteractionLog,
    coldness_buckets,
    leave_one_out_split,
    load_mind_behaviors,
    load_native_log,
    save_native_log,
)
from .mathcore import RandomStream, TrainingError


class ConfigError(ValueError):
    pass


class MissingArtifactError(FileNotFoundError):
    pass


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


# key -> (type, default). Booleans parse from true/false/1/0.
SCHEMA = {
    "seed": (int, 7),
    "out.dir": (str, "runs/out"),
    "dataset.kind": (str, "synthetic"),  # synthetic | native | behaviors
    "dataset.path": (str, ""),
    "dataset.max_users": (int, 0),  # 0 = no cap (behaviors loader)
    "synth.n_users": (int, 600),
    "synth.n_items": (int, 300),
    "synth.d": (int, 16),
    "synth.mode": (str, "nonlinear"),
    "synth.noise_std": (float, 0.0),
    "synth.lists_per_user": (int, 25),
    "synth.list_len": (int, 5),
    "simulator.d_r": (int, 32),
    "simulator.d_s": (int, 32),
    "simulator.lr": (float, 1e-3),
    "simulator.epochs": (int, 20),
    "simulator.negatives": (int, 4),
    "simulator.alpha_draws": (int, 2),
    "simulator.beta_draws": (int, 2),
    "simulator.batch_size": (int, 512),
    "posterior.lr": (float, 0.02),
    "posterior.epochs": (int, 150),
    "posterior.mc_samples": (int, 8),
    "target.kind": (str, "bpr-mf"),
    "target.objective": (str, "pairwise"),  # pairwise | pointwise
    "target.d": (int, 64),
    "target.lr": (float, 1e-3),
    "target.epochs": (int, 30),
    "target.l2": (float, 1e-3),
    "target.batch_size": (int, 512),
    "target.negatives": (int, 1),
    "intervention.mode": (str, "policy"),  # policy | random
    "intervention.rounds": (int, 3),
    "intervention.actions": (int, 2),
    "intervention.k": (int, 2),
    "intervention.hidden": (int, 32),
    "intervention.policy_lr": (float, 1e-3),
    "intervention.pretrain_episodes": (int, 30),
    "intervention.pretrain_steps": (int, 32),
    "intervention.explore_std": (float, 0.5),
    "intervention.noise_control": (bool, True),
    "intervention.finetune_epochs": (int, 1),
    "intervention.finetune_lr": (float, 2e-4),
    "eval.n": (int, 10),
    "eval.candidates": (str, "all"),
    "eval.coldness": (bool, False),
    "eval.cold_low": (int, 5),
    "eval.cold_high": (int, 15),
}


def _parse_value(key, text):
    typ = SCHEMA[key][0]
    text = text.strip()
    try:
        if typ is bool:
            if text.lower() in ("true", "1"):
                return True
            if text.lower() in ("false", "0"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return typ(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from None


LOCATION_KEYS = ("out.dir", "dataset.path")


class ExperimentConfig:
    """Resolved flat configuration with schema-typed values."""

    def __init__(self, values: dict):
        self.values = values

    def __getitem__(self, key):
        return self.values[key]

    def resolved_lines(self):
        """Provenance lines; out.dir and dataset.path are locations, not
        identity, and are skipped (reports name a dataset file by its
        digest instead)."""
        return [
            f"{key} = {self.values[key]}"
            for key in sorted(self.values)
            if key not in LOCATION_KEYS
        ]


def load_config(path=None, overrides=None) -> ExperimentConfig:
    """Defaults, then the config file, then explicit key=value overrides.

    In the file, `#` starts a comment at the start of a line or after
    whitespace; elsewhere it is part of the value (`a/run#2/b.tsv`).
    """
    values = {key: default for key, (_, default) in SCHEMA.items()}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = re.split(r"(?<!\S)#", line, maxsplit=1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, text = line.partition("=")
                key = key.strip()
                if key not in SCHEMA:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _parse_value(key, text)
    for key, text in (overrides or {}).items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = _parse_value(key, str(text))
    return ExperimentConfig(values)


# ---------------------------------------------------------------------------
# Artifact helpers


def _artifact(out, name, must_exist=False):
    path = os.path.join(out, name)
    if must_exist and not os.path.exists(path):
        raise MissingArtifactError(f"expected artifact {path}; run the earlier stage")
    return path


def _load_dataset(cfg, out) -> InteractionLog:
    kind = cfg["dataset.kind"]
    if kind == "synthetic":
        return load_native_log(_artifact(out, "data.tsv", must_exist=True))
    if kind == "native":
        if not cfg["dataset.path"]:
            raise ConfigError("dataset.path required for dataset.kind=native")
        return load_native_log(cfg["dataset.path"])
    if kind == "behaviors":
        if not cfg["dataset.path"]:
            raise ConfigError("dataset.path required for dataset.kind=behaviors")
        cap = cfg["dataset.max_users"]
        if cap < 0:
            raise ConfigError(f"dataset.max_users={cap} must be >= 0 (0 = no cap)")
        return load_mind_behaviors(cfg["dataset.path"], max_users=cap or None)
    raise ConfigError(f"unknown dataset.kind {kind!r}")


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _split(cfg, log):
    return leave_one_out_split(log, RandomStream(cfg["seed"]).substream("split"))


def _target_name(cfg):
    return cfg["target.kind"]


def _cpr_name(cfg):
    suffix = "-r" if cfg["intervention.mode"] == "random" else ""
    return f"cpr-{cfg['target.kind']}{suffix}"


# ---------------------------------------------------------------------------
# Stages


def stage_synth_gen(cfg, out):
    if cfg["dataset.kind"] != "synthetic":
        raise ConfigError("synth-gen only applies to dataset.kind=synthetic")
    stream = RandomStream(cfg["seed"]).substream("synth")
    world = synthgen.make_world(
        n_users=cfg["synth.n_users"],
        n_items=cfg["synth.n_items"],
        d=cfg["synth.d"],
        noise_std=cfg["synth.noise_std"],
        stream=stream.substream("world"),
    )
    log = synthgen.emit_dataset(
        world,
        cfg["synth.mode"],
        stream.substream("emit"),
        n_lists=cfg["synth.lists_per_user"],
        list_len=cfg["synth.list_len"],
    )
    synthgen.save_world(world, _artifact(out, "world.txt"))
    save_native_log(log, _artifact(out, "data.tsv"))
    return log


def stage_train_sim(cfg, out):
    log = _load_dataset(cfg, out)
    train = _split(cfg, log).train
    stream = RandomStream(cfg["seed"])
    imp = simulator.train_impression_model(
        train,
        simulator.ImpressionHyper(
            d_r=cfg["simulator.d_r"],
            lr=cfg["simulator.lr"],
            epochs=cfg["simulator.epochs"],
            neg_per_pos=cfg["simulator.negatives"],
            alpha_draws=cfg["simulator.alpha_draws"],
            batch_size=cfg["simulator.batch_size"],
        ),
        stream.substream("sim/impression"),
    )
    sel = simulator.train_selection_model(
        train,
        simulator.SelectionHyper(
            d_s=cfg["simulator.d_s"],
            lr=cfg["simulator.lr"],
            epochs=cfg["simulator.epochs"],
            beta_draws=cfg["simulator.beta_draws"],
            batch_size=cfg["simulator.batch_size"],
        ),
        stream.substream("sim/selection"),
    )
    params = simulator.SimParams(*imp, *sel)
    simulator.save_sim_params(params, _artifact(out, "sim.txt"))
    return params


def stage_fit_posterior(cfg, out):
    log = _load_dataset(cfg, out)
    train = _split(cfg, log).train
    params = simulator.load_sim_params(_artifact(out, "sim.txt", must_exist=True))
    posterior = simulator.fit_posterior(
        params,
        train,
        simulator.PosteriorHyper(
            lr=cfg["posterior.lr"],
            epochs=cfg["posterior.epochs"],
            mc_samples=cfg["posterior.mc_samples"],
        ),
        RandomStream(cfg["seed"]).substream("posterior"),
    )
    simulator.save_posterior(posterior, _artifact(out, "posterior.txt"))
    return posterior


def _ranker_hyper(cfg, lr=None, epochs=None):
    return rankers.RankerHyper(
        lr=cfg["target.lr"] if lr is None else lr,
        epochs=cfg["target.epochs"] if epochs is None else epochs,
        l2=cfg["target.l2"],
        batch_size=cfg["target.batch_size"],
        neg_per_pos=cfg["target.negatives"],
    )


def _trainer(objective):
    if objective == "pairwise":
        return rankers.train_pairwise
    if objective == "pointwise":
        return rankers.train_pointwise
    raise ConfigError(f"unknown target.objective {objective!r}")


def stage_train_target(cfg, out):
    log = _load_dataset(cfg, out)
    train = _split(cfg, log).train
    stream = RandomStream(cfg["seed"]).substream("target")
    kind = cfg["target.kind"]
    if kind not in rankers.ALL_KINDS:
        raise ConfigError(f"unknown target.kind {kind!r}")
    train_fn = _trainer(cfg["target.objective"])
    model = rankers.make_model(
        kind, train.n_users, train.n_items, cfg["target.d"], stream.substream("init")
    )
    if model.trainable:
        train_fn(
            model, rankers.TrainingData.from_log(train), _ranker_hyper(cfg),
            stream.substream("train"),
        )
    else:
        model.fit(train)
    rankers.save_model(model, _artifact(out, "target.txt"))
    return model


def stage_intervene(cfg, out):
    """Generate counterfactual batches and retrain the target model on them,
    mixed one-to-one with resampled observed positives per round."""
    if cfg["intervention.rounds"] < 1:
        raise ConfigError("intervene needs intervention.rounds >= 1")
    kind = cfg["target.kind"]
    mode = cfg["target.objective"]
    train_fn = _trainer(mode)
    log = _load_dataset(cfg, out)
    train = _split(cfg, log).train
    params = simulator.load_sim_params(_artifact(out, "sim.txt", must_exist=True))
    posterior = simulator.load_posterior(
        _artifact(out, "posterior.txt", must_exist=True)
    )
    target = rankers.load_model(_artifact(out, "target.txt", must_exist=True))
    if not target.trainable:
        raise ConfigError(f"target.kind {kind!r} cannot be retrained")
    observed = rankers.TrainingData.from_log(train)
    stream = RandomStream(cfg["seed"]).substream("intervene")

    list_source = cfg["intervention.mode"]
    if list_source not in ("policy", "random"):
        raise ConfigError(f"unknown intervention.mode {list_source!r}")
    k = cfg["intervention.k"]
    if not 1 <= k < params.list_len:
        raise ConfigError(f"intervention.k={k} invalid for lists of {params.list_len}")

    policy = None
    if list_source == "policy":
        policy = intervention.GaussianPolicy(
            params.P.shape[1], cfg["intervention.hidden"], stream.substream("init")
        )
        intervention.pretrain_policy(
            policy,
            params,
            posterior,
            target,
            train.n_users,
            episodes=cfg["intervention.pretrain_episodes"],
            steps_per_episode=cfg["intervention.pretrain_steps"],
            mode=mode,
            k=k,
            lr=cfg["intervention.policy_lr"],
            stream=stream.substream("pretrain"),
            explore_start=cfg["intervention.explore_std"],
            noise_control=cfg["intervention.noise_control"],
        )
        intervention.save_policy(policy, _artifact(out, "policy.txt"))

    all_batches = intervention.CounterfactualBatch(mode=mode)
    n_pos = observed.positives.shape[0]
    for rnd in range(cfg["intervention.rounds"]):
        batch, _ = intervention.run_intervention_round(
            policy,
            params,
            posterior,
            target,
            range(train.n_users),
            actions_per_user=cfg["intervention.actions"],
            mode=mode,
            k=k,
            stream=stream.substream(f"round{rnd}"),
            explore_std=0.0,
            noise_control=cfg["intervention.noise_control"],
            round_tag=f"r{rnd}",
        )
        all_batches.extend(batch)
        if len(batch) == 0:
            continue
        take = min(len(batch), n_pos)
        picked = stream.substream(f"mix{rnd}").choice(n_pos, size=take, replace=False)
        train_fn(
            target,
            rankers.TrainingData(
                positives=observed.positives[np.sort(picked)],
                user_positives=observed.user_positives,
                rows=batch.rows(),
            ),
            _ranker_hyper(
                cfg,
                lr=cfg["intervention.finetune_lr"],
                epochs=cfg["intervention.finetune_epochs"],
            ),
            stream.substream(f"finetune{rnd}"),
        )
    all_batches.to_tsv(_artifact(out, "batches.tsv"))
    rankers.save_model(target, _artifact(out, "target_cpr.txt"))
    return target


def stage_evaluate(cfg, out):
    log = _load_dataset(cfg, out)
    split = _split(cfg, log)
    stream = RandomStream(cfg["seed"]).substream("eval")
    policy = cfg["eval.candidates"]
    n = cfg["eval.n"]

    reports = {}
    coldness = {}
    names = [(_target_name(cfg), "target.txt")]
    # A run directory reused with rounds=0 may hold an older run's model.
    if cfg["intervention.rounds"] > 0 and os.path.exists(_artifact(out, "target_cpr.txt")):
        names.append((_cpr_name(cfg), "target_cpr.txt"))
    buckets = None
    if cfg["eval.coldness"]:
        buckets = coldness_buckets(
            split.train, cfg["eval.cold_low"], cfg["eval.cold_high"]
        )
    # Every model gets a fresh stream with the same label, so under
    # sampled candidates all models rank against the same negatives.
    for name, artifact in names:
        model = rankers.load_model(_artifact(out, artifact, must_exist=True))
        model.user_positives = split.train.positives_by_user()
        reports[name] = evalkit.evaluate(
            model,
            split,
            n=n,
            candidate_policy=policy,
            stream=stream.substream("candidates"),
        )
        if buckets is not None:
            coldness[name] = evalkit.coldness_report(
                model,
                split,
                buckets,
                n=n,
                candidate_policy=policy,
                stream=stream.substream("candidates/coldness"),
                overall=reports[name],
            )

    baselines = {}
    if len(names) == 2:
        baselines[names[1][0]] = names[0][0]

    header = ["# resolved configuration"]
    header += [f"# {line}" for line in cfg.resolved_lines()]
    if cfg["dataset.kind"] != "synthetic":
        header.append(f"# dataset.sha256 = {_file_sha256(cfg['dataset.path'])}")
    header.append(f"# test users: {len(split.test)} (degenerate: {split.n_degenerate})")
    body = [evalkit.comparison_table(reports, baselines)]
    tsv = [evalkit.comparison_tsv(reports, baselines)]
    for name, per_bucket in coldness.items():
        body.append(f"\ncoldness buckets for {name}")
        body.append(evalkit.comparison_table(per_bucket))
        rows = {f"{name}@{bucket}": rep for bucket, rep in per_bucket.items()}
        tsv.append(evalkit.comparison_tsv(rows))
    report_text = "\n".join(header) + "\n\n" + "\n".join(body) + "\n"
    with open(_artifact(out, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(report_text)
    with open(_artifact(out, "report.tsv"), "w", encoding="utf-8") as fh:
        fh.write("".join(tsv))
    return reports


PIPELINE_STAGES = (
    ("synth-gen", stage_synth_gen),
    ("train-sim", stage_train_sim),
    ("fit-posterior", stage_fit_posterior),
    ("train-target", stage_train_target),
    ("intervene", stage_intervene),
    ("evaluate", stage_evaluate),
)


def run_stage(name, cfg, out):
    """One stage by name; any error it raises comes out as a StageError."""
    try:
        return dict(PIPELINE_STAGES)[name](cfg, out)
    except Exception as exc:
        raise StageError(name, exc) from exc


def run_pipeline(cfg, out):
    """All stages in order; completed artifacts survive a failing stage.

    Returns the last stage's result. Earlier results are dropped as soon
    as their stage ends: the next stage reads them back from `out`.
    """
    os.makedirs(out, exist_ok=True)
    result = None
    for name, _ in PIPELINE_STAGES:
        if name == "synth-gen" and cfg["dataset.kind"] != "synthetic":
            continue
        if name == "intervene" and cfg["intervention.rounds"] == 0:
            continue
        result = None  # not held while the next stage runs
        result = run_stage(name, cfg, out)
    return result


# ---------------------------------------------------------------------------
# Command line


def _add_config_args(sub):
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    sub.add_argument("--out", help="run directory (defaults to out.dir)")


def _resolve(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    cfg = load_config(args.config, overrides)
    out = args.out or cfg["out.dir"]
    os.makedirs(out, exist_ok=True)
    return cfg, out


def _cmd_theory_check(args):
    stream = RandomStream(args.seed)
    if args.theorem == 1:
        n = theorylab.bound_theorem1(args.eta, args.delta)
        empirical = theorylab.simulate_voting(args.eta, n, args.trials, stream)
        exact = theorylab.exact_voting_failure(args.eta, n)
        rows = [
            ("bound N", n),
            ("empirical failure", f"{empirical:.5f}"),
            ("exact failure", f"{exact:.5f}"),
            ("delta", args.delta),
        ]
    else:
        n = theorylab.bound_theorem2(args.hypotheses, args.delta, args.eps, args.zeta)
        empirical = theorylab.simulate_noisy_erm(
            args.zeta, args.eps, args.delta, args.hypotheses, args.trials, stream
        )
        rows = [
            ("bound N", n),
            ("empirical failure", f"{empirical:.5f}"),
            ("delta", args.delta),
        ]
    if args.tsv:
        print("\n".join(f"{k}\t{v}" for k, v in rows))
    else:
        width = max(len(k) for k, _ in rows)
        print("\n".join(f"{k:<{width}}  {v}" for k, v in rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfrank",
        description="Counterfactual preference simulation for top-N ranking",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in (
        "synth-gen",
        "train-sim",
        "fit-posterior",
        "train-target",
        "intervene",
        "evaluate",
        "pipeline",
    ):
        sub = subparsers.add_parser(name, help=f"run the {name} stage")
        _add_config_args(sub)

    theory = subparsers.add_parser("theory-check", help="verify the sample bounds")
    theory.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    theory.add_argument("--eta", type=float, default=0.75, help="vote correctness")
    theory.add_argument("--delta", type=float, default=0.05)
    theory.add_argument("--eps", type=float, default=0.2)
    theory.add_argument("--zeta", type=float, default=0.25, help="simulator noise")
    theory.add_argument("--hypotheses", type=int, default=16)
    theory.add_argument("--trials", type=int, default=None)
    theory.add_argument("--seed", type=int, default=0)
    theory.add_argument("--tsv", action="store_true", help="machine-readable output")

    args = parser.parse_args(argv)
    try:
        if args.command == "theory-check":
            if args.trials is None:
                args.trials = 100_000 if args.theorem == 1 else 1000
            return _cmd_theory_check(args)
        cfg, out = _resolve(args)
        if args.command == "pipeline":
            run_pipeline(cfg, out)
        else:
            run_stage(args.command, cfg, out)
        return 0
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, (ConfigError,)):
            return 1
        if isinstance(cause, (TrainingError, FloatingPointError)):
            return 3
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
