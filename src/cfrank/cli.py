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

`run_pipeline` runs the stages in order and hands the target ranker
forward in memory: train-target's model goes to intervene, which
fine-tunes it instead of loading target.txt, and the fine-tuned model goes
to evaluate, which scores it instead of loading target_cpr.txt. Where a
second CPU is free, the stages also use it through forked child processes
whose values come back pickled through a pipe: synth-gen emits the second
half of the users' lists in a child while the main process emits the
first half; train-target reads only the dataset, so its fit runs in a
child started in train-sim's slot, beside train-sim and fit-posterior,
which sends the model to the train-target stage and then writes
target.txt beside intervene; intervene, after pretraining its policy,
generates the rounds' counterfactual batches in a child while the main
process fine-tunes on each batch as it arrives, and then leaves
target_cpr.txt to a child that writes it while evaluate scores the model.
Evaluate waits for both checkpoints before it writes the reports. Every
branch draws only from its own labelled substreams, so every artifact is
the same byte for byte either way. Forking needs Linux with `fork`, at
least two usable CPUs, single-threaded BLAS (`OPENBLAS_NUM_THREADS=1`, or
it unset and `OMP_NUM_THREADS=1`; the `cfrank` command sets the former by
default) and no other thread in the process; otherwise the work runs in
turn in the main process. Stages run by hand through their subcommands
fork in synth-gen and intervene alike and write every checkpoint in their
own slot; train-target forks only in the pipeline.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import inspect
import os
import pickle
import re
import sys

import numpy as np

from . import evalkit, intervention, rankers, simulator, synthgen, textio, theorylab
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
    """Draws the world and its log and writes world.txt and data.tsv.

    A forked child (`_beside`) emits the lists of the second half of the
    users while this process emits the first half; both halves draw from
    the users' own substreams, so the joined log is the same either way.
    """
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
    emit = functools.partial(
        synthgen.emit_dataset,
        world,
        cfg["synth.mode"],
        stream.substream("emit"),
        n_lists=cfg["synth.lists_per_user"],
        list_len=cfg["synth.list_len"],
    )
    half = world.n_users // 2
    with contextlib.closing(
        _beside("synth-gen", _one, emit, users=range(half, world.n_users))
    ) as rest:
        first = emit(users=range(half))
        (second,) = rest
    log = InteractionLog.concat([first, second])
    synthgen.save_world(world, _artifact(out, "world.txt"))
    save_native_log(log, _artifact(out, "data.tsv"))
    return log


def stage_train_sim(cfg, out, worker=None):
    """Fits the simulator and writes sim.txt; returns its parameters.

    `run_pipeline` may pass the `_TargetWorker` for train-target, which this
    stage starts first, so that its fork falls in this stage's slot."""
    if worker is not None:
        worker.start()
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


def _target_trainer(cfg):
    """The trainer for target.objective, once target.kind is known to exist."""
    kind = cfg["target.kind"]
    if kind not in rankers.ALL_KINDS:
        raise ConfigError(f"unknown target.kind {kind!r}")
    return _trainer(cfg["target.objective"])


def _fit_target(cfg, train):
    """The target ranker fitted on the split's training log."""
    train_fn = _target_trainer(cfg)
    stream = RandomStream(cfg["seed"]).substream("target")
    model = rankers.make_model(
        cfg["target.kind"], train.n_users, train.n_items, cfg["target.d"],
        stream.substream("init"),
    )
    if model.trainable:
        train_fn(
            model, rankers.TrainingData.from_log(train), _ranker_hyper(cfg),
            stream.substream("train"),
        )
    else:
        model.fit(train)
    return model


def stage_train_target(cfg, out, worker=None):
    """Fits the target ranker and writes target.txt; returns the model.

    `run_pipeline` may pass the `_TargetWorker` that train-sim started; if
    it did fork, the stage returns the model its child fitted, or raises
    what the fit raised, and the child goes on to write target.txt.
    """
    if worker is not None and worker.child is not None:
        return worker.model()
    log = _load_dataset(cfg, out)
    model = _fit_target(cfg, _split(cfg, log).train)
    rankers.save_model(model, _artifact(out, "target.txt"))
    return model


def _round_batches(cfg, policy, params, posterior, n_users, stream):
    """The counterfactual batch of each intervention round, in round order.

    A round's batch depends on the policy, the simulator and the posterior
    only: the target enters a round through its episode rewards, which the
    stage does not use, so no reward is scored.
    """
    for rnd in range(cfg["intervention.rounds"]):
        batch, _ = intervention.run_intervention_round(
            policy,
            params,
            posterior,
            None,
            range(n_users),
            actions_per_user=cfg["intervention.actions"],
            mode=cfg["target.objective"],
            k=cfg["intervention.k"],
            stream=stream.substream(f"round{rnd}"),
            explore_std=0.0,
            noise_control=cfg["intervention.noise_control"],
            round_tag=f"r{rnd}",
        )
        yield batch


def stage_intervene(cfg, out, target=None, writer=None):
    """Generate counterfactual batches and retrain the target model on them,
    mixed one-to-one with resampled observed positives per round; writes
    policy.txt, batches.tsv and target_cpr.txt and returns the model.

    After the policy is pretrained, a forked child (`_beside`) generates the
    rounds' batches in order while this process fine-tunes on each batch as
    it arrives; rounds score no reward, so they do not wait for the target.

    `run_pipeline` passes the model train-target returned as `target`,
    fine-tuned in place of loading target.txt, and the `_ForkedCheckpoint`
    of target_cpr.txt as `writer`, whose child saves the fine-tuned model
    while the next stage runs.
    """
    if cfg["intervention.rounds"] < 1:
        raise ConfigError("intervene needs intervention.rounds >= 1")
    actions = cfg["intervention.actions"]
    if actions < 0:
        raise ConfigError(f"intervention.actions={actions} must be >= 0")
    kind = cfg["target.kind"]
    mode = cfg["target.objective"]
    train_fn = _trainer(mode)
    log = _load_dataset(cfg, out)
    train = _split(cfg, log).train
    params = simulator.load_sim_params(_artifact(out, "sim.txt", must_exist=True))
    posterior = simulator.load_posterior(
        _artifact(out, "posterior.txt", must_exist=True)
    )
    if target is None:
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
    with contextlib.closing(
        _beside(
            "intervene", _round_batches, cfg, policy, params, posterior,
            train.n_users, stream,
        )
    ) as batches:
        for rnd, batch in enumerate(batches):
            all_batches.extend(batch)
            if len(batch) == 0:
                continue
            take = min(len(batch), n_pos)
            picked = stream.substream(f"mix{rnd}").choice(
                n_pos, size=take, replace=False
            )
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
    forked = writer is not None and writer.write_in_child(
        "target_cpr.txt", _one, rankers.save_model, target
    )
    all_batches.to_tsv(_artifact(out, "batches.tsv"))
    if forked:
        writer.keep = True
    else:
        rankers.save_model(target, _artifact(out, "target_cpr.txt"))
    return target


def stage_evaluate(cfg, out, cpr=None, target_write=None, cpr_write=None):
    """Scores the target model (target.txt) and, after intervene, the CPR
    model (target_cpr.txt); writes report.txt and report.tsv and returns
    the reports.

    `run_pipeline` passes the model intervene returned as `cpr`, scored in
    place of loading target_cpr.txt, and the `_ForkedCheckpoint`s of
    target.txt and target_cpr.txt: the stage finishes the first before it
    loads target.txt and the second before it writes the reports.
    """
    if target_write is not None:
        target_write.finish()
    log = _load_dataset(cfg, out)
    split = _split(cfg, log)
    stream = RandomStream(cfg["seed"]).substream("eval")
    policy = cfg["eval.candidates"]
    n = cfg["eval.n"]

    reports = {}
    coldness = {}
    models = [(_target_name(cfg), "target.txt", None)]
    # A run directory reused with rounds=0 may hold an older run's model.
    if cpr is not None or (
        cfg["intervention.rounds"] > 0 and os.path.exists(_artifact(out, "target_cpr.txt"))
    ):
        models.append((_cpr_name(cfg), "target_cpr.txt", cpr))
    buckets = None
    if cfg["eval.coldness"]:
        buckets = coldness_buckets(
            split.train, cfg["eval.cold_low"], cfg["eval.cold_high"]
        )
    # Every model gets a fresh stream with the same label, so under
    # sampled candidates all models rank against the same negatives.
    for name, artifact, model in models:
        if model is None:
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
    if len(models) == 2:
        baselines[models[1][0]] = models[0][0]

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
    if cpr_write is not None:
        cpr_write.finish()
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
_REAL_STAGES = PIPELINE_STAGES  # `run_pipeline` hands models on only through these


def run_stage(name, cfg, out, **kwargs):
    """One stage by name; any error it raises comes out as a StageError."""
    try:
        return dict(PIPELINE_STAGES)[name](cfg, out, **kwargs)
    except Exception as exc:
        raise StageError(name, exc) from exc


class _Forked:
    """An iterator over the values of `generate(*args, **kwargs)`, run in a
    forked child process.

    The child pickles each value it yields into a pipe, then an end mark;
    an exception its generator raises is sent in place of the mark and
    re-raised here by `__next__`, so it fails the reading stage as it would
    have in this process. The child leaves through `os._exit`, so it never
    returns into this process's stack. `close` closes the read end before
    it waits for the child: a child blocked on a full pipe then fails its
    write and ends. The child is never killed, and it is reaped once its end
    mark or exception is read, or by `close`.
    """

    def __init__(self, name, generate, *args, **kwargs):
        self.name = name
        read_fd, write_fd = os.pipe()
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # or the child would write the parent's buffer again
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _child_main(write_fd, generate, args, kwargs)
        os.close(write_fd)
        self._reader = os.fdopen(read_fd, "rb")
        self._code = None

    def __iter__(self):
        return self

    def __next__(self):
        if self._reader.closed:
            raise StopIteration
        try:
            kind, value = pickle.load(self._reader)
        except (EOFError, pickle.UnpicklingError):  # no message, or a cut one
            code = self.close()
            raise RuntimeError(
                f"the {self.name} worker ended without a result (exit code {code})"
            ) from None
        if kind == "value":
            return value
        self.close()
        if kind == "error":
            raise value
        raise StopIteration

    def close(self):
        """Closes the read end, waits for the child and returns its exit
        code. Later calls return the same code at once."""
        if not self._reader.closed:
            self._reader.close()
            _, status = os.waitpid(self.pid, 0)
            self._code = os.waitstatus_to_exitcode(status)
        return self._code


def _child_main(write_fd, generate, args, kwargs):
    code = 1
    try:
        with os.fdopen(write_fd, "wb") as fh:

            def send(kind, value):
                pickle.dump((kind, value), fh, pickle.HIGHEST_PROTOCOL)
                fh.flush()

            try:
                for value in generate(*args, **kwargs):
                    send("value", value)
                end = ("end", None)
            except Exception as exc:  # re-raised in the parent
                end = ("error", exc)
            send(*end)
        code = 0
    finally:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
        os._exit(code)


def _overlap_possible():
    """Whether a forked child can run beside the main process: Linux with
    fork, two usable CPUs, one BLAS thread per process, and no thread here
    that the fork would copy in the middle of its work."""
    if not sys.platform.startswith("linux") or not hasattr(os, "fork"):
        return False
    if len(os.sched_getaffinity(0)) < 2:
        return False
    blas = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return blas == "1" and len(os.listdir("/proc/self/task")) == 1


def _beside(name, generate, *args, **kwargs):
    """The values of `generate(*args, **kwargs)`: a `_Forked` child that
    computes them while this process goes on, where `_overlap_possible()`
    holds and the fork succeeds; otherwise the generator itself, which
    computes each value here when it is read. Either way, close it when
    done."""
    if _overlap_possible():
        try:
            return _Forked(name, generate, *args, **kwargs)
        except OSError:
            pass
    return generate(*args, **kwargs)


def _one(fn, *args, **kwargs):
    """A generator of the one value fn(*args, **kwargs), for `_beside`."""
    yield fn(*args, **kwargs)


def _remove_with_twin(path):
    """Removes the file at `path` and its binary twin, where they exist."""
    for suffix in ("", textio.TWIN_SUFFIX):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + suffix)


class _ForkedCheckpoint:
    """A checkpoint and its twin that a forked child writes under temporary
    names (`path + ".part"`), so that an unfinished write leaves nothing at
    `path`.

    `write_in_child` starts the child; `finish` waits for it, raises what
    it raised and moves its files into place. `keep` marks the checkpoint
    of a stage that completed: `close` then moves the files into place if
    the child wrote them, and otherwise removes them. Both are no-ops once
    no child is left, so every path through a pipeline can end in `close`.
    """

    def __init__(self, path):
        self.path = path
        self.part = path + ".part"
        self.child = None
        self.keep = False

    def write_in_child(self, name, generate, *args):
        """Runs generate(*args, temporary path) in a `_Forked` child where
        `_overlap_possible()` holds and the fork succeeds; returns whether
        it did."""
        if _overlap_possible():
            with contextlib.suppress(OSError):
                self.child = _Forked(name, generate, *args, self.part)
        return self.child is not None

    def finish(self):
        child, self.child = self.child, None
        if child is None:
            return
        try:
            for _ in child:
                pass
            for suffix in ("", textio.TWIN_SUFFIX):
                os.replace(self.part + suffix, self.path + suffix)
        finally:
            child.close()
            _remove_with_twin(self.part)

    def close(self):
        """Waits for the child. Never raises: a pipeline that has not
        finished the checkpoint is failing already."""
        if self.keep:
            with contextlib.suppress(Exception):
                self.finish()
        elif self.child is not None:
            self.child.close()  # a child blocked on the pipe fails and ends
            self.child = None
            _remove_with_twin(self.part)


class _TargetWorker(_ForkedCheckpoint):
    """train-target's fit and save in a forked child, beside train-sim and
    fit-posterior.

    `run_pipeline` makes one and passes it to three stages: train-sim
    `start`s it; train-target takes the fitted `model`, which the child
    sends as soon as its fit ends, before it writes target.txt and its twin
    under a temporary name; evaluate `finish`es it before loading
    target.txt. So a run that fails before train-target ends leaves no
    target.txt, as when the stages run one after another, and one that
    fails later keeps it.
    """

    def __init__(self, cfg, out):
        super().__init__(_artifact(out, "target.txt"))
        self.cfg = cfg
        self.out = out

    def start(self):
        """Forks the child where `_overlap_possible()` holds. A bad
        train-target config or dataset, or a failed fork, starts nothing:
        train-target then runs in its own slot and fails there. The dataset
        is loaded and split here, so this process still makes one load per
        stage that reads it."""
        if not _overlap_possible():
            return
        try:
            _target_trainer(self.cfg)
            train = _split(self.cfg, _load_dataset(self.cfg, self.out)).train
        except Exception:  # train-target then runs in its slot
            return
        self.write_in_child("train-target", self._fit, train)

    def _fit(self, train, part):
        model = _fit_target(self.cfg, train)
        yield rankers.model_state(model)
        rankers.save_model(model, part)

    def model(self):
        """The child's fitted model, rebuilt from its state; raises what the
        fit raised."""
        model = rankers.model_from_state(*next(self.child))
        self.keep = True
        return model


def run_pipeline(cfg, out):
    """All stages in order; completed artifacts survive a failing stage.

    Returns the last stage's result. Earlier results are dropped as soon
    as their stage ends, except that the two ranker models go forward in
    memory when the stage table holds the real stages (seen through
    wrappers): train-target's model is handed to intervene, which
    fine-tunes it in place of loading target.txt, and intervene's to
    evaluate, which scores it in place of loading target_cpr.txt. Each is
    released when the stage it was handed to ends.

    Where `_overlap_possible()` holds, synth-gen and intervene fork a child
    process (`_Forked`) on their own, also when run by hand. With the real
    stages, this function also hands train-sim, train-target and evaluate
    a `_TargetWorker`, so that train-target's fit runs beside train-sim and
    fit-posterior and its target.txt is written beside intervene, and hands
    intervene and evaluate a `_ForkedCheckpoint`, in whose child
    target_cpr.txt is written while evaluate scores the model; evaluate
    finishes both before it writes the reports. Otherwise every checkpoint
    is written in its own stage. Every stage of the table is called once,
    in order, in this process, and every fork falls inside a stage's call.
    Each child is waited for, never killed, before its stage (or, for the
    two checkpoints, evaluate or this function) returns or raises.

    Skipping intervene (rounds=0) removes what an older run's intervene
    left in `out`, so the directory ends as a fresh run's would.
    """
    os.makedirs(out, exist_ok=True)
    handoff = tuple((n, inspect.unwrap(fn)) for n, fn in PIPELINE_STAGES) == _REAL_STAGES
    worker = _TargetWorker(cfg, out) if handoff else None
    writer = _ForkedCheckpoint(_artifact(out, "target_cpr.txt")) if handoff else None
    result = None
    try:
        for name, _ in PIPELINE_STAGES:
            if name == "synth-gen" and cfg["dataset.kind"] != "synthetic":
                continue
            if name == "intervene" and cfg["intervention.rounds"] == 0:
                result = None  # no stage takes the target model
                for artifact in ("policy.txt", "batches.tsv", "target_cpr.txt"):
                    _remove_with_twin(_artifact(out, artifact))
                continue
            handed = {}
            if handoff:
                handed = {
                    "train-sim": {"worker": worker},
                    "train-target": {"worker": worker},
                    "intervene": {"target": result, "writer": writer},
                    "evaluate": {
                        "cpr": result,
                        "target_write": worker,
                        "cpr_write": writer,
                    },
                }.get(name, {})
            result = None  # not held while the next stage runs, unless handed
            result = run_stage(name, cfg, out, **handed)
            handed = None
        return result
    finally:
        for checkpoint in (worker, writer):
            if checkpoint is not None:
                checkpoint.close()


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
