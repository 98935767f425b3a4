"""Experiment driver: a flat key=value config, one subcommand per pipeline
stage, and an end-to-end pipeline that composes them.

Every stage reads its inputs from the run directory (or the configured
dataset path), derives all randomness from labeled substreams of the config
seed, and writes plain-text artifacts, so composing stages by hand produces
byte-identical results to the one-shot pipeline.

`run_pipeline` hands every stage one run record (`_Run`), which carries
forward in memory each checkpoint a later stage reads: the simulator, the
posterior and both target models. Where a second CPU is free, forked
children also use it and send their values back pickled through a pipe:
synth-gen emits half the users' lists in a child; train-target's fit runs
in a child started in train-sim's slot, which sends the model to
train-target, writes target.txt and sends the model again for evaluate;
intervene generates each round's counterfactual batch in a child while
this process fine-tunes on the last, and leaves target_cpr.txt to a child
that writes it while evaluate scores the model. Every branch draws only
from its own labelled substreams, so every artifact is the same byte for
byte either way. Forking needs Linux with `fork`, at least two usable
CPUs, single-threaded BLAS (`OPENBLAS_NUM_THREADS=1`, or it unset and
`OMP_NUM_THREADS=1`; the `cfrank` command sets the former by default) and
no other thread in the process; otherwise the work runs in turn in this
process, and evaluate reads target.txt. A stage run by hand hands nothing
on and forks no checkpoint child: it loads every checkpoint it reads.

`main` first fixes glibc's malloc thresholds for its process, which forked
children inherit: mmap at 32 MiB, trim at 64 MiB (`mallopt`). Left to
glibc's own rule, the blocks a training step frees go back to the system
and the next step faults them in again: a bpr-mf step at mind-sample sizes
(293 x 719 items, d = 64, 512 rows) took 555 minor page faults, and none
with the thresholds fixed. The heap then never shrinks by itself, so
`run_pipeline` returns the heap's free pages after each stage
(`malloc_trim`).
Importing this module sets nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import os
import pickle
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


def _cpr_name(cfg):
    suffix = "-r" if cfg["intervention.mode"] == "random" else ""
    return f"cpr-{cfg['target.kind']}{suffix}"


# ---------------------------------------------------------------------------
# Stages


def stage_synth_gen(cfg, out, run=None):
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


def stage_train_sim(cfg, out, run=None):
    """Fits and writes sim.txt; returns it and hands it on in `run`.

    In a pipeline it first forks train-target's fit (`_fork_fit`), so that
    the fork falls in this stage's slot."""
    run = run or _Run(cfg, out)
    _fork_fit(run)
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
    run.models["sim.txt"] = params
    return params


def stage_fit_posterior(cfg, out, run=None):
    """Fits and writes posterior.txt; hands it and the simulator on in `run`."""
    run = run or _Run(cfg, out)
    log = _load_dataset(cfg, out)
    train = _split(cfg, log).train
    params = run.take("sim.txt", simulator.load_sim_params)
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
    run.models.update({"sim.txt": params, "posterior.txt": posterior})
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


def _fork_fit(run):
    """Forks train-target's fit and save (`_fit_and_save`) into a pipeline's
    `run` where `_overlap_possible()` holds. A bad train-target config or
    dataset, or a failed fork, starts nothing: train-target then runs in its
    own slot and fails there. The dataset is loaded and split here, so this
    process still makes one load per stage that reads it."""
    if not (run.pipeline and _overlap_possible()):
        return
    try:
        _target_trainer(run.cfg)
        train = _split(run.cfg, _load_dataset(run.cfg, run.out)).train
    except Exception:  # train-target then runs in its slot
        return
    run.start_child(
        "train-target", "target.txt", "train-target", _fit_and_save, run.cfg, train
    )


def _fit_and_save(cfg, train, path):
    """The fitted model's state, sent before the model is saved at `path`
    and again after it, for evaluate."""
    model = _fit_target(cfg, train)
    state = rankers.model_state(model)
    yield state
    rankers.save_model(model, path)
    yield state


def stage_train_target(cfg, out, run=None):
    """Fits the target ranker and writes target.txt; returns the model and
    hands it on in `run`. If train-sim forked the fit, the model comes from
    the child, or what the fit raised is raised, and the child goes on to
    write target.txt."""
    run = run or _Run(cfg, out)
    if "target.txt" in run.children:
        model = rankers.model_from_state(*next(run.children["target.txt"][1]))
    else:
        log = _load_dataset(cfg, out)
        model = _fit_target(cfg, _split(cfg, log).train)
        rankers.save_model(model, _artifact(out, "target.txt"))
    run.models["target.txt"] = model
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


def stage_intervene(cfg, out, run=None):
    """Generate counterfactual batches and retrain the target model on them,
    mixed one-to-one with resampled observed positives per round; writes
    policy.txt, batches.tsv and target_cpr.txt and returns the model.

    After the policy is pretrained, a forked child (`_beside`) generates the
    rounds' batches in order while this process fine-tunes on each batch as
    it arrives; rounds score no reward, so they do not wait for the target.

    It takes the simulator, posterior and model handed on in `run`,
    loading each one that is not there, and hands the fine-tuned model on
    to evaluate. In a pipeline, a child forked into `run` writes
    target_cpr.txt while the next stage runs.
    """
    run = run or _Run(cfg, out)
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
    params = run.take("sim.txt", simulator.load_sim_params)
    posterior = run.take("posterior.txt", simulator.load_posterior)
    target = run.take("target.txt", rankers.load_model)
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
    forked = run.start_child(
        "target_cpr.txt", "target_cpr.txt", "intervene", _one, rankers.save_model, target
    )
    all_batches.to_tsv(_artifact(out, "batches.tsv"))
    if not forked:
        rankers.save_model(target, _artifact(out, "target_cpr.txt"))
    run.models["target_cpr.txt"] = target
    return target


def stage_evaluate(cfg, out, run=None):
    """Scores the target model (target.txt) and, after intervene, the CPR
    model (target_cpr.txt); writes report.txt and report.tsv and returns
    the reports.

    It scores the models handed on in `run`, loading each one that is not
    there, and finishes the child writing target_cpr.txt before it writes
    the reports. report.txt records the BLAS thread settings, on which the
    simulator and policy bytes depend.
    """
    run = run or _Run(cfg, out)
    log = _load_dataset(cfg, out)
    split = _split(cfg, log)
    stream = RandomStream(cfg["seed"]).substream("eval")
    policy = cfg["eval.candidates"]
    n = cfg["eval.n"]

    reports = {}
    coldness = {}
    models = [(cfg["target.kind"], "target.txt")]
    # A run directory reused with rounds=0 may hold an older run's model.
    if "target_cpr.txt" in run.models or (
        cfg["intervention.rounds"] > 0 and os.path.exists(_artifact(out, "target_cpr.txt"))
    ):
        models.append((_cpr_name(cfg), "target_cpr.txt"))
    buckets = None
    if cfg["eval.coldness"]:
        buckets = coldness_buckets(
            split.train, cfg["eval.cold_low"], cfg["eval.cold_high"]
        )
    # Every model gets a fresh stream with the same label, so under
    # sampled candidates all models rank against the same negatives.
    for name, artifact in models:
        model = run.take(artifact, rankers.load_model)
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
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    blas = ", ".join(f"{v}={os.environ.get(v, 'unset')}" for v in blas_vars)
    header.append(f"# blas threads: {blas}")
    body = [evalkit.comparison_table(reports, baselines)]
    tsv = [evalkit.comparison_tsv(reports, baselines)]
    for name, per_bucket in coldness.items():
        body.append(f"\ncoldness buckets for {name}")
        body.append(evalkit.comparison_table(per_bucket))
        rows = {f"{name}@{bucket}": rep for bucket, rep in per_bucket.items()}
        tsv.append(evalkit.comparison_tsv(rows))
    report_text = "\n".join(header) + "\n\n" + "\n".join(body) + "\n"
    run.finish("target_cpr.txt")
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


def run_stage(name, cfg, out, run=None):
    """One stage by name; any error it raises comes out as a StageError."""
    try:
        return dict(PIPELINE_STAGES)[name](cfg, out, run=run)
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


def _remove(path):
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


class _Run:
    """What one pipeline run hands from stage to stage.

    `models` holds, by checkpoint name, what a stage made until a later
    stage takes it. `children` holds, by checkpoint name, the forked
    children that write a checkpoint under `path + ".part"`, so that an
    unfinished write leaves nothing at `path`, each with the stage that
    owns it: train-target for its fit, intervene for the target_cpr.txt
    writer. A child's file is kept only if its owner is in `completed`,
    which `run_pipeline` fills. A stage run by hand makes its own record
    (`pipeline=False`), which forks nothing.
    """

    def __init__(self, cfg, out, pipeline=False):
        self.cfg, self.out, self.pipeline = cfg, out, pipeline
        self.models = {}
        self.children = {}  # checkpoint name -> (owning stage, _Forked)
        self.completed = set()

    def start_child(self, label, name, owner, generate, *args):
        """Runs generate(*args, temporary path of checkpoint `name`) in a
        `_Forked` child named `label` and owned by stage `owner`, where this
        is a pipeline's record, `_overlap_possible()` holds and the fork
        succeeds; returns whether it did."""
        if self.pipeline and _overlap_possible():
            with contextlib.suppress(OSError):
                part = _artifact(self.out, name + ".part")
                self.children[name] = (owner, _Forked(label, generate, *args, part))
        return name in self.children

    def take(self, name, load):
        """What was handed on for checkpoint `name`, which the record then
        drops; else the model rebuilt from the state its child sent last
        (`_fit_and_save`); else load(path) once its child finished."""
        if name in self.models:
            return self.models.pop(name)
        state = self.finish(name)
        if state is not None:
            return rankers.model_from_state(*state)
        return load(_artifact(self.out, name, must_exist=True))

    def finish(self, name):
        """Waits for the child writing checkpoint `name`, if one is left.
        If its owner completed, reads it to the end, raises what it raised,
        moves its file into place and returns the last value it sent;
        otherwise closes the pipe first, so a child blocked on it fails and
        ends. No temporary file is left."""
        owner, child = self.children.pop(name, (None, None))
        if child is None:
            return None
        part = _artifact(self.out, name + ".part")
        sent = None
        try:
            if owner in self.completed:
                for sent in child:
                    pass
                os.replace(part, _artifact(self.out, name))
        finally:
            child.close()
            _remove(part)
        return sent

    def close(self):
        """Finishes every child left. Never raises: a pipeline that has not
        finished a checkpoint is failing already."""
        for name in list(self.children):
            with contextlib.suppress(Exception):
                self.finish(name)


def run_pipeline(cfg, out):
    """All stages in order; completed artifacts survive a failing stage.

    Returns the last stage's result. Earlier results are dropped as soon
    as their stage ends. Every stage is handed one `_Run`, which carries
    what each stage makes to the stages that take it, each until the last
    of them ends, and the children that write target.txt and target_cpr.txt.
    Every stage of the table is called once, in order, in this process,
    and every fork falls inside a stage's call.
    Each child is waited for, never killed, before its stage, evaluate or
    this function returns or raises; this function records each stage that
    completes, and a checkpoint child's file is kept only if the stage that
    owns it completed.

    Skipping intervene (rounds=0) drops what was handed to it and removes
    what an older run's intervene left in `out`, so the directory ends as a
    fresh run's would. After each stage the heap's free pages go back to
    the system, so one stage's temporaries do not stay resident through
    the next (`_release_free_heap`).
    """
    os.makedirs(out, exist_ok=True)
    run = _Run(cfg, out, pipeline=True)
    result = None
    try:
        for name, _ in PIPELINE_STAGES:
            if name == "synth-gen" and cfg["dataset.kind"] != "synthetic":
                continue
            if name == "intervene" and cfg["intervention.rounds"] == 0:
                run.models.clear()  # no later stage takes them
                for artifact in ("policy.txt", "batches.tsv", "target_cpr.txt"):
                    _remove(_artifact(out, artifact))
                continue
            result = None  # not held while the next stage runs
            result = run_stage(name, cfg, out, run=run)
            run.completed.add(name)
            _release_free_heap()
        return result
    finally:
        run.close()


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
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"run directory {out!r}: {exc.strerror}") from None
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


# glibc's mallopt(3) parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _pin_malloc_thresholds():
    """Fix glibc's mmap threshold at 32 MiB and its trim threshold at 64 MiB.

    By default glibc raises the mmap threshold to the largest block freed
    so far and trims the heap top past twice that, so a training step's
    temporaries and gradient tables are unmapped or trimmed when freed and
    faulted in again by the next step. These values are the ceilings its
    own rule drifts towards on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX, trim at
    twice that); fixing them keeps freed blocks on the heap for the next
    step. Where the C library has no `mallopt`, this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, 32 << 20)
    mallopt(M_TRIM_THRESHOLD, 64 << 20)


def _release_free_heap():
    """Return the heap's free pages to the system (glibc's `malloc_trim`).

    With the trim threshold fixed the heap never shrinks by itself, so the
    blocks one stage's temporaries freed would stay resident through every
    later stage: on mind-sample, train-sim's 13 MB negative gathers did.
    `run_pipeline` calls this after each stage, where the working set
    changes. Where the C library has no `malloc_trim`, this does nothing.
    """
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    malloc_trim.argtypes = (ctypes.c_size_t,)
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def main(argv=None) -> int:
    _pin_malloc_thresholds()
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
            try:
                return _cmd_theory_check(args)
            except ValueError as exc:  # theorylab's argument checks
                raise ConfigError(str(exc)) from None
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
