"""Output checks, digests and simulator fidelity for one finished pipeline.

These run in the benchmark's own process after timing ends, reading the run
directory through cfrank's public loaders.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from cfrank import intervention, rankers, simulator, synthgen
from cfrank.cli import load_config
from cfrank.corpus import leave_one_out_split, load_mind_behaviors, load_native_log
from cfrank.mathcore import RandomStream

CHECKPOINTS = {
    "sim.txt": simulator.load_sim_params,
    "posterior.txt": simulator.load_posterior,
    "policy.txt": intervention.load_policy,
    "target.txt": rankers.load_model,
    "target_cpr.txt": rankers.load_model,
}
DIGESTED = ("report.tsv", "batches.tsv")
# cf_label_acc scores a fixed random subset of at most this many rows: each
# user_feedback call scores the user against the whole catalog.
LABEL_ROWS = 1000


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_report(path) -> dict:
    """model -> (hr, ndcg, users) from report.tsv."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:4] != ["model", "hr@10", "ndcg@10", "users"]:
            raise ValueError(f"unexpected report header {header}")
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "model":  # header of a coldness table
                continue
            rows[fields[0]] = (float(fields[1]), float(fields[2]), int(fields[3]))
    return rows


def _arrays(obj):
    if isinstance(obj, rankers.RankingModel):
        return list(obj.params().values())
    return [v for v in vars(obj).values() if isinstance(v, np.ndarray)]


def check_run(out, settings: dict) -> tuple[dict, int, list]:
    """Checks one run directory; returns (quality, checks made, failures).

    quality maps hr10_target, ndcg10_target, hr10_cpr and ndcg10_cpr to their
    values; each entry of failures names one check that did not pass.
    """
    cfg = load_config(overrides={k: str(v) for k, v in settings.items()})
    # report parses; per model: row present in range, test-user count; checkpoints
    checks = 1 + 2 * 2 + len(CHECKPOINTS)
    failures = []
    quality = {}
    target = cfg["target.kind"]
    cpr = f"cpr-{target}"
    try:
        report = read_report(os.path.join(out, "report.tsv"))
    except (OSError, ValueError, IndexError) as exc:
        return quality, checks, [f"report.tsv does not parse: {exc}"]
    for tag, model in (("target", target), ("cpr", cpr)):
        if model not in report:
            failures.append(f"report.tsv has no {model} row")
            continue
        hr, ndcg, users = report[model]
        if not (0.0 <= hr <= 1.0 and 0.0 <= ndcg <= 1.0):
            failures.append(f"{model}: HR {hr} or NDCG {ndcg} outside [0, 1]")
        quality[f"hr10_{tag}"] = hr
        quality[f"ndcg10_{tag}"] = ndcg

    if cfg["dataset.kind"] == "behaviors":
        log = load_mind_behaviors(cfg["dataset.path"], cfg["dataset.max_users"] or None)
    else:
        log = load_native_log(os.path.join(out, "data.tsv"))
    split = leave_one_out_split(log, RandomStream(cfg["seed"]).substream("split"))
    for model in (target, cpr):
        if model in report and report[model][2] != len(split.test):
            failures.append(
                f"{model}: {report[model][2]} test users, split gives {len(split.test)}"
            )

    for name, loader in CHECKPOINTS.items():
        try:
            loaded = loader(os.path.join(out, name))
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{name} does not load: {exc}")
            continue
        if not all(np.all(np.isfinite(a)) for a in _arrays(loaded)):
            failures.append(f"{name} holds non-finite values")
    return quality, checks, failures


def cf_label_acc(out, settings: dict) -> float:
    """Share of counterfactual labels in batches.tsv that the true world agrees with.

    Pointwise: the label equals the world's feedback. Pairwise: among triplets
    whose two items get different feedback, the positive item is the liked one.
    A batch of more than LABEL_ROWS rows is scored on LABEL_ROWS of them, drawn
    by a generator of the benchmark's own with a fixed seed.
    """
    cfg = load_config(overrides={k: str(v) for k, v in settings.items()})
    world = synthgen.load_world(os.path.join(out, "world.txt"))
    batch = intervention.CounterfactualBatch.from_tsv(os.path.join(out, "batches.tsv"))
    mode = cfg["synth.mode"]
    feedback: dict = {}

    def liked(u, j):
        key = (u, j)
        if key not in feedback:
            feedback[key] = synthgen.user_feedback(world, u, j, mode)
        return feedback[key]

    rows = batch.points if batch.mode == "pointwise" else batch.triplets
    if len(rows) > LABEL_ROWS:
        picked = np.random.default_rng(0).choice(len(rows), LABEL_ROWS, replace=False)
        rows = [rows[i] for i in np.sort(picked)]
    agree = total = 0
    if batch.mode == "pointwise":
        for u, j, label in rows:
            total += 1
            agree += liked(u, j) == label
    else:
        for u, i, j in rows:
            pos, neg = liked(u, i), liked(u, j)
            if pos != neg:
                total += 1
                agree += pos == 1
    return agree / total if total else float("nan")
