"""Learning-based intervention on recommendation lists.

A small Gaussian policy proposes a continuous item center per user; the K
catalog items scoring highest against that center form the intervened list,
the simulator labels it, and the resulting samples (optionally filtered to
the most- and least-confident slots) are scored by the target model's loss,
which REINFORCE then pushes the policy to increase. Both rankings here, the
catalog items against a center and the slots of a labeled list, are
`mathcore.top_k`, so ties break toward the lower id or slot.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import mathcore, textio
from .mathcore import RandomStream, softmax, top_k
from .rankers import loss_pairwise, loss_pointwise
from .simulator import SimParams, VariationalPosterior

LOG_2PI = math.log(2.0 * math.pi)
SAMPLE_MODES = ("pairwise", "pointwise")
# Entries of the (episodes x n_items) noise and score matrices per block:
# run_intervention_round handles BLOCK_ENTRIES // n_items episodes at a
# time, so its memory does not grow with the number of episodes.
BLOCK_ENTRIES = mathcore.BLOCK_ENTRIES


class GaussianPolicy:
    """Two-layer rectifier network emitting a Gaussian action distribution.

    The network maps a user embedding to the action mean; the log-std vector
    is a free, state-independent parameter.
    """

    def __init__(self, d: int, hidden: int, stream: RandomStream):
        if hidden <= 0:
            raise ValueError("hidden width must be positive")
        self.d = d
        self.hidden = hidden
        self.W1 = stream.normal((hidden, d)) * np.sqrt(2.0 / d)
        self.b1 = np.full(hidden, 0.01)  # off the rectifier kink at init
        self.W2 = stream.normal((d, hidden)) * np.sqrt(2.0 / hidden)
        self.b2 = np.zeros(d)
        self.log_std = np.full(d, math.log(0.5))

    def params(self) -> dict:
        return {
            "W1": self.W1,
            "b1": self.b1,
            "W2": self.W2,
            "b2": self.b2,
            "log_std": self.log_std,
        }

    def set_params(self, values: dict) -> None:
        for name, arr in values.items():
            setattr(self, name, np.asarray(arr, dtype=np.float64))

    def _forward(self, x):
        """Pre-activation, hidden layer and mean for x of shape (d,) or (n, d)."""
        pre = np.asarray(x, dtype=np.float64) @ self.W1.T + self.b1
        h = np.maximum(pre, 0.0)
        return pre, h, h @ self.W2.T + self.b2

    def mean(self, x) -> np.ndarray:
        return self._forward(x)[2]

    def _log_density(self, z):
        """log N(action) from standardized residuals z = (action - mean) / std."""
        quad = np.sum(z**2, axis=-1)
        return -0.5 * quad - np.sum(self.log_std) - 0.5 * self.d * LOG_2PI

    def log_prob(self, x, action) -> float:
        z = (np.asarray(action) - self.mean(x)) / np.exp(self.log_std)
        return float(self._log_density(z))


@dataclass
class Episode:
    """One intervention: the action taken, the realized list, and its reward."""

    user: int
    user_embed: np.ndarray
    action: np.ndarray  # the policy's own draw, before exploration noise
    tau: np.ndarray  # action + exploration noise; the center actually used
    logprob: float  # density of `action` under the policy
    items: list
    selected: list
    reward: float
    episode_id: str = ""


@dataclass
class CounterfactualBatch:
    """Synthesized training samples with per-sample confidence and provenance."""

    mode: str
    triplets: list = field(default_factory=list)  # (user, pos_item, neg_item)
    points: list = field(default_factory=list)  # (user, item, label)
    confidences: list = field(default_factory=list)
    provenance: list = field(default_factory=list)

    def __len__(self):
        return len(self.triplets) if self.mode == "pairwise" else len(self.points)

    def extend(self, other: "CounterfactualBatch") -> None:
        if other.mode != self.mode:
            raise ValueError("cannot merge batches of different modes")
        self.triplets.extend(other.triplets)
        self.points.extend(other.points)
        self.confidences.extend(other.confidences)
        self.provenance.extend(other.provenance)

    def rows(self) -> np.ndarray:
        data = self.triplets if self.mode == "pairwise" else self.points
        return (
            np.asarray(data, dtype=np.int64).reshape(-1, 3)
            if data
            else np.zeros((0, 3), dtype=np.int64)
        )

    def to_tsv(self, path) -> None:
        header = (
            "user\tpos_item\tneg_item\tconfidence\tprovenance"
            if self.mode == "pairwise"
            else "user\titem\tlabel\tconfidence\tprovenance"
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#mode {self.mode}\n{header}\n")
            rows = self.triplets if self.mode == "pairwise" else self.points
            for row, conf, src in zip(rows, self.confidences, self.provenance):
                fields = "\t".join(str(x) for x in row)
                fh.write(f"{fields}\t{conf:.6f}\t{src}\n")

    @classmethod
    def from_tsv(cls, path) -> "CounterfactualBatch":
        """Reads what `to_tsv` writes; a malformed line raises ValueError
        naming `path:lineno`."""
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        first = lines[0] if lines else ""
        mode = first.removeprefix("#mode ")
        if mode == first or mode not in SAMPLE_MODES:
            raise ValueError(
                f"{path}:1: expected '#mode pairwise' or '#mode pointwise', "
                f"got {first!r}"
            )
        batch = cls(mode=mode)
        rows = batch.triplets if mode == "pairwise" else batch.points
        for lineno, line in enumerate(lines[2:], start=3):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ValueError(f"{path}:{lineno}: {len(fields)} fields in a row of 5")
            try:
                row = tuple(int(x) for x in fields[:3])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: ids must be integers, got {fields[:3]}"
                ) from None
            try:
                conf = float(fields[3])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: confidence must be a number, got {fields[3]!r}"
                ) from None
            rows.append(row)
            batch.confidences.append(conf)
            batch.provenance.append(fields[4])
        return batch


def realize_list(params: SimParams, tau, alpha, list_len: int):
    """The `list_len` items scoring highest against the center tau.

    Scores are tau . Q_k + w_r[k] * alpha[k]; ties break toward the lower
    item id. One center (tau of shape (d,), alpha of shape (n_items,))
    gives one list of ids; a block of centers (taus (b, d), alphas
    (b, n_items)) gives a (b, list_len) id array from one matmul and one
    row partition. The single list is the same kernel on one row.
    """
    if not 1 <= list_len <= params.n_items:
        raise ValueError(
            f"list length {list_len} outside [1, {params.n_items}] (item count)"
        )
    tau = np.asarray(tau, dtype=np.float64)
    scores = np.atleast_2d(tau) @ params.Q.T + params.w_r * np.asarray(alpha)
    if not np.all(np.isfinite(scores)):
        raise ValueError("list scores must be finite")
    items = top_k(scores, list_len)
    return items[0].tolist() if tau.ndim == 1 else items


def _take(values, index):
    """Row-wise gather: values[r, index[r, j]]."""
    return np.take_along_axis(values, index, axis=1)


def random_list(n_items: int, list_len: int, stream: RandomStream) -> list:
    """Uniform list of distinct items (the random-intervention ablation)."""
    if list_len > n_items:
        raise ValueError("list length exceeds item count")
    return [int(i) for i in stream.choice(n_items, size=list_len, replace=False)]


def _block_samples(users, items, probs, order, mode, k, noise_control):
    """Sample rows (b, r, 3) and confidences (b, r) for a block of lists.

    `order` ranks each row's slots (`top_k` of all K). With noise control
    the k top-ranked slots are the selected side and the k bottom-ranked ones
    the rejected side; without it the k top-ranked slots (the simulator's
    selected set) face all other slots, both sides in slot order. Every row
    yields the same r, so rows are built by index arithmetic, in the order
    a per-list loop emits them: pairs with the selected side outer, points
    with the selected side first.
    """
    n_slots = items.shape[1]
    if noise_control:
        top, bottom = order[:, :k], order[:, n_slots - k :]
    else:
        top, bottom = np.sort(order[:, :k], axis=1), np.sort(order[:, k:], axis=1)
    if mode == "pairwise":
        p, q = np.divmod(np.arange(top.shape[1] * bottom.shape[1]), bottom.shape[1])
        if noise_control:
            # with 2k > K the middle slots rank in both halves: no self-pairs
            keep = p != q + (n_slots - k)
            p, q = p[keep], q[keep]
        slots, other = top[:, p], bottom[:, q]
        conf = _take(probs, slots) - _take(probs, other)
        last = _take(items, other)
    else:
        slots = np.concatenate([top, bottom], axis=1)
        labels = (np.arange(slots.shape[1]) < k).astype(np.int64)
        last = np.broadcast_to(labels, slots.shape)
        p = _take(probs, slots)
        conf = np.where(last == 1, p, 1.0 - p)
    user = np.broadcast_to(np.asarray(users, dtype=np.int64)[:, None], slots.shape)
    return np.stack([user, _take(items, slots), last], axis=-1), conf


def _batch_from_block(mode, rows, conf, tags) -> CounterfactualBatch:
    """A CounterfactualBatch of (b, r, 3) rows, one provenance tag per list."""
    batch = CounterfactualBatch(mode=mode)
    data = list(map(tuple, rows.reshape(-1, 3).tolist()))
    if mode == "pairwise":
        batch.triplets = data
    else:
        batch.points = data
    batch.confidences = conf.ravel().tolist()
    batch.provenance = [tag for tag in tags for _ in range(rows.shape[1])]
    return batch


# ---------------------------------------------------------------------------
# REINFORCE


def surrogate_loss_grads(policy: GaussianPolicy, episodes, baseline: float):
    """Value and gradients of sum_t (reward_t - baseline) * logprob_t.

    Episodes are stacked as rows, so each sum over episodes is a matmul or
    a column sum.
    """
    d = policy.d
    x = np.array([ep.user_embed for ep in episodes], dtype=np.float64).reshape(-1, d)
    a = np.array([ep.action for ep in episodes], dtype=np.float64).reshape(-1, d)
    weight = np.array([ep.reward for ep in episodes], dtype=np.float64) - baseline
    pre, h, mu = policy._forward(x)
    std = np.exp(policy.log_std)
    z = (a - mu) / std
    value = float(weight @ policy._log_density(z))
    # d logprob / d mu = (a - mu) / std^2, then back through the network
    dmu = weight[:, None] * ((a - mu) / std**2)
    dpre = (dmu @ policy.W2) * (pre > 0)
    grads = {
        "W1": dpre.T @ x,
        "b1": dpre.sum(axis=0),
        "W2": dmu.T @ h,
        "b2": dmu.sum(axis=0),
        # d logprob / d log_std = ((a - mu)/std)^2 - 1
        "log_std": weight @ (z**2 - 1.0),
    }
    return value, grads


def reinforce_update(policy: GaussianPolicy, episodes, lr: float) -> GaussianPolicy:
    """One ascent step on the baseline-subtracted policy-gradient surrogate,
    added to the policy's arrays in place.

    The baseline is the mean episode reward; equal rewards therefore produce
    an exactly zero update. A non-finite gradient skips the update with a
    warning instead of corrupting the policy.
    """
    episodes = list(episodes)
    if not episodes:
        raise ValueError("reinforce_update needs at least one episode")
    rewards = np.array([ep.reward for ep in episodes], dtype=np.float64)
    if not np.all(np.isfinite(rewards)):
        raise ValueError("episode rewards must be finite")
    baseline = float(rewards.mean())
    _, grads = surrogate_loss_grads(policy, episodes, baseline)
    if not all(np.all(np.isfinite(g)) for g in grads.values()):
        warnings.warn("non-finite policy gradient; update skipped", stacklevel=2)
        return policy
    for k, v in policy.params().items():
        v += lr * grads[k]
    return policy


# ---------------------------------------------------------------------------
# Episode generation


def _check_round(params, users, actions_per_user, mode, k):
    """Reject bad round arguments before anything is drawn; returns the
    users as an int array."""
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown sample mode {mode!r}")
    if actions_per_user < 0:
        raise ValueError(f"actions_per_user={actions_per_user} must be >= 0")
    list_len, n_items = params.list_len, params.n_items
    if list_len > n_items:
        raise ValueError(f"list_len={list_len} exceeds n_items={n_items}")
    if not 1 <= k < list_len:
        raise ValueError(f"k={k} outside [1, {list_len}) for lists of {list_len}")
    users = np.fromiter(users, dtype=np.int64)
    outside = users[(users < 0) | (users >= params.n_users)]
    if outside.size:
        raise ValueError(
            f"users outside [0, {params.n_users}): {outside[:5].tolist()}"
        )
    return users


def run_intervention_round(
    policy: GaussianPolicy | None,
    params: SimParams,
    posterior: VariationalPosterior,
    target_model,
    users,
    actions_per_user: int,
    mode: str,
    k: int,
    stream: RandomStream,
    explore_std: float = 0.0,
    noise_control: bool = True,
    round_tag: str = "round",
):
    """Generate counterfactual samples for each user and score their reward.

    For every user and action: draw alpha and beta from their posteriors,
    propose a center from `policy`, or a uniform list when `policy` is None
    (the random ablation), label the realized list with the simulator,
    assemble samples (noise-controlled at level k, or all selected-vs-rest
    when noise_control is off), and set the episode reward to the target
    model's loss on those samples. Returns the merged batch and the episode
    list, in (user, action) order. With `target_model` None no reward is
    scored and the episode list is empty; the stream is drawn the same way
    and the batch is the same.

    Episodes run in blocks of BLOCK_ENTRIES // n_items. A policy block makes
    one draw, stream.normal((b, n_items + d [+ d] + K)): row e holds episode
    e's alpha noise, action noise, exploration noise (only if explore_std >
    0) and beta noise, the widths and order in which a per-episode loop
    draws them. Philox fills a (b, w) draw from the same sequence as b
    draws of width w, so the stream is consumed exactly as by that loop.
    The random source draws alpha, list and beta per episode, since its
    `choice` sits between the normals. The rest is one kernel per block:
    `realize_list`, the slot softmax, `_block_samples`, and one `loss_*`
    call whose per-episode sums are the rewards.
    """
    users = _check_round(params, users, actions_per_user, mode, k)
    n_items, list_len = params.n_items, params.list_len
    n_alpha, n_beta = posterior.mu_alpha.shape[0], posterior.mu_beta.shape[0]
    d = params.P.shape[1]
    explore = policy is not None and explore_std > 0
    # column offsets of the action, exploration and beta noise in a block draw
    cuts = np.cumsum([n_alpha, d, d if explore else 0])
    ep_users = np.repeat(users, actions_per_user)
    if policy is not None:
        tags = [
            f"{round_tag}/u{u}/t{t}" for u in users.tolist()
            for t in range(actions_per_user)
        ]
    else:
        tags = ["random"] * len(ep_users)
    loss = loss_pairwise if mode == "pairwise" else loss_pointwise
    block = max(1, BLOCK_ENTRIES // n_items)
    merged = CounterfactualBatch(mode=mode)
    episodes = []
    for start in range(0, len(ep_users), block):
        block_users = ep_users[start : start + block]
        block_tags = tags[start : start + block]
        b = len(block_users)
        embeds = params.P[block_users]
        if policy is not None:
            noise = stream.normal((b, cuts[2] + n_beta))
            alphas = posterior.mu_alpha + posterior.sigma_alpha * noise[:, : cuts[0]]
            mu = policy.mean(embeds)
            std = np.exp(policy.log_std)
            actions = mu + std * noise[:, cuts[0] : cuts[1]]
            taus = actions
            if explore:
                taus = actions + explore_std * noise[:, cuts[1] : cuts[2]]
            logprobs = policy._log_density((actions - mu) / std)
            items = realize_list(params, taus, alphas, list_len)
            beta_noise = noise[:, cuts[2] :]
        else:
            items = np.empty((b, list_len), dtype=np.int64)
            beta_noise = np.empty((b, n_beta))
            for e in range(b):
                stream.normal(n_alpha)  # alpha is unused but keeps the stream order
                items[e] = random_list(n_items, list_len, stream)
                beta_noise[e] = stream.normal(n_beta)
            taus = actions = np.zeros((b, d))
            logprobs = np.zeros(b)
        betas = posterior.mu_beta + posterior.sigma_beta * beta_noise
        logits = np.einsum(
            "bd,bkd->bk", params.X[block_users], params.Y[items]
        ) + params.w_s * betas[:, :list_len]
        probs = softmax(logits)
        order = top_k(probs, list_len)
        rows, conf = _block_samples(
            block_users, items, probs, order, mode, k, noise_control
        )
        merged.extend(_batch_from_block(mode, rows, conf, block_tags))
        if target_model is None:
            continue
        selected = _take(items, np.sort(order[:, :k], axis=1))
        rewards = loss(target_model, rows)
        for e, tag in enumerate(block_tags):
            episodes.append(
                Episode(
                    user=int(block_users[e]),
                    user_embed=embeds[e],
                    action=actions[e],
                    tau=taus[e],
                    logprob=float(logprobs[e]),
                    items=items[e].tolist(),
                    selected=selected[e].tolist(),
                    reward=float(rewards[e]),
                    episode_id=tag,
                )
            )
    return merged, episodes


def pretrain_policy(
    policy: GaussianPolicy,
    params: SimParams,
    posterior: VariationalPosterior,
    target_model,
    n_users: int,
    episodes: int,
    steps_per_episode: int,
    mode: str,
    k: int,
    lr: float,
    stream: RandomStream,
    explore_start: float = 0.5,
    noise_control: bool = True,
) -> GaussianPolicy:
    """Train the policy with REINFORCE against the frozen target model.

    Each episode samples `steps_per_episode` users uniformly, generates one
    intervention per user with exploration noise whose std decays linearly
    from `explore_start` to zero, and takes one policy-gradient step.
    """
    for ep in range(episodes):
        decay = 1.0 - (ep / max(episodes - 1, 1))
        explore = explore_start * decay
        users = [int(u) for u in stream.integers(0, n_users, steps_per_episode)]
        _, eps = run_intervention_round(
            policy,
            params,
            posterior,
            target_model,
            users,
            actions_per_user=1,
            mode=mode,
            k=k,
            stream=stream,
            explore_std=explore,
            noise_control=noise_control,
            round_tag=f"pretrain{ep}",
        )
        reinforce_update(policy, eps, lr)
    return policy


def save_policy(policy: GaussianPolicy, path) -> None:
    textio.save_matrices(
        path,
        policy.params(),
        meta={"d": policy.d, "hidden": policy.hidden},
    )


def load_policy(path) -> GaussianPolicy:
    arrays, meta = textio.load_matrices(path)
    textio.require(
        path, arrays, meta, blocks=("W1", "b1", "W2", "b2", "log_std"),
        keys=("d", "hidden"),
    )
    policy = GaussianPolicy(int(meta["d"]), int(meta["hidden"]), RandomStream(0))
    policy.set_params(
        {
            "W1": arrays["W1"],
            "b1": arrays["b1"].ravel(),
            "W2": arrays["W2"],
            "b2": arrays["b2"].ravel(),
            "log_std": arrays["log_std"].ravel(),
        }
    )
    return policy
