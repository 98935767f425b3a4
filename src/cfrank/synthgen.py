"""Synthetic world generator: Gaussian user/item vectors, a fixed piecewise
impression scorer, softmax impression sampling, and linear/nonlinear user
feedback with controllable label noise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textio
from .corpus import InteractionLog
from .mathcore import RandomStream, sigmoid, softmax

FEEDBACK_MODES = ("linear", "nonlinear")


def kappa1(x):
    """x - 0.5 on the positive half-line, else 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x - 0.5, 0.0)


def kappa2(x):
    """x on the positive half-line, else 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, 0.0)


def kappa3(x):
    """x + 0.5 on the negative half-line, else 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0, x + 0.5, 0.0)


@dataclass
class SyntheticWorld:
    user_vecs: np.ndarray  # (n_users, d), i.i.d. standard normal
    item_vecs: np.ndarray  # (n_items, d)
    a: np.ndarray  # all-ones weight vector in R^{2d}
    b: float  # fixed scalar bias, 0
    noise_std: float  # std of the additive label noise N_y (0 = noiseless)

    @property
    def n_users(self):
        return self.user_vecs.shape[0]

    @property
    def n_items(self):
        return self.item_vecs.shape[0]

    @property
    def d(self):
        return self.user_vecs.shape[1]


def make_world(
    n_users=600, n_items=300, d=16, noise_std=0.0, stream: RandomStream | None = None
) -> SyntheticWorld:
    noise_std = float(noise_std)
    if not (np.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    if stream is None:
        stream = RandomStream(0)
    return SyntheticWorld(
        user_vecs=stream.normal((n_users, d)),
        item_vecs=stream.normal((n_items, d)),
        a=np.ones(2 * d),
        b=0.0,
        noise_std=noise_std,
    )


def _kappa_tables(world: SyntheticWorld):
    """The two (n_items, 2d) feature tables with their item halves filled.

    Row j of the first is kappa1(kappa2([p_u, q_j])), of the second
    kappa3(-[p_u, q_j]). Both maps act elementwise, so the item half is the
    same for every user and `_scores` only refills the user half.
    """
    d = world.d
    t1 = np.empty((world.n_items, 2 * d))
    t2 = np.empty((world.n_items, 2 * d))
    t1[:, d:] = kappa1(kappa2(world.item_vecs))
    # kappa3 acts on the negated pair features. It is already zero on the
    # nonnegative half-line, so clamping its input would erase the signal
    # entirely and collapse the nonlinear response onto the linear one.
    t2[:, d:] = kappa3(-world.item_vecs)
    return t1, t2


def _scores(world: SyntheticWorld, u: int, tables=None):
    """(x1, x2) of user u over the whole catalog: a^T kappa(...) + b."""
    t1, t2 = _kappa_tables(world) if tables is None else tables
    d = world.d
    p = world.user_vecs[u]
    t1[:, :d] = kappa1(kappa2(p))
    t2[:, :d] = kappa3(-p)
    return t1 @ world.a + world.b, t2 @ world.a + world.b


def _x1_all(world: SyntheticWorld, u: int):
    return _scores(world, u)[0]


def _response(x1, x2, mode: str):
    """Noiseless click probability sigmoid(x1) (linear) or sigmoid(x1 + x1 x2)."""
    return sigmoid(x1 if mode == "linear" else x1 + x1 * x2)


def _check_mode(mode: str) -> None:
    if mode not in FEEDBACK_MODES:
        raise ValueError(f"unknown feedback mode {mode!r}")


def _check_list_shape(world: SyntheticWorld, n_lists, list_len) -> None:
    if n_lists < 1:
        raise ValueError(f"n_lists must be >= 1, got {n_lists}")
    if list_len < 1:
        raise ValueError(f"list_len must be >= 1, got {list_len}")
    if list_len > world.n_items:
        raise ValueError(
            f"list length exceeds item count: list_len={list_len}, "
            f"n_items={world.n_items}"
        )


def impression_score(world: SyntheticWorld, u: int, j: int) -> float:
    """Exposure propensity 1 - sigmoid(a^T kappa1(kappa2([p_u, q_j])) + b)."""
    return float(impression_scores(world, u)[j])


def impression_scores(world: SyntheticWorld, u: int) -> np.ndarray:
    return 1.0 - sigmoid(_x1_all(world, u))


_P_SUM_ATOL = np.sqrt(np.finfo(np.float64).eps)


def _draw_lists(base, draws) -> np.ndarray:
    """Distinct-item lists drawn by sequential renormalized sampling.

    `base` is an (n_lists, n_items) block of probability rows, or one row
    shared by all lists; `draws` is an (n_lists, list_len) block of uniforms
    in [0, 1). Each step repeats, row by row, the arithmetic of
    `Generator.choice(n_items, p=row)`: the row is renormalized, checked
    like `choice` checks `p` (no negatives, sum within sqrt(eps) of 1, no
    NaN), turned into a cdf by `cumsum` and division by its last entry, and
    the item is the count of cdf entries <= the uniform, which is
    `searchsorted(side="right")` on a non-decreasing cdf. The chosen item's
    probability is then zeroed. `choice` reads one uniform per call, so
    given the uniforms it would have read, the items are identical bit for
    bit.
    """
    n_lists, list_len = draws.shape
    probs = np.array(np.broadcast_to(base, (n_lists, np.shape(base)[-1])), np.float64)
    # Renormalizing and zeroing keep the sign, so one check covers all steps.
    if np.any(probs < 0):
        raise ValueError("probabilities are not non-negative")
    rows = np.arange(n_lists)
    out = np.empty((n_lists, list_len), dtype=np.int64)
    for t in range(list_len):
        probs /= probs.sum(axis=1, keepdims=True)
        cdf = np.cumsum(probs, axis=1)
        # The last cdf entry is the renormalized row's sum; the negated test
        # also rejects NaN (a row with nothing left to draw).
        if not np.all(np.abs(cdf[:, -1] - 1.0) <= _P_SUM_ATOL):
            raise ValueError("probabilities do not sum to 1")
        cdf /= cdf[:, -1:]
        picked = np.count_nonzero(cdf <= draws[:, t : t + 1], axis=1)
        out[:, t] = picked
        probs[rows, picked] = 0.0
    return out


def sample_impressions(
    world: SyntheticWorld, u: int, n_lists=25, list_len=5, stream=None
) -> list:
    """Draw impression lists of distinct items, proportional to softmax scores.

    Each list is built by sequential renormalized draws without replacement,
    with per-item probability softmax(r_u.) at each step. All slots are
    drawn in one block: one `stream.uniform` call reads an
    (n_lists, list_len) array of the Philox doubles that one
    `stream.choice(n_items, p=...)` call per slot would read, in the same
    order, and `_draw_lists` repeats `choice`'s arithmetic on them, so the
    lists equal those of the per-slot loop.
    """
    _check_list_shape(world, n_lists, list_len)
    base = softmax(impression_scores(world, u))
    return _draw_lists(base, stream.uniform(size=(n_lists, list_len))).tolist()


def user_feedback(world: SyntheticWorld, u: int, j: int, mode: str, stream=None) -> int:
    """Simulated 0/1 response of user u to item j under the given mode.

    A noisy world (noise_std > 0) draws its label noise from `stream`.
    """
    _check_mode(mode)
    noise = 0.0
    if world.noise_std > 0:
        if stream is None:
            raise ValueError(
                f"stream is required for a noisy world (noise_std={world.noise_std})"
            )
        noise = world.noise_std * float(stream.normal())
    x1, x2 = _scores(world, u)
    return int(_response(x1[j], x2[j], mode) + noise - 0.5 > 0)


def emit_dataset(
    world: SyntheticWorld,
    mode: str,
    stream: RandomStream,
    n_lists=25,
    list_len=5,
    users: range | None = None,
) -> InteractionLog:
    """Sample every user's impression lists and label each shown item.

    Impressions and label noise draw from separate per-user substreams, so
    the two feedback modes see identical impression lists for a given seed.
    Per user, the lists come from one `_draw_lists` block (see
    `sample_impressions`) and the labels from one array expression, both
    written straight into the log's columns; the noise is one
    (n_lists, list_len) normal draw, in the slot order a per-slot loop would
    draw it. The item half of the kappa features is computed once for all
    users.

    `users`, a range of user ids (default: all), limits the log to those
    users' records. Each user's records are the same whatever the range, so
    the logs of consecutive ranges, joined in order
    (`InteractionLog.concat`), equal the log of all users.
    """
    _check_mode(mode)
    _check_list_shape(world, n_lists, list_len)
    if users is None:
        users = range(world.n_users)
    tables = _kappa_tables(world)
    n = len(users) * n_lists
    item_col = np.empty((n, list_len), dtype=np.int64)
    label_col = np.empty((n, list_len), dtype=np.int64)
    for row, u in enumerate(users):
        imp_stream = stream.substream(f"impressions/{u}")
        x1, x2 = _scores(world, u, tables)
        base = softmax(1.0 - sigmoid(x1))
        items = _draw_lists(base, imp_stream.uniform(size=(n_lists, list_len)))
        shown = _response(x1, x2, mode)[items]
        if world.noise_std > 0:
            noise_stream = stream.substream(f"labels/{u}")
            shown = shown + world.noise_std * noise_stream.normal((n_lists, list_len))
        block = slice(row * n_lists, (row + 1) * n_lists)
        item_col[block] = items
        label_col[block] = shown - 0.5 > 0
    return InteractionLog(
        world.n_users,
        world.n_items,
        np.repeat(np.asarray(users, dtype=np.int64), n_lists),
        item_col,
        label_col,
        np.full(n, list_len, dtype=np.int64),
    ).validate()


def save_world(world: SyntheticWorld, path) -> None:
    textio.save_matrices(
        path,
        {"user_vecs": world.user_vecs, "item_vecs": world.item_vecs},
        meta={"d": world.d, "noise_std": repr(world.noise_std)},
    )


def load_world(path) -> SyntheticWorld:
    arrays, meta = textio.load_matrices(path)
    d = int(meta["d"])
    return SyntheticWorld(
        user_vecs=arrays["user_vecs"],
        item_vecs=arrays["item_vecs"],
        a=np.ones(2 * d),
        b=0.0,
        noise_std=float(meta["noise_std"]),
    )
