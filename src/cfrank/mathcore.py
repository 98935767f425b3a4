"""Deterministic numeric kernel shared by every learning module.

Seeded counter-based random streams, stable softmax/sigmoid helpers,
`scatter_add` (row-wise `np.add.at` through the flat 1-D fast path), a
lazy Adam optimizer for sparse embedding gradients with the one shuffled
minibatch loop every trainer runs, and the item-set rules `top_k` (k best,
ties to the lower id), `items_outside` and `sample_excluding` (uniform ids
outside an exclusion set). Everything here is pure given its inputs; a
RandomStream is the only stateful object and is never shared between
concurrent tasks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Entries of a score block: top_k ranks BLOCK_ENTRIES // n rows at a time.
BLOCK_ENTRIES = 1 << 16


class TrainingError(RuntimeError):
    """Raised when an optimization loop produces non-finite values."""


class RandomStream:
    """Reproducible random stream with label-derived substreams.

    Backed by the counter-based Philox generator, so an identical 64-bit
    seed yields an identical draw sequence on any platform. Substreams are
    derived by hashing the parent seed together with a text label; distinct
    labels give independent streams, which lets parallel components split
    their randomness up front instead of sharing state.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def substream(self, label: str) -> "RandomStream":
        digest = hashlib.blake2b(
            f"{self.seed}:{label}".encode(), digest_size=8
        ).digest()
        return RandomStream(int.from_bytes(digest, "little"))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._gen.permutation(x)

    def __repr__(self):
        return f"RandomStream(seed={self.seed})"


def softmax(scores) -> np.ndarray:
    """Shift-invariant softmax over the last axis of a score array.

    A 2-D input is a stack of rows; each row gets the same arithmetic as a
    1-D call on it, so the values agree bit for bit.
    """
    z = np.asarray(scores, dtype=np.float64)
    if z.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def logsumexp(z, axis=None, keepdims=False):
    z = np.asarray(z, dtype=np.float64)
    m = np.max(z, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True)) + m
    return out if keepdims else np.squeeze(out, axis=axis)


def sigmoid(x):
    """1 / (1 + e) where x >= 0, else e / (1 + e), with e = exp(-|x|): one
    exp and one division per entry, and no exp of a positive argument."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


def softplus_sigmoid(x):
    """(softplus(x), sigmoid(x)) from one shared exp(-|x|), bit for bit the
    two separate calls."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.log1p(e) + np.maximum(x, 0.0), np.where(x >= 0, 1.0, e) / (1.0 + e)


def scatter_add(out, index, values) -> None:
    """out[index[k]] += values[k] in place, for k in order, as
    `np.add.at(out, index, values)` does: each entry of `out` receives its
    terms in the same order, so the sums agree bit for bit, and negative or
    out-of-range rows index (or raise IndexError) the same way. The rows of
    a C-contiguous `out` are addressed through its flat view as
    row * width + column, which takes numpy's 1-D `ufunc.at` fast path;
    any other `out` raises ValueError rather than update a copy."""
    if not out.flags.c_contiguous:
        raise ValueError("scatter_add needs a C-contiguous output array")
    index = np.asarray(index, dtype=np.intp)
    row = out.shape[1:]
    width = int(np.prod(row))
    flat = index[..., None] * width + np.arange(width)
    values = np.broadcast_to(values, index.shape + row)
    np.add.at(out.reshape(-1), flat.reshape(-1), values.reshape(-1))


# Adam's moment decay rates and denominator offset, the same for every fit.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Moment estimates and step size for one parameter array."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params, lr=1e-3):
        if not 0 < lr < np.inf:
            raise ValueError(f"lr={lr} must be finite and > 0")
        p = np.asarray(params, dtype=np.float64)
        return cls(m=np.zeros_like(p), v=np.zeros_like(p), lr=lr)


def adam_step(state: AdamState, params, grads) -> np.ndarray:
    """One Adam update with bias correction, subtracted from `params` in
    place; returns that array (a float64 copy only when `params` is not a
    float64 array).

    Coordinates whose gradient is exactly zero are left untouched, moments
    included. For embedding tables trained on sparse minibatches this keeps
    unrelated rows frozen, and it makes a zero gradient a strict no-op on
    the parameters regardless of optimizer history.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: params {params.shape}, grads {grads.shape}, "
            f"moments {state.m.shape}"
        )
    state.step += 1
    active = grads != 0.0
    if not np.any(active):
        return params
    g = grads[active]
    state.m[active] = ADAM_BETA1 * state.m[active] + (1.0 - ADAM_BETA1) * g
    state.v[active] = ADAM_BETA2 * state.v[active] + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m[active] / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.v[active] / (1.0 - ADAM_BETA2**state.step)
    params[active] -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


class AdamGroup:
    """Adam states for a named family of parameter arrays."""

    def __init__(self, params: dict, lr=1e-3):
        self.states = {k: AdamState.for_params(v, lr=lr) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        """One `adam_step` per array, each result stored back into `params`."""
        for k in params:
            params[k] = adam_step(self.states[k], params[k], grads[k])


def minibatch_adam(
    params: dict, epoch_rows, loss_grad, lr, batch_size, epochs, stream, what
) -> dict:
    """Shuffled minibatch Adam over a dict of parameter arrays, updated in
    place (see `adam_step`); returns the same dict.

    `epoch_rows(epoch)` gives each epoch's rows. An epoch without rows is
    skipped and draws nothing; otherwise one `stream.permutation` shuffles
    them, and each slice of `batch_size` rows gets one `loss_grad(params,
    batch) -> (loss, grads)` call and one Adam step. A non-finite epoch
    loss raises TrainingError naming `what`.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size={batch_size} must be >= 1")
    if epochs < 0:
        raise ValueError(f"epochs={epochs} must be >= 0")
    opt = AdamGroup(params, lr=lr)
    for epoch in range(epochs):
        rows = epoch_rows(epoch)
        if len(rows) == 0:
            continue
        rows = rows[stream.permutation(len(rows))]
        epoch_loss = 0.0
        for start in range(0, len(rows), batch_size):
            loss, grads = loss_grad(params, rows[start : start + batch_size])
            epoch_loss += loss
            opt.step(params, grads)
            del grads  # else two batches' gradient tables are alive at once
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"{what} diverged at epoch {epoch}")
    return params


def top_k(scores, k) -> np.ndarray:
    """(b, k) ids of each row's k highest of (b, n) scores, best first, ties
    to the lower id: the first k of a stable sort on -score, found by a
    partition. k must lie in [0, n]; ±inf scores are fine, NaN is not."""
    scores = np.asarray(scores, dtype=np.float64)
    b, n = scores.shape
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    if np.isnan(scores).any():
        raise ValueError("top_k scores must not be NaN")
    out = np.empty((b, k), dtype=np.intp)
    if k == 0:
        return out
    rows = max(1, BLOCK_ENTRIES // n)
    for start in range(0, b, rows):
        neg = -scores[start : start + rows]
        r = np.arange(len(neg))[:, None]
        # the first k positions hold the k best, position k the next best
        part = np.argpartition(neg, min(k, n - 1), axis=1)
        items = part[:, :k]
        top = neg[r, items]
        if k < n:
            # Where the next best ties the k-th, the partition may have cut
            # the tied items at a higher id; such rows are sorted stably.
            cut = neg[r[:, 0], part[:, k]] == top.max(axis=1)
            if cut.any():
                items[cut] = np.argsort(neg[cut], axis=1, kind="stable")[:, :k]
                top[cut] = neg[r[cut], items[cut]]
        out[start : start + rows] = items[r, np.lexsort((items, top), axis=1)]
    return out


def items_outside(excluded, n_items) -> np.ndarray:
    """Sorted ids in [0, n_items) that are not in the collection `excluded`."""
    keep = np.ones(n_items, dtype=bool)
    keep[np.fromiter(excluded, np.int64, len(excluded))] = False
    return np.flatnonzero(keep)


def sample_excluding(keys, owners, stride, n_items, shape, stream, what):
    """Uniform ids in [0, n_items) of the given shape, each outside its
    owner's exclusion set: `keys` holds every excluded (owner, item) pair as
    owner * stride + item, sorted, and `owners` broadcasts against `shape`.

    One `stream.integers(0, n_items, shape)` draw, then the excluded entries
    are redrawn together, in C order, for at most 1000 passes before
    TrainingError("negative sampling failed; " + what). Each pass looks up
    only the entries the previous pass redrew."""
    draw = stream.integers(0, n_items, shape)
    if len(keys) == 0:
        return draw
    flat = draw.reshape(-1)
    owner = np.broadcast_to(owners, draw.shape).reshape(-1)
    todo = np.arange(flat.size)
    for _ in range(1000):
        query = owner[todo] * stride + flat[todo]
        pos = np.searchsorted(keys, query)
        todo = todo[keys[np.minimum(pos, len(keys) - 1)] == query]
        if len(todo) == 0:
            return draw
        flat[todo] = stream.integers(0, n_items, len(todo))
    raise TrainingError("negative sampling failed; " + what)
