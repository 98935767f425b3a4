"""Deterministic numeric kernel shared by every learning module.

Seeded counter-based random streams, stable softmax/sigmoid helpers, a
lazy Adam optimizer for sparse embedding gradients with the one shuffled
minibatch loop every trainer runs, and a central-difference gradient
checker. Everything here is pure given its inputs; a RandomStream
is the only stateful object and is never shared between concurrent tasks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


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
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    x = np.asarray(x, dtype=np.float64)
    return np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0)


@dataclass
class AdamState:
    """Moment estimates and hyperparameters for one parameter array."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        p = np.asarray(params, dtype=np.float64)
        return cls(
            m=np.zeros_like(p),
            v=np.zeros_like(p),
            lr=lr,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(state: AdamState, params, grads) -> np.ndarray:
    """One Adam update with bias correction; returns the new parameters.

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
        return params.copy()
    g = grads[active]
    state.m[active] = state.beta1 * state.m[active] + (1.0 - state.beta1) * g
    state.v[active] = state.beta2 * state.v[active] + (1.0 - state.beta2) * g * g
    m_hat = state.m[active] / (1.0 - state.beta1**state.step)
    v_hat = state.v[active] / (1.0 - state.beta2**state.step)
    out = params.copy()
    out[active] -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return out


class AdamGroup:
    """Adam states for a named family of parameter arrays."""

    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.states = {
            k: AdamState.for_params(v, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
            for k, v in params.items()
        }

    def step(self, params: dict, grads: dict) -> dict:
        return {k: adam_step(self.states[k], params[k], grads[k]) for k in params}


def minibatch_adam(
    params: dict, epoch_rows, loss_grad, lr, batch_size, epochs, stream, what
) -> dict:
    """Shuffled minibatch Adam over a dict of parameter arrays; returns the
    final parameters.

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
            params = opt.step(params, grads)
            del grads  # freed before the next batch allocates its own
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"{what} diverged at epoch {epoch}")
    return params


def finite_diff_check(loss, params, analytic_grad, h: float = 1e-4) -> float:
    """Max relative error between central differences and an analytic gradient.

    `loss` maps a flat parameter vector to a scalar. The relative error at
    coordinate i is |cd_i - g_i| / max(1e-8, |g_i|); the maximum over all
    coordinates is returned.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    params = np.asarray(params, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if params.shape != analytic_grad.shape:
        raise ValueError("params and analytic_grad must have the same shape")
    worst = 0.0
    for i in range(params.size):
        bump = np.zeros_like(params)
        bump[i] = h
        up = float(loss(params + bump))
        down = float(loss(params - bump))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(f"loss is non-finite near coordinate {i}")
        cd = (up - down) / (2.0 * h)
        err = abs(cd - analytic_grad[i]) / max(1e-8, abs(analytic_grad[i]))
        worst = max(worst, err)
    return worst
