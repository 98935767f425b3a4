"""Stochastic recommender simulator.

Two learned generative components over the observed impression logs: an
exposure model (which items get shown to a user, scored P_u . Q_j +
w_r[j] * alpha[j] with per-item exogenous noise alpha) and a selection
model (which shown slots the user picks, a within-list softmax with
per-slot exogenous noise beta). Both trainers run the minibatch Adam loop
of `mathcore`. The selection half has one likelihood kernel, shared by its
trainer and its posterior. The exposure half does not yet: it is trained
as a logistic likelihood of shown items against sampled unshown ones,
while the posterior over alpha treats each shown slot as a softmax over
the whole catalog. Variational posteriors over alpha and beta recover the
environment that produced the log, and counterfactual selection replays
the learned response on lists that were never shown.

All gradients are derived by hand and exposed for finite-difference checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import textio
from .corpus import InteractionLog
from .mathcore import (
    AdamGroup,
    RandomStream,
    TrainingError,
    logsumexp,
    minibatch_adam,
    sigmoid,
    softmax,
    softplus,
)

LOG_2PI = math.log(2.0 * math.pi)
SIGMA_FLOOR = 1e-4


@dataclass
class SimParams:
    """Learned simulator parameters; either half may be absent until trained.

    P, Q, w_r parameterize the exposure model; X, Y, w_s the selection
    model. w_s has one weight per list slot, w_r one per item.
    """

    P: np.ndarray | None = None
    Q: np.ndarray | None = None
    w_r: np.ndarray | None = None
    X: np.ndarray | None = None
    Y: np.ndarray | None = None
    w_s: np.ndarray | None = None

    @property
    def n_items(self):
        ref = self.Q if self.Q is not None else self.Y
        return ref.shape[0]

    @property
    def n_users(self):
        ref = self.P if self.P is not None else self.X
        return ref.shape[0]

    @property
    def list_len(self):
        return self.w_s.shape[0]

    def merged_with(self, other: "SimParams") -> "SimParams":
        return SimParams(
            P=self.P if self.P is not None else other.P,
            Q=self.Q if self.Q is not None else other.Q,
            w_r=self.w_r if self.w_r is not None else other.w_r,
            X=self.X if self.X is not None else other.X,
            Y=self.Y if self.Y is not None else other.Y,
            w_s=self.w_s if self.w_s is not None else other.w_s,
        )


@dataclass
class VariationalPosterior:
    """Diagonal Gaussian posteriors over the exogenous noise variables."""

    mu_alpha: np.ndarray
    sigma_alpha: np.ndarray
    mu_beta: np.ndarray
    sigma_beta: np.ndarray

    def __post_init__(self):
        if np.any(self.sigma_alpha < 0) or np.any(self.sigma_beta < 0):
            raise ValueError("posterior sigmas must be nonnegative")

    def sample_alpha(self, stream: RandomStream) -> np.ndarray:
        return self.mu_alpha + self.sigma_alpha * stream.normal(self.mu_alpha.shape)

    def sample_beta(self, stream: RandomStream) -> np.ndarray:
        return self.mu_beta + self.sigma_beta * stream.normal(self.mu_beta.shape)

    @classmethod
    def prior(cls, n_items: int, list_len: int) -> "VariationalPosterior":
        return cls(
            mu_alpha=np.zeros(n_items),
            sigma_alpha=np.ones(n_items),
            mu_beta=np.zeros(list_len),
            sigma_beta=np.ones(list_len),
        )


@dataclass
class ImpressionHyper:
    d_r: int = 32
    lr: float = 1e-3
    epochs: int = 20
    neg_per_pos: int = 4
    alpha_draws: int = 2
    batch_size: int = 512


@dataclass
class SelectionHyper:
    d_s: int = 32
    lr: float = 1e-3
    epochs: int = 20
    beta_draws: int = 2
    batch_size: int = 512


@dataclass
class PosteriorHyper:
    lr: float = 0.02
    epochs: int = 150
    mc_samples: int = 8


# ---------------------------------------------------------------------------
# Elementary probabilities


def impression_logit(params: SimParams, u: int, j: int, alpha) -> float:
    """Exposure score P_u . Q_j + w_r[j] * alpha[j]."""
    return float(params.P[u] @ params.Q[j] + params.w_r[j] * alpha[j])


def selection_logits(params: SimParams, u: int, items, beta) -> np.ndarray:
    items = np.asarray(items, dtype=np.int64)
    k = len(items)
    beta = np.asarray(beta, dtype=np.float64)
    return params.X[u] @ params.Y[items].T + params.w_s[:k] * beta[:k]


def slot_probs(params: SimParams, u: int, items, beta) -> np.ndarray:
    """Within-list selection probabilities, one per slot, summing to 1."""
    return softmax(selection_logits(params, u, items, beta))


# ---------------------------------------------------------------------------
# Padded array view of a log, shared by the trainers


@dataclass
class _LogArrays:
    users: np.ndarray  # (n,)
    items: np.ndarray  # (n, K) padded with 0
    mask: np.ndarray  # (n, K) True on real slots
    sel: np.ndarray  # (n, K) 1.0 on selected slots
    n_sel: np.ndarray  # (n,)
    list_len: int
    n_users: int
    n_items: int


def _log_arrays(log: InteractionLog, list_len=None) -> _LogArrays:
    """The log's columns as trainer arrays. `users` is the log's own column
    and so is `items` unless `list_len` differs from the log's width, in
    which case items and labels are copied into `list_len` padded slots."""
    k = list_len if list_len is not None else log.list_len
    if k < log.list_len:
        raise ValueError(f"list_len={k} is below the log's longest list ({log.list_len})")
    items, labels = log.items, log.labels
    if items.shape[1] != k:
        width = min(k, items.shape[1])
        items = np.zeros((log.n_records, k), dtype=np.int64)
        labels = np.zeros((log.n_records, k), dtype=np.int64)
        items[:, :width] = log.items[:, :width]
        labels[:, :width] = log.labels[:, :width]
    mask = np.arange(k) < log.lengths[:, None]
    sel = labels.astype(np.float64)
    return _LogArrays(
        log.users, items, mask, sel, sel.sum(axis=1), k, log.n_users, log.n_items
    )


def _embedding_grads(E_user, E_item, users, items, dz):
    """Gradients of sum_{b,k} dz[b,k] * E_user[users[b]] . E_item[items[b,k]]
    with respect to both embedding tables.

    Both scatters are dense matmuls. One bincount sums dz per (item, batch
    row) into C (n_items x B), so the item gradient is C @ E_user[users].
    The user gradient sums the rows of C.T @ E_item per user through a
    one-hot matrix over the batch's distinct users, which keeps it
    batch x batch however many users the log has.
    """
    b = len(users)
    n_items = E_item.shape[0]
    flat = (items * b + np.arange(b)[:, None]).ravel()
    C = np.bincount(flat, weights=dz.ravel(), minlength=n_items * b)
    C = C.reshape(n_items, b)
    g_item = C @ E_user[users]
    distinct, row = np.unique(users, return_inverse=True)
    U = np.zeros((len(distinct), b))
    U[row, np.arange(b)] = 1.0
    g_user = np.zeros_like(E_user)
    g_user[distinct] = U @ (C.T @ E_item)
    return g_user, g_item


# ---------------------------------------------------------------------------
# Exposure model: maximize log sigma on shown items plus log(1 - sigma) on
# negatives sampled from each record's unshown items


def _impression_loss_grads(P, Q, w_r, users, pos_items, pos_mask, neg_items, alpha):
    """Negated exposure objective and its gradients for one batch.

    pos_items/(pos_mask): (B, K) shown slots; neg_items: (B, m) sampled
    unshown items (mask repeated along columns as needed).
    """
    b, k = pos_items.shape
    reps = neg_items.shape[1] // k
    neg_mask = np.tile(pos_mask, reps)

    def logits(item_mat):
        return (
            np.einsum("bd,bkd->bk", P[users], Q[item_mat])
            + w_r[item_mat] * alpha[item_mat]
        )

    z_pos = logits(pos_items)
    z_neg = logits(neg_items)
    loss = float(
        np.sum(softplus(-z_pos) * pos_mask) + np.sum(softplus(z_neg) * neg_mask)
    )
    items = np.hstack([pos_items, neg_items])
    dz = np.hstack([-sigmoid(-z_pos) * pos_mask, sigmoid(z_neg) * neg_mask])
    gP, gQ = _embedding_grads(P, Q, users, items, dz)
    gw = np.bincount(items.ravel(), weights=dz.ravel(), minlength=len(w_r)) * alpha
    return loss, gP, gQ, gw


def _shown_keys(arrays: _LogArrays) -> np.ndarray:
    """Each record's shown items, sorted and offset by record * (n_items + 1),
    flattened into one ascending array for `_is_shown`. Padded slots hold
    n_items, which no sampled item equals."""
    stride = arrays.n_items + 1
    rows = np.where(arrays.mask, arrays.items, arrays.n_items)
    rows.sort(axis=1)
    return (rows + stride * np.arange(len(rows))[:, None]).ravel()


def _is_shown(shown_keys, rows, items, n_items) -> np.ndarray:
    """(len(rows), m) bool: items[r, t] is in the list of record rows[r]."""
    query = items + (n_items + 1) * rows[:, None]
    pos = np.searchsorted(shown_keys, query)
    return shown_keys[np.minimum(pos, len(shown_keys) - 1)] == query


def _sample_record_negatives(shown_keys, rows, n_neg, n_items, stream):
    """Uniform unshown items per record row; vectorized rejection."""
    neg = stream.integers(0, n_items, (len(rows), n_neg))
    for _ in range(1000):
        bad = _is_shown(shown_keys, rows, neg, n_items)
        if not bad.any():
            return neg
        neg[bad] = stream.integers(0, n_items, int(bad.sum()))
    raise TrainingError("negative sampling failed; a record shows every item")


def _check_draws(name, value):
    if value < 1:
        raise ValueError(f"{name}={value} must be >= 1")


def _mean_over_draws(n_draws, draw_loss_grads, params):
    """Loss and gradients averaged over `n_draws` calls of
    `draw_loss_grads() -> (loss, *grads)`, the grads in `params` key order."""
    total = 0.0
    grads = {key: np.zeros_like(value) for key, value in params.items()}
    for _ in range(n_draws):
        loss, *parts = draw_loss_grads()
        total += loss
        for grad, part in zip(grads.values(), parts):
            grad += part
    scale = 1.0 / n_draws
    return total * scale, {key: grad * scale for key, grad in grads.items()}


def train_impression_model(
    log: InteractionLog, hyper: ImpressionHyper, stream: RandomStream
) -> SimParams:
    """Fit the exposure half (P, Q, w_r) by negative-sampled maximum
    likelihood; the exogenous alpha is redrawn per batch and the loss is
    averaged over `alpha_draws` draws."""
    _check_draws("alpha_draws", hyper.alpha_draws)
    arrays = _log_arrays(log)
    init = stream.substream("init")
    shown_keys = _shown_keys(arrays)
    records = np.arange(log.n_records)

    def loss_grad(p, idx):
        neg = _sample_record_negatives(
            shown_keys, idx, hyper.neg_per_pos * arrays.list_len, arrays.n_items, stream
        )
        batch = (arrays.users[idx], arrays.items[idx], arrays.mask[idx], neg)
        return _mean_over_draws(
            hyper.alpha_draws,
            lambda: _impression_loss_grads(
                p["P"], p["Q"], p["w"], *batch, stream.normal(arrays.n_items)
            ),
            p,
        )

    # the initial arrays are passed without a local name, so each is freed
    # once the optimizer replaces it
    params = minibatch_adam(
        {
            "P": 0.1 * init.normal((arrays.n_users, hyper.d_r)),
            "Q": 0.1 * init.normal((arrays.n_items, hyper.d_r)),
            "w": np.full(arrays.n_items, 0.1),
        },
        lambda epoch: records, loss_grad, hyper.lr, hyper.batch_size,
        hyper.epochs, stream, "exposure training",
    )
    return SimParams(P=params["P"], Q=params["Q"], w_r=params["w"])


# ---------------------------------------------------------------------------
# Selection model: exact within-list softmax likelihood of the selected slots


def _selection_nll(scores, w_s, beta, mask, sel, n_sel):
    """Negated selection log-likelihood and its gradient w.r.t. the logits
    scores + w_s * beta, where `scores` (n, K) holds X[u] . Y[j] per slot
    and -inf on padding. The trainer and the posterior share this kernel."""
    k = scores.shape[1]
    z = scores + (w_s[:k] * beta[:k])[None, :]
    logp = z - logsumexp(z, axis=1)[:, None]
    loss = -float(np.sum(sel * np.where(mask, logp, 0.0)))
    return loss, n_sel[:, None] * np.exp(logp) - sel


def _selection_loss_grads(X, Y, w_s, users, items, mask, sel, n_sel, beta):
    """Negated selection likelihood and gradients for one padded batch."""
    scores = np.where(mask, np.einsum("bd,bkd->bk", X[users], Y[items]), -np.inf)
    loss, dz = _selection_nll(scores, w_s, beta, mask, sel, n_sel)
    gX, gY = _embedding_grads(X, Y, users, items, dz)
    gw = (dz * beta[: items.shape[1]][None, :]).sum(axis=0)
    return loss, gX, gY, gw


def train_selection_model(
    log: InteractionLog, hyper: SelectionHyper, stream: RandomStream
) -> SimParams:
    """Fit the selection half (X, Y, w_s) by exact in-list softmax likelihood.

    Records with no selected item contribute no likelihood term and are
    skipped; beta is redrawn per batch, averaged over `beta_draws`.
    """
    _check_draws("beta_draws", hyper.beta_draws)
    arrays = _log_arrays(log)
    init = stream.substream("init")
    kept = np.nonzero(arrays.n_sel > 0)[0]

    def loss_grad(p, idx):
        batch = (
            arrays.users[idx], arrays.items[idx], arrays.mask[idx],
            arrays.sel[idx], arrays.n_sel[idx],
        )
        return _mean_over_draws(
            hyper.beta_draws,
            lambda: _selection_loss_grads(
                p["X"], p["Y"], p["w"], *batch, stream.normal(arrays.list_len)
            ),
            p,
        )

    params = minibatch_adam(
        {
            "X": 0.1 * init.normal((arrays.n_users, hyper.d_s)),
            "Y": 0.1 * init.normal((arrays.n_items, hyper.d_s)),
            "w": np.full(arrays.list_len, 0.1),
        },
        lambda epoch: kept, loss_grad, hyper.lr, hyper.batch_size,
        hyper.epochs, stream, "selection training",
    )
    return SimParams(X=params["X"], Y=params["Y"], w_s=params["w"])


# ---------------------------------------------------------------------------
# Variational posteriors over alpha and beta


@dataclass
class _PosteriorTerms:
    """The parts of the log-likelihood that do not depend on alpha or beta.

    Simulator parameters are frozen while the posterior is fit, so these are
    built once per fit and shared by every epoch and Monte-Carlo draw.
    """

    w_r: np.ndarray
    base_r: np.ndarray  # (active users, n_items) P[active] @ Q.T
    shows_per_user: np.ndarray  # (active users,) shown slots of each
    shows_per_item: np.ndarray  # (n_items,)
    slot_score: float  # sum of P[u] . Q[j] over the shown slots
    w_s: np.ndarray
    base_s: np.ndarray  # (n, K) X[u] . Y[j] per slot, -inf on padding
    mask: np.ndarray
    sel: np.ndarray
    n_sel: np.ndarray


def _posterior_terms(params: SimParams, arrays: _LogArrays) -> _PosteriorTerms:
    k = arrays.list_len
    flat_mask = arrays.mask.ravel()
    slot_users = np.repeat(arrays.users, k)[flat_mask]
    slot_items = arrays.items.ravel()[flat_mask]
    shows_per_user = np.bincount(slot_users, minlength=params.P.shape[0])
    active = np.nonzero(shows_per_user)[0]
    base_r = params.P[active] @ params.Q.T
    base_s = np.einsum("bd,bkd->bk", params.X[arrays.users], params.Y[arrays.items])
    return _PosteriorTerms(
        w_r=params.w_r,
        base_r=base_r,
        shows_per_user=shows_per_user[active].astype(np.float64),
        shows_per_item=np.bincount(slot_items, minlength=params.n_items).astype(
            np.float64
        ),
        slot_score=float(
            base_r[np.searchsorted(active, slot_users), slot_items].sum()
        ),
        w_s=params.w_s[:k],
        base_s=np.where(arrays.mask, base_s, -np.inf),
        mask=arrays.mask,
        sel=arrays.sel,
        n_sel=arrays.n_sel,
    )


def _beta_loglik_grad(terms: _PosteriorTerms, beta):
    """Selection log-likelihood of the log and its gradient w.r.t. beta."""
    loss, dz = _selection_nll(
        terms.base_s, terms.w_s, beta, terms.mask, terms.sel, terms.n_sel
    )
    return -loss, -(dz * terms.w_s[None, :]).sum(axis=0)


def _alpha_loglik_grad(terms: _PosteriorTerms, alpha):
    """Exposure log-likelihood of the log and its gradient w.r.t. alpha.

    Adds w_r * alpha to the cached base logits of every active user and
    normalizes each row over the whole catalog in one pass.
    """
    wa = terms.w_r * alpha
    z = terms.base_r + wa[None, :]
    lse = logsumexp(z, axis=1)
    p = np.exp(z - lse[:, None])
    value = terms.slot_score + float(terms.shows_per_item @ wa)
    value -= float(terms.shows_per_user @ lse)
    grad = (terms.shows_per_item - terms.shows_per_user @ p) * terms.w_r
    return value, grad


def elbo_value_and_grads(
    params, arrays, mu_a, rho_a, mu_b, rho_b, eps_a, eps_b, terms=None
):
    """Evidence lower bound with reparameterized likelihood draws.

    The Gaussian prior cross-entropy and the posterior entropy are analytic;
    only the likelihood expectation is Monte-Carlo over the supplied epsilon
    draws, which makes the whole expression deterministic given them (as the
    finite-difference checks require). Returns (elbo, grads) where grads
    are gradients of the *negated* bound for the minimizer. `terms` are the
    frozen likelihood terms of (params, arrays); they are built here when
    not supplied.
    """
    if terms is None:
        terms = _posterior_terms(params, arrays)
    sigma_a = np.exp(rho_a)
    sigma_b = np.exp(rho_b)
    dim = mu_a.size + mu_b.size
    prior = -0.5 * (
        np.sum(mu_a**2 + sigma_a**2) + np.sum(mu_b**2 + sigma_b**2)
    ) - 0.5 * dim * LOG_2PI
    entropy = np.sum(rho_a) + np.sum(rho_b) + 0.5 * dim * (1.0 + LOG_2PI)

    n_draws = eps_a.shape[0]
    lik = 0.0
    glik_mu_a = np.zeros_like(mu_a)
    glik_rho_a = np.zeros_like(rho_a)
    glik_mu_b = np.zeros_like(mu_b)
    glik_rho_b = np.zeros_like(rho_b)
    for s in range(n_draws):
        alpha = mu_a + sigma_a * eps_a[s]
        beta = mu_b + sigma_b * eps_b[s]
        va, ga = _alpha_loglik_grad(terms, alpha)
        vb, gb = _beta_loglik_grad(terms, beta)
        lik += va + vb
        glik_mu_a += ga
        glik_rho_a += ga * eps_a[s] * sigma_a
        glik_mu_b += gb
        glik_rho_b += gb * eps_b[s] * sigma_b
    lik /= n_draws
    elbo = float(prior + entropy + lik)

    grads = {
        "mu_a": mu_a - glik_mu_a / n_draws,
        "rho_a": sigma_a**2 - 1.0 - glik_rho_a / n_draws,
        "mu_b": mu_b - glik_mu_b / n_draws,
        "rho_b": sigma_b**2 - 1.0 - glik_rho_b / n_draws,
    }
    return elbo, grads


def fit_posterior(
    params: SimParams,
    log: InteractionLog,
    hyper: PosteriorHyper,
    stream: RandomStream,
) -> VariationalPosterior:
    """Maximize the ELBO over diagonal-Gaussian posteriors for alpha and beta.

    Simulator parameters stay frozen. Sigmas are parameterized through an
    exponential map and floored at 1e-4; hitting the floor is reported once
    as a warning.
    """
    _check_draws("mc_samples", hyper.mc_samples)
    if hyper.epochs < 0:
        raise ValueError(f"epochs={hyper.epochs} must be >= 0")
    k = params.list_len
    n_items = params.n_items
    arrays = _log_arrays(log, list_len=k)
    terms = _posterior_terms(params, arrays)
    values = {
        "mu_a": np.zeros(n_items),
        "rho_a": np.zeros(n_items),
        "mu_b": np.zeros(k),
        "rho_b": np.zeros(k),
    }
    opt = AdamGroup(values, lr=hyper.lr)
    rho_floor = math.log(SIGMA_FLOOR)
    clamped = False
    for epoch in range(hyper.epochs):
        eps_a = stream.normal((hyper.mc_samples, n_items))
        eps_b = stream.normal((hyper.mc_samples, k))
        elbo, grads = elbo_value_and_grads(
            params,
            arrays,
            values["mu_a"],
            values["rho_a"],
            values["mu_b"],
            values["rho_b"],
            eps_a,
            eps_b,
            terms,
        )
        if not np.isfinite(elbo):
            raise TrainingError(f"posterior fit diverged at epoch {epoch}")
        values = opt.step(values, grads)
        for key in ("rho_a", "rho_b"):
            if np.any(values[key] < rho_floor):
                clamped = True
                values[key] = np.maximum(values[key], rho_floor)
    if clamped:
        warnings.warn("posterior sigma clamped at floor 1e-4", stacklevel=2)
    return VariationalPosterior(
        mu_alpha=values["mu_a"],
        sigma_alpha=np.exp(values["rho_a"]),
        mu_beta=values["mu_b"],
        sigma_beta=np.exp(values["rho_b"]),
    )


# ---------------------------------------------------------------------------
# Counterfactual selection


def counterfactual_select(
    params: SimParams,
    posterior: VariationalPosterior,
    u: int,
    items,
    m: int,
    stream: RandomStream,
):
    """Predict the selected set on an intervened list.

    Draws beta from its posterior, scores every slot, and returns the items
    of the m highest-probability slots (ties to the lower slot index) along
    with all slot probabilities.
    """
    items = list(items)
    if m > len(items):
        raise ValueError(f"cannot select {m} items from a list of {len(items)}")
    if len(set(items)) != len(items):
        raise ValueError("intervened list contains duplicate items")
    beta = posterior.sample_beta(stream)
    probs = slot_probs(params, u, items, beta)
    order = sorted(range(len(items)), key=lambda t: (-probs[t], t))
    chosen_slots = sorted(order[:m])
    return [items[t] for t in chosen_slots], probs


# ---------------------------------------------------------------------------
# Persistence


def save_sim_params(params: SimParams, path) -> None:
    arrays = {}
    for name in ("P", "Q", "w_r", "X", "Y", "w_s"):
        value = getattr(params, name)
        if value is not None:
            arrays[name] = value
    meta = {
        "n_users": params.n_users,
        "n_items": params.n_items,
        "list_len": params.w_s.shape[0] if params.w_s is not None else 0,
        "d_r": params.P.shape[1] if params.P is not None else 0,
        "d_s": params.X.shape[1] if params.X is not None else 0,
    }
    textio.save_matrices(path, arrays, meta)


def load_sim_params(path) -> SimParams:
    arrays, _ = textio.load_matrices(path)
    def get(name, flat=False):
        if name not in arrays:
            return None
        return arrays[name].ravel() if flat else arrays[name]
    return SimParams(
        P=get("P"),
        Q=get("Q"),
        w_r=get("w_r", flat=True),
        X=get("X"),
        Y=get("Y"),
        w_s=get("w_s", flat=True),
    )


def save_posterior(post: VariationalPosterior, path) -> None:
    textio.save_matrices(
        path,
        {
            "mu_alpha": post.mu_alpha,
            "sigma_alpha": post.sigma_alpha,
            "mu_beta": post.mu_beta,
            "sigma_beta": post.sigma_beta,
        },
    )


def load_posterior(path) -> VariationalPosterior:
    arrays, _ = textio.load_matrices(path)
    return VariationalPosterior(
        mu_alpha=arrays["mu_alpha"].ravel(),
        sigma_alpha=arrays["sigma_alpha"].ravel(),
        mu_beta=arrays["mu_beta"].ravel(),
        sigma_beta=arrays["sigma_beta"].ravel(),
    )
