"""Stochastic recommender simulator.

Two learned generative components over the observed impression logs: an
exposure model (which items get shown to a user, scored P_u . Q_j +
w_r[j] * alpha[j] with per-item exogenous noise alpha) and a selection
model (which shown slots the user picks, a within-list softmax with
per-slot exogenous noise beta). Both trainers run the minibatch Adam loop
of `mathcore`. The exposure half is trained as a logistic likelihood of
shown items against sampled unshown ones, while the posterior over alpha
treats each shown slot as a softmax over the whole catalog; the posterior
over beta uses the selection trainer's within-list softmax. Variational
posteriors over alpha and beta recover the environment that produced the
log, and counterfactual selection replays the learned response on lists
that were never shown.

The posterior's two likelihood terms have one shape, `_PosteriorHalf`, and
one kernel, `_loglik_grads`: softmax log-normalizers over frozen logit rows
plus a per-draw shift (w_r * alpha over the catalog for exposure, w_s * beta
over the slots for selection). Since exp(b + shift) = exp(b) * exp(shift),
the rows are exponentiated once per fit, and all Monte-Carlo draws of an
ELBO evaluation share two matrix products per half; a draw whose row sums
would underflow rebuilds the logits and normalizes them directly.

All gradients are derived by hand and checked against finite differences
in the tests.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
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
    sample_excluding,
    softmax,
    softplus_sigmoid,
    top_k,
)

LOG_2PI = math.log(2.0 * math.pi)
SIGMA_FLOOR = 1e-4


@dataclass
class SimParams:
    """Learned simulator parameters, both halves.

    P, Q, w_r parameterize the exposure model; X, Y, w_s the selection
    model. w_s has one weight per list slot, w_r one per item.
    """

    P: np.ndarray
    Q: np.ndarray
    w_r: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    w_s: np.ndarray

    @property
    def n_items(self):
        return self.Q.shape[0]

    @property
    def n_users(self):
        return self.P.shape[0]

    @property
    def list_len(self):
        return self.w_s.shape[0]


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

    @property
    def n_items(self):
        return self.mu_alpha.shape[0]

    @property
    def list_len(self):
        return self.mu_beta.shape[0]

    def sample_alpha(self, stream: RandomStream) -> np.ndarray:
        return self.mu_alpha + self.sigma_alpha * stream.normal(self.mu_alpha.shape)

    def sample_beta(self, stream: RandomStream) -> np.ndarray:
        return self.mu_beta + self.sigma_beta * stream.normal(self.mu_beta.shape)


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


def slot_probs(params: SimParams, u: int, items, beta) -> np.ndarray:
    """Within-list selection probabilities, one per slot, summing to 1: the
    softmax of the logits X[u] . Y[j] + w_s * beta over the slots."""
    items = np.asarray(items, dtype=np.int64)
    k = len(items)
    beta = np.asarray(beta, dtype=np.float64)
    return softmax(params.X[u] @ params.Y[items].T + params.w_s[:k] * beta[:k])


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


def _log_arrays(log: InteractionLog) -> _LogArrays:
    """The log's columns as trainer arrays; `users` and `items` are the
    log's own columns."""
    k = log.list_len
    mask = np.arange(k) < log.lengths[:, None]
    sel = log.labels.astype(np.float64)
    return _LogArrays(
        log.users, log.items, mask, sel, sel.sum(axis=1), k, log.n_users, log.n_items
    )


def _embedding_grads(E_user, E_item, users, items):
    """The gradient map dz -> (g_user, g_item) of
    sum_{b,k} dz[b,k] * E_user[users[b]] . E_item[items[b,k]] with respect
    to both embedding tables, for one batch and any number of dz.

    Both scatters are dense matmuls. One bincount sums dz per (item, batch
    row) into C (n_items x B), so the item gradient is C @ E_user[users].
    The user gradient sums the rows of C.T @ E_item per user through a
    one-hot matrix over the batch's distinct users, which keeps it
    batch x batch however many users the log has. Everything that does not
    depend on dz (the gathered user rows, the bincount index, the distinct
    users and the one-hot matrix) is built once, here; a call of the map
    runs the bincount and the three products.
    """
    b = len(users)
    n_items = E_item.shape[0]
    flat = (items * b + np.arange(b)[:, None]).ravel()
    user_rows = E_user[users]
    distinct, row = np.unique(users, return_inverse=True)
    U = np.zeros((len(distinct), b))
    U[row, np.arange(b)] = 1.0

    def grads(dz):
        C = np.bincount(flat, weights=dz.ravel(), minlength=n_items * b)
        C = C.reshape(n_items, b)
        g_item = C @ user_rows
        g_user = np.zeros_like(E_user)
        g_user[distinct] = U @ (C.T @ E_item)
        return g_user, g_item

    return grads


# ---------------------------------------------------------------------------
# Exposure model: maximize log sigma on shown items plus log(1 - sigma) on
# negatives sampled from each record's unshown items


def _impression_batch(P, Q, w_r, users, pos_items, pos_mask, neg_items):
    """The negated exposure objective of one batch and its gradients, as a
    function of the noise: alpha -> (loss, gP, gQ, gw).

    pos_items/(pos_mask): (B, K) shown slots; neg_items: (B, m) sampled
    unshown items (mask repeated along columns as needed). The embedding
    scores, the w_r rows, the joined item matrix and the masks are built
    once per batch; a call runs only the operations that depend on alpha.

    The negatives' gather (B x m x d, the batch's largest array) comes
    first, before anything that outlives it is allocated, so it reuses the
    heap block the previous batch's gather freed: with `cfrank`'s mmap
    threshold every block under 32 MiB comes from the heap, and gathered
    after the shown slots it no longer fits there (mind-sample's peak RSS
    +2.9 MB).
    """
    user_rows = P[users]
    score_neg = np.einsum("bd,bkd->bk", user_rows, Q[neg_items])
    score_pos = np.einsum("bd,bkd->bk", user_rows, Q[pos_items])
    neg_mask = np.tile(pos_mask, neg_items.shape[1] // pos_items.shape[1])
    w_pos, w_neg = w_r[pos_items], w_r[neg_items]
    items = np.hstack([pos_items, neg_items])
    embedding_grads = _embedding_grads(P, Q, users, items)
    flat_items = items.ravel()

    def loss_grads(alpha):
        z_pos = score_pos + w_pos * alpha[pos_items]
        z_neg = score_neg + w_neg * alpha[neg_items]
        softplus_pos, sigmoid_pos = softplus_sigmoid(-z_pos)
        loss_pos = np.sum(softplus_pos * pos_mask)
        dz_pos = -sigmoid_pos * pos_mask
        softplus_neg, sigmoid_neg = softplus_sigmoid(z_neg)
        loss = float(loss_pos + np.sum(softplus_neg * neg_mask))
        dz = np.hstack([dz_pos, sigmoid_neg * neg_mask])
        gP, gQ = embedding_grads(dz)
        gw = np.bincount(flat_items, weights=dz.ravel(), minlength=len(w_r)) * alpha
        return loss, gP, gQ, gw

    return loss_grads


def _shown_keys(arrays: _LogArrays) -> np.ndarray:
    """Each record's shown items, sorted and offset by record * (n_items + 1),
    flattened into one ascending array of `sample_excluding` keys. Padded
    slots hold n_items, which no sampled item equals."""
    stride = arrays.n_items + 1
    rows = np.where(arrays.mask, arrays.items, arrays.n_items)
    rows.sort(axis=1)
    return (rows + stride * np.arange(len(rows))[:, None]).ravel()


def _check_count(name, value):
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the exposure half (P, Q, w_r) by negative-sampled maximum
    likelihood and return those three arrays; the exogenous alpha is
    redrawn per batch and the loss is averaged over `alpha_draws` draws."""
    _check_count("d_r", hyper.d_r)
    _check_count("alpha_draws", hyper.alpha_draws)
    _check_count("neg_per_pos", hyper.neg_per_pos)
    arrays = _log_arrays(log)
    init = stream.substream("init")
    shown_keys = _shown_keys(arrays)
    records = np.arange(log.n_records)

    def loss_grad(p, idx):
        neg = sample_excluding(
            shown_keys, idx[:, None], arrays.n_items + 1, arrays.n_items,
            (len(idx), hyper.neg_per_pos * arrays.list_len), stream,
            "a record shows every item",
        )
        batch = _impression_batch(
            p["P"], p["Q"], p["w"],
            arrays.users[idx], arrays.items[idx], arrays.mask[idx], neg,
        )
        return _mean_over_draws(
            hyper.alpha_draws, lambda: batch(stream.normal(arrays.n_items)), p
        )

    params = minibatch_adam(
        {
            "P": 0.1 * init.normal((arrays.n_users, hyper.d_r)),
            "Q": 0.1 * init.normal((arrays.n_items, hyper.d_r)),
            "w": np.full(arrays.n_items, 0.1),
        },
        lambda epoch: records, loss_grad, hyper.lr, hyper.batch_size,
        hyper.epochs, stream, "exposure training",
    )
    return params["P"], params["Q"], params["w"]


# ---------------------------------------------------------------------------
# Selection model: exact within-list softmax likelihood of the selected slots


def _selection_nll(scores, w_s, beta, mask, sel, n_sel):
    """Negated selection log-likelihood and its gradient w.r.t. the logits
    scores + w_s * beta, where `scores` (n, K) holds X[u] . Y[j] per slot
    and -inf on padding. The posterior's beta term is the same likelihood
    in factorized form (see `_posterior_terms`)."""
    k = scores.shape[1]
    z = scores + (w_s[:k] * beta[:k])[None, :]
    logp = z - logsumexp(z, axis=1)[:, None]
    loss = -float(np.sum(sel * np.where(mask, logp, 0.0)))
    return loss, n_sel[:, None] * np.exp(logp) - sel


def _selection_batch(X, Y, w_s, users, items, mask, sel, n_sel):
    """The negated selection likelihood of one padded batch and its
    gradients, as a function of the noise: beta -> (loss, gX, gY, gw). The
    slot scores are built once per batch; a call runs only the operations
    that depend on beta."""
    k = items.shape[1]
    scores = np.where(mask, np.einsum("bd,bkd->bk", X[users], Y[items]), -np.inf)
    embedding_grads = _embedding_grads(X, Y, users, items)

    def loss_grads(beta):
        loss, dz = _selection_nll(scores, w_s, beta, mask, sel, n_sel)
        gX, gY = embedding_grads(dz)
        gw = (dz * beta[:k][None, :]).sum(axis=0)
        return loss, gX, gY, gw

    return loss_grads


def train_selection_model(
    log: InteractionLog, hyper: SelectionHyper, stream: RandomStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit the selection half (X, Y, w_s) by exact in-list softmax likelihood
    and return those three arrays.

    Records with no selected item contribute no likelihood term and are
    skipped; beta is redrawn per batch, averaged over `beta_draws`.
    """
    _check_count("d_s", hyper.d_s)
    _check_count("beta_draws", hyper.beta_draws)
    arrays = _log_arrays(log)
    init = stream.substream("init")
    kept = np.nonzero(arrays.n_sel > 0)[0]

    def loss_grad(p, idx):
        batch = _selection_batch(
            p["X"], p["Y"], p["w"], arrays.users[idx], arrays.items[idx],
            arrays.mask[idx], arrays.sel[idx], arrays.n_sel[idx],
        )
        return _mean_over_draws(
            hyper.beta_draws, lambda: batch(stream.normal(arrays.list_len)), p
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
    return params["X"], params["Y"], params["w"]


# ---------------------------------------------------------------------------
# Variational posteriors over alpha and beta

# A row sum below this may have lost terms to underflow, so a draw that
# meets one is normalized the direct way instead.
ROW_SUM_FLOOR = 1e-250


@dataclass
class _SoftmaxRows:
    """Frozen logit rows b stored as scaled = exp(b - rowmax) (0 where b
    is -inf), with the number of likelihood terms each row carries.
    `logits()` rebuilds b bit for bit for the direct fallback."""

    scaled: np.ndarray  # (rows, cols)
    rowmax: np.ndarray  # (rows,)
    weight: np.ndarray  # (rows,)
    logits: Callable[[], np.ndarray]


def _softmax_rows(base, weight, logits) -> _SoftmaxRows:
    """Rows of `base`, which is exponentiated in place."""
    rowmax = base.max(axis=1)
    base -= rowmax[:, None]
    np.exp(base, out=base)
    return _SoftmaxRows(base, rowmax, weight, logits)


def _weighted_log_normalizers(rows: _SoftmaxRows, shifts):
    """For each draw d, a row of `shifts` (draws x cols):
    (sum_r weight[r] * logsumexp(b[r] + shifts[d]),
    sum_r weight[r] * softmax(b[r] + shifts[d])), stacked over the draws.

    With c = max(shifts[d]) and e = exp(shifts[d] - c), the row sums are
    s = scaled @ e, the log-normalizers log(s) + rowmax + c and the mass
    ((weight / s) @ scaled) * e; all draws go through one product each.
    A draw whose c is not finite or whose s has an entry below
    ROW_SUM_FLOOR is normalized from rebuilt logits the direct way.
    """
    c = shifts.max(axis=1)
    fast = np.isfinite(c)
    e = np.exp(shifts - np.where(fast, c, 0.0)[:, None])
    s = rows.scaled @ e.T  # (rows, draws)
    fast &= np.all(s >= ROW_SUM_FLOOR, axis=0)
    s, e = s[:, fast], e[fast]
    totals = np.empty(len(shifts))
    mass = np.empty_like(shifts)
    totals[fast] = rows.weight @ (np.log(s) + rows.rowmax[:, None] + c[fast])
    mass[fast] = ((rows.weight[:, None] / s).T @ rows.scaled) * e
    for d in np.flatnonzero(~fast):
        z = rows.logits() + shifts[d][None, :]
        lse = logsumexp(z, axis=1)
        totals[d] = rows.weight @ lse
        mass[d] = rows.weight @ np.exp(z - lse[:, None])
    return totals, mass


@dataclass
class _PosteriorHalf:
    """One likelihood term of the ELBO with its noise factored out.

    Simulator parameters are frozen while the posterior is fit, so both
    halves are built once per fit and shared by every epoch and Monte-Carlo
    draw. A draw of the noise v adds w * v to every logit row; the term's
    value is score + (w * v) @ counts minus the rows' weighted
    log-normalizers.

    Exposure: each shown slot (u, j) scores P[u] . Q[j] + w_r[j] alpha[j]
    against a softmax over the catalog. Its rows are P[active] @ Q.T, one
    per user with a shown slot, weighted by the user's shown slots (one
    n_active x n_items array); counts are the shows per item.
    Selection: a record without a click has sel = 0 on every slot and adds
    nothing, so its rows are the clicked records' slot scores X[u] . Y[j]
    (-inf on padding), weighted by n_sel; counts are the selections per slot.
    """

    w: np.ndarray  # (cols,) noise weight per column: w_r or w_s
    rows: _SoftmaxRows
    counts: np.ndarray  # (cols,) likelihood terms per column
    score: float  # sum of the frozen logits over the observed terms


def _posterior_terms(params: SimParams, arrays: _LogArrays):
    """The (exposure, selection) halves of the log-likelihood."""
    k = arrays.list_len
    flat_mask = arrays.mask.ravel()
    slot_users = np.repeat(arrays.users, k)[flat_mask]
    slot_items = arrays.items.ravel()[flat_mask]
    shows_per_user = np.bincount(slot_users, minlength=params.n_users)
    active = np.nonzero(shows_per_user)[0]
    user_emb, item_emb = params.P[active], params.Q
    base_r = user_emb @ item_emb.T
    slot_score = float(base_r[np.searchsorted(active, slot_users), slot_items].sum())
    exposure = _PosteriorHalf(
        w=params.w_r,
        rows=_softmax_rows(
            base_r,
            shows_per_user[active].astype(np.float64),
            lambda: user_emb @ item_emb.T,
        ),
        counts=np.bincount(slot_items, minlength=params.n_items).astype(np.float64),
        score=slot_score,
    )

    kept = np.nonzero(arrays.n_sel > 0)[0]
    sel = arrays.sel[kept]
    scores = np.einsum(
        "bd,bkd->bk", params.X[arrays.users[kept]], params.Y[arrays.items[kept]]
    )
    base_s = np.where(arrays.mask[kept], scores, -np.inf)
    selection = _PosteriorHalf(
        w=params.w_s[:k],
        rows=_softmax_rows(base_s.copy(), arrays.n_sel[kept], lambda: base_s),
        counts=sel.sum(axis=0),
        score=float(np.sum(sel * scores)),
    )
    return exposure, selection


def _loglik_grads(half: _PosteriorHalf, draws):
    """One half's log-likelihood of the log and its gradient w.r.t. the
    noise, one per row of `draws` (draws x cols)."""
    shift = half.w * draws
    lse, mass = _weighted_log_normalizers(half.rows, shift)
    values = half.score + shift @ half.counts - lse
    return values, (half.counts - mass) * half.w


def elbo_value_and_grads(terms, mu_a, rho_a, mu_b, rho_b, eps_a, eps_b):
    """Evidence lower bound with reparameterized likelihood draws.

    The Gaussian prior cross-entropy and the posterior entropy are analytic;
    only the likelihood expectation is Monte-Carlo over the supplied epsilon
    draws, which makes the whole expression deterministic given them (as the
    finite-difference checks require). Returns (elbo, grads) where grads
    are gradients of the *negated* bound for the minimizer. `terms` are the
    frozen (exposure, selection) halves of the simulator and log
    (`_posterior_terms`).
    """
    sigma_a = np.exp(rho_a)
    sigma_b = np.exp(rho_b)
    dim = mu_a.size + mu_b.size
    prior = -0.5 * (
        np.sum(mu_a**2 + sigma_a**2) + np.sum(mu_b**2 + sigma_b**2)
    ) - 0.5 * dim * LOG_2PI
    entropy = np.sum(rho_a) + np.sum(rho_b) + 0.5 * dim * (1.0 + LOG_2PI)

    n_draws = eps_a.shape[0]
    exposure, selection = terms
    va, ga = _loglik_grads(exposure, mu_a + sigma_a * eps_a)
    vb, gb = _loglik_grads(selection, mu_b + sigma_b * eps_b)
    elbo = float(prior + entropy + np.sum(va + vb) / n_draws)
    grads = {
        "mu_a": mu_a - ga.sum(axis=0) / n_draws,
        "rho_a": sigma_a**2 - 1.0 - (ga * eps_a).sum(axis=0) * sigma_a / n_draws,
        "mu_b": mu_b - gb.sum(axis=0) / n_draws,
        "rho_b": sigma_b**2 - 1.0 - (gb * eps_b).sum(axis=0) * sigma_b / n_draws,
    }
    return elbo, grads


def fit_posterior(
    params: SimParams,
    log: InteractionLog,
    hyper: PosteriorHyper,
    stream: RandomStream,
) -> VariationalPosterior:
    """Maximize the ELBO over diagonal-Gaussian posteriors for alpha and beta.

    Simulator parameters stay frozen and must have one selection weight per
    slot of the log. Sigmas are parameterized through an exponential map and
    floored at 1e-4; hitting the floor is reported once as a warning.
    """
    _check_count("mc_samples", hyper.mc_samples)
    if hyper.epochs < 0:
        raise ValueError(f"epochs={hyper.epochs} must be >= 0")
    k = params.list_len
    if k != log.list_len:
        raise ValueError(
            f"the simulator has {k} list slots, but the log has {log.list_len}"
        )
    n_items = params.n_items
    terms = _posterior_terms(params, _log_arrays(log))
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
            terms,
            values["mu_a"],
            values["rho_a"],
            values["mu_b"],
            values["rho_b"],
            eps_a,
            eps_b,
        )
        if not np.isfinite(elbo):
            raise TrainingError(f"posterior fit diverged at epoch {epoch}")
        opt.step(values, grads)
        for key in ("rho_a", "rho_b"):
            if np.any(values[key] < rho_floor):
                clamped = True
                np.maximum(values[key], rho_floor, out=values[key])
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
    chosen_slots = np.sort(top_k(probs[None, :], m)[0])
    return [items[t] for t in chosen_slots], probs


# ---------------------------------------------------------------------------
# Persistence


SIM_BLOCKS = ("P", "Q", "w_r", "X", "Y", "w_s")


def save_sim_params(params: SimParams, path) -> None:
    meta = {
        "n_users": params.n_users,
        "n_items": params.n_items,
        "list_len": params.list_len,
        "d_r": params.P.shape[1],
        "d_s": params.X.shape[1],
    }
    textio.save_matrices(path, {name: getattr(params, name) for name in SIM_BLOCKS}, meta)


def load_sim_params(path) -> SimParams:
    arrays, meta = textio.load_matrices(path)
    keys = ("n_users", "n_items", "list_len", "d_r", "d_s")
    n_users, n_items, list_len, d_r, d_s = textio.meta_counts(path, meta, keys)
    shapes = {
        "P": (n_users, d_r), "Q": (n_items, d_r), "w_r": (n_items,),
        "X": (n_users, d_s), "Y": (n_items, d_s), "w_s": (list_len,),
    }
    textio.require(path, arrays, meta, blocks=shapes)
    return SimParams(**{name: arrays[name].reshape(s) for name, s in shapes.items()})


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
    arrays, meta = textio.load_matrices(path)
    textio.require(
        path, arrays, meta, blocks=("mu_alpha", "sigma_alpha", "mu_beta", "sigma_beta")
    )
    shapes = {f"sigma_{v}": arrays[f"mu_{v}"].shape for v in ("alpha", "beta")}
    textio.require(path, arrays, meta, blocks=shapes)
    return VariationalPosterior(
        mu_alpha=arrays["mu_alpha"].ravel(),
        sigma_alpha=arrays["sigma_alpha"].ravel(),
        mu_beta=arrays["mu_beta"].ravel(),
        sigma_beta=arrays["sigma_beta"].ravel(),
    )
