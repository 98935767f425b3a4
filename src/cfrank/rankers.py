"""Target ranking models and their pairwise/pointwise objectives.

Gradient-trainable kinds (bpr-mf, gmf, mlp, neumf) carry hand-derived
backward passes. `train_pairwise` and `train_pointwise` are two entries
into one trainer: it assembles each epoch's rows from the training sources
and runs the shared minibatch Adam loop of `mathcore`. itempop is fit from
selection counts and itemknn from item-item cosine similarity. The pairwise
objective is the log-sigmoid margin loss and the pointwise one is sigmoid
cross-entropy; `loss_pairwise`/`loss_pointwise` evaluate them without an
update, which the intervention engine uses as episode rewards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textio
from .corpus import InteractionLog
from .mathcore import RandomStream, TrainingError, minibatch_adam, sigmoid, softplus

GRADIENT_KINDS = ("bpr-mf", "gmf", "mlp", "neumf")
ALL_KINDS = GRADIENT_KINDS + ("itempop", "itemknn")


@dataclass
class RankerHyper:
    lr: float = 1e-3
    epochs: int = 30
    l2: float = 1e-3
    batch_size: int = 512
    neg_per_pos: int = 1


@dataclass
class TrainBatchSource:
    """One origin of training data: observed positives or synthesized samples.

    Observed sources carry (user, item) positives; negatives are resampled
    every epoch from the items the user never selected. Counterfactual
    sources carry ready-made rows: (user, pos, neg) triplets for pairwise
    training, (user, item, label) points for pointwise training.
    """

    origin: str  # "observed" | "counterfactual"
    positives: np.ndarray | None = None  # (n, 2) user, item
    rows: np.ndarray | None = None  # (n, 3) triplets or points
    user_positives: list | None = None

    @classmethod
    def from_log(cls, log: InteractionLog) -> "TrainBatchSource":
        rows, slots = np.nonzero(log.labels == 1)
        return cls(
            origin="observed",
            positives=np.stack([log.users[rows], log.items[rows, slots]], axis=1),
            user_positives=log.positives_by_user(),
        )


class RankingModel:
    kind = "abstract"
    trainable = False

    def __init__(self, n_users: int, n_items: int):
        self.n_users = n_users
        self.n_items = n_items
        self.user_positives: list | None = None

    def score(self, u: int, i: int) -> float:
        return float(self.score_batch(np.array([u]), np.array([i]))[0])

    def score_candidates(self, u: int, items) -> np.ndarray:
        items = np.asarray(items, dtype=np.int64)
        return self.score_batch(np.full(items.shape, u, dtype=np.int64), items)

    def score_batch(self, u, i) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict:
        return {}

    def set_params(self, values: dict) -> None:
        for name, arr in values.items():
            setattr(self, name, np.asarray(arr, dtype=np.float64))


class BprMF(RankingModel):
    kind = "bpr-mf"
    trainable = True

    def __init__(self, n_users, n_items, d, stream: RandomStream):
        super().__init__(n_users, n_items)
        self.P = 0.1 * stream.normal((n_users, d))
        self.Q = 0.1 * stream.normal((n_items, d))

    def params(self):
        return {"P": self.P, "Q": self.Q}

    def score_batch(self, u, i):
        return np.einsum("bd,bd->b", self.P[u], self.Q[i])

    def backward(self, u, i, ds, grads, l2=0.0):
        gi = ds[:, None] * self.Q[i] + l2 * self.P[u]
        gu = ds[:, None] * self.P[u] + l2 * self.Q[i]
        np.add.at(grads["P"], u, gi)
        np.add.at(grads["Q"], i, gu)


class Gmf(RankingModel):
    kind = "gmf"
    trainable = True

    def __init__(self, n_users, n_items, d, stream: RandomStream):
        super().__init__(n_users, n_items)
        self.P = 0.1 * stream.normal((n_users, d))
        self.Q = 0.1 * stream.normal((n_items, d))
        self.h = np.ones(d)

    def params(self):
        return {"P": self.P, "Q": self.Q, "h": self.h}

    def score_batch(self, u, i):
        return (self.P[u] * self.Q[i]) @ self.h

    def backward(self, u, i, ds, grads, l2=0.0):
        pu, qi = self.P[u], self.Q[i]
        grads["h"] += (pu * qi).T @ ds + l2 * self.h
        np.add.at(grads["P"], u, ds[:, None] * (self.h * qi) + l2 * pu)
        np.add.at(grads["Q"], i, ds[:, None] * (self.h * pu) + l2 * qi)


def _tower_init(d, stream):
    """Affine stack 2d -> d -> d//2 with rectifier activations.

    Biases start slightly positive so no unit sits exactly on the rectifier
    kink at initialization.
    """
    d2 = max(d // 2, 1)
    return {
        "W1": stream.normal((d, 2 * d)) * np.sqrt(2.0 / (2 * d)),
        "b1": np.full(d, 0.01),
        "W2": stream.normal((d2, d)) * np.sqrt(2.0 / d),
        "b2": np.full(d2, 0.01),
    }


def _tower_forward(x, W1, b1, W2, b2):
    a1 = x @ W1.T + b1
    h1 = np.maximum(a1, 0.0)
    a2 = h1 @ W2.T + b2
    h2 = np.maximum(a2, 0.0)
    return a1, h1, a2, h2


def _tower_backward(dh2, x, a1, h1, a2, W1, W2, grads, prefix, l2=0.0):
    da2 = dh2 * (a2 > 0)
    grads[prefix + "W2"] += da2.T @ h1 + l2 * W2
    grads[prefix + "b2"] += da2.sum(axis=0)
    dh1 = da2 @ W2
    da1 = dh1 * (a1 > 0)
    grads[prefix + "W1"] += da1.T @ x + l2 * W1
    grads[prefix + "b1"] += da1.sum(axis=0)
    return da1 @ W1  # gradient w.r.t. the concatenated embedding input


class Mlp(RankingModel):
    kind = "mlp"
    trainable = True

    def __init__(self, n_users, n_items, d, stream: RandomStream):
        super().__init__(n_users, n_items)
        self.P = 0.1 * stream.normal((n_users, d))
        self.Q = 0.1 * stream.normal((n_items, d))
        tower = _tower_init(d, stream)
        self.W1, self.b1 = tower["W1"], tower["b1"]
        self.W2, self.b2 = tower["W2"], tower["b2"]
        d2 = self.W2.shape[0]
        self.w_out = 0.1 * stream.normal(d2)
        self.b_out = np.zeros(1)
        self.d = d

    def params(self):
        return {
            "P": self.P,
            "Q": self.Q,
            "W1": self.W1,
            "b1": self.b1,
            "W2": self.W2,
            "b2": self.b2,
            "w_out": self.w_out,
            "b_out": self.b_out,
        }

    def _forward(self, u, i):
        x = np.concatenate([self.P[u], self.Q[i]], axis=1)
        a1, h1, a2, h2 = _tower_forward(x, self.W1, self.b1, self.W2, self.b2)
        return x, a1, h1, a2, h2

    def score_batch(self, u, i):
        _, _, _, _, h2 = self._forward(u, i)
        return h2 @ self.w_out + self.b_out[0]

    def backward(self, u, i, ds, grads, l2=0.0):
        x, a1, h1, a2, h2 = self._forward(u, i)
        grads["w_out"] += h2.T @ ds + l2 * self.w_out
        grads["b_out"] += ds.sum(keepdims=True)
        dh2 = ds[:, None] * self.w_out[None, :]
        dx = _tower_backward(dh2, x, a1, h1, a2, self.W1, self.W2, grads, "", l2)
        d = self.d
        np.add.at(grads["P"], u, dx[:, :d] + l2 * self.P[u])
        np.add.at(grads["Q"], i, dx[:, d:] + l2 * self.Q[i])


class NeuMf(RankingModel):
    """Two-branch scorer: elementwise-product branch and tower branch fused
    by one affine layer, each branch with its own embedding tables."""

    kind = "neumf"
    trainable = True

    def __init__(self, n_users, n_items, d, stream: RandomStream):
        super().__init__(n_users, n_items)
        self.Pg = 0.1 * stream.normal((n_users, d))
        self.Qg = 0.1 * stream.normal((n_items, d))
        self.Pm = 0.1 * stream.normal((n_users, d))
        self.Qm = 0.1 * stream.normal((n_items, d))
        tower = _tower_init(d, stream)
        self.W1, self.b1 = tower["W1"], tower["b1"]
        self.W2, self.b2 = tower["W2"], tower["b2"]
        d2 = self.W2.shape[0]
        self.w_fuse = 0.1 * stream.normal(d + d2)
        self.b_fuse = np.zeros(1)
        self.d = d

    def params(self):
        return {
            "Pg": self.Pg,
            "Qg": self.Qg,
            "Pm": self.Pm,
            "Qm": self.Qm,
            "W1": self.W1,
            "b1": self.b1,
            "W2": self.W2,
            "b2": self.b2,
            "w_fuse": self.w_fuse,
            "b_fuse": self.b_fuse,
        }

    def _forward(self, u, i):
        g = self.Pg[u] * self.Qg[i]
        x = np.concatenate([self.Pm[u], self.Qm[i]], axis=1)
        a1, h1, a2, h2 = _tower_forward(x, self.W1, self.b1, self.W2, self.b2)
        return g, x, a1, h1, a2, h2

    def score_batch(self, u, i):
        g, _, _, _, _, h2 = self._forward(u, i)
        z = np.concatenate([g, h2], axis=1)
        return z @ self.w_fuse + self.b_fuse[0]

    def backward(self, u, i, ds, grads, l2=0.0):
        g, x, a1, h1, a2, h2 = self._forward(u, i)
        z = np.concatenate([g, h2], axis=1)
        grads["w_fuse"] += z.T @ ds + l2 * self.w_fuse
        grads["b_fuse"] += ds.sum(keepdims=True)
        dz = ds[:, None] * self.w_fuse[None, :]
        d = self.d
        dg, dh2 = dz[:, :d], dz[:, d:]
        np.add.at(grads["Pg"], u, dg * self.Qg[i] + l2 * self.Pg[u])
        np.add.at(grads["Qg"], i, dg * self.Pg[u] + l2 * self.Qg[i])
        dx = _tower_backward(dh2, x, a1, h1, a2, self.W1, self.W2, grads, "", l2)
        np.add.at(grads["Pm"], u, dx[:, :d] + l2 * self.Pm[u])
        np.add.at(grads["Qm"], i, dx[:, d:] + l2 * self.Qm[i])


class ItemPop(RankingModel):
    kind = "itempop"

    def __init__(self, n_users, n_items):
        super().__init__(n_users, n_items)
        self.counts = np.zeros(n_items)

    def fit(self, log: InteractionLog) -> "ItemPop":
        selected = log.items[log.labels == 1]
        self.counts = np.bincount(selected, minlength=self.n_items).astype(np.float64)
        self.user_positives = log.positives_by_user()
        return self

    def score_batch(self, u, i):
        return self.counts[np.asarray(i, dtype=np.int64)].astype(np.float64)


class ItemKnn(RankingModel):
    """Neighborhood scorer over item-item cosine similarity of the binary
    interaction matrix; only each item's strongest neighbors contribute."""

    kind = "itemknn"

    def __init__(self, n_users, n_items, neighborhood=20):
        super().__init__(n_users, n_items)
        self.neighborhood = neighborhood
        self.sim = np.zeros((n_items, n_items))

    def fit(self, log: InteractionLog, sim=None) -> "ItemKnn":
        self.user_positives = log.positives_by_user()
        if sim is None:
            mat = np.zeros((self.n_users, self.n_items))
            rows, slots = np.nonzero(log.labels == 1)
            mat[log.users[rows], log.items[rows, slots]] = 1.0
            norms = np.linalg.norm(mat, axis=0)
            norms[norms == 0] = 1.0
            sim = (mat / norms).T @ (mat / norms)
        sim = np.asarray(sim, dtype=np.float64)
        if self.neighborhood < self.n_items:
            kept = np.zeros_like(sim)
            for i in range(self.n_items):
                order = np.lexsort((np.arange(self.n_items), -sim[i]))
                top = order[: self.neighborhood]
                kept[i, top] = sim[i, top]
            sim = kept
        self.sim = sim
        return self

    def score_batch(self, u, i):
        u = np.asarray(u, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        out = np.zeros(len(i))
        for row, (uu, ii) in enumerate(zip(u, i)):
            pos = self.user_positives[uu] if self.user_positives else ()
            if pos:
                out[row] = self.sim[ii, sorted(pos)].sum()
        return out


def make_model(kind, n_users, n_items, d=64, stream=None, neighborhood=20):
    if kind == "bpr-mf":
        return BprMF(n_users, n_items, d, stream)
    if kind == "gmf":
        return Gmf(n_users, n_items, d, stream)
    if kind == "mlp":
        return Mlp(n_users, n_items, d, stream)
    if kind == "neumf":
        return NeuMf(n_users, n_items, d, stream)
    if kind == "itempop":
        return ItemPop(n_users, n_items)
    if kind == "itemknn":
        return ItemKnn(n_users, n_items, neighborhood)
    raise ValueError(f"unknown model kind {kind!r}")


def _zero_grads(model):
    return {k: np.zeros_like(v) for k, v in model.params().items()}


def pairwise_loss_grad(model, u, i, j, l2=0.0):
    """Loss and parameter gradients of -sum log sigmoid(f(u,i) - f(u,j)).

    The optional l2 adds per-occurrence weight decay on the touched rows
    (and once per call on dense weights), matching the training objective.
    """
    u = np.asarray(u, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    margin = model.score_batch(u, i) - model.score_batch(u, j)
    loss = float(np.sum(softplus(-margin)))
    grads = _zero_grads(model)
    dmargin = -sigmoid(-margin)
    model.backward(u, i, dmargin, grads, l2=l2)
    model.backward(u, j, -dmargin, grads, l2=0.0)
    return loss, grads


def pointwise_loss_grad(model, u, i, y, l2=0.0):
    """Loss and gradients of the sigmoid cross-entropy over labeled pairs."""
    u = np.asarray(u, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    s = model.score_batch(u, i)
    loss = float(np.sum(y * softplus(-s) + (1.0 - y) * softplus(s)))
    grads = _zero_grads(model)
    model.backward(u, i, sigmoid(s) - y, grads, l2=l2)
    return loss, grads


def _rows(data, dtype):
    """(n, 3) rows, and the leading shape of a (..., r, 3) stack or None."""
    arr = np.asarray(data, dtype=dtype)
    lead = arr.shape[:-2] if arr.ndim > 2 else None
    return arr.reshape(-1, 3), lead


def _row_losses(values, lead):
    """One float for plain rows, else one sum per leading index. Each block
    of r losses is contiguous, so its sum runs exactly as np.sum over that
    block alone would."""
    if lead is None:
        return float(np.sum(values))
    return values.reshape(lead + (-1,)).sum(axis=-1)


def loss_pairwise(model, triplets):
    """Exact pairwise objective value on given (u, i, j) triplets, no update.

    Triplets shaped (..., r, 3) give one loss per leading index, each the
    sum over its r rows (the intervention engine scores a block of episodes
    in one call this way).
    """
    t, lead = _rows(triplets, np.int64)
    if t.shape[0] == 0:
        return 0.0 if lead is None else np.zeros(lead)
    margin = model.score_batch(t[:, 0], t[:, 1]) - model.score_batch(t[:, 0], t[:, 2])
    return _row_losses(softplus(-margin), lead)


def loss_pointwise(model, points):
    """Exact pointwise cross-entropy on (u, i, label) rows, no update.

    Rows shaped (..., r, 3) give one loss per leading index, as in
    `loss_pairwise`.
    """
    p, lead = _rows(points, None)
    if p.shape[0] == 0:
        return 0.0 if lead is None else np.zeros(lead)
    u = p[:, 0].astype(np.int64)
    i = p[:, 1].astype(np.int64)
    y = p[:, 2].astype(np.float64)
    s = model.score_batch(u, i)
    return _row_losses(y * softplus(-s) + (1.0 - y) * softplus(s), lead)


def _positive_keys(user_positives, n_items) -> np.ndarray:
    """Every (user, positive item) as user * n_items + item, sorted."""
    sizes = [len(items) for items in user_positives]
    users = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    items = np.fromiter(
        (i for items in user_positives for i in items), np.int64, sum(sizes)
    )
    return np.sort(users * n_items + items)


def _sample_negatives(user_positives, users, n_items, stream):
    """One uniform negative per row, rejected against the user's positives.

    Rejected rows are redrawn in row order until none is a positive; the
    lookup is a `searchsorted` over sorted (user, item) keys.
    """
    users = np.asarray(users, dtype=np.int64)
    keys = _positive_keys(user_positives, n_items)
    neg = stream.integers(0, n_items, len(users))
    if keys.size == 0:
        return neg
    for _ in range(1000):
        query = users * n_items + neg
        pos = np.searchsorted(keys, query)
        bad = keys[np.minimum(pos, len(keys) - 1)] == query
        if not bad.any():
            return neg
        neg[bad] = stream.integers(0, n_items, int(bad.sum()))
    raise TrainingError("negative sampling failed; users with no negatives left")


def train_pairwise(model, sources, hyper: RankerHyper, stream: RandomStream):
    """Minimize the pairwise margin loss over all sources, in place.

    Observed sources contribute (u, i, j) with j resampled uniformly from
    the user's never-selected items each epoch; counterfactual sources
    contribute their triplets verbatim.
    """
    return _train(model, sources, hyper, stream, "pairwise")


def train_pointwise(model, sources, hyper: RankerHyper, stream: RandomStream):
    """Minimize the pointwise cross-entropy over all sources, in place;
    observed positives are labeled 1 and their resampled negatives 0."""
    return _train(model, sources, hyper, stream, "pointwise")


def _train(model, sources, hyper, stream, mode):
    if not model.trainable:
        raise ValueError(f"{model.kind} does not support gradient training")
    sources = list(sources)
    for src in sources:
        if src.origin == "observed" and src.user_positives is not None:
            model.user_positives = src.user_positives

    def epoch_rows(epoch):
        parts = []
        for src in sources:
            if src.origin != "observed":
                if src.rows is not None and len(src.rows) > 0:
                    parts.append(src.rows)
                continue
            pos = src.positives
            if pos is None or len(pos) == 0:
                continue
            users = pos[:, 0]
            if mode == "pointwise":  # the positives, then the negatives
                parts.append(np.column_stack([pos, np.ones_like(users)]))
            for _ in range(hyper.neg_per_pos):
                neg = _sample_negatives(
                    src.user_positives, users, model.n_items, stream
                )
                if mode == "pairwise":
                    parts.append(np.column_stack([users, pos[:, 1], neg]))
                else:
                    parts.append(np.column_stack([users, neg, np.zeros_like(users)]))
        return np.concatenate(parts or [np.zeros((0, 3))]).astype(np.int64)

    def loss_grad(params, batch):
        model.set_params(params)
        fn = pairwise_loss_grad if mode == "pairwise" else pointwise_loss_grad
        return fn(model, batch[:, 0], batch[:, 1], batch[:, 2], l2=hyper.l2)

    params = minibatch_adam(
        model.params(), epoch_rows, loss_grad, hyper.lr, hyper.batch_size,
        hyper.epochs, stream, "ranker training",
    )
    model.set_params(params)
    return model


def save_model(model, path) -> None:
    """Checkpoint a model in the shared plain-text matrix format."""
    meta = {"kind": model.kind, "n_users": model.n_users, "n_items": model.n_items}
    if model.kind == "itempop":
        arrays = {"counts": model.counts}
    elif model.kind == "itemknn":
        meta["neighborhood"] = model.neighborhood
        arrays = {"sim": model.sim}
    else:
        arrays = model.params()
    textio.save_matrices(path, arrays, meta)


def load_model(path):
    """Rebuild a model from a checkpoint; training positives are not stored."""
    arrays, meta = textio.load_matrices(path)
    kind = meta["kind"]
    n_users, n_items = int(meta["n_users"]), int(meta["n_items"])
    if kind == "itempop":
        model = ItemPop(n_users, n_items)
        model.counts = arrays["counts"].ravel()
        return model
    if kind == "itemknn":
        model = ItemKnn(n_users, n_items, int(meta["neighborhood"]))
        model.sim = arrays["sim"]
        return model
    d_key = "P" if "P" in arrays else "Pg"
    d = arrays[d_key].shape[1]
    model = make_model(kind, n_users, n_items, d, RandomStream(0))
    flat = {k for k, v in model.params().items() if v.ndim == 1}
    model.set_params(
        {k: (v.ravel() if k in flat else v) for k, v in arrays.items()}
    )
    return model


def recommend_topn(model, u, candidates=None, n=10):
    """Top-n candidate items by score, descending, ties to the lower id.

    With candidates=None every item is ranked except the user's recorded
    training positives.
    """
    if candidates is None:
        exclude = (
            model.user_positives[u] if model.user_positives is not None else set()
        )
        candidates = [i for i in range(model.n_items) if i not in exclude]
    candidates = np.asarray(sorted(candidates), dtype=np.int64)
    if n > len(candidates):
        raise ValueError(f"n={n} exceeds {len(candidates)} candidates")
    scores = model.score_candidates(u, candidates)
    order = np.lexsort((candidates, -scores))
    return [int(c) for c in candidates[order[:n]]]
