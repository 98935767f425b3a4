"""Target ranking models and their pairwise/pointwise objectives.

Gradient-trainable kinds (bpr-mf, gmf, mlp, neumf) carry hand-derived
backward passes. `train_pairwise` and `train_pointwise` are two entries
into one trainer over one `TrainingData`: each epoch it gives the data's
fixed rows, then its observed positives with fresh negatives, to the
shared minibatch Adam loop of `mathcore`. itempop is fit from
selection counts and itemknn from item-item cosine similarity. The pairwise
objective is the log-sigmoid margin loss and the pointwise one is sigmoid
cross-entropy; `loss_pairwise`/`loss_pointwise` evaluate them without an
update, which the intervention engine uses as episode rewards.

Each gradient kind has one `forward(u, i) -> (scores, activations)`, and
`score_batch` returns its scores. `backward(activations, ds, grads, l2)`
adds the gradient of sum(ds * scores), with l2 decay on the rows and
weights it touched, into `grads` without running the forward again; the
loss gradients run `forward` once per side. Training updates the arrays of
`params()` in place.

Every model scores (user, item) pairs with `score_batch` and a block of
users against a set of items with `score_grid`, which computes the item-side
terms once per call. bpr-mf and gmf make one einsum per block; bpr-mf's grid
scores equal its pair scores bit for bit, and gmf's entries are summed the
same way wherever they sit, so items with equal embeddings tie exactly. mlp
and neumf split the first tower layer into its user and item column halves,
compute the item half once and run the rest of the tower one user row at a
time, agreeing with `score_batch` to rounding. itempop and itemknn score the
grid through `score_batch` over the cross product, bit for bit.
`recommend_topn` ranks a block of users with one `score_grid` and one
`mathcore.top_k` call per BLOCK_ENTRIES score entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import mathcore, textio
from .corpus import InteractionLog
from .mathcore import (
    RandomStream,
    minibatch_adam,
    scatter_add,
    sigmoid,
    softplus,
    top_k,
)

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
class TrainingData:
    """Everything one training call fits, in one record.

    `rows` are ready-made: (user, pos, neg) triplets for pairwise training,
    (user, item, label) points for pointwise training. `positives` are
    observed (user, item) pairs whose negatives are resampled every epoch
    from the items outside the user's `user_positives`, which the trained
    model also records. Each epoch gives `rows` first, then the positives
    with their fresh negatives.
    """

    positives: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), np.int64))
    user_positives: list | None = None
    rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), np.int64))

    @classmethod
    def from_log(cls, log: InteractionLog) -> "TrainingData":
        rows, slots = np.nonzero(log.labels == 1)
        return cls(
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

    def score_batch(self, u, i) -> np.ndarray:
        return self.forward(u, i)[0]

    def forward(self, u, i):
        raise NotImplementedError

    def score_grid(self, users, items) -> np.ndarray:
        """(len(users), len(items)) scores of every user against every item;
        this default scores the cross product through `score_batch`."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        pairs = self.score_batch(np.repeat(users, len(items)), np.tile(items, len(users)))
        return pairs.reshape(len(users), len(items))

    def params(self) -> dict:
        return {}

    def set_params(self, values: dict) -> None:
        for name, arr in values.items():
            setattr(self, name, np.asarray(arr, dtype=np.float64))


def _decayed(grad, l2, param):
    """grad + l2 * param. With l2 == 0 (the pairwise negative pass) the zero
    product is not formed: adding +0.0 changes no bit of a gradient table,
    whose entries start at +0.0 and so are never -0.0."""
    return grad + l2 * param if l2 else grad


class BprMF(RankingModel):
    kind = "bpr-mf"
    trainable = True

    def __init__(self, n_users, n_items, d, stream: RandomStream):
        super().__init__(n_users, n_items)
        self.P = 0.1 * stream.normal((n_users, d))
        self.Q = 0.1 * stream.normal((n_items, d))

    def params(self):
        return {"P": self.P, "Q": self.Q}

    def forward(self, u, i):
        pu, qi = self.P[u], self.Q[i]
        return np.einsum("bd,bd->b", pu, qi), (u, i, pu, qi)

    def score_grid(self, users, items):
        # einsum, not a BLAS product: each entry is summed as score_batch
        # sums it, whatever its position, so tied items stay tied
        return np.einsum("bd,md->bm", self.P[users], self.Q[items])

    def backward(self, acts, ds, grads, l2=0.0):
        u, i, pu, qi = acts
        scatter_add(grads["P"], u, _decayed(ds[:, None] * qi, l2, pu))
        scatter_add(grads["Q"], i, _decayed(ds[:, None] * pu, l2, qi))


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

    def forward(self, u, i):
        pu, qi = self.P[u], self.Q[i]
        g = pu * qi
        return g @ self.h, (u, i, pu, qi, g)

    def score_grid(self, users, items):
        return np.einsum("bd,md->bm", self.P[users] * self.h, self.Q[items])

    def backward(self, acts, ds, grads, l2=0.0):
        u, i, pu, qi, g = acts
        grads["h"] += _decayed(g.T @ ds, l2, self.h)
        scatter_add(grads["P"], u, _decayed(ds[:, None] * (self.h * qi), l2, pu))
        scatter_add(grads["Q"], i, _decayed(ds[:, None] * (self.h * pu), l2, qi))


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


def _tower_grid(p, q, W1, b1, W2, b2, w):
    """(len(p), len(q)) grid of h2(concat(p[r], q[c])) @ w. The item half of
    the first layer is computed once; each user row then adds its own half
    and runs the rest of the tower, so no intermediate exceeds len(q) x d."""
    d = p.shape[1]
    item_half = q @ W1[:, d:].T
    user_half = p @ W1[:, :d].T + b1
    out = np.empty((len(p), len(q)))
    for row, a in enumerate(user_half):
        h1 = np.maximum(item_half + a, 0.0)
        out[row] = np.maximum(h1 @ W2.T + b2, 0.0) @ w
    return out


def _tower_backward(dh2, x, a1, h1, a2, W1, W2, grads, l2=0.0):
    da2 = dh2 * (a2 > 0)
    grads["W2"] += _decayed(da2.T @ h1, l2, W2)
    grads["b2"] += da2.sum(axis=0)
    dh1 = da2 @ W2
    da1 = dh1 * (a1 > 0)
    grads["W1"] += _decayed(da1.T @ x, l2, W1)
    grads["b1"] += da1.sum(axis=0)
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

    def forward(self, u, i):
        x = np.concatenate([self.P[u], self.Q[i]], axis=1)
        a1, h1, a2, h2 = _tower_forward(x, self.W1, self.b1, self.W2, self.b2)
        return h2 @ self.w_out + self.b_out[0], (u, i, x, a1, h1, a2, h2)

    def score_grid(self, users, items):
        tower = _tower_grid(
            self.P[users], self.Q[items], self.W1, self.b1, self.W2, self.b2, self.w_out
        )
        return tower + self.b_out[0]

    def backward(self, acts, ds, grads, l2=0.0):
        u, i, x, a1, h1, a2, h2 = acts
        grads["w_out"] += _decayed(h2.T @ ds, l2, self.w_out)
        grads["b_out"] += ds.sum(keepdims=True)
        dh2 = ds[:, None] * self.w_out[None, :]
        dx = _tower_backward(dh2, x, a1, h1, a2, self.W1, self.W2, grads, l2)
        d = self.d
        scatter_add(grads["P"], u, _decayed(dx[:, :d], l2, x[:, :d]))
        scatter_add(grads["Q"], i, _decayed(dx[:, d:], l2, x[:, d:]))


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

    def forward(self, u, i):
        pu, qi = self.Pg[u], self.Qg[i]
        x = np.concatenate([self.Pm[u], self.Qm[i]], axis=1)
        a1, h1, a2, h2 = _tower_forward(x, self.W1, self.b1, self.W2, self.b2)
        z = np.concatenate([pu * qi, h2], axis=1)
        return z @ self.w_fuse + self.b_fuse[0], (u, i, pu, qi, x, a1, h1, a2, z)

    def score_grid(self, users, items):
        d = self.d
        product = (self.Pg[users] * self.w_fuse[:d]) @ self.Qg[items].T
        tower = _tower_grid(
            self.Pm[users], self.Qm[items], self.W1, self.b1, self.W2, self.b2,
            self.w_fuse[d:],
        )
        return product + tower + self.b_fuse[0]

    def backward(self, acts, ds, grads, l2=0.0):
        u, i, pu, qi, x, a1, h1, a2, z = acts
        grads["w_fuse"] += _decayed(z.T @ ds, l2, self.w_fuse)
        grads["b_fuse"] += ds.sum(keepdims=True)
        dz = ds[:, None] * self.w_fuse[None, :]
        d = self.d
        dg, dh2 = dz[:, :d], dz[:, d:]
        scatter_add(grads["Pg"], u, _decayed(dg * qi, l2, pu))
        scatter_add(grads["Qg"], i, _decayed(dg * pu, l2, qi))
        dx = _tower_backward(dh2, x, a1, h1, a2, self.W1, self.W2, grads, l2)
        scatter_add(grads["Pm"], u, _decayed(dx[:, :d], l2, x[:, :d]))
        scatter_add(grads["Qm"], i, _decayed(dx[:, d:], l2, x[:, d:]))


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
            top = top_k(sim, self.neighborhood)
            kept = np.zeros_like(sim)
            np.put_along_axis(kept, top, np.take_along_axis(sim, top, axis=1), axis=1)
            sim = kept
        self.sim = sim
        return self

    def score_batch(self, u, i):
        """Per row, sim[i, p] summed over the user's positives p in sorted
        order. One gather and one row sum per distinct user: each row is a
        contiguous pairwise sum, as a lone sim[i, sorted(pos)].sum() is."""
        u = np.asarray(u, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        out = np.zeros(len(i))
        if not self.user_positives or len(u) == 0:
            return out
        # rows grouped by user: one sort of user * len(u) + row
        keys = np.sort(u * len(u) + np.arange(len(u)))
        rows = keys % len(u)
        bounds = np.flatnonzero(np.diff(keys // len(u))) + 1
        for group in np.split(rows, bounds):
            pos = self.user_positives[u[group[0]]]
            if pos:
                out[group] = self.sim[np.ix_(i[group], sorted(pos))].sum(axis=1)
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

    The optional l2 adds weight decay from the positive pass only: once per
    occurrence on the user rows u and positive item rows i it touches, and
    once per call on the dense weights. The negative item rows j get none
    (their backward pass runs with l2=0).
    """
    u = np.asarray(u, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    pos, pos_acts = model.forward(u, i)
    neg, neg_acts = model.forward(u, j)
    margin = pos - neg
    loss = float(np.sum(softplus(-margin)))
    grads = _zero_grads(model)
    dmargin = -sigmoid(-margin)
    model.backward(pos_acts, dmargin, grads, l2=l2)
    model.backward(neg_acts, -dmargin, grads, l2=0.0)
    return loss, grads


def pointwise_loss_grad(model, u, i, y, l2=0.0):
    """Loss and gradients of the sigmoid cross-entropy over labeled pairs."""
    u = np.asarray(u, dtype=np.int64)
    i = np.asarray(i, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    s, acts = model.forward(u, i)
    loss = float(np.sum(y * softplus(-s) + (1.0 - y) * softplus(s)))
    grads = _zero_grads(model)
    model.backward(acts, sigmoid(s) - y, grads, l2=l2)
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


def _sample_negatives(keys, users, n_items, stream):
    """One uniform negative per row, outside the user's positives
    (`mathcore.sample_excluding` over the `_positive_keys`)."""
    users = np.asarray(users, dtype=np.int64)
    return mathcore.sample_excluding(
        keys, users, n_items, n_items, len(users), stream,
        "users with no negatives left",
    )


def train_pairwise(model, data: TrainingData, hyper: RankerHyper, stream: RandomStream):
    """Minimize the pairwise margin loss over `data`, in place: its triplet
    rows verbatim, and (u, i, j) per positive with j resampled uniformly
    from the user's never-selected items each epoch."""
    return _train(model, data, hyper, stream, "pairwise")


def train_pointwise(model, data: TrainingData, hyper: RankerHyper, stream: RandomStream):
    """Minimize the pointwise cross-entropy over `data`, in place; its
    points verbatim, positives labeled 1 and their resampled negatives 0."""
    return _train(model, data, hyper, stream, "pointwise")


def _epoch_rows(data, keys, mode, neg_per_pos, n_items, stream):
    """One epoch's int64 rows: `data.rows`, then the positives (pointwise
    only) and `neg_per_pos` rounds of negatives drawn against `keys`, the
    `_positive_keys` of the data (None when it has no positives)."""
    parts = [data.rows]
    if keys is not None:
        pos = data.positives
        users = pos[:, 0]
        if mode == "pointwise":  # the positives, then the negatives
            parts.append(np.column_stack([pos, np.ones_like(users)]))
        for _ in range(neg_per_pos):
            neg = _sample_negatives(keys, users, n_items, stream)
            if mode == "pairwise":
                parts.append(np.column_stack([users, pos[:, 1], neg]))
            else:
                parts.append(np.column_stack([users, neg, np.zeros_like(users)]))
    return np.concatenate(parts).astype(np.int64)


def _train(model, data, hyper, stream, mode):
    if not model.trainable:
        raise ValueError(f"{model.kind} does not support gradient training")
    if hyper.neg_per_pos < 1:
        raise ValueError(f"neg_per_pos={hyper.neg_per_pos} must be >= 1")
    keys = None  # the negatives' exclusion keys, built once
    if len(data.positives) > 0:
        if data.user_positives is None:
            raise ValueError("TrainingData with positives needs user_positives")
        keys = _positive_keys(data.user_positives, model.n_items)
    if data.user_positives is not None:
        model.user_positives = data.user_positives
    fn = pairwise_loss_grad if mode == "pairwise" else pointwise_loss_grad

    def loss_grad(params, batch):
        return fn(model, batch[:, 0], batch[:, 1], batch[:, 2], l2=hyper.l2)

    minibatch_adam(
        model.params(),
        lambda epoch: _epoch_rows(
            data, keys, mode, hyper.neg_per_pos, model.n_items, stream
        ),
        loss_grad, hyper.lr, hyper.batch_size, hyper.epochs, stream,
        "ranker training",
    )
    return model


def model_state(model) -> tuple[dict, dict]:
    """(arrays, meta) of a model: what its checkpoint holds and
    `model_from_state` rebuilds it from. The arrays are the model's own."""
    meta = {"kind": model.kind, "n_users": model.n_users, "n_items": model.n_items}
    if model.kind == "itempop":
        arrays = {"counts": model.counts}
    elif model.kind == "itemknn":
        meta["neighborhood"] = model.neighborhood
        arrays = {"sim": model.sim}
    else:
        arrays = model.params()
    return arrays, meta


def model_from_state(arrays, meta, source="model state"):
    """Rebuild a model from `model_state`'s (arrays, meta) or a checkpoint's
    (1-D blocks may come as 1xN); a missing entry raises ValueError naming
    `source`. Training positives are not part of the state."""
    textio.require(source, arrays, meta, keys=("kind", "n_users", "n_items"))
    kind = meta["kind"]
    n_users, n_items = int(meta["n_users"]), int(meta["n_items"])
    if kind == "itempop":
        textio.require(source, arrays, meta, blocks=("counts",))
        model = ItemPop(n_users, n_items)
        model.counts = arrays["counts"].ravel()
        return model
    if kind == "itemknn":
        textio.require(source, arrays, meta, blocks=("sim",), keys=("neighborhood",))
        model = ItemKnn(n_users, n_items, int(meta["neighborhood"]))
        model.sim = arrays["sim"]
        return model
    d_key = "Pg" if kind == "neumf" else "P"
    textio.require(source, arrays, meta, blocks=(d_key,))
    model = make_model(kind, n_users, n_items, arrays[d_key].shape[1], RandomStream(0))
    textio.require(source, arrays, meta, blocks=model.params())
    flat = {k for k, v in model.params().items() if v.ndim == 1}
    model.set_params(
        {k: (v.ravel() if k in flat else v) for k, v in arrays.items()}
    )
    return model


def save_model(model, path) -> None:
    """Checkpoint a model in the shared plain-text matrix format."""
    textio.save_matrices(path, *model_state(model))


def load_model(path):
    """Rebuild a model from a checkpoint; training positives are not stored."""
    return model_from_state(*textio.load_matrices(path), source=path)


def _check_ids(ids, limit, what):
    bad = ids[(ids < 0) | (ids >= limit)]
    if len(bad):
        raise ValueError(f"{what} id {bad[0]} outside [0, {limit})")


def recommend_topn(model, users, candidates=None, n=10, exclude=None):
    """Top-n items by score, descending, ties to the lower id: one list for
    a scalar user, one list per user for an array of users.

    Explicit candidates (distinct ids, at least n of them) are ranked for
    every user. With candidates=None each user ranks the whole catalog
    except `exclude[user]` (default: the model's recorded training
    positives) and keeps the first min(n, items left) entries. Users are
    ranked in blocks of BLOCK_ENTRIES // len(items): one `score_grid` call
    and one `top_k` call per block, excluded items scored -inf and dropped.
    """
    scalar = np.ndim(users) == 0
    users = np.atleast_1d(np.asarray(users, dtype=np.int64))
    _check_ids(users, model.n_users, "user")
    if n < 0:
        raise ValueError(f"n={n} must be >= 0")
    if candidates is None:
        items = np.arange(model.n_items)
        exclude = model.user_positives if exclude is None else exclude
    else:
        items = np.sort(np.asarray(candidates, dtype=np.int64))
        _check_ids(items, model.n_items, "candidate")
        repeated = items[1:][items[1:] == items[:-1]]
        if len(repeated):
            raise ValueError(f"candidate id {repeated[0]} repeated")
        if n > len(items):
            raise ValueError(f"n={n} exceeds {len(items)} candidates")
        exclude = None
    lists = []
    rows = max(1, mathcore.BLOCK_ENTRIES // max(len(items), 1))
    for start in range(0, len(users), rows):
        block = users[start : start + rows].tolist()
        scores = model.score_grid(block, items)
        if not exclude:
            lists += items[top_k(scores, min(n, len(items)))].tolist()
            continue
        sizes = [len(exclude[u]) for u in block]
        masked = np.zeros(scores.shape, dtype=bool)
        masked[
            np.repeat(np.arange(len(block)), sizes),
            np.fromiter((i for u in block for i in exclude[u]), np.int64, sum(sizes)),
        ] = True
        scores[masked] = -np.inf
        # each row's first n + |excluded| ids hold its first n others
        top = top_k(scores, min(n + max(sizes), len(items)))
        keep = ~np.take_along_axis(masked, top, axis=1)
        lists += [ids[ok][:n].tolist() for ids, ok in zip(top, keep)]
    return lists[0] if scalar else lists
