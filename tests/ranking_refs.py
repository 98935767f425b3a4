"""Per-user reference scorers and rankers, and models drawn for property
tests of the block ranking path."""

import numpy as np

from cfrank.mathcore import RandomStream
from cfrank.rankers import make_model


def score_candidates(model, u, items):
    """One user's scores against items by a single score_batch call: the
    per-user path that the grid scorer replaced."""
    items = np.asarray(items, dtype=np.int64)
    return model.score_batch(np.full(items.shape, u, dtype=np.int64), items)


def reference_recommend(model, u, candidates, n):
    """Top-n of sorted candidates by one lexsort on (-score, id)."""
    candidates = np.asarray(sorted(candidates), dtype=np.int64)
    scores = score_candidates(model, u, candidates)
    return [int(c) for c in candidates[np.lexsort((candidates, -scores))[:n]]]


def drawn_model(kind, log, seed):
    """A model of any kind over the log with its positives recorded;
    bpr-mf gets item rows drawn from three distinct rows and itempop a
    constant count, so most scores tie exactly. (gmf, mlp and neumf sum a
    pair's score in an order that depends on its row in the batch, so their
    per-user reference breaks exact ties by rounding.)"""
    rs = RandomStream(seed)
    if kind in ("itempop", "itemknn"):
        model = make_model(kind, log.n_users, log.n_items, neighborhood=3).fit(log)
        if kind == "itempop":
            model.counts[:] = 2.0
        return model
    model = make_model(kind, log.n_users, log.n_items, 3, rs)
    if kind == "bpr-mf":
        model.Q = model.Q[rs.integers(0, min(3, log.n_items), log.n_items)]
    model.user_positives = log.positives_by_user()
    return model
