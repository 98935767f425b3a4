from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfrank.corpus import InteractionLog, Record, load_mind_behaviors
from log_strategies import valid_logs
from cfrank.mathcore import RandomStream, TrainingError, logsumexp, sigmoid, softplus
from cfrank.simulator import (
    ImpressionHyper,
    PosteriorHyper,
    SelectionHyper,
    SimParams,
    VariationalPosterior,
    _impression_loss_grads,
    _is_shown,
    _log_arrays,
    _posterior_terms,
    _sample_record_negatives,
    _selection_loss_grads,
    _shown_keys,
    counterfactual_select,
    elbo_value_and_grads,
    fit_posterior,
    impression_logit,
    load_posterior,
    load_sim_params,
    save_posterior,
    save_sim_params,
    slot_probs,
    train_impression_model,
    train_selection_model,
)


def rand_params(n_users, n_items, k, d=3, seed=0, scale=1.0):
    rs = RandomStream(seed)
    return SimParams(
        P=scale * rs.normal((n_users, d)),
        Q=scale * rs.normal((n_items, d)),
        w_r=scale * rs.normal(n_items),
        X=scale * rs.normal((n_users, d)),
        Y=scale * rs.normal((n_items, d)),
        w_s=scale * rs.normal(k),
    )


class TestElementaryProbs:
    def test_logit_zero_params(self):
        p = rand_params(1, 2, 2, seed=1, scale=0.0)
        assert impression_logit(p, 0, 0, np.zeros(2)) == 0.0

    def test_logit_dot_product(self):
        p = rand_params(1, 1, 1, d=2, scale=0.0)
        p.P[0] = [1.0, 1.0]
        p.Q[0] = [1.0, 1.0]
        p.w_r[0] = 0.5
        assert impression_logit(p, 0, 0, np.array([2.0])) == pytest.approx(3.0)

    def test_logit_alpha_zero_reduces(self):
        p = rand_params(2, 3, 2, seed=5)
        assert impression_logit(p, 1, 2, np.zeros(3)) == pytest.approx(
            float(p.P[1] @ p.Q[2])
        )

    def test_slot_probs_sum_to_one(self):
        for seed in range(50):
            p = rand_params(2, 8, 5, seed=seed)
            beta = RandomStream(seed + 1000).normal(5)
            probs = slot_probs(p, 0, [3, 1, 4, 0, 6], beta)
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_prob_select_beta_zero_ordering(self):
        p = rand_params(1, 4, 3, seed=2)
        probs = slot_probs(p, 0, [0, 1, 2], np.zeros(3))
        logits = [float(p.X[0] @ p.Y[i]) + p.w_s[t] * 0 for t, i in enumerate([0, 1, 2])]
        assert np.argsort(probs).tolist() == np.argsort(logits).tolist()


def always_item_zero_log(n_records=30):
    return InteractionLog.from_records(
        1, 2, [Record(0, [0], [1]) for _ in range(n_records)]
    ).validate()


class TestImpressionTraining:
    def test_separable_toy(self):
        log = always_item_zero_log()
        hyper = ImpressionHyper(d_r=2, lr=0.05, epochs=60, neg_per_pos=1, alpha_draws=1)
        params = train_impression_model(log, hyper, RandomStream(3))
        zero = np.zeros(2)
        s_pos = sigmoid(impression_logit(params, 0, 0, zero))
        s_neg = sigmoid(impression_logit(params, 0, 1, zero))
        assert s_pos > 0.9 > s_neg

    def test_zero_epochs_returns_init(self):
        log = always_item_zero_log(5)
        hyper = ImpressionHyper(d_r=4, epochs=0)
        a = train_impression_model(log, hyper, RandomStream(1))
        b = train_impression_model(log, hyper, RandomStream(1))
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)
        assert np.array_equal(a.w_r, np.full(2, 0.1))

    def test_gradients_match_finite_differences(self):
        from cfrank.mathcore import finite_diff_check

        rs = RandomStream(17)
        nu, ni, d, k = 2, 5, 3, 2
        P, Q = rs.normal((nu, d)), rs.normal((ni, d))
        w = rs.normal(ni)
        users = np.array([0, 1, 1])
        pos = np.array([[0, 1], [2, 3], [4, 0]])
        mask = np.ones((3, 2), bool)
        neg = np.array([[2, 3], [0, 1], [1, 2]])
        alpha = rs.normal(ni)

        def pack(P, Q, w):
            return np.concatenate([P.ravel(), Q.ravel(), w])

        def loss(v):
            P2 = v[: nu * d].reshape(nu, d)
            Q2 = v[nu * d : nu * d + ni * d].reshape(ni, d)
            w2 = v[nu * d + ni * d :]
            return _impression_loss_grads(P2, Q2, w2, users, pos, mask, neg, alpha)[0]

        _, gP, gQ, gw = _impression_loss_grads(P, Q, w, users, pos, mask, neg, alpha)
        assert finite_diff_check(loss, pack(P, Q, w), pack(gP, gQ, gw)) < 1e-4

    def test_reproducible(self):
        log = always_item_zero_log(10)
        hyper = ImpressionHyper(d_r=2, epochs=5)
        a = train_impression_model(log, hyper, RandomStream(5))
        b = train_impression_model(log, hyper, RandomStream(5))
        assert np.array_equal(a.P, b.P) and np.array_equal(a.Q, b.Q)


def slot_zero_log(n_records=30):
    return InteractionLog.from_records(
        1, 3, [Record(0, [0, 1, 2], [1, 0, 0]) for _ in range(n_records)]
    ).validate()


class TestSelectionTraining:
    def test_dominant_slot(self):
        log = slot_zero_log()
        hyper = SelectionHyper(d_s=2, lr=0.05, epochs=80, beta_draws=1)
        params = train_selection_model(log, hyper, RandomStream(4))
        probs = slot_probs(params, 0, [0, 1, 2], np.zeros(3))
        assert probs[0] > 0.9

    def test_all_selected_gradient_zero_at_uniform(self):
        from cfrank.simulator import _selection_loss_grads

        nu, ni, d, k = 1, 3, 2, 3
        X, Y = np.zeros((nu, d)), np.zeros((ni, d))
        w_s = np.zeros(k)
        users = np.array([0])
        items = np.array([[0, 1, 2]])
        mask = np.ones((1, 3), bool)
        sel = np.ones((1, 3))
        _, gX, gY, gw = _selection_loss_grads(
            X, Y, w_s, users, items, mask, sel, sel.sum(1), np.zeros(k)
        )
        assert np.allclose(gX, 0) and np.allclose(gY, 0) and np.allclose(gw, 0)

    def test_empty_selection_records_skipped(self):
        log = InteractionLog.from_records(
            1, 3, [Record(0, [0, 1, 2], [0, 0, 0])] * 4 + [Record(0, [0, 1, 2], [1, 0, 0])]
        ).validate()
        hyper = SelectionHyper(d_s=2, epochs=3)
        params = train_selection_model(log, hyper, RandomStream(1))
        assert np.all(np.isfinite(params.X))

    def test_gradients_match_finite_differences(self):
        from cfrank.mathcore import finite_diff_check
        from cfrank.simulator import _selection_loss_grads

        rs = RandomStream(23)
        nu, ni, d, k = 2, 6, 3, 3
        X, Y, w_s = rs.normal((nu, d)), rs.normal((ni, d)), rs.normal(k)
        users = np.array([0, 1])
        items = np.array([[0, 1, 2], [3, 4, 5]])
        mask = np.ones((2, 3), bool)
        sel = np.array([[1.0, 0, 1], [0, 1, 0]])
        beta = rs.normal(k)

        def pack(X, Y, w):
            return np.concatenate([X.ravel(), Y.ravel(), w])

        def loss(v):
            X2 = v[: nu * d].reshape(nu, d)
            Y2 = v[nu * d : nu * d + ni * d].reshape(ni, d)
            w2 = v[nu * d + ni * d :]
            return _selection_loss_grads(
                X2, Y2, w2, users, items, mask, sel, sel.sum(1), beta
            )[0]

        _, gX, gY, gw = _selection_loss_grads(
            X, Y, w_s, users, items, mask, sel, sel.sum(1), beta
        )
        assert finite_diff_check(loss, pack(X, Y, w_s), pack(gX, gY, gw)) < 1e-4


class TestTrainingSizes:
    @pytest.mark.parametrize(
        "train, hyper, field",
        [
            (train_impression_model, ImpressionHyper(batch_size=-1), "batch_size"),
            (train_impression_model, ImpressionHyper(batch_size=0), "batch_size"),
            (train_impression_model, ImpressionHyper(epochs=-1), "epochs"),
            (train_impression_model, ImpressionHyper(alpha_draws=0), "alpha_draws"),
            (train_selection_model, SelectionHyper(batch_size=-1), "batch_size"),
            (train_selection_model, SelectionHyper(batch_size=0), "batch_size"),
            (train_selection_model, SelectionHyper(epochs=-1), "epochs"),
            (train_selection_model, SelectionHyper(beta_draws=0), "beta_draws"),
        ],
    )
    def test_bad_size_rejected(self, train, hyper, field):
        with pytest.raises(ValueError, match=f"^{field}="):
            train(slot_zero_log(4), hyper, RandomStream(1))

    @pytest.mark.parametrize(
        "hyper, field",
        [(PosteriorHyper(mc_samples=0), "mc_samples"), (PosteriorHyper(epochs=-1), "epochs")],
    )
    def test_bad_posterior_size_rejected(self, hyper, field):
        params = rand_params(1, 3, 3, seed=2)
        with pytest.raises(ValueError, match=f"^{field}="):
            fit_posterior(params, slot_zero_log(4), hyper, RandomStream(1))

    @pytest.mark.parametrize(
        "train, hyper, log, what",
        [
            (train_impression_model, ImpressionHyper(d_r=2, lr=1e300, epochs=3),
             always_item_zero_log(12), "exposure"),
            (train_selection_model, SelectionHyper(d_s=2, lr=1e300, epochs=3),
             slot_zero_log(12), "selection"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, train, hyper, log, what):
        with pytest.raises(TrainingError, match=f"{what} training diverged at epoch 1"):
            train(log, hyper, RandomStream(1))


def reference_impression_loss_grads(
    P, Q, w_r, users, pos_items, pos_mask, neg_items, alpha
):
    """The exposure loss and gradients with np.add.at scatters."""
    k = pos_items.shape[1]
    neg_mask = np.tile(pos_mask, neg_items.shape[1] // k)

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
    gP, gQ, gw = np.zeros_like(P), np.zeros_like(Q), np.zeros_like(w_r)
    for item_mat, dz in (
        (pos_items, -sigmoid(-z_pos) * pos_mask),
        (neg_items, sigmoid(z_neg) * neg_mask),
    ):
        np.add.at(gP, users, np.einsum("bk,bkd->bd", dz, Q[item_mat]))
        flat_items, flat_dz = item_mat.ravel(), dz.ravel()
        np.add.at(
            gQ, flat_items, flat_dz[:, None] * P[np.repeat(users, item_mat.shape[1])]
        )
        np.add.at(gw, flat_items, flat_dz * alpha[flat_items])
    return loss, gP, gQ, gw


def reference_selection_loss_grads(X, Y, w_s, users, items, mask, sel, n_sel, beta):
    """The selection loss and gradients with np.add.at scatters."""
    k = items.shape[1]
    z = np.einsum("bd,bkd->bk", X[users], Y[items]) + (w_s[:k] * beta[:k])[None, :]
    z = np.where(mask, z, -np.inf)
    logp = z - logsumexp(z, axis=1)[:, None]
    loss = -float(np.sum(sel * np.where(mask, logp, 0.0)))
    dz = n_sel[:, None] * np.where(mask, np.exp(logp), 0.0) - sel
    gX, gY = np.zeros_like(X), np.zeros_like(Y)
    np.add.at(gX, users, np.einsum("bk,bkd->bd", dz, Y[items]))
    np.add.at(gY, items.ravel(), dz.ravel()[:, None] * X[np.repeat(users, k)])
    return loss, gX, gY, (dz * beta[:k][None, :]).sum(axis=0)


def assert_grads_match(got, want):
    # atol covers entries that cancel to ~0, where a relative bound means nothing
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


class TestScatterFreeGradients:
    """The dense-matmul gradients equal the np.add.at scatters they replace."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_users=st.integers(1, 4),
        n_items=st.integers(1, 7),
        batch=st.integers(1, 9),
        k=st.integers(1, 4),
        reps=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n_users=1, n_items=1, batch=1, k=1, reps=1, seed=0)
    @example(n_users=3, n_items=5, batch=1, k=3, reps=2, seed=7)
    def test_match_add_at(self, n_users, n_items, batch, k, reps, seed):
        rs = RandomStream(seed)
        d = 3
        users = rs.integers(0, n_users, batch)
        items = rs.integers(0, n_items, (batch, k))
        lengths = rs.integers(1, k + 1, batch)
        mask = np.arange(k)[None, :] < lengths[:, None]
        items = np.where(mask, items, 0)
        P, Q, w = rs.normal((n_users, d)), rs.normal((n_items, d)), rs.normal(n_items)
        neg = rs.integers(0, n_items, (batch, reps * k))
        alpha = rs.normal(n_items)
        got = _impression_loss_grads(P, Q, w, users, items, mask, neg, alpha)
        want = reference_impression_loss_grads(P, Q, w, users, items, mask, neg, alpha)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert_grads_match(got[1:], want[1:])

        sel = (rs.normal((batch, k)) > 0.3) & mask
        sel = sel.astype(np.float64)
        w_s, beta = rs.normal(k), rs.normal(k)
        args = (P, Q, w_s, users, items, mask, sel, sel.sum(axis=1), beta)
        got = _selection_loss_grads(*args)
        want = reference_selection_loss_grads(*args)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert_grads_match(got[1:], want[1:])


def reference_sample_record_negatives(shown_lookup, rows, n_neg, n_items, stream):
    """Rejection sampling against a dense (records x items) shown mask."""
    neg = stream.integers(0, n_items, (len(rows), n_neg))
    for _ in range(1000):
        bad = shown_lookup[rows[:, None], neg]
        if not bad.any():
            return neg
        neg[bad] = stream.integers(0, n_items, int(bad.sum()))
    raise AssertionError("reference sampler did not finish")


class TestRecordNegatives:
    def test_matches_dense_mask_on_same_stream(self):
        rs = RandomStream(31)
        n_items = 9
        records = []
        for r in range(40):
            length = int(rs.integers(1, 8))  # up to 7 of 9 items shown
            items = rs.permutation(n_items)[:length].tolist()
            records.append(Record(r % 6, items, [0] * length))
        arrays = _log_arrays(InteractionLog.from_records(6, n_items, records).validate())
        dense = np.zeros((len(records), n_items), dtype=bool)
        for r, rec in enumerate(records):
            dense[r, rec.items] = True

        keys = _shown_keys(arrays)
        every_row = np.arange(len(records))
        all_items = np.tile(np.arange(n_items), (len(records), 1))
        assert np.array_equal(_is_shown(keys, every_row, all_items, n_items), dense)

        ours, theirs = RandomStream(5), RandomStream(5)
        for _ in range(6):
            rows = ours.permutation(len(records))[:16]
            assert np.array_equal(rows, theirs.permutation(len(records))[:16])
            got = _sample_record_negatives(keys, rows, 12, n_items, ours)
            want = reference_sample_record_negatives(dense, rows, 12, n_items, theirs)
            assert np.array_equal(got, want)
            assert not dense[rows[:, None], got].any()


def reference_log_arrays(log, list_len=None):
    """(users, items, mask, sel, n_sel, list_len) filled record by record."""
    records = log.records
    k = list_len if list_len is not None else log.list_len
    n = len(records)
    users = np.zeros(n, dtype=np.int64)
    items = np.zeros((n, k), dtype=np.int64)
    mask = np.zeros((n, k), dtype=bool)
    sel = np.zeros((n, k))
    for idx, rec in enumerate(records):
        users[idx] = rec.user
        m = len(rec.items)
        items[idx, :m] = rec.items
        mask[idx, :m] = True
        sel[idx, :m] = rec.labels
    return users, items, mask, sel, sel.sum(axis=1), k


class TestLogArrays:
    @settings(max_examples=150, deadline=None)
    @given(drawn=valid_logs(), extra=st.one_of(st.none(), st.integers(0, 3)))
    def test_matches_record_loop(self, drawn, extra):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        list_len = None if extra is None else log.list_len + extra
        arrays = _log_arrays(log, list_len)
        want = reference_log_arrays(log, list_len)
        got = (arrays.users, arrays.items, arrays.mask, arrays.sel, arrays.n_sel)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert arrays.list_len == want[5]
        assert (arrays.n_users, arrays.n_items) == (n_users, n_items)
        if records:  # the columns are viewed, not copied
            assert arrays.users is log.users
            assert (arrays.items is log.items) == (not extra)

    def test_rejects_short_list_len(self):
        log = InteractionLog.from_records(1, 3, [Record(0, [0, 1, 2], [1, 0, 0])])
        with pytest.raises(ValueError, match="below the log"):
            _log_arrays(log, list_len=2)


class TestLossMonotone:
    def eval_impression_loss(self, params, log):
        arrays = _log_arrays(log)
        idx = np.arange(len(log.records))
        neg = RandomStream(999).integers(0, arrays.n_items, (len(idx), arrays.list_len))
        loss, _, _, _ = _impression_loss_grads(
            params.P,
            params.Q,
            params.w_r,
            arrays.users,
            arrays.items,
            arrays.mask,
            neg,
            np.zeros(arrays.n_items),
        )
        return loss

    def test_median_loss_nonincreasing(self):
        world_log = InteractionLog.from_records(
            4,
            10,
            [
                Record(u, [(u + r) % 10, (u + r + 3) % 10, (u + r + 6) % 10], [1, 0, 1])
                for u in range(4)
                for r in range(6)
            ],
        ).validate()
        checkpoints = {0: [], 4: [], 12: []}
        for seed in range(5):
            for epochs in checkpoints:
                params = train_impression_model(
                    world_log,
                    ImpressionHyper(d_r=3, epochs=epochs, alpha_draws=1),
                    RandomStream(seed),
                )
                checkpoints[epochs].append(self.eval_impression_loss(params, world_log))
        med = {e: float(np.median(v)) for e, v in checkpoints.items()}
        assert med[4] <= med[0] and med[12] <= med[4]


def grid_posterior_mean(w_s, n_records, span=6.0, step=0.05):
    """Exact posterior mean over beta for records that always select slot 0
    of a two-slot list with zero embeddings, by 2-D quadrature."""
    grid = np.arange(-span, span + step, step)
    b1, b2 = np.meshgrid(grid, grid, indexing="ij")
    loglik = n_records * (
        w_s[0] * b1 - np.logaddexp(w_s[0] * b1, w_s[1] * b2)
    )
    logprior = -0.5 * (b1**2 + b2**2)
    weight = np.exp(loglik + logprior)
    weight /= weight.sum()
    return np.array([(b1 * weight).sum(), (b2 * weight).sum()])


def two_slot_params():
    return SimParams(
        P=np.zeros((1, 1)),
        Q=np.zeros((2, 1)),
        w_r=np.zeros(2),
        X=np.zeros((1, 1)),
        Y=np.zeros((2, 1)),
        w_s=np.array([1.0, 1.0]),
    )


def two_slot_log(n_records=20):
    return InteractionLog.from_records(
        1, 2, [Record(0, [0, 1], [1, 0]) for _ in range(n_records)]
    ).validate()


class TestPosterior:
    def test_empty_log_returns_prior(self):
        params = two_slot_params()
        post = fit_posterior(
            params,
            InteractionLog.from_records(1, 2, []),
            PosteriorHyper(epochs=50, mc_samples=4),
            RandomStream(2),
        )
        assert np.allclose(post.mu_alpha, 0.0) and np.allclose(post.sigma_alpha, 1.0)
        assert np.allclose(post.mu_beta, 0.0) and np.allclose(post.sigma_beta, 1.0)

    def test_matches_grid_posterior_mean(self):
        params = two_slot_params()
        log = two_slot_log(12)
        post = fit_posterior(
            params,
            log,
            PosteriorHyper(lr=0.03, epochs=800, mc_samples=64),
            RandomStream(6),
        )
        exact = grid_posterior_mean(params.w_s, 12)
        assert abs(post.mu_beta[0] - exact[0]) < 0.05
        assert abs(post.mu_beta[1] - exact[1]) < 0.05

    def test_sign_of_learned_mean(self):
        params = two_slot_params()
        post = fit_posterior(
            params,
            two_slot_log(30),
            PosteriorHyper(lr=0.05, epochs=200, mc_samples=8),
            RandomStream(9),
        )
        assert post.mu_beta[0] > 0 > post.mu_beta[1]

    def test_elbo_not_worse_than_prior(self):
        params = two_slot_params()
        log = two_slot_log(15)
        post = fit_posterior(
            params, log, PosteriorHyper(lr=0.05, epochs=200, mc_samples=8), RandomStream(3)
        )
        arrays = _log_arrays(log, list_len=2)
        eps_a = RandomStream(77).normal((1000, 2))
        eps_b = RandomStream(78).normal((1000, 2))
        fitted, _ = elbo_value_and_grads(
            params,
            arrays,
            post.mu_alpha,
            np.log(post.sigma_alpha),
            post.mu_beta,
            np.log(post.sigma_beta),
            eps_a,
            eps_b,
        )
        prior, _ = elbo_value_and_grads(
            params, arrays, np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2), eps_a, eps_b
        )
        assert fitted >= prior

    def test_elbo_gradients_match_finite_differences(self):
        from cfrank.mathcore import finite_diff_check

        rs = RandomStream(41)
        params = rand_params(2, 4, 2, d=2, seed=13)
        log = InteractionLog.from_records(
            2, 4, [Record(0, [0, 1], [1, 0]), Record(1, [2, 3], [0, 1])]
        ).validate()
        arrays = _log_arrays(log)
        ni, k = 4, 2
        eps_a = rs.normal((3, ni))
        eps_b = rs.normal((3, k))
        mu_a, rho_a = 0.3 * rs.normal(ni), 0.2 * rs.normal(ni)
        mu_b, rho_b = 0.3 * rs.normal(k), 0.2 * rs.normal(k)

        def pack(*vs):
            return np.concatenate([v.ravel() for v in vs])

        def loss(v):
            ma, ra = v[:ni], v[ni : 2 * ni]
            mb, rb = v[2 * ni : 2 * ni + k], v[2 * ni + k :]
            return -elbo_value_and_grads(params, arrays, ma, ra, mb, rb, eps_a, eps_b)[0]

        _, g = elbo_value_and_grads(params, arrays, mu_a, rho_a, mu_b, rho_b, eps_a, eps_b)
        err = finite_diff_check(
            loss,
            pack(mu_a, rho_a, mu_b, rho_b),
            pack(g["mu_a"], g["rho_a"], g["mu_b"], g["rho_b"]),
        )
        assert err < 1e-4


def reference_elbo(params, arrays, mu_a, rho_a, mu_b, rho_b, eps_a, eps_b, block=8):
    """The ELBO with every likelihood term recomputed on every draw."""
    k = arrays.list_len
    n_items = params.Q.shape[0]
    slot_users = np.repeat(arrays.users, k)[arrays.mask.ravel()]
    slot_items = arrays.items.ravel()[arrays.mask.ravel()]
    shows_u = np.bincount(slot_users, minlength=params.P.shape[0]).astype(float)
    shows_i = np.bincount(slot_items, minlength=n_items).astype(float)
    active = np.nonzero(shows_u)[0]

    def alpha_term(alpha):
        if arrays.users.size == 0:
            return 0.0, np.zeros(n_items)
        wa = params.w_r * alpha
        value = float(np.sum(params.P[slot_users] * params.Q[slot_items]))
        value += float(wa[slot_items].sum())
        soft_mass = np.zeros(n_items)
        for start in range(0, len(active), block):
            users = active[start : start + block]
            z = params.P[users] @ params.Q.T + wa[None, :]
            lse = logsumexp(z, axis=1)
            value -= float(shows_u[users] @ lse)
            soft_mass += shows_u[users] @ np.exp(z - lse[:, None])
        return value, (shows_i - soft_mass) * params.w_r

    def beta_term(beta):
        if arrays.users.size == 0:
            return 0.0, np.zeros(k)
        z = np.einsum(
            "bd,bkd->bk", params.X[arrays.users], params.Y[arrays.items]
        ) + (params.w_s[:k] * beta[:k])[None, :]
        z = np.where(arrays.mask, z, -np.inf)
        logp = z - logsumexp(z, axis=1)[:, None]
        value = float(np.sum(arrays.sel * np.where(arrays.mask, logp, 0.0)))
        p = np.where(arrays.mask, np.exp(logp), 0.0)
        dz = arrays.sel - arrays.n_sel[:, None] * p
        return value, (dz * params.w_s[:k][None, :]).sum(axis=0)

    sigma_a, sigma_b = np.exp(rho_a), np.exp(rho_b)
    dim = mu_a.size + mu_b.size
    prior = -0.5 * (
        np.sum(mu_a**2 + sigma_a**2) + np.sum(mu_b**2 + sigma_b**2)
    ) - 0.5 * dim * np.log(2 * np.pi)
    entropy = np.sum(rho_a) + np.sum(rho_b) + 0.5 * dim * (1.0 + np.log(2 * np.pi))
    n = eps_a.shape[0]
    lik = 0.0
    g = {key: 0.0 for key in ("mu_a", "rho_a", "mu_b", "rho_b")}
    for s in range(n):
        va, ga = alpha_term(mu_a + sigma_a * eps_a[s])
        vb, gb = beta_term(mu_b + sigma_b * eps_b[s])
        lik += va + vb
        g["mu_a"] = g["mu_a"] + ga
        g["rho_a"] = g["rho_a"] + ga * eps_a[s] * sigma_a
        g["mu_b"] = g["mu_b"] + gb
        g["rho_b"] = g["rho_b"] + gb * eps_b[s] * sigma_b
    grads = {
        "mu_a": mu_a - g["mu_a"] / n,
        "rho_a": sigma_a**2 - 1.0 - g["rho_a"] / n,
        "mu_b": mu_b - g["mu_b"] / n,
        "rho_b": sigma_b**2 - 1.0 - g["rho_b"] / n,
    }
    return float(prior + entropy + lik / n), grads


class TestCachedElbo:
    """The ELBO over cached frozen terms equals the per-draw computation."""

    def check(self, params, log):
        arrays = _log_arrays(log, list_len=params.list_len)
        rs = RandomStream(8)
        ni, k = params.n_items, params.list_len
        eps_a, eps_b = rs.normal((4, ni)), rs.normal((4, k))
        point = (
            0.3 * rs.normal(ni),
            0.2 * rs.normal(ni),
            0.3 * rs.normal(k),
            0.2 * rs.normal(k),
        )
        want_value, want = reference_elbo(params, arrays, *point, eps_a, eps_b)
        terms = _posterior_terms(params, arrays)
        for supplied in (None, terms):
            value, got = elbo_value_and_grads(
                params, arrays, *point, eps_a, eps_b, supplied
            )
            assert value == pytest.approx(want_value, rel=1e-12)
            for key in ("mu_a", "rho_a", "mu_b", "rho_b"):
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-12)

    def test_padded_behaviors_log(self):
        sample = Path(__file__).parent / "data" / "behaviors_sample.tsv"
        log = load_mind_behaviors(sample, max_users=25)
        assert len({len(r.items) for r in log.records}) > 1  # lists are padded
        params = rand_params(log.n_users, log.n_items, log.list_len, d=4, seed=3)
        self.check(params, log)

    def test_empty_log(self):
        params = rand_params(3, 5, 2, seed=4)
        self.check(params, InteractionLog.from_records(3, 5, []))


class TestCounterfactualSelect:
    def test_select_all_returns_list(self):
        params = rand_params(1, 8, 5, seed=3)
        post = VariationalPosterior.prior(8, 5)
        items = [3, 1, 7, 0, 5]
        selected, probs = counterfactual_select(params, post, 0, items, 5, RandomStream(1))
        assert selected == items
        assert len(probs) == 5

    def test_degenerate_posterior_deterministic(self):
        params = rand_params(1, 8, 5, seed=3)
        post = VariationalPosterior(
            mu_alpha=np.zeros(8),
            sigma_alpha=np.zeros(8),
            mu_beta=np.full(5, 0.3),
            sigma_beta=np.zeros(5),
        )
        items = [3, 1, 7, 0, 5]
        runs = {
            tuple(counterfactual_select(params, post, 0, items, 2, RandomStream(s))[0])
            for s in range(10)
        }
        assert len(runs) == 1

    def test_dominant_slot_always_selected(self):
        params = SimParams(
            P=np.zeros((1, 1)),
            Q=np.zeros((3, 1)),
            w_r=np.zeros(3),
            X=np.array([[1.0]]),
            Y=np.array([[8.0], [0.0], [0.0]]),
            w_s=np.ones(3),
        )
        post = VariationalPosterior.prior(3, 3)
        stream = RandomStream(12)
        for _ in range(100):
            selected, _ = counterfactual_select(params, post, 0, [0, 1, 2], 1, stream)
            assert selected == [0]

    def test_too_many_rejected(self):
        params = rand_params(1, 8, 5, seed=3)
        post = VariationalPosterior.prior(8, 5)
        with pytest.raises(ValueError):
            counterfactual_select(params, post, 0, [0, 1, 2], 4, RandomStream(0))

    def test_tie_breaks_to_lower_slot(self):
        params = rand_params(1, 6, 3, scale=0.0)
        post = VariationalPosterior(
            mu_alpha=np.zeros(6),
            sigma_alpha=np.zeros(6),
            mu_beta=np.zeros(3),
            sigma_beta=np.zeros(3),
        )
        selected, probs = counterfactual_select(params, post, 0, [4, 2, 5], 2, RandomStream(0))
        assert np.allclose(probs, 1 / 3)
        assert selected == [4, 2]


class TestPersistence:
    def test_sim_params_round_trip(self, tmp_path):
        params = rand_params(3, 5, 4, seed=21)
        path = tmp_path / "sim.txt"
        save_sim_params(params, path)
        again = load_sim_params(path)
        for name in ("P", "Q", "w_r", "X", "Y", "w_s"):
            assert np.array_equal(getattr(params, name), getattr(again, name))

    def test_posterior_round_trip(self, tmp_path):
        post = VariationalPosterior(
            mu_alpha=RandomStream(1).normal(6),
            sigma_alpha=np.abs(RandomStream(2).normal(6)) + 0.1,
            mu_beta=RandomStream(3).normal(4),
            sigma_beta=np.abs(RandomStream(4).normal(4)) + 0.1,
        )
        path = tmp_path / "post.txt"
        save_posterior(post, path)
        again = load_posterior(path)
        assert np.array_equal(post.mu_alpha, again.mu_alpha)
        assert np.array_equal(post.sigma_beta, again.sigma_beta)
