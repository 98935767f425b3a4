import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank.corpus import InteractionLog, Record
from log_strategies import valid_logs
from cfrank.mathcore import RandomStream, TrainingError, finite_diff_check, sigmoid
from cfrank.rankers import (
    GRADIENT_KINDS,
    _sample_negatives,
    ItemKnn,
    ItemPop,
    RankerHyper,
    TrainBatchSource,
    load_model,
    loss_pairwise,
    loss_pointwise,
    make_model,
    pairwise_loss_grad,
    pointwise_loss_grad,
    recommend_topn,
    save_model,
    train_pairwise,
    train_pointwise,
)


def small_log():
    return InteractionLog.from_records(
        3,
        6,
        [
            Record(0, [0, 1, 2], [1, 0, 0]),
            Record(1, [1, 3, 4], [1, 1, 0]),
            Record(2, [2, 4, 5], [0, 1, 0]),
            Record(0, [3, 4, 5], [0, 0, 1]),
        ],
    ).validate()


class TestScores:
    def test_bpr_zero_embeddings(self):
        model = make_model("bpr-mf", 2, 3, 4, RandomStream(0))
        model.P[:] = 0
        assert model.score(0, 1) == 0.0

    def test_itempop_counts(self):
        model = ItemPop(3, 6).fit(small_log())
        assert model.score(0, 4) == 1.0
        assert model.score(1, 4) == 1.0  # user independent
        assert model.score(2, 2) == 0.0
        assert model.counts.sum() == small_log().n_positives

    def test_itemknn_identity_similarity(self):
        model = ItemKnn(3, 6, neighborhood=6)
        model.fit(small_log(), sim=np.eye(6))
        # user 2's single positive is item 4
        scores = model.score_candidates(2, range(6))
        assert np.argmax(scores) == 4

    def test_itemknn_cosine_from_log(self):
        model = ItemKnn(3, 6, neighborhood=3).fit(small_log())
        assert model.sim.shape == (6, 6)
        assert np.all(np.isfinite(model.sim))


class TestLossValues:
    def test_zero_margin(self):
        model = make_model("bpr-mf", 1, 2, 3, RandomStream(0))
        model.P[:] = 0
        assert loss_pairwise(model, [(0, 0, 1)]) == pytest.approx(math.log(2))

    def test_separated_margin(self):
        model = make_model("bpr-mf", 1, 2, 1, RandomStream(0))
        model.P[0] = [1.0]
        model.Q[0] = [10.0]
        model.Q[1] = [0.0]
        assert loss_pairwise(model, [(0, 0, 1)]) < 1e-4

    def test_pointwise_half(self):
        model = make_model("gmf", 1, 2, 3, RandomStream(0))
        model.P[:] = 0
        assert loss_pointwise(model, [(0, 0, 1)]) == pytest.approx(math.log(2))

    def test_pairwise_positive(self):
        model = make_model("bpr-mf", 2, 4, 3, RandomStream(3))
        triplets = [(0, 1, 2), (1, 0, 3)]
        assert loss_pairwise(model, triplets) > 0

    def test_empty(self):
        model = make_model("bpr-mf", 1, 2, 2, RandomStream(0))
        assert loss_pairwise(model, []) == 0.0
        assert loss_pointwise(model, []) == 0.0


class TestGradients:
    u = np.array([0, 1, 2, 1])
    i = np.array([0, 2, 4, 1])
    j = np.array([1, 3, 5, 0])
    y = np.array([1, 0, 1, 0])

    def check(self, kind, pointwise):
        model = make_model(kind, 3, 6, 4, RandomStream(len(kind) * 131 + 7))
        names = list(model.params())
        shapes = {k: v.shape for k, v in model.params().items()}

        def pack(values):
            return np.concatenate([np.asarray(values[k]).ravel() for k in names])

        def unpack(v):
            out, ofs = {}, 0
            for k in names:
                size = int(np.prod(shapes[k]))
                out[k] = v[ofs : ofs + size].reshape(shapes[k])
                ofs += size
            return out

        def compute():
            if pointwise:
                return pointwise_loss_grad(model, self.u, self.i, self.y)
            return pairwise_loss_grad(model, self.u, self.i, self.j)

        base = pack(model.params())
        _, grads = compute()

        def loss(v):
            model.set_params(unpack(v))
            out = compute()[0]
            model.set_params(unpack(base))
            return out

        assert finite_diff_check(loss, base, pack(grads)) < 1e-4

    @pytest.mark.parametrize("kind", GRADIENT_KINDS)
    def test_pairwise(self, kind):
        self.check(kind, pointwise=False)

    @pytest.mark.parametrize("kind", GRADIENT_KINDS)
    def test_pointwise(self, kind):
        self.check(kind, pointwise=True)


class TestTraining:
    def test_single_triplet_margin_grows(self):
        model = make_model("bpr-mf", 1, 2, 1, RandomStream(2))
        source = TrainBatchSource(
            origin="counterfactual", rows=np.array([[0, 0, 1]])
        )
        start = model.score(0, 0) - model.score(0, 1)
        train_pairwise(model, [source], RankerHyper(lr=0.05, epochs=100, l2=0.0), RandomStream(1))
        end = model.score(0, 0) - model.score(0, 1)
        assert end > start + 0.5

    def test_single_positive_pointwise(self):
        model = make_model("gmf", 1, 2, 2, RandomStream(2))
        source = TrainBatchSource(origin="counterfactual", rows=np.array([[0, 0, 1]]))
        train_pointwise(model, [source], RankerHyper(lr=0.05, epochs=200, l2=0.0), RandomStream(1))
        assert sigmoid(model.score(0, 0)) > 0.9

    def test_empty_batch_no_change(self):
        model = make_model("mlp", 2, 4, 4, RandomStream(5))
        before = {k: v.copy() for k, v in model.params().items()}
        train_pairwise(model, [], RankerHyper(epochs=5), RandomStream(0))
        for k, v in model.params().items():
            assert np.array_equal(before[k], v)

    def test_all_positive_batch_loss_decreases(self):
        model = make_model("gmf", 2, 4, 3, RandomStream(7))
        points = np.array([[0, 1, 1], [1, 2, 1], [0, 3, 1]])
        source = TrainBatchSource(origin="counterfactual", rows=points)
        losses = []
        for epochs in (0, 5, 20):
            m = make_model("gmf", 2, 4, 3, RandomStream(7))
            train_pointwise(m, [source], RankerHyper(lr=0.05, epochs=epochs, l2=0.0), RandomStream(1))
            losses.append(loss_pointwise(m, points))
        assert losses[1] < losses[0] and losses[2] < losses[1]

    def test_observed_source_training(self):
        log = small_log()
        model = make_model("bpr-mf", 3, 6, 8, RandomStream(1))
        source = TrainBatchSource.from_log(log)
        train_pairwise(model, [source], RankerHyper(lr=0.02, epochs=40), RandomStream(2))
        assert model.user_positives == log.positives_by_user()
        # a trained model should rank the user's own positives above average
        pos_score = model.score(1, 1)
        rest = [model.score(1, i) for i in (0, 2, 5)]
        assert pos_score > np.mean(rest)

    def test_untrainable_kind_rejected(self):
        model = ItemPop(2, 3)
        with pytest.raises(ValueError):
            train_pairwise(model, [], RankerHyper(), RandomStream(0))

    def test_reproducible(self):
        log = small_log()
        params = []
        for _ in range(2):
            model = make_model("neumf", 3, 6, 4, RandomStream(9))
            train_pairwise(
                model, [TrainBatchSource.from_log(log)], RankerHyper(epochs=5), RandomStream(4)
            )
            params.append({k: v.copy() for k, v in model.params().items()})
        for k in params[0]:
            assert np.array_equal(params[0][k], params[1][k])


class TestTrainingSizes:
    @pytest.mark.parametrize(
        "hyper, field",
        [
            (RankerHyper(batch_size=-1), "batch_size"),
            (RankerHyper(batch_size=0), "batch_size"),
            (RankerHyper(epochs=-1), "epochs"),
        ],
    )
    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    def test_bad_size_rejected(self, train, hyper, field):
        model = make_model("bpr-mf", 3, 6, 4, RandomStream(2))
        with pytest.raises(ValueError, match=f"^{field}="):
            train(model, [TrainBatchSource.from_log(small_log())], hyper, RandomStream(3))

    @pytest.mark.parametrize("kind", ["bpr-mf", "neumf"])
    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, kind, train):
        model = make_model(kind, 3, 6, 4, RandomStream(2))
        source = TrainBatchSource.from_log(small_log())
        with pytest.raises(TrainingError, match="ranker training diverged at epoch 1"):
            train(model, [source], RankerHyper(lr=1e300, epochs=3), RandomStream(3))


class TestNeuMfConsistency:
    def test_reduces_to_gmf_when_mlp_branch_zeroed(self):
        d = 4
        neumf = make_model("neumf", 2, 5, d, RandomStream(3))
        gmf = make_model("gmf", 2, 5, d, RandomStream(4))
        # align the product branch with the standalone model, zero the rest
        neumf.Pg = gmf.P.copy()
        neumf.Qg = gmf.Q.copy()
        neumf.W1[:] = 0
        neumf.b1[:] = 0
        neumf.W2[:] = 0
        neumf.b2[:] = 0
        neumf.w_fuse[:d] = gmf.h
        neumf.w_fuse[d:] = 0
        neumf.b_fuse[:] = 0
        u = np.array([0, 1, 1])
        i = np.array([2, 0, 4])
        np.testing.assert_allclose(neumf.score_batch(u, i), gmf.score_batch(u, i))


class TestRecommend:
    def test_full_ranking(self):
        model = ItemPop(1, 4)
        model.counts = np.array([3.0, 1.0, 2.0, 0.0])
        model.user_positives = [set()]
        assert recommend_topn(model, 0, n=4) == [0, 2, 1, 3]

    def test_itempop_same_for_all_users(self):
        model = ItemPop(3, 6).fit(small_log())
        model.user_positives = [set(), set(), set()]
        lists = [recommend_topn(model, u, n=6) for u in range(3)]
        assert lists[0] == lists[1] == lists[2]

    def test_ties_break_to_lower_id(self):
        model = ItemPop(1, 4)
        model.counts = np.zeros(4)
        model.user_positives = [set()]
        assert recommend_topn(model, 0, n=4) == [0, 1, 2, 3]

    def test_score_shift_invariance(self):
        model = ItemPop(1, 5)
        model.counts = np.array([2.0, 5.0, 1.0, 4.0, 3.0])
        model.user_positives = [set()]
        base = recommend_topn(model, 0, n=5)
        model.counts = model.counts + 1000.0
        assert recommend_topn(model, 0, n=5) == base

    def test_excludes_training_positives(self):
        model = ItemPop(1, 4)
        model.counts = np.array([9.0, 1.0, 2.0, 3.0])
        model.user_positives = [{0}]
        assert 0 not in recommend_topn(model, 0, n=3)

    def test_candidate_overflow(self):
        model = ItemPop(1, 4)
        model.user_positives = [set()]
        with pytest.raises(ValueError):
            recommend_topn(model, 0, candidates=[1, 2], n=3)


class TestPersistence:
    @pytest.mark.parametrize("kind", GRADIENT_KINDS + ("itempop", "itemknn"))
    def test_round_trip(self, kind, tmp_path):
        if kind in ("itempop", "itemknn"):
            model = make_model(kind, 3, 6, neighborhood=4)
            model.fit(small_log())
        else:
            model = make_model(kind, 3, 6, 4, RandomStream(11))
        path = tmp_path / "model.txt"
        save_model(model, path)
        again = load_model(path)
        assert again.kind == model.kind
        u = np.array([0, 1, 2])
        i = np.array([5, 0, 3])
        if kind == "itemknn":
            again.user_positives = model.user_positives
        np.testing.assert_array_equal(model.score_batch(u, i), again.score_batch(u, i))


def reference_sample_negatives(user_positives, users, n_items, stream):
    """Rejection with one Python set lookup per row and pass."""
    neg = stream.integers(0, n_items, len(users))
    for _ in range(1000):
        bad = np.array(
            [item in user_positives[u] for u, item in zip(users, neg)], dtype=bool
        )
        if not bad.any():
            return neg
        neg[bad] = stream.integers(0, n_items, int(bad.sum()))
    raise TrainingError("negative sampling failed; users with no negatives left")


class TestSampleNegatives:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.integers(0, 60),
    )
    def test_matches_set_lookup(self, n_items, n_users, seed, n_rows):
        rs = RandomStream(seed)
        # up to all but one item positive per user, some users with none
        user_positives = [
            set(rs.choice(n_items, int(rs.integers(0, n_items)), replace=False))
            for _ in range(n_users)
        ]
        users = rs.integers(0, n_users, n_rows)
        a, b = RandomStream(seed + 1), RandomStream(seed + 1)
        got = _sample_negatives(user_positives, users, n_items, a)
        want = reference_sample_negatives(user_positives, users, n_items, b)
        np.testing.assert_array_equal(got, want)
        assert a.normal(2).tolist() == b.normal(2).tolist()

    def test_exhausted_user_fails(self):
        with pytest.raises(TrainingError, match="negative sampling failed"):
            _sample_negatives([{0, 1, 2}], np.zeros(3, np.int64), 3, RandomStream(1))


class TestBlockLosses:
    def test_row_blocks_sum_like_single_calls(self):
        model = make_model("bpr-mf", 5, 9, 4, RandomStream(2))
        rs = RandomStream(3)
        users = rs.integers(0, 5, (6, 7, 1))
        triplets = np.concatenate([users, rs.integers(0, 9, (6, 7, 2))], axis=2)
        points = np.concatenate(
            [users, rs.integers(0, 9, (6, 7, 1)), rs.integers(0, 2, (6, 7, 1))], axis=2
        )
        for loss, rows in ((loss_pairwise, triplets), (loss_pointwise, points)):
            per_block = loss(model, rows)
            assert per_block.shape == (6,)
            assert per_block.tolist() == [loss(model, block) for block in rows]
            assert isinstance(loss(model, rows[0]), float)
            assert loss(model, rows.reshape(2, 3, 7, 3)).shape == (2, 3)
            empty = np.zeros((4, 0, 3), dtype=np.int64)
            assert loss(model, empty).tolist() == [0.0] * 4


def reference_from_log(log):
    """Observed (user, item) positives in record and slot order."""
    rows = []
    for rec in log.records:
        for item in rec.selected:
            rows.append((rec.user, item))
    return np.array(rows, dtype=np.int64) if rows else np.zeros((0, 2), dtype=np.int64)


def reference_interaction_matrix(log):
    mat = np.zeros((log.n_users, log.n_items))
    for rec in log.records:
        for item in rec.selected:
            mat[rec.user, item] = 1.0
    return mat


class TestFitsMatchRecordLoop:
    @settings(max_examples=150, deadline=None)
    @given(drawn=valid_logs())
    def test_from_log_and_item_counts(self, drawn):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        source = TrainBatchSource.from_log(log)
        want = reference_from_log(log)
        assert source.positives.dtype == want.dtype
        assert source.positives.shape == want.shape
        assert np.array_equal(source.positives, want)
        assert source.user_positives == log.positives_by_user()
        pop = ItemPop(n_users, n_items).fit(log)
        assert pop.counts.dtype == np.float64
        assert np.array_equal(pop.counts, reference_interaction_counts(log))

    @settings(max_examples=60, deadline=None)
    @given(drawn=valid_logs(), neighborhood=st.integers(1, 9))
    def test_itemknn_similarity(self, drawn, neighborhood):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        model = ItemKnn(n_users, n_items, neighborhood).fit(log)
        mat = reference_interaction_matrix(log)
        norms = np.linalg.norm(mat, axis=0)
        norms[norms == 0] = 1.0
        sim = (mat / norms).T @ (mat / norms)
        want = ItemKnn(n_users, n_items, neighborhood).fit(log, sim=sim)
        assert np.array_equal(model.sim, want.sim)


def reference_interaction_counts(log):
    counts = np.zeros(log.n_items)
    for rec in log.records:
        for item in rec.selected:
            counts[item] += 1
    return counts
