import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank import mathcore, rankers
from cfrank.corpus import InteractionLog, Record
from log_strategies import valid_logs
from gradcheck import finite_diff_check
from ranking_refs import drawn_model, reference_recommend, score_candidates
from cfrank.mathcore import (
    RandomStream,
    TrainingError,
    sample_excluding,
    sigmoid,
)
from cfrank.rankers import (
    ALL_KINDS,
    GRADIENT_KINDS,
    _epoch_rows,
    _positive_keys,
    _sample_negatives,
    _tower_forward,
    ItemKnn,
    ItemPop,
    RankerHyper,
    TrainingData,
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
        scores = score_candidates(model, 2, range(6))
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

    @pytest.mark.parametrize("kind", GRADIENT_KINDS)
    @pytest.mark.parametrize("scale", [1.0, 1e3])
    def test_skipped_zero_decay_keeps_every_bit(self, kind, scale, monkeypatch):
        # The reference adds l2 * param also when l2 == 0, as the negative
        # pass did before it skipped that sum. At scale 1e3 the margins
        # saturate the sigmoid, and mlp and neumf get rows of signed zeros.
        model = make_model(kind, 3, 6, 4, RandomStream(11))
        model.set_params({k: scale * v for k, v in model.params().items()})
        _, grads = pairwise_loss_grad(model, self.u, self.i, self.j, l2=1e-3)
        monkeypatch.setattr(rankers, "_decayed", lambda grad, l2, param: grad + l2 * param)
        _, reference = pairwise_loss_grad(model, self.u, self.i, self.j, l2=1e-3)
        assert {k: v.tobytes() for k, v in grads.items()} == {
            k: v.tobytes() for k, v in reference.items()
        }

    @pytest.mark.parametrize("kind", ["mlp", "neumf"])
    @pytest.mark.parametrize("pointwise, towers", [(True, 1), (False, 2)])
    def test_one_tower_forward_per_side(self, kind, pointwise, towers):
        model = make_model(kind, 3, 6, 4, RandomStream(3))
        with mock.patch(
            "cfrank.rankers._tower_forward", wraps=_tower_forward
        ) as tower:
            if pointwise:
                pointwise_loss_grad(model, self.u, self.i, self.y, l2=0.1)
            else:
                pairwise_loss_grad(model, self.u, self.i, self.j, l2=0.1)
        assert tower.call_count == towers


class TestTraining:
    def test_single_triplet_margin_grows(self):
        model = make_model("bpr-mf", 1, 2, 1, RandomStream(2))
        data = TrainingData(rows=np.array([[0, 0, 1]]))
        start = model.score(0, 0) - model.score(0, 1)
        train_pairwise(model, data, RankerHyper(lr=0.05, epochs=100, l2=0.0), RandomStream(1))
        end = model.score(0, 0) - model.score(0, 1)
        assert end > start + 0.5

    def test_single_positive_pointwise(self):
        model = make_model("gmf", 1, 2, 2, RandomStream(2))
        data = TrainingData(rows=np.array([[0, 0, 1]]))
        train_pointwise(model, data, RankerHyper(lr=0.05, epochs=200, l2=0.0), RandomStream(1))
        assert sigmoid(model.score(0, 0)) > 0.9

    def test_empty_batch_no_change(self):
        model = make_model("mlp", 2, 4, 4, RandomStream(5))
        before = {k: v.copy() for k, v in model.params().items()}
        train_pairwise(model, TrainingData(), RankerHyper(epochs=5), RandomStream(0))
        for k, v in model.params().items():
            assert np.array_equal(before[k], v)

    def test_all_positive_batch_loss_decreases(self):
        model = make_model("gmf", 2, 4, 3, RandomStream(7))
        points = np.array([[0, 1, 1], [1, 2, 1], [0, 3, 1]])
        data = TrainingData(rows=points)
        losses = []
        for epochs in (0, 5, 20):
            m = make_model("gmf", 2, 4, 3, RandomStream(7))
            train_pointwise(m, data, RankerHyper(lr=0.05, epochs=epochs, l2=0.0), RandomStream(1))
            losses.append(loss_pointwise(m, points))
        assert losses[1] < losses[0] and losses[2] < losses[1]

    def test_observed_source_training(self):
        log = small_log()
        model = make_model("bpr-mf", 3, 6, 8, RandomStream(1))
        data = TrainingData.from_log(log)
        train_pairwise(model, data, RankerHyper(lr=0.02, epochs=40), RandomStream(2))
        assert model.user_positives == log.positives_by_user()
        # a trained model should rank the user's own positives above average
        pos_score = model.score(1, 1)
        rest = [model.score(1, i) for i in (0, 2, 5)]
        assert pos_score > np.mean(rest)

    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    def test_observed_positives_need_user_positives(self, train):
        model = make_model("bpr-mf", 3, 6, 4, RandomStream(1))
        before = {k: v.copy() for k, v in model.params().items()}
        data = TrainingData(positives=np.array([[0, 1], [2, 3]]))
        with pytest.raises(ValueError, match="needs user_positives"):
            train(model, data, RankerHyper(epochs=2), RandomStream(2))
        assert model.user_positives is None
        for k, v in model.params().items():
            assert np.array_equal(before[k], v)

    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    def test_observed_source_without_positives_is_skipped(self, train):
        model = make_model("gmf", 2, 4, 3, RandomStream(7))
        before = {k: v.copy() for k, v in model.params().items()}
        empty = TrainingData(positives=np.zeros((0, 2), np.int64))
        train(model, empty, RankerHyper(epochs=3), RandomStream(1))
        train(model, TrainingData(), RankerHyper(epochs=3), RandomStream(1))
        for k, v in model.params().items():
            assert np.array_equal(before[k], v)

    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    def test_exclusion_keys_built_once_per_call(self, train):
        log = small_log()
        data = TrainingData.from_log(log)
        hyper = RankerHyper(epochs=4, neg_per_pos=3)
        calls = []

        def counted(user_positives, n_items):
            calls.append(n_items)
            return _positive_keys(user_positives, n_items)

        with mock.patch("cfrank.rankers._positive_keys", counted):
            patched = make_model("bpr-mf", 3, 6, 4, RandomStream(5))
            train(patched, data, hyper, RandomStream(6))
        assert calls == [6]
        plain = make_model("bpr-mf", 3, 6, 4, RandomStream(5))
        train(plain, data, hyper, RandomStream(6))
        for k, v in plain.params().items():
            assert np.array_equal(patched.params()[k], v)

    def test_untrainable_kind_rejected(self):
        model = ItemPop(2, 3)
        with pytest.raises(ValueError):
            train_pairwise(model, TrainingData(), RankerHyper(), RandomStream(0))

    def test_reproducible(self):
        log = small_log()
        params = []
        for _ in range(2):
            model = make_model("neumf", 3, 6, 4, RandomStream(9))
            train_pairwise(
                model, TrainingData.from_log(log), RankerHyper(epochs=5), RandomStream(4)
            )
            params.append({k: v.copy() for k, v in model.params().items()})
        for k in params[0]:
            assert np.array_equal(params[0][k], params[1][k])


def reference_epoch_rows(sources, mode, neg_per_pos, n_items, stream):
    """The multi-source row assembly that `TrainingData` replaced. Sources
    come in list order: ("counterfactual", rows) gives its rows verbatim,
    ("observed", (positives, user_positives)) its positives (pointwise
    only) and then `neg_per_pos` rounds of negatives drawn against its own
    exclusion keys; an empty source adds nothing."""
    parts = []
    for origin, data in sources:
        if origin != "observed":
            if len(data) > 0:
                parts.append(data)
            continue
        pos, user_positives = data
        if len(pos) == 0:
            continue
        keys = _positive_keys(user_positives, n_items)
        users = pos[:, 0]
        if mode == "pointwise":
            parts.append(np.column_stack([pos, np.ones_like(users)]))
        for _ in range(neg_per_pos):
            neg = _sample_negatives(keys, users, n_items, stream)
            if mode == "pairwise":
                parts.append(np.column_stack([users, pos[:, 1], neg]))
            else:
                parts.append(np.column_stack([users, neg, np.zeros_like(users)]))
    return np.concatenate(parts or [np.zeros((0, 3))]).astype(np.int64)


@st.composite
def training_data(draw):
    """(mode, n_items, rows, positives, user_positives): every user keeps
    at least one negative, and either side may be empty."""
    mode = draw(st.sampled_from(["pairwise", "pointwise"]))
    n_users = draw(st.integers(1, 4))
    n_items = draw(st.integers(2, 7))
    user_positives = [
        draw(st.sets(st.integers(0, n_items - 1), max_size=n_items - 1))
        for _ in range(n_users)
    ]
    owned = [(u, i) for u, items in enumerate(user_positives) for i in sorted(items)]
    picks = draw(st.lists(st.sampled_from(owned), max_size=6)) if owned else []
    positives = np.array(picks, dtype=np.int64).reshape(-1, 2)
    third = st.integers(0, 1) if mode == "pointwise" else st.integers(0, n_items - 1)
    rows = np.array(
        draw(st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1), third),
            max_size=6,
        )),
        dtype=np.int64,
    ).reshape(-1, 3)
    return mode, n_items, rows, positives, user_positives


class TestTrainingData:
    @settings(max_examples=200, deadline=None)
    @given(drawn=training_data(), neg_per_pos=st.integers(1, 3), seed=st.integers(0, 99))
    def test_epoch_rows_match_the_source_list(self, drawn, neg_per_pos, seed):
        mode, n_items, rows, positives, user_positives = drawn
        data = TrainingData(positives, user_positives, rows)
        keys = _positive_keys(user_positives, n_items) if len(positives) else None
        got_stream, want_stream = RandomStream(seed), RandomStream(seed)
        got = _epoch_rows(data, keys, mode, neg_per_pos, n_items, got_stream)
        want = reference_epoch_rows(
            [("counterfactual", rows), ("observed", (positives, user_positives))],
            mode, neg_per_pos, n_items, want_stream,
        )
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert got_stream.integers(0, 2**62, 4).tolist() == (
            want_stream.integers(0, 2**62, 4).tolist()
        )


class TestTrainingSizes:
    @pytest.mark.parametrize(
        "hyper, field",
        [
            (RankerHyper(batch_size=-1), "batch_size"),
            (RankerHyper(batch_size=0), "batch_size"),
            (RankerHyper(epochs=-1), "epochs"),
            (RankerHyper(neg_per_pos=0), "neg_per_pos"),
            (RankerHyper(neg_per_pos=-1), "neg_per_pos"),
        ],
    )
    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    def test_bad_size_rejected(self, train, hyper, field):
        model = make_model("bpr-mf", 3, 6, 4, RandomStream(2))
        with pytest.raises(ValueError, match=f"^{field}="):
            train(model, TrainingData.from_log(small_log()), hyper, RandomStream(3))

    @pytest.mark.parametrize("kind", ["bpr-mf", "neumf"])
    @pytest.mark.parametrize("train", [train_pairwise, train_pointwise])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self, kind, train):
        model = make_model(kind, 3, 6, 4, RandomStream(2))
        data = TrainingData.from_log(small_log())
        with pytest.raises(TrainingError, match="ranker training diverged at epoch 1"):
            train(model, data, RankerHyper(lr=1e300, epochs=3), RandomStream(3))


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

    @pytest.mark.parametrize("user", [-1, 3, [0, -2], [1, 3]])
    def test_user_out_of_range(self, user):
        model = ItemPop(3, 4)
        bad = user if np.ndim(user) == 0 else user[1]
        with pytest.raises(ValueError, match=f"^user id {bad} outside \\[0, 3\\)$"):
            recommend_topn(model, user, n=2)

    @pytest.mark.parametrize("candidates, bad", [([-1, 2], -1), ([0, 4], 4)])
    def test_candidate_out_of_range(self, candidates, bad):
        model = ItemPop(1, 4)
        with pytest.raises(ValueError, match=f"^candidate id {bad} outside \\[0, 4\\)$"):
            recommend_topn(model, 0, candidates=candidates, n=1)

    def test_repeated_candidate(self):
        model = ItemPop(1, 4)
        with pytest.raises(ValueError, match="^candidate id 2 repeated$"):
            recommend_topn(model, 0, candidates=[2, 0, 2], n=1)

    def test_negative_cutoff(self):
        model = ItemPop(1, 4)
        model.user_positives = [{0, 1}]
        with pytest.raises(ValueError, match="^n=-1 must be >= 0$"):
            recommend_topn(model, 0, n=-1)

    def test_block_of_users(self):
        model = ItemPop(3, 4)
        model.counts = np.array([3.0, 1.0, 2.0, 0.0])
        model.user_positives = [{0}, set(), {0, 1, 2, 3}]
        assert recommend_topn(model, [0, 1, 2, 0], n=3) == [
            [2, 1, 3], [0, 2, 1], [], [2, 1, 3]
        ]
        assert recommend_topn(model, np.zeros(0, np.int64), n=3) == []
        # fewer items left than n: each user keeps what is left
        assert recommend_topn(model, [0], n=9) == [[2, 1, 3]]
        assert recommend_topn(model, [2, 1], candidates=[3, 0], n=2) == [[0, 3]] * 2
        model.user_positives = None  # nothing excluded
        assert recommend_topn(model, 1, n=9) == [0, 2, 1, 3]


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
        keys = _positive_keys(user_positives, n_items)
        got = _sample_negatives(keys, users, n_items, a)
        want = reference_sample_negatives(user_positives, users, n_items, b)
        np.testing.assert_array_equal(got, want)
        assert a.normal(2).tolist() == b.normal(2).tolist()

    def test_exhausted_user_fails(self):
        with pytest.raises(TrainingError, match="negative sampling failed"):
            _sample_negatives(
                _positive_keys([{0, 1, 2}], 3), np.zeros(3, np.int64), 3,
                RandomStream(1),
            )


class TestSampleExcluding:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
        st.integers(0, 60),
        st.integers(0, 3),
    )
    def test_one_dimensional_matches_set_lookup(
        self, n_items, n_users, seed, n_rows, pad
    ):
        rs = RandomStream(seed)
        user_positives = [
            set(rs.choice(n_items, int(rs.integers(0, n_items)), replace=False))
            for _ in range(n_users)
        ]
        users = rs.integers(0, n_users, n_rows)
        stride = n_items + pad  # any stride of at least n_items separates owners
        pairs = [(u, i) for u, items in enumerate(user_positives) for i in items]
        keys = np.sort(np.array([u * stride + i for u, i in pairs], dtype=np.int64))
        a, b = RandomStream(seed + 1), RandomStream(seed + 1)
        got = sample_excluding(keys, users, stride, n_items, n_rows, a, "none left")
        want = reference_sample_negatives(user_positives, users, n_items, b)
        assert got.shape == (n_rows,)
        np.testing.assert_array_equal(got, want)
        assert a.normal(2).tolist() == b.normal(2).tolist()


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
        data = TrainingData.from_log(log)
        want = reference_from_log(log)
        assert data.positives.dtype == want.dtype
        assert data.positives.shape == want.shape
        assert np.array_equal(data.positives, want)
        assert data.user_positives == log.positives_by_user()
        assert data.rows.shape == (0, 3)
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


def reference_knn_keep(sim, neighborhood):
    """Each row's `neighborhood` largest similarities kept, ties to the lower
    item id, by one lexsort per row; the rest zeroed."""
    n = sim.shape[0]
    if neighborhood >= n:
        return sim
    kept = np.zeros_like(sim)
    for i in range(n):
        top = np.lexsort((np.arange(n), -sim[i]))[:neighborhood]
        kept[i, top] = sim[i, top]
    return kept


class TestTopKCallers:
    @settings(max_examples=80, deadline=None)
    @given(
        drawn=valid_logs(max_users=8, max_items=24, max_records=10),
        neighborhood=st.integers(1, 25),
    )
    def test_itemknn_keeps_lexsort_neighbors(self, drawn, neighborhood):
        # few records over many items: most similarities are tied zeros
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        model = ItemKnn(n_users, n_items, neighborhood).fit(log)
        dense = ItemKnn(n_users, n_items, n_items).fit(log)
        assert np.array_equal(model.sim, reference_knn_keep(dense.sim, neighborhood))

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=valid_logs(max_users=4, max_items=20),
        kind=st.sampled_from(["itempop", "itemknn", "bpr-mf"]),
        subset=st.lists(st.integers(0, 19), unique=True),
        n=st.integers(0, 20),
    )
    def test_recommend_matches_lexsort(self, drawn, kind, subset, n):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        if kind == "bpr-mf":
            model = make_model(kind, n_users, n_items, 2, RandomStream(1))
            model.Q = np.sign(np.round(10 * model.Q))  # 9 distinct rows: ties
            model.user_positives = log.positives_by_user()
        else:
            model = make_model(kind, n_users, n_items, neighborhood=3).fit(log)
        for u in range(n_users):
            full = [i for i in range(n_items) if i not in model.user_positives[u]]
            for candidates in (None, [i for i in subset if i < n_items]):
                pool = full if candidates is None else candidates
                if n > len(pool):
                    continue
                got = recommend_topn(model, u, candidates, n=n)
                assert got == reference_recommend(model, u, pool, n)


def reference_interaction_counts(log):
    counts = np.zeros(log.n_items)
    for rec in log.records:
        for item in rec.selected:
            counts[item] += 1
    return counts


def reference_itemknn_pairs(model, u, i):
    """ItemKnn scores by one gather and one sum per (user, item) pair."""
    out = np.zeros(len(i))
    for row, (uu, ii) in enumerate(zip(u, i)):
        pos = model.user_positives[uu] if model.user_positives else ()
        if pos:
            out[row] = model.sim[ii, sorted(pos)].sum()
    return out


def block_entries(value):
    """Patch the score-block size that recommend_topn and top_k read."""
    return mock.patch.object(mathcore, "BLOCK_ENTRIES", value)


class TestItemKnnBatch:
    @settings(max_examples=80, deadline=None)
    @given(
        drawn=valid_logs(max_users=6, max_items=12),
        neighborhood=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(0, 40),
    )
    def test_matches_per_pair_loop(self, drawn, neighborhood, seed, n_rows):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        model = ItemKnn(n_users, n_items, neighborhood).fit(log)
        rs = RandomStream(seed)
        u = rs.integers(0, n_users, n_rows)
        i = rs.integers(0, n_items, n_rows)
        want = reference_itemknn_pairs(model, u, i)
        np.testing.assert_array_equal(model.score_batch(u, i), want)
        model.user_positives = None
        assert model.score_batch(u, i).tolist() == [0.0] * n_rows

    def test_dense_catalog_matches_per_pair_loop(self):
        rs = RandomStream(4)
        model = ItemKnn(30, 200, neighborhood=200)
        model.sim = rs.uniform(size=(200, 200)) * (rs.uniform(size=(200, 200)) < 0.5)
        model.user_positives = [
            set(rs.choice(200, int(rs.integers(0, 150)), replace=False).tolist())
            for _ in range(30)
        ]
        u = rs.integers(0, 30, 3000)
        i = rs.integers(0, 200, 3000)
        want = reference_itemknn_pairs(model, u, i)
        np.testing.assert_array_equal(model.score_batch(u, i), want)


class TestScoreGrid:
    @settings(max_examples=120, deadline=None)
    @given(
        drawn=valid_logs(max_users=6, max_items=12),
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        n_users=st.integers(0, 7),
        n_items=st.integers(0, 15),
    )
    def test_matches_pair_scores(self, drawn, kind, seed, n_users, n_items):
        log = InteractionLog.from_records(*drawn).validate()
        model = drawn_model(kind, log, seed)
        rs = RandomStream(seed + 1)
        users = rs.integers(0, log.n_users, n_users)
        items = rs.integers(0, log.n_items, n_items)  # repeats included
        grid = model.score_grid(users, items)
        assert grid.shape == (n_users, n_items) and grid.dtype == np.float64
        want = np.array(
            [score_candidates(model, u, items) for u in users]
        ).reshape(n_users, n_items)
        if kind in ("itempop", "itemknn", "bpr-mf"):
            np.testing.assert_array_equal(grid, want)
        else:
            scale = np.abs(want).max(axis=1, initial=0.0, keepdims=True)
            assert np.all(np.abs(grid - want) <= 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["bpr-mf", "gmf"])
    def test_equal_item_rows_tie_exactly(self, kind):
        # 33 x 257 is a shape where a BLAS product rounds equal columns
        # differently (OpenBLAS 0.3.31)
        model = make_model(kind, 33, 257, 8, RandomStream(6))
        model.Q = model.Q[RandomStream(7).integers(0, 4, 257)]
        grid = model.score_grid(np.arange(33), np.arange(257))
        for row in range(4):
            same = grid[:, np.all(model.Q == model.Q[row], axis=1)]
            assert np.all(same == same[:, :1])


class TestBlockRecommend:
    @settings(max_examples=120, deadline=None)
    @given(
        drawn=valid_logs(max_users=6, max_items=16),
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 18),
        n_users=st.integers(0, 9),
        entries=st.sampled_from([1, 5, 16, 40, mathcore.BLOCK_ENTRIES]),
        subset=st.lists(st.integers(0, 15), unique=True),
    )
    def test_matches_per_user(self, drawn, kind, seed, n, n_users, entries, subset):
        log = InteractionLog.from_records(*drawn).validate()
        model = drawn_model(kind, log, seed)
        users = RandomStream(seed + 1).integers(0, log.n_users, n_users)
        candidates = [i for i in subset if i < log.n_items]
        with block_entries(entries):
            full = recommend_topn(model, users, n=n)
            picked = recommend_topn(model, users, candidates, n=min(n, len(candidates)))
        assert len(full) == len(picked) == n_users
        for u, got_full, got_picked in zip(users.tolist(), full, picked):
            pool = [i for i in range(log.n_items) if i not in model.user_positives[u]]
            assert got_full == reference_recommend(model, u, pool, min(n, len(pool)))
            want = reference_recommend(model, u, candidates, min(n, len(candidates)))
            assert got_picked == want
            assert recommend_topn(model, u, n=n) == got_full

    @pytest.mark.parametrize("entries", [1, 3, mathcore.BLOCK_ENTRIES])
    def test_explicit_exclusions(self, entries):
        model = drawn_model("bpr-mf", small_log(), 3)
        exclude = [set(), {0, 1, 2, 3, 4, 5}, {5, 1}]
        with block_entries(entries):
            got = recommend_topn(model, [2, 1, 0, 2], n=5, exclude=exclude)
        for u, ranked in zip([2, 1, 0, 2], got):
            pool = [i for i in range(6) if i not in exclude[u]]
            assert ranked == reference_recommend(model, u, pool, min(5, len(pool)))
        assert got[1] == []

    def test_negative_infinite_scores_stay_candidates(self):
        model = ItemPop(2, 5)
        model.counts = np.array([-np.inf, 1.0, -np.inf, -np.inf, 0.0])
        model.user_positives = [{1, 2}, set()]
        assert recommend_topn(model, [0, 1], n=5) == [[4, 0, 3], [1, 4, 0, 2, 3]]
