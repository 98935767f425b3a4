import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfrank.cli import load_config, stage_synth_gen
from cfrank.corpus import InteractionLog
from cfrank.mathcore import RandomStream, sigmoid, softmax
from cfrank.synthgen import (
    SyntheticWorld,
    _draw_lists,
    _scores,
    emit_dataset,
    kappa1,
    kappa2,
    kappa3,
    make_world,
    user_feedback,
)
from log_strategies import Record, records_of


class TestKappas:
    def test_kappa1(self):
        assert kappa1(0.7) == pytest.approx(0.2)
        assert kappa1(-0.3) == 0.0
        assert kappa1(0.0) == 0.0

    def test_kappa2(self):
        assert kappa2(-1.2) == 0.0
        assert kappa2(1.2) == pytest.approx(1.2)

    def test_kappa3(self):
        assert kappa3(-0.7) == pytest.approx(-0.2)
        assert kappa3(0.7) == 0.0

    def test_elementwise(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(kappa1(x), [0.0, 0.0, 1.5])
        np.testing.assert_allclose(kappa3(x), [-0.5, 0.0, 0.0])


def fixed_world(user_vecs, item_vecs, noise_std=0.0):
    user_vecs = np.asarray(user_vecs, dtype=np.float64)
    item_vecs = np.asarray(item_vecs, dtype=np.float64)
    return SyntheticWorld(
        user_vecs=user_vecs,
        item_vecs=item_vecs,
        noise_std=noise_std,
    )


def exposure(world, u):
    """User u's exposure propensities over the catalog, 1 - sigmoid(x1):
    `emit_dataset` draws each list from their softmax."""
    return 1.0 - sigmoid(_scores(world, u)[0])


class TestImpressionScore:
    def test_zero_vectors(self):
        world = fixed_world(np.zeros((1, 3)), np.zeros((2, 3)))
        assert exposure(world, 0)[0] == pytest.approx(0.5)

    def test_all_ones_d2(self):
        world = fixed_world(np.ones((1, 2)), np.ones((1, 2)))
        # each of the 4 stacked entries maps to 0.5, so the sum is 2
        assert _scores(world, 0)[0][0] == pytest.approx(2.0)
        assert exposure(world, 0)[0] == pytest.approx(1.0 - sigmoid(2.0), abs=1e-6)
        assert exposure(world, 0)[0] == pytest.approx(0.1192, abs=1e-4)

    def test_monotone_in_feature_sum(self):
        items = np.array([[0.6, 0.6], [1.0, 1.0], [2.0, 2.0]])
        world = fixed_world(np.ones((1, 2)), items)
        scores = exposure(world, 0)
        assert scores[0] > scores[1] > scores[2]

    def test_range(self):
        world = make_world(5, 7, d=4, stream=RandomStream(3))
        assert np.all((0.0 < exposure(world, 0)) & (exposure(world, 0) < 1.0))


class TestSampleImpressions:
    def test_shapes_and_distinctness(self):
        world = make_world(2, 30, d=4, stream=RandomStream(1))
        log = emit_dataset(world, "linear", RandomStream(2), n_lists=25, list_len=5)
        assert log.items.shape == (2 * 25, 5)
        assert all(len(set(row)) == 5 for row in log.items.tolist())

    def test_uniform_scores_frequency(self):
        # zero vectors give identical scores, hence uniform inclusion K/N
        n_items, k, n_lists = 20, 5, 4000
        world = fixed_world(np.zeros((1, 2)), np.zeros((n_items, 2)))
        log = emit_dataset(world, "linear", RandomStream(5), n_lists=n_lists, list_len=k)
        counts = np.bincount(log.items.ravel(), minlength=n_items)
        p = k / n_items
        sigma = np.sqrt(n_lists * p * (1 - p))
        assert np.all(np.abs(counts - n_lists * p) <= 3 * sigma)

    def test_too_long_rejected(self):
        world = make_world(1, 4, d=2, stream=RandomStream(0))
        with pytest.raises(ValueError, match="exceeds item count"):
            emit_dataset(world, "linear", RandomStream(0), n_lists=1, list_len=5)


class TestUserFeedback:
    def test_boundary_is_zero(self):
        # zero vectors: x1 = 0, response 0.5, indicator of exactly 0 is 0
        world = fixed_world(np.zeros((1, 2)), np.zeros((1, 2)))
        assert user_feedback(world, 0, 0, "linear") == 0

    def test_positive_response(self):
        world = fixed_world([[2.0, 2.0]], [[2.0, 2.0]])
        assert user_feedback(world, 0, 0, "linear") == 1

    def test_zero_x2_modes_agree(self):
        # all-negative features zero both kappa chains: x1 = x2 = 0
        world = fixed_world([[-1.0, -0.3]], [[-0.5, -2.0]])
        assert user_feedback(world, 0, 0, "linear") == user_feedback(
            world, 0, 0, "nonlinear"
        )

    def test_modes_differ_somewhere(self):
        world = make_world(30, 30, d=8, stream=RandomStream(4))
        diff = sum(
            user_feedback(world, u, j, "linear") != user_feedback(world, u, j, "nonlinear")
            for u in range(30)
            for j in range(30)
        )
        assert diff > 0

    def test_noiseless_is_pure(self):
        world = make_world(4, 4, d=3, stream=RandomStream(8))
        assert user_feedback(world, 1, 2, "nonlinear") == user_feedback(
            world, 1, 2, "nonlinear"
        )

    def test_unknown_mode(self):
        world = make_world(1, 1, d=2, stream=RandomStream(0))
        with pytest.raises(ValueError):
            user_feedback(world, 0, 0, "cubic")

    def test_positive_rate_monotone_in_offset(self):
        world = make_world(40, 40, d=6, stream=RandomStream(12))
        response = np.concatenate([sigmoid(_scores(world, u)[0]) for u in range(40)])
        rates = [
            np.mean(response + c - 0.5 > 0) for c in (0.0, 0.05, 0.1, 0.2, 0.4)
        ]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestEmitDataset:
    def test_counts(self):
        world = make_world(10, 30, d=4, stream=RandomStream(1))
        log = emit_dataset(world, "nonlinear", RandomStream(2))
        assert len(records_of(log)) == 10 * 25
        assert all(len(r.items) == 5 for r in records_of(log))

    def test_seed_reproducible(self):
        world = make_world(6, 20, d=4, stream=RandomStream(1))
        a = emit_dataset(world, "linear", RandomStream(9))
        b = emit_dataset(world, "linear", RandomStream(9))
        assert records_of(a) == records_of(b)

    def test_modes_share_impressions(self):
        world = make_world(6, 20, d=4, stream=RandomStream(1))
        lin = emit_dataset(world, "linear", RandomStream(9))
        non = emit_dataset(world, "nonlinear", RandomStream(9))
        assert [r.items for r in records_of(lin)] == [r.items for r in records_of(non)]
        assert [r.labels for r in records_of(lin)] != [r.labels for r in records_of(non)]

    @pytest.mark.parametrize("noise_std", [0.0, 0.3])
    def test_user_ranges_join_to_the_whole_log(self, noise_std):
        world = make_world(7, 20, d=4, noise_std=noise_std, stream=RandomStream(1))
        whole = emit_dataset(world, "nonlinear", RandomStream(4), 3, 4)
        parts = [
            emit_dataset(world, "nonlinear", RandomStream(4), 3, 4, users=users)
            for users in (range(0, 3), range(3, 3), range(3, 7))
        ]
        assert parts[0].users.tolist() == [0] * 3 + [1] * 3 + [2] * 3
        assert parts[1].n_records == 0
        joined = InteractionLog.concat(parts)
        assert (joined.n_users, joined.n_items) == (whole.n_users, whole.n_items)
        for column in ("users", "items", "labels", "lengths"):
            np.testing.assert_array_equal(
                getattr(joined, column), getattr(whole, column)
            )

    def test_noise_changes_labels(self):
        quiet = make_world(6, 20, d=4, noise_std=0.0, stream=RandomStream(1))
        noisy = SyntheticWorld(
            quiet.user_vecs, quiet.item_vecs, noise_std=0.2
        )
        a = emit_dataset(quiet, "nonlinear", RandomStream(3))
        b = emit_dataset(noisy, "nonlinear", RandomStream(3))
        assert [r.items for r in records_of(a)] == [r.items for r in records_of(b)]
        assert [r.labels for r in records_of(a)] != [r.labels for r in records_of(b)]


def reference_scores(world, u):
    """x1, x2 for all items from freshly stacked [p_u, q_j] pair features,
    with the weights a all ones and the bias b = 0."""
    p = np.broadcast_to(world.user_vecs[u], world.item_vecs.shape)
    feats = np.concatenate([p, world.item_vecs], axis=1)
    a = np.ones(feats.shape[1])
    return kappa1(kappa2(feats)) @ a, kappa3(-feats) @ a


def reference_lists(world, u, n_lists, list_len, stream):
    """Per-slot sampling: one `choice` call per slot."""
    base = softmax(1.0 - sigmoid(reference_scores(world, u)[0]))
    lists = []
    for _ in range(n_lists):
        probs = base.copy()
        chosen = []
        for _ in range(list_len):
            probs = probs / probs.sum()
            item = int(stream.choice(world.n_items, p=probs))
            chosen.append(item)
            probs[item] = 0.0
        lists.append(chosen)
    return lists


def block_lists(world, u, n_lists, list_len, stream):
    """`_draw_lists` on the uniforms that per-slot `choice` calls would read."""
    base = softmax(exposure(world, u))
    return _draw_lists(base, stream.uniform(size=(n_lists, list_len))).tolist()


def reference_records(world, mode, stream, n_lists, list_len):
    """The generator as a loop over users, lists and slots."""
    records = []
    for u in range(world.n_users):
        imp_stream = stream.substream(f"impressions/{u}")
        noise_stream = stream.substream(f"labels/{u}")
        x1, x2 = reference_scores(world, u)
        arg = x1 if mode == "linear" else x1 + x1 * x2
        response = sigmoid(arg)
        for items in reference_lists(world, u, n_lists, list_len, imp_stream):
            labels = []
            for j in items:
                noise = 0.0
                if world.noise_std > 0:
                    noise = world.noise_std * float(noise_stream.normal())
                labels.append(int(response[j] + noise - 0.5 > 0))
            records.append(Record(u, items, labels))
    return records


class TestBulkMatchesPerSlot:
    @settings(max_examples=60, deadline=None)
    @given(
        n_users=st.integers(1, 4),
        n_items=st.integers(1, 40),
        d=st.integers(1, 5),
        n_lists=st.integers(1, 30),
        len_frac=st.floats(0.0, 1.0),
        mode=st.sampled_from(["linear", "nonlinear"]),
        noise_std=st.sampled_from([0.0, 0.05, 0.3]),
        zero_world=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_emit_dataset(
        self, n_users, n_items, d, n_lists, len_frac, mode, noise_std, zero_world, seed
    ):
        list_len = 1 + int(len_frac * (n_items - 1))
        if zero_world:  # identical scores: uniform draws
            world = fixed_world(np.zeros((n_users, d)), np.zeros((n_items, d)), noise_std)
        else:
            world = make_world(n_users, n_items, d, noise_std, stream=RandomStream(seed))
        bulk = emit_dataset(world, mode, RandomStream(seed + 1), n_lists, list_len)
        ref = reference_records(world, mode, RandomStream(seed + 1), n_lists, list_len)
        assert records_of(bulk) == ref

    @settings(max_examples=30, deadline=None)
    @given(
        n_items=st.integers(1, 60),
        n_lists=st.integers(1, 30),
        len_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sample_impressions(self, n_items, n_lists, len_frac, seed):
        list_len = 1 + int(len_frac * (n_items - 1))
        world = make_world(2, n_items, 3, stream=RandomStream(seed))
        bulk = block_lists(world, 1, n_lists, list_len, RandomStream(seed))
        ref = reference_lists(world, 1, n_lists, list_len, RandomStream(seed))
        assert bulk == ref

    def test_large_catalog(self):
        # rows longer than numpy's 8192-element reduction buffer
        world = make_world(1, 20000, 4, stream=RandomStream(6))
        bulk = block_lists(world, 0, 3, 12, RandomStream(7))
        assert bulk == reference_lists(world, 0, 3, 12, RandomStream(7))


class TestDrawListsChecks:
    """The kernel rejects what `Generator.choice` rejects in `p`."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize(
        "row",
        [
            [0.5, -0.1, 0.6],  # negative entry
            [0.5, np.nan, 0.5],  # NaN
            [1.0, 0.0, 0.0],  # nothing left to draw at the second slot
        ],
    )
    def test_rejects_like_choice(self, row):
        row = np.asarray(row)
        stream = RandomStream(0)
        with pytest.raises(ValueError):
            probs = row.copy()
            for _ in range(2):
                probs = probs / probs.sum()
                probs[int(stream.choice(3, p=probs))] = 0.0
        with pytest.raises(ValueError):
            _draw_lists(row, np.full((2, 2), 0.5))


# sha256 of data.tsv written by synth-gen, computed with the per-slot
# generator: any change to the generator's draws or arithmetic shows here.
PINNED_DATA = [
    (
        {},
        "1b5e605b7b7bc5d30e582c056ece9031062c853264c142545924a976260f6bda",
    ),
    (
        {"synth.noise_std": "0.2", "synth.mode": "linear"},
        "0f1c5e3251ae109893607a4f2e08b9c8c191398a0242409a4b3755197b36aebb",
    ),
]


@pytest.mark.parametrize("overrides, digest", PINNED_DATA)
def test_synth_gen_data_pinned(tmp_path, overrides, digest):
    cfg = load_config(
        overrides={"synth.n_users": "40", "synth.n_items": "30", **overrides}
    )
    stage_synth_gen(cfg, str(tmp_path))
    assert hashlib.sha256((tmp_path / "data.tsv").read_bytes()).hexdigest() == digest


class TestBadInput:
    @pytest.mark.parametrize("noise_std", [-0.1, float("nan"), float("inf")])
    def test_make_world_noise_std(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            make_world(2, 3, d=2, noise_std=noise_std, stream=RandomStream(0))

    @pytest.mark.parametrize("d", [0, -1])
    def test_make_world_d(self, d):
        with pytest.raises(ValueError, match=f"^d={d} must be >= 1"):
            make_world(2, 3, d=d, stream=RandomStream(0))

    @pytest.mark.parametrize("arg", ["n_lists", "list_len"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_list_shape(self, arg, value):
        world = make_world(2, 5, d=2, stream=RandomStream(0))
        kwargs = {"n_lists": 3, "list_len": 2, arg: value}
        with pytest.raises(ValueError, match=arg):
            emit_dataset(world, "linear", RandomStream(1), **kwargs)

    def test_noisy_feedback_needs_stream(self):
        world = make_world(2, 3, d=2, noise_std=0.1, stream=RandomStream(0))
        with pytest.raises(ValueError, match="stream"):
            user_feedback(world, 0, 1, "linear")
        assert user_feedback(world, 0, 1, "linear", RandomStream(2)) in (0, 1)
