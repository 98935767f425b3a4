import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfrank import mathcore
from gradcheck import finite_diff_check
from cfrank.mathcore import (
    AdamState,
    RandomStream,
    TrainingError,
    adam_step,
    logsumexp,
    minibatch_adam,
    sample_excluding,
    scatter_add,
    sigmoid,
    softmax,
    softplus,
    softplus_sigmoid,
    top_k,
)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_analytic(self):
        np.testing.assert_allclose(
            softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], atol=1e-14
        )

    def test_no_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_sums_to_one_many_lengths(self):
        rs = RandomStream(1)
        for length in (1, 2, 7, 100, 10_000):
            out = softmax(rs.normal(length) * 10)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0)

    def test_shift_invariance(self):
        rs = RandomStream(2)
        x = rs.normal(50)
        for c in (-100.0, 3.7, 1e6):
            np.testing.assert_allclose(softmax(x), softmax(x + c), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            softmax([0.0, float("nan")])

    def test_rows_match_single_calls(self):
        rs = RandomStream(4)
        for width in (1, 5, 9, 300):
            rows = rs.normal((6, width)) * 20
            out = softmax(rows)
            for row, got in zip(rows, out):
                assert got.tolist() == softmax(row).tolist()

    def test_rows_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            softmax([[0.0, 1.0], [float("inf"), 0.0]])


class TestRandomStream:
    def test_equal_seeds_equal_sequences(self):
        a = RandomStream(12345).normal(1000)
        b = RandomStream(12345).normal(1000)
        assert a.tobytes() == b.tobytes()

    def test_substreams_deterministic_and_distinct(self):
        root = RandomStream(7)
        s1 = root.substream("alpha").normal(10)
        s2 = RandomStream(7).substream("alpha").normal(10)
        s3 = root.substream("beta").normal(10)
        assert s1.tobytes() == s2.tobytes()
        assert s1.tobytes() != s3.tobytes()


class TestAdam:
    def test_zero_grad_is_identity_fresh_state(self):
        params = np.array([1.0, -2.0])
        state = AdamState.for_params(params, lr=0.1)
        out = adam_step(state, params, np.zeros(2))
        assert np.array_equal(out, params)

    def test_zero_grad_is_identity_after_history(self):
        params = np.array([1.0, -2.0, 0.3])
        state = AdamState.for_params(params, lr=0.05)
        for _ in range(5):
            params = adam_step(state, params, np.array([0.5, -0.1, 2.0]))
        frozen = params.copy()
        params = adam_step(state, params, np.zeros(3))
        assert np.array_equal(params, frozen)

    def test_first_step_size(self):
        params = np.array([0.0])
        state = AdamState.for_params(params, lr=0.1)
        out = adam_step(state, params, np.array([1.0]))
        # bias-corrected first step is lr / (1 + eps) for any gradient scale
        assert abs(out[0] + 0.1) < 1e-8

    def test_statefulness(self):
        params = np.array([0.0])
        s1 = AdamState.for_params(params, lr=0.1)
        twice = adam_step(
            s1, adam_step(s1, params.copy(), np.array([1.0])), np.array([1.0])
        )
        s2 = AdamState.for_params(params, lr=0.2)
        once = adam_step(s2, params.copy(), np.array([1.0]))
        # constant gradients make the step sizes agree to O(eps), but the
        # trajectories are not identical and the carried state differs
        assert twice[0] != once[0]
        assert s1.step == 2 and s2.step == 1
        assert not np.array_equal(s1.m, s2.m)

    def test_updates_the_given_array_in_place(self):
        params = np.array([1.0, -2.0, 0.5])
        state = AdamState.for_params(params, lr=0.1)
        out = adam_step(state, params, np.array([0.5, 0.0, -1.0]))
        assert out is params
        np.testing.assert_allclose(params, [0.9, -2.0, 0.6])
        assert adam_step(state, params, np.zeros(3)) is params

    def test_dimension_mismatch(self):
        state = AdamState.for_params(np.zeros(3))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("lr", [0.0, -1e-3, math.nan, math.inf, -math.inf])
    def test_bad_learning_rate_rejected(self, lr):
        # Every simulator, posterior and ranker fit makes its states here.
        with pytest.raises(ValueError, match=r"^lr=\S+ must be finite and > 0$"):
            AdamState.for_params(np.zeros(3), lr=lr)


def quadratic_loss_grad(params, batch):
    """sum over the batch of (x - target)^2 for one scalar parameter x."""
    diff = params["x"] - batch.astype(np.float64)
    return float(np.sum(diff**2)), {"x": 2.0 * diff.sum(keepdims=True)}


class TestMinibatchAdam:
    def fit(self, rows, batch_size=2, epochs=3, lr=0.1, stream=None):
        return minibatch_adam(
            {"x": np.zeros(1)}, lambda epoch: rows, quadratic_loss_grad, lr,
            batch_size, epochs, stream or RandomStream(0), "toy fit",
        )

    def test_moves_toward_rows(self):
        assert 0.0 < self.fit(np.array([1, 1, 1, 1]), epochs=20)["x"][0] <= 1.0

    def test_empty_epochs_skip_without_drawing(self):
        stream = RandomStream(4)
        out = self.fit(np.zeros(0, dtype=np.int64), stream=stream)
        assert np.array_equal(out["x"], np.zeros(1))
        assert stream.normal(3).tobytes() == RandomStream(4).normal(3).tobytes()

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_bad_batch_size_rejected(self, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            self.fit(np.array([1, 2]), batch_size=batch_size)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            self.fit(np.array([1, 2]), epochs=-1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_the_fit(self):
        with pytest.raises(TrainingError, match="toy fit diverged at epoch 1"):
            self.fit(np.array([1, 2]), lr=1e300)


class TestFiniteDiffCheck:
    def test_quadratic(self):
        err = finite_diff_check(
            lambda v: float(v[0] ** 2), np.array([3.0]), np.array([6.0])
        )
        assert err < 1e-6

    def test_softmax_cross_entropy(self):
        x = np.array([0.3, -1.2, 0.8])
        target = 2

        def loss(v):
            return float(-(v[target] - logsumexp(v)))

        grad = softmax(x).copy()
        grad[target] -= 1.0
        assert finite_diff_check(loss, x, grad) < 1e-5

    def test_detects_wrong_gradient(self):
        err = finite_diff_check(
            lambda v: float(v[0] ** 2), np.array([3.0]), np.array([12.0])
        )
        assert abs(err - 0.5) < 1e-3  # |6 - 12| / 12

    def test_non_finite_loss(self):
        with pytest.raises(FloatingPointError):
            finite_diff_check(
                lambda v: float("inf"), np.array([1.0]), np.array([0.0])
            )

    def test_bad_h(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda v: 0.0, np.array([1.0]), np.array([0.0]), h=0.0)


def test_sigmoid_extremes_finite():
    out = sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert np.all(np.isfinite(out))
    assert out[1] == 0.5


def two_branch_sigmoid(x):
    """The former `sigmoid`: 1/(1 + exp(-x)) on x >= 0, exp(x)/(1 + exp(x))
    elsewhere, each half through a boolean mask."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SIGMOID_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-300, -1e-300, 0.5, -0.5, 36.7, -36.7, 709.78, -709.78, 745.2, -745.2,
    800.0, -800.0, np.inf, -np.inf,
]


class TestSigmoid:
    def test_edges_match_two_branch_form(self):
        x = np.array(SIGMOID_EDGES)
        got = sigmoid(x)
        assert got.view(np.int64).tolist() == two_branch_sigmoid(x).view(np.int64).tolist()
        assert got[:2].tolist() == [0.5, 0.5]
        assert got[-2:].tolist() == [1.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(allow_nan=False, width=64), max_size=40),
        st.integers(1, 4),
    )
    def test_matches_two_branch_form(self, values, rows):
        x = np.array(values * rows, dtype=np.float64).reshape(rows, -1)
        got = sigmoid(x)
        assert got.shape == x.shape
        assert np.array_equal(got.view(np.int64), two_branch_sigmoid(x).view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), max_size=40))
    @example(SIGMOID_EDGES)
    def test_shared_exponential_matches_both_calls(self, values):
        x = np.array(values, dtype=np.float64)
        got_softplus, got_sigmoid = softplus_sigmoid(x)
        assert np.array_equal(got_softplus.view(np.int64), softplus(x).view(np.int64))
        assert np.array_equal(got_sigmoid.view(np.int64), sigmoid(x).view(np.int64))

    def test_scalar_and_nan(self):
        assert sigmoid(0.0).shape == ()
        assert sigmoid(-3.0) == two_branch_sigmoid(-3.0)
        out = sigmoid(np.array([np.nan, 1.0, -np.nan]))
        assert np.isnan(out[0]) and np.isnan(out[2])
        assert out[1] == two_branch_sigmoid(1.0)


SCATTER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


@st.composite
def scatter_cases(draw):
    """(out, index, values): a 1-D or 2-D float table holding ±0.0 among
    its values, and rows in [-n, n) with repeats, possibly none."""
    n = draw(st.integers(1, 6))
    row = draw(st.sampled_from([(), (1,), (3,), (5,)]))
    out = np.array(
        draw(st.lists(SCATTER_VALUES, min_size=n * max(row or (1,)),
                      max_size=n * max(row or (1,)))),
        dtype=np.float64,
    ).reshape((n,) + row)
    k = draw(st.integers(0, 25))
    index = np.array(draw(st.lists(st.integers(-n, n - 1), min_size=k, max_size=k)),
                     dtype=np.int64)
    size = k * max(row or (1,))
    values = np.array(
        draw(st.lists(SCATTER_VALUES, min_size=size, max_size=size)), dtype=np.float64
    ).reshape((k,) + row)
    return out, index, values


class TestScatterAdd:
    @settings(max_examples=150, deadline=None)
    @given(scatter_cases())
    def test_matches_add_at_bit_for_bit(self, case):
        out, index, values = case
        want = out.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # 1e300 terms
            np.add.at(want, index, values)
            scatter_add(out, index, values)
        assert out.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_signed_zeros(self):
        out = np.array([[-0.0, 0.0], [-0.0, -0.0]])
        scatter_add(out, np.array([0, 1, 1]), np.array([[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]))
        assert np.signbit(out).tolist() == [[True, False], [False, False]]

    def test_empty_index(self):
        out = np.arange(6.0).reshape(3, 2)
        scatter_add(out, np.zeros(0, np.int64), np.zeros((0, 2)))
        assert out.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]

    def test_broadcast_values(self):
        out, want = np.zeros((4, 3)), np.zeros((4, 3))
        index = np.array([3, -1, 0])
        scatter_add(out, index, np.array([1.0, 2.0, 3.0]))
        np.add.at(want, index, np.array([1.0, 2.0, 3.0]))
        assert out.tolist() == want.tolist()
        scatter_add(out, index, 0.5)
        np.add.at(want, index, 0.5)
        assert out.tolist() == want.tolist()

    @pytest.mark.parametrize("row", [4, -5])
    @pytest.mark.parametrize("shape", [(4,), (4, 3)])
    def test_out_of_range_row_raises(self, shape, row):
        with pytest.raises(IndexError):
            np.add.at(np.zeros(shape), np.array([row]), 1.0)
        with pytest.raises(IndexError):
            scatter_add(np.zeros(shape), np.array([row]), 1.0)

    @pytest.mark.parametrize(
        "view", [lambda a: a.T, lambda a: a[:, ::2], lambda a: a[::2]],
        ids=["transposed", "column-strided", "row-strided"],
    )
    def test_non_contiguous_out_raises(self, view):
        table = np.zeros((4, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            scatter_add(view(table), np.array([0, 1]), 1.0)
        assert not table.any()


def full_recheck_sample_excluding(keys, owners, stride, n_items, shape, stream, what):
    """The former `sample_excluding`: every pass looks up the whole draw."""
    draw = stream.integers(0, n_items, shape)
    if len(keys) == 0:
        return draw
    for _ in range(1000):
        query = owners * stride + draw
        pos = np.searchsorted(keys, query)
        bad = keys[np.minimum(pos, len(keys) - 1)] == query
        if not bad.any():
            return draw
        draw[bad] = stream.integers(0, n_items, int(bad.sum()))
    raise TrainingError("negative sampling failed; " + what)


@st.composite
def dense_exclusions(draw):
    """(keys, stride, n_items, owners, shape): owners that mostly exclude
    all but one or two items, so most entries need many passes, and owner
    arrays shaped (b, 1) or (b, m) against a (b, m) draw."""
    n_items = draw(st.integers(1, 30))
    n_owners = draw(st.integers(1, 5))
    stride = n_items + draw(st.integers(0, 3))
    rs = RandomStream(draw(st.integers(0, 2**32 - 1)))
    keys = []
    for owner in range(n_owners):
        left = draw(st.integers(1, min(2, n_items))) if draw(st.booleans()) else (
            draw(st.integers(1, n_items))
        )
        kept = rs.permutation(n_items)[left:]
        keys += (owner * stride + kept).tolist()
    b, m = draw(st.integers(0, 12)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        owners = rs.integers(0, n_owners, (b, 1))
    else:
        owners = rs.integers(0, n_owners, (b, m))
    return np.sort(np.array(keys, dtype=np.int64)), stride, n_items, owners, (b, m)


class TestSampleExcludingPasses:
    @settings(max_examples=80, deadline=None)
    @given(dense_exclusions(), st.integers(0, 2**32 - 1))
    def test_matches_full_recheck(self, case, seed):
        keys, stride, n_items, owners, shape = case
        a, b = RandomStream(seed), RandomStream(seed)
        got = sample_excluding(keys, owners, stride, n_items, shape, a, "x")
        want = full_recheck_sample_excluding(keys, owners, stride, n_items, shape, b, "x")
        assert got.shape == shape
        assert got.tolist() == want.tolist()
        assert a.integers(0, 1 << 30, 4).tolist() == b.integers(0, 1 << 30, 4).tolist()
        assert not np.isin(owners * stride + got, keys).any()

    def test_many_passes_one_dimensional(self):
        # 40 of 41 items excluded for every owner: about 41 passes per entry
        n_items = 41
        owners = np.arange(60) % 3
        keys = np.sort(np.concatenate(
            [o * n_items + np.delete(np.arange(n_items), 7 * o) for o in range(3)]
        ))
        a, b = RandomStream(4), RandomStream(4)
        got = sample_excluding(keys, owners, n_items, n_items, 60, a, "x")
        want = full_recheck_sample_excluding(keys, owners, n_items, n_items, 60, b, "x")
        assert got.tolist() == want.tolist() == (7 * owners).tolist()
        assert a.normal(3).tolist() == b.normal(3).tolist()

    @pytest.mark.parametrize("owners", [np.array([[0], [1]]), np.array([[1, 0], [1, 1]])])
    def test_owner_excluding_everything_fails(self, owners):
        keys = np.sort(np.concatenate([np.arange(5), 8 + np.arange(4)]))
        a, b = RandomStream(2), RandomStream(2)
        with pytest.raises(TrainingError, match="^negative sampling failed; none left$"):
            sample_excluding(keys, owners, 8, 5, (2, 2), a, "none left")
        with pytest.raises(TrainingError):
            full_recheck_sample_excluding(keys, owners, 8, 5, (2, 2), b, "none left")
        assert a.normal(2).tolist() == b.normal(2).tolist()


# few distinct values, so rows tie heavily, also across the cut
TIE_VALUES = [-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf]


@st.composite
def score_blocks(draw):
    """(scores, k, block_entries): a (b, n) block, k in [0, n], and a block
    size that makes top_k split the rows into one or several blocks."""
    b = draw(st.integers(0, 7))
    n = draw(st.integers(1, 12))
    value = st.one_of(
        st.sampled_from(TIE_VALUES), st.floats(-3, 3, allow_nan=False, width=16)
    )
    flat = draw(st.lists(value, min_size=b * n, max_size=b * n))
    k = draw(st.integers(0, n))
    block_entries = draw(st.sampled_from([1, n, 2 * n + 1, 1 << 16]))
    return np.array(flat, dtype=np.float64).reshape(b, n), k, block_entries


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(drawn=score_blocks())
    # ties straddling the cut: the partition may pick the higher tied ids
    @example(drawn=(np.array([[0.0, 2.0, 1.0, 1.0, 1.0, 1.0, 3.0, 1.0]]), 4, 1 << 16))
    @example(drawn=(np.zeros((3, 9)), 2, 9))
    def test_matches_stable_sort(self, drawn):
        scores, k, block_entries = drawn
        saved = mathcore.BLOCK_ENTRIES
        mathcore.BLOCK_ENTRIES = block_entries
        try:
            got = top_k(scores, k)
        finally:
            mathcore.BLOCK_ENTRIES = saved
        want = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        assert got.shape == (scores.shape[0], k)
        assert np.array_equal(got, want)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            top_k(np.array([[0.0, np.nan, 1.0]]), 1)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_k_outside_range_rejected(self, k):
        with pytest.raises(ValueError, match=rf"k={k} outside \[0, 3\]"):
            top_k(np.zeros((2, 3)), k)
