import math

import numpy as np
import pytest

from cfrank.mathcore import (
    AdamState,
    RandomStream,
    TrainingError,
    adam_step,
    finite_diff_check,
    logsumexp,
    minibatch_adam,
    sigmoid,
    softmax,
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
        twice = adam_step(s1, adam_step(s1, params, np.array([1.0])), np.array([1.0]))
        s2 = AdamState.for_params(params, lr=0.2)
        once = adam_step(s2, params, np.array([1.0]))
        # constant gradients make the step sizes agree to O(eps), but the
        # trajectories are not identical and the carried state differs
        assert twice[0] != once[0]
        assert s1.step == 2 and s2.step == 1
        assert not np.array_equal(s1.m, s2.m)

    def test_dimension_mismatch(self):
        state = AdamState.for_params(np.zeros(3))
        with pytest.raises(ValueError):
            adam_step(state, np.zeros(3), np.zeros(4))


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
