import math

import numpy as np
import pytest

from cfrank.mathcore import RandomStream
from cfrank.theorylab import (
    bound_theorem1,
    bound_theorem2,
    exact_voting_failure,
    simulate_noisy_erm,
    simulate_voting,
)


class TestBoundTheorem1:
    def test_frozen_values(self):
        assert bound_theorem1(0.75, 0.05) == 6
        assert bound_theorem1(0.6, 0.05) == 38

    def test_monotone_in_delta(self):
        for eta in (0.6, 0.7, 0.8):
            ns = [bound_theorem1(eta, d) for d in (0.01, 0.05, 0.1, 0.3)]
            assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_monotone_in_hardness(self):
        ns = [bound_theorem1(eta, 0.05) for eta in (0.55, 0.6, 0.7, 0.8, 0.95)]
        assert all(a >= b for a, b in zip(ns, ns[1:]))

    def test_mirror_symmetry(self):
        assert bound_theorem1(0.3, 0.05) == bound_theorem1(0.7, 0.05)

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            bound_theorem1(0.5, 0.05)
        with pytest.raises(ValueError):
            bound_theorem1(0.7, 1.5)


class TestVoting:
    def test_perfect_voter(self):
        assert simulate_voting(1.0, 7, 5000, RandomStream(0)) == 0.0

    def test_single_vote(self):
        rate = simulate_voting(0.55, 1, 100_000, RandomStream(1))
        sigma = math.sqrt(0.45 * 0.55 / 100_000)
        assert abs(rate - 0.45) <= 3 * sigma

    def test_matches_exact_tail(self):
        for eta, n in ((0.75, 6), (0.7, 10), (0.8, 5)):
            exact = exact_voting_failure(eta, n)
            rate = simulate_voting(eta, n, 100_000, RandomStream(n))
            sigma = math.sqrt(exact * (1 - exact) / 100_000)
            assert abs(rate - exact) <= 3 * sigma

    def test_example_point_within_slack(self):
        # eta=0.75 at its own bound N=6: exact strict tail is 0.0376
        rate = simulate_voting(0.75, 6, 100_000, RandomStream(3))
        assert rate <= 0.05 + 0.01

    def test_guarantee_holds_away_from_half(self):
        for eta in (0.7, 0.8):
            for delta in (0.05, 0.1):
                n = bound_theorem1(eta, delta)
                assert exact_voting_failure(eta, n) <= delta + 0.01

    def test_published_constant_too_small_near_half(self):
        # The stated bound under-counts by 4x versus its own derivation;
        # at eta=0.6 the exact failure provably exceeds delta. The
        # acceptance suite exercises (and fails) this regime by design.
        assert exact_voting_failure(0.6, bound_theorem1(0.6, 0.05)) > 0.06
        assert exact_voting_failure(0.6, bound_theorem1(0.6, 0.1)) > 0.11
        # the derivation-consistent count (4x larger) does satisfy delta
        assert exact_voting_failure(0.6, 4 * bound_theorem1(0.6, 0.05)) <= 0.05

    def test_mirrored_eta(self):
        a = simulate_voting(0.3, 5, 20_000, RandomStream(2))
        b = simulate_voting(0.7, 5, 20_000, RandomStream(2))
        assert a == b


class TestBoundTheorem2:
    def test_frozen_value(self):
        assert bound_theorem2(100, 0.05, 0.1, 0.25) == 6636

    def test_noise_free_base_case(self):
        f, delta, eps = 50, 0.1, 0.2
        expected = math.ceil(2 * math.log(2 * f / delta) / eps**2)
        assert bound_theorem2(f, delta, eps, 0.0) == expected

    def test_monotone_in_zeta(self):
        ns = [bound_theorem2(16, 0.1, 0.2, z) for z in (0.0, 0.1, 0.25, 0.4)]
        assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_monotone_in_eps_and_delta(self):
        assert bound_theorem2(16, 0.1, 0.1, 0.1) > bound_theorem2(16, 0.1, 0.2, 0.1)
        assert bound_theorem2(16, 0.05, 0.2, 0.1) >= bound_theorem2(16, 0.1, 0.2, 0.1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_theorem2(16, 0.1, 0.2, 0.5)
        with pytest.raises(ValueError):
            bound_theorem2(0, 0.1, 0.2, 0.1)


class TestNoisyErm:
    def test_noiseless_separable(self):
        rate = simulate_noisy_erm(
            0.0, 0.2, 0.1, 16, trials=200, stream=RandomStream(4)
        )
        assert rate == 0.0

    def test_sample_cap_guard(self):
        with pytest.raises(ValueError, match="cap"):
            simulate_noisy_erm(0.49, 0.2, 0.1, 16, trials=1, stream=RandomStream(0))

    def test_moderate_noise_meets_delta(self):
        rate = simulate_noisy_erm(
            0.25, 0.2, 0.1, 16, trials=300, stream=RandomStream(5)
        )
        assert rate <= 0.12


@pytest.mark.parametrize("trials", [0, -5])
def test_simulations_need_a_trial(trials):
    with pytest.raises(ValueError, match=f"trials={trials} must be >= 1"):
        simulate_voting(0.75, 6, trials, RandomStream(0))
    with pytest.raises(ValueError, match=f"trials={trials} must be >= 1"):
        simulate_noisy_erm(0.25, 0.2, 0.1, 16, trials, RandomStream(0))


class TestExactTail:
    def test_hand_computed_values(self):
        # P(Bin(6, .75) <= 2) for the strict minority event
        expected = sum(
            math.comb(6, k) * 0.75**k * 0.25 ** (6 - k) for k in range(3)
        )
        assert exact_voting_failure(0.75, 6) == pytest.approx(expected)
        assert exact_voting_failure(0.75, 6) == pytest.approx(0.03759765625)

    def test_odd_n_threshold(self):
        # N=5: fewer than 2.5 correct votes means X <= 2
        expected = sum(
            math.comb(5, k) * 0.8**k * 0.2 ** (5 - k) for k in range(3)
        )
        assert exact_voting_failure(0.8, 5) == pytest.approx(expected)
