"""Sample-complexity bounds for the voting and noisy-ERM guarantees, with
Monte-Carlo verification of both.

The voting bound counts observations needed to recover a pairwise relation
observed correctly with probability eta; the ERM bound counts noisy samples
needed for empirical risk minimization over a finite hypothesis set to land
within epsilon of the truth with probability 1 - delta.
"""

from __future__ import annotations

import math

import numpy as np

from .mathcore import RandomStream


def bound_theorem1(eta: float, delta: float) -> int:
    """Votes needed on one pair: ceil(ln(1/delta) / (2 (1-2 eta)^2)).

    Note this is the published constant; its own Hoeffding derivation solves
    to a bound four times larger (denominator (1-2 eta)^2 / 2), so for eta
    close to 1/2 the count below is too small to actually meet delta. See
    exact_voting_failure for the ground truth.
    """
    if not 0 < eta < 1 or eta == 0.5:
        raise ValueError("eta must lie in (0,1) and differ from 1/2")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0,1)")
    return math.ceil(math.log(1.0 / delta) / (2.0 * (1.0 - 2.0 * eta) ** 2))


def exact_voting_failure(eta: float, n: int) -> float:
    """Exact P(majority of n Bernoulli(eta) votes is wrong), ties excluded.

    Mirrored onto eta > 1/2; failure is a strict minority of correct votes,
    i.e. X < n/2 for X ~ Binomial(n, eta).
    """
    if n < 1:
        raise ValueError("need at least one vote")
    p = max(eta, 1.0 - eta)
    threshold = math.ceil(n / 2) - 1  # largest X with X < n/2
    return float(
        sum(math.comb(n, x) * p**x * (1.0 - p) ** (n - x) for x in range(threshold + 1))
    )


def _check_trials(trials):
    if trials < 1:
        raise ValueError(f"trials={trials} must be >= 1")


def simulate_voting(eta: float, n: int, trials: int, stream: RandomStream) -> float:
    """Empirical failure rate of majority voting over `trials` repetitions.

    A trial fails when strictly fewer than half the n votes are correct;
    exact ties are resolved in favor of the prediction, matching the strict
    inequality in exact_voting_failure.
    """
    if n < 1:
        raise ValueError("need at least one vote")
    _check_trials(trials)
    p = max(eta, 1.0 - eta)
    correct = (stream.uniform(size=(trials, n)) < p).sum(axis=1)
    return float(np.mean(2 * correct < n))


def bound_theorem2(n_hypotheses: int, delta: float, eps: float, zeta: float) -> int:
    """Samples needed under label noise zeta:
    ceil(2 ln(2|F|/delta) / (eps^2 (1-2 zeta)^2))."""
    if n_hypotheses < 1:
        raise ValueError("need at least one hypothesis")
    if not 0 < delta < 1 or not 0 < eps < 1:
        raise ValueError("delta and eps must lie in (0,1)")
    if not 0 <= zeta < 0.5:
        raise ValueError("zeta must lie in [0, 0.5)")
    return math.ceil(
        2.0 * math.log(2.0 * n_hypotheses / delta) / (eps**2 * (1.0 - 2.0 * zeta) ** 2)
    )


def simulate_noisy_erm(
    zeta: float,
    eps: float,
    delta: float,
    n_hypotheses: int,
    trials: int,
    stream: RandomStream,
    n_pairs: int = 32,
    n_cap: int = 100_000,
) -> float:
    """Empirical rate at which noisy ERM misses the epsilon ball.

    Each trial builds a hypothesis set of random binary labelings over
    `n_pairs` item pairs plus the ground truth, draws N = bound_theorem2(...)
    uniformly-chosen pairs whose true label is flipped with probability zeta,
    picks the hypothesis with the fewest mismatches against the noisy
    observations (ties to the lowest index), and records whether its true
    error exceeds eps.
    """
    _check_trials(trials)
    n = bound_theorem2(n_hypotheses, delta, eps, zeta)
    if n > n_cap:
        raise ValueError(
            f"required sample count {n} exceeds the cap {n_cap}; "
            "this parameter regime is not simulable in reasonable time"
        )
    failures = 0
    for _ in range(trials):
        truth = stream.integers(0, 2, n_pairs).astype(bool)
        hypotheses = stream.integers(0, 2, (n_hypotheses - 1, n_pairs)).astype(bool)
        hypotheses = np.vstack([hypotheses, truth])
        pair_idx = stream.integers(0, n_pairs, n)
        flips = stream.uniform(size=n) < zeta
        observed = truth[pair_idx] ^ flips
        mismatches = (hypotheses[:, pair_idx] != observed[None, :]).sum(axis=1)
        best = int(np.argmin(mismatches))
        true_error = float(np.mean(hypotheses[best] != truth))
        failures += true_error > eps
    return failures / trials
