import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfrank import intervention
from cfrank.cli import load_config, run_pipeline
from cfrank.intervention import (
    SAMPLE_MODES,
    CounterfactualBatch,
    Episodes,
    GaussianPolicy,
    load_policy,
    pretrain_policy,
    random_list,
    realize_list,
    reinforce_update,
    run_intervention_round,
    save_policy,
    surrogate_loss_grads,
)
from cfrank.mathcore import RandomStream, top_k
from gradcheck import finite_diff_check
from cfrank.rankers import loss_pairwise, loss_pointwise, make_model
from cfrank.simulator import SimParams, VariationalPosterior, counterfactual_select


# ---------------------------------------------------------------------------
# Per-list references for the batched engine


def policy_sample(
    policy: GaussianPolicy, user_embed, stream: RandomStream, explore_std: float = 0.0
):
    """Draw an action and its log-density; optionally add exploration noise.

    Returns (tau, action, logprob): `action` is the policy's own draw and the
    log-density refers to it, `tau` adds the exploration perturbation and is
    what downstream list realization should use.
    """
    user_embed = np.asarray(user_embed, dtype=np.float64)
    mu = policy.mean(user_embed)
    std = np.exp(policy.log_std)
    action = mu + std * stream.normal(policy.d)
    tau = action.copy()
    if explore_std > 0:
        tau = tau + explore_std * stream.normal(policy.d)
    logprob = policy.log_prob(user_embed, action)
    return tau, action, logprob


def build_samples(
    user: int, items, slot_probs, mode: str, k: int, provenance: str = ""
) -> CounterfactualBatch:
    """Confidence-filtered samples from one labeled list, through the block
    kernel of `run_intervention_round`.

    The k highest-probability slots act as selected items and the k lowest
    as rejected ones (one shared ranking, ties to the lower slot, so the two
    sets are disjoint whenever 2k <= K). Pairwise mode emits the k*k cross
    pairs with the probability margin as confidence; pointwise mode labels
    the two sets 1 and 0 with the slot probability (or its complement) as
    confidence.
    """
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown sample mode {mode!r}")
    n = len(items)
    if not 1 <= k < n:
        raise ValueError(f"noise-control level k={k} invalid for list of {n}")
    if len(set(items)) != n:
        raise ValueError("list contains duplicate items")
    probs = np.asarray(slot_probs, dtype=np.float64).reshape(1, n)
    rows, conf = intervention._block_samples(
        [user], np.asarray(items).reshape(1, n), probs, top_k(probs, n),
        mode, k, noise_control=True,
    )
    return intervention._batch_from_block(mode, rows, conf, [provenance])


def build_samples_unfiltered(
    user: int, items, selected, mode: str, slot_probs=None, provenance: str = ""
) -> CounterfactualBatch:
    """All selected-vs-rest samples from one labeled list, no filtering."""
    if mode not in SAMPLE_MODES:
        raise ValueError(f"unknown sample mode {mode!r}")
    selected = list(selected)
    if not set(selected) <= set(items):
        raise ValueError("selected items must come from the realized list")
    rest = [i for i in items if i not in selected]
    probs = {
        item: float(p)
        for item, p in zip(items, np.asarray(slot_probs, dtype=np.float64))
    } if slot_probs is not None else {}
    batch = CounterfactualBatch(mode=mode)
    if mode == "pairwise":
        for i in selected:
            for j in rest:
                batch.triplets.append((user, i, j))
                batch.confidences.append(probs.get(i, 1.0) - probs.get(j, 0.0))
                batch.provenance.append(provenance)
    else:
        for i in selected:
            batch.points.append((user, i, 1))
            batch.confidences.append(probs.get(i, 1.0))
            batch.provenance.append(provenance)
        for j in rest:
            batch.points.append((user, j, 0))
            batch.confidences.append(1.0 - probs.get(j, 0.0))
            batch.provenance.append(provenance)
    return batch


class TestPolicySample:
    # zero-variance draws make the log-density degenerate; only the action matters
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_std_returns_mean(self):
        policy = GaussianPolicy(3, 4, RandomStream(1))
        policy.log_std = np.full(3, -np.inf)
        x = np.array([0.5, -0.2, 1.0])
        tau, action, _ = policy_sample(policy, x, RandomStream(2))
        np.testing.assert_allclose(tau, policy.mean(x))
        np.testing.assert_allclose(action, policy.mean(x))

    def test_logprob_at_mode_unit_std(self):
        d = 4
        policy = GaussianPolicy(d, 5, RandomStream(1))
        policy.log_std = np.zeros(d)
        x = np.array([1.0, 0.0, -1.0, 0.5])
        lp = policy.log_prob(x, policy.mean(x))
        assert lp == pytest.approx(-(d / 2) * math.log(2 * math.pi))

    def test_streams_differ(self):
        policy = GaussianPolicy(3, 4, RandomStream(1))
        x = np.zeros(3)
        t1, _, _ = policy_sample(policy, x, RandomStream(10))
        t2, _, _ = policy_sample(policy, x, RandomStream(11))
        assert not np.allclose(t1, t2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exploration_noise_added(self):
        policy = GaussianPolicy(3, 4, RandomStream(1))
        policy.log_std = np.full(3, -np.inf)
        x = np.zeros(3)
        tau, action, _ = policy_sample(policy, x, RandomStream(3), explore_std=1.0)
        assert not np.allclose(tau, action)


def tiny_params(n_items=6, k=3, d=2):
    rs = RandomStream(8)
    return SimParams(
        P=rs.normal((2, d)),
        Q=rs.normal((n_items, d)),
        w_r=rs.normal(n_items),
        X=rs.normal((2, d)),
        Y=rs.normal((n_items, d)),
        w_s=rs.normal(k),
    )


class TestRealizeList:
    def test_tie_break_all_zero(self):
        params = tiny_params()
        params.Q[:] = 0
        params.w_r[:] = 0
        assert realize_list(params, np.zeros(2), np.zeros(6), 3) == [0, 1, 2]

    def test_one_hot_center(self):
        params = tiny_params(n_items=5, d=5)
        params.Q = np.eye(5)
        params.w_r[:] = 0
        items = realize_list(params, 100.0 * np.eye(5)[3], np.zeros(5), 2)
        assert items[0] == 3

    def test_distinct_and_sized(self):
        params = tiny_params()
        for seed in range(5):
            alpha = RandomStream(seed).normal(6)
            tau = RandomStream(seed + 50).normal(2)
            items = realize_list(params, tau, alpha, 4)
            assert len(items) == 4 and len(set(items)) == 4

    def test_too_long(self):
        with pytest.raises(ValueError):
            realize_list(tiny_params(), np.zeros(2), np.zeros(6), 7)


class TestRandomList:
    def test_full_permutation(self):
        items = random_list(5, 5, RandomStream(3))
        assert sorted(items) == [0, 1, 2, 3, 4]

    def test_uniform_frequency(self):
        n_items, k, draws = 12, 3, 6000
        stream = RandomStream(9)
        counts = np.zeros(n_items)
        for _ in range(draws):
            for item in random_list(n_items, k, stream):
                counts[item] += 1
        p = k / n_items
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_deterministic(self):
        assert random_list(9, 4, RandomStream(5)) == random_list(9, 4, RandomStream(5))

    def test_too_long(self):
        with pytest.raises(ValueError):
            random_list(3, 4, RandomStream(0))


class TestBuildSamples:
    probs = [0.4, 0.1, 0.3, 0.15, 0.05]
    items = [10, 11, 12, 13, 14]

    def test_k1_pairwise(self):
        batch = build_samples(7, self.items, self.probs, "pairwise", 1)
        assert batch.triplets == [(7, 10, 14)]

    def test_k2_pairwise(self):
        batch = build_samples(7, self.items, self.probs, "pairwise", 2)
        assert len(batch.triplets) == 4
        pos = {t[1] for t in batch.triplets}
        neg = {t[2] for t in batch.triplets}
        assert pos == {10, 12} and neg == {11, 14}

    def test_k2_pointwise(self):
        batch = build_samples(7, self.items, self.probs, "pointwise", 2)
        labels = [p[2] for p in batch.points]
        assert len(batch.points) == 4
        assert labels.count(1) == 2 and labels.count(0) == 2

    def test_confidences_in_range(self):
        for mode in ("pairwise", "pointwise"):
            batch = build_samples(7, self.items, self.probs, mode, 2)
            assert all(0.0 <= c <= 1.0 for c in batch.confidences)

    def test_overlapping_k_drops_self_pairs(self):
        # k=3 over 5 slots shares the middle slot between the two sets
        batch = build_samples(7, self.items, self.probs, "pairwise", 3)
        assert len(batch.triplets) == 8
        assert all(i != j for _, i, j in batch.triplets)

    def test_ties_break_by_slot(self):
        batch = build_samples(0, [5, 6, 7, 8], [0.25] * 4, "pairwise", 1)
        assert batch.triplets == [(0, 5, 8)]

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_samples(0, [4, 5, 4, 6], [0.4, 0.3, 0.2, 0.1], "pairwise", 2)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_samples(0, self.items, self.probs, "pairwise", 0)
        with pytest.raises(ValueError):
            build_samples(0, self.items, self.probs, "pairwise", 5)

    def test_gap_monotone_in_k(self):
        probs = [0.35, 0.25, 0.2, 0.12, 0.05, 0.03]
        items = list(range(6))
        gaps = []
        for k in (1, 2, 3):
            batch = build_samples(0, items, probs, "pairwise", k)
            pairs = [
                (probs[items.index(i)], probs[items.index(j)])
                for _, i, j in batch.triplets
            ]
            gaps.append(min(pi - pj for pi, pj in pairs))
        assert gaps[0] >= gaps[1] >= gaps[2]


class TestBuildSamplesUnfiltered:
    def test_pairwise_counts(self):
        batch = build_samples_unfiltered(3, [0, 1, 2, 3, 4], [1, 3], "pairwise")
        assert len(batch.triplets) == 2 * 3

    def test_empty_selection(self):
        batch = build_samples_unfiltered(3, [0, 1, 2], [], "pairwise")
        assert len(batch) == 0

    def test_all_selected_pointwise(self):
        batch = build_samples_unfiltered(3, [0, 1, 2], [0, 1, 2], "pointwise")
        assert len(batch.points) == 3
        assert all(p[2] == 1 for p in batch.points)

    def test_selected_outside_list_rejected(self):
        with pytest.raises(ValueError):
            build_samples_unfiltered(3, [0, 1], [5], "pairwise")


def make_episodes(policy, n, seed=0):
    rs = RandomStream(seed)
    embeds, actions = [], []
    for _ in range(n):
        embeds.append(rs.normal(policy.d))
        actions.append(policy_sample(policy, embeds[-1], rs)[1])
    return Episodes(np.array(embeds), np.array(actions))


class TestReinforce:
    def test_equal_rewards_zero_update(self):
        policy = GaussianPolicy(3, 4, RandomStream(2))
        before = {k: v.copy() for k, v in policy.params().items()}
        reinforce_update(policy, make_episodes(policy, 3), [2.5, 2.5, 2.5], lr=0.1)
        for k, v in policy.params().items():
            assert np.array_equal(before[k], v)

    def test_positive_advantage_raises_logprob(self):
        policy = GaussianPolicy(3, 4, RandomStream(2))
        episodes = make_episodes(policy, 2)
        x, a = episodes.user_embed[1], episodes.action[1]
        before = policy.log_prob(x, a)
        reinforce_update(policy, episodes, [0.0, 4.0], lr=1e-3)
        after = policy.log_prob(x, a)
        assert after > before

    def test_reward_shift_invariance(self):
        base_rewards = [1.0, 3.0, -2.0]
        results = []
        for shift in (0.0, 100.0):
            policy = GaussianPolicy(3, 4, RandomStream(2))
            rewards = [r + shift for r in base_rewards]
            reinforce_update(policy, make_episodes(policy, 3), rewards, lr=0.01)
            results.append({k: v.copy() for k, v in policy.params().items()})
        for k in results[0]:
            np.testing.assert_allclose(results[0][k], results[1][k], atol=1e-10)

    def test_surrogate_gradients_match_finite_differences(self):
        policy = GaussianPolicy(3, 4, RandomStream(6))
        episodes = make_episodes(policy, 3, seed=3)
        rewards = [1.0, -0.5, 2.0]
        baseline = float(np.mean(rewards))
        names = list(policy.params())
        shapes = {k: v.shape for k, v in policy.params().items()}

        def pack(values):
            return np.concatenate([np.asarray(values[k]).ravel() for k in names])

        def unpack(v):
            out, ofs = {}, 0
            for k in names:
                size = int(np.prod(shapes[k]))
                out[k] = v[ofs : ofs + size].reshape(shapes[k])
                ofs += size
            return out

        base = pack(policy.params())
        _, grads = surrogate_loss_grads(policy, episodes, rewards, baseline)

        def value(v):
            policy.set_params(unpack(v))
            out = surrogate_loss_grads(policy, episodes, rewards, baseline)[0]
            policy.set_params(unpack(base))
            return out

        assert finite_diff_check(value, base, pack(grads)) < 1e-4

    def test_empty_episodes_rejected(self):
        policy = GaussianPolicy(2, 3, RandomStream(0))
        with pytest.raises(ValueError):
            reinforce_update(policy, make_episodes(policy, 0), [], lr=0.1)

    @pytest.mark.parametrize("rewards", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
    def test_one_reward_per_episode(self, rewards):
        policy = GaussianPolicy(2, 3, RandomStream(0))
        before = {k: v.copy() for k, v in policy.params().items()}
        with pytest.raises(ValueError, match="rewards for 2 episodes"):
            reinforce_update(policy, make_episodes(policy, 2), rewards, lr=0.1)
        assert all(np.array_equal(before[k], v) for k, v in policy.params().items())


def spy_pretraining(monkeypatch):
    """Records, for each pretraining step, the round's (batch, episodes) and
    the rewards its policy update was given."""
    seen = []
    real_round, real_update = run_intervention_round, reinforce_update

    def round_spy(*args, **kwargs):
        seen.append([real_round(*args, **kwargs)])
        return seen[-1][0]

    def update_spy(policy, episodes, rewards, lr):
        seen[-1].append(np.array(rewards))
        return real_update(policy, episodes, rewards, lr)

    monkeypatch.setattr(intervention, "run_intervention_round", round_spy)
    monkeypatch.setattr(intervention, "reinforce_update", update_spy)
    return seen


class TestInterventionRound:
    def setup_method(self):
        self.params = tiny_params(n_items=8, k=4)
        self.posterior = VariationalPosterior(np.zeros(8), np.ones(8), np.zeros(4), np.ones(4))
        self.target = make_model("bpr-mf", 2, 8, 3, RandomStream(4))
        self.policy = GaussianPolicy(2, 4, RandomStream(5))

    def test_zero_actions_empty(self):
        batch, episodes = run_intervention_round(
            self.policy,
            self.params,
            self.posterior,
            [0, 1],
            actions_per_user=0,
            mode="pairwise",
            k=1,
            stream=RandomStream(1),
        )
        assert len(batch) == 0 and len(episodes) == 0

    def test_deterministic(self):
        outs = []
        for _ in range(2):
            batch, _ = run_intervention_round(
                self.policy,
                self.params,
                self.posterior,
                [0, 1],
                actions_per_user=2,
                mode="pairwise",
                k=2,
                stream=RandomStream(3),
            )
            outs.append(batch.triplets)
        assert outs[0] == outs[1]

    def test_rewards_match_recomputed_loss(self, monkeypatch):
        seen = spy_pretraining(monkeypatch)
        pretrain_policy(
            self.policy, self.params, self.posterior, self.target, n_users=2,
            episodes=1, steps_per_episode=2, mode="pairwise", k=2, lr=0.01,
            stream=RandomStream(7),
        )
        ((batch, episodes), rewards), = seen
        for e, tag in enumerate(["pretrain0/u0/t0", "pretrain0/u1/t0"]):
            np.testing.assert_array_equal(episodes.user_embed[e], self.params.P[e])
            rows = [
                t for t, src in zip(batch.triplets, batch.provenance) if src == tag
            ]
            assert rewards[e] == loss_pairwise(self.target, rows)

    def test_random_source(self):
        batch, episodes = run_intervention_round(
            None,
            self.params,
            self.posterior,
            [0, 1],
            actions_per_user=1,
            mode="pairwise",
            k=1,
            stream=RandomStream(2),
        )
        assert all(src == "random" for src in batch.provenance)
        np.testing.assert_array_equal(episodes.user_embed, self.params.P[[0, 1]])
        np.testing.assert_array_equal(episodes.action, np.zeros((2, 2)))

    def test_pointwise_mode(self):
        batch, episodes = run_intervention_round(
            self.policy,
            self.params,
            self.posterior,
            [0],
            actions_per_user=1,
            mode="pointwise",
            k=2,
            stream=RandomStream(2),
        )
        assert len(batch.points) == 4

    def test_pretrain_runs_and_updates(self):
        before = {k: v.copy() for k, v in self.policy.params().items()}
        pretrain_policy(
            self.policy,
            self.params,
            self.posterior,
            self.target,
            n_users=2,
            episodes=3,
            steps_per_episode=4,
            mode="pairwise",
            k=1,
            lr=0.01,
            stream=RandomStream(6),
        )
        changed = any(
            not np.array_equal(before[k], v) for k, v in self.policy.params().items()
        )
        assert changed

    @pytest.mark.parametrize(
        "episodes, steps, field",
        [(-1, 4, "episodes"), (3, 0, "steps_per_episode"), (0, -1, "steps_per_episode")],
    )
    def test_pretrain_bad_size_rejected(self, episodes, steps, field):
        with pytest.raises(ValueError, match=f"^{field}="):
            pretrain_policy(
                self.policy, self.params, self.posterior, self.target, n_users=2,
                episodes=episodes, steps_per_episode=steps, mode="pairwise", k=1,
                lr=0.01, stream=RandomStream(6),
            )

    @pytest.mark.parametrize(
        "lr, explore, message",
        [
            (0.0, 0.5, "lr=0.0 must be finite and > 0"),
            (-0.01, 0.5, "lr=-0.01 must be finite and > 0"),
            (math.nan, 0.5, "lr=nan must be finite and > 0"),
            (math.inf, 0.5, "lr=inf must be finite and > 0"),
            (0.01, -1.0, "explore_start=-1.0 must be finite and >= 0"),
            (0.01, math.nan, "explore_start=nan must be finite and >= 0"),
            (0.01, math.inf, "explore_start=inf must be finite and >= 0"),
        ],
    )
    def test_pretrain_bad_rate_rejected(self, lr, explore, message):
        before = {k: v.copy() for k, v in self.policy.params().items()}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pretrain_policy(
                self.policy, self.params, self.posterior, self.target, n_users=2,
                episodes=3, steps_per_episode=4, mode="pairwise", k=1, lr=lr,
                stream=RandomStream(6), explore_start=explore,
            )
        assert all(np.array_equal(before[k], v) for k, v in self.policy.params().items())


PAIR_HEADER = "user\tpos_item\tneg_item\tconfidence\tprovenance"
POINT_HEADER = "user\titem\tlabel\tconfidence\tprovenance"


class TestBatchIO:
    def test_tsv_round_trip(self, tmp_path):
        batch = build_samples(3, [4, 5, 6, 7], [0.4, 0.3, 0.2, 0.1], "pairwise", 2)
        path = tmp_path / "batch.tsv"
        batch.to_tsv(path)
        again = CounterfactualBatch.from_tsv(path)
        assert again.mode == batch.mode
        assert again.triplets == batch.triplets
        assert again.provenance == batch.provenance

    def test_tsv_lines_across_chunks(self, tmp_path):
        n = 2 * intervention._TSV_CHUNK + 3
        points = [(u % 7, u % 11 + 1, u % 2) for u in range(n)]
        confidences = [u / 3 for u in range(n)]
        provenance = [f"r{u % 5}" for u in range(n)]
        batch = CounterfactualBatch("pointwise", [], points, confidences, provenance)
        path = tmp_path / "batch.tsv"
        batch.to_tsv(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert len(lines) == n + 3 and lines[-1] == ""
        assert lines[2:-1] == [
            f"{u}\t{i}\t{y}\t{c:.6f}\t{r}"
            for (u, i, y), c, r in zip(points, confidences, provenance)
        ]

    @pytest.mark.parametrize(
        "mode, rows, confidences, provenance",
        [
            ("pairwise", [(0, 1, 2), (0, 3, 4)], [0.5], ["r0", "r0"]),
            ("pointwise", [(0, 1, 1)], [0.5, 0.25], ["r0"]),
            ("pairwise", [(0, 1, 2)], [0.5], []),
        ],
    )
    def test_mismatched_lengths_leave_existing_file(
        self, tmp_path, mode, rows, confidences, provenance
    ):
        triplets, points = (rows, []) if mode == "pairwise" else ([], rows)
        batch = CounterfactualBatch(mode, triplets, points, confidences, provenance)
        path = tmp_path / "batches.tsv"
        path.write_text("keep\n")
        message = (
            f"a batch of {len(rows)} rows, {len(confidences)} confidences "
            f"and {len(provenance)} provenance entries"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            batch.to_tsv(path)
        assert path.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("", 1, "expected '#mode pairwise' or '#mode pointwise', got ''"),
            ("#mode listwise\nuser\n", 1, "got '#mode listwise'"),
            (f"#mode pairwise\n{PAIR_HEADER}\n1\t2\t3\n", 3, "3 fields in a row of 5"),
            (f"#mode pointwise\n{POINT_HEADER}\n1\t2\t1\t0.5\tr\n1\tx\t0\t0.5\tr\n",
             4, "ids must be integers"),
            (f"#mode pairwise\n{PAIR_HEADER}\n1\t2.0\t3\t0.5\tr\n", 3,
             "ids must be integers"),
            (f"#mode pairwise\n{PAIR_HEADER}\n1\t2\t3\thigh\tr\n", 3,
             "confidence must be a number"),
            # no header line: the first sample must not be read as one
            ("#mode pairwise\n1\t2\t3\t0.5\tr\n", 2,
             f"expected {PAIR_HEADER!r}, got '1\\t2\\t3\\t0.5\\tr'"),
            (f"#mode pairwise\n{POINT_HEADER}\n1\t2\t3\t0.5\tr\n", 2,
             f"expected {PAIR_HEADER!r}, got {POINT_HEADER!r}"),
        ],
        ids=["empty", "unknown-mode", "short-row", "non-integer-item",
             "float-item", "non-numeric-confidence", "no-header",
             "pointwise-header-in-pairwise"],
    )
    def test_malformed_tsv_names_line(self, tmp_path, text, lineno, message):
        path = tmp_path / "batches.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: ") as info:
            CounterfactualBatch.from_tsv(path)
        assert message in str(info.value)

    def test_policy_round_trip(self, tmp_path):
        policy = GaussianPolicy(3, 5, RandomStream(12))
        path = tmp_path / "policy.txt"
        save_policy(policy, path)
        again = load_policy(path)
        x = RandomStream(1).normal(3)
        np.testing.assert_array_equal(policy.mean(x), again.mean(x))
        np.testing.assert_array_equal(policy.log_std, again.log_std)

    def test_mode_mismatch_merge(self):
        a = CounterfactualBatch(mode="pairwise")
        b = CounterfactualBatch(mode="pointwise")
        with pytest.raises(ValueError):
            a.extend(b)


# ---------------------------------------------------------------------------
# The batched engine against the per-episode loop it replaced


def reference_realize_list(params, tau, alpha, list_len):
    """Per-list realization: catalog matvec and a full lexsort."""
    scores = params.Q @ np.asarray(tau, dtype=np.float64) + params.w_r * alpha
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [int(i) for i in order[:list_len]]


def reference_build_samples(user, items, slot_probs, mode, k, provenance):
    """Per-list confidence-filtered samples, one Python tuple at a time."""
    probs = np.asarray(slot_probs, dtype=np.float64)
    order = sorted(range(len(probs)), key=lambda t: (-probs[t], t))
    top, bottom = order[:k], order[-k:]
    batch = CounterfactualBatch(mode=mode)
    if mode == "pairwise":
        for t_pos in top:
            for t_neg in bottom:
                if items[t_pos] == items[t_neg]:
                    continue
                batch.triplets.append((user, items[t_pos], items[t_neg]))
                batch.confidences.append(float(probs[t_pos] - probs[t_neg]))
                batch.provenance.append(provenance)
    else:
        for t in top:
            batch.points.append((user, items[t], 1))
            batch.confidences.append(float(probs[t]))
            batch.provenance.append(provenance)
        for t in bottom:
            batch.points.append((user, items[t], 0))
            batch.confidences.append(float(1.0 - probs[t]))
            batch.provenance.append(provenance)
    return batch


def reference_round(
    policy, params, posterior, users, actions, mode, k, stream,
    explore_std, noise_control, list_source, round_tag,
):
    """One episode at a time: policy_sample -> realize_list ->
    counterfactual_select -> build_samples[_unfiltered]. Returns the merged
    batch and each episode's user embedding and action."""
    merged = CounterfactualBatch(mode=mode)
    embeds, taken = [], []
    for user in users:
        for t in range(actions):
            tag = f"{round_tag}/u{user}/t{t}"
            alpha = posterior.sample_alpha(stream)
            embed = params.P[user]
            if list_source == "policy":
                tau, action, _ = policy_sample(policy, embed, stream, explore_std)
                items = reference_realize_list(params, tau, alpha, params.list_len)
            else:
                action = np.zeros(params.P.shape[1])
                items = random_list(params.n_items, params.list_len, stream)
                tag = "random"
            selected, probs = counterfactual_select(
                params, posterior, user, items, m=k, stream=stream
            )
            if noise_control:
                batch = reference_build_samples(user, items, probs, mode, k, tag)
            else:
                batch = build_samples_unfiltered(
                    user, items, selected, mode, slot_probs=probs, provenance=tag
                )
            embeds.append(embed)
            taken.append(action)
            merged.extend(batch)
    return merged, embeds, taken


def random_world(seed, n_users, n_items, list_len, d, dup_items, zero_noise):
    """Simulator, posterior and policy drawn from one seed. The first
    `dup_items` items repeat item 0's exposure row with w_r = 0, so their
    list scores tie exactly; `zero_noise` collapses both posteriors."""
    rs = RandomStream(seed)
    params = SimParams(
        P=rs.normal((n_users, d)),
        Q=rs.normal((n_items, d)),
        w_r=rs.normal(n_items),
        X=rs.normal((n_users, d)),
        Y=rs.normal((n_items, d)),
        w_s=rs.normal(list_len),
    )
    params.Q[1 : dup_items + 1] = params.Q[0]
    params.w_r[: dup_items + 1] = 0.0
    posterior = VariationalPosterior(
        mu_alpha=rs.normal(n_items),
        sigma_alpha=np.zeros(n_items) if zero_noise else rs.uniform(size=n_items),
        mu_beta=rs.normal(list_len),
        sigma_beta=np.zeros(list_len) if zero_noise else rs.uniform(size=list_len),
    )
    policy = GaussianPolicy(d, 5, rs.substream("policy"))
    return params, posterior, policy


@st.composite
def round_setups(draw):
    n_items = draw(st.integers(2, 12))
    list_len = draw(st.integers(2, n_items))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n_users": draw(st.integers(1, 4)),
        "n_items": n_items,
        "list_len": list_len,
        "d": draw(st.integers(1, 4)),
        "dup_items": draw(st.integers(0, n_items - 1)),
        "zero_noise": draw(st.booleans()),
        "k": draw(st.integers(1, list_len - 1)),
        "mode": draw(st.sampled_from(["pairwise", "pointwise"])),
        "noise_control": draw(st.booleans()),
        "list_source": draw(st.sampled_from(["policy", "random"])),
        "explore_std": draw(st.sampled_from([0.0, 0.7])),
        "actions": draw(st.integers(0, 4)),
        # episodes per block, from one up to more than a round has
        "block_rows": draw(st.integers(1, 40)),
    }


# Every list is the whole catalog, every item ties, 2k > K, and each episode
# is its own block.
EDGE_CASE = {
    "seed": 12, "n_users": 3, "n_items": 5, "list_len": 5, "d": 2,
    "dup_items": 4, "zero_noise": True, "k": 3, "actions": 2, "block_rows": 1,
}


def assert_rounds_equal(got, want):
    (batch, episodes), (ref_batch, ref_embeds, ref_actions) = got, want
    assert batch.mode == ref_batch.mode
    assert batch.triplets == ref_batch.triplets
    assert batch.points == ref_batch.points
    assert batch.provenance == ref_batch.provenance
    np.testing.assert_allclose(
        batch.confidences, ref_batch.confidences, rtol=1e-12, atol=1e-15
    )
    d = episodes.user_embed.shape[1]
    assert len(episodes) == len(ref_embeds)
    np.testing.assert_array_equal(
        episodes.user_embed, np.reshape(ref_embeds, (-1, d))
    )
    np.testing.assert_allclose(
        episodes.action, np.reshape(ref_actions, (-1, d)), rtol=1e-12, atol=1e-15
    )


class TestBatchedRound:
    @settings(max_examples=150, deadline=None)
    @given(round_setups())
    @example(
        {**EDGE_CASE, "mode": "pairwise", "noise_control": True,
         "list_source": "policy", "explore_std": 0.7}
    )
    @example(
        {**EDGE_CASE, "mode": "pointwise", "noise_control": False,
         "list_source": "random", "explore_std": 0.0}
    )
    def test_matches_per_episode_loop(self, case):
        params, posterior, policy = random_world(
            case["seed"], case["n_users"], case["n_items"], case["list_len"],
            case["d"], case["dup_items"], case["zero_noise"],
        )
        if case["list_source"] == "random":
            policy = None
        users = list(range(case["n_users"])) + [0]
        args = (params, posterior, users, case["actions"], case["mode"], case["k"])
        extra = dict(
            explore_std=case["explore_std"],
            noise_control=case["noise_control"],
            round_tag="r3",
        )
        ref_stream, stream = RandomStream(case["seed"]), RandomStream(case["seed"])
        want = reference_round(
            policy, *args, ref_stream, list_source=case["list_source"], **extra
        )
        saved = intervention.BLOCK_ENTRIES
        intervention.BLOCK_ENTRIES = case["block_rows"] * case["n_items"]
        try:
            got = run_intervention_round(policy, *args, stream, **extra)
        finally:
            intervention.BLOCK_ENTRIES = saved
        assert_rounds_equal(got, want)
        # both consumed the same draws
        assert stream.normal(3).tolist() == ref_stream.normal(3).tolist()

    def test_ties_break_to_lower_id(self):
        params, posterior, policy = random_world(3, 2, 9, 4, 2, 8, True)
        items = realize_list(params, np.ones((3, 2)), np.zeros((3, 9)), 4)
        assert items.tolist() == [[0, 1, 2, 3]] * 3
        assert realize_list(params, np.ones(2), np.zeros(9), 4) == [0, 1, 2, 3]

    def test_block_equals_single_rows(self):
        params, _, _ = random_world(4, 2, 30, 6, 3, 0, False)
        rs = RandomStream(9)
        taus, alphas = rs.normal((7, 3)), rs.normal((7, 30))
        block = realize_list(params, taus, alphas, 6)
        for row, tau, alpha in zip(block, taus, alphas):
            assert row.tolist() == realize_list(params, tau, alpha, 6)
            assert row.tolist() == reference_realize_list(params, tau, alpha, 6)

    def test_non_finite_scores_rejected(self):
        params, _, _ = random_world(4, 2, 5, 3, 2, 0, False)
        with pytest.raises(ValueError, match="finite"):
            realize_list(params, np.full(2, np.nan), np.zeros(5), 3)

    def test_rows_per_episode(self):
        params, posterior, policy = random_world(5, 3, 7, 5, 2, 0, False)
        expected = {
            ("pairwise", True): lambda k: k * k - max(0, 2 * k - 5),
            ("pointwise", True): lambda k: 2 * k,
            ("pairwise", False): lambda k: k * (5 - k),
            ("pointwise", False): lambda k: 5,
        }
        for (mode, filtered), rows in expected.items():
            for k in range(1, 5):
                batch, episodes = run_intervention_round(
                    policy, params, posterior, [0, 1, 2], 2, mode, k,
                    RandomStream(k), noise_control=filtered,
                )
                assert len(episodes) == 6
                assert len(batch) == 6 * rows(k), (mode, filtered, k)


class TestPretrainRewards:
    @pytest.mark.parametrize("mode", ["pairwise", "pointwise"])
    @pytest.mark.parametrize("kind", ["bpr-mf", "neumf"])
    def test_rewards_equal_per_episode_scores(self, kind, mode, monkeypatch):
        """Rewards scored block by block from the round's batch equal each
        episode's own rows scored alone, bit for bit, over four blocks."""
        n_users, n_items, steps = 5, 9, 7
        params, posterior, policy = random_world(21, n_users, n_items, 4, 3, 0, False)
        target = make_model(kind, n_users, n_items, 4, RandomStream(8))
        monkeypatch.setattr(intervention, "BLOCK_ENTRIES", 2 * n_items)
        seen = spy_pretraining(monkeypatch)
        loss = loss_pairwise if mode == "pairwise" else loss_pointwise
        scored = []  # episodes per loss call

        def loss_spy(model, rows):
            scored.append(np.shape(rows)[0])
            return loss(model, rows)

        monkeypatch.setattr(intervention, loss.__name__, loss_spy)
        pretrain_policy(
            policy, params, posterior, target, n_users, episodes=3,
            steps_per_episode=steps, mode=mode, k=2, lr=0.01, stream=RandomStream(9),
        )
        assert len(seen) == 3 and scored == [2, 2, 2, 1] * 3
        for (batch, episodes), rewards in seen:
            assert len(episodes) == steps
            rows = batch.rows()
            r = len(rows) // steps
            want = [loss(target, rows[e * r : (e + 1) * r]) for e in range(steps)]
            assert rewards.tolist() == want


class TestRoundInputs:
    def setup_method(self):
        self.params, self.posterior, self.policy = random_world(
            6, 3, 8, 4, 2, 0, False
        )

    def run(self, users=(0, 1), actions=1, k=2, params=None, stream=None):
        return run_intervention_round(
            self.policy, params or self.params, self.posterior, list(users),
            actions, "pairwise", k, stream or RandomStream(1),
        )

    @pytest.mark.parametrize("users", [[-1], [3], [0, 5]])
    def test_users_outside_range(self, users):
        stream = RandomStream(11)
        with pytest.raises(ValueError, match="users"):
            self.run(users=users, stream=stream)
        # nothing was drawn before the check
        assert stream.normal(2).tolist() == RandomStream(11).normal(2).tolist()

    def test_negative_actions(self):
        with pytest.raises(ValueError, match="actions_per_user"):
            self.run(actions=-2)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_outside_list(self, k):
        with pytest.raises(ValueError, match="k="):
            self.run(k=k)

    def test_list_longer_than_catalog(self):
        params = SimParams(
            P=self.params.P, Q=self.params.Q[:3], w_r=self.params.w_r[:3],
            X=self.params.X, Y=self.params.Y[:3], w_s=self.params.w_s,
        )
        with pytest.raises(ValueError, match="list_len"):
            self.run(params=params)

    def test_empty_users(self):
        batch, episodes = self.run(users=[])
        assert len(batch) == 0 and len(episodes) == 0
        assert episodes.user_embed.shape == episodes.action.shape == (0, 2)


def reference_surrogate(policy, episodes, rewards, baseline):
    """Per-episode accumulation of the REINFORCE surrogate's gradients."""
    grads = {k: np.zeros_like(v) for k, v in policy.params().items()}
    value = 0.0
    std = np.exp(policy.log_std)
    for x, action, reward in zip(episodes.user_embed, episodes.action, rewards):
        weight = reward - baseline
        pre = policy.W1 @ x + policy.b1
        h = np.maximum(pre, 0.0)
        mu = policy.W2 @ h + policy.b2
        value += weight * policy.log_prob(x, action)
        dmu = weight * (action - mu) / std**2
        grads["W2"] += np.outer(dmu, h)
        grads["b2"] += dmu
        dpre = (policy.W2.T @ dmu) * (pre > 0)
        grads["W1"] += np.outer(dpre, x)
        grads["b1"] += dpre
        grads["log_std"] += weight * (((action - mu) / std) ** 2 - 1.0)
    return value, grads


def test_surrogate_matches_per_episode_sum():
    policy = GaussianPolicy(4, 6, RandomStream(3))
    episodes = make_episodes(policy, 25, seed=5)
    rewards = RandomStream(4).normal(25)
    value, grads = surrogate_loss_grads(policy, episodes, rewards, 0.3)
    ref_value, ref_grads = reference_surrogate(policy, episodes, rewards, 0.3)
    assert value == pytest.approx(ref_value, rel=1e-12)
    for name, grad in ref_grads.items():
        np.testing.assert_allclose(grads[name], grad, rtol=1e-12, atol=1e-13)


# sha256 of batches.tsv from a tiny pipeline, computed with the per-episode
# engine: any change to the engine's draws, lists or samples shows here.
PINNED_BATCHES = [
    ({}, "5fb58e43b231365d606c3f88931bb5f5dc51769504cd42fca5e6d70f38592b8a"),
    (
        {"target.objective": "pointwise", "target.kind": "neumf"},
        "a92a91695a396ff479d723cf3b368997b9461e15aa4b2d7777a94a345ca094ff",
    ),
    (
        {"intervention.noise_control": "false"},
        "90a80bebf6448ca4e8cb7d01ef3cb4974b0fca3f2efd30913f10ce73860c41b9",
    ),
    (
        {"target.objective": "pointwise", "intervention.mode": "random"},
        "495073dfd10083ffd936954e299bbb726706dd59b17a5b4546979f1b92f42bd3",
    ),
]


@pytest.mark.parametrize("overrides, digest", PINNED_BATCHES)
def test_pipeline_batches_pinned(tmp_path, overrides, digest):
    tiny = {
        "seed": "5", "synth.n_users": "40", "synth.n_items": "30", "synth.d": "6",
        "simulator.d_r": "8", "simulator.d_s": "8", "simulator.epochs": "4",
        "posterior.epochs": "15", "target.d": "8", "target.epochs": "6",
        "intervention.rounds": "1", "intervention.actions": "1",
        "intervention.k": "2", "intervention.pretrain_episodes": "3",
        "intervention.pretrain_steps": "6",
    }
    run_pipeline(load_config(overrides={**tiny, **overrides}), str(tmp_path))
    data = (tmp_path / "batches.tsv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
