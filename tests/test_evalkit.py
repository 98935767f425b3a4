import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfrank.corpus import coldness_buckets, leave_one_out_split
from cfrank.evalkit import (
    _candidate_sets,
    comparison_table,
    comparison_tsv,
    coldness_report,
    evaluate,
    hr_at_n,
    ndcg_at_n,
)
from cfrank import evalkit, mathcore
from cfrank.mathcore import RandomStream
from cfrank.rankers import ALL_KINDS, ItemPop, make_model, recommend_topn
from cfrank.corpus import SplitPair
from log_strategies import Record, log_from_records, valid_logs
from ranking_refs import drawn_model, reference_recommend


class TestUnitMetrics:
    def test_hr(self):
        ranked = list(range(20))
        assert hr_at_n(ranked, 0, 10) == 1
        assert hr_at_n(ranked, 10, 10) == 0
        assert hr_at_n(ranked, 99, 10) == 0

    def test_ndcg(self):
        ranked = list(range(20))
        assert ndcg_at_n(ranked, 0, 10) == 1.0
        assert abs(ndcg_at_n(ranked, 1, 10) - 1.0 / math.log2(3)) < 1e-12
        assert ndcg_at_n(ranked, 15, 10) == 0.0

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            hr_at_n([1, 2], 1, 3)
        with pytest.raises(ValueError):
            ndcg_at_n([1, 2], 1, 3)

    def test_ndcg_bounded_by_hr(self):
        ranked = list(range(15))
        for truth in range(15):
            assert ndcg_at_n(ranked, truth, 10) <= hr_at_n(ranked, truth, 10)


class FixedScorer(ItemPop):
    """ItemPop with directly injected scores for oracle constructions."""

    def __init__(self, n_users, n_items, scores):
        super().__init__(n_users, n_items)
        self.counts = np.asarray(scores, dtype=np.float64)


def simple_split(n_users=5, n_items=30):
    records = []
    for u in range(n_users):
        records.append(Record(u, [2 * u, 2 * u + 1, 2 * u + 2], [1, 1, 0]))
    log = log_from_records(n_users, n_items, records).validate()
    return leave_one_out_split(log, RandomStream(10))


class TestEvaluate:
    def test_oracle_model(self):
        split = simple_split()
        scores = np.zeros(30)
        for _, item in split.test:
            scores[item] = 100.0  # all 5 boosted items fit inside the top 10
        model = FixedScorer(5, 30, scores)
        report = evaluate(model, split, n=10, candidate_policy="all")
        assert report.hr == 1.0
        assert report.n_users == len(split.test)

    def test_adversarial_model(self):
        split = simple_split()
        scores = np.full(30, 10.0)
        for _, item in split.test:
            scores[item] = -100.0
        model = FixedScorer(5, 30, scores)
        report = evaluate(model, split, n=10, candidate_policy="all")
        assert report.hr == 0.0 and report.ndcg == 0.0

    def test_empty_test_flagged(self):
        log = log_from_records(2, 4, [Record(0, [0, 1], [1, 0])]).validate()
        split = leave_one_out_split(log, RandomStream(1))
        model = FixedScorer(2, 4, np.zeros(4))
        report = evaluate(model, split, n=2)
        assert (report.n_users, report.hr, report.ndcg, report.ranked) == (0, 0.0, 0.0, [])

    def test_sampled_deterministic(self):
        split = simple_split(n_users=8, n_items=200)
        model = make_model("bpr-mf", 8, 200, 4, RandomStream(3))
        a = evaluate(model, split, 10, "sampled:99", RandomStream(5))
        b = evaluate(model, split, 10, "sampled:99", RandomStream(5))
        assert (a.hr, a.ndcg) == (b.hr, b.ndcg)

    def test_sampled_requires_stream(self):
        split = simple_split(n_users=8, n_items=200)
        model = FixedScorer(8, 200, np.zeros(200))
        with pytest.raises(ValueError):
            evaluate(model, split, 10, "sampled:99", None)

    def test_unknown_policy(self):
        split = simple_split()
        model = FixedScorer(5, 30, np.zeros(30))
        with pytest.raises(ValueError):
            evaluate(model, split, 10, "everything")

    @pytest.mark.parametrize("policy", ["sampled:0", "sampled:-1", "sampled:abc",
                                        "sampled:", "sampled:2.5"])
    def test_degenerate_sample_size_rejected(self, policy):
        split = simple_split()
        model = FixedScorer(5, 30, np.zeros(30))
        with pytest.raises(ValueError, match=f"candidate policy '{policy}'"):
            evaluate(model, split, 10, policy, RandomStream(1))

    def test_random_scorer_binomial(self):
        n_users, n_items = 2500, 120
        records = [
            Record(u, [u % n_items, (u + 1) % n_items], [1, 1]) for u in range(n_users)
        ]
        log = log_from_records(n_users, n_items, records).validate()
        split = leave_one_out_split(log, RandomStream(42))
        model = make_model("bpr-mf", n_users, n_items, 8, RandomStream(77))
        report = evaluate(model, split, 10, "sampled:99", RandomStream(11))
        sigma = math.sqrt(0.1 * 0.9 / report.n_users)
        assert report.n_users >= 2000
        assert abs(report.hr - 0.1) <= 3 * sigma

    def test_monotone_transform_invariance(self):
        split = simple_split()
        base_scores = RandomStream(9).uniform(0.1, 5.0, 30)
        a = evaluate(FixedScorer(5, 30, base_scores), split, 10)
        b = evaluate(FixedScorer(5, 30, np.exp(base_scores)), split, 10)
        assert (a.hr, a.ndcg) == (b.hr, b.ndcg)

    @pytest.mark.parametrize("n", [0, -1])
    def test_cutoff_below_one_rejected(self, n):
        split = simple_split()
        with pytest.raises(ValueError, match=f"^n={n} must be >= 1$"):
            evaluate(FixedScorer(5, 30, np.zeros(30)), split, n)


def reference_candidate_sets(split, candidate_policy, stream):
    """Candidate lists built by comprehensions over the whole catalog: every
    item outside the training positives under "all", else the held-out item
    and m sampled ones."""
    train_pos = split.train.positives_by_user()
    n_items = split.train.n_items
    out = []
    for user, truth in split.test:
        if candidate_policy == "all":
            out.append([i for i in range(n_items) if i not in train_pos[user]])
            continue
        m = int(candidate_policy.split(":")[1])
        forbidden = train_pos[user] | {truth}
        pool = [i for i in range(n_items) if i not in forbidden]
        picked = stream.choice(len(pool), size=m, replace=False)
        out.append([truth] + [pool[int(x)] for x in picked])
    return out


class TestCandidateSets:
    @pytest.mark.parametrize("policy", ["sampled:1", "sampled:7", "sampled:20"])
    def test_match_comprehensions(self, policy):
        records = [
            Record(u, RandomStream(u).permutation(30)[: 3 + u % 6].tolist(),
                   [1, 1] + [u % 2] * (1 + u % 6))
            for u in range(12)
        ]
        log = log_from_records(12, 30, records).validate()
        split = leave_one_out_split(log, RandomStream(3))
        ours, theirs = RandomStream(21), RandomStream(21)
        got = _candidate_sets(split, policy, ours)
        want = reference_candidate_sets(split, policy, theirs)
        assert [np.asarray(c).tolist() for c in got] == want
        assert ours.normal(3).tolist() == theirs.normal(3).tolist()


def reference_evaluate(model, split, n, candidate_policy, stream):
    """(hr, ndcg, users) of the per-user loop: one lexsort ranking of each
    test user's sorted candidates, scored by one score_batch call."""
    candidates = reference_candidate_sets(split, candidate_policy, stream)
    hr_sum = ndcg_sum = 0.0
    for (user, truth), cands in zip(split.test, candidates):
        ranked = reference_recommend(model, user, cands, min(n, len(cands)))
        hr_sum += hr_at_n(ranked, truth, len(ranked))
        ndcg_sum += ndcg_at_n(ranked, truth, len(ranked))
    count = len(split.test)
    if count == 0:
        return 0.0, 0.0, 0
    return hr_sum / count, ndcg_sum / count, count


class TestBlockEvaluate:
    @settings(max_examples=100, deadline=None)
    @given(
        drawn=valid_logs(max_users=8, max_items=30, max_records=16),
        kind=st.sampled_from(ALL_KINDS),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        policy=st.sampled_from(["all", "all", "sampled:1", "sampled:3"]),
        entries=st.sampled_from([1, 7, 30, mathcore.BLOCK_ENTRIES]),
    )
    def test_matches_per_user_loop(self, drawn, kind, seed, n, policy, entries):
        log = log_from_records(*drawn).validate()
        assume(log.n_records > 0)
        split = leave_one_out_split(log, RandomStream(seed))
        model = drawn_model(kind, split.train, seed)
        m = int(policy.split(":")[1]) if policy != "all" else 0
        train_pos = split.train.positives_by_user()
        assume(all(log.n_items - len(train_pos[u]) - 1 >= m for u, _ in split.test))
        ours, theirs = RandomStream(seed + 2), RandomStream(seed + 2)
        with mock.patch.object(mathcore, "BLOCK_ENTRIES", entries):
            report = evaluate(model, split, n, policy, ours)
        want = reference_evaluate(model, split, n, policy, theirs)
        assert (report.hr, report.ndcg, report.n_users) == want
        assert ours.normal(3).tolist() == theirs.normal(3).tolist()

    @pytest.mark.parametrize("policy", ["all", "sampled:2"])
    def test_empty_test_set(self, policy):
        split = SplitPair(train=simple_split().train, test=[])
        stream = RandomStream(4)
        report = evaluate(FixedScorer(5, 30, np.zeros(30)), split, 10, policy, stream)
        assert (report.n_users, report.hr, report.ndcg, report.ranked) == (0, 0.0, 0.0, [])
        assert stream.normal(2).tolist() == RandomStream(4).normal(2).tolist()

    def test_positives_from_the_split_not_the_model(self):
        # the model records no positives; "all" still excludes the split's
        split = simple_split()
        scores = np.zeros(30)
        for user, _ in split.test:
            scores[list(split.train.positives_by_user()[user])] = 100.0
        report = evaluate(FixedScorer(5, 30, scores), split, 10)
        want = reference_evaluate(FixedScorer(5, 30, scores), split, 10, "all", None)
        assert (report.hr, report.ndcg, report.n_users) == want


class TestColdnessReport:
    def test_grouping_and_absence(self):
        split = simple_split()
        buckets = coldness_buckets(split.train, low_max=5, high_min=15)
        # every held-out item has at most 1 training interaction: all low
        scores = np.zeros(30)
        for _, item in split.test:
            scores[item] = 50.0
        model = FixedScorer(5, 30, scores)
        reports = coldness_report(
            model, split, buckets, n=10, overall=evaluate(model, split, 10)
        )
        assert set(reports) == {"low"}
        assert reports["low"].hr == 1.0

    def test_counts_sum_to_total(self):
        split = simple_split()
        buckets = coldness_buckets(split.train)
        model = FixedScorer(5, 30, np.zeros(30))
        reports = coldness_report(model, split, buckets, overall=evaluate(model, split))
        assert sum(r.n_users for r in reports.values()) == len(split.test)


class CountingRanker:
    """Wraps `recommend_topn` and counts the user lists it ranks."""

    def __init__(self):
        self.users = 0

    def __call__(self, model, users, *args, **kwargs):
        self.users += int(np.size(users))
        return recommend_topn(model, users, *args, **kwargs)


class TestColdnessReuse:
    """Under "all" the buckets score the overall report's lists; the
    figures equal a separate evaluation of each bucket's users."""

    @settings(max_examples=60, deadline=None)
    @given(
        drawn=valid_logs(max_users=8, max_items=10),
        kind=st.sampled_from(["bpr-mf", "itempop", "itemknn"]),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_per_bucket_evaluation(self, drawn, kind, n, seed):
        n_users, n_items, records = drawn
        log = log_from_records(n_users, n_items, records).validate()
        assume(log.n_records > 0)
        split = leave_one_out_split(log, RandomStream(seed))
        model = drawn_model(kind, split.train, seed)
        buckets = coldness_buckets(split.train, low_max=1, high_min=3)
        overall = evaluate(model, split, n)
        assert len(overall.ranked) == len(split.test)
        got = coldness_report(model, split, buckets, n, overall=overall)
        want = {}
        for user, truth in split.test:
            want.setdefault(buckets.name_of(truth), []).append((user, truth))
        assert set(got) == set(want)
        for name, test in want.items():
            rep = evaluate(model, SplitPair(train=split.train, test=test), n)
            assert (got[name].hr, got[name].ndcg, got[name].n_users) == (
                rep.hr, rep.ndcg, rep.n_users
            )
            assert got[name].ranked == rep.ranked

    def test_ranks_once(self, monkeypatch):
        split = simple_split()
        buckets = coldness_buckets(split.train)
        model = FixedScorer(5, 30, np.arange(30.0))
        counter = CountingRanker()
        monkeypatch.setattr(evalkit, "recommend_topn", counter)
        overall = evaluate(model, split, 10)
        assert counter.users == len(split.test)
        coldness_report(model, split, buckets, 10, overall=overall)
        assert counter.users == len(split.test)
        with pytest.raises(ValueError, match="does not cover this split"):
            coldness_report(model, split, buckets, 10)  # no overall report
        assert counter.users == len(split.test)

    def test_sampled_draws_per_bucket(self):
        split = simple_split()
        buckets = coldness_buckets(split.train, low_max=0, high_min=1)
        model = FixedScorer(5, 30, np.arange(30.0))
        overall = evaluate(model, split, 3, "sampled:4", RandomStream(1))
        with_overall = coldness_report(
            model, split, buckets, 3, "sampled:4", RandomStream(2), overall=overall
        )
        without = coldness_report(model, split, buckets, 3, "sampled:4", RandomStream(2))
        assert {k: r.ranked for k, r in with_overall.items()} == {
            k: r.ranked for k, r in without.items()
        }

    @pytest.mark.parametrize(
        "n, drop, policy", [(5, 0, "all"), (10, 1, "all"), (10, 0, "sampled:12")]
    )
    def test_mismatched_overall_rejected(self, n, drop, policy):
        split = simple_split()
        model = FixedScorer(5, 30, np.arange(30.0))
        overall = evaluate(model, split, n, policy, RandomStream(3))
        overall.ranked = overall.ranked[drop:]
        with pytest.raises(ValueError, match="overall report"):
            coldness_report(model, split, coldness_buckets(split.train), 10, overall=overall)


class TestTables:
    def test_table_and_tsv(self):
        split = simple_split()
        base = evaluate(FixedScorer(5, 30, np.arange(30.0)), split, 10)
        other = evaluate(FixedScorer(5, 30, np.arange(30.0)[::-1].copy()), split, 10)
        reports = {"plain": base, "cpr-plain": other}
        text = comparison_table(reports, {"cpr-plain": "plain"})
        assert "plain" in text and "HR@10" in text
        tsv = comparison_tsv(reports, {"cpr-plain": "plain"})
        header, row1, row2 = tsv.strip().split("\n")
        assert header.startswith("model\thr@10")
        assert len(row1.split("\t")) == 6
