import math

import numpy as np
import pytest

from cfrank.corpus import InteractionLog, Record, coldness_buckets, leave_one_out_split
from cfrank.evalkit import (
    comparison_table,
    comparison_tsv,
    coldness_report,
    evaluate,
    hr_at_n,
    ndcg_at_n,
)
from cfrank.mathcore import RandomStream
from cfrank.rankers import ItemPop, make_model
from cfrank.corpus import SplitPair


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
    log = InteractionLog.from_records(n_users, n_items, records).validate()
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
        log = InteractionLog.from_records(2, 4, [Record(0, [0, 1], [1, 0])]).validate()
        split = leave_one_out_split(log, RandomStream(1))
        model = FixedScorer(2, 4, np.zeros(4))
        report = evaluate(model, split, n=2)
        assert report.n_users == 0 and report.metadata.get("empty_test")

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
        log = InteractionLog.from_records(n_users, n_items, records).validate()
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


class TestColdnessReport:
    def test_grouping_and_absence(self):
        split = simple_split()
        buckets = coldness_buckets(split.train, low_max=5, high_min=15)
        # every held-out item has at most 1 training interaction: all low
        scores = np.zeros(30)
        for _, item in split.test:
            scores[item] = 50.0
        reports = coldness_report(FixedScorer(5, 30, scores), split, buckets, n=10)
        assert set(reports) == {"low"}
        assert reports["low"].hr == 1.0

    def test_counts_sum_to_total(self):
        split = simple_split()
        buckets = coldness_buckets(split.train)
        reports = coldness_report(FixedScorer(5, 30, np.zeros(30)), split, buckets)
        assert sum(r.n_users for r in reports.values()) == len(split.test)


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
