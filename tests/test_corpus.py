from pathlib import Path

import numpy as np
import pytest

from cfrank.corpus import (
    InteractionLog,
    ParseError,
    Record,
    coldness_buckets,
    leave_one_out_split,
    load_mind_behaviors,
    load_native_log,
    save_native_log,
)
from cfrank.mathcore import RandomStream


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestNativeLog:
    def test_direct_parse(self, tmp_path):
        path = write(tmp_path, "log.tsv", "7\t3,9,4,1,5\t0,1,0,0,1\n")
        log = load_native_log(path)
        rec = log.records[0]
        assert rec.user == 7
        assert rec.items == [3, 9, 4, 1, 5]
        assert set(rec.selected) == {9, 5}
        assert log.n_users == 8 and log.n_items == 10

    def test_length_mismatch_names_line(self, tmp_path):
        path = write(tmp_path, "log.tsv", "0\t1,2,3,4\t0,1,0,0,1\n")
        with pytest.raises(ParseError, match=":1"):
            load_native_log(path)

    def test_bad_label(self, tmp_path):
        path = write(tmp_path, "log.tsv", "0\t1,2\t0,2\n")
        with pytest.raises(ParseError, match="label"):
            load_native_log(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "log.tsv", "")
        log = load_native_log(path)
        assert log.records == [] and log.n_users == 0 and log.n_items == 0

    def test_comments_and_header(self, tmp_path):
        path = write(tmp_path, "log.tsv", "#users 5 items 9\n# note\n0\t1,2\t1,0\n")
        log = load_native_log(path)
        assert log.n_users == 5 and log.n_items == 9

    def test_duplicate_item_names_record(self, tmp_path):
        path = write(tmp_path, "log.tsv", "0\t1,2\t1,0\n1\t3,4,3\t0,1,0\n")
        with pytest.raises(ValueError, match="record 1: duplicate item"):
            load_native_log(path)

    def test_round_trip_exact(self, tmp_path):
        log = InteractionLog(
            3,
            6,
            [
                Record(0, [5, 1, 2], [1, 0, 1]),
                Record(2, [0, 3, 4], [0, 0, 1]),
                Record(1, [2, 5, 0], [1, 1, 0]),
            ],
        ).validate()
        path = tmp_path / "log.tsv"
        save_native_log(log, path)
        again = load_native_log(path)
        assert again.n_users == log.n_users and again.n_items == log.n_items
        assert again.records == log.records
        path2 = tmp_path / "log2.tsv"
        save_native_log(again, path2)
        assert path.read_bytes() == path2.read_bytes()


MIND_SAMPLE = (
    "1\tU7\t11/11/2019 9:05:58 AM\tN1 N2\tN1-1 N2-0 N3-0\n"
    "2\tU9\t11/12/2019 3:05:58 PM\tN3\tN2-0 N4-1\n"
    "3\tU7\t11/13/2019 1:05:58 PM\tN1\tN3-1 N1-0\n"
    "4\tU2\t11/13/2019 2:05:58 PM\t\tN5-1 N2-0\n"
)


class TestBehaviorsLog:
    def test_token_parse(self, tmp_path):
        path = write(tmp_path, "behaviors.tsv", MIND_SAMPLE)
        log = load_mind_behaviors(path)
        assert len(log.records) == 4
        rec = log.records[0]
        assert len(rec.items) == 3 and len(rec.selected) == 1
        assert log.n_users == 3 and log.n_items == 5
        assert log.user_ids == ["U7", "U9", "U2"]

    def test_max_users_keeps_first_distinct(self, tmp_path):
        path = write(tmp_path, "behaviors.tsv", MIND_SAMPLE)
        log = load_mind_behaviors(path, max_users=2)
        # U7 and U9 admitted; U7's later line kept, U2's line skipped
        assert log.n_users == 2
        assert len(log.records) == 3
        assert log.user_ids == ["U7", "U9"]

    def test_missing_label_suffix(self, tmp_path):
        path = write(tmp_path, "behaviors.tsv", "1\tU1\tt\t\tN1-1 N2\n")
        with pytest.raises(ParseError, match="lacks -label"):
            load_mind_behaviors(path)

    def test_unknown_label(self, tmp_path):
        path = write(tmp_path, "behaviors.tsv", "1\tU1\tt\t\tN1-7\n")
        with pytest.raises(ParseError, match="unknown label"):
            load_mind_behaviors(path)

    def test_duplicate_item_names_record(self, tmp_path):
        path = write(tmp_path, "behaviors.tsv", MIND_SAMPLE + "5\tU2\tt\t\tN5-1 N5-0\n")
        with pytest.raises(ValueError, match="record 4: duplicate item"):
            load_mind_behaviors(path)

    def test_item_id_with_dash(self, tmp_path):
        path = write(tmp_path, "behaviors.tsv", "1\tU1\tt\t\tN-1-1 N2-0\n")
        log = load_mind_behaviors(path)
        assert log.item_ids == ["N-1", "N2"]

    def test_bundled_sample_counts(self):
        sample = Path(__file__).parent / "data" / "behaviors_sample.tsv"
        log = load_mind_behaviors(sample)
        assert len(log.records) == 1000
        assert log.n_users == 293
        assert log.n_items == 719
        assert log.n_positives == 4492


def toy_log():
    return InteractionLog(
        3,
        8,
        [
            Record(0, [0, 1, 2], [1, 1, 0]),
            Record(0, [3, 1, 4], [0, 1, 0]),
            Record(1, [5, 6, 7], [1, 0, 0]),
            Record(2, [0, 5, 7], [1, 0, 1]),
        ],
    ).validate()


class TestLeaveOneOut:
    def test_two_positives_one_held(self):
        log = toy_log()
        split = leave_one_out_split(log, RandomStream(3))
        test = dict(split.test)
        assert set(test) <= {0, 2}  # user 1 has a single positive
        held = test[0]
        assert held in (0, 1)
        train_pos = split.train.positives_by_user()
        assert held not in train_pos[0]
        assert {0, 1} - {held} <= train_pos[0]

    def test_single_positive_user_degenerate(self):
        log = toy_log()
        split = leave_one_out_split(log, RandomStream(3))
        assert 1 not in dict(split.test)
        assert split.n_degenerate == 1
        assert split.train.positives_by_user()[1] == {5}

    def test_deterministic(self):
        a = leave_one_out_split(toy_log(), RandomStream(11))
        b = leave_one_out_split(toy_log(), RandomStream(11))
        assert a.test == b.test
        assert a.train.records == b.train.records

    def test_conservation_of_distinct_positives(self):
        log = toy_log()
        split = leave_one_out_split(log, RandomStream(5))
        before = log.positives_by_user()
        after = split.train.positives_by_user()
        test = dict(split.test)
        for user in range(log.n_users):
            held = {test[user]} if user in test else set()
            assert after[user] | held == before[user]
            assert not (after[user] & held)

    def test_all_occurrences_removed(self):
        log = InteractionLog(
            1,
            4,
            [
                Record(0, [0, 1], [1, 1]),
                Record(0, [0, 2], [1, 0]),
                Record(0, [3, 0], [0, 1]),
            ],
        ).validate()
        split = leave_one_out_split(log, RandomStream(2))
        held = dict(split.test)[0]
        for rec in split.train.records:
            for item, label in zip(rec.items, rec.labels):
                assert not (item == held and label == 1)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            leave_one_out_split(InteractionLog(0, 0, []), RandomStream(0))


class TestColdness:
    def make_log(self, counts):
        # one user selecting item i `counts[i]` times, lists of length 2
        records = []
        for item, count in enumerate(counts):
            for _ in range(count):
                other = (item + 1) % len(counts)
                records.append(Record(0, [item, other], [1, 0]))
        return InteractionLog(1, len(counts), records).validate()

    def test_boundaries(self):
        log = self.make_log([0, 4, 5, 10, 15, 16])
        buckets = coldness_buckets(log, low_max=5, high_min=15)
        assert buckets.name_of(0) == "low"
        assert buckets.name_of(1) == "low"
        assert buckets.name_of(2) == "middle"
        assert buckets.name_of(3) == "middle"
        assert buckets.name_of(4) == "middle"
        assert buckets.name_of(5) == "high"

    def test_partition(self):
        log = self.make_log([0, 3, 7, 20, 1, 16])
        buckets = coldness_buckets(log)
        assert len(buckets.bucket_of) == log.n_items
        assert set(buckets.bucket_of) <= {0, 1, 2}

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            coldness_buckets(self.make_log([1]), low_max=10, high_min=5)
