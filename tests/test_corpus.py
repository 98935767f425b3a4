import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from log_strategies import any_logs, valid_logs

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
        log = InteractionLog.from_records(
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


class TestConcat:
    def test_records_in_order(self):
        a = InteractionLog.from_records(3, 5, [Record(2, [1, 4], [0, 1])])
        b = InteractionLog.from_records(
            3, 5, [Record(0, [3, 0], [1, 0]), Record(1, [2, 1], [0, 0])]
        )
        assert InteractionLog.concat([a, b]).records == a.records + b.records

    def test_different_shapes_rejected(self):
        a = InteractionLog.from_records(3, 5, [Record(2, [1, 4], [0, 1])])
        b = InteractionLog.from_records(3, 6, [Record(0, [3, 0], [1, 0])])
        with pytest.raises(ValueError, match="different shapes"):
            InteractionLog.concat([a, b])


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
    return InteractionLog.from_records(
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
        log = InteractionLog.from_records(
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
            leave_one_out_split(InteractionLog.from_records(0, 0, []), RandomStream(0))


class TestColdness:
    def make_log(self, counts):
        # one user selecting item i `counts[i]` times, lists of length 2
        records = []
        for item, count in enumerate(counts):
            for _ in range(count):
                other = (item + 1) % len(counts)
                records.append(Record(0, [item, other], [1, 0]))
        return InteractionLog.from_records(1, len(counts), records).validate()

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


class TestLoaderErrorsNameLines:
    def test_behaviors_duplicate_after_blank_line_and_skipped_user(self, tmp_path):
        text = (
            "1\tU7\tt\t\tN1-1 N2-0\n"
            "\n"
            "2\tU9\tt\t\tN3-0 N4-1\n"  # skipped: U9 is beyond max_users=1
            "3\tU7\tt\t\tN2-1\n"
            "4\tU7\tt\t\tN5-1 N5-0\n"
        )
        path = write(tmp_path, "behaviors.tsv", text)
        expected = f"{path}:5: record 2: duplicate item"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_mind_behaviors(path, max_users=1)

    def test_native_duplicate_after_header_comment_and_blank(self, tmp_path):
        text = "#users 3 items 9\n\n# note\n0\t1,2\t1,0\n1\t3,4,3\t0,1,0\n"
        path = write(tmp_path, "log.tsv", text)
        expected = f"{path}:5: record 1: duplicate item"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_native_log(path)

    def test_native_negative_user_names_line(self, tmp_path):
        path = write(tmp_path, "log.tsv", "0\t1\t1\n\n-2\t1\t0\n")
        expected = f"{path}:3: record 1: user -2 out of range"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_native_log(path)


class TestNativeHeader:
    def test_malformed_header_names_line(self, tmp_path):
        path = write(tmp_path, "log.tsv", "# note\n#users x items 3\n0\t1\t1\n")
        expected = f"{path}:2: malformed header"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_native_log(path)

    def test_user_beyond_header_size(self, tmp_path):
        path = write(tmp_path, "log.tsv", "#users 1 items 3\n4\t7,2\t1,0\n")
        expected = f"{path}:2: record 0: user 4 out of range"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_native_log(path)

    def test_item_beyond_header_size(self, tmp_path):
        text = "#users 5 items 3\n0\t1,2\t1,0\n4\t2,3\t1,0\n"
        path = write(tmp_path, "log.tsv", text)
        expected = f"{path}:3: record 1: item 3 out of range"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_native_log(path)

    def test_id_beyond_int64(self, tmp_path):
        path = write(tmp_path, "log.tsv", "0\t1\t1\n1\t99999999999999999999\t0\n")
        expected = f"{path}:2: id 99999999999999999999"
        with pytest.raises(ParseError, match=re.escape(expected)):
            load_native_log(path)


# ---------------------------------------------------------------------------
# Record-loop references: the implementations from before the log became
# columnar, kept to pin the columnar code to them.


def reference_validate(n_users, n_items, records):
    """The message the record loop raised for the first bad record, or None."""
    for idx, rec in enumerate(records):
        if not rec.items:
            return f"record {idx}: empty impression list"
        if len(rec.items) != len(rec.labels):
            return f"record {idx}: items/labels length mismatch"
        if not 0 <= rec.user < n_users:
            return f"record {idx}: user {rec.user} out of range"
        for i in rec.items:
            if not 0 <= i < n_items:
                return f"record {idx}: item {i} out of range"
        if len(set(rec.items)) != len(rec.items):
            return f"record {idx}: duplicate item in impression list"
        for y in rec.labels:
            if y not in (0, 1):
                return f"record {idx}: label {y} not in {{0,1}}"
    return None


def reference_load_native(path):
    """(n_users, n_items, records) read line by line; ParseError for a bad
    line, ValueError("record N: ...") for a bad record."""
    records = []
    n_users = n_items = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 4 and parts[0] == "users" and parts[2] == "items":
                    n_users = max(n_users, int(parts[1]))
                    n_items = max(n_items, int(parts[3]))
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                user = int(fields[0])
                items = [int(x) for x in fields[1].split(",")]
                labels = [int(x) for x in fields[2].split(",")]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if len(items) != len(labels):
                raise ParseError(
                    f"{path}:{lineno}: {len(items)} items but {len(labels)} labels"
                )
            for y in labels:
                if y not in (0, 1):
                    raise ParseError(f"{path}:{lineno}: label {y} not in {{0,1}}")
            records.append(Record(user, items, labels))
            n_users = max(n_users, user + 1)
            n_items = max(n_items, max(items) + 1)
    problem = reference_validate(n_users, n_items, records)
    if problem is not None:
        raise ValueError(problem)
    return n_users, n_items, records


def reference_native_text(n_users, n_items, records):
    out = [f"#users {n_users} items {n_items}\n"]
    for rec in records:
        items = ",".join(str(i) for i in rec.items)
        labels = ",".join(str(y) for y in rec.labels)
        out.append(f"{rec.user}\t{items}\t{labels}\n")
    return "".join(out)


def reference_positives_by_user(n_users, records):
    pos = [set() for _ in range(n_users)]
    for rec in records:
        pos[rec.user].update(rec.selected)
    return pos


def reference_split(n_users, records, stream):
    """(train records, test, n_degenerate) of the record-loop split."""
    positives = reference_positives_by_user(n_users, records)
    held: dict = {}
    n_degenerate = 0
    for user in range(n_users):
        pos = sorted(positives[user])
        if len(pos) < 2:
            if len(pos) == 1:
                n_degenerate += 1
            continue
        held[user] = pos[int(stream.integers(0, len(pos)))]
    train = []
    for rec in records:
        drop = held.get(rec.user)
        if drop is not None and drop in rec.items:
            labels = [
                0 if (i == drop and y == 1) else y
                for i, y in zip(rec.items, rec.labels)
            ]
        else:
            labels = list(rec.labels)
        train.append(Record(rec.user, list(rec.items), labels))
    return train, sorted(held.items()), n_degenerate


def reference_coldness_counts(n_items, records):
    counts = np.zeros(n_items, dtype=np.int64)
    for rec in records:
        for item in rec.selected:
            counts[item] += 1
    return counts


# Native lines the fuzz test draws from: valid ones (some only as int()
# reads them: padded, signed, non-ASCII digits, leading zeros) and one of
# each kind of bad line.
NATIVE_LINES = (
    "0\t1,2\t1,0",
    "1\t2\t1",
    "2\t0,3,1\t0,0,1",
    " 1\t+2\t01",
    "1\t٣\t 1",
    "",
    "# note",
    "#users 9 items 9",
    "0\t1\t1\t",
    "0\t1",
    "x\t1\t1",
    "1\ta,2\t1,0",
    "1\t3,\t0,1",
    "1\t1,2\t1",
    "1\t1,2\t1,2",
    "1\t1,2\t-1,0",
    "1\t1,1\t0,1",
    "-1\t1\t1",
    "1\t-2\t0",
)


class TestColumnarMatchesRecordLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(st.sampled_from(NATIVE_LINES), max_size=7), newline=st.booleans()
    )
    def test_native_load_and_errors(self, lines, newline):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.tsv"
            text = "\n".join(lines) + ("\n" if newline else "")
            path.write_text(text, encoding="utf-8")
            try:
                n_users, n_items, records = reference_load_native(path)
                want = None
            except ValueError as exc:
                want = str(exc)
            if want is not None and want.startswith("record "):
                data_lines = [
                    n
                    for n, line in enumerate(lines, 1)
                    if line and not line.startswith("#")
                ]
                idx = int(want.split(":")[0].split()[1])
                want = f"{path}:{data_lines[idx]}: {want}"
            if want is None:
                log = load_native_log(path)
                assert (log.n_users, log.n_items) == (n_users, n_items)
                assert log.records == records
            else:
                with pytest.raises(ParseError) as info:
                    load_native_log(path)
                assert str(info.value) == want

    @settings(max_examples=150, deadline=None)
    @given(drawn=any_logs())
    def test_validate(self, drawn):
        n_users, n_items, records = drawn
        want = reference_validate(n_users, n_items, records)
        log = InteractionLog.from_records(n_users, n_items, records)
        if want is None:
            assert log.validate() is log
        else:
            with pytest.raises(ValueError) as info:
                log.validate()
            assert str(info.value) == want

    @settings(max_examples=100, deadline=None)
    @given(drawn=valid_logs())
    def test_save_load_round_trip(self, drawn):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        assert log.records == records
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.tsv"
            save_native_log(log, path)
            assert path.read_text(encoding="utf-8") == reference_native_text(
                n_users, n_items, records
            )
            again = load_native_log(path)
        assert (again.n_users, again.n_items) == (n_users, n_items)
        assert again.records == records
        for name in ("users", "items", "labels", "lengths"):
            assert np.array_equal(getattr(again, name), getattr(log, name))
            assert getattr(again, name).dtype == np.int64

    @settings(max_examples=150, deadline=None)
    @given(drawn=valid_logs(), seed=st.integers(0, 2**32 - 1))
    def test_split(self, drawn, seed):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        ours, theirs = RandomStream(seed), RandomStream(seed)
        if not records:
            with pytest.raises(ValueError, match="empty log"):
                leave_one_out_split(log, ours)
            return
        split = leave_one_out_split(log, ours)
        train, test, n_degenerate = reference_split(n_users, records, theirs)
        assert split.train.records == train
        assert split.test == test
        assert all(type(u) is int and type(i) is int for u, i in split.test)
        assert split.n_degenerate == n_degenerate
        # both streams are left in the same state
        assert ours.uniform(size=4).tolist() == theirs.uniform(size=4).tolist()
        assert split.train.list_len == log.list_len

    @settings(max_examples=150, deadline=None)
    @given(drawn=valid_logs(), low_max=st.integers(0, 3), gap=st.integers(0, 3))
    def test_positives_and_coldness(self, drawn, low_max, gap):
        n_users, n_items, records = drawn
        log = InteractionLog.from_records(n_users, n_items, records).validate()
        assert log.positives_by_user() == reference_positives_by_user(n_users, records)
        buckets = coldness_buckets(log, low_max, low_max + gap)
        counts = reference_coldness_counts(n_items, records)
        assert np.array_equal(buckets.counts, counts)
        want = np.ones(n_items, dtype=np.int64)
        want[counts < low_max] = 0
        want[counts > low_max + gap] = 2
        assert np.array_equal(buckets.bucket_of, want)
        assert log.n_positives == sum(sum(r.labels) for r in records)
