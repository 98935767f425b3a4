"""Impression-log data model, TSV ingestion, splitting, and coldness buckets.

A log is a list of records (user, shown item list, 0/1 selection labels).
The native format is a 3-column TSV of exactly that; the news-behaviors
format is the public 5-column TSV with "itemId-label" impression tokens,
remapped to dense ids on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mathcore import RandomStream


class ParseError(ValueError):
    pass


@dataclass
class Record:
    user: int
    items: list
    labels: list

    @property
    def selected(self):
        """Items with a positive label, in slot order."""
        return [i for i, y in zip(self.items, self.labels) if y == 1]

    @property
    def selected_slots(self):
        return [t for t, y in enumerate(self.labels) if y == 1]


@dataclass
class InteractionLog:
    n_users: int
    n_items: int
    records: list
    user_ids: list | None = None  # dense id -> original label (remapped loads)
    item_ids: list | None = None

    def validate(self) -> "InteractionLog":
        for idx, rec in enumerate(self.records):
            if not rec.items:
                raise ValueError(f"record {idx}: empty impression list")
            if len(rec.items) != len(rec.labels):
                raise ValueError(f"record {idx}: items/labels length mismatch")
            if not 0 <= rec.user < self.n_users:
                raise ValueError(f"record {idx}: user {rec.user} out of range")
            for i in rec.items:
                if not 0 <= i < self.n_items:
                    raise ValueError(f"record {idx}: item {i} out of range")
            if len(set(rec.items)) != len(rec.items):
                raise ValueError(f"record {idx}: duplicate item in impression list")
            for y in rec.labels:
                if y not in (0, 1):
                    raise ValueError(f"record {idx}: label {y} not in {{0,1}}")
        return self

    @property
    def list_len(self) -> int:
        """Slot count: the longest impression list in the log."""
        return max((len(r.items) for r in self.records), default=0)

    @property
    def n_positives(self) -> int:
        return sum(sum(r.labels) for r in self.records)

    def positives_by_user(self):
        """Distinct positively-labeled items per user."""
        pos = [set() for _ in range(self.n_users)]
        for rec in self.records:
            pos[rec.user].update(rec.selected)
        return pos


def load_native_log(path) -> InteractionLog:
    """Parse the native 3-column TSV: user, comma-joined items, 0/1 labels.

    Ids in a native file are already dense integers, so they are used as-is;
    an optional "#users N items M" header pins the id-space sizes (otherwise
    they are inferred from the maxima).
    """
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
    return InteractionLog(n_users, n_items, records).validate()


def save_native_log(log: InteractionLog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#users {log.n_users} items {log.n_items}\n")
        for rec in log.records:
            items = ",".join(str(i) for i in rec.items)
            labels = ",".join(str(y) for y in rec.labels)
            fh.write(f"{rec.user}\t{items}\t{labels}\n")


def load_mind_behaviors(path, max_users: int | None = None) -> InteractionLog:
    """Parse a news behaviors TSV (5 columns, "itemId-label" tokens).

    One record per line. User and item ids are remapped to dense ids in
    order of first appearance; the original labels are retained in
    `user_ids`/`item_ids`. Lines belonging to users beyond the first
    `max_users` distinct ones are skipped. The history column is unused.
    """
    user_map: dict = {}
    item_map: dict = {}
    user_ids: list = []
    item_ids: list = []
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise ParseError(f"{path}:{lineno}: expected 5 tab-separated fields")
            raw_user = fields[1]
            if raw_user not in user_map:
                if max_users is not None and len(user_map) >= max_users:
                    continue
                user_map[raw_user] = len(user_map)
                user_ids.append(raw_user)
            user = user_map[raw_user]
            items = []
            labels = []
            for token in fields[4].split():
                raw_item, sep, label = token.rpartition("-")
                if not sep or not raw_item:
                    raise ParseError(
                        f"{path}:{lineno}: impression token {token!r} lacks -label"
                    )
                if label not in ("0", "1"):
                    raise ParseError(f"{path}:{lineno}: unknown label in {token!r}")
                if raw_item not in item_map:
                    item_map[raw_item] = len(item_map)
                    item_ids.append(raw_item)
                items.append(item_map[raw_item])
                labels.append(int(label))
            if not items:
                raise ParseError(f"{path}:{lineno}: empty impression list")
            records.append(Record(user, items, labels))
    return InteractionLog(
        len(user_map), len(item_map), records, user_ids, item_ids
    ).validate()


@dataclass
class SplitPair:
    train: InteractionLog
    test: list  # (user, held-out positive item), at most one per user
    n_degenerate: int = 0  # users with too few positives to contribute


def leave_one_out_split(log: InteractionLog, stream: RandomStream) -> SplitPair:
    """Hold out one uniformly chosen positive item per eligible user.

    A user is eligible with at least two distinct positive items; every
    occurrence of the held-out item is flipped to 0 in the training copy,
    so it never leaks into training positives. Users with fewer positives
    stay in training unchanged and are counted as degenerate.
    """
    if not log.records:
        raise ValueError("cannot split an empty log")
    positives = log.positives_by_user()
    held: dict = {}
    n_degenerate = 0
    for user in range(log.n_users):
        pos = sorted(positives[user])
        if len(pos) < 2:
            if len(pos) == 1:
                n_degenerate += 1
            continue
        held[user] = pos[int(stream.integers(0, len(pos)))]
    records = []
    for rec in log.records:
        drop = held.get(rec.user)
        if drop is not None and drop in rec.items:
            labels = [
                0 if (i == drop and y == 1) else y
                for i, y in zip(rec.items, rec.labels)
            ]
        else:
            labels = list(rec.labels)
        records.append(Record(rec.user, list(rec.items), labels))
    train = InteractionLog(
        log.n_users, log.n_items, records, log.user_ids, log.item_ids
    )
    test = sorted(held.items())
    return SplitPair(train=train, test=test, n_degenerate=n_degenerate)


BUCKET_NAMES = ("low", "middle", "high")


@dataclass
class ColdnessBuckets:
    bucket_of: np.ndarray  # item -> 0 low, 1 middle, 2 high
    low_max: int
    high_min: int
    counts: np.ndarray

    def name_of(self, item: int) -> str:
        return BUCKET_NAMES[self.bucket_of[item]]


def coldness_buckets(train: InteractionLog, low_max=5, high_min=15) -> ColdnessBuckets:
    """Partition items by positive-interaction count in the training log."""
    if low_max > high_min:
        raise ValueError("low_max must not exceed high_min")
    counts = np.zeros(train.n_items, dtype=np.int64)
    for rec in train.records:
        for item in rec.selected:
            counts[item] += 1
    bucket = np.ones(train.n_items, dtype=np.int64)
    bucket[counts < low_max] = 0
    bucket[counts > high_min] = 2
    return ColdnessBuckets(bucket, low_max, high_min, counts)
