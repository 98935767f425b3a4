"""Impression-log data model, TSV ingestion, splitting, and coldness buckets.

A log is a sequence of records (user, shown item list, 0/1 selection labels),
held as columns: `InteractionLog` documents the layout and which consumer
reads which column. `Record` is only an input and view convenience:
`InteractionLog.from_records` builds the columns from a list of records and
`InteractionLog.records` lists them back. Nothing in the package reads
`records`.

The native format is a 3-column TSV of exactly that; the news-behaviors
format is the public 5-column TSV with "itemId-label" impression tokens,
remapped to dense ids on load. Both loaders build the columns directly and
name the file line in every error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mathcore import RandomStream

PAD = 0  # value of items and labels past a record's length


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


def _pad(flat, lengths) -> np.ndarray:
    """(n, K) int64 array whose row r holds the next `lengths[r]` values of
    `flat`, then PAD; K is the longest length (0 for no rows)."""
    width = int(lengths.max(initial=0))
    slots = np.arange(width) < lengths[:, None]
    out = np.full(slots.shape, PAD, dtype=np.int64)
    out[slots] = flat
    return out


@dataclass
class InteractionLog:
    """Columnar impression log.

    Record r is user `users[r]` shown the `lengths[r]` items
    `items[r, :lengths[r]]` with 0/1 labels `labels[r, :lengths[r]]`. All four
    columns are int64: `users` and `lengths` are (n,); `items` and `labels`
    are (n, K) with K the longest list, and every slot past a record's
    length holds PAD (0) in both. A padded slot is therefore never a
    positive: `labels == 1` picks exactly the selected slots.

    Which consumer reads which column:
    - `validate` and `save_native_log` read all four;
    - `positives_by_user`, `coldness_buckets` and, in `rankers`,
      `TrainingData.from_log`, `ItemPop.fit` and `ItemKnn.fit` read
      `users`, `items` and `labels`;
    - `leave_one_out_split` reads the same three; its training log gets a
      new `labels` column and shares the other three with its input;
    - `simulator._log_arrays` views `users` and `items` and derives the slot
      mask from `lengths` and the float selection matrix from `labels`.
    """

    n_users: int
    n_items: int
    users: np.ndarray  # (n,) int64
    items: np.ndarray  # (n, K) int64, PAD past each record's length
    labels: np.ndarray  # (n, K) int64 0/1, PAD past each record's length
    lengths: np.ndarray  # (n,) int64
    user_ids: list | None = None  # dense id -> original label (remapped loads)
    item_ids: list | None = None

    @classmethod
    def from_records(
        cls, n_users, n_items, records, user_ids=None, item_ids=None
    ) -> "InteractionLog":
        for idx, rec in enumerate(records):
            if len(rec.items) != len(rec.labels):
                raise ValueError(f"record {idx}: items/labels length mismatch")
        n = len(records)
        lengths = np.fromiter((len(r.items) for r in records), np.int64, n)
        total = int(lengths.sum())
        items = np.fromiter((i for r in records for i in r.items), np.int64, total)
        labels = np.fromiter((y for r in records for y in r.labels), np.int64, total)
        return cls(
            n_users,
            n_items,
            np.fromiter((r.user for r in records), np.int64, n),
            _pad(items, lengths),
            _pad(labels, lengths),
            lengths,
            user_ids,
            item_ids,
        )

    @classmethod
    def concat(cls, logs) -> "InteractionLog":
        """The records of `logs`, in order, as one log. The logs share
        n_users, n_items and slot count, and carry no id maps."""
        first = logs[0]
        shape = (first.n_users, first.n_items)
        if any((log.n_users, log.n_items) != shape for log in logs):
            raise ValueError("cannot join logs of different shapes")
        columns = ("users", "items", "labels", "lengths")
        return cls(
            first.n_users,
            first.n_items,
            *(np.concatenate([getattr(log, c) for log in logs]) for c in columns),
        )

    @property
    def records(self) -> list:
        """The log as a list of `Record`s (a copy, for tests and inspection)."""
        items, labels = self.items.tolist(), self.labels.tolist()
        return [
            Record(u, items[r][:m], labels[r][:m])
            for r, (u, m) in enumerate(zip(self.users.tolist(), self.lengths.tolist()))
        ]

    @property
    def n_records(self) -> int:
        return len(self.users)

    @property
    def list_len(self) -> int:
        """Slot count: the longest impression list in the log."""
        return int(self.lengths.max(initial=0))

    @property
    def n_positives(self) -> int:
        return int(self.labels.sum())

    def _first_problem(self):
        """(record index, message) for the first record failing a check, or None.

        A record is checked for, in this order: an empty list, its user, its
        items (first slot out of range), a duplicate item, its labels (first
        slot not 0/1).
        """
        slots = np.arange(self.items.shape[1]) < self.lengths[:, None]
        empty = self.lengths == 0
        bad_user = (self.users < 0) | (self.users >= self.n_users)
        bad_item = slots & ((self.items < 0) | (self.items >= self.n_items))
        bad_label = slots & (self.labels != 0) & (self.labels != 1)
        # Padding becomes distinct ids past the catalog, so only shown items
        # can collide. That is exact for records whose items are all in
        # range, the only ones whose duplicate flag is ever reported.
        ids = np.where(slots, self.items, self.n_items + np.arange(slots.shape[1]))
        ids.sort(axis=1)
        dup = (ids[:, 1:] == ids[:, :-1]).any(axis=1)
        bad = empty | bad_user | bad_item.any(axis=1) | dup | bad_label.any(axis=1)
        if not bad.any():
            return None
        idx = int(np.argmax(bad))
        if empty[idx]:
            return idx, "empty impression list"
        if bad_user[idx]:
            return idx, f"user {self.users[idx]} out of range"
        if bad_item[idx].any():
            item = self.items[idx, np.argmax(bad_item[idx])]
            return idx, f"item {item} out of range"
        if dup[idx]:
            return idx, "duplicate item in impression list"
        label = self.labels[idx, np.argmax(bad_label[idx])]
        return idx, f"label {label} not in {{0,1}}"

    def validate(self) -> "InteractionLog":
        problem = self._first_problem()
        if problem is not None:
            raise ValueError(f"record {problem[0]}: {problem[1]}")
        return self

    def _positive_pairs(self):
        """Distinct (user, positive item) pairs as two int64 arrays, sorted
        by user, then item."""
        rows, slots = np.nonzero(self.labels == 1)
        keys = np.sort(self.users[rows] * self.n_items + self.items[rows, slots])
        # distinct keys; np.unique would load numpy.ma (about 1 MB) on first use
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return keys // max(self.n_items, 1), keys % max(self.n_items, 1)

    def positives_by_user(self):
        """Distinct positively-labeled items per user."""
        users, items = self._positive_pairs()
        ends = np.cumsum(np.bincount(users, minlength=self.n_users)).tolist()
        flat = items.tolist()
        return [set(flat[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _validated(log: InteractionLog, path, linenos) -> InteractionLog:
    """The log, or ParseError naming the file line of its first bad record."""
    problem = log._first_problem()
    if problem is not None:
        idx, message = problem
        raise ParseError(f"{path}:{linenos[idx]}: record {idx}: {message}")
    return log


def _native_header(path, lineno, line):
    """(n_users, n_items) of a "#users N items M" line, None for any other
    comment, ParseError for a header whose sizes are not counts."""
    parts = line[1:].split()
    if not (len(parts) == 4 and parts[0] == "users" and parts[2] == "items"):
        return None
    try:
        sizes = int(parts[1]), int(parts[3])
    except ValueError:
        sizes = (-1, -1)
    if min(sizes) < 0:
        raise ParseError(f"{path}:{lineno}: malformed header {line!r}")
    return sizes


def _raise_native_error(path, lines):
    """Walks the file line by line and raises the first line's ParseError.

    The bulk parse in `load_native_log` only finds that some line is bad;
    this walk makes the same checks in file order, so the error names the
    first bad line and, within it, the first failing check.
    """
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            _native_header(path, lineno, line)
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
        for i in [user, *items]:
            if not -(2**63) <= i < 2**63:
                raise ParseError(f"{path}:{lineno}: id {i} out of range")
    raise AssertionError(f"{path}: bulk parse failed but no line is bad")


def _int_tokens(fields) -> np.ndarray:
    """int() of every comma-separated token of `fields`, in order, as int64.

    When every token is one character (a label column) the values are read
    straight from the bytes; otherwise each token goes through int(). Raises
    ValueError or OverflowError where int() or int64 would.
    """
    joined = ",".join(fields)
    count = joined.count(",") + 1 if fields else 0
    if len(joined) == 2 * count - 1 and joined.isascii():
        chars = np.frombuffer(joined.encode("ascii"), np.uint8)
        if (chars[1::2] == ord(",")).all():
            values = chars[::2].astype(np.int64) - ord("0")
            if ((values < 0) | (values > 9)).any():
                raise ValueError("token is not a digit")
            return values
    return np.fromiter(map(int, joined.split(",")), np.int64, count)


def load_native_log(path) -> InteractionLog:
    """Parse the native 3-column TSV: user, comma-joined items, 0/1 labels.

    Ids in a native file are already dense integers, so they are used as-is.
    An optional "#users N items M" header pins the id-space sizes: an id at
    or beyond them is an error. Without one the sizes are inferred from the
    maxima.

    The data lines are split into three columns at once and each column is
    converted in bulk; any failure re-walks the file (`_raise_native_error`)
    to name its first bad line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    pinned = None
    linenos = []
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            if line[0] != "#":
                linenos.append(lineno)
                continue
            sizes = _native_header(path, lineno, line)
            if sizes is not None:
                pinned = sizes if pinned is None else tuple(map(max, pinned, sizes))
        data = [lines[lineno - 1] for lineno in linenos]
        if any(line.count("\t") != 2 for line in data):
            raise ValueError("field count")
        fields = "\t".join(data).split("\t") if data else []
        user_col, item_col, label_col = fields[0::3], fields[1::3], fields[2::3]
        lengths = [f.count(",") + 1 for f in item_col]
        if lengths != [f.count(",") + 1 for f in label_col]:
            raise ValueError("items/labels length mismatch")
        users = np.fromiter(map(int, user_col), np.int64, len(user_col))
        items = _int_tokens(item_col)
        labels = _int_tokens(label_col)
        if ((labels != 0) & (labels != 1)).any():
            raise ValueError("label not in {0,1}")
    except (ValueError, OverflowError):
        _raise_native_error(path, lines)
    lengths = np.array(lengths, dtype=np.int64)
    if pinned is not None:
        n_users, n_items = pinned
    else:
        n_users = int(users.max(initial=-1)) + 1
        n_items = int(items.max(initial=-1)) + 1
    log = InteractionLog(
        n_users, n_items, users, _pad(items, lengths), _pad(labels, lengths), lengths
    )
    return _validated(log, path, linenos)


def save_native_log(log: InteractionLog, path) -> None:
    lengths = log.lengths.tolist()

    def joined(column):
        return [",".join(map(str, row[:m])) for row, m in zip(column.tolist(), lengths)]

    rows = zip(log.users.tolist(), joined(log.items), joined(log.labels))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#users {log.n_users} items {log.n_items}\n")
        fh.writelines(f"{u}\t{items}\t{labels}\n" for u, items, labels in rows)


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
    users, lengths, items, labels, linenos = [], [], [], [], []
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
            tokens = fields[4].split()
            for token in tokens:
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
                labels.append(label == "1")
            if not tokens:
                raise ParseError(f"{path}:{lineno}: empty impression list")
            users.append(user_map[raw_user])
            lengths.append(len(tokens))
            linenos.append(lineno)
    lengths = np.array(lengths, dtype=np.int64)
    log = InteractionLog(
        len(user_map),
        len(item_map),
        np.array(users, dtype=np.int64),
        _pad(np.array(items, dtype=np.int64), lengths),
        _pad(np.array(labels, dtype=np.int64), lengths),
        lengths,
        user_ids,
        item_ids,
    )
    return _validated(log, path, linenos)


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

    Eligible users draw in user order, one scalar `integers(0, n_pos)` each,
    indexing their sorted distinct positives. The training log gets a new
    `labels` column and shares the other columns with `log`.
    """
    if log.n_records == 0:
        raise ValueError("cannot split an empty log")
    users, items = log._positive_pairs()
    counts = np.bincount(users, minlength=log.n_users)
    starts = (np.cumsum(counts) - counts).tolist()
    counts = counts.tolist()
    items = items.tolist()
    held = np.full(log.n_users, -1, dtype=np.int64)  # -1: nothing held out
    test = []
    for user, n_pos in enumerate(counts):
        if n_pos < 2:
            continue
        item = items[starts[user] + int(stream.integers(0, n_pos))]
        held[user] = item
        test.append((user, item))
    # Item ids are >= 0, so users without a held-out item flip nothing.
    labels = np.where(log.items == held[log.users][:, None], 0, log.labels)
    train = replace(log, labels=labels)
    return SplitPair(train=train, test=test, n_degenerate=counts.count(1))


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
    counts = np.bincount(train.items[train.labels == 1], minlength=train.n_items)
    bucket = np.ones(train.n_items, dtype=np.int64)
    bucket[counts < low_max] = 0
    bucket[counts > high_min] = 2
    return ColdnessBuckets(bucket, low_max, high_min, counts)
