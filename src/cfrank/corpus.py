"""Impression-log data model, TSV ingestion, splitting, and coldness buckets.

A log is a sequence of records (user, shown item list, 0/1 selection labels),
held as columns: `InteractionLog` documents the layout and which consumer
reads which column.

The native format is a 3-column TSV of exactly that; the news-behaviors
format is the public 5-column TSV with "itemId-label" impression tokens,
remapped to dense ids in order of first appearance on load (the original
labels are not kept). Both loaders build the columns directly and name the
file line in every error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .mathcore import RandomStream

PAD = 0  # value of items and labels past a record's length


class ParseError(ValueError):
    pass


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

    The r-th record is user `users[r]` shown the `lengths[r]` items
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

    @classmethod
    def concat(cls, logs) -> "InteractionLog":
        """The records of `logs`, in order, as one log. The logs share
        n_users, n_items and slot count."""
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
    def n_records(self) -> int:
        return len(self.users)

    @property
    def list_len(self) -> int:
        """Slot count: the width K of `items` and `labels`, which is the
        longest impression list in the log."""
        return self.items.shape[1]

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


def _native_header(path, lineno, line, pinned):
    """The id-space sizes after comment line `line`: the largest of `pinned`
    (None before any header) and a "#users N items M" header's sizes, or
    `pinned` for any other comment. ParseError for a header whose sizes are
    not counts."""
    parts = line[1:].split()
    if not (len(parts) == 4 and parts[0] == "users" and parts[2] == "items"):
        return pinned
    try:
        sizes = int(parts[1]), int(parts[3])
    except ValueError:
        sizes = (-1, -1)
    if min(sizes) < 0:
        raise ParseError(f"{path}:{lineno}: malformed header {line!r}")
    return sizes if pinned is None else tuple(map(max, pinned, sizes))


# Every id of at most this many digits fits int64.
_MAX_DIGITS = 18
_TO_COMMAS = bytes.maketrans(b"\t\n", b",,")


def _bulk_native(path, raw: bytes):
    """(pinned sizes, users, items, labels, lengths, linenos) of a canonical
    native file, or None for any other.

    Canonical: ASCII without carriage returns, every line empty, a "#"
    comment, or 3 tab-separated fields: one user token, then comma-separated
    item tokens and as many comma-separated label tokens, every token of 1
    to _MAX_DIGITS digits and every label 0 or 1.
    Tabs, commas and newlines are found with numpy, and one
    `np.fromstring` converts every token.
    """
    if not raw.isascii() or b"\r" in raw:
        return None
    text = np.frombuffer(raw, np.uint8)
    breaks = np.flatnonzero(text == ord("\n"))
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(raw)]))
    empty = starts == ends
    comment = np.zeros(len(starts), bool)
    comment[~empty] = text[starts[~empty]] == ord("#")
    pinned = None
    for n in np.flatnonzero(comment).tolist():
        line = raw[starts[n] : ends[n]].decode()
        try:
            pinned = _native_header(path, n + 1, line, pinned)
        except ParseError:  # the walk names it, or an earlier bad line
            return None
    data = ~(empty | comment)
    if not data.any():
        return pinned, *(np.zeros(0, np.int64) for _ in range(4)), []
    # Runs of consecutive data lines, joined into one buffer that ends in a
    # newline.
    edges = np.flatnonzero(np.diff(data, prepend=False, append=False)).tolist()
    body = b"\n".join(
        [raw[starts[a] : ends[b - 1]] for a, b in zip(edges[::2], edges[1::2])] + [b""]
    )
    if body.translate(None, b"0123456789\t,\n"):
        return None
    buf = np.frombuffer(body, np.uint8)
    seps = np.flatnonzero(buf < ord("0"))  # token k ends at seps[k]
    digits = np.diff(seps, prepend=-1) - 1
    if digits.min() < 1 or digits.max() > _MAX_DIGITS:
        return None
    kinds = buf[seps]
    tabs = np.flatnonzero(kinds == ord("\t"))
    line_ends = np.flatnonzero(kinds == ord("\n"))
    n = len(line_ends)
    if len(tabs) != 2 * n or not np.array_equal(
        np.searchsorted(tabs, line_ends), 2 * np.arange(1, n + 1)
    ):
        return None
    first, second = tabs[0::2], tabs[1::2]
    # the user field is one token: each line's first tab ends its first token
    if not np.array_equal(first, np.concatenate(([0], line_ends[:-1] + 1))):
        return None
    lengths = second - first
    if not np.array_equal(lengths, line_ends - second):
        return None
    values = np.fromstring(body[:-1].translate(_TO_COMMAS), np.int64, sep=",")
    # field of each token: 0 user, 1 item, 2 label
    step = np.zeros(len(seps), np.int8)
    step[first + 1] = 1
    step[second + 1] = 1
    step[line_ends[:-1] + 1] = -2
    field = np.cumsum(step, dtype=np.int8)
    labels = values[field == 2]
    if labels.max() > 1:
        return None
    linenos = (np.flatnonzero(data) + 1).tolist()
    return pinned, values[first], values[field == 1], labels, lengths, linenos


def _walk_native(path):
    """What `_bulk_native` returns, for any native file read as text and
    walked line by line. The checks run in file order, so a ParseError
    names the first bad line and, within it, the first failing check."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    pinned = None
    users, items, labels, lengths, linenos = [], [], [], [], []
    for lineno, line in enumerate(lines, start=1):
        if not line:
            continue
        if line.startswith("#"):
            pinned = _native_header(path, lineno, line, pinned)
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            user = int(fields[0])
            row = [int(x) for x in fields[1].split(",")]
            row_labels = [int(x) for x in fields[2].split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if len(row) != len(row_labels):
            raise ParseError(
                f"{path}:{lineno}: {len(row)} items but {len(row_labels)} labels"
            )
        for y in row_labels:
            if y not in (0, 1):
                raise ParseError(f"{path}:{lineno}: label {y} not in {{0,1}}")
        for i in [user, *row]:
            if not -(2**63) <= i < 2**63:
                raise ParseError(f"{path}:{lineno}: id {i} out of range")
        users.append(user)
        items += row
        labels += row_labels
        lengths.append(len(row))
        linenos.append(lineno)
    columns = (np.array(c, dtype=np.int64) for c in (users, items, labels, lengths))
    return pinned, *columns, linenos


def load_native_log(path) -> InteractionLog:
    """Parse the native 3-column TSV: user, comma-joined items, 0/1 labels.

    Ids in a native file are already dense integers, so they are used as-is.
    An optional "#users N items M" header pins the id-space sizes: an id at
    or beyond them is an error. Without one the sizes are inferred from the
    maxima.

    A canonical file (ASCII digits, tabs, commas and newlines in its data
    lines, as every file `save_native_log` writes) is parsed from its bytes
    in bulk (`_bulk_native`). Any other file, and every file with a line
    that does not parse, is read as text and walked line by line
    (`_walk_native`), which names the first bad line. Both give the same
    columns, which are then checked record by record (`_validated`).
    """
    with open(path, "rb") as fh:
        parsed = _bulk_native(path, fh.read())
    if parsed is None:
        parsed = _walk_native(path)
    pinned, users, items, labels, lengths, linenos = parsed
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
    order of first appearance. Lines belonging to users beyond the first
    `max_users` distinct ones are skipped. The history column is unused.
    """
    user_map: dict = {}
    item_map: dict = {}
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
    return ColdnessBuckets(bucket)
