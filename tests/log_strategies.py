"""Impression logs given as record lists: the row type, its conversions to
and from the columnar `InteractionLog`, and hypothesis strategies.

Catalogs and user counts are small, so draws often hold users with zero or
one positive, the same item in several of a user's lists, and lists of
every length from one slot to the whole catalog; the empty log is drawn too.
"""

from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st

from cfrank.corpus import InteractionLog, _pad


@dataclass
class Record:
    user: int
    items: list
    labels: list

    @property
    def selected(self):
        """Items with a positive label, in slot order."""
        return [i for i, y in zip(self.items, self.labels) if y == 1]


def log_from_records(n_users, n_items, records) -> InteractionLog:
    """The columnar log of `records`, in order (not validated)."""
    n = len(records)
    lengths = np.fromiter((len(r.items) for r in records), np.int64, n)
    total = int(lengths.sum())
    items = np.fromiter((i for r in records for i in r.items), np.int64, total)
    labels = np.fromiter((y for r in records for y in r.labels), np.int64, total)
    users = np.fromiter((r.user for r in records), np.int64, n)
    return InteractionLog(
        n_users, n_items, users, _pad(items, lengths), _pad(labels, lengths), lengths
    )


def widened(log: InteractionLog, width) -> InteractionLog:
    """`log` with its item and label columns padded out to `width` slots,
    so that its `list_len` is `width`."""
    pad = ((0, 0), (0, width - log.list_len))
    return replace(log, items=np.pad(log.items, pad), labels=np.pad(log.labels, pad))


def records_of(log: InteractionLog) -> list:
    """The log's records as a list of `Record`s."""
    items, labels = log.items.tolist(), log.labels.tolist()
    return [
        Record(u, items[r][:m], labels[r][:m])
        for r, (u, m) in enumerate(zip(log.users.tolist(), log.lengths.tolist()))
    ]


@st.composite
def valid_logs(draw, max_users=5, max_items=8, max_records=14):
    """(n_users, n_items, records) of a log that passes validation."""
    n_users = draw(st.integers(1, max_users))
    n_items = draw(st.integers(1, max_items))
    records = []
    for _ in range(draw(st.integers(0, max_records))):
        user = draw(st.integers(0, n_users - 1))
        items = draw(
            st.lists(
                st.integers(0, n_items - 1), min_size=1, max_size=n_items, unique=True
            )
        )
        size = len(items)
        labels = draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
        records.append(Record(user, items, labels))
    return n_users, n_items, records


@st.composite
def any_logs(draw, max_users=4, max_items=6, max_records=6):
    """(n_users, n_items, records) that may break any check: ids out of
    range, repeated items, labels outside {0, 1}, empty lists."""
    n_users = draw(st.integers(0, max_users))
    n_items = draw(st.integers(0, max_items))
    records = []
    for _ in range(draw(st.integers(0, max_records))):
        user = draw(st.integers(-1, n_users))
        items = draw(st.lists(st.integers(-1, n_items), max_size=4))
        size = len(items)
        labels = draw(st.lists(st.integers(-1, 2), min_size=size, max_size=size))
        records.append(Record(user, items, labels))
    return n_users, n_items, records
