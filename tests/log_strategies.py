"""Hypothesis strategies for impression logs given as record lists.

Catalogs and user counts are small, so draws often hold users with zero or
one positive, the same item in several of a user's lists, and lists of
every length from one slot to the whole catalog; the empty log is drawn too.
"""

from hypothesis import strategies as st

from cfrank.corpus import Record


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
