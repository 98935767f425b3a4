import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cfrank.textio import FORMAT_VERSION, load_matrices, save_matrices


def joined_reference(arrays, meta=None) -> str:
    """The writer as it was: every line built first, then one joined string."""
    lines = [f"#{FORMAT_VERSION}"]
    for key in sorted((meta or {})):
        lines.append(f"#meta {key}={meta[key]}")
    for name, arr in arrays.items():
        a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        lines.append(f"{name} {a.shape[0]} {a.shape[1]}")
        for row in a:
            lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


EDGE = np.array([-0.0, 0.0, 1e-300, 5e-324, -5e-324, 1.7976931348623157e308,
                 0.1, 1 / 3, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize(
    "arrays, meta",
    [
        ({}, None),
        ({}, {}),
        ({"v": EDGE}, None),
        ({"row": EDGE.reshape(1, -1), "col": EDGE.reshape(-1, 1)}, {}),
        ({"scalar": 2.5, "ints": np.arange(6).reshape(2, 3)}, {"d": 3, "b": "x=y"}),
        ({"empty": np.zeros((0, 4)), "nocols": np.zeros((3, 0))}, {"k": ""}),
    ],
)
def test_matches_joined_writer(tmp_path, arrays, meta):
    path = tmp_path / "m.txt"
    save_matrices(path, arrays, meta)
    assert path.read_text(encoding="utf-8") == joined_reference(arrays, meta)


@settings(max_examples=60, deadline=None)
@given(
    blocks=st.lists(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6),
            elements=st.floats(allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_matches_joined_writer_and_round_trips(tmp_path_factory, blocks):
    path = tmp_path_factory.mktemp("prop") / "m.txt"
    arrays = {f"b{i}": a for i, a in enumerate(blocks)}
    save_matrices(path, arrays, {"n": len(blocks)})
    assert path.read_text(encoding="utf-8") == joined_reference(arrays, {"n": len(blocks)})
    loaded, meta = load_matrices(path)
    assert meta == {"n": str(len(blocks))}
    for name, a in arrays.items():
        expected = np.atleast_2d(a)
        assert loaded[name].shape == expected.shape
        # bit-exact, including the sign of zero
        assert loaded[name].tobytes() == expected.tobytes()


def test_bad_array_leaves_existing_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("keep\n")
    with pytest.raises(ValueError):
        save_matrices(path, {"ok": np.ones(2), "bad": np.zeros((2, 2, 2))})
    with pytest.raises(ValueError):
        save_matrices(path, {"ok": np.ones(2), "bad": ["x"]})
    assert path.read_text() == "keep\n"


VALID = [f"#{FORMAT_VERSION}", "#meta d=2", "P 2 2", "1.0 2.0", "3.0 4.0",
         "w 1 3", "0.5 0.25 0.125"]


def load_lines(tmp_path, lines):
    path = tmp_path / "m.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_valid_lines_load(tmp_path):
    arrays, meta = load_matrices(load_lines(tmp_path, VALID))
    assert meta == {"d": "2"}
    np.testing.assert_array_equal(arrays["P"], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(arrays["w"], [[0.5, 0.25, 0.125]])


@pytest.mark.parametrize(
    "lines, lineno, message",
    [
        # a block cut short at the end of the file
        (VALID[:6], 7, "block 'w' ends after 0 of 1 rows"),
        # a block cut short and followed by another block
        (VALID[:4] + VALID[5:], 5, "block 'P' ends after 1 of 2 rows"),
        # a ragged row
        (VALID[:4] + ["3.0"] + VALID[5:], 5, "block 'P': 1 values in a row of 2"),
        # an over-wide row
        (VALID[:3] + ["1.0 2.0 9.0"] + VALID[4:], 4, "block 'P': 3 values in a row of 2"),
        # a non-numeric token
        (VALID[:4] + ["3.0 x"] + VALID[5:], 5, "block 'P': could not convert"),
        # a 2-field block header
        (VALID[:5] + ["w 1"] + VALID[6:], 6, "expected a 'name rows cols' block header"),
    ],
    ids=["cut-short", "cut-short-then-block", "ragged", "over-wide", "non-numeric",
         "two-field-header"],
)
def test_malformed_block_names_line(tmp_path, lines, lineno, message):
    path = load_lines(tmp_path, lines)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: ") as info:
        load_matrices(path)
    assert message in str(info.value)
