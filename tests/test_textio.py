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
