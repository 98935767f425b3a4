import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cfrank import intervention, rankers, simulator, synthgen
from cfrank.mathcore import RandomStream
from cfrank.textio import FORMAT_VERSION, load_matrices, save_matrices


def hexrow(*values) -> str:
    """A row line, value by value: each one's little-endian float64 bytes
    in hex."""
    return "".join(struct.pack("<d", v).hex() for v in values)


def joined_reference(arrays, meta=None) -> str:
    """Every line built first, each value encoded on its own, then one
    joined string."""
    lines = [f"#{FORMAT_VERSION}"]
    for key in sorted((meta or {})):
        lines.append(f"#meta {key}={meta[key]}")
    for name, arr in arrays.items():
        a = np.atleast_2d(np.asarray(arr, dtype=np.float64))
        lines.append(f"{name} {a.shape[0]} {a.shape[1]}")
        for row in a:
            lines.append(hexrow(*row.tolist()))
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
    got, _ = load_matrices(path)
    assert_same_bits(got, {k: np.atleast_2d(np.asarray(a, dtype=np.float64))
                           for k, a in arrays.items()})


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


@pytest.mark.parametrize(
    "arrays, meta, message",
    [
        ({"a b": np.ones(2)}, None, "block name 'a b'"),
        ({"": np.ones(2)}, None, "block name ''"),
        ({"a\nb": np.ones(2)}, None, "block name"),
        ({"#x": np.ones(2)}, None, "block name '#x'"),
        ({"ok": np.ones(2)}, {"k=j": "v"}, "meta key 'k=j'"),
        ({"ok": np.ones(2)}, {"k j": "v"}, "meta key 'k j'"),
        ({"ok": np.ones(2)}, {"k\tj": "v"}, "meta key"),
        ({"ok": np.ones(2)}, {"k": "v\nw"}, "meta value of 'k'"),
        ({"ok": np.ones(2)}, {"k": "v\rw"}, "meta value of 'k'"),
    ],
    ids=["space-name", "empty-name", "newline-name", "hash-name", "eq-key",
         "space-key", "tab-key", "newline-value", "cr-value"],
)
def test_unreadable_name_leaves_existing_file(tmp_path, arrays, meta, message):
    path = tmp_path / "m.txt"
    path.write_text("keep\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        save_matrices(path, arrays, meta)
    assert path.read_text() == "keep\n"
    assert os.listdir(tmp_path) == ["m.txt"]


VALID = [f"#{FORMAT_VERSION}", "#meta d=2", "P 2 2", hexrow(1.0, 2.0), hexrow(3.0, 4.0),
         "w 1 3", hexrow(0.5, 0.25, 0.125)]


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
        (VALID[:4] + [hexrow(3.0)] + VALID[5:], 5,
         "block 'P': 16 characters in a row of 2 values"),
        # an over-wide row
        (VALID[:3] + [hexrow(1.0, 2.0, 9.0)] + VALID[4:], 4,
         "block 'P': 48 characters in a row of 2 values"),
        # a non-hex character
        (VALID[:4] + [hexrow(3.0) + "x" * 16] + VALID[5:], 5,
         "block 'P': non-hexadecimal number found in fromhex() arg at position 16"),
        # whitespace inside a row of the right length, which `bytes.fromhex`
        # would skip
        (VALID[:4] + [hexrow(3.0, 4.0)[:14] + "  " + hexrow(3.0, 4.0)[16:]] + VALID[5:],
         5, "block 'P': whitespace inside a row"),
        # a row as the decimal v1 format wrote it
        (VALID[:4] + ["3.0 4.0"] + VALID[5:], 5,
         "block 'P': 7 characters in a row of 2 values"),
        # a 2-field block header
        (VALID[:5] + ["w 1"] + VALID[6:], 6, "expected a 'name rows cols' block header"),
    ],
    ids=["cut-short", "cut-short-then-block", "ragged", "over-wide", "non-numeric",
         "whitespace", "decimal-row", "two-field-header"],
)
def test_malformed_block_names_line(tmp_path, lines, lineno, message):
    path = load_lines(tmp_path, lines)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{lineno}: ") as info:
        load_matrices(path)
    assert message in str(info.value)


# ---------------------------------------------------------------------------
# Every float64 through a save and a load


def assert_same_bits(got, want):
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


def bits(*values) -> list:
    """The float64 bit patterns of `values`, as integers."""
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


# Every float64 bit pattern: -0.0, infinities, subnormals and NaNs of either
# sign with any payload, quiet or signalling.
bit_pattern = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(bits(*EDGE) + [
        0x7FF0000000000001,  # signalling NaN, smallest payload
        0x7FF4000000000000,  # signalling NaN
        0xFFF8000000000000,  # quiet NaN, sign set
        0x7FFFFFFFFFFFFFFF,  # quiet NaN, full payload
        0x000FFFFFFFFFFFFF,  # largest subnormal
        0x8000000000000001,  # smallest negative subnormal
    ]),
)
token = st.text(
    st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp", "Cc")), min_size=1
)


@settings(max_examples=80, deadline=None)
@given(
    arrays=st.dictionaries(
        token.filter(lambda name: not name.startswith("#")),
        hnp.arrays(
            np.uint64,
            st.one_of(
                hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5),
                st.sampled_from([(1, 7), (0, 3), (3, 0), (0, 0)]),
            ),
            elements=bit_pattern,
        ).map(lambda a: a.view(np.float64)),
        max_size=4,
    ),
    meta=st.dictionaries(
        token.filter(lambda k: "=" not in k),
        st.text(st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",))),
        max_size=3,
    ),
    as_path=st.sampled_from([str, Path]),
)
def test_save_load_round_trips_every_float(tmp_path_factory, arrays, meta, as_path):
    path = as_path(tmp_path_factory.mktemp("round") / "m.txt")
    save_matrices(path, arrays, meta)
    got, got_meta = load_matrices(path)
    assert got_meta == {str(k): str(v) for k, v in meta.items()}
    assert_same_bits(got, {str(k): np.atleast_2d(a) for k, a in arrays.items()})


def test_malformed_text_with_twin_names_line(tmp_path):
    # A `.f64` file an older version wrote beside the text is ignored: the
    # parser still reports the fault.
    path = tmp_path / "m.txt"
    save_matrices(path, {"P": [[1.0, 2.0], [3.0, 4.0]], "w": [0.5, 0.25]}, {"d": 2})
    (tmp_path / "m.txt.f64").write_bytes(bytes(64))
    path.write_text(path.read_text().replace(hexrow(3.0, 4.0) + "\n", ""))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: "):
        load_matrices(path)


# ---------------------------------------------------------------------------
# The streaming text parser against the whole-file parser it replaced


def reference_header(line):
    """(name, rows, cols) of a `name rows cols` header line, else None."""
    fields = line.split()
    if len(fields) != 3 or not (fields[1].isdecimal() and fields[2].isdecimal()):
        return None
    return fields[0], int(fields[1]), int(fields[2])


def reference_row_error(row, cols):
    """Why `row` is not `cols` hex-encoded values, else None."""
    if len(row) != 16 * cols:
        return f"{len(row)} characters in a row of {cols} values"
    try:
        data = bytes.fromhex(row)
    except ValueError as exc:
        return str(exc)
    return None if len(data) == 8 * cols else "whitespace inside a row"


def reference_block_error(path, lines, start, name, rows, cols) -> str:
    """`path:lineno: ...` for the first bad row of the block whose header is
    lines[start], found by walking the whole file again."""
    for r in range(rows):
        lineno = start + 2 + r
        where = f"{path}:{lineno}: block {name!r}"
        if lineno > len(lines):
            return f"{where} ends after {r} of {rows} rows"
        error = reference_row_error(lines[lineno - 1], cols)
        if error is not None:
            if reference_header(lines[lineno - 1]) is not None:
                return f"{where} ends after {r} of {rows} rows"
            return f"{where}: {error}"
    raise AssertionError("a block that parses has no bad row")


def reference_parse_text(path):
    """Every line read first, then each block as a list of float lists."""
    arrays, meta = {}, {}
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != f"#{FORMAT_VERSION}":
        if lines and lines[0].startswith("#cfrank-matrix "):
            raise ValueError(
                f"{path}: a {lines[0][1:]} file, but this version reads only "
                f"{FORMAT_VERSION}; run the stage that wrote it again"
            )
        raise ValueError(f"{path}: not a {FORMAT_VERSION} file")
    i = 1
    while i < len(lines) and lines[i].startswith("#meta "):
        key, _, value = lines[i][len("#meta "):].partition("=")
        meta[key] = value
        i += 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        header = reference_header(lines[i])
        if header is None:
            raise ValueError(
                f"{path}:{i + 1}: expected a 'name rows cols' block header, "
                f"got {lines[i]!r}"
            )
        name, rows, cols = header
        block = lines[i + 1 : i + 1 + rows]
        if len(block) < rows or any(reference_row_error(row, cols) for row in block):
            raise ValueError(reference_block_error(path, lines, i, name, rows, cols))
        values = [struct.unpack(f"<{cols}d", bytes.fromhex(row)) for row in block]
        arrays[name] = np.array(values, dtype=np.float64).reshape(rows, cols)
        i += 1 + rows
    return arrays, meta


def outcome(parse, path):
    try:
        return parse(path)
    except ValueError as exc:
        return str(exc)


stray_line = st.sampled_from([
    "", " ", "#meta k=v", "#cfrank-matrix v1", "x 1 2", "y 2 1", "z 0 3",
    "big 99999999999 4", "v 3 0", hexrow(1.0, 2.0), hexrow(1.0), hexrow(np.nan, -np.inf),
    hexrow(1.0) + "x" * 16, hexrow(1.0)[:6] + "  " + hexrow(1.0)[8:] + hexrow(2.0),
    "1.0 2.0", "a b c", hexrow(0.5, 0.25, 0.125), hexrow(1e308, -0.0, 5e-324),
])


@st.composite
def edited_lines(draw):
    """VALID, or a prefix of it, with up to three lines deleted, inserted or set."""
    lines = list(draw(st.sampled_from([VALID, VALID[:1], VALID[:3]])))
    edits = draw(st.lists(
        st.tuples(st.integers(0, 9), st.sampled_from(["del", "ins", "set"]), stray_line),
        max_size=3,
    ))
    for where, op, text in edits:
        where = min(where, len(lines))
        if op == "del" and where < len(lines):
            del lines[where]
        elif op == "ins":
            lines.insert(where, text)
        elif where < len(lines):
            lines[where] = text
    return lines


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got[1] == want[1]
        assert_same_bits(got[0], want[0])


@settings(max_examples=200, deadline=None)
@given(lines=edited_lines())
def test_streaming_parse_matches_whole_file_parse(tmp_path_factory, lines):
    path = load_lines(tmp_path_factory.mktemp("parse"), lines)
    assert_same_outcome(outcome(load_matrices, path), outcome(reference_parse_text, path))


def test_header_claiming_too_many_rows_allocates_nothing(tmp_path):
    import tracemalloc

    for header in ("w 99999999999 99999999", "w 100000 100"):
        path = load_lines(tmp_path, VALID[:5] + [header])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:7: block 'w' ends"):
                load_matrices(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (header, peak)  # no block was made, not even 80 MB


def test_v1_file_is_rejected(tmp_path):
    path = load_lines(tmp_path, ["#cfrank-matrix v1", "#meta d=2", "P 1 2", "1.0 2.0"])
    with pytest.raises(ValueError, match=(
        f"^{re.escape(str(path))}: a cfrank-matrix v1 file, but this version reads only "
        f"{re.escape(FORMAT_VERSION)}; run the stage that wrote it again$"
    )):
        load_matrices(path)


def test_text_parse_peak_memory(tmp_path):
    import tracemalloc

    arrays = {"P": np.random.default_rng(3).normal(size=(2000, 32)), "w": np.ones((1, 2000))}
    path = tmp_path / "big.txt"
    save_matrices(path, arrays)
    result = sum(a.nbytes for a in arrays.values())
    tracemalloc.start()
    try:
        got, _ = load_matrices(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_bits(got, arrays)
    assert peak < 2 * result, (peak, result)


def saved_checkpoint(kind, path):
    """A valid checkpoint of `kind` at `path`, and the loader that reads it."""
    stream = RandomStream(1)
    if kind == "sim":
        simulator.save_sim_params(
            simulator.SimParams(
                stream.normal((3, 2)), stream.normal((5, 2)), stream.normal(5),
                stream.normal((3, 2)), stream.normal((5, 2)), stream.normal(2),
            ),
            path,
        )
        return simulator.load_sim_params
    if kind == "posterior":
        post = simulator.VariationalPosterior(np.zeros(5), np.ones(5), np.zeros(2), np.ones(2))
        simulator.save_posterior(post, path)
        return simulator.load_posterior
    if kind == "policy":
        intervention.save_policy(intervention.GaussianPolicy(2, 4, stream), path)
        return intervention.load_policy
    if kind == "world":
        synthgen.save_world(synthgen.make_world(3, 5, d=2, stream=stream), path)
        return synthgen.load_world
    rankers.save_model(rankers.make_model(kind, 3, 5, 2, stream, neighborhood=2), path)
    return rankers.load_model


@pytest.mark.parametrize(
    "kind, drop, missing",
    [
        ("sim", "w_s", "block 'w_s'"),
        ("sim", None, "block 'P'"),  # no blocks at all
        ("posterior", "sigma_beta", "block 'sigma_beta'"),
        ("policy", "d", "meta key 'd'"),
        ("policy", "log_std", "block 'log_std'"),
        ("bpr-mf", "kind", "meta key 'kind'"),
        ("bpr-mf", "Q", "block 'Q'"),
        ("neumf", "Pg", "block 'Pg'"),
        ("neumf", "w_fuse", "block 'w_fuse'"),
        ("itempop", "counts", "block 'counts'"),
        ("itemknn", "neighborhood", "meta key 'neighborhood'"),
        ("world", "user_vecs", "block 'user_vecs'"),
        ("world", "item_vecs", "block 'item_vecs'"),
        ("world", "d", "meta key 'd'"),
        ("world", "noise_std", "meta key 'noise_std'"),
    ],
)
def test_loaders_name_a_missing_block_or_meta_key(tmp_path, kind, drop, missing):
    path = tmp_path / "checkpoint.txt"
    loader = saved_checkpoint(kind, path)
    loader(path)  # the whole checkpoint loads
    arrays, meta = load_matrices(path)
    if drop is None:
        arrays = {}
    arrays.pop(drop, None)
    meta.pop(drop, None)
    save_matrices(path, arrays, meta)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing {missing}$"):
        loader(path)


@pytest.mark.parametrize(
    "kind, block, axis, shape",
    [
        ("sim", "X", 0, "2x2, expected 3x2"),
        ("posterior", "sigma_alpha", 1, "1x4, expected 1x5"),
        ("policy", "b1", 1, "1x3, expected 1x4"),
        ("world", "item_vecs", 1, "5x1, expected 5x2"),
        ("bpr-mf", "P", 0, "2x2, expected 3x2"),
        ("itempop", "counts", 1, "1x4, expected 1x5"),
    ],
)
def test_loaders_name_a_block_of_the_wrong_shape(tmp_path, kind, block, axis, shape):
    path = tmp_path / "checkpoint.txt"
    loader = saved_checkpoint(kind, path)
    arrays, meta = load_matrices(path)
    arrays[block] = np.delete(arrays[block], -1, axis=axis)  # one row or column short
    save_matrices(path, arrays, meta)
    message = f"{path}: block {block!r} is {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loader(path)


@pytest.mark.parametrize(
    "kind, key, value, problem",
    [
        pytest.param(*case, id=f"{case[0]}-{case[1]}")
        for case in (
            ("sim", "n_users", "forty", "'forty', not an integer"),
            ("sim", "list_len", "0", "0, below 1"),
            ("policy", "hidden", "0", "0, below 1"),
            ("world", "d", "2.5", "'2.5', not an integer"),
            ("bpr-mf", "n_items", "-3", "-3, below 1"),
            ("itemknn", "neighborhood", "", "'', not an integer"),
        )
    ],
)
def test_loaders_name_a_meta_value_that_is_not_a_count(tmp_path, kind, key, value, problem):
    path = tmp_path / "checkpoint.txt"
    loader = saved_checkpoint(kind, path)
    arrays, meta = load_matrices(path)
    meta[key] = value
    save_matrices(path, arrays, meta)
    message = f"{path}: meta key {key!r} is {problem}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loader(path)
