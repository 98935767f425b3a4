"""Versioned line-oriented persistence for matrices and metadata.

One format serves every checkpoint in the package: a version line, `#meta`
key=value lines, then named blocks of `name rows cols` followed by one row
per line. A row is the hex of its values' little-endian float64 bytes, 16
hex digits per value, so saved and reloaded arrays are equal bit for bit,
NaN payloads and the sign of zero included, and a row costs one hex
conversion each way rather than a decimal `repr` per value. The writer and
the reader each stream the file one line at a time.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

FORMAT_VERSION = "cfrank-matrix v2"
ROW_DTYPE = np.dtype("<f8")  # a row's bytes, in the order its hex spells them


def _check_names(arrays, meta) -> None:
    """Reject names the loader would read back differently."""
    for name in arrays:
        text = str(name)
        if text.split() != [text] or text.startswith("#"):
            raise ValueError(
                f"block name {text!r} must be one non-whitespace token "
                "not starting with '#'"
            )
    for key, value in meta.items():
        key = str(key)
        if "=" in key or any(c.isspace() for c in key):
            raise ValueError(f"meta key {key!r} must hold no '=' or whitespace")
        if any(c in str(value) for c in "\r\n"):
            raise ValueError(f"meta value of {key!r} must be one line")


def save_matrices(path, arrays: dict, meta: dict | None = None) -> None:
    """Write the text one row at a time, so no copy of it is held.

    Every array and name is checked before the file is opened: an array
    that is not numeric, or a name that would not read back, leaves an
    existing file untouched.
    """
    meta = meta or {}
    blocks = [
        (name, np.atleast_2d(np.asarray(arr, dtype=ROW_DTYPE)))
        for name, arr in arrays.items()
    ]
    for name, a in blocks:
        if a.ndim != 2:
            raise ValueError(f"{name}: cannot save a {a.ndim}-D array")
    _check_names(arrays, meta)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#{FORMAT_VERSION}\n")
        for key in sorted(meta):
            fh.write(f"#meta {key}={meta[key]}\n")
        for name, a in blocks:
            fh.write(f"{name} {a.shape[0]} {a.shape[1]}\n")
            for row in a:
                fh.write(row.tobytes().hex() + "\n")


def _block_header(line):
    """(name, rows, cols) of a `name rows cols` block header line, else None."""
    fields = line.split()
    if len(fields) != 3 or not (fields[1].isdecimal() and fields[2].isdecimal()):
        return None
    return fields[0], int(fields[1]), int(fields[2])


def require(path, arrays, meta, blocks=(), keys=()) -> None:
    """Raise ValueError naming `path` and the first of `keys` missing from
    `meta`, else the first of `blocks` missing from `arrays`, else, when
    `blocks` maps each name to its shape, the first block of another shape
    (a 1-D shape (n,) is a 1xn block): a loader calls this before it reads
    a checkpoint's contents."""
    for key in keys:
        if key not in meta:
            raise ValueError(f"{path}: missing meta key {key!r}")
    for name in blocks:
        if name not in arrays:
            raise ValueError(f"{path}: missing block {name!r}")
    if isinstance(blocks, dict):
        for name, shape in blocks.items():
            got, want = np.atleast_2d(arrays[name]).shape, (1, *shape)[-2:]
            if got != want:
                raise ValueError(
                    f"{path}: block {name!r} is {got[0]}x{got[1]}, "
                    f"expected {want[0]}x{want[1]}"
                )


def meta_counts(path, meta, keys) -> list:
    """The integers `meta` holds under `keys`, in order; ValueError naming
    `path` and the key for one that is missing, not an integer, or below 1.
    A loader reads every size in its meta this way."""
    require(path, {}, meta, keys=keys)
    values = []
    for key in keys:
        try:
            value = int(meta[key])
        except ValueError:
            raise ValueError(
                f"{path}: meta key {key!r} is {meta[key]!r}, not an integer"
            ) from None
        if value < 1:
            raise ValueError(f"{path}: meta key {key!r} is {value}, below 1")
        values.append(value)
    return values


def _row_values(row, cols):
    """The `cols` float64 values a row line spells; else ValueError saying
    why not. `bytes.fromhex` skips whitespace, so the length is checked
    before it and the byte count after it."""
    if len(row) != 16 * cols:
        raise ValueError(f"{len(row)} characters in a row of {cols} values")
    data = bytes.fromhex(row)
    if len(data) != 8 * cols:
        raise ValueError("whitespace inside a row")
    return np.frombuffer(data, dtype=ROW_DTYPE)


def load_matrices(path) -> tuple[dict, dict]:
    """Returns (arrays, meta). 1xN blocks come back as 2-D; callers ravel.

    One pass reads each block's rows into its preallocated float64 array.
    A file of another format version raises ValueError naming `path`, and
    a malformed block one naming `path:lineno`.
    """
    arrays: dict = {}
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        lines = enumerate(fh, 1)

        def fault(message):  # at the line last read
            return ValueError(f"{path}:{lineno}: {message}")

        lineno, line = next(lines, (1, ""))
        first = line.rstrip("\n")
        if first != f"#{FORMAT_VERSION}":
            if first.startswith("#cfrank-matrix "):
                raise ValueError(
                    f"{path}: a {first[1:]} file, but this version reads only "
                    f"{FORMAT_VERSION}; run the stage that wrote it again"
                )
            raise ValueError(f"{path}: not a {FORMAT_VERSION} file")
        heading = True  # `#meta` lines come first, before any block
        for lineno, line in lines:
            line = line.rstrip("\n")
            if heading and line.startswith("#meta "):
                key, _, value = line[len("#meta "):].partition("=")
                meta[key] = value
                continue
            heading = False
            if not line.strip():
                continue
            header = _block_header(line)
            if header is None:
                raise fault(f"expected a 'name rows cols' block header, got {line!r}")
            name, rows, cols = header
            # A row takes 16 bytes per value and its newline, so a header
            # claiming more rows than the file holds allocates nothing: one
            # of its rows is sure to fail.
            fits = rows * (16 * cols + 1) <= size + 1
            block = np.empty((rows, cols)) if fits else None
            start = lineno
            for lineno, row in itertools.islice(lines, rows):
                row = row.rstrip("\n")
                try:
                    values = _row_values(row, cols)
                except ValueError as exc:
                    if _block_header(row) is not None:
                        break  # the next block begins here
                    raise fault(f"block {name!r}: {exc}") from None
                if fits:
                    block[lineno - start - 1] = values
            else:
                lineno += 1  # the line the next row would be on
            got = lineno - start - 1
            if got < rows:
                raise fault(f"block {name!r} ends after {got} of {rows} rows")
            arrays[name] = block
    return arrays, meta
