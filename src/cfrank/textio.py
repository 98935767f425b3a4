"""Versioned plain-text persistence for matrices and metadata.

One format serves every checkpoint in the package: a version line, `#meta`
key=value lines, then named blocks of `name rows cols` followed by one
space-separated row per line. Floats are written with repr-exact precision
so saved and reloaded arrays compare equal bit for bit (NaN reads back as
canonical `np.nan`). The writer and the reader each stream the file one
line at a time.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

FORMAT_VERSION = "cfrank-matrix v1"


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
        (name, np.atleast_2d(np.asarray(arr, dtype=np.float64)))
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
                fh.write(" ".join(map(repr, row.tolist())) + "\n")


def _block_header(line):
    """(name, rows, cols) of a `name rows cols` block header line, else None."""
    fields = line.split()
    if len(fields) != 3 or not (fields[1].isdecimal() and fields[2].isdecimal()):
        return None
    return fields[0], int(fields[1]), int(fields[2])


def require(path, arrays, meta, blocks=(), keys=()) -> None:
    """Raise ValueError naming `path` and the first of `keys` missing from
    `meta`, else the first of `blocks` missing from `arrays`: a loader calls
    this before it reads a checkpoint's contents."""
    for key in keys:
        if key not in meta:
            raise ValueError(f"{path}: missing meta key {key!r}")
    for name in blocks:
        if name not in arrays:
            raise ValueError(f"{path}: missing block {name!r}")


def load_matrices(path) -> tuple[dict, dict]:
    """Returns (arrays, meta). 1xN blocks come back as 2-D; callers ravel.

    One pass reads each block's rows into its preallocated float64 array.
    A malformed block raises ValueError naming `path:lineno`.
    """
    arrays: dict = {}
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        lines = enumerate(fh, 1)

        def fault(message):  # at the line last read
            return ValueError(f"{path}:{lineno}: {message}")

        lineno, line = next(lines, (1, ""))
        if line.rstrip("\n") != f"#{FORMAT_VERSION}":
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
            # A row takes at least 2 bytes per value (1 when empty), so a
            # header claiming more rows than the file holds allocates
            # nothing: one of its rows is sure to fail.
            fits = rows * max(2 * cols, 1) <= size + 1
            block = np.empty((rows, cols)) if fits else None
            start = lineno
            for lineno, row in itertools.islice(lines, rows):
                try:
                    values = [float(x) for x in row.split()]
                except ValueError as exc:
                    if _block_header(row) is not None:
                        break  # the next block begins here
                    raise fault(f"block {name!r}: {exc}") from None
                if len(values) != cols:
                    raise fault(f"block {name!r}: {len(values)} values in a row of {cols}")
                if fits:
                    block[lineno - start - 1] = values
            else:
                lineno += 1  # the line the next row would be on
            got = lineno - start - 1
            if got < rows:
                raise fault(f"block {name!r} ends after {got} of {rows} rows")
            arrays[name] = block
    return arrays, meta
