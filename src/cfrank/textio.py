"""Versioned plain-text persistence for matrices and metadata.

One format serves every checkpoint in the package: a version line, `#meta`
key=value lines, then named blocks of `name rows cols` followed by one
space-separated row per line. Floats are written with repr-exact precision
so saved and reloaded arrays compare equal bit for bit.
"""

from __future__ import annotations

import numpy as np

FORMAT_VERSION = "cfrank-matrix v1"


def save_matrices(path, arrays: dict, meta: dict | None = None) -> None:
    """Write the file one row at a time, so no copy of its text is held.

    Every array is converted before the file is opened: an array that is
    not numeric leaves an existing file untouched.
    """
    blocks = [
        (name, np.atleast_2d(np.asarray(arr, dtype=np.float64)))
        for name, arr in arrays.items()
    ]
    for name, a in blocks:
        if a.ndim != 2:
            raise ValueError(f"{name}: cannot save a {a.ndim}-D array")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#{FORMAT_VERSION}\n")
        for key in sorted((meta or {})):
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


def _block_error(path, lines, start, name, rows, cols) -> str:
    """`path:lineno: ...` for the first bad row of the block whose header is
    lines[start]."""
    for r in range(rows):
        lineno = start + 2 + r
        where = f"{path}:{lineno}: block {name!r}"
        if lineno > len(lines):
            return f"{where} ends after {r} of {rows} rows"
        fields = lines[lineno - 1].split()
        try:
            [float(x) for x in fields]
        except ValueError as exc:
            if _block_header(lines[lineno - 1]) is not None:
                return f"{where} ends after {r} of {rows} rows"
            return f"{where}: {exc}"
        if len(fields) != cols:
            return f"{where}: {len(fields)} values in a row of {cols}"
    return f"{path}:{start + 1}: block {name!r} is malformed"


def load_matrices(path) -> tuple[dict, dict]:
    """Returns (arrays, meta). 1xN blocks come back as 2-D; callers ravel.

    A malformed block raises ValueError naming `path:lineno`.
    """
    arrays: dict = {}
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines or lines[0] != f"#{FORMAT_VERSION}":
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
        header = _block_header(lines[i])
        if header is None:
            raise ValueError(
                f"{path}:{i + 1}: expected a 'name rows cols' block header, "
                f"got {lines[i]!r}"
            )
        name, rows, cols = header
        block = lines[i + 1 : i + 1 + rows]
        try:
            values = [[float(x) for x in row.split()] for row in block]
        except ValueError:
            values = None
        if values is None or len(block) < rows or any(len(v) != cols for v in values):
            raise ValueError(_block_error(path, lines, i, name, rows, cols))
        arrays[name] = np.array(values, dtype=np.float64).reshape(rows, cols)
        i += 1 + rows
    return arrays, meta
