"""Versioned plain-text persistence for matrices and metadata.

One format serves every checkpoint in the package: a version line, `#meta`
key=value lines, then named blocks of `name rows cols` followed by one
space-separated row per line. Floats are written with repr-exact precision
so saved and reloaded arrays compare equal bit for bit.

Each save also writes a binary twin, `path + ".f64"`: the 32-byte sha256
of the text, then every block's values as little-endian float64 in file
order (NaN as canonical `np.nan`, the value its text `nan` parses to). A
load streams the text once, hashing it and reading only the meta lines and
block headers; when the digest matches the twin's and the twin's length
matches the headers, the values come from the twin. The text always wins:
with no twin, a stale one (the text was edited or copied alone) or a short
one, the values are parsed from the text, so both paths give the same bits.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

FORMAT_VERSION = "cfrank-matrix v1"
TWIN_SUFFIX = ".f64"
_F64 = np.dtype("<f8")
_DIGEST_BYTES = hashlib.sha256().digest_size


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
    """Write the text one row at a time, so no copy of it is held, then
    its binary twin.

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
    digest = hashlib.sha256()
    with open(path, "wb") as fh:

        def put(line):
            data = (line + "\n").encode("utf-8")
            digest.update(data)
            fh.write(data)

        put(f"#{FORMAT_VERSION}")
        for key in sorted(meta):
            put(f"#meta {key}={meta[key]}")
        for name, a in blocks:
            put(f"{name} {a.shape[0]} {a.shape[1]}")
            for row in a:
                put(" ".join(map(repr, row.tolist())))
    with open(os.fspath(path) + TWIN_SUFFIX, "wb") as fh:
        fh.write(digest.digest())
        for _, a in blocks:
            nan = np.isnan(a)
            if nan.any():
                a = np.where(nan, np.nan, a)
            a.astype(_F64, copy=False).tofile(fh)


def _block_header(line):
    """(name, rows, cols) of a `name rows cols` block header line, else None."""
    fields = line.split()
    if len(fields) != 3 or not (fields[1].isdecimal() and fields[2].isdecimal()):
        return None
    return fields[0], int(fields[1]), int(fields[2])


def _scan_text(path):
    """(meta, headers, sha256) from one pass over the text, reading only
    the meta lines and block headers; None where the text is not laid out
    as the writer lays it out (the parser then names the fault)."""
    meta: dict = {}
    headers: list = []
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        lines = iter(fh)
        first = next(lines, b"")
        digest.update(first)
        if first.rstrip(b"\n") != f"#{FORMAT_VERSION}".encode():
            return None
        for raw in lines:
            digest.update(raw)
            line = raw.rstrip(b"\n").decode("utf-8")
            if line.startswith("#meta ") and not headers:
                key, _, value = line[len("#meta "):].partition("=")
                meta[key] = value
                continue
            header = _block_header(line)
            if header is None:
                return None
            headers.append(header)
            for _ in range(header[1]):
                raw = next(lines, None)
                if raw is None:
                    return None
                digest.update(raw)
    return meta, headers, digest.digest()


def _load_twin(path):
    """(arrays, meta) from the binary twin of the text at `path`, or None
    when there is no twin or it does not belong to this text."""
    twin = os.fspath(path) + TWIN_SUFFIX
    if not os.path.exists(twin):
        return None
    scanned = _scan_text(path)
    if scanned is None:
        return None
    meta, headers, text_digest = scanned
    size = _DIGEST_BYTES + _F64.itemsize * sum(r * c for _, r, c in headers)
    with open(twin, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != size or fh.read(_DIGEST_BYTES) != text_digest:
            return None
        arrays = {
            name: np.fromfile(fh, dtype=_F64, count=rows * cols).reshape(rows, cols)
            for name, rows, cols in headers
        }
    return arrays, meta


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


def _read_lines(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [ln.rstrip("\n") for ln in fh]


def _parse_block(lines, rows, cols, size):
    """The next `rows` lines of the iterator as a (rows, cols) array, or
    None when they are not `rows` lines of `cols` floats. A row takes at
    least 2 bytes per value (1 when empty), so a header claiming more rows
    than a file of `size` bytes holds is short, and nothing is allocated."""
    if rows * max(2 * cols, 1) > size + 1:
        return None
    block = np.empty((rows, cols))
    for r in range(rows):
        row = next(lines, None)
        if row is None:
            return None
        try:
            values = [float(x) for x in row.split()]
        except ValueError:
            return None
        if len(values) != cols:
            return None
        block[r] = values
    return block


def _parse_text(path) -> tuple[dict, dict]:
    """(arrays, meta) parsed from the text alone.

    Lines are streamed and each block's rows are parsed straight into its
    preallocated float64 array, so the text is never held whole. On the
    first fault the file is read again to name its line.
    """
    arrays: dict = {}
    meta: dict = {}
    with open(path, encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        lines = (ln.rstrip("\n") for ln in fh)
        if next(lines, None) != f"#{FORMAT_VERSION}":
            raise ValueError(f"{path}: not a {FORMAT_VERSION} file")
        i, line = 1, next(lines, None)  # line is lines[i], 0-based
        while line is not None and line.startswith("#meta "):
            key, _, value = line[len("#meta "):].partition("=")
            meta[key] = value
            i, line = i + 1, next(lines, None)
        while line is not None:
            if not line.strip():
                i, line = i + 1, next(lines, None)
                continue
            header = _block_header(line)
            if header is None:
                raise ValueError(
                    f"{path}:{i + 1}: expected a 'name rows cols' block header, "
                    f"got {line!r}"
                )
            name, rows, cols = header
            block = _parse_block(lines, rows, cols, size)
            if block is None:
                every = _read_lines(path)
                raise ValueError(_block_error(path, every, i, name, rows, cols))
            arrays[name] = block
            i, line = i + 1 + rows, next(lines, None)
    return arrays, meta


def load_matrices(path) -> tuple[dict, dict]:
    """Returns (arrays, meta). 1xN blocks come back as 2-D; callers ravel.

    Values come from the binary twin when it matches the text, else from
    the text. A malformed block raises ValueError naming `path:lineno`.
    """
    return _load_twin(path) or _parse_text(path)
