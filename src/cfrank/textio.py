"""Versioned plain-text persistence for matrices and metadata.

One format serves every checkpoint in the package: a version line, `#meta`
key=value lines, then named blocks of `name rows cols` followed by one
space-separated row per line. Floats are written with repr-exact precision
so saved and reloaded arrays compare equal bit for bit.

Each save also writes a binary twin, `path + ".f64"`: the 32-byte sha256
of the text, then every block's values as little-endian float64 in file
order (NaN as canonical `np.nan`, the value its text `nan` parses to). One
reader walks the text, in one of two modes. A load first scans: it hashes
every line but decodes only the meta lines and block headers, and when the
digest and the headers match the twin, the values come from the twin. The
text always wins: with no twin, a stale one (the text was edited or copied
alone) or a short one, the load parses the rows instead, so both paths give
the same bits.
"""

from __future__ import annotations

import hashlib
import itertools
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


def _read_text(path, parse):
    """(blocks, meta, sha256) from one pass over the text at `path`.

    Parse mode reads each block's rows into its preallocated float64 array.
    Scan mode hashes each line, maps each name to (rows, cols) and leaves
    the rows undecoded, so a fault inside one shows only as a stale digest.
    A fault in the layout raises ValueError naming `path:lineno`.
    """
    blocks: dict = {}
    meta: dict = {}
    digest = hashlib.sha256()
    with open(path, "r" if parse else "rb", encoding="utf-8" if parse else None) as fh:
        size = os.fstat(fh.fileno()).st_size
        lines = enumerate(fh, 1)

        def text(line):
            if not parse:
                digest.update(line)
                line = line.decode("utf-8")
            return line.rstrip("\n")

        def fault(message):  # at the line last read
            return ValueError(f"{path}:{lineno}: {message}")

        lineno, line = next(lines, (1, None))
        if line is None or text(line) != f"#{FORMAT_VERSION}":
            raise ValueError(f"{path}: not a {FORMAT_VERSION} file")
        heading = True  # `#meta` lines come first, before any block
        for lineno, line in lines:
            line = text(line)
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
            # Scan mode keeps the shape. A row takes at least 2 bytes per value
            # (1 when empty), so a header claiming more rows than the file holds
            # allocates nothing: one of its rows is sure to fail.
            fits = parse and rows * max(2 * cols, 1) <= size + 1
            block = np.empty((rows, cols)) if fits else (rows, cols)
            start = lineno
            for lineno, row in itertools.islice(lines, rows):
                if not parse:
                    digest.update(row)
                    continue
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
            blocks[name] = block
    return blocks, meta, digest.digest()


def _load_twin(path):
    """(arrays, meta) from the binary twin of the text at `path`, or None
    when there is no twin or it does not belong to this text."""
    twin = os.fspath(path) + TWIN_SUFFIX
    if not os.path.exists(twin):
        return None
    try:
        shapes, meta, text_digest = _read_text(path, parse=False)
    except ValueError:
        return None  # the parser names the fault
    size = _DIGEST_BYTES + _F64.itemsize * sum(r * c for r, c in shapes.values())
    with open(twin, "rb") as fh:
        if os.fstat(fh.fileno()).st_size != size or fh.read(_DIGEST_BYTES) != text_digest:
            return None
        arrays = {
            name: np.fromfile(fh, dtype=_F64, count=rows * cols).reshape(rows, cols)
            for name, (rows, cols) in shapes.items()
        }
    return arrays, meta


def _parse_text(path) -> tuple[dict, dict]:
    """(arrays, meta) parsed from the text alone."""
    return _read_text(path, parse=True)[:2]


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

    Values come from the binary twin when it matches the text, else from
    the text. A malformed block raises ValueError naming `path:lineno`.
    """
    return _load_twin(path) or _parse_text(path)
