"""JSON file formats for matrices, vectors, and bases.

A matrix document is an object with fields "rows", "cols", and
"entries", the latter a row-major list of [re, im] pairs of length
rows*cols; both counts are positive, so the writer refuses an empty
array. A vector is a single-column matrix. A basis document carries
"d", "kind", and "elements", a list of d^2 matrix documents in flat
(j, k) order.

Files hold exactly the bytes of ``json.dumps(doc, indent=2,
allow_nan=False)`` plus a newline, but the writer does not call json on
the entries: with an indent, json encodes in pure Python, one entry at a
time. Instead the entries are checked finite in one vectorized test,
before any file is opened, and json's own error names the first NaN or
infinity. Each distinct (re, im) pair, told apart by its 16 bytes so that
-0.0 and 0.0 stay distinct, is formatted once with ``float.__repr__`` as
json does, and the texts are joined. The reader parses with json and
converts every entry with one ``np.array`` call once bulk checks pass
(each pair a 2-list of finite numbers, no bools); only input that fails
them takes the per-entry loop that names the offending index.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .bases import NAMED_BASES, MatrixBasis
from .linalg import _frozen

__all__ = [
    "FormatError",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "load_vector",
    "basis_to_dict",
    "basis_from_dict",
    "save_basis",
    "load_basis",
]


class FormatError(ValueError):
    """Malformed matrix/basis/vector document; the message names the field."""


def _as_matrix(m) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.ndim != 2 or 0 in m.shape:
        raise ValueError(f"a matrix has two nonempty axes, got an array of shape {m.shape}")
    return m


def matrix_to_dict(m: np.ndarray) -> dict:
    m = _as_matrix(m)
    rows, cols = m.shape
    return {"rows": rows, "cols": cols, "entries": m.ravel().view(float).reshape(-1, 2).tolist()}


def _positive_int(obj: dict, field: str) -> int:
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise FormatError(f'field "{field}" must be a positive integer, got {value!r}')
    return value


def matrix_from_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError(f"matrix document must be an object, got {type(obj).__name__}")
    rows = _positive_int(obj, "rows")
    cols = _positive_int(obj, "cols")
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise FormatError('field "entries" must be a list of [re, im] pairs')
    if len(entries) != rows * cols:
        raise FormatError(
            f'field "entries" must hold rows*cols = {rows * cols} pairs, got {len(entries)}'
        )
    values = _bulk_entries(entries)
    if values is None:
        values = _entries_one_by_one(entries)
    return values.reshape(rows, cols)


def _bulk_entries(entries: list) -> np.ndarray | None:
    """The entries as complex values if every one is a [re, im] list of finite numbers, else None."""
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    numbers = list(chain.from_iterable(entries))
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        values = np.array(numbers, dtype=float)
    except OverflowError:  # an integer beyond the double range
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(complex)


def _entries_one_by_one(entries: list) -> np.ndarray:
    """Convert entry by entry; the first bad one raises a FormatError that names its index."""
    values = np.empty(len(entries), dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            raise FormatError(
                f'field "entries"[{i}] must be a [re, im] pair of numbers, got {pair!r}'
            )
        try:
            values[i] = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the double range
            values[i] = np.inf
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FormatError(f'field "entries"[{i}] must be finite, got {entries[i]!r}')
    return values


def _read_json(path) -> object:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def _finite_entries(values: np.ndarray) -> np.ndarray:
    """The entries of `values`, flat and row-major; json's own error for the first NaN or infinity."""
    flat = np.ascontiguousarray(values).reshape(-1)
    parts = flat.view(float)
    finite = np.isfinite(parts)
    if not finite.all():
        bad = float(parts[np.argmin(finite)])
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    return flat


def _pair_texts(flat: np.ndarray, pad: str) -> list[str]:
    """Each entry as json writes it at indent `pad`, formatted once per distinct pair."""
    # each entry as its 16 raw bytes, so that -0.0 and 0.0 are distinct pairs
    pairs, inverse = np.unique(flat.view("V16"), return_inverse=True)
    inner = pad + "  "
    texts = [
        f"{pad}[\n{inner}{re!r},\n{inner}{im!r}\n{pad}]"
        for re, im in pairs.view(float).reshape(-1, 2).tolist()
    ]
    return np.array(texts, dtype=object)[inverse].tolist()


def _matrix_text(rows: int, cols: int, pairs: list[str], pad: str) -> str:
    """A matrix document as json writes it with its fields at indent `pad`; `pairs` is nonempty."""
    sep = ",\n"
    entries = f"[\n{sep.join(pairs)}\n{pad}]"
    return f'{{\n{pad}"rows": {rows},\n{pad}"cols": {cols},\n{pad}"entries": {entries}\n{pad[2:]}}}'


def save_matrix(m: np.ndarray, path) -> None:
    m = _as_matrix(m)
    pairs = _pair_texts(_finite_entries(m), " " * 4)
    Path(path).write_text(_matrix_text(*m.shape, pairs, "  ") + "\n", encoding="utf-8")


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(_read_json(path))


def load_vector(path) -> np.ndarray:
    """Load a column vector (a matrix document with cols == 1)."""
    m = load_matrix(path)
    if m.shape[1] != 1:
        raise FormatError(f'vector file must have "cols" == 1, got {m.shape[1]}')
    return m.ravel()


def basis_to_dict(basis: MatrixBasis) -> dict:
    return {
        "d": basis.d,
        "kind": basis.kind,
        "elements": [matrix_to_dict(g) for g in basis.elements],
    }


def basis_from_dict(obj) -> MatrixBasis:
    if not isinstance(obj, dict):
        raise FormatError(f"basis document must be an object, got {type(obj).__name__}")
    d = _positive_int(obj, "d")
    if d < 2:
        raise FormatError(f'field "d" must be at least 2, got {d}')
    kind = obj.get("kind", "custom")
    if not isinstance(kind, str):
        raise FormatError(f'field "kind" must be a string, got {kind!r}')
    elements = obj.get("elements")
    if not isinstance(elements, list):
        raise FormatError('field "elements" must be a list of matrix objects')
    if len(elements) != d * d:
        raise FormatError(
            f'field "elements" must hold d^2 = {d * d} matrices, got {len(elements)}'
        )
    stack = np.empty((d * d, d, d), dtype=complex)
    for i, el in enumerate(elements):
        try:
            m = matrix_from_dict(el)
        except FormatError as exc:
            raise FormatError(f'field "elements"[{i}]: {exc}') from None
        if m.shape != (d, d):
            raise FormatError(
                f'field "elements"[{i}] must be a {d}x{d} matrix, got {m.shape[0]}x{m.shape[1]}'
            )
        stack[i] = m
    return MatrixBasis(d, _frozen(stack, built=True), kind if kind in NAMED_BASES else "custom")


def save_basis(basis: MatrixBasis, path) -> None:
    d = basis.d
    head = f'{{\n  "d": {json.dumps(d)},\n  "kind": {json.dumps(basis.kind)},\n  "elements": [\n'
    pairs = _pair_texts(_finite_entries(basis.elements), " " * 8)
    n = d * d
    elements = ",\n".join(
        "    " + _matrix_text(d, d, pairs[i : i + n], " " * 6) for i in range(0, len(pairs), n)
    )
    Path(path).write_text(head + elements + "\n  ]\n}\n", encoding="utf-8")


def load_basis(path) -> MatrixBasis:
    return basis_from_dict(_read_json(path))
