"""JSON file formats for matrices, vectors, and bases.

A matrix document is an object with fields "rows", "cols", and
"entries", the latter a row-major list of [re, im] pairs of length
rows*cols. A vector is a single-column matrix. A basis document carries
"d", "kind", and "elements", a list of d^2 matrix documents in flat
(j, k) order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bases import NAMED_BASES, MatrixBasis

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


def matrix_to_dict(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    entries = [[float(v.real), float(v.imag)] for v in m.ravel()]
    return {"rows": rows, "cols": cols, "entries": entries}


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
    values = np.empty(rows * cols, dtype=complex)
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
    return values.reshape(rows, cols)


def _read_json(path) -> object:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc.msg} at line {exc.lineno})") from None
    except RecursionError:
        raise FormatError(f"{path}: JSON nested too deeply") from None


def _write_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", encoding="utf-8")


def save_matrix(m: np.ndarray, path) -> None:
    _write_json(matrix_to_dict(m), path)


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
    return MatrixBasis(d, stack, kind if kind in NAMED_BASES else "custom")


def save_basis(basis: MatrixBasis, path) -> None:
    _write_json(basis_to_dict(basis), path)


def load_basis(path) -> MatrixBasis:
    return basis_from_dict(_read_json(path))
