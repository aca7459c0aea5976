"""Tests for the JSON matrix/vector/basis file formats."""

import json
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from hsbasis.bases import MatrixBasis, gellmann_basis, standard_basis, weyl_basis
from hsbasis.fileio import (
    FormatError,
    basis_from_dict,
    basis_to_dict,
    load_basis,
    load_matrix,
    load_vector,
    matrix_from_dict,
    matrix_to_dict,
    save_basis,
    save_matrix,
)
from hsbasis.operators import bell_state, coherent_state

import oracles


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = oracles.random_matrix(3, rng)
        path = tmp_path / "m.json"
        save_matrix(m, path)
        assert np.allclose(load_matrix(path), m)

    def test_rectangular_round_trip(self):
        m = np.arange(6).reshape(2, 3) + 1j
        assert np.allclose(matrix_from_dict(matrix_to_dict(m)), m)

    def test_mismatched_entries_length(self):
        with pytest.raises(FormatError, match='"entries"'):
            matrix_from_dict({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]] * 3})

    def test_bad_pair(self):
        with pytest.raises(FormatError, match=r'"entries"\[1\]'):
            matrix_from_dict({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [1.0]]})
        with pytest.raises(FormatError, match=r'"entries"\[0\]'):
            matrix_from_dict({"rows": 1, "cols": 1, "entries": [["a", 0.0]]})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_non_finite_entry(self, value):
        entries = [[1.0, 0.0], [0.0, value]]
        with pytest.raises(FormatError, match=r'"entries"\[1\] must be finite'):
            matrix_from_dict({"rows": 1, "cols": 2, "entries": entries})

    def test_non_finite_json_file(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"rows": 1, "cols": 1, "entries": [[NaN, 0.0]]}')
        with pytest.raises(FormatError, match=r'"entries"\[0\] must be finite'):
            load_matrix(path)

    def test_non_finite_matrix_is_not_written(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            save_matrix(np.array([[np.nan]]), path)
        assert not path.exists()

    def test_bad_dimensions(self):
        with pytest.raises(FormatError, match='"rows"'):
            matrix_from_dict({"rows": 0, "cols": 2, "entries": []})
        with pytest.raises(FormatError, match='"cols"'):
            matrix_from_dict({"rows": 2, "cols": "x", "entries": []})

    def test_not_an_object(self):
        with pytest.raises(FormatError, match="object"):
            matrix_from_dict([1, 2, 3])

    @pytest.mark.parametrize("entries", ["[[1.0, 0.0]]", {"0": [1.0, 0.0]}, None])
    def test_entries_not_a_list(self, entries):
        with pytest.raises(FormatError, match='^field "entries" must be a list'):
            matrix_from_dict({"rows": 1, "cols": 1, "entries": entries})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_matrix(path)


# a few entries of every kind json spells differently; the tails hold many repeats of few values
_BIG = 1.7976931348623157e308
_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, _BIG, -_BIG, 0.1, 1e16, 1e-7, 3])
_REPEATED = np.resize(_SPECIAL[:4] + 1j * _SPECIAL[[1, 0, 3, 2]], (64, 64))

WRITTEN_MATRICES = {
    "1x1": np.array([[2.5 - 1j]]),
    "column": np.arange(5).reshape(5, 1) * 1j,
    "row": np.arange(5.0).reshape(1, 5),
    "wide": np.arange(6).reshape(2, 3) + 0.5j,
    "tall": np.arange(6).reshape(3, 2) - 0.5j,
    "special_values": np.add.outer(_SPECIAL, 1j * _SPECIAL),
    "signed_zeros": np.array([[0.0, -0.0], [complex(-0.0, 0.0), complex(-0.0, -0.0)]]),
    "repeated": _REPEATED,
    "one_value": np.full((40, 40), -0.0 + 0.1j),
    "fortran_order": np.asfortranarray(np.arange(12.0).reshape(3, 4) - 2j),
    "one_axis": np.array([1.0, -0.0, 5e-324]),
    "scalar": 7.0,
}


def assert_same_text(written, expected):
    """Fail at the first line where two texts differ; pytest's own diff of long texts takes minutes."""
    if written == expected:
        return
    got, want = written.splitlines(), expected.splitlines()
    i = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    pytest.fail(f"texts differ at line {i + 1}: {got[i : i + 1]} != {want[i : i + 1]}")


class TestWrittenText:
    """Files hold the bytes json.dumps(doc, indent=2, allow_nan=False) + newline gives."""

    @pytest.mark.parametrize("name", WRITTEN_MATRICES)
    def test_matrix_text(self, tmp_path, name):
        m = WRITTEN_MATRICES[name]
        path = tmp_path / "m.json"
        save_matrix(m, path)
        assert_same_text(path.read_text(encoding="utf-8"), oracles.json_text(matrix_to_dict(m)))
        expected = np.atleast_2d(np.asarray(m, dtype=complex))
        assert load_matrix(path).tobytes() == np.ascontiguousarray(expected).tobytes()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (0,)])
    def test_empty_matrix_refused(self, tmp_path, shape):
        # the reader needs positive "rows" and "cols", so the writer refuses to write zero
        path = tmp_path / "m.json"
        written = shape if len(shape) == 2 else (0, 1)  # a 1-D array is written as one column
        with pytest.raises(ValueError, match=re.escape(str(written))):
            save_matrix(np.zeros(shape), path)
        assert not path.exists()
        with pytest.raises(ValueError, match=re.escape(str(written))):
            matrix_to_dict(np.zeros(shape))

    @pytest.mark.parametrize("name", WRITTEN_MATRICES)
    def test_matrix_to_dict_matches_loop(self, name):
        m = WRITTEN_MATRICES[name]
        doc = matrix_to_dict(m)
        assert repr(doc["entries"]) == repr(oracles.matrix_entries_loops(m))
        assert all(type(x) is float for pair in doc["entries"] for x in pair)

    @pytest.mark.parametrize(
        "basis",
        [gellmann_basis(2), gellmann_basis(3), weyl_basis(3), standard_basis(2),
         MatrixBasis(2, -0.0 * weyl_basis(2).elements, "custom"),
         MatrixBasis(2, np.resize(_SPECIAL + 1j * _SPECIAL[::-1], (4, 2, 2)), "weyl")],
        ids=["gellmann2", "gellmann3", "weyl3", "standard2", "negative_zeros", "special_values"],
    )
    def test_basis_text(self, tmp_path, basis):
        path = tmp_path / "b.json"
        save_basis(basis, path)
        assert_same_text(path.read_text(encoding="utf-8"), oracles.json_text(basis_to_dict(basis)))
        assert load_basis(path).elements.tobytes() == basis.elements.tobytes()

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[np.nan]]),
            np.array([[1.0, complex(2.0, np.inf)], [complex(np.nan, 0.0), 0.0]]),
            np.array([[complex(-np.inf, np.nan)]]),
            np.array([[1.0, 2.0], [complex(3.0, -np.inf), np.inf]]),
            np.asfortranarray([[1.0, complex(0.0, np.nan)], [np.inf, 1.0]]),
        ],
        ids=["nan", "inf_imag_first", "neg_inf_real_first", "neg_inf_imag", "row_major_order"],
    )
    def test_non_finite_matrix_raises_json_message(self, tmp_path, m):
        with pytest.raises(ValueError) as expected:
            oracles.json_text(matrix_to_dict(m))
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            save_matrix(m, path)
        assert str(expected.value).startswith("Out of range float values are not JSON compliant: ")
        assert not path.exists()

    def test_non_finite_basis_raises_json_message(self, tmp_path):
        elements = weyl_basis(2).elements.copy()
        elements[2, 1, 0] = complex(1.0, -np.inf)
        elements[3, 0, 0] = np.nan
        basis = MatrixBasis(2, elements, "custom")
        path = tmp_path / "b.json"
        with pytest.raises(ValueError, match=r"^Out of range float values are not JSON compliant: -inf$"):
            save_basis(basis, path)
        assert not path.exists()

    def test_more_than_two_axes_is_refused(self, tmp_path):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=re.escape("(2, 2, 2)")):
            save_matrix(np.zeros((2, 2, 2)), path)
        assert not path.exists()
        with pytest.raises(ValueError, match=re.escape("(2, 2, 2)")):
            matrix_to_dict(np.zeros((2, 2, 2)))

    def test_written_without_the_json_encoder(self, tmp_path, monkeypatch):
        """The indented encoder that runs once per entry is never called."""
        m = np.arange(64 * 64).reshape(64, 64) * (0.5 - 0.25j)
        basis = gellmann_basis(3)
        expected = oracles.json_text(matrix_to_dict(m)), oracles.json_text(basis_to_dict(basis))

        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        save_matrix(m, tmp_path / "m.json")
        save_basis(basis, tmp_path / "b.json")
        monkeypatch.undo()
        assert_same_text((tmp_path / "m.json").read_text(encoding="utf-8"), expected[0])
        assert_same_text((tmp_path / "b.json").read_text(encoding="utf-8"), expected[1])


_PAIR = [1.0, 0.0]


def _doc(entries):
    return {"rows": 1, "cols": len(entries), "entries": entries}


class TestReadEntries:
    """A valid document converts in bulk; a bad entry is named by its index, as one by one."""

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([_PAIR, [1.0]], '"entries"[1] must be a [re, im] pair of numbers, got [1.0]'),
            ([_PAIR, _PAIR, [1.0, 2.0, 3.0]], '"entries"[2] must be a [re, im] pair of numbers, got [1.0, 2.0, 3.0]'),
            ([["a", 0.0]], '"entries"[0] must be a [re, im] pair of numbers, got [\'a\', 0.0]'),
            ([_PAIR, [0.0, True]], '"entries"[1] must be a [re, im] pair of numbers, got [0.0, True]'),
            ([_PAIR, None], '"entries"[1] must be a [re, im] pair of numbers, got None'),
            ([_PAIR, (1.0, 0.0)], '"entries"[1] must be a [re, im] pair of numbers, got (1.0, 0.0)'),
            ([_PAIR, [[1.0], 0.0]], '"entries"[1] must be a [re, im] pair of numbers, got [[1.0], 0.0]'),
            ([_PAIR, _PAIR, [0.0, float("nan")]], '"entries"[2] must be finite, got [0.0, nan]'),
            # every entry's type is checked before any value's finiteness
            ([[float("-inf"), 0.0], [1.0]], '"entries"[1] must be a [re, im] pair of numbers, got [1.0]'),
            ([_PAIR, [-(10**400), 0]], f'"entries"[1] must be finite, got [{-(10**400)}, 0]'),
        ],
        ids=["short", "long", "string", "bool", "null", "tuple", "nested", "nan", "type_before_finite", "beyond_double"],
    )
    def test_bad_entry_message(self, entries, message):
        with pytest.raises(FormatError, match=f"^field {re.escape(message)}$"):
            matrix_from_dict(_doc(entries))

    def test_bad_entry_in_basis_names_element(self):
        doc = basis_to_dict(gellmann_basis(2))
        doc["elements"][2]["entries"][3] = [0.0, float("inf")]
        with pytest.raises(FormatError, match=re.escape('"elements"[2]: field "entries"[3] must be finite')):
            basis_from_dict(doc)

    def test_nan_before_an_int_beyond_double_is_named(self):
        # an int beyond the double range makes the bulk conversion overflow; the first
        # non-finite entry is still the one named
        entries = [_PAIR, [float("nan"), 0.0], [10**400, 0]]
        with pytest.raises(FormatError, match=re.escape('field "entries"[1] must be finite, got [nan, 0.0]')):
            matrix_from_dict(_doc(entries))

    def test_float_subclass_values_are_read(self):
        entries = [[np.float64(0.5), np.float64(-0.0)], [2, np.float64(5e-324)]]
        got = matrix_from_dict(_doc(entries))
        assert got.tobytes() == oracles.entries_from_pairs_loops(entries).reshape(1, 2).tobytes()


class TestVectorFormat:
    def test_load_column_vector(self, tmp_path):
        path = tmp_path / "v.json"
        save_matrix(np.array([[1.0], [2.0j]]), path)
        assert np.allclose(load_vector(path), [1.0, 2.0j])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_axis_state_round_trips_bit_for_bit(self, tmp_path, d):
        rng = np.random.default_rng(d)
        psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        for state in (psi / np.linalg.norm(psi), bell_state(d), coherent_state(d)):
            path = tmp_path / "v.json"
            save_matrix(state, path)
            assert load_vector(path).tobytes() == state.tobytes()
            assert matrix_from_dict(matrix_to_dict(state)).shape == (state.size, 1)

    def test_rejects_non_column(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(np.eye(2), path)
        with pytest.raises(FormatError, match='"cols"'):
            load_vector(path)


class TestBasisFormat:
    @pytest.mark.parametrize("builder", [gellmann_basis, weyl_basis])
    def test_round_trip(self, tmp_path, builder):
        b = builder(3)
        path = tmp_path / "b.json"
        save_basis(b, path)
        loaded = load_basis(path)
        assert loaded.d == 3
        assert loaded.kind == b.kind
        assert np.allclose(loaded.elements, b.elements)

    @pytest.mark.parametrize("d", [np.int64(2), np.int32(3), np.uint8(2)])
    def test_numpy_integer_dimension_round_trip(self, tmp_path, d):
        b = MatrixBasis(d, weyl_basis(int(d)).elements, "weyl")
        assert type(b.d) is int
        path = tmp_path / "b.json"
        save_basis(b, path)
        assert path.read_text(encoding="utf-8") == oracles.json_text(basis_to_dict(b))
        loaded = load_basis(path)
        assert loaded.d == d and loaded.kind == "weyl"
        assert loaded.elements.tobytes() == b.elements.tobytes()

    def test_wrong_element_count(self):
        doc = basis_to_dict(gellmann_basis(2))
        doc["elements"] = doc["elements"][:3]
        with pytest.raises(FormatError, match='"elements"'):
            basis_from_dict(doc)

    def test_wrong_element_shape(self):
        doc = basis_to_dict(gellmann_basis(2))
        doc["elements"][1] = matrix_to_dict(np.eye(3))
        with pytest.raises(FormatError, match=r'"elements"\[1\]'):
            basis_from_dict(doc)

    def test_d_too_small(self):
        with pytest.raises(FormatError, match='"d"'):
            basis_from_dict({"d": 1, "kind": "custom", "elements": [matrix_to_dict(np.eye(1))]})

    @pytest.mark.parametrize("doc", [[], "basis", None])
    def test_not_an_object(self, doc):
        with pytest.raises(FormatError, match="^basis document must be an object"):
            basis_from_dict(doc)

    @pytest.mark.parametrize("kind", [3, None, ["weyl"]])
    def test_kind_not_a_string(self, kind):
        doc = basis_to_dict(gellmann_basis(2))
        doc["kind"] = kind
        with pytest.raises(FormatError, match='^field "kind" must be a string'):
            basis_from_dict(doc)

    @pytest.mark.parametrize("elements", [{}, "elements", None])
    def test_elements_not_a_list(self, elements):
        doc = basis_to_dict(gellmann_basis(2))
        doc["elements"] = elements
        with pytest.raises(FormatError, match='^field "elements" must be a list'):
            basis_from_dict(doc)

    def test_unknown_kind_becomes_custom(self):
        doc = basis_to_dict(gellmann_basis(2))
        doc["kind"] = "homemade"
        assert basis_from_dict(doc).kind == "custom"

    def test_document_fields(self, tmp_path):
        path = tmp_path / "b.json"
        save_basis(gellmann_basis(2), path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"d", "kind", "elements"}
        assert doc["d"] == 2
        assert len(doc["elements"]) == 4
        assert doc["elements"][0]["rows"] == 2


FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _entries(count):
    return st.lists(st.tuples(FINITE, FINITE), min_size=count, max_size=count).map(
        lambda pairs: np.array([complex(re, im) for re, im in pairs])
    )


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(_entries(rows * cols)).reshape(rows, cols)


@st.composite
def _bases(draw):
    d = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["custom", "standard", "gellmann", "weyl"]))
    return MatrixBasis(d, draw(_entries(d**4)).reshape(d * d, d, d), kind)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


# no explain phase: it line-traces every call, and json.dumps with an indent (the oracle text
# below) runs in pure Python once per entry, so explaining a failure would take minutes
@settings(
    derandomize=True,
    deadline=None,
    database=None,
    max_examples=40,
    phases=[p for p in Phase if p is not Phase.explain],
)
@given(m=_matrices(), b=_bases())
def test_files_round_trip_bit_exactly(folder, m, b):
    """Every finite double, signed zeros and subnormals included, is written as json writes it
    and survives a save and a load."""
    save_matrix(m, folder / "m.json")
    save_basis(b, folder / "b.json")
    assert_same_text((folder / "m.json").read_text(encoding="utf-8"), oracles.json_text(matrix_to_dict(m)))
    assert_same_text((folder / "b.json").read_text(encoding="utf-8"), oracles.json_text(basis_to_dict(b)))
    m_back, b_back = load_matrix(folder / "m.json"), load_basis(folder / "b.json")
    matrix_same = m_back.shape == m.shape and m_back.tobytes() == m.tobytes()
    basis_same = (b_back.d, b_back.kind) == (b.d, b.kind) and (
        b_back.elements.tobytes() == b.elements.tobytes()
    )
    assert matrix_same
    assert basis_same


NUMBERS = st.one_of(FINITE, st.integers(-(2**1030), 2**1030))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(pairs=st.lists(st.tuples(NUMBERS, NUMBERS), min_size=1, max_size=12))
def test_read_entries_match_one_by_one(pairs):
    """Ints up to and beyond the double range and every finite float convert as complex(re, im) does."""
    entries = [list(p) for p in pairs]
    try:
        expected = oracles.entries_from_pairs_loops(entries)
    except OverflowError:
        with pytest.raises(FormatError, match="must be finite"):
            matrix_from_dict(_doc(entries))
    else:
        assert matrix_from_dict(_doc(entries)).tobytes() == expected.tobytes()
