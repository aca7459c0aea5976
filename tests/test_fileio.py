"""Tests for the JSON matrix/vector/basis file formats."""

import json

import numpy as np
import pytest

from hsbasis.bases import gellmann_basis, weyl_basis
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

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="not valid JSON"):
            load_matrix(path)


class TestVectorFormat:
    def test_load_column_vector(self, tmp_path):
        path = tmp_path / "v.json"
        save_matrix(np.array([[1.0], [2.0j]]), path)
        assert np.allclose(load_vector(path), [1.0, 2.0j])

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
