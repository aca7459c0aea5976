"""Tests for the public name table of the package, the README's module table, and the records."""

import copy
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import hsbasis
from hsbasis import bases, identities, linalg, maps, operators, report, transforms

MODULES = (bases, identities, linalg, maps, operators, report, transforms)
README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_the_union_of_the_module_tables():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(hsbasis.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hsbasis, name) is getattr(module, name), name
    gained = ("hs_gram", "combine", "product_sum", "sandwich_sum", "apply_superop", "DEFAULT_SEED")
    assert set(gained) <= set(hsbasis.__all__)


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from hsbasis import *", namespace)
    assert set(hsbasis.__all__) <= set(namespace)


def test_readme_has_one_short_contract_row_per_module():
    # a row states a contract; the mechanism lives in the docstrings, measured figures in BENCH_*.json
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"\d\s*(?:ms|MB|ops/s)\b", text) == []
    rows = {}
    for line in text.splitlines():
        match = re.match(r"\| `(\w+)` *\|", line)
        if match:
            assert match[1] not in rows, match[1]
            rows[match[1]] = line
    modules = {m.name for m in pkgutil.iter_modules(hsbasis.__path__) if not m.name.startswith("_")}
    assert set(rows) == modules
    assert {name: len(row) for name, row in rows.items() if len(row) > 320} == {}


RECORDS = ("MatrixBasis", "BasisChange", "BlockStructure", "BlochVector", "Superoperator", "ChoiState")


@pytest.fixture(scope="module")
def records():
    """Two distinct instances of each record that holds an array, all at d = 2."""
    named = (hsbasis.gellmann_basis(2), hsbasis.weyl_basis(2))
    changes = [hsbasis.to_standard(b) for b in named]
    splits = [hsbasis.split_diag_offdiag(b) for b in named]
    superops = [hsbasis.superop_from_action(lambda g: g, named[0]), hsbasis.Superoperator(2, np.eye(4))]
    return {
        "MatrixBasis": named,
        "BasisChange": changes,
        "BlockStructure": [hsbasis.block_structure(u, s) for u, s in zip(changes, splits)],
        "BlochVector": [hsbasis.bloch_decompose(np.diag(v), named[0]) for v in ([1, 1], [1, -1])],
        "Superoperator": superops,
        "ChoiState": [hsbasis.choi_state(s, named[0]) for s in superops],
    }


@pytest.mark.parametrize("name", RECORDS)
def test_records_holding_arrays_compare_and_hash_by_identity(records, name):
    record, other = records[name]
    assert type(record).__name__ == name and type(other) is type(record)
    assert record in [other, record]
    assert {record: 1}[record] == 1
    assert record != copy.copy(record)
