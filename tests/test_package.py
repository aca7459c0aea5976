"""Tests for the public name table of the package, the README's module table, and the records."""

import copy
import itertools
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
ARRAYS = {
    "MatrixBasis": ("elements",),
    "BasisChange": ("coeffs",),
    "BlockStructure": ("diagonal", "offdiagonal"),
    "BlochVector": ("coeffs",),
    "Superoperator": ("matrix",),
    "ChoiState": ("matrix",),
}


def _arguments(name, make):
    """Constructor arguments of the record ``name`` at d = 2, each array made by ``make(shape)``."""
    return {
        "MatrixBasis": (2, make((4, 2, 2))),
        "BasisChange": (2, make((4, 4))),
        "BlockStructure": (make((2, 2)), make((2, 2))),
        "BlochVector": (2, "custom", make((4,))),
        "Superoperator": (2, make((4, 4))),
        "ChoiState": (2, make((4, 4))),
    }[name]


def _writable(shape):
    return np.arange(1, 1 + np.prod(shape), dtype=complex).reshape(shape) * (1 + 0.5j)


@pytest.fixture(scope="module")
def records():
    """Two distinct instances of each record that holds an array, all at d = 2: the first from
    the library function that returns it, the second from its constructor on writable arrays."""
    basis = hsbasis.gellmann_basis(2)
    change, superop = hsbasis.to_standard(basis), hsbasis.superop_from_action(lambda g: g, basis)
    made = {
        "MatrixBasis": hsbasis.random_basis(2, 1),
        "BasisChange": change,
        "BlockStructure": hsbasis.block_structure(change, hsbasis.split_diag_offdiag(basis)),
        "BlochVector": hsbasis.bloch_decompose(np.diag([1, -1]), basis),
        "Superoperator": superop,
        "ChoiState": hsbasis.choi_state(superop, basis),
    }
    return {name: [made[name], getattr(hsbasis, name)(*_arguments(name, _writable))] for name in RECORDS}


@pytest.mark.parametrize("name", RECORDS)
def test_records_holding_arrays_compare_and_hash_by_identity(records, name):
    record, other = records[name]
    assert type(record).__name__ == name and type(other) is type(record)
    assert record in [other, record]
    assert {record: 1}[record] == 1
    assert record != copy.copy(record)


@pytest.mark.parametrize("name", RECORDS)
def test_records_hold_arrays_no_caller_can_write_through(records, name):
    for record in records[name]:
        for attr in ARRAYS[name]:
            held = getattr(record, attr)
            assert held.dtype == complex
            assert not held.flags.writeable and (held.base is None or not held.base.flags.writeable)
            with pytest.raises(ValueError, match="read-only"):
                held.flat[0] = 7


@pytest.mark.parametrize("name", RECORDS)
def test_writing_into_an_input_after_construction_changes_no_record(name):
    args = _arguments(name, _writable)
    record = getattr(hsbasis, name)(*args)
    before = [getattr(record, attr).copy() for attr in ARRAYS[name]]
    for arg in args:
        if isinstance(arg, np.ndarray):
            arg[...] = 99
    for attr, held in zip(ARRAYS[name], before):
        assert np.array_equal(getattr(record, attr), held)


@pytest.mark.parametrize("name", RECORDS)
def test_a_read_only_view_of_writable_memory_is_copied(name):
    sources = []

    def broadcast(shape):
        sources.append(np.arange(1, 1 + shape[-1], dtype=complex))
        return np.broadcast_to(sources[-1], shape)

    record = getattr(hsbasis, name)(*_arguments(name, broadcast))
    held = [getattr(record, attr) for attr in ARRAYS[name]]
    for source in sources:
        source[...] = 99
    for array, source in itertools.product(held, sources):
        assert not np.shares_memory(array, source)
    assert all(99 not in array for array in held)


@pytest.mark.parametrize(
    "record, args",
    [("ChoiState", (2, np.eye(3))), ("BlochVector", (2, "custom", np.ones(3)))],
)
def test_records_check_the_shape_of_their_array(record, args):
    with pytest.raises(ValueError, match=r"for d=2 must be 4(x4)?, got \(3"):
        getattr(hsbasis, record)(*args)


@pytest.mark.parametrize("d", [-1, 1, True, 2.0, 2.5, "2", None])
@pytest.mark.parametrize("name", [name for name in RECORDS if name != "BlockStructure"])
def test_records_check_d_before_the_shape(name, d):
    args = _arguments(name, _writable)
    with pytest.raises(ValueError, match="^dimension must be an integer of at least 2"):
        getattr(hsbasis, name)(d, *args[1:])


@pytest.mark.parametrize("diagonal, d", [(np.eye(1), 1), (np.zeros((0, 0)), 0), (np.ones(()), 1)])
def test_block_structure_reads_d_off_its_diagonal_block_and_checks_it(diagonal, d):
    with pytest.raises(ValueError, match=rf"^dimension must be an integer of at least 2, got {d}$"):
        hsbasis.BlockStructure(diagonal, np.zeros((0, 0)))


@pytest.mark.parametrize("d", [np.int64(2), np.int32(2), np.uint8(2)])
@pytest.mark.parametrize("name", [name for name in RECORDS if name != "BlockStructure"])
def test_records_store_d_as_an_int(name, d):
    record = getattr(hsbasis, name)(d, *_arguments(name, _writable)[1:])
    assert type(record.d) is int and record.d == 2


def test_cached_arrays_are_read_only_with_their_owners():
    basis = hsbasis.random_basis(3, 2)
    held = [basis.bell_sum, basis.swap_sum, bases.gellmann_y_elements(3), *identities._seeded_pair(0, 3)]
    held += [named(3).elements for named in (hsbasis.standard_basis, hsbasis.weyl_basis)]
    for array in held:
        owners = [array] + ([array.base] if array.base is not None else [])
        assert not any(x.flags.writeable for x in owners)


def _rotate(basis):
    return hsbasis.rotated_basis(basis, hsbasis.random_unitary(4, 3))


@pytest.mark.parametrize(
    "module, build, attr",
    [
        (bases, _rotate, "elements"),
        (transforms, lambda b: hsbasis.change_of_basis(hsbasis.weyl_basis(2), b), "coeffs"),
        (maps, lambda b: hsbasis.superop_from_action(lambda g: g.T, b), "matrix"),
        (maps, lambda b: hsbasis.choi_state(hsbasis.superop_from_action(lambda g: g, b), b), "matrix"),
        (maps, lambda b: hsbasis.bloch_decompose(np.diag([1, 2]), b), "coeffs"),
    ],
)
def test_builders_hand_their_product_to_the_record_without_a_copy(monkeypatch, module, build, attr):
    built = []

    def spy(a, *args, **kwargs):
        out = linalg._frozen(a, *args, **kwargs)
        if kwargs.get("built"):
            built.append((a, out))
        return out

    monkeypatch.setattr(module, "_frozen", spy)
    held = getattr(build(hsbasis.gellmann_basis(2)), attr)
    assert all(frozen is product for product, frozen in built)
    assert any(held is product for product, _ in built)


def test_rotated_basis_keeps_the_stack_combine_returns(monkeypatch):
    made = []
    monkeypatch.setattr(bases, "combine", lambda c, x: made.append(linalg.combine(c, x)) or made[-1])
    assert _rotate(hsbasis.gellmann_basis(2)).elements is made[0]
