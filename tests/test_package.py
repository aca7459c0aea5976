"""Tests for the public name table of the package."""

import hsbasis
from hsbasis import bases, identities, linalg, maps, operators, report, transforms

MODULES = (bases, identities, linalg, maps, operators, report, transforms)


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
