"""Tests for the public name table of the package and the README's module table."""

import pkgutil
import re
from pathlib import Path

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
