from __future__ import annotations

import doctest
from pathlib import Path

import pytest

import permwords.encoder
import permwords.perm_core
import permwords.roots
import permwords.series
import permwords.wordlang

MODULES = (
    permwords.perm_core,
    permwords.encoder,
    permwords.wordlang,
    permwords.series,
    permwords.roots,
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    results = doctest.testfile(str(readme), module_relative=False)
    assert results.attempted > 0 and results.failed == 0
