from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import permwords

# The package root's names, pinned so that any growth of the public
# surface shows up as a diff here.
PUBLIC = [
    "IntPolynomial",
    "MarkedPermutation",
    "NOCB_WORD_SERIES",
    "PAIR_SERIES_CAB",
    "PAIR_SERIES_CABB",
    "PAIR_SERIES_CAB_RUN",
    "PairRule",
    "Permutation",
    "RationalFunction",
    "RootEstimate",
    "SEGMENT_SERIES",
    "WordPair",
    "brute_count_pairs",
    "certified_smallest_root",
    "check_pair",
    "contains",
    "count_avoiders",
    "count_nocb_words",
    "count_segments_nocb",
    "decode",
    "encode",
    "enumerate_avoiders",
    "expand",
    "growth_bound",
    "mark",
    "refine_real_root",
    "rf_equal",
    "verify_functional_equations",
    "verify_lemma_on_avoiders",
]

MODULES = ("permwords", "encoder", "perm_core", "roots", "series", "wordlang")


def test_package_root_names_are_pinned():
    assert permwords.__all__ == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name if name == "permwords" else f"permwords.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize(
    "path", sorted(Path(permwords.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    assert sorted(imported - used - exported) == []
