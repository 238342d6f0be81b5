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


def _private_definitions(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, statement) for each private name a module's top level defines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(n, node) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def _references(node: ast.AST) -> set[str]:
    """Names a node reads, as a bare name, an attribute or an import."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(a.name for a in sub.names)
    return refs


def test_every_private_name_is_used_by_the_package():
    # A private helper that only tests call is test code living in the
    # package: it belongs in the tests.  Each private top-level name must be
    # read somewhere in the package outside the statement that defines it.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(permwords.__file__).parent.glob("*.py"))
    }
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            used = any(
                name in _references(node)
                for other in trees.values()
                for node in other.body
                if node is not definition
            )
            if not used:
                unused.append(f"{module}:{name}")
    assert unused == []
