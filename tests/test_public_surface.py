from __future__ import annotations

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import permwords
from permwords import (
    SEGMENT_SERIES,
    IntPolynomial,
    MarkedPermutation,
    Permutation,
    RationalFunction,
    RootEstimate,
    mark,
)

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


def test_cli_import_loads_no_dataclasses():
    # `dataclasses` and `inspect`, which it imports, took 7-12 ms and 1 MB
    # of every command's start-up; nothing in the package needs them.
    # `cmath` serves only `roots.all_roots`, the tests' float oracle.
    src = Path(permwords.__file__).resolve().parent.parent
    code = (
        "import sys, permwords.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'cmath'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_builds_its_parser_once_per_process():
    # Each build took 0.6-1.3 ms, and the benchmark's worker runs two
    # commands per process.  Importing builds none, so start-up stays as it is.
    src = Path(permwords.__file__).resolve().parent.parent
    code = (
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import permwords.cli\n"
        "print(built.count('permwords'))\n"
        "jobs = ('count --n 3', 'verify --suite roots')\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [permwords.cli.main(job.split()) for job in jobs]\n"
        "print(codes, built.count('permwords'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["0", "[0, 0] 1", ""]


P = Permutation((3, 6, 1, 2, 7, 4, 5))

# (one value, an equal one built another way, its repr, its field names)
VALUES = {
    "Permutation": (
        P,
        Permutation.parse("3612745"),
        "Permutation(entries=(3, 6, 1, 2, 7, 4, 5))",
        ("entries",),
    ),
    "MarkedPermutation": (
        MarkedPermutation(P, "ABABDCD"),
        mark(P),
        "MarkedPermutation(perm=Permutation(entries=(3, 6, 1, 2, 7, 4, 5)), letters='ABABDCD')",
        ("perm", "letters", "z"),
    ),
    "IntPolynomial": (
        IntPolynomial((1, -3, 1)),
        IntPolynomial((1, -3, 1, 0, 0)),
        "IntPolynomial(coeffs=(1, -3, 1))",
        ("coeffs",),
    ),
    "RationalFunction": (
        SEGMENT_SERIES,
        RationalFunction(IntPolynomial((0, 2)), IntPolynomial((2, -6, 2))),
        "RationalFunction(num=IntPolynomial(coeffs=(0, 1)), den=IntPolynomial(coeffs=(1, -3, 1)))",
        ("num", "den"),
    ),
    "RootEstimate": (
        RootEstimate(0.5, 1e-3, modulus_gap=2.0),
        RootEstimate(value=0.5, radius=1e-3, modulus_gap=2.0),
        "RootEstimate(value=0.5, radius=0.001, modulus_gap=2.0)",
        ("value", "radius", "modulus_gap"),
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueClasses:
    """The value classes behave as the frozen dataclasses they replaced."""

    def test_equality_and_hash(self, name):
        value, same, _, _ = VALUES[name]
        assert value == same and not value != same
        if name == "RationalFunction":
            with pytest.raises(TypeError):
                hash(value)  # cross-multiplying equality has no hash to agree with
        else:
            assert hash(value) == hash(same)

    def test_equality_holds_only_within_a_class(self, name):
        value, _, _, fields = VALUES[name]
        for other_name, (other, _, _, _) in VALUES.items():
            if other_name != name:
                assert value != other and not value == other
        # Not even a tuple of its own fields equals it.
        assert value != tuple(getattr(value, f) for f in fields)

    def test_repr(self, name):
        value, _, text, _ = VALUES[name]
        assert repr(value) == text

    def test_fields_are_frozen(self, name):
        value, _, _, fields = VALUES[name]
        for field in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == VALUES[name][2]

    @pytest.mark.parametrize(
        "clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_round_trip(self, name, clone):
        value, _, _, fields = VALUES[name]
        twin = clone(value)
        assert type(twin) is type(value) and twin == value
        assert [getattr(twin, f) for f in fields] == [getattr(value, f) for f in fields]
        with pytest.raises(AttributeError):
            setattr(twin, fields[0], None)


def test_equal_fields_in_two_classes_differ():
    assert Permutation((1, 2)) != IntPolynomial((1, 2))
    assert Permutation((1, 2)).__eq__(IntPolynomial((1, 2))) is NotImplemented


def test_marked_equality_ignores_z():
    m = mark(P)
    twin = copy.copy(m)
    object.__setattr__(twin, "z", "DDDDDDD")
    assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
    assert twin != mark(P, mode="plain")
