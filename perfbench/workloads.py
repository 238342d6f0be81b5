"""Workloads of the permwords benchmark and the references their outputs must match.

A workload is a list of jobs.  A job is one `permwords` command line, run
in-process through `permwords.cli.main` with `--format json`, plus the
values its JSON report must hold.  Jobs are plain JSON data, so the
worker process receives them on stdin and a test can tamper with a
reference to see the failure counted.

An expectation names one value in the report by a path (dict keys, list
indices, or a one-item dict that selects the list row with that field
value), the value wanted, and optionally a regex whose first group is
the value (for numbers inside a check's `detail` text) and a tolerance.
"""

from __future__ import annotations

import json
import re
from typing import Any

# Avoider counts S_n of 1324 for n = 0..10: OEIS A061552, the same values
# as COUNTS in tests/test_acceptance.py.  4231 is the reverse-complement of
# 1324, so its avoiders are counted by the same sequence.
A061552 = (1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950)

# Growth bounds: the paper's printed decimals (bound-baseline is
# 7 + 4*sqrt(3)) with the tolerances of permwords.cli.BOUND_ROWS as of the
# commit that added this benchmark.  Copied, not imported, so that a change
# to the program's table cannot move the reference.  bound-cab's certified
# value is 13.75950648, 9.2e-7 under a 1e-6 tolerance; do not retune.
BOUND_ROWS = {
    "bound-baseline": (13.928203230, 1e-9),
    "bound-cab": (13.7595074, 1e-6),
    "bound-cabb": (13.73977, 1e-4),
    "bound-cab-run": (13.73718, 1e-4),
}

GF_CHECKS = (
    "pairs-cab-identity",
    "pairs-cabb-identity",
    "pairs-cab-run-identity",
    "pairs-cab-vs-exhaustive",
    "pairs-cabb-vs-exhaustive",
    "pairs-cab-run-vs-exhaustive",
    "segment-series-vs-count",
    "nocb-series-vs-count",
)

# Job sizes.  "full" is what the benchmark measures; "tiny" runs the same
# code path in about a second, for the smoke test.  A full repetition
# takes 1-3 s on a 2-core Xeon VM, so that a run holds a dozen or more
# and reports their median (speed.py says why one long repetition is not
# enough).  One size up (reproduce --n 10, count --n 9, --cap-pairs 13,
# verify --n 9) takes 4-20 s per job.
SIZES = {
    "full": {"chain_n": 9, "generic_n": 8, "sweep_n": 8, "cap_pairs": 12},
    "tiny": {"chain_n": 5, "generic_n": 5, "sweep_n": 5, "cap_pairs": 8},
}

# Why each workload exists, and which layers it exercises or bypasses.
WORKLOADS = {
    "chain": "reproduce --n 9 and count --pattern 4231 --n 8: perm_core "
    "counting, the 1324 engine and the generic one as its oracle; encoder "
    "and signature tables bypassed",
    "sweep": "verify injectivity and lemmas at --n 8: enumerates, encodes and "
    "screens 19,203 avoiders; perm_core enumeration, encoder, "
    "wordlang.check_pair and the CLI's pair set; no counting or tables",
    "tables": "verify gf --cap-pairs 12 on cold signature tables, then verify "
    "roots: wordlang pair counting, series and roots; perm_core and "
    "encoder bypassed",
}


def _want(label: str, path: list, want: Any, **extra: Any) -> dict[str, Any]:
    return {"label": label, "path": path, "want": want, **extra}


def _ok() -> dict[str, Any]:
    return _want("report ok", ["ok"], True)


def _passed(*names: str) -> list[dict[str, Any]]:
    return [_want(f"{name} passed", ["checks", {"name": name}, "passed"], True) for name in names]


def _job(*argv: str, expect: list[dict[str, Any]]) -> dict[str, Any]:
    return {"argv": [*argv, "--format", "json"], "expect": expect}


def jobs(workload: str, size: str = "full") -> list[dict[str, Any]]:
    """The jobs of one workload at one size, each with its expectations."""
    s = SIZES[size]
    if workload == "chain":
        n, g = s["chain_n"], s["generic_n"]
        reproduce = [_ok(), *_passed(*BOUND_ROWS, "avoiders-within-pair-counts")]
        for name, (ref, tol) in BOUND_ROWS.items():
            path = ["tables", "bounds", {"name": name}, "computed"]
            reproduce.append(_want(f"{name} value", path, ref, tol=tol))
        for k in range(1, n + 1):
            row = ["tables", "chain", {"n": k}]
            reproduce.append(_want(f"S_{k} of 1324", [*row, "avoiders"], A061552[k]))
            reproduce.append(_want(f"chain holds at n={k}", [*row, "chain_holds"], True))
        count = [_ok()]
        for k in range(g + 1):
            path = ["tables", "avoider-counts", {"n": k}, "avoiders"]
            count.append(_want(f"S_{k} of 4231", path, A061552[k]))
        return [
            _job("reproduce", "--n", str(n), expect=reproduce),
            _job("count", "--pattern", "4231", "--n", str(g), expect=count),
        ]
    if workload == "tables":
        gf = [_ok(), *_passed(*GF_CHECKS)]
        roots = [_ok(), *_passed(*BOUND_ROWS, "alpha-digits", "beta-digits")]
        for name, (ref, tol) in BOUND_ROWS.items():
            path = ["checks", {"name": name}, "detail"]
            roots.append(_want(f"{name} value", path, ref, tol=tol, pattern=r"^computed (\S+),"))
        return [
            _job("verify", "--suite", "gf", "--cap-pairs", str(s["cap_pairs"]), expect=gf),
            _job("verify", "--suite", "roots", expect=roots),
        ]
    if workload == "sweep":
        n = s["sweep_n"]
        total = sum(A061552[1 : n + 1])
        injectivity = [_ok(), *_passed("injectivity-plain", "injectivity-rule4prime")]
        for mode in ("plain", "rule4prime"):
            path = ["checks", {"name": f"injectivity-{mode}"}, "detail"]
            injectivity.append(_want(f"{mode} total", path, total, pattern=r"^(\d+) avoiders"))
        lemmas = [_ok(), *_passed("avoider-pairs-cab", "avoider-pairs-cab-k")]
        for rule in ("cab", "cab-k"):
            path = ["checks", {"name": f"avoider-pairs-{rule}"}, "detail"]
            lemmas.append(_want(f"{rule} total", path, total, pattern=r"^(\d+) avoiders"))
            lemmas.append(_want(f"{rule} violations", path, 0, pattern=r", (\d+) violations$"))
        return [
            _job("verify", "--suite", "injectivity", "--n", str(n), expect=injectivity),
            _job("verify", "--suite", "lemmas", "--n", str(n), expect=lemmas),
        ]
    raise ValueError(f"unknown workload {workload!r}; pick from {sorted(WORKLOADS)}")


def _resolve(doc: Any, path: list) -> Any:
    node = doc
    for step in path:
        if isinstance(step, dict):
            ((key, value),) = step.items()
            node = next(row for row in node if row.get(key) == value)
        else:
            node = node[step]
    return node


def check_value(expect: dict[str, Any], doc: Any) -> str | None:
    """None when the report holds the expected value, else what went wrong."""
    try:
        actual = _resolve(doc, expect["path"])
        if "pattern" in expect:
            match = re.search(expect["pattern"], actual)
            actual = (float if "tol" in expect else int)(match.group(1))
    except (KeyError, IndexError, TypeError, AttributeError, StopIteration, ValueError):
        return f"{expect['label']}: missing"
    want = expect["want"]
    if "tol" in expect:
        good = type(actual) in (int, float) and abs(actual - want) <= expect["tol"]
    else:
        good = type(actual) is type(want) and actual == want
    return None if good else f"{expect['label']}: got {actual!r}, want {want!r}"


def check_job(job: dict[str, Any], exit_code: Any, stdout: str) -> list[str]:
    """Problems with one job's output, one per failed value (empty when all hold).

    A nonzero exit or an unparsable report fails every value of the job.
    """
    expect = job["expect"]
    if exit_code != 0:
        return [f"{e['label']}: exit code {exit_code!r}" for e in expect]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"{e['label']}: report is not JSON" for e in expect]
    return [p for p in (check_value(e, doc) for e in expect) if p is not None]
