"""Acceptance suite.

One test per acceptance criterion, in order.  Each prints a single
PASS line on success (run with -v or -s to see them); a failed assert
marks the criterion FAIL.
"""

from __future__ import annotations

import itertools
import math
import time

from permwords import (
    NOCB_WORD_SERIES,
    PAIR_SERIES_CAB,
    PAIR_SERIES_CABB,
    PAIR_SERIES_CAB_RUN,
    PairRule,
    brute_count_pairs,
    certified_smallest_root,
    check_pair,
    count_avoiders,
    expand,
    growth_bound,
    verify_functional_equations,
)
from permwords.wordlang import PAIR_CAP

PATTERN = (1, 3, 2, 4)
# OEIS A061552, n = 0..18.
COUNTS = (
    1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112, 25431452,
    173453058, 1209639642, 8604450011, 62300851632, 458374397312, 3421888118907,
)


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def brute_contains_1324(entries) -> bool:
    for a, b, c, d in itertools.combinations(entries, 4):
        if a < c < b < d:
            return True
    return False


def test_criterion_01_avoider_counts():
    from permwords.perm_core import _completions_generic

    t0 = time.perf_counter()
    for n in range(9):
        naive = sum(
            1
            for p in itertools.permutations(range(1, n + 1))
            if not brute_contains_1324(p)
        )
        assert count_avoiders(n, PATTERN) == naive == COUNTS[n]
    fast = count_avoiders(10, PATTERN)
    generic = _completions_generic(PATTERN, 10, ())
    elapsed = time.perf_counter() - t0
    assert fast == generic == 591950
    assert elapsed < 60, f"counting took {elapsed:.1f}s"
    _report("avoider counts, two engines vs brute filter")


def test_criterion_02_encoding_soundness(marked_by_mode):
    total = 0
    for n in range(1, 10):
        for m in marked_by_mode["rule4prime"][n]:
            w, z = m.word_pair()
            assert check_pair(w, z), (str(m.perm), w, z)
            total += 1
    assert total == sum(COUNTS[1:10])
    _report(f"encoded pairs lie in the base language ({total} avoiders)")


def test_criterion_03_injectivity(marked_by_mode):
    # A set of every pair, kept on purpose: it is the independent oracle of
    # encoder.decode, whose round trip is how `verify` checks injectivity.
    for mode in ("plain", "rule4prime"):
        pairs = [
            m.word_pair() for n in range(1, 10) for m in marked_by_mode[mode][n]
        ]
        assert len(set(pairs)) == len(pairs), mode
    _report("encoding injective on avoiders up to length 9, both modes")


def test_criterion_04_pair_rules_hold(marked_by_mode):
    for n in range(1, 10):
        for m in marked_by_mode["rule4prime"][n]:
            w, z = m.word_pair()
            assert check_pair(w, z, PairRule.CAB_NEEDS_B), (w, z)
            assert check_pair(w, z, PairRule.RUN_NEEDS_MATCH), (w, z)
    _report("CAB and run rules hold on every encoded avoider")


def test_criterion_05_series_match_exhaustive_counts():
    t0 = time.perf_counter()
    cab = expand(PAIR_SERIES_CAB, PAIR_CAP)
    cabb = expand(PAIR_SERIES_CABB, PAIR_CAP)
    run = expand(PAIR_SERIES_CAB_RUN, PAIR_CAP)
    assert cab[2:5] == [1, 6, 26]
    rules = {
        PairRule.CAB_NEEDS_B: cab,
        PairRule.CAB_NEEDS_B | PairRule.CABB_NEEDS_BB: cabb,
        PairRule.RUN_NEEDS_MATCH: run,
    }
    for rule, coeffs in rules.items():
        for n in range(2, PAIR_CAP + 1):
            assert coeffs[n] == brute_count_pairs(n, rule), (rule, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"series cross-check took {elapsed:.1f}s"
    _report(f"series coefficients equal exhaustive pair counts, n <= {PAIR_CAP}")


def test_criterion_06_functional_equations():
    checks = {c.name: c for c in verify_functional_equations()}
    assert checks["pairs-cab"].status == "exact"
    assert checks["pairs-cab"].residual_num == ()
    assert checks["pairs-cabb"].status == "exact"
    assert checks["pairs-cabb"].residual_num == ()
    # The run-rule equation cannot be transcribed as displayed; criterion 5
    # pins its series against exhaustive counts for 2 <= n <= PAIR_CAP instead.
    assert checks["pairs-cab-run"].status == "unverifiable-as-printed"
    _report("functional equations verified (two exact, one by oracle)")


def test_criterion_07_growth_bounds():
    alpha = certified_smallest_root(PAIR_SERIES_CAB.den)
    assert alpha.unique_smallest
    assert abs(alpha.value - 0.2695867676) <= 1e-9
    assert abs(1 / alpha.value - 3.709381) <= 1e-6

    assert abs(growth_bound(NOCB_WORD_SERIES) - (7 + 4 * math.sqrt(3))) <= 1e-9
    assert abs(growth_bound(PAIR_SERIES_CAB) - 13.7595074) <= 1e-6
    assert abs(growth_bound(PAIR_SERIES_CABB) - 13.73977) <= 1e-4
    assert abs(growth_bound(PAIR_SERIES_CAB_RUN) - 13.73718) <= 1e-4

    for gf in (NOCB_WORD_SERIES, PAIR_SERIES_CABB, PAIR_SERIES_CAB_RUN):
        assert certified_smallest_root(gf.den).unique_smallest
    _report("growth bounds reproduce the pinned decimal values")


def test_criterion_08_counts_within_pair_counts():
    top = 2 * (len(COUNTS) - 1)
    cab = expand(PAIR_SERIES_CAB, top)
    cabb = expand(PAIR_SERIES_CABB, top)
    run = expand(PAIR_SERIES_CAB_RUN, top)
    for n in range(1, len(COUNTS)):
        s_n = COUNTS[n]
        assert count_avoiders(n, PATTERN) == s_n
        assert s_n <= run[2 * n] <= cabb[2 * n] <= cab[2 * n], n
    _report("avoider counts bounded by pair counts at every length")
