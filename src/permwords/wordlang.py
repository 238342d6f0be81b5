"""Words over {A, B, C, D}: factor tests, segments, and pair counting.

A word is a plain string over the alphabet ABCD.  A segment of a word is
a maximal factor that starts at an A and runs up to (not including) the
next A; letters before the first A belong to no segment.

Word pairs (w, z) are screened by a base test plus optional rules.  The
base test requires both words to start with A, to have equally many As,
and to be free of the factor CB.  The optional rules tie w's CAB runs to
z's segments: the i-th A of w counted from the right is matched with the
i-th segment of z counted from the left, and the number of Bs in that
segment must answer for the run of Bs that follows the matched A when a
C immediately precedes it.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from .encoder import encode
from .perm_core import Permutation, enumerate_avoiders

__all__ = [
    "PairRule",
    "AvoiderPairReport",
    "brute_count_pairs",
    "cab_run_length",
    "check_pair",
    "count_nocb_words",
    "count_segments_nocb",
    "has_cb_factor",
    "segments",
    "verify_lemma_on_avoiders",
]

ALPHABET = "ABCD"
# The z table of word length L has 2^L - 1 keys.  On a 2-core Xeon VM,
# `verify gf`'s pair work takes 0.56 s and 32 MB at n = 16, doubling per n.
DEFAULT_PAIR_CAP = 16
# Largest avoider length a lemma sweep takes (n = 10: 592k avoiders).
LEMMA_CAP = 10


class PairRule(enum.Flag):
    """Optional screening rules for word pairs.

    CAB_NEEDS_B      a CAB factor demands at least one B in the matched segment
    CABB_NEEDS_BB    a CABB factor demands at least two Bs there
    RUN_NEEDS_MATCH  a CAB^k factor demands at least k Bs there (implies both)
    """

    NONE = 0
    CAB_NEEDS_B = enum.auto()
    CABB_NEEDS_BB = enum.auto()
    RUN_NEEDS_MATCH = enum.auto()


def _require_word(v: str) -> str:
    bad = set(v) - set(ALPHABET)
    if bad:
        raise ValueError(f"not a word over ABCD: {v!r} (bad letters {sorted(bad)})")
    return v


def has_cb_factor(v: str) -> bool:
    """True when the factor CB occurs in v.

    >>> has_cb_factor("ABACDBB")
    False
    >>> has_cb_factor("ACB")
    True
    """
    return "CB" in _require_word(v)


def segments(v: str, *, warn_on_prefix: bool = False) -> list[str]:
    """Split v into its segments, dropping anything before the first A.

    >>> segments("ABBDCACDB")
    ['ABBDC', 'ACDB']
    >>> segments("BCD")
    []
    """
    _require_word(v)
    first = v.find("A")
    if first < 0:
        if v and warn_on_prefix:
            import warnings

            warnings.warn(f"word {v!r} has no A; no segments", stacklevel=2)
        return []
    if first > 0 and warn_on_prefix:
        import warnings

        warnings.warn(
            f"word {v!r} has {first} letter(s) before its first A", stacklevel=2
        )
    out = []
    start = first
    for i in range(first + 1, len(v)):
        if v[i] == "A":
            out.append(v[start:i])
            start = i
    out.append(v[start:])
    return out


def count_segments_nocb(n: int) -> int:
    """Number of CB-free segments of length n.

    A segment is an A followed by letters from {B, C, D}; forbidding CB
    leaves s_1 = 1, s_2 = 3 and s_n = 3*s_{n-1} - s_{n-2}.

    >>> [count_segments_nocb(n) for n in range(5)]
    [0, 1, 3, 8, 21]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0
    a, b = 0, 1  # s_0, s_1
    for _ in range(n - 1):
        a, b = b, 3 * b - a
    return b


def count_nocb_words(n: int) -> int:
    """Number of CB-free words of length n over ABCD.

    >>> [count_nocb_words(n) for n in range(4)]
    [1, 4, 15, 56]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    # One count per last letter; only B after C is barred.
    counts = {letter: 1 for letter in ALPHABET}
    if n == 0:
        return 1
    for _ in range(n - 1):
        total = sum(counts.values())
        counts = {
            "A": total,
            "B": total - counts["C"],
            "C": total,
            "D": total,
        }
    return sum(counts.values())


def _cab_runs(v: str) -> list[int]:
    """Per A of v, right to left: length of its B run when a C precedes it."""
    a_positions = [i for i, letter in enumerate(v) if letter == "A"]
    runs = []
    for i in reversed(a_positions):
        if i == 0 or v[i - 1] != "C":
            runs.append(0)
            continue
        run = 0
        for j in range(i + 1, len(v)):
            if v[j] != "B":
                break
            run += 1
        runs.append(run)
    return runs


def cab_run_length(w: str, i: int) -> int:
    """Bs following the i-th A from the right of w, when a C precedes that A.

    Returns 0 when no C immediately precedes the A (including when the A
    is w's first letter).

    >>> cab_run_length("ACABB", 1)
    2
    >>> cab_run_length("ACABB", 2)
    0
    >>> cab_run_length("AB", 1)
    0
    """
    runs = _cab_runs(_require_word(w))
    if not 1 <= i <= len(runs):
        raise ValueError(f"word {w!r} has {len(runs)} A(s); index {i} out of range")
    return runs[i - 1]


def _runs_compatible(runs: list[int], b_counts: list[int], rules: PairRule) -> bool:
    for run, bs in zip(runs, b_counts):
        if PairRule.RUN_NEEDS_MATCH in rules and bs < run:
            return False
        if PairRule.CAB_NEEDS_B in rules and run >= 1 and bs < 1:
            return False
        if PairRule.CABB_NEEDS_BB in rules and run >= 2 and bs < 2:
            return False
    return True


def check_pair(w: str, z: str, rules: PairRule = PairRule.NONE) -> bool:
    """Screen the pair (w, z) by the base test plus the given rules.

    >>> check_pair("A", "A")
    True
    >>> check_pair("ACAB", "AA", PairRule.CAB_NEEDS_B)
    False
    >>> check_pair("ACAB", "ABA", PairRule.CAB_NEEDS_B)
    True
    """
    _require_word(w)
    _require_word(z)
    if not w.startswith("A") or not z.startswith("A"):
        return False
    if w.count("A") != z.count("A"):
        return False
    if "CB" in w or "CB" in z:
        return False
    if rules:
        b_counts = [seg.count("B") for seg in segments(z)]
        return _runs_compatible(_cab_runs(w), b_counts, rules)
    return True


# --- pair counting ---------------------------------------------------------
#
# For counting, a word only matters through a small signature: w through
# its tuple of CAB run lengths (i-th entry for the i-th A from the right)
# and z through its tuple of per-segment B counts (left to right).  Both
# tables come from a forward DP over lengths that merges the CB-free words
# starting with A by state: the signature so far, whether the last letter
# is C (no B may follow), and whether a B now counts.  In z every B does;
# in w only the Bs right after a CA, until another letter ends the run.


@dataclass
class _SignatureTables:
    max_len: int
    # by word length, then signature tuple -> number of words
    w_sigs: list[dict[tuple[int, ...], int]] = field(default_factory=list)
    z_sigs: list[dict[tuple[int, ...], int]] = field(default_factory=list)


_TABLE_CACHE: _SignatureTables | None = None


def _extend(states: dict, every_b: bool) -> dict:
    """Append each letter to every state of the DP; every_b selects z."""
    out: dict = defaultdict(int)
    for (sig, after_c, counting), count in states.items():
        out[sig + (0,), False, every_b or after_c] += count
        if not after_c:
            grown = sig[:-1] + (sig[-1] + 1,) if counting else sig
            out[grown, False, counting] += count
        out[sig, True, every_b] += count
        out[sig, False, every_b] += count
    return out


def _build_tables(max_len: int) -> _SignatureTables:
    tables = _SignatureTables(max_len, [{}], [{}])  # no word has length 0
    # (signature left to right, last letter is C, a B now counts)
    w_states = {((0,), False, False): 1}
    z_states = {((0,), False, True): 1}
    for length in range(1, max_len + 1):
        w_tab, z_tab = {}, {}
        tables.w_sigs.append(w_tab)
        tables.z_sigs.append(z_tab)
        for (runs, _, _), count in w_states.items():
            w_tab[runs[::-1]] = w_tab.get(runs[::-1], 0) + count
        for (b_counts, _, _), count in z_states.items():
            z_tab[b_counts] = z_tab.get(b_counts, 0) + count
        if length < max_len:
            w_states, z_states = _extend(w_states, False), _extend(z_states, True)
    return tables


def _tables_up_to(max_len: int) -> _SignatureTables:
    global _TABLE_CACHE
    if _TABLE_CACHE is None or _TABLE_CACHE.max_len < max_len:
        _TABLE_CACHE = _build_tables(max_len)
    return _TABLE_CACHE


def signature_key_count(max_len: int) -> int:
    """Keys in the w and z signature tables of word lengths 1..max_len.

    Only those lengths count, however far the cached tables reach.
    """
    tables = _tables_up_to(max_len)
    return sum(map(len, tables.w_sigs[1 : max_len + 1] + tables.z_sigs[1 : max_len + 1]))


def brute_count_pairs(
    n: int, rules: PairRule = PairRule.NONE, *, cap: int = DEFAULT_PAIR_CAP
) -> int:
    """Count pairs (w, z) with |w| + |z| = n passing the base test + rules.

    Only CB-free words starting with A can occur in a pair.  They are
    counted by signature, one table per word length, with a forward DP
    that merges words by state; pairs are then combined by joining the
    w and z tables of lengths a and n - a.  The z table of length L has
    2^L - 1 keys, so the cap bounds the work; raise it deliberately.

    >>> brute_count_pairs(3, PairRule.CAB_NEEDS_B)
    6
    """
    if not 2 <= n <= cap:
        raise ValueError(f"n must be within 2..{cap} (cap), got {n}")
    tables = _tables_up_to(cap - 1)
    total = 0
    for a in range(1, n):
        b = n - a
        w_table = tables.w_sigs[a]
        z_table = tables.z_sigs[b]
        # group z signatures by A count, tracking totals for the common
        # case of an unconstrained w signature
        by_m: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        m_total: dict[int, int] = {}
        for z_key, cz in z_table.items():
            by_m.setdefault(len(z_key), []).append((z_key, cz))
            m_total[len(z_key)] = m_total.get(len(z_key), 0) + cz
        for w_key, cw in w_table.items():
            m = len(w_key)
            if m not in by_m:
                continue
            if not rules or not any(w_key):
                total += cw * m_total[m]
                continue
            runs = list(w_key)
            for z_key, cz in by_m[m]:
                if _runs_compatible(runs, list(z_key), rules):
                    total += cw * cz
    return total


def _words(length: int) -> Iterator[str]:
    """Every CB-free word of the given length that starts with A."""

    def grow(prefix: list[str]) -> Iterator[str]:
        if len(prefix) == length:
            yield "".join(prefix)
            return
        for letter in ALPHABET:
            if letter == "B" and prefix[-1] == "C":
                continue
            prefix.append(letter)
            yield from grow(prefix)
            prefix.pop()

    if length >= 1:
        yield from grow(["A"])


def _all_pairs(n: int) -> Iterator[tuple[str, str]]:
    """Every (w, z) with |w|+|z| = n, both CB-free and starting with A."""
    for a in range(1, n):
        for w in _words(a):
            for z in _words(n - a):
                yield w, z


@dataclass(frozen=True)
class AvoiderPairReport:
    """Outcome of screening the encoded pairs of all 1324-avoiders."""

    n: int
    rule: str
    checked: int
    violations: tuple[tuple[str, str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_LEMMA_RULES = {
    "cab": PairRule.CAB_NEEDS_B,
    "cabb": PairRule.CAB_NEEDS_B | PairRule.CABB_NEEDS_BB,
    "cab_k": PairRule.RUN_NEEDS_MATCH,
}


def verify_lemma_on_avoiders(n: int, which: str = "cab_k") -> AvoiderPairReport:
    """Check one pair rule against every encoded 1324-avoider of length n.

    `which` is "cab", "cabb", or "cab_k".  Encoding uses rule4prime mode.
    """
    if which not in _LEMMA_RULES:
        raise ValueError(f"unknown rule set {which!r}; pick from {sorted(_LEMMA_RULES)}")
    if not 0 <= n <= LEMMA_CAP:
        raise ValueError(f"n must be within 0..{LEMMA_CAP}; larger sweeps take too long")
    rules = _LEMMA_RULES[which]
    if n == 0:
        # The empty permutation encodes to empty words, outside the pair
        # language (every member starts with A); nothing to check.
        return AvoiderPairReport(0, which, 0, ())
    checked = 0
    violations = []
    for p in enumerate_avoiders(n, (1, 3, 2, 4)):
        w, z = encode(p)
        checked += 1
        if not check_pair(w, z, rules):
            violations.append((str(p), w, z))
    return AvoiderPairReport(n, which, checked, tuple(violations))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
