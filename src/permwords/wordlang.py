"""Words over {A, B, C, D}: word counts, pair screening, and pair counting.

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

Pairs are counted through that matching, without listing a word.  A pair
is a sequence of blocks: block i joins the i-th segment of w from the
right with the i-th segment of z from the left.  A w segment counts
through its run (the Bs right after its A, a CAB run when the segment to
its left ends in C) and whether it ends in C; a z segment through its B
count.  One bit passes from block to block: whether the next w segment,
the one to the left, must end in C.
"""

from __future__ import annotations

import enum
from math import inf
from operator import add, mul
from typing import NamedTuple

from .encoder import encode
from .perm_core import enumerate_avoiders

__all__ = [
    "PairRule",
    "AvoiderPairReport",
    "brute_count_pairs",
    "check_pair",
    "count_nocb_words",
    "count_segments_nocb",
    "verify_lemma_on_avoiders",
]

ALPHABET = "ABCD"
_NOT_LETTERS = str.maketrans("", "", ALPHABET)  # translate() keeps only the rest
# Largest total length a pair count takes, and the top of `--cap-pairs`.  A
# count of length n takes about n^3 steps and gives every shorter length too.
# On a 2-core Xeon VM `verify gf`'s three pair counts take 6 ms at n = 32 (9 ms
# at 40, 14 ms at 48), and the whole suite 0.13-0.18 s and 15.6-15.8 MB.
PAIR_CAP = 32
# Largest avoider length a lemma sweep takes (n = 10: 592k avoiders).  On a
# 2-core Xeon VM, fresh processes of `verify --suite all --n 10` take 15-21 s
# (median 17.4 s) and 16.0 MB, of `--suite injectivity --n 10` 8.5-17 s
# (median 10.9 s), as the host's speed moves.  n = 11 (3.8M more) took 120 s
# when last timed (74 s injectivity, 46 s lemmas), well over a minute.
LEMMA_CAP = 10


class PairRule(enum.Flag):
    """Screening rules for word pairs, each refining the one before.

    CAB_NEEDS_B      a CAB factor demands at least one B in the matched segment
    CABB_NEEDS_BB    and a CABB factor at least two Bs there
    RUN_NEEDS_MATCH  and a CAB^k factor at least k Bs there

    The rule sets are nested: each flag holds the bits of the one before
    (values 1, 3, 7).  Every pair the run rule admits passes the CABB rule,
    and every pair the CABB rule admits passes the CAB rule; hence
    S_n <= t_2n <= k_2n <= h_2n.
    """

    NONE = 0
    CAB_NEEDS_B = 1
    CABB_NEEDS_BB = 3
    RUN_NEEDS_MATCH = 7

    @classmethod
    def _missing_(cls, value: object) -> None:
        return None  # no pseudo-members: PairRule(v) raises unless v is 0, 1, 3 or 7


def _require_word(v: str) -> None:
    if v.translate(_NOT_LETTERS):
        bad = set(v) - set(ALPHABET)
        raise ValueError(f"not a word over ABCD: {v!r} (bad letters {sorted(bad)})")


def count_segments_nocb(n: int) -> list[int]:
    """Numbers of CB-free segments of lengths 0..n.

    A segment is an A followed by letters from {B, C, D}.  Each entry sums
    the pair-counting DP's segment layer (`_segment_classes`) over its
    classes, so comparing the row with SEGMENT_SERIES checks that layer.

    >>> count_segments_nocb(4)
    [0, 1, 3, 8, 21]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return [sum(map(sum, classes)) for classes in _segment_classes(n, False, 0)]


def count_nocb_words(n: int) -> list[int]:
    """Numbers of CB-free words over ABCD of lengths 0..n.

    Two counts suffice: the words that end in C, which take any letter but
    B next, and the rest, which take any letter.

    >>> count_nocb_words(5)
    [1, 4, 15, 56, 209, 780]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = [(0, 1)]  # (words ending in C, the rest): the empty word
    for _ in range(n):
        ends_c, rest = counts[-1]
        counts.append((ends_c + rest, 2 * ends_c + 3 * rest))
    return list(map(sum, counts))


def _cab_runs(v: str) -> list[int]:
    """Per A of v, right to left: length of its B run when a C precedes it."""
    pieces = v.split("A")  # the piece before and the piece after each A
    runs = [
        len(after) - len(after.lstrip("B")) if before.endswith("C") else 0
        for before, after in zip(pieces, pieces[1:])
    ]
    runs.reverse()
    return runs


def _b_counts(z: str) -> list[int]:
    """Bs per segment of z, left to right."""
    return [seg.count("B") for seg in z.split("A")[1:]]


_NEED_BY_TOP_BIT = (0, 1, 2, inf)  # need, by the rules' highest bit


def _need(rules: PairRule) -> float:
    """The need of `rules`: a CAB run of k Bs asks min(k, need) Bs of its matched segment."""
    if not isinstance(rules, PairRule):
        raise TypeError(f"rules must be a PairRule, got {rules!r}")
    return _NEED_BY_TOP_BIT[rules._value_.bit_length()]  # not .value, a slower property


def _shortfall(w: str, z: str) -> float:
    """The fewest Bs of a z segment that falls below its matched CAB run, or inf.

    A rule set with need k admits the pair exactly when this is at least k.
    """
    return min((bs for run, bs in zip(_cab_runs(w), _b_counts(z)) if bs < run), default=inf)


def check_pair(w: str, z: str, rules: PairRule = PairRule.NONE) -> bool:
    """Screen the pair (w, z) by the base test plus the given rules.

    The rules hold when `_shortfall(w, z)`, the fewest Bs of a segment
    below its run, is at least the rule set's need (`_need`).

    >>> check_pair("A", "A")
    True
    >>> check_pair("ACAB", "AA", PairRule.CAB_NEEDS_B)
    False
    >>> check_pair("ACAB", "ABA", PairRule.CAB_NEEDS_B)
    True
    """
    need = _need(rules)
    _require_word(w)
    _require_word(z)
    if not w.startswith("A") or not z.startswith("A"):
        return False
    if w.count("A") != z.count("A"):
        return False
    if "CB" in w or "CB" in z:
        return False
    return not need or _shortfall(w, z) >= need


# --- pair counting ---------------------------------------------------------


def _segment_classes(
    max_len: int, every_b: bool, cap: float
) -> list[tuple[list[int], list[int]]]:
    """CB-free segments of lengths 0..max_len, counted by key and by end letter.

    Entry L holds two lists indexed by key: the segments of length L that
    do not end in C, then those that do.  The key is the number of Bs right
    after the A, or of every B when every_b is set, capped at cap; keys run
    up to min(cap, max_len).
    """
    top = min(cap, max_len)
    run = [1] + [0] * top  # "A": last letter A or B, and a B now counts
    after_c = [0] * (top + 1)  # last letter C
    rest = [0] * (top + 1)  # last letter B or D, and a B no longer counts
    by_length = [([0] * (top + 1), [0] * (top + 1))]
    for _ in range(max_len):
        by_length.append((list(map(add, run, rest)), after_c))
        total = [r + c + d for r, c, d in zip(run, after_c, rest)]
        shifted = [0, *run[:-1]]  # a counted B raises the key
        shifted[-1] += run[-1]  # but not past the cap
        if every_b:
            run = list(map(add, shifted, total))  # a D: the next B counts too
        else:
            run, rest = shifted, list(map(add, total, rest))
        after_c = total
    return by_length


def _add_shifted(row: list[int], shift: int, factor: int, col: list[int]) -> None:
    """row[shift + b] += factor * col[b] for each b >= 1 that row reaches."""
    for i, v in enumerate(col[1 : len(row) - shift], start=shift + 1):
        row[i] += factor * v


def brute_count_pairs(n: int, rules: PairRule = PairRule.NONE) -> list[int]:
    """Numbers of pairs (w, z) passing the base test + rules, by |w| + |z| = 0..n.

    Exhaustive, but not word by word: a block DP over segment pairs (see
    the module docstring).  A block of a w segment with run j and a z
    segment fits when the z segment holds at least min(j, need) Bs, or
    any number when the w segment to the left does not end in C.  The
    leftmost w segment has no left neighbour, so its block always fits.
    One DP sized for n counts every shorter total too (0 at 0 and 1: a
    pair word starts with A).  The benchmark traces it by this name.

    >>> brute_count_pairs(5, PairRule.CAB_NEEDS_B)
    [0, 0, 1, 6, 26, 102]
    """
    if not 2 <= n <= PAIR_CAP:
        raise ValueError(f"n must be within 2..{PAIR_CAP}, got {n}")
    need = _need(rules)
    # at_least[k][b]: z segments of length b with at least k Bs, k capped at
    # need, as suffix sums over the B count; the last row, past every key, is 0
    by_bs = [list(map(add, *classes)) for classes in _segment_classes(n - 1, True, need)]
    at_least = [[0] * n for _ in range(len(by_bs[0]) + 1)]
    for b, counts in enumerate(by_bs):
        for k in range(len(counts) - 1, -1, -1):
            at_least[k][b] = at_least[k + 1][b] + counts[k]
    # block[ends_c][left_c][L]: blocks of total length L whose w segment ends
    # in C iff ends_c, and whose left neighbour ends in C iff left_c
    block = [[[0] * (n + 1) for _ in range(2)] for _ in range(2)]
    for a, classes in enumerate(_segment_classes(n - 1, False, need)):
        for (free, fits), counts in zip(block, classes):
            _add_shifted(free, a, sum(counts), at_least[0])
            for run, count in enumerate(counts):
                if count:
                    _add_shifted(fits, a, count, at_least[run])
    # reach[c][k]: block sequences of total length k after which the next w
    # segment must end in C iff c; before the first block either may.
    reach = [[1] + [0] * n for _ in range(2)]
    for k in range(2, n + 1):
        for c in (0, 1):
            reach[c][k] = sum(
                sum(map(mul, reach[e][k - 2 :: -1], block[e][c][2 : k + 1])) for e in (0, 1)
            )
    return [0, *reach[0][1:]]


class AvoiderPairReport(NamedTuple):
    """Outcome of screening the encoded pairs of all 1324-avoiders.

    violations maps each rule set ("cab", "cabb", "cab_k") to the
    (p, w, z) that break it.
    """

    n: int
    checked: int
    violations: dict[str, tuple[tuple[str, str, str], ...]]

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())


_LEMMA_RULES = {
    "cab": PairRule.CAB_NEEDS_B,
    "cabb": PairRule.CABB_NEEDS_BB,
    "cab_k": PairRule.RUN_NEEDS_MATCH,
}


def verify_lemma_on_avoiders(n: int) -> AvoiderPairReport:
    """Check every rule set against every encoded 1324-avoider of length n.

    Each avoider is encoded once, in rule4prime mode, and its pair passes
    the base test of `check_pair` once; a pair that fails it breaks every
    rule set.  When w holds a CAB factor, `check_pair`'s screen,
    `_shortfall`, then finds the fewest Bs of a segment that falls below
    its run, and a rule set fails when that is below its need, so "cab",
    "cabb" and "cab_k" share one pass.  Without one every run is 0 and all
    three pass.

    >>> verify_lemma_on_avoiders(4).violations
    {'cab': (), 'cabb': (), 'cab_k': ()}
    """
    if not 0 <= n <= LEMMA_CAP:
        raise ValueError(f"n must be within 0..{LEMMA_CAP}; larger sweeps take too long")
    violations: dict[str, list[tuple[str, str, str]]] = {r: [] for r in _LEMMA_RULES}
    needs = {r: _need(rules) for r, rules in _LEMMA_RULES.items()}
    checked = 0
    # The empty permutation encodes to empty words, outside the pair
    # language (every member starts with A); nothing to check at n = 0.
    for p in enumerate_avoiders(n, (1, 3, 2, 4)) if n else ():
        w, z = encode(p)
        checked += 1
        if not check_pair(w, z, PairRule.NONE):
            for found in violations.values():
                found.append((str(p), w, z))
            continue
        if "CAB" not in w:
            continue  # every CAB run is 0, so no segment falls below its run
        short = _shortfall(w, z)
        for name, need in needs.items():
            if short < need:
                violations[name].append((str(p), w, z))
    return AvoiderPairReport(n, checked, {r: tuple(v) for r, v in violations.items()})
