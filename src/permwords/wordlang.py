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
from collections import defaultdict
from dataclasses import dataclass
from math import inf
from typing import Sequence

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
# count of length n takes about n^3 steps.  On a 2-core Xeon VM `verify gf`'s
# pair work takes 0.11-0.15 s at n = 32 (0.3 s at 40, 0.5-0.7 s at 48), and the
# whole suite 0.2-0.4 s and 17 MB.
PAIR_CAP = 32
# Largest avoider length a lemma sweep takes (n = 10: 592k avoiders).  On a
# 2-core Xeon VM `verify --suite all --n 10` takes 19-21 s and 17.7 MB; n = 11
# (3.8M more) takes 126 s, 40 s of it in the lemmas, well over a minute.
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


# Bs a CAB run asks of its matched segment, by the rules' highest bit: a
# run of k Bs needs min(k, need) of them.
_NEED_BY_TOP_BIT = (0, 1, 2, inf)


def _runs_compatible(runs: Sequence[int], b_counts: Sequence[int], rules: PairRule) -> bool:
    need = _NEED_BY_TOP_BIT[rules.value.bit_length()]
    for run, bs in zip(runs, b_counts):
        if bs < run and bs < need:
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
    return not rules or _runs_compatible(_cab_runs(w), _b_counts(z), rules)


# --- pair counting ---------------------------------------------------------


def _segment_classes(
    max_len: int, every_b: bool, cap: float
) -> list[dict[tuple[int, bool], int]]:
    """CB-free segments of lengths 0..max_len, counted by (key, ends in C).

    The key is the number of Bs right after the A, or of every B when
    every_b is set, capped at cap.
    """
    by_length: list[dict[tuple[int, bool], int]] = [{}]
    states = {(0, False, True): 1}  # "A": (key, last letter is C, a B now counts)
    for _ in range(max_len):
        classes: dict[tuple[int, bool], int] = defaultdict(int)
        grown: dict[tuple[int, bool, bool], int] = defaultdict(int)
        for (key, after_c, counting), count in states.items():
            classes[key, after_c] += count
            if not after_c:
                grown[min(key + counting, cap), False, counting] += count
            grown[key, True, every_b] += count
            grown[key, False, every_b] += count
        by_length.append(classes)
        states = grown
    return by_length


def brute_count_pairs(n: int, rules: PairRule = PairRule.NONE) -> int:
    """Count pairs (w, z) with |w| + |z| = n passing the base test + rules.

    Exhaustive, but not word by word: a block DP over segment pairs (see
    the module docstring).  A block of a w segment with run j and a z
    segment fits when the z segment holds at least min(j, need) Bs, or
    any number when the w segment to the left does not end in C.  The
    leftmost w segment has no left neighbour, so its block always fits.
    The benchmark traces this function by its name, so the name stays.

    >>> brute_count_pairs(3, PairRule.CAB_NEEDS_B)
    6
    """
    if not 2 <= n <= PAIR_CAP:
        raise ValueError(f"n must be within 2..{PAIR_CAP}, got {n}")
    need = _NEED_BY_TOP_BIT[rules.value.bit_length()]
    w_classes = _segment_classes(n - 1, False, need)
    # at_least[b][k]: z segments of length b with at least k Bs (k capped at need)
    at_least = [
        [sum(count for (bs, _), count in classes.items() if bs >= k) for k in range(n)]
        for classes in _segment_classes(n - 1, True, need)
    ]
    # block[ends_c, left_c][L]: blocks of total length L
    block = {(e, c): [0] * (n + 1) for e in (False, True) for c in (False, True)}
    for a in range(1, n):
        for (run, ends_c), count in w_classes[a].items():
            for b in range(1, n - a + 1):
                block[ends_c, False][a + b] += count * at_least[b][0]
                block[ends_c, True][a + b] += count * at_least[b][run]
    # reach[c][k]: block sequences of total length k after which the next w
    # segment must end in C iff c; before the first block either may.
    reach = {c: [1] + [0] * n for c in (False, True)}
    for k in range(2, n + 1):
        for c in (False, True):
            reach[c][k] = sum(
                reach[e][k - size] * block[e, c][size]
                for e in (False, True)
                for size in range(2, k + 1)
            )
    return reach[False][n]


@dataclass(frozen=True)
class AvoiderPairReport:
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
    rule set.  When w holds a CAB factor, one pass over its runs and B
    counts then finds the fewest Bs of a segment that falls below its run,
    and a rule set fails when that is below its need, so "cab", "cabb" and
    "cab_k" share the pass.  Without one every run is 0 and all three pass.

    >>> verify_lemma_on_avoiders(4).violations
    {'cab': (), 'cabb': (), 'cab_k': ()}
    """
    if not 0 <= n <= LEMMA_CAP:
        raise ValueError(f"n must be within 0..{LEMMA_CAP}; larger sweeps take too long")
    violations: dict[str, list[tuple[str, str, str]]] = {r: [] for r in _LEMMA_RULES}
    needs = {r: _NEED_BY_TOP_BIT[rules.value.bit_length()] for r, rules in _LEMMA_RULES.items()}
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
        short = min((bs for run, bs in zip(_cab_runs(w), _b_counts(z)) if bs < run), default=inf)
        for name, need in needs.items():
            if short < need:
                violations[name].append((str(p), w, z))
    return AvoiderPairReport(n, checked, {r: tuple(v) for r, v in violations.items()})
