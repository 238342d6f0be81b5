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
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from math import inf
from typing import Iterator, Sequence

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
# Largest total length a pair count takes, and the top of `--cap-pairs`.  The
# z table of word length L has 2^L - 1 keys.  On a 2-core Xeon VM, `verify gf`'s
# pair work takes 0.17 s and 32 MB at n = 16, about doubling per n.
PAIR_CAP = 16
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
#
# For counting, a word only matters through a small signature: w through
# its tuple of CAB run lengths (i-th entry for the i-th A from the right)
# and z through its tuple of per-segment B counts (left to right), both
# grouped by A count, the signature's length.  The tables come from a
# forward DP over lengths that merges the CB-free words starting with A by
# state: the signature so far, whether the last letter is C (no B may
# follow), and whether a B now counts.  In z every B does; in w only the Bs
# right after a CA, until another letter ends the run.


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


def _by_a_count(states: dict, step: int) -> dict[int, dict[tuple[int, ...], int]]:
    """Words per signature (read in the given step), grouped by A count."""
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for (sig, _, _), count in states.items():
        group = groups.setdefault(len(sig), {})
        group[sig[::step]] = group.get(sig[::step], 0) + count
    return groups


def _tables_by_length() -> Iterator[tuple[dict, dict, dict[int, int]]]:
    """Yield the w groups, z groups and z totals of word length 0, 1, 2, ...

    Each length extends the DP states of the one before, when it is asked for.
    """
    yield {}, {}, {}  # no word of length 0 starts with A
    # (signature left to right, last letter is C, a B now counts)
    w_states = {((0,), False, False): 1}
    z_states = {((0,), False, True): 1}
    while True:
        z_groups = _by_a_count(z_states, 1)
        totals = {m: sum(group.values()) for m, group in z_groups.items()}
        yield _by_a_count(w_states, -1), z_groups, totals
        w_states, z_states = _extend(w_states, False), _extend(z_states, True)


_LENGTHS = _tables_by_length()
_TABLES: list[tuple[dict, dict, dict[int, int]]] = []  # index: word length


def _grow_tables(max_len: int) -> None:
    while len(_TABLES) <= max_len:
        _TABLES.append(next(_LENGTHS))


def signature_key_count(max_len: int) -> int:
    """Keys in the w and z signature tables of word lengths 1..max_len.

    Only those lengths count, however far the tables reach.
    """
    _grow_tables(max_len)
    tables = _TABLES[1 : max_len + 1]
    return sum(len(group) for w, z, _ in tables for group in (*w.values(), *z.values()))


def brute_count_pairs(n: int, rules: PairRule = PairRule.NONE) -> int:
    """Count pairs (w, z) with |w| + |z| = n passing the base test + rules.

    Only CB-free words starting with A can occur in a pair.  They are
    counted by signature, one table per word length and A count, with a
    forward DP that merges words by state; pairs are then combined by
    joining the w and z groups of lengths a and n - a with the same A
    count.  The tables grow to length n - 1 on demand, and the z table of
    length L has 2^L - 1 keys, so PAIR_CAP bounds n.

    >>> brute_count_pairs(3, PairRule.CAB_NEEDS_B)
    6
    """
    if not 2 <= n <= PAIR_CAP:
        raise ValueError(f"n must be within 2..{PAIR_CAP}, got {n}")
    _grow_tables(n - 1)
    total = 0
    for a in range(1, n):
        _, z_groups, z_totals = _TABLES[n - a]
        for m, w_group in _TABLES[a][0].items():
            z_group = z_groups.get(m, {})
            for w_key, cw in w_group.items():
                if not rules or not any(w_key):  # every z of this A count fits
                    total += cw * z_totals.get(m, 0)
                    continue
                for z_key, cz in z_group.items():
                    if _runs_compatible(w_key, z_key, rules):
                        total += cw * cz
    return total


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
