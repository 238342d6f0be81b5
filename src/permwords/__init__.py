"""Verification workbench for 1324-avoiding permutations.

The package encodes 1324-avoiding permutations into pairs of words over
{A, B, C, D}, checks the combinatorial facts that make the encoding an
injection into a small language, and reproduces the resulting numeric
upper bounds on the Stanley-Wilf growth rate of the pattern 1324 from
exact generating functions and certified root isolation.
"""

from __future__ import annotations

from .encoder import MarkedPermutation, WordPair, decode, encode, mark
from .perm_core import Permutation, contains, count_avoiders, enumerate_avoiders
from .roots import RootEstimate, certified_smallest_root, growth_bound, refine_real_root
from .series import (
    IntPolynomial,
    NOCB_WORD_SERIES,
    PAIR_SERIES_CAB,
    PAIR_SERIES_CABB,
    PAIR_SERIES_CAB_RUN,
    RationalFunction,
    SEGMENT_SERIES,
    expand,
    rf_equal,
    verify_functional_equations,
)
from .wordlang import (
    PairRule,
    brute_count_pairs,
    check_pair,
    count_nocb_words,
    count_segments_nocb,
    verify_lemma_on_avoiders,
)

__version__ = "0.1.0"

__all__ = [
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
