"""Greedy two-coloring of permutations and the A/B/C/D word encoding.

Entries are colored left to right: an entry is blue exactly when coloring
it red would create a 132 pattern among the red entries, so the red
subsequence always avoids 132.  Letters then refine the colors:

- A: red entry that is a left-to-right minimum of the red subsequence;
- B: any other red entry;
- D: blue entry that is a right-to-left maximum of the blue subsequence;
- C: any other blue entry.

The "rule4prime" mode applies one more pass: every entry that is a
right-to-left maximum of the whole permutation but not a left-to-right
minimum of it is forced blue with letter D, overriding the letter the
rules above assigned.

A permutation p yields two words: w(p) lists letters by position, z(p)
lists letters by value (its i-th letter belongs to the entry of value i).

On 1324-avoiders `decode` inverts the encoding in both modes: the reds
form a 132-avoider fixed by its As (its left-to-right minima), and the
blues a 213-avoider fixed by its Ds (its right-to-left maxima).
"""

from __future__ import annotations

import warnings
from bisect import bisect, bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .perm_core import (
    Permutation,
    _entries_of,
    left_to_right_minima,
    right_to_left_maxima,
)

__all__ = [
    "MarkedPermutation",
    "Mode",
    "WordPair",
    "color",
    "decode",
    "encode",
    "mark",
]

Mode = Literal["plain", "rule4prime"]


class WordPair(NamedTuple):
    """The two words read off a marked permutation."""

    w: str
    z: str


@dataclass(frozen=True)
class MarkedPermutation:
    """A permutation with its per-entry colors and letters.

    colors[i] is "R" or "B"; letters[i] is one of "ABCD".  A and B always
    sit on red entries, C and D on blue ones.
    """

    perm: Permutation
    colors: str
    letters: str

    def __post_init__(self) -> None:
        n = len(self.perm)
        if len(self.colors) != n or len(self.letters) != n:
            raise ValueError("colors and letters must match the permutation length")
        if set(self.colors) - set("RB") or set(self.letters) - set("ABCD"):
            raise ValueError("colors must be R/B and letters must be A/B/C/D")
        for c, letter in zip(self.colors, self.letters):
            if (letter in "AB") != (c == "R"):
                raise ValueError(f"letter {letter} cannot sit on color {c}")

    def word_pair(self) -> WordPair:
        by_value = sorted(range(len(self.perm)), key=lambda i: self.perm.entries[i])
        return WordPair(self.letters, "".join(self.letters[i] for i in by_value))


class _Below132Tracker:
    """Answers "would x, appended now, be the final 2 of a 132 pattern?".

    Feeding values left to right, the question for x is whether some fed
    pair a before c has a < x < c.  A stack of (cap, floor) intervals is
    kept where cap is a fed value and floor the minimum fed before it;
    caps strictly decrease toward the top while floors never increase, so
    later intervals contain any earlier ones they outgrow and a binary
    search settles each query.
    """

    def __init__(self) -> None:
        self._caps: list[int] = []
        self._floors: list[int] = []
        self._min: int | None = None

    def completes_132(self, x: int) -> bool:
        # Deepest interval with cap above x has the smallest floor.
        caps = self._caps
        idx = bisect_left(caps, -x, key=lambda c: -c)
        return idx > 0 and self._floors[idx - 1] < x

    def push(self, x: int) -> None:
        caps, floors = self._caps, self._floors
        while caps and caps[-1] <= x:
            caps.pop()
            floors.pop()
        if self._min is not None and self._min < x:
            caps.append(x)
            floors.append(self._min)
        if self._min is None or x < self._min:
            self._min = x


def color(p: Permutation | Sequence[int]) -> str:
    """Greedy red/blue coloring, one character per position.

    >>> color(Permutation.parse("3612745"))
    'RRRRRBB'
    """
    tracker = _Below132Tracker()
    out = []
    for x in _entries_of(p):
        if tracker.completes_132(x):
            out.append("B")
        else:
            out.append("R")
            tracker.push(x)
    return "".join(out)


def mark(p: Permutation | Sequence[int], mode: Mode = "rule4prime") -> MarkedPermutation:
    """Color and letter every entry of p.

    >>> mark(Permutation.parse("3612745"), mode="plain").letters
    'ABABBCD'
    >>> mark(Permutation.parse("3612745")).letters
    'ABABDCD'
    """
    perm = p if isinstance(p, Permutation) else Permutation(_entries_of(p))
    entries = perm.entries
    colors = list(color(entries))
    letters = [""] * len(entries)

    red_min: int | None = None
    blue_max: int | None = None
    for i in range(len(entries)):
        if colors[i] == "R" and (red_min is None or entries[i] < red_min):
            letters[i] = "A"
            red_min = entries[i]
        elif colors[i] == "R":
            letters[i] = "B"
    for i in range(len(entries) - 1, -1, -1):
        if colors[i] == "B":
            if blue_max is None or entries[i] > blue_max:
                letters[i] = "D"
                blue_max = entries[i]
            else:
                letters[i] = "C"

    if mode == "rule4prime":
        forced = set(right_to_left_maxima(entries)) - set(left_to_right_minima(entries))
        for pos in forced:
            i = pos - 1
            if letters[i] not in ("B", "D"):
                warnings.warn(
                    f"rule (4') hit a {letters[i]}-entry at position {pos} of "
                    f"{perm}; only B entries are expected to flip",
                    stacklevel=2,
                )
            colors[i] = "B"
            letters[i] = "D"
    elif mode != "plain":
        raise ValueError(f"unknown mode: {mode!r}")

    return MarkedPermutation(perm, "".join(colors), "".join(letters))


def encode(p: Permutation | Sequence[int], mode: Mode = "rule4prime") -> WordPair:
    """Encode p as its position word w and value word z.

    >>> encode(Permutation.parse("3612745"), mode="plain")
    WordPair(w='ABABBCD', z='ABACDBB')
    >>> encode(Permutation.parse("3612745"))
    WordPair(w='ABABDCD', z='ABACDBD')
    """
    return mark(p, mode=mode).word_pair()


def decode(w: str, z: str) -> tuple[int, ...]:
    """Rebuild the permutation that encodes to (w, z), in either mode.

    Positions come from w and values from z; A and B mark reds, C and D
    blues.  Left to right, each A takes the largest A value left and each
    B the least unused B value above the last A.  Right to left, each D
    takes the smallest D value left and each C the greatest unused C
    value below the last D.  Raises ValueError when the letters cannot be
    filled in this way; a pair outside the image may still decode, to a
    permutation that does not encode back to it.

    >>> decode("ABABDCD", "ABACDBD")
    (3, 6, 1, 2, 7, 4, 5)
    >>> decode("ABABBCD", "ABACDBB")
    (3, 6, 1, 2, 7, 4, 5)
    """
    if sorted(w) != sorted(z) or not set(z) <= set("ABCD"):
        raise ValueError(f"w={w!r} and z={z!r} are not anagrams over ABCD")
    by_letter: dict[str, list[int]] = {"A": [], "B": [], "C": [], "D": []}
    for v, letter in enumerate(z, 1):
        by_letter[letter].append(v)
    a_vals, b_vals, c_vals, d_vals = by_letter.values()
    out = [0] * len(w)
    low = len(w) + 1
    for i, letter in enumerate(w):
        if letter == "A":
            out[i] = low = a_vals.pop()
        elif letter == "B":
            j = bisect(b_vals, low)
            if j == len(b_vals):
                raise ValueError(f"no B value above {low} left for position {i + 1}")
            out[i] = b_vals.pop(j)
    high = 0
    for i in range(len(w) - 1, -1, -1):
        if w[i] == "D":
            out[i] = high = d_vals.pop(0)
        elif w[i] == "C":
            j = bisect(c_vals, high) - 1
            if j < 0:
                raise ValueError(f"no C value below {high} left for position {i + 1}")
            out[i] = c_vals.pop(j)
    return tuple(out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
