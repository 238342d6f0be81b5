"""Greedy two-coloring of permutations and the A/B/C/D word encoding.

Entries are colored left to right: an entry is blue exactly when coloring
it red would create a 132 pattern among the red entries, so the red
subsequence always avoids 132.  The best 1 for a red 3 is the red minimum
before it, so one pass keeps the values between the two as the bits of
one int, and an entry is blue when its bit is set.  Letters then refine
the colors:

- A: red entry that is a left-to-right minimum of the red subsequence;
- B: any other red entry;
- D: blue entry that is a right-to-left maximum of the blue subsequence;
- C: any other blue entry.

The "rule4prime" mode applies one more rule: every entry that is a
right-to-left maximum of the whole permutation but not a left-to-right
minimum of it is forced blue with letter D.  Such an entry is already a
B or a D, so the rule only turns Bs into Ds.  One marking serves both
modes: the coloring pass sets A/B/C, and one pass from the right sets the
Ds and lists the Bs that the rule turns.

A permutation p yields two words: w(p) lists letters by position, z(p)
lists letters by value (its i-th letter belongs to the entry of value i).

On 1324-avoiders `decode` inverts the encoding in both modes: the reds
form a 132-avoider fixed by its As (its left-to-right minima), and the
blues a 213-avoider fixed by its Ds (its right-to-left maxima).
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import Literal, NamedTuple

from .perm_core import Permutation, _entries_of

__all__ = [
    "MarkedPermutation",
    "Mode",
    "WordPair",
    "decode",
    "encode",
    "mark",
]

Mode = Literal["plain", "rule4prime"]


class WordPair(NamedTuple):
    """The two words read off a marked permutation."""

    w: str
    z: str


_COLOR_OF = str.maketrans("ABCD", "RRBB")  # letter -> color, for str.translate


@dataclass(frozen=True)
class MarkedPermutation:
    """A permutation with one letter per entry, from "ABCD".

    A and B sit on red entries, C and D on blue ones, so the colors are
    read off the letters.
    """

    perm: Permutation
    letters: str

    def __post_init__(self) -> None:
        if len(self.letters) != len(self.perm):
            raise ValueError("letters must match the permutation length")
        if self.letters.strip("ABCD"):
            raise ValueError("letters must be A/B/C/D")

    @property
    def colors(self) -> str:
        """One "R" or "B" per entry."""
        return self.letters.translate(_COLOR_OF)

    def word_pair(self) -> WordPair:
        z = [""] * len(self.letters)
        for v, letter in zip(self.perm.entries, self.letters):
            z[v - 1] = letter
        return WordPair(self.letters, "".join(z))


def _letters(entries: tuple[int, ...]) -> tuple[list[str], list[int]]:
    """The plain letters of a permutation of 1..n, and where rule (4') turns a B into a D.

    A red x bars the values between the red minimum before it and itself,
    as each would be the 2 of a 132 with that minimum and x.  A red below
    the red minimum, at first n + 1, is an A, any other red a B.
    """
    out = []
    barred = 0
    low = len(entries) + 1  # the red minimum so far
    for x in entries:
        if barred >> x & 1:
            out.append("C")
        elif x < low:
            out.append("A")
            low = x
        else:
            out.append("B")
            barred |= (1 << x) - (2 << low)  # bits low+1 .. x-1
    turned = []  # the Bs that are right-to-left maxima
    blue_max = high = 0
    for i in range(len(entries) - 1, -1, -1):
        x = entries[i]
        if out[i] == "C" and x > blue_max:
            out[i] = "D"
            blue_max = x
        if x > high:
            high = x
            # The left-to-right minima are exactly the As: an A lies below
            # every red before it, and each blue has a smaller red before
            # it; an entry below all before it is neither barred nor above
            # the red minimum.  A blue right-to-left maximum is already a
            # D, so rule (4') turns only a B into a D.
            if out[i] == "B":
                turned.append(i)
    return out, turned


def mark(p: Permutation | Sequence[int], mode: Mode = "rule4prime") -> MarkedPermutation:
    """Color and letter every entry of p.

    >>> mark(Permutation.parse("3612745"), mode="plain").letters
    'ABABBCD'
    >>> mark(Permutation.parse("3612745")).letters
    'ABABDCD'
    """
    if mode not in ("plain", "rule4prime"):
        raise ValueError(f"unknown mode: {mode!r}")
    perm = p if isinstance(p, Permutation) else Permutation(_entries_of(p))
    letters, turned = _letters(perm.entries)
    if mode == "rule4prime":
        for i in turned:
            letters[i] = "D"
    # One letter from ABCD per entry, so MarkedPermutation's check is skipped.
    marked = object.__new__(MarkedPermutation)
    object.__setattr__(marked, "perm", perm)
    object.__setattr__(marked, "letters", "".join(letters))
    return marked


def _word_pairs_along(
    walk: Iterable[tuple[int, tuple[int, ...]]],
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[str, str], tuple[str, str]]]]:
    """Yield each permutation of a walk with its plain and its rule4prime pair.

    `walk` yields (k, entries), entries a permutation of 1..n whose first k
    entries equal the previous result's, as `perm_core._walk` does.  The
    left-to-right pass of `_letters` reads only the prefix, so the red
    state before each position (barred, low), its letter and z's letter at
    its value are kept, and only positions k and up are coloured again.
    The right-to-left pass runs on copies, per permutation.  A result of
    another length starts over.  `mark` keeps `_letters`: one result per
    generator made the lemma sweep a third slower.
    """
    letters: list[str] = []  # the A/B/C letter at each position
    reds = [(0, 1)]  # (barred, low) before each position, and after the last
    z: list[str] = []  # the letter at each value
    for k, entries in walk:
        n = len(entries)
        if len(z) != n:
            z = [""] * n
            reds = [(0, n + 1)]
            k = 0
        del letters[k:], reds[k + 1 :]
        barred, low = reds[k]
        for x in entries[k:]:
            if barred >> x & 1:
                letter = "C"
            elif x < low:
                letter = "A"
                low = x
            else:
                letter = "B"
                barred |= (1 << x) - (2 << low)  # bits low+1 .. x-1
            letters.append(letter)
            z[x - 1] = letter
            reds.append((barred, low))
        w, zd = letters.copy(), z.copy()
        turned = []  # the Bs that are right-to-left maxima
        blue_max = high = 0
        for i in range(n - 1, -1, -1):
            x = entries[i]
            if w[i] == "C" and x > blue_max:
                w[i] = zd[x - 1] = "D"
                blue_max = x
            if x > high:
                high = x
                if w[i] == "B":
                    turned.append(i)
        plain = "".join(w), "".join(zd)
        for i in turned:
            w[i] = zd[entries[i] - 1] = "D"
        yield entries, (plain, ("".join(w), "".join(zd)))


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
    blues.  Left to right, each A takes the largest A value left, each B
    the least unused B value above the last A, and each D the largest D
    value left (so, read from the right, the smallest).  Only when there
    is a C does a pass run right to left, giving each C the greatest
    unused C value below the last D it has passed.  Raises ValueError
    when the letters cannot be filled in this way; a pair outside the
    image may still decode, to a permutation that does not encode back
    to it.

    >>> decode("ABABDCD", "ABACDBD")
    (3, 6, 1, 2, 7, 4, 5)
    >>> decode("ABABBCD", "ABACDBB")
    (3, 6, 1, 2, 7, 4, 5)
    """
    a_vals, b_vals, c_vals, d_vals = [], [], [], []
    for v, letter in enumerate(z, 1):
        if letter == "A":
            a_vals.append(v)
        elif letter == "B":
            b_vals.append(v)
        elif letter == "C":
            c_vals.append(v)
        elif letter == "D":
            d_vals.append(v)
        else:
            break  # a letter outside ABCD: the counts fall short of len(z)
    counts = (len(a_vals), len(b_vals), len(c_vals), len(d_vals))
    if len(w) != len(z) or sum(counts) != len(z) or counts != tuple(map(w.count, "ABCD")):
        raise ValueError(f"w={w!r} and z={z!r} are not anagrams over ABCD")
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
        elif letter == "D":
            out[i] = d_vals.pop()
    if c_vals:
        high = 0
        for i in range(len(w) - 1, -1, -1):
            if w[i] == "D":
                high = out[i]
            elif w[i] == "C":
                j = bisect(c_vals, high) - 1
                if j < 0:
                    raise ValueError(f"no C value below {high} left for position {i + 1}")
                out[i] = c_vals.pop(j)
    return tuple(out)
