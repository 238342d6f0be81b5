from __future__ import annotations

import itertools
import random
from bisect import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permwords import MarkedPermutation, Permutation, WordPair, decode, encode, mark
from permwords.encoder import _word_pairs_along
from permwords.perm_core import _avoider_walk


def left_to_right_minima(entries: tuple[int, ...]) -> set[int]:
    """1-based positions whose entry is smaller than every entry before it."""
    out, low = set(), len(entries) + 1
    for i, x in enumerate(entries, 1):
        if x < low:
            out.add(i)
            low = x
    return out


def right_to_left_maxima(entries: tuple[int, ...]) -> set[int]:
    """1-based positions whose entry is larger than every entry after it."""
    out, high = set(), 0
    for i in range(len(entries), 0, -1):
        if entries[i - 1] > high:
            out.add(i)
            high = entries[i - 1]
    return out


def naive_color(entries: tuple[int, ...]) -> str:
    """Reference coloring: an entry turns blue exactly when adding it to
    the red subsequence built so far would complete a 132 among reds."""
    reds: list[int] = []
    out = []
    for x in entries:
        makes_132 = any(
            reds[i] < reds[j] and x < reds[j] and reds[i] < x
            for i in range(len(reds))
            for j in range(i + 1, len(reds))
        )
        if makes_132:
            out.append("B")
        else:
            out.append("R")
            reds.append(x)
    return "".join(out)


class TestColor:
    def test_matches_naive_all_perms_small(self):
        for n in range(1, 7):
            for entries in itertools.permutations(range(1, n + 1)):
                assert mark(entries, mode="plain").colors == naive_color(entries), entries

    def test_matches_naive_sampled_larger(self):
        rng = random.Random(1324)
        for _ in range(300):
            n = rng.randrange(7, 11)
            entries = tuple(rng.sample(range(1, n + 1), n))
            assert mark(entries, mode="plain").colors == naive_color(entries), entries

    def test_running_max_shortcut_would_miscolor(self):
        # These two used to trip a cheaper detection idea that tracked
        # only the running maximum: the true rule needs the least middle
        # element over all red 132 candidates.
        assert mark((4, 5, 1, 2, 3), mode="plain").colors == "RRRRR"
        assert mark((5, 1, 4, 2, 3), mode="plain").colors == "RRRBB"

    def test_first_entry_always_red(self):
        assert mark((1,), mode="plain").colors == "R"
        assert mark((2, 1), mode="plain").colors == "RR"


class TestMark:
    def test_plain_examples(self):
        m = mark(Permutation.parse("3612745"), mode="plain")
        assert m.colors == "RRRRRBB"
        assert m.letters == "ABABBCD"

    def test_rule4prime_examples(self):
        m = mark(Permutation.parse("3612745"))
        assert m.colors == "RRRRBBB"
        assert m.letters == "ABABDCD"

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            mark((1, 2), mode="bogus")

    def test_letter_color_consistency_enforced(self):
        perm = Permutation((1, 2))
        marked = MarkedPermutation(perm, "AD")
        assert (marked.letters, marked.colors) == ("AD", "RB")
        for letters, message in (
            ("A", "match the permutation length"),
            ("ABC", "match the permutation length"),
            ("AX", "must be A/B/C/D"),
            ("AR", "must be A/B/C/D"),  # R is a color, not a letter
        ):
            with pytest.raises(ValueError, match=message):
                MarkedPermutation(perm, letters)

    def test_marks_equal_checked_ones(self, avoiders_by_n):
        # mark builds its result without MarkedPermutation's check; it must
        # still equal, and hash like, the checked construction.
        for n in range(8):
            for p in avoiders_by_n[n]:
                for mode in ("plain", "rule4prime"):
                    m = mark(p, mode=mode)
                    checked = MarkedPermutation(p, m.letters)
                    assert type(m) is MarkedPermutation and type(m.letters) is str
                    assert m == checked and hash(m) == hash(checked), (p, mode)

    def test_identity_permutation(self):
        m = mark(tuple(range(1, 6)), mode="plain")
        assert m.colors == "RRRRR"
        assert m.letters == "ABBBB"

    def test_reversed_permutation(self):
        m = mark((5, 4, 3, 2, 1), mode="plain")
        assert m.colors == "RRRRR"
        assert m.letters == "AAAAA"

    def test_rule4prime_only_flips_to_blue(self, marked_by_mode):
        for n, plain_marks in marked_by_mode["plain"].items():
            for mp, mr in zip(plain_marks, marked_by_mode["rule4prime"][n]):
                for cp, cr in zip(mp.colors, mr.colors):
                    assert not (cp == "B" and cr == "R")

    def test_rule4prime_forces_trailing_maxima(self, marked_by_mode):
        for n, marks in marked_by_mode["rule4prime"].items():
            for m in marks:
                entries = m.perm.entries
                forced = right_to_left_maxima(entries) - left_to_right_minima(entries)
                for pos in forced:
                    assert m.colors[pos - 1] == "B"
                    assert m.letters[pos - 1] == "D"


def letters_oracle(entries: tuple[int, ...], colors: str) -> str:
    """Letters straight from their definitions, one pass per letter."""
    out = []
    red_min = None
    for x, c in zip(entries, colors):
        if c == "R":
            if red_min is None or x < red_min:
                out.append("A")
                red_min = x
            else:
                out.append("B")
        else:
            out.append(None)
    blue_max = None
    for i in range(len(entries) - 1, -1, -1):
        if colors[i] == "B":
            if blue_max is None or entries[i] > blue_max:
                out[i] = "D"
                blue_max = entries[i]
            else:
                out[i] = "C"
    return "".join(out)


class TestLetters:
    @given(st.permutations(range(1, 9)))
    @settings(max_examples=200, deadline=None)
    def test_plain_letters_match_definitions(self, entries):
        entries = tuple(entries)
        m = mark(entries, mode="plain")
        assert m.letters == letters_oracle(entries, m.colors)

    def test_rule4prime_letters_match_definitions_on_avoiders(self, avoiders_by_n):
        # After the forced recoloring, letters still follow the same
        # per-color definitions with respect to the new colors.  This is
        # a theorem about avoiders only: on a 1324-containing input the
        # forced flip can demote an earlier blue from trailing-max status
        # (e.g. 1324 itself) and the letters keep their pre-flip values.
        for n in range(1, 9):
            for p in avoiders_by_n[n]:
                m = mark(p, mode="rule4prime")
                assert m.letters == letters_oracle(p.entries, m.colors)


def marked_by_definition(entries: tuple[int, ...], mode: str) -> tuple[str, str]:
    """Colors and letters from naive_color and the letter definitions.

    For rule4prime, every right-to-left maximum that is not a
    left-to-right minimum then becomes a blue D.
    """
    colors = naive_color(entries)
    letters = list(letters_oracle(entries, colors))
    colors = list(colors)
    if mode == "rule4prime":
        forced = right_to_left_maxima(entries) - left_to_right_minima(entries)
        for pos in forced:
            colors[pos - 1], letters[pos - 1] = "B", "D"
    return "".join(colors), "".join(letters)


class TestKernelsAgainstDefinitions:
    def test_every_permutation_up_to_seven(self):
        # The oracle of mark's one-pass kernels and word_pair's inverse
        # assignment, on every permutation, avoider or not, in both modes.
        for n in range(8):
            for entries in itertools.permutations(range(1, n + 1)):
                by_value = sorted(range(n), key=lambda i: entries[i])
                for mode in ("plain", "rule4prime"):
                    m = mark(entries, mode=mode)
                    colors, letters = marked_by_definition(entries, mode)
                    assert (m.colors, m.letters) == (colors, letters), (entries, mode)
                    z = "".join(letters[i] for i in by_value)
                    assert m.word_pair() == WordPair(letters, z), (entries, mode)

    def test_rule4prime_only_turns_b_into_d(self):
        # Every entry rule (4') forces is a B or a D in plain mode, on every
        # permutation, avoider or not.
        for n in range(8):
            for entries in itertools.permutations(range(1, n + 1)):
                plain = mark(entries, mode="plain").letters
                forced = right_to_left_maxima(entries) - left_to_right_minima(entries)
                for pos in forced:
                    assert plain[pos - 1] in "BD", (entries, pos)


def with_first_change(perms):
    """(k, p) for each p, k its first index that differs from the previous p (0 for the first)."""
    prev: tuple[int, ...] = ()
    for p in perms:
        k = 0
        while k < min(len(p), len(prev)) and p[k] == prev[k]:
            k += 1
        yield k, p
        prev = p


class TestWordPairsAlong:
    # The injectivity sweep's kernel: each permutation is coloured again
    # only from the walk's first changed entry, and its right-to-left pass
    # gives both modes' pairs.  They must equal marking each permutation
    # from scratch, once per mode.

    def test_every_avoider_of_the_walk(self, avoiders_by_n, marked_by_mode):
        for n, avoiders in avoiders_by_n.items():
            walked = list(_word_pairs_along(_avoider_walk(n, (1, 3, 2, 4))))
            assert [e for e, _ in walked] == [p.entries for p in avoiders]
            marks = zip(marked_by_mode["plain"][n], marked_by_mode["rule4prime"][n])
            for (entries, pairs), (plain, rule4prime) in zip(walked, marks):
                assert pairs == (plain.word_pair(), rule4prime.word_pair()), entries

    def test_every_permutation_in_any_order(self):
        # Avoiders or not, in lexicographic order and in a shuffle that
        # mixes the lengths; the pairs must not depend on the order.
        perms = [p for n in range(8) for p in itertools.permutations(range(1, n + 1))]
        shuffled = random.Random(21).sample(perms, len(perms))
        expected = {p: (mark(p, "plain").word_pair(), mark(p).word_pair()) for p in perms}
        for order in (perms, shuffled):
            pairs = list(_word_pairs_along(with_first_change(order)))
            assert [p for p, _ in pairs] == order
            assert dict(pairs) == expected


class TestWordPair:
    def test_encode_both_modes(self):
        assert encode("3612745", mode="plain") == WordPair("ABABBCD", "ABACDBB")
        assert encode("3612745") == WordPair("ABABDCD", "ABACDBD")

    def test_z_is_letters_in_value_order(self):
        for entries in itertools.permutations(range(1, 6)):
            m = mark(entries)
            w, z = m.word_pair()
            assert w == m.letters
            by_value = sorted(range(len(entries)), key=lambda i: entries[i])
            assert z == "".join(m.letters[i] for i in by_value)


UNDECODABLE = [
    ("AB", "AC"),  # not anagrams
    ("BA", "AB"),  # a B before any A
    ("AAB", "BAA"),  # no B value above the last A
    ("ACD", "ADC"),  # no C value below the last D
    ("AX", "XA"),  # not a word over ABCD
    ("AD", "AX"),  # z alone is not a word over ABCD
    ("AX", "AD"),  # w alone is not a word over ABCD
    ("ABA", "AXA"),  # z has a letter outside ABCD mid-word
    ("ABX", "ABX"),  # both have it, at the same place
]


def reference_decode(w: str, z: str) -> tuple[int, ...]:
    """The two-pass decoder that `decode` must match on every input.

    Left to right it places the As and Bs; right to left, every time, each
    D takes the smallest D value left and each C the greatest unused C
    value below the last D.
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
            break
    counts = (len(a_vals), len(b_vals), len(c_vals), len(d_vals))
    if len(w) != len(z) or sum(counts) != len(z) or counts != tuple(map(w.count, "ABCD")):
        raise ValueError(f"w={w!r} and z={z!r} are not anagrams over ABCD")
    d_vals.reverse()
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
            out[i] = high = d_vals.pop()
        elif w[i] == "C":
            j = bisect(c_vals, high) - 1
            if j < 0:
                raise ValueError(f"no C value below {high} left for position {i + 1}")
            out[i] = c_vals.pop(j)
    return tuple(out)


class TestInjectivity:
    def test_decode_inverts_encoding(self, marked_by_mode):
        for mode in ("plain", "rule4prime"):
            for marks in marked_by_mode[mode].values():
                for m in marks:
                    assert decode(*m.word_pair()) == m.perm.entries, (mode, str(m.perm))

    def test_decode_rejects_pairs_it_cannot_invert(self):
        for w, z in UNDECODABLE:
            with pytest.raises(ValueError):
                decode(w, z)

    def test_decode_matches_the_two_pass_reference(self, marked_by_mode):
        # `reference_decode` is the oracle: it places the Ds in its right to
        # left pass, where `decode` places them left to right and runs that
        # pass only when there is a C.  Both must agree on every input,
        # error messages included.
        def outcome(fn, w: str, z: str) -> object:
            try:
                return fn(w, z)
            except ValueError as exc:
                return str(exc)

        small = [
            "".join(letters)
            for length in range(5)
            for letters in itertools.product("ABCD", repeat=length)
        ]
        pairs = [(w, z) for w in small for z in small if len(w) == len(z)]
        pairs += UNDECODABLE
        pairs += [
            m.word_pair()
            for marks in marked_by_mode.values()
            for n in range(1, 9)
            for m in marks[n]
        ]
        for w, z in pairs:
            assert outcome(decode, w, z) == outcome(reference_decode, w, z), (w, z)

    def test_small_collisions_counted(self, marked_by_mode):
        # Unit-scale slice; the acceptance suite covers the full corpus.
        for mode in ("plain", "rule4prime"):
            pairs = [
                m.word_pair()
                for n in range(1, 8)
                for m in marked_by_mode[mode][n]
            ]
            assert len(set(pairs)) == len(pairs)
