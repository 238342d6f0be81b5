from __future__ import annotations

import itertools
from functools import partial
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permwords import (
    Permutation,
    cli,
    contains,
    count_avoiders,
    enumerate_avoiders,
    perm_core,
)
from permwords.perm_core import (
    _completions_generic,
    _live,
    _moves_generic,
    _step,
    _walk,
    dp_state_count,
)

# Avoider counts for 1324, frozen from independent runs of both engines
# and (for n <= 8) a brute-force filter over all n! permutations; the
# terms for n = 11..18 are those of OEIS A061552.
COUNTS_1324 = (
    1, 1, 2, 6, 23, 103, 513, 2762, 15793, 94776, 591950, 3824112, 25431452,
    173453058, 1209639642, 8604450011, 62300851632, 458374397312, 3421888118907,
)

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


def brute_contains(entries: tuple[int, ...], pattern: tuple[int, ...]) -> bool:
    k = len(pattern)
    rank = tuple(sorted(range(k), key=lambda i: pattern[i]))
    for combo in itertools.combinations(entries, k):
        if all(combo[rank[i]] < combo[rank[i + 1]] for i in range(k - 1)):
            return True
    return False


class TestPermutation:
    def test_parse_compact(self):
        assert Permutation.parse("3612745").entries == (3, 6, 1, 2, 7, 4, 5)

    def test_parse_commas(self):
        assert Permutation.parse("10,2,3,4,5,6,7,8,9,1").entries[0] == 10
        assert Permutation.parse("2, 1").entries == Permutation.parse("2 1").entries == (2, 1)

    def test_parse_rejects_non_permutations(self):
        # Empty comma fields, a sign, a digit separator, a non-ASCII digit too.
        for bad in ("1321", "102", "0", "", "2,2,1", "1,3",
                    "1,,2", ",1,2", "1,2,", "+1,2", "1_0,2,3,4,5,6,7,8,9,1", "\uff121"):
            with pytest.raises(ValueError):
                Permutation.parse(bad)

    def test_rejects_non_integer_entries(self):
        for bad in ((2.0, 1.0, 3.0), (1.5,)):
            with pytest.raises(TypeError):
                Permutation(bad)
        # Patterns and containment read only the order of distinct values.
        assert contains((2.0, 1.0, 3.0), (2, 1))
        assert count_avoiders(3, (2.5, 1.5)) == 1
        assert [p.entries for p in enumerate_avoiders(2, (0.5, 0.25))] == [(1, 2)]

    def test_str_roundtrip(self):
        for text in ("3612745", "1", "21"):
            assert str(Permutation.parse(text)) == text
        big = Permutation(tuple(range(1, 12)))
        assert str(big) == "1,2,3,4,5,6,7,8,9,10,11"
        assert Permutation.parse(str(big)) == big

    def test_count_rejects_empty_pattern(self):
        for empty in ((), Permutation(())):
            with pytest.raises(ValueError, match="pattern must be nonempty"):
                count_avoiders(3, empty)

    def test_enumerate_rejects_empty_pattern(self):
        # The bare call raises: the arguments are checked before any walk.
        for empty in ((), Permutation(())):
            with pytest.raises(ValueError, match="pattern must be nonempty"):
                enumerate_avoiders(3, empty)

    def test_enumerate_rejects_negative_length(self):
        for pattern in ((1, 3, 2, 4), (4, 2, 3, 1)):
            with pytest.raises(ValueError, match="n must be nonnegative"):
                enumerate_avoiders(-1, pattern)

    # A pattern with a repeated value has no order type; each entry point
    # refuses it at the call, as contains does.
    def test_count_rejects_repeated_pattern_values(self):
        for q in ((1, 1), (2, 3, 2)):
            with pytest.raises(ValueError, match="entries must be exactly"):
                count_avoiders(3, q)

    def test_enumerate_rejects_repeated_pattern_values(self):
        for q in ((1, 1), (1, 3, 2, 4, 3)):
            with pytest.raises(ValueError, match="entries must be exactly"):
                enumerate_avoiders(3, q)

    def test_dp_state_count_rejects_repeated_pattern_values(self):
        with pytest.raises(ValueError, match="entries must be exactly"):
            dp_state_count((2, 2, 1))

    def test_generic_engine_cap_is_checked_at_the_call(self):
        # The generic DP packs ranks into 32-bit fields, so it takes n <= 31.
        # Its walk and contains both refuse a longer permutation up front.
        assert list(enumerate_avoiders(31, (1,))) == []
        with pytest.raises(ValueError, match="n <= 31, got 32"):
            enumerate_avoiders(32, (2, 1))
        assert not contains(tuple(range(1, 32)), (2, 1))
        with pytest.raises(ValueError, match="n <= 31, got 32"):
            contains(tuple(range(1, 33)), (2, 1))


class TestContains:
    @given(
        st.permutations(range(1, 8)),
        st.sampled_from([(1, 3, 2, 4), (1, 2, 3), (2, 1), (4, 2, 3, 1), (1,)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force(self, entries, pattern):
        entries = tuple(entries)
        assert contains(entries, pattern) == brute_contains(entries, pattern)

    def test_pattern_longer_than_host(self):
        assert not contains((2, 1), (1, 3, 2, 4))

    def test_empty_pattern_is_in_every_permutation(self):
        for entries in ((), (1,), (2, 1), (2, 5, 3, 7, 1, 6, 4)):
            assert contains(entries, ())

    def test_distinct_values_stand_for_their_ranks(self):
        assert contains((50, 20, 90), (2, 1)) and not contains((50, 20, 90), (3, 2, 1))
        assert contains([7, 3, 5], Permutation.parse("312"))

    def test_repeated_entries_are_refused(self):
        # A sequence with a repeat has no order type to compare.
        for p, q in (((1, 1), (2, 1)), ((1, 1, 2), (2, 3, 1)), ((1, 2), (1, 1))):
            with pytest.raises(ValueError, match="entries must be exactly"):
                contains(p, q)

    def test_empty_permutation_contains_no_nonempty_pattern(self):
        for pattern in ((1,), (2, 1), (1, 3, 2, 4)):
            assert not contains((), pattern)

    def test_leaves_the_count_cache_alone(self):
        # Containment steps through the host; it takes no count.
        perm_core._completions_generic.cache_clear()
        assert not contains((3, 6, 1, 2, 7, 4, 5), (1, 3, 2, 4))
        assert contains((2, 5, 3, 7, 1, 6, 4), (1, 3, 2, 4))
        assert perm_core._completions_generic.cache_info().currsize == 0


class TestCountAvoiders:
    def test_frozen_1324_counts(self):
        for n, expected in enumerate(COUNTS_1324):
            assert count_avoiders(n, (1, 3, 2, 4)) == expected
        for n in range(9):
            listed = len(list(enumerate_avoiders(n, (1, 3, 2, 4))))
            assert count_avoiders(n, (1, 3, 2, 4)) == listed

    def test_naive_filter_agreement_small(self):
        for n in range(7):
            naive = sum(
                1
                for p in itertools.permutations(range(1, n + 1))
                if not brute_contains(p, (1, 3, 2, 4))
            )
            assert count_avoiders(n, (1, 3, 2, 4)) == naive

    def test_length_three_patterns_are_catalan(self):
        for pattern in itertools.permutations((1, 2, 3)):
            for n in range(8):
                assert count_avoiders(n, pattern) == CATALAN[n]

    def test_other_length_four_patterns(self):
        # 1234 and 1342 avoiders differ from 1324 avoiders at n = 7.
        assert count_avoiders(7, (1, 2, 3, 4)) == 2761
        assert count_avoiders(7, (1, 3, 4, 2)) == 2740

    def test_pattern_longer_than_n_is_factorial(self):
        for n in range(4):
            assert count_avoiders(n, (1, 3, 2, 4)) == factorial(n)
        assert count_avoiders(3, (1, 2, 3, 4, 5)) == 6


class TestGenericCount:
    """Independent oracles for the generic counting DP (`_completions_generic`).

    Brute force over every permutation (`brute_contains`, not `contains`,
    which steps this DP) and published sequences check the window DP from
    outside.  The walk (`enumerate_avoiders`) follows the DP's own moves, so
    it checks only that counting and listing agree.
    """

    # OEIS A047889: permutations of length n avoiding 1234, n = 0..12.
    COUNTS_1234 = (
        1, 1, 2, 6, 23, 103, 513, 2761, 15767, 94359, 586590, 3763290, 24792705,
    )

    def test_every_short_pattern_matches_brute_force(self):
        for length in range(1, 5):
            for pattern in itertools.permutations(range(1, length + 1)):
                for n in range(7):
                    brute = sum(
                        1
                        for p in itertools.permutations(range(1, n + 1))
                        if not brute_contains(p, pattern)
                    )
                    assert count_avoiders(n, pattern) == brute, (pattern, n)

    def test_prefixes_match_filtered_brute_force(self):
        for pattern in ((1, 3, 2, 4), (2, 4, 1, 3), (1, 2, 3), (3, 1, 4, 2, 5)):
            for n in range(7):
                avoiders = [
                    p
                    for p in itertools.permutations(range(1, n + 1))
                    if not brute_contains(p, pattern)
                ]
                for length in range(min(n, 3) + 1):
                    for prefix in itertools.permutations(range(1, n + 1), length):
                        brute = sum(1 for p in avoiders if p[:length] == prefix)
                        # Step the prefix in, each entry as its rank among
                        # the unused values, and count from where it ends.
                        unused = list(range(1, n + 1))
                        state = ()
                        got = 0
                        for v in prefix:
                            state = _step(pattern, len(unused), state, unused.index(v))
                            if state is None:
                                break
                            unused.remove(v)
                        else:
                            got = _completions_generic(pattern, len(unused), state)
                        assert got == brute, (pattern, n, prefix)

    def test_4231_is_a061552_up_to_the_cap(self):
        # 4231 is the reverse of 1324, so its avoiders are counted by the
        # same sequence.  The state count, from a cold memo, pins the
        # covering filter: a state kept apart that another covers, or one
        # merged away, moves it.
        perm_core._completions_generic.cache_clear()
        for n in range(cli.COUNT_CAP + 1):
            assert count_avoiders(n, (4, 2, 3, 1)) == COUNTS_1324[n]
        assert dp_state_count((4, 2, 3, 1)) == 5878

    def test_state_counts_of_length_five_patterns(self):
        for pattern, n_max, states in (((1, 3, 2, 4, 5), 11, 1696), ((2, 4, 1, 3, 5), 10, 1000)):
            perm_core._completions_generic.cache_clear()
            for n in range(n_max + 1):
                count_avoiders(n, pattern)
            assert dp_state_count(pattern) == states, pattern

    def test_moves_match_the_step_on_every_reached_state(self):
        # `_moves_generic` opens a state once for all its ranks; `contains`
        # goes through `_step`, which opens it per rank.  On every state the
        # moves reach, both must give the same next states.
        for pattern, n_max in (((4, 2, 3, 1), 9), ((3, 1, 4, 2, 5), 8), ((1, 2, 3), 10)):
            for n in range(n_max + 1):
                todo = [(n, ())]
                reached = set(todo)
                while todo:
                    r, state = todo.pop()
                    moves = list(_moves_generic(pattern, r, state))
                    steps = [(x, _step(pattern, r, state, x)) for x in range(r)]
                    assert moves == [(x, (r - 1, s)) for x, s in steps if s is not None]
                    for _, s in moves:
                        if s not in reached:
                            reached.add(s)
                            todo.append(s)

    def test_1234_is_a047889(self):
        for n, expected in enumerate(self.COUNTS_1234):
            assert count_avoiders(n, (1, 2, 3, 4)) == expected

    def test_length_five_matches_enumeration(self):
        pattern = (2, 5, 3, 1, 4)
        for n in range(9):
            listed = len(list(enumerate_avoiders(n, pattern)))
            assert count_avoiders(n, pattern) == listed, n


class TestEnumerate:
    def test_lexicographic_and_complete(self):
        seen = list(enumerate_avoiders(5, (1, 3, 2, 4)))
        assert len(seen) == COUNTS_1324[5]
        entry_lists = [p.entries for p in seen]
        assert entry_lists == sorted(entry_lists)
        assert len(set(entry_lists)) == len(entry_lists)

    def test_each_avoids(self):
        for p in enumerate_avoiders(6, (1, 3, 2, 4)):
            assert not brute_contains(p.entries, (1, 3, 2, 4))

    def test_every_short_pattern_lists_the_brute_force_avoiders(self):
        # permutations() yields in lexicographic order, so the filtered list
        # is the walk's expected output, order included.
        for length in range(1, 5):
            for pattern in itertools.permutations(range(1, length + 1)):
                for n in range(7):
                    brute = [
                        p
                        for p in itertools.permutations(range(1, n + 1))
                        if not brute_contains(p, pattern)
                    ]
                    listed = [p.entries for p in enumerate_avoiders(n, pattern)]
                    assert listed == brute, (pattern, n)

    def test_generic_engine_matches_fast_path(self):
        # Every pattern is listed by walking its counting DP's moves.  The
        # generic DP's moves, walked on 1324 itself, are the 1324 walk's
        # independent oracle: the two DPs share only the walk loop, and must
        # give the same avoiders in the same order.  The generic moves need
        # `_live`, as in `enumerate_avoiders`: walked raw, they let the last
        # value complete the pattern (1324 itself at n = 4).  Reversal maps
        # 4231-avoiders onto 1324-avoiders, so the two engines also check
        # each other through that bijection.
        moves = _live(partial(_moves_generic, (1, 3, 2, 4)))
        for n in range(9):
            walk = [p.entries for p in enumerate_avoiders(n, (1, 3, 2, 4))]
            assert walk == list(_walk(n, moves, (n, ()))), n
        for n in range(7):
            fast = {p.entries for p in enumerate_avoiders(n, (1, 3, 2, 4))}
            generic = {p.entries for p in enumerate_avoiders(n, (4, 2, 3, 1))}
            assert {tuple(reversed(e)) for e in generic} == fast
        assert count_avoiders(8, (4, 2, 3, 1)) == COUNTS_1324[8]

    def test_listed_permutations_equal_checked_ones(self):
        # Both engines build their results without Permutation's check; each
        # must still equal, and hash like, the checked construction.
        for pattern, n_max in (((1, 3, 2, 4), 7), ((4, 2, 3, 1), 6)):
            for n in range(n_max + 1):
                for p in enumerate_avoiders(n, pattern):
                    checked = Permutation(p.entries)
                    assert type(p) is Permutation and type(p.entries) is tuple
                    assert p == checked and hash(p) == hash(checked)

    def test_interleaved_walks_share_no_state(self):
        # Each walk keeps its own stack and move memo, so advancing two
        # walks of different lengths in turn changes neither.
        alone = {n: list(enumerate_avoiders(n, (1, 3, 2, 4))) for n in (6, 7)}
        walks = [enumerate_avoiders(n, (1, 3, 2, 4)) for n in (6, 7)]
        together: dict[int, list[Permutation]] = {6: [], 7: []}
        for pair in itertools.zip_longest(*walks):
            for p in pair:
                if p is not None:
                    together[len(p)].append(p)
        assert together == alone

    def test_walk_pushes_only_prefixes_of_avoiders(self):
        # The one 21-avoider of length n is 1..n, but appending any other
        # value first leads to a state the generic DP only later finds
        # dead.  `_live` keeps only moves into states with a completion, so
        # from the root they form one path: every prefix the walk pushes
        # extends to the avoider.
        n = 25
        moves = _live(partial(_moves_generic, (2, 1)))
        state, r = (n, ()), n
        while r:
            ((rank, state),) = moves(*state)
            assert rank == 0, r
            r -= 1
        assert [p.entries for p in enumerate_avoiders(n, (2, 1))] == [tuple(range(1, n + 1))]

    def test_first_avoider_derives_few_states(self, monkeypatch):
        # The walk derives a state's moves when it first pushes it, and
        # takes the 1324 moves as given, so the first avoider costs one
        # derivation per level, not one per reachable state (25,409 move
        # calls at n = 16).
        n = 16
        calls = 0
        moves = perm_core._moves_1324

        def counted(*state):
            nonlocal calls
            calls += 1
            return moves(*state)

        monkeypatch.setattr(perm_core, "_moves_1324", counted)
        assert next(enumerate_avoiders(n, (1, 3, 2, 4))).entries == tuple(range(1, n + 1))
        assert 0 < calls <= n

    def test_full_walk_derives_each_state_once(self, monkeypatch):
        # 103 states of the length-8 walk have two or more values left, and
        # the walk derives the moves of each exactly once.
        seen: list[tuple] = []
        moves = perm_core._moves_1324

        def counted(*state):
            seen.append(state)
            return moves(*state)

        monkeypatch.setattr(perm_core, "_moves_1324", counted)
        assert len(list(enumerate_avoiders(8, (1, 3, 2, 4)))) == COUNTS_1324[8]
        assert len(seen) == len(set(seen)) == 103

    def test_full_generic_walk_derives_each_state_once(self, monkeypatch):
        # `_live`'s search and its kept moves share one store of raw moves,
        # so each state the walk or the search reaches is derived once: 158
        # states at n = 8 and 314 at n = 9 for 4231 (263 and 523 calls when
        # the two derived them apart).
        moves = perm_core._moves_generic
        for n, states in ((8, 158), (9, 314)):
            seen: list[tuple] = []

            def counted(*args):
                seen.append(args)
                return moves(*args)

            monkeypatch.setattr(perm_core, "_moves_generic", counted)
            assert len(list(enumerate_avoiders(n, (4, 2, 3, 1)))) == COUNTS_1324[n]
            assert len(seen) == len(set(seen)) == states, n

    def test_every_reachable_1324_state_has_a_completion(self):
        # The walk takes the 1324 moves as given, which is sound only when
        # no state they reach is dead.
        perm_core._completions_1324.cache_clear()
        try:
            for n in range(13):
                root = perm_core._root_1324(n)
                todo, reached = [root], {root}
                while todo:
                    for _, s in perm_core._moves_1324(*todo.pop()):
                        if s not in reached:
                            reached.add(s)
                            todo.append(s)
                assert all(perm_core._completions_1324(*s) > 0 for s in reached), n
        finally:
            perm_core._completions_1324.cache_clear()

    def test_walk_leaves_the_count_cache_alone(self):
        for pattern, engine in (
            ((1, 3, 2, 4), perm_core._completions_1324),
            ((4, 2, 3, 1), perm_core._completions_generic),
        ):
            engine.cache_clear()
            assert len(list(enumerate_avoiders(7, pattern))) == COUNTS_1324[7]
            assert engine.cache_info().currsize == 0, pattern
