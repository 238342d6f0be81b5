from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permwords import (
    PairRule,
    brute_count_pairs,
    cab_run_length,
    check_pair,
    count_nocb_words,
    count_segments_nocb,
    encode,
    enumerate_avoiders,
    has_cb_factor,
    segments,
    verify_lemma_on_avoiders,
)
from permwords.wordlang import ALPHABET, _all_pairs, _cab_runs, _tables_up_to, _words

# Frozen against the exhaustive pair generator below (n = 2..10).  The
# rule-free counts first exceed the CAB-rule counts at n = 6, where the
# single pair (ACAB, AA) violates the run condition.
PAIR_COUNTS_NONE = (1, 6, 26, 102, 387, 1452, 5428, 20268, 75653)
PAIR_COUNTS_CAB = (1, 6, 26, 102, 386, 1441, 5353, 19854, 73612)
PAIR_COUNTS_CABB = (1, 6, 26, 102, 386, 1441, 5352, 19842, 73524)
PAIR_COUNTS_RUN = (1, 6, 26, 102, 386, 1441, 5352, 19842, 73523)

RULE_CABB = PairRule.CAB_NEEDS_B | PairRule.CABB_NEEDS_BB

words = st.text(alphabet=ALPHABET, min_size=0, max_size=10)


class TestFactorsAndSegments:
    def test_has_cb_factor(self):
        assert has_cb_factor("ACBA")
        assert has_cb_factor("CCCB")
        assert not has_cb_factor("ABCA")
        assert not has_cb_factor("CCC")
        assert not has_cb_factor("")

    def test_segments_split_before_each_a(self):
        assert segments("ABACDBD") == ["AB", "ACDBD"]
        assert segments("A") == ["A"]
        assert segments("AAA") == ["A", "A", "A"]

    def test_segments_drop_leading_non_a(self):
        assert segments("CDAB") == ["AB"]
        assert segments("CD") == []
        with pytest.warns(UserWarning):
            segments("CDAB", warn_on_prefix=True)

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_segments_reassemble(self, v):
        parts = segments(v)
        first_a = v.find("A")
        assert "".join(parts) == ("" if first_a < 0 else v[first_a:])
        for part in parts:
            assert part.startswith("A")
            assert "A" not in part[1:]


class TestCounts:
    def test_segment_counts(self):
        assert [count_segments_nocb(n) for n in range(1, 8)] == [
            1, 3, 8, 21, 55, 144, 377,
        ]

    def test_segment_counts_by_enumeration(self):
        for n in range(1, 9):
            found = sum(
                1
                for tail in itertools.product("BCD", repeat=n - 1)
                if not has_cb_factor("A" + "".join(tail))
            )
            assert count_segments_nocb(n) == found

    def test_nocb_word_counts(self):
        assert [count_nocb_words(n) for n in range(6)] == [1, 4, 15, 56, 209, 780]

    def test_nocb_word_counts_by_enumeration(self):
        for n in range(7):
            found = sum(
                1
                for letters in itertools.product(ALPHABET, repeat=n)
                if not has_cb_factor("".join(letters))
            )
            assert count_nocb_words(n) == found


class TestCabRuns:
    def test_run_lengths(self):
        # Runs are indexed from the rightmost A leftwards.
        assert cab_run_length("ACABBA", 1) == 0
        assert cab_run_length("ACABBA", 2) == 2
        assert cab_run_length("ACABBA", 3) == 0
        assert cab_run_length("ACABBCAB", 1) == 1
        assert cab_run_length("ACAB", 1) == 1

    def test_run_requires_immediate_c(self):
        assert cab_run_length("ADAB", 1) == 0
        assert cab_run_length("ACDAB", 1) == 0

    def test_run_stops_at_non_b(self):
        assert cab_run_length("ACABBD", 1) == 2
        assert cab_run_length("ACABBC", 1) == 2

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            cab_run_length("AB", 2)
        with pytest.raises(ValueError):
            cab_run_length("AB", 0)


class TestCheckPair:
    def test_base_conditions(self):
        assert check_pair("A", "A")
        assert not check_pair("B", "A")
        assert not check_pair("A", "B")
        assert not check_pair("AA", "A")
        assert not check_pair("ACB", "AAB")  # CB factor in w
        assert not check_pair("AAB", "ACB")  # CB factor in z

    def test_unequal_a_counts_rejected(self):
        assert not check_pair("AAB", "ABB")

    def test_cab_rule(self):
        # w has a CAB run at its last A; the matching z segment is the
        # first one and must contain a B.
        w = "ACAB"
        assert check_pair(w, "ABAC")
        assert not check_pair(w, "ACAB", PairRule.CAB_NEEDS_B)
        assert check_pair(w, "ABAC", PairRule.CAB_NEEDS_B)

    def test_cabb_rule(self):
        w = "ACABB"  # run of length 2 at its last A
        assert check_pair(w, "ABACC", PairRule.CAB_NEEDS_B)  # one B satisfies CAB
        assert not check_pair(w, "ABACC", RULE_CABB)  # CABB wants two
        assert check_pair(w, "ABBAC", RULE_CABB)
        assert check_pair(w, "ABBAC", PairRule.RUN_NEEDS_MATCH)

    def test_run_rule_counts_bs(self):
        w = "ACABBB"
        z_two = "ABBACC"
        z_three = "ABBBAC"
        assert check_pair(w, z_two, RULE_CABB)
        assert not check_pair(w, z_two, PairRule.RUN_NEEDS_MATCH)
        assert check_pair(w, z_three, PairRule.RUN_NEEDS_MATCH)

    def test_rules_align_runs_from_right_with_segments_from_left(self):
        # w's CAB run sits at its second A from the left, which is the
        # third from the right, so it constrains z's third segment from
        # the left.  A left-to-left pairing would flip both verdicts.
        w = "ACABAA"  # runs, rightmost A first: (0, 0, 1, 0)
        assert check_pair(w, "AAABBA", PairRule.RUN_NEEDS_MATCH)
        assert not check_pair(w, "AABBAA", PairRule.RUN_NEEDS_MATCH)

    def test_non_word_rejected(self):
        with pytest.raises(ValueError):
            check_pair("AXB", "AB")


class TestPairCounting:
    def test_frozen_counts(self):
        for i, n in enumerate(range(2, 11)):
            assert brute_count_pairs(n) == PAIR_COUNTS_NONE[i]
            assert brute_count_pairs(n, PairRule.CAB_NEEDS_B) == PAIR_COUNTS_CAB[i]
            assert brute_count_pairs(n, RULE_CABB) == PAIR_COUNTS_CABB[i]
            assert (
                brute_count_pairs(n, PairRule.RUN_NEEDS_MATCH) == PAIR_COUNTS_RUN[i]
            )

    def test_signature_tables_match_literal_loop(self):
        for n in range(2, 9):
            for rule in (
                PairRule.NONE,
                PairRule.CAB_NEEDS_B,
                RULE_CABB,
                PairRule.RUN_NEEDS_MATCH,
            ):
                literal = sum(
                    1 for w, z in _all_pairs(n) if check_pair(w, z, rule)
                )
                assert brute_count_pairs(n, rule) == literal, (n, rule)

    def test_signature_tables_match_word_by_word_oracle(self):
        # Independent oracle for the table DP: the signature of every
        # CB-free word starting with A, read off the word itself.
        tables = _tables_up_to(9)
        for length in range(1, 10):
            w_sigs: dict[tuple[int, ...], int] = {}
            z_sigs: dict[tuple[int, ...], int] = {}
            for v in _words(length):
                w_key = tuple(_cab_runs(v))  # rightmost A first
                z_key = tuple(s.count("B") for s in segments(v))
                w_sigs[w_key] = w_sigs.get(w_key, 0) + 1
                z_sigs[z_key] = z_sigs.get(z_key, 0) + 1
            assert tables.w_sigs[length] == w_sigs, length
            assert tables.z_sigs[length] == z_sigs, length

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_count_pairs(17)
        with pytest.raises(ValueError):
            brute_count_pairs(1)


class TestLemmaOnAvoiders:
    def test_reports_clean_at_small_sizes(self):
        for n in range(0, 8):
            for which in ("cab", "cabb", "cab_k"):
                report = verify_lemma_on_avoiders(n, which)
                assert report.ok, report
                assert report.violations == ()

    def test_checked_counts_match_avoider_counts(self):
        report = verify_lemma_on_avoiders(7)
        assert report.checked == 2762
        assert report.rule == "cab_k"

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_lemma_on_avoiders(3, "nope")
        with pytest.raises(ValueError):
            verify_lemma_on_avoiders(11)

    def test_encoded_pairs_satisfy_strongest_rule(self, avoiders_by_n):
        for n in range(1, 8):
            for p in avoiders_by_n[n]:
                w, z = encode(p)
                assert check_pair(w, z, PairRule.RUN_NEEDS_MATCH), p
