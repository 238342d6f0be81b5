from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import inf

import pytest

from permwords import (
    IntPolynomial,
    PairRule,
    brute_count_pairs,
    check_pair,
    count_nocb_words,
    count_segments_nocb,
    encode,
    enumerate_avoiders,
    expand,
    verify_lemma_on_avoiders,
    wordlang,
)
from permwords.series import rf
from permwords.wordlang import (
    ALPHABET,
    PAIR_CAP,
    _b_counts,
    _cab_runs,
    _segment_classes,
)


# Frozen against the exhaustive pair generator below (n = 2..10).  The
# rule-free counts first exceed the CAB-rule counts at n = 6, where the
# single pair (ACAB, AA) violates the run condition.
PAIR_COUNTS_NONE = (1, 6, 26, 102, 387, 1452, 5428, 20268, 75653)
PAIR_COUNTS_CAB = (1, 6, 26, 102, 386, 1441, 5353, 19854, 73612)
PAIR_COUNTS_CABB = (1, 6, 26, 102, 386, 1441, 5352, 19842, 73524)
PAIR_COUNTS_RUN = (1, 6, 26, 102, 386, 1441, 5352, 19842, 73523)


def rule_admits(rules: PairRule, run: int, bs: int) -> bool:
    """Whether a CAB run of `run` Bs passes against a matched segment of `bs` Bs.

    The rules as PairRule's docstring states them: the screen's oracle.
    """
    return not (
        (PairRule.CAB_NEEDS_B in rules and run >= 1 and bs < 1)
        or (PairRule.CABB_NEEDS_BB in rules and run >= 2 and bs < 2)
        or (PairRule.RUN_NEEDS_MATCH in rules and bs < run)
    )


RULE_CABB = PairRule.CAB_NEEDS_B | PairRule.CABB_NEEDS_BB
RULE_SETS = (PairRule.NONE, PairRule.CAB_NEEDS_B, RULE_CABB, PairRule.RUN_NEEDS_MATCH)


def words(length: int) -> Iterator[str]:
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


def all_pairs(n: int) -> Iterator[tuple[str, str]]:
    """Every (w, z) with |w|+|z| = n, both CB-free and starting with A."""
    for a in range(1, n):
        for w in words(a):
            for z in words(n - a):
                yield w, z


class TestCounts:
    def test_segment_counts(self):
        assert count_segments_nocb(7) == [0, 1, 3, 8, 21, 55, 144, 377]

    def test_segment_counts_by_enumeration(self):
        found = [0] + [
            sum(
                1
                for tail in itertools.product("BCD", repeat=n - 1)
                if "CB" not in "A" + "".join(tail)
            )
            for n in range(1, 9)
        ]
        assert count_segments_nocb(8) == found

    def test_nocb_word_counts(self):
        assert count_nocb_words(5) == [1, 4, 15, 56, 209, 780]

    def test_nocb_word_counts_by_enumeration(self):
        found = [
            sum(
                1
                for letters in itertools.product(ALPHABET, repeat=n)
                if "CB" not in "".join(letters)
            )
            for n in range(7)
        ]
        assert count_nocb_words(6) == found

    def test_rows_start_at_length_0(self):
        assert count_segments_nocb(0) == [0]  # a segment holds its A
        assert count_nocb_words(0) == [1]  # the empty word
        for count in (count_segments_nocb, count_nocb_words):
            with pytest.raises(ValueError):
                count(-1)


class TestCabRuns:
    def test_run_lengths(self):
        # Runs are listed from the rightmost A leftwards.
        assert _cab_runs("ACABBA") == [0, 2, 0]
        assert _cab_runs("ACABBCAB") == [1, 2, 0]
        assert _cab_runs("ACAB") == [1, 0]
        assert _cab_runs("AB") == [0]

    def test_run_requires_immediate_c(self):
        assert _cab_runs("ADAB") == [0, 0]
        assert _cab_runs("ACDAB") == [0, 0]

    def test_run_stops_at_non_b(self):
        assert _cab_runs("ACABBD") == [2, 0]
        assert _cab_runs("ACABBC") == [2, 0]

    def test_matches_per_a_loop_on_every_short_word(self):
        # Oracle for the split-based kernel: walk to each A and count the
        # Bs after it when a C sits right before it.
        def literal(v: str) -> list[int]:
            runs = []
            for i in range(len(v) - 1, -1, -1):
                if v[i] != "A":
                    continue
                run = 0
                if i > 0 and v[i - 1] == "C":
                    while i + 1 + run < len(v) and v[i + 1 + run] == "B":
                        run += 1
                runs.append(run)
            return runs

        for length in range(8):
            for letters in itertools.product(ALPHABET, repeat=length):
                v = "".join(letters)
                assert _cab_runs(v) == literal(v), v


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
        for w, z in (("AB", "AXB"), ("AR", "A"), ("A", "a"), ("A B", "AB")):
            for rules in (PairRule.NONE, PairRule.RUN_NEEDS_MATCH):
                with pytest.raises(ValueError, match="not a word over ABCD"):
                    check_pair(w, z, rules)

    def test_rules_must_be_a_pair_rule(self):
        # An int or a name is not a rule set, not even 0, which a truth
        # test alone would take for no rule.
        for rules in (0, 1, "cab"):
            with pytest.raises(TypeError, match="must be a PairRule"):
                check_pair("A", "A", rules)
            with pytest.raises(TypeError, match="must be a PairRule"):
                brute_count_pairs(5, rules)

    def test_rule_sets_form_a_chain(self):
        assert PairRule.CAB_NEEDS_B | PairRule.CABB_NEEDS_BB == PairRule.CABB_NEEDS_BB
        assert PairRule.CAB_NEEDS_B in PairRule.RUN_NEEDS_MATCH
        assert PairRule.CABB_NEEDS_BB in PairRule.RUN_NEEDS_MATCH

    def test_only_the_chain_values_are_rules(self):
        # No nameless members: the screen reads only the top bit (through
        # _NEED_BY_TOP_BIT), so PairRule(2) would screen as the CABB rule and
        # PairRule(4) as the run rule.
        for v in range(8):
            if v in (0, 1, 3, 7):
                assert PairRule(v).value == v and PairRule(v).name
            else:
                with pytest.raises(ValueError):
                    PairRule(v)

    def test_rule_bits_match_the_flag_definitions(self):
        # Every combination of flags, every run and B count up to 4,
        # against the rules as PairRule's docstring states them.  w's
        # middle A follows a C, so its run meets z's middle segment; the
        # other two blocks pass every rule.
        flags = (PairRule.CAB_NEEDS_B, PairRule.CABB_NEEDS_BB, PairRule.RUN_NEEDS_MATCH)
        for chosen in itertools.product((False, True), repeat=3):
            rules = PairRule.NONE
            for flag, on in zip(flags, chosen):
                if on:
                    rules |= flag
            for run, bs in itertools.product(range(5), repeat=2):
                w = "ACA" + "B" * run + "A"
                z = "A" + "B" * 5 + "A" + "B" * bs + "A"
                assert check_pair(w, z, rules) == rule_admits(rules, run, bs), (rules, run, bs)


class TestPairCounting:
    def test_frozen_counts(self):
        assert brute_count_pairs(10) == [0, 0, *PAIR_COUNTS_NONE]
        assert brute_count_pairs(10, PairRule.CAB_NEEDS_B) == [0, 0, *PAIR_COUNTS_CAB]
        assert brute_count_pairs(10, RULE_CABB) == [0, 0, *PAIR_COUNTS_CABB]
        assert brute_count_pairs(10, PairRule.RUN_NEEDS_MATCH) == [0, 0, *PAIR_COUNTS_RUN]

    def test_block_dp_matches_literal_loop(self):
        for rule in RULE_SETS:
            literal = [sum(1 for w, z in all_pairs(n) if check_pair(w, z, rule)) for n in range(9)]
            assert brute_count_pairs(8, rule) == literal, rule

    def test_every_row_is_a_prefix_of_the_longer_rows(self):
        # A DP sized for n must count every shorter total as a DP sized
        # for that total does; no pair word is shorter than "A".
        for rule in RULE_SETS:
            rows = {n: brute_count_pairs(n, rule) for n in range(2, 17)}
            for n, row in rows.items():
                assert len(row) == n + 1 and row[:2] == [0, 0], (rule, n)
                for m in range(2, n + 1):
                    assert row[: m + 1] == rows[m], (rule, m, n)
        for count in (count_segments_nocb, count_nocb_words):
            rows = [count(n) for n in range(17)]
            for n, row in enumerate(rows):
                assert all(row[: m + 1] == rows[m] for m in range(n + 1)), (count, n)

    def test_segment_classes_match_segment_by_segment_oracle(self):
        # Independent oracle for the segment DP: the run, the end-in-C bit
        # and the B count of every CB-free segment, read off the string.
        def as_classes(by_end):  # the DP's two lists as {(key, ends in C): count}
            return {
                (key, ends_c): count
                for ends_c, counts in zip((False, True), by_end)
                for key, count in enumerate(counts)
                if count
            }

        for cap in (0, 1, 2, inf):
            w_dp = _segment_classes(9, False, cap)
            z_dp = _segment_classes(9, True, cap)
            for length in range(10):
                w_classes: dict[tuple[int, bool], int] = {}
                z_classes: dict[tuple[int, bool], int] = {}
                for seg in (v for v in words(length) if v.count("A") == 1):
                    tail = seg[1:]
                    run = len(tail) - len(tail.lstrip("B"))
                    w_key = min(run, cap), seg.endswith("C")
                    z_key = min(seg.count("B"), cap), seg.endswith("C")
                    w_classes[w_key] = w_classes.get(w_key, 0) + 1
                    z_classes[z_key] = z_classes.get(z_key, 0) + 1
                assert as_classes(w_dp[length]) == w_classes, (cap, length)
                assert as_classes(z_dp[length]) == z_classes, (cap, length)

    def test_rule_free_counts_follow_their_series(self):
        # Need 0 leaves every block free: x^2 / ((1 - 4x + x^2) (1 - x)^2).
        den = IntPolynomial((1, -4, 1)) * IntPolynomial((1, -2, 1))
        assert brute_count_pairs(PAIR_CAP) == expand(rf(IntPolynomial((0, 0, 1)), den), PAIR_CAP)

    def test_cap_enforced(self):
        assert brute_count_pairs(PAIR_CAP, PairRule.RUN_NEEDS_MATCH)[PAIR_CAP] > 0
        with pytest.raises(ValueError):
            brute_count_pairs(PAIR_CAP + 1)
        with pytest.raises(ValueError):
            brute_count_pairs(1)


class TestLemmaOnAvoiders:
    def test_reports_clean_at_small_sizes(self):
        for n in range(0, 8):
            report = verify_lemma_on_avoiders(n)
            assert report.ok, report
            assert report.violations == {"cab": (), "cabb": (), "cab_k": ()}

    def test_checked_counts_match_avoider_counts(self):
        report = verify_lemma_on_avoiders(7)
        assert report.checked == 2762
        assert report.n == 7

    def test_violations_are_keyed_by_rule(self, monkeypatch):
        # ACAB has a CAB run; AA's segments have no B, so the CAB rules
        # reject the pair while the base test alone would pass it.
        monkeypatch.setattr(wordlang, "encode", lambda p: ("ACAB", "AA"))
        report = verify_lemma_on_avoiders(2)
        assert not report.ok
        assert report.checked == 2
        for rule in ("cab", "cabb", "cab_k"):
            assert report.violations[rule] == (("12", "ACAB", "AA"), ("21", "ACAB", "AA"))

    def test_one_pass_verdicts_match_the_threshold_test(self, monkeypatch):
        # The sweep settles all three rules from the fewest Bs of a segment
        # below its run; the oracle tests each rule on each block as
        # PairRule's docstring states it.
        rules = {
            "cab": PairRule.CAB_NEEDS_B,
            "cabb": PairRule.CABB_NEEDS_BB,
            "cab_k": PairRule.RUN_NEEDS_MATCH,
        }

        def expected(n: int, pairs: list[tuple[str, str]]) -> dict:
            found: dict[str, list] = {name: [] for name in rules}
            for p, (w, z) in zip(enumerate_avoiders(n, (1, 3, 2, 4)), pairs):
                blocks = list(zip(_cab_runs(w), _b_counts(z)))
                for name, rule in rules.items():
                    if not all(rule_admits(rule, run, bs) for run, bs in blocks):
                        found[name].append((str(p), w, z))
            return {name: tuple(v) for name, v in found.items()}

        for n in range(1, 9):
            pairs = [encode(p) for p in enumerate_avoiders(n, (1, 3, 2, 4))]
            assert verify_lemma_on_avoiders(n).violations == expected(n, pairs), n
        # Crafted pairs give the two rightmost CAB runs of w and the first
        # two segments of z every (run, bs) in 0..4 x 0..4, in every
        # combination; the 2,762 avoiders of length 7 take them in turn.
        crafted = [
            ("ACA" + "B" * r2 + "CA" + "B" * r1, "A" + "B" * b1 + "A" + "B" * b2 + "A")
            for r1, b1, r2, b2 in itertools.product(range(5), repeat=4)
        ]
        # The sweep skips the run pass when w holds no CAB: here w holds CA
        # followed by A, C or D but no CAB, and z holds CAB or not.
        for t, u in itertools.product(("", "A", "C", "D", "AB", "DB"), repeat=2):
            w = "ACA" + t + "CA" + u
            rest = "A" * (w.count("A") - 2)
            for b1, b2 in itertools.product(range(3), repeat=2):
                bs1, bs2 = "B" * b1, "B" * b2
                crafted += [(w, "A" + bs1 + "A" + bs2 + rest), (w, "A" + bs1 + "CAB" + bs2 + rest)]
        assert all(check_pair(w, z) and "CAB" not in w for w, z in crafted[625:])
        assert any("CAB" in z for _, z in crafted[625:])
        stream = itertools.cycle(crafted)
        monkeypatch.setattr(wordlang, "encode", lambda p: next(stream))
        pairs = list(itertools.islice(itertools.cycle(crafted), 2762))
        violations = verify_lemma_on_avoiders(7).violations
        assert violations == expected(7, pairs)
        # Each rule set rejects some crafted pairs that the one before admits.
        assert 0 < len(violations["cab"]) < len(violations["cabb"]) < len(violations["cab_k"])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_lemma_on_avoiders(11)

    def test_encoded_pairs_satisfy_strongest_rule(self, avoiders_by_n):
        for n in range(1, 8):
            for p in avoiders_by_n[n]:
                w, z = encode(p)
                assert check_pair(w, z, PairRule.RUN_NEEDS_MATCH), p
