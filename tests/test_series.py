from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permwords import (
    NOCB_WORD_SERIES,
    PAIR_SERIES_CAB,
    PAIR_SERIES_CABB,
    PAIR_SERIES_CAB_RUN,
    SEGMENT_SERIES,
    IntPolynomial,
    RationalFunction,
    count_nocb_words,
    count_segments_nocb,
    expand,
    rf_equal,
    verify_functional_equations,
)
from permwords.roots import _scaled_value
from permwords.series import ONE, X, rf

# Coefficients 2..14 of the three pair series, frozen against
# brute_count_pairs with the matching rule sets.
CAB_COEFFS = (1, 6, 26, 102, 386, 1441, 5353, 19854, 73612, 272940,
              1012137, 3753696, 13922343)
CABB_COEFFS = (1, 6, 26, 102, 386, 1441, 5352, 19842, 73524, 272425,
               1009481, 3741026, 13864914)
RUN_COEFFS = (1, 6, 26, 102, 386, 1441, 5352, 19842, 73523, 272412,
              1009378, 3740381, 13861393)

small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(-9, 9), min_size=0, max_size=5).map(tuple),
)
small_rationals = st.builds(
    RationalFunction, small_polys, small_polys.filter(lambda p: p.coefficient(0) != 0)
)
operands = st.one_of(small_rationals, st.integers(-9, 9), small_polys)


def longdiv_expand(f: RationalFunction, order: int) -> list[Fraction]:
    """Power-series long division, written independently of expand()."""
    num = [Fraction(f.num.coefficient(i)) for i in range(order + 1)]
    den = [Fraction(f.den.coefficient(i)) for i in range(order + 1)]
    out: list[Fraction] = []
    for m in range(order + 1):
        acc = num[m] - sum(den[j] * out[m - j] for j in range(1, m + 1))
        out.append(acc / den[0])
    return out


class TestIntPolynomial:
    def test_strips_trailing_zeros(self):
        assert IntPolynomial((1, 0, 0)).coeffs == (1,)
        assert IntPolynomial((0,)).coeffs == ()
        assert not IntPolynomial(())

    def test_rejects_non_integer_coefficients(self):
        # int() used to truncate them silently (3/2 to 1, a scalar 1/2 to 0);
        # an integral Fraction or float is no integer either.
        for bad in (Fraction(3, 2), Fraction(4, 2), 1.5, 2.0):
            with pytest.raises(TypeError):
                IntPolynomial((bad,))
        for scaled in (
            lambda: rf(1) * Fraction(1, 2),
            lambda: rf(Fraction(1, 2)),
            lambda: IntPolynomial((1, 2)) * Fraction(1, 2),
        ):
            with pytest.raises(TypeError):
                scaled()
        assert IntPolynomial((True, 2)).coeffs == (1, 2)

    def test_degree_and_coefficient(self):
        p = IntPolynomial((1, -3, 1))
        assert p.degree == 2
        assert p.coefficient(1) == -3
        assert p.coefficient(10) == 0

    def test_arithmetic(self):
        p = IntPolynomial((1, -3, 1))
        assert (p - ONE).coeffs == (0, -3, 1)
        assert (-p).coeffs == (-1, 3, -1)
        assert (p * 2).coeffs == (2, -6, 2)
        assert 2 * p == p * 2

    def test_derivative(self):
        assert IntPolynomial((1, -3, 1)).derivative().coeffs == (-3, 2)
        assert not ONE.derivative()

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=200, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert p + q == q + p
        assert (p - q) + q == p

    @given(small_polys, small_polys, st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_evaluation_is_a_homomorphism(self, p, q, x):
        # _scaled_value(f, x, 1) is exactly f(x)
        assert _scaled_value(p * q, x, 1) == _scaled_value(p, x, 1) * _scaled_value(q, x, 1)
        assert _scaled_value(p + q, x, 1) == _scaled_value(p, x, 1) + _scaled_value(q, x, 1)


class TestRationalFunction:
    def test_rejects_zero_den_constant_term(self):
        with pytest.raises(ValueError):
            RationalFunction(ONE, X)

    def test_rejects_non_polynomial_parts(self):
        # A Fraction or a tuple as num or den would construct and only fail
        # later, inside expand.
        for bad in (
            lambda: RationalFunction(Fraction(1, 2)),
            lambda: RationalFunction((1, 2)),
            lambda: RationalFunction(ONE, (1, 2)),
        ):
            with pytest.raises(TypeError, match="IntPolynomials"):
                bad()

    def test_int_and_polynomial_on_the_left(self):
        # Each reflected form equals its right-hand form.
        x = rf(X, ONE - X)
        p = IntPolynomial((3, -1, 2))
        assert 2 * x == x * 2
        assert 1 + x == x + 1
        assert expand(1 - x, 4) == expand(-x + 1, 4) == [1, -1, -1, -1, -1]
        assert p * x == x * p
        assert p + x == x + p
        assert expand(p - x, 6) == expand(-x + p, 6)
        for bad in (lambda: Fraction(1, 2) * x, lambda: 1.5 - x, lambda: 0.5 + x):
            with pytest.raises(TypeError):
                bad()

    def test_equality_cross_multiplies(self):
        half = rf(X, IntPolynomial((2,)) * (ONE - X))
        also_half = rf(X * 2, IntPolynomial((4,)) * (ONE - X))
        assert half == also_half
        assert rf_equal(half, also_half)
        assert half != rf(X, ONE - X)

    def test_is_unhashable(self):
        # Equal unreduced forms would hash apart, so a set or dict could
        # hold one function twice; equality by cross-multiplication has no
        # matching hash.
        half = rf(X, IntPolynomial((2,)) * (ONE - X))
        also_half = rf(X * 2, IntPolynomial((4,)) * (ONE - X))
        for f in (half, also_half):
            with pytest.raises(TypeError):
                hash(f)

    @given(small_rationals, operands, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_subtraction_keeps_the_cross_multiplied_form(self, f, other, other_first):
        # A pairs-*-identity detail prints this form as its residual numerator.
        f, g = (other, f) if other_first else (f, other)
        diff = f - g
        f, g = (v if isinstance(v, RationalFunction) else rf(v) for v in (f, g))
        assert diff.num.coeffs == (f.num * g.den - g.num * f.den).coeffs
        assert diff.den.coeffs == (f.den * g.den).coeffs

    def test_arithmetic(self):
        a = rf(ONE, ONE - X)
        b = rf(X, ONE - X)
        assert a - b == rf(ONE)
        assert a * (ONE - X) == rf(ONE)
        assert a / a == rf(ONE)


class TestExpand:
    def test_matches_long_division(self):
        cases = [
            SEGMENT_SERIES,
            NOCB_WORD_SERIES,
            PAIR_SERIES_CAB,
            PAIR_SERIES_CABB,
            PAIR_SERIES_CAB_RUN,
            rf(IntPolynomial((3, 1)), IntPolynomial((2, 0, -1, 5))),
        ]
        for f in cases:
            mine = expand(f, 20)
            theirs = longdiv_expand(f, 20)
            assert [Fraction(c) for c in mine] == theirs

    def test_integer_coefficients_stay_ints(self):
        unit_leads = [SEGMENT_SERIES, PAIR_SERIES_CAB, rf(X, IntPolynomial((-1, 3)))]
        for f in unit_leads:
            for c in expand(f, 20):
                assert type(c) is int, (f, c)

    def test_non_unit_leading_coefficient_gives_fractions(self):
        # 1/(2-x) = sum x^m / 2^(m+1): no coefficient is integral.
        for c in expand(rf(1, IntPolynomial((2, -1))), 10):
            assert type(c) is Fraction and c.denominator > 1
        # 2/(2-2x) = 1/(1-x): integral values still come back as ints.
        ones = expand(rf(2, IntPolynomial((2, -2))), 5)
        assert ones == [1] * 6 and all(type(c) is int for c in ones)

    def test_segment_series_counts_segments(self):
        assert expand(SEGMENT_SERIES, 10) == count_segments_nocb(10)

    def test_nocb_series_counts_words(self):
        assert expand(NOCB_WORD_SERIES, 10) == count_nocb_words(10)


class TestPinnedClosedForms:
    def test_segment_series(self):
        assert SEGMENT_SERIES.num.coeffs == (0, 1)
        assert SEGMENT_SERIES.den.coeffs == (1, -3, 1)

    def test_nocb_series(self):
        assert NOCB_WORD_SERIES.num.coeffs == (1,)
        assert NOCB_WORD_SERIES.den.coeffs == (1, -4, 1)

    def test_pair_series_cab(self):
        assert PAIR_SERIES_CAB.num.coeffs == (0, 0, 1, -2)
        assert PAIR_SERIES_CAB.den.coeffs == (1, -8, 22, -26, 14, -5, 1)

    def test_pair_series_cabb(self):
        assert PAIR_SERIES_CABB.num.coeffs == (0, 0, 1, -4, 4)
        assert PAIR_SERIES_CABB.den.coeffs == (
            1, -10, 38, -70, 66, -33, 12, -6, 4, -1,
        )

    def test_pair_series_cab_run(self):
        assert PAIR_SERIES_CAB_RUN.num.coeffs == (0, 0, 1, -2, -1, 1)
        assert PAIR_SERIES_CAB_RUN.den.coeffs == (1, -8, 21, -19, -2, 11, -6, 1)

    def test_frozen_expansions(self):
        assert tuple(expand(PAIR_SERIES_CAB, 14)[2:]) == CAB_COEFFS
        assert tuple(expand(PAIR_SERIES_CABB, 14)[2:]) == CABB_COEFFS
        assert tuple(expand(PAIR_SERIES_CAB_RUN, 14)[2:]) == RUN_COEFFS

    def test_series_are_ordered(self):
        h = expand(PAIR_SERIES_CAB, 20)
        k = expand(PAIR_SERIES_CABB, 20)
        t = expand(PAIR_SERIES_CAB_RUN, 20)
        for n in range(2, 21):
            assert t[n] <= k[n] <= h[n]


class TestFunctionalEquations:
    def test_statuses_and_outcomes(self):
        checks = {c.name: c for c in verify_functional_equations()}
        assert set(checks) == {"pairs-cab", "pairs-cabb", "pairs-cab-run"}
        assert checks["pairs-cab"].status == "exact"
        assert checks["pairs-cab"].residual_num == ()
        assert checks["pairs-cabb"].status == "exact"
        assert checks["pairs-cabb"].residual_num == ()
        assert checks["pairs-cab-run"].status == "unverifiable-as-printed"
        assert checks["pairs-cab-run"].residual_num is None
        # Only an identity that was replayed can pass here.
        assert [c.ok for c in checks.values()] == [True, True, False]

    def test_pure_algebra(self):
        # Replaying the equations counts no pairs, so it never loads the word
        # layer.  The package imports every module, so series.py is loaded
        # on its own.
        code = (
            "import importlib.util, os, sys\n"
            "root = importlib.util.find_spec('permwords').submodule_search_locations[0]\n"
            "path = os.path.join(root, 'series.py')\n"
            "spec = importlib.util.spec_from_file_location('permwords.series', path)\n"
            "series = sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(series)\n"
            "assert len(series.verify_functional_equations()) == 3\n"
            "assert 'permwords.wordlang' not in sys.modules, sorted(sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
