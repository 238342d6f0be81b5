from __future__ import annotations

import functools
import math
import random
import re
from collections.abc import Callable
from fractions import Fraction

import pytest

from permwords import (
    NOCB_WORD_SERIES,
    PAIR_SERIES_CAB,
    PAIR_SERIES_CABB,
    PAIR_SERIES_CAB_RUN,
    SEGMENT_SERIES,
    IntPolynomial,
    RootEstimate,
    certified_smallest_root,
    growth_bound,
    refine_real_root,
    roots,
)
from permwords import cli
from permwords.cli import BOUND_ROWS
from permwords.roots import (
    PRECISION,
    CertificateError,
    _scaled_value,
    _zeros_inside,
    all_roots,
    is_square_free,
)
from permwords.series import _gcd, rf


def linear(root: int) -> IntPolynomial:
    return IntPolynomial((-root, 1))


class TestAllRoots:
    def test_distinct_integer_roots(self):
        p = linear(1) * linear(2) * linear(3)
        found = all_roots(p)
        assert len(found) == 3
        for z, expected in zip(found, (1, 2, 3)):
            assert abs(z - expected) < 1e-8

    def test_conjugate_pair(self):
        found = all_roots(IntPolynomial((1, 0, 1)))
        assert sorted(z.imag for z in found) == pytest.approx([-1.0, 1.0])
        assert all(abs(z.real) < 1e-10 for z in found)

    def test_degree_one(self):
        assert all_roots(IntPolynomial((3, 2))) == [-1.5 + 0j]

    def test_residuals_are_small(self):
        p = PAIR_SERIES_CAB.den
        scale = sum(abs(c) for c in p.coeffs)
        for z in all_roots(p):
            value = functools.reduce(lambda v, c: v * z + c, reversed(p.coeffs), 0j)  # p(z)
            assert abs(value) < 1e-8 * scale

    def test_sorted_by_modulus(self):
        mods = [abs(z) for z in all_roots(PAIR_SERIES_CABB.den)]
        assert mods == sorted(mods)


def fraction_value(p: IntPolynomial, x: Fraction) -> Fraction:
    return sum((c * x**i for i, c in enumerate(p.coeffs)), Fraction(0))


def reference_refine(p: IntPolynomial, lo: Fraction, hi: Fraction) -> RootEstimate:
    """The oracle of `refine_real_root`: the same bisection on Fractions.

    Each midpoint is a reduced Fraction and each sign that of p there,
    evaluated in Fractions, so it shares no arithmetic with the int
    bisection; the midpoints, and so the result, must be the same.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    f_lo, f_hi = fraction_value(p, lo), fraction_value(p, hi)
    if f_lo * f_hi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: p has one sign at both")
    if f_lo * f_hi == 0:
        lo = hi = lo if f_lo == 0 else hi
    width = Fraction(2 * PRECISION)
    while hi - lo > width:
        mid = (lo + hi) / 2
        f_mid = fraction_value(p, mid)
        if f_mid == 0:
            lo = hi = mid
        elif (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    mid = (lo + hi) / 2
    radius = float((hi - lo) / 2) + abs(float(mid)) * 2.3e-16 + 5e-324
    return RootEstimate(value=float(mid), radius=radius)


def random_polynomial(rng: random.Random) -> IntPolynomial:
    coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
    return IntPolynomial((*coeffs, rng.choice((-1, 1)) * rng.randint(1, 9)))


class TestScaledValue:
    def test_matches_fraction_evaluation(self):
        # b^n p(a/b), at positive and negative rationals, reduced or not.
        rng = random.Random(19)
        signs = set()
        for _ in range(500):
            p = random_polynomial(rng)
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            k = rng.randint(1, 3)
            a, b = k * x.numerator, k * x.denominator
            exact = b**p.degree * fraction_value(p, x)
            assert _scaled_value(p, a, b) == exact, (p, a, b)
            signs.add((x > 0) - (x < 0))
        assert signs == {-1, 0, 1}


class TestRefine:
    def test_matches_the_fraction_bisection(self):
        # Seeded brackets with a sign change: dyadic and non-dyadic
        # endpoints, given as ints or Fractions, on random polynomials and
        # the bound rows' denominators.
        rng = random.Random(19)
        cases = [
            (gf.den, Fraction(1, 4), Fraction(3, 10)) for _, gf, _, _ in BOUND_ROWS
        ]
        while len(cases) < 200:
            p = random_polynomial(rng)
            if rng.random() < 0.5:
                lo = Fraction(rng.randint(-64, 63), 2 ** rng.randint(0, 5))
                hi = lo + Fraction(rng.randint(1, 64), 2 ** rng.randint(0, 5))
            else:
                lo = Fraction(rng.randint(-60, 59), rng.choice((3, 5, 7, 21)))
                hi = lo + Fraction(rng.randint(1, 60), rng.choice((1, 9, 11, 35)))
            if fraction_value(p, lo) * fraction_value(p, hi) <= 0:
                cases.append((p, lo, hi))
        cases += [
            (IntPolynomial((-2, 0, 1)), 1, 2),  # ints
            (IntPolynomial((-2, 0, 1)), 1, Fraction(3, 2)),
            (IntPolynomial((3, -4)), 0, 1),  # a midpoint hits 3/4
        ]
        for p, lo, hi in cases:
            assert refine_real_root(p, lo, hi) == reference_refine(p, lo, hi), (p, lo, hi)

    def test_exact_zero_at_an_endpoint(self):
        # (2x - 1)(x - 3) on [1/2, 1]: p(1/2) = 0 ends the bisection at once.
        p = IntPolynomial((-1, 2)) * linear(3)
        est = refine_real_root(p, Fraction(1, 2), Fraction(1))
        assert est == reference_refine(p, Fraction(1, 2), Fraction(1))
        assert est.value == 0.5 and est.radius < 1e-15
        assert refine_real_root(p, 2, 3) == reference_refine(p, 2, 3)  # at hi

    def test_refusals_match_the_fraction_bisection(self):
        p = IntPolynomial((-2, 0, 1))
        for lo, hi in ((Fraction(3), Fraction(4)), (2, Fraction(5, 2)), (1, 1), (2, 1)):
            with pytest.raises(ValueError) as expected:
                reference_refine(p, lo, hi)
            with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
                refine_real_root(p, lo, hi)

    def test_sqrt2(self):
        est = refine_real_root(IntPolynomial((-2, 0, 1)), Fraction(1), Fraction(2))
        assert abs(est.value - math.sqrt(2)) <= est.radius + 5e-16
        assert est.radius < 1e-10

    def test_exact_hit(self):
        est = refine_real_root(IntPolynomial((-4, 0, 1)), Fraction(1), Fraction(3))
        assert est.value == 2.0
        assert est.radius < 1e-12

    def test_rejects_bracket_without_sign_change(self):
        with pytest.raises(ValueError):
            refine_real_root(IntPolynomial((-2, 0, 1)), Fraction(3), Fraction(4))


class TestSchurCohn:
    def test_count_matches_durand_kerner(self):
        """Durand-Kerner (`all_roots`) is the float oracle of the exact count.

        On seeded random integer polynomials of degree <= 9, the count in
        |x| < R equals the number of float moduli below R, for radii that
        no modulus comes within 1e-6 of.
        """
        rng = random.Random(9)
        compared = 0
        for _ in range(300):
            deg = rng.randint(1, 9)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)]
            coeffs[0] = coeffs[0] or 1
            coeffs.append(rng.choice((-1, 1)) * rng.randint(1, 9))
            p = IntPolynomial(tuple(coeffs))
            moduli = [abs(z) for z in all_roots(p)]
            for r in (Fraction(rng.randint(1, 300), 100) for _ in range(4)):
                if any(abs(m - r) <= 1e-6 for m in moduli):
                    continue
                assert _zeros_inside(p, r) == sum(m < r for m in moduli), (coeffs, r)
                compared += 1
        assert compared > 1000

    def test_count_matches_known_moduli(self):
        """Products of factors with known moduli are the exact oracle of the count.

        Each factor is b*x - a (modulus |a|/b) or x^2 + c*x + d with
        c^2 < 4d (a conjugate pair of modulus sqrt(d)), and some repeat.
        On 300 seeded products of degree <= 9, the count in |x| < R is
        the number of zeros, with multiplicity, of squared modulus below
        R^2; radii on a modulus are skipped.  A singular step (None)
        decides nothing, and must stay rare.
        """

        def known_factor() -> tuple[IntPolynomial, Fraction]:
            if rng.random() < 0.5:
                a, b = rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)
                return IntPolynomial((-a, b)), Fraction(a, b) ** 2
            d = rng.randint(1, 9)
            c = rng.choice([c for c in range(-5, 6) if c * c < 4 * d])
            return IntPolynomial((d, c, 1)), Fraction(d)

        rng = random.Random(9)
        compared = singular = repeated = 0
        for _ in range(300):
            factors: list[tuple[IntPolynomial, Fraction]] = []
            for _ in range(rng.randint(1, 5)):
                f = rng.choice(factors) if factors and rng.random() < 0.3 else known_factor()
                if sum(g.degree for g, _ in factors) + f[0].degree <= 9:
                    repeated += f in factors
                    factors.append(f)
            p = IntPolynomial((1,))
            for f, _ in factors:
                p = p * f
            for r in (Fraction(rng.randint(1, 300), 100) for _ in range(4)):
                if any(m == r * r for _, m in factors):
                    continue
                inside = sum(f.degree for f, m in factors if m < r * r)
                got = _zeros_inside(p, r)
                assert got in (inside, None), (factors, r)
                compared += got is not None
                singular += got is None
        assert compared > 1000 and singular <= 10 and repeated > 50

    def test_singular_steps_give_no_count(self):
        for p in (NOCB_WORD_SERIES.den, IntPolynomial((1, 0, 1))):
            assert _zeros_inside(p, Fraction(1)) is None


class TestCertificate:
    def test_segment_denominator(self):
        est = certified_smallest_root(SEGMENT_SERIES.den)
        assert abs(est.value - (3 - math.sqrt(5)) / 2) <= est.radius
        assert est.unique_smallest

    def test_no_positive_root(self):
        with pytest.raises(CertificateError):
            certified_smallest_root(IntPolynomial((1, 0, 1)))

    def test_refuses_negative_smallest_zero(self):
        p = IntPolynomial((1, 4)) * IntPolynomial((1, -1))
        with pytest.raises(CertificateError, match="not positive"):
            certified_smallest_root(p)

    def test_refuses_conjugate_pair_at_smallest_modulus(self):
        p = IntPolynomial((1, 0, 4)) * IntPolynomial((1, -1))
        with pytest.raises(CertificateError, match="exactly one zero"):
            certified_smallest_root(p)

    def test_proven_gap_holds_against_durand_kerner(self):
        # (1 - 4x)(3 - 4x)(1 + x^2): the first outward step lands on |x| = 1,
        # where +-i make the count singular; the gap must stop below 3/4.
        p = IntPolynomial((1, -4)) * IntPolynomial((3, -4)) * IntPolynomial((1, 0, 1))
        for q in (p, SEGMENT_SERIES.den, *(gf.den for _, gf, _, _ in BOUND_ROWS)):
            est = certified_smallest_root(q)
            second = abs(all_roots(q)[1])
            assert est.modulus_gap * (est.value + est.radius) <= second * (1 + 1e-12)

    def test_needs_no_float_roots(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the certificate must not call all_roots")

        monkeypatch.setattr(roots, "all_roots", refuse)
        for _, gf, _, _ in BOUND_ROWS:
            assert certified_smallest_root(gf.den).unique_smallest
            growth_bound(gf)
        assert certified_smallest_root(SEGMENT_SERIES.den).unique_smallest


class TestSquareFree:
    def test_detects_squares(self):
        assert not is_square_free(linear(1) * linear(1) * linear(-2))
        assert is_square_free(linear(1) * linear(2) * linear(3))
        for gf in (NOCB_WORD_SERIES, PAIR_SERIES_CAB, PAIR_SERIES_CABB,
                   PAIR_SERIES_CAB_RUN):
            assert is_square_free(gf.den)

    def test_certificate_refuses_a_repeated_smallest_zero(self):
        # The count, with multiplicity, jumps from 0 to 2 at |x| = 1, so no
        # radius holds exactly one zero.
        with pytest.raises(CertificateError):
            certified_smallest_root(linear(1) * linear(1) * linear(-2))

    def test_certificate_takes_a_square_beyond_the_smallest_zero(self):
        # (3x - 1)(x - 2)^2: the simple zero 1/3, then a double one at 2.
        est = certified_smallest_root(IntPolynomial((-1, 3)) * linear(2) * linear(2))
        assert abs(est.value - 1 / 3) <= est.radius
        assert 5.9 < est.modulus_gap <= 6

    def test_rule_free_pair_series_has_a_bound(self):
        # Need 0: x^2 / ((1 - 4x + x^2)(1 - x)^2), the square at x = 1.
        den = NOCB_WORD_SERIES.den * linear(1) * linear(1)
        est = certified_smallest_root(den)
        assert abs(est.value - (2 - math.sqrt(3))) <= est.radius
        assert 3.7 < est.modulus_gap <= 2 + math.sqrt(3)
        bound = growth_bound(rf(IntPolynomial((0, 0, 1)), den))
        assert abs(bound - 13.928203230) <= 1e-9


@pytest.fixture
def schur_counts(monkeypatch) -> list[int]:
    """Counts every Schur-Cohn count the certificates take."""
    counted = [0]
    count = roots._zeros_inside

    def counting(p: IntPolynomial, r: Fraction) -> int | None:
        counted[0] += 1
        return count(p, r)

    monkeypatch.setattr(roots, "_zeros_inside", counting)
    return counted


class TestOutwardSteps:
    """growth_bound widens only until the gap is proven, certified_smallest_root fully."""

    def test_bound_rows_take_few_counts(self, schur_counts):
        for name, gf, _, _ in BOUND_ROWS:
            schur_counts[0] = 0
            growth_bound(gf)
            assert schur_counts[0] <= 4, name

    def test_counts_per_command(self, schur_counts, capsys):
        # reproduce: the four bound rows; verify --suite roots: those and
        # the fully widened alpha-digits certificate.
        for argv, expected in ((["reproduce"], 12), (["verify", "--suite", "roots"], 26)):
            schur_counts[0] = 0
            assert cli.main(argv) == 0
            assert schur_counts[0] == expected, argv
        capsys.readouterr()

    def test_same_root_interval_as_the_full_certificate(self, monkeypatch):
        found = []
        certify = roots._certificate

        def recording(p: IntPolynomial, widen_fully: bool) -> RootEstimate:
            found.append(certify(p, widen_fully))
            return found[-1]

        monkeypatch.setattr(roots, "_certificate", recording)
        for name, gf, _, _ in BOUND_ROWS:
            bound = growth_bound(gf)
            (est,) = found
            full = certified_smallest_root(gf.den)
            found.clear()
            assert (est.value, est.radius) == (full.value, full.radius), name
            assert bound == (1.0 / full.value) ** 2
            assert est.modulus_gap <= full.modulus_gap

    def test_root_just_below_the_search_radius(self, schur_counts):
        # (m x - (m - 1))(x - 3): the root lies 1/m below the first search
        # radius 1, which holds it alone.  At m = 2^44 (5.7e-14) the root's
        # interval reaches past 1; at m = 5e12 (2e-13) it stays below 1,
        # but by less than the proof needs.  Either way that radius proves
        # no gap, and growth_bound takes exactly one outward step after
        # the one search count.
        for m in (2**44, 5 * 10**12):
            p = IntPolynomial((1 - m, m)) * linear(3)
            schur_counts[0] = 0
            bound = growth_bound(rf(1, p))
            assert schur_counts[0] == 2, m
            assert abs(bound - 1) < 1e-12, m
        schur_counts[0] = 0
        est = certified_smallest_root(IntPolynomial((-(2**44 - 1), 2**44)) * linear(3))
        assert schur_counts[0] == 1 + roots.OUTWARD_STEPS
        assert f"{est.modulus_gap:.3f}" == "2.998"


@pytest.fixture
def exact_values(monkeypatch) -> list[int]:
    """Counts every exact evaluation (`_scaled_value`) the certificates make."""
    counted = [0]
    value = roots._scaled_value

    def counting(p: IntPolynomial, a: int, b: int) -> int:
        counted[0] += 1
        return value(p, a, b)

    monkeypatch.setattr(roots, "_scaled_value", counting)
    return counted


def certify_and_bisect(
    p: IntPolynomial, newton: Callable[[IntPolynomial, float, float], float | None] | None = None
) -> tuple[RootEstimate, RootEstimate, bool]:
    """p's certificate, `refine_real_root` on its bracket, and whether a cell was proven.

    `newton`, when given, stands in for the float guess.
    """
    seen = []
    prove = roots._proven_cell

    def recording(p: IntPolynomial, a: int, b: int, den: int, f_lo: int):
        seen.append(((a, b, den), prove(p, a, b, den, f_lo)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(roots, "_proven_cell", recording)
        if newton is not None:
            mp.setattr(roots, "_newton", newton)
        est = certified_smallest_root(p)
    ((bracket, cell),) = seen
    a, b, den = bracket
    return est, refine_real_root(p, Fraction(a, den), Fraction(b, den)), cell != bracket


def same_interval(x: RootEstimate, y: RootEstimate) -> bool:
    return (x.value, x.radius) == (y.value, y.radius)


class TestProvenCell:
    """The certificate's root interval is the bisection's, whether or not a cell is proven."""

    def test_bound_rows(self):
        for name, gf, _, _ in BOUND_ROWS:
            est, bisected, proven = certify_and_bisect(gf.den)
            assert same_interval(est, bisected), name
            assert proven, name

    def test_seeded_random_polynomials(self):
        # Each has a zero a/b in (0, 1), so that most are accepted.
        rng = random.Random(28)
        proven = unproven = 0
        for _ in range(200):
            b = rng.randint(2, 40)
            p = IntPolynomial((-rng.randint(1, b - 1), b)) * random_polynomial(rng)
            try:
                est, bisected, cell = certify_and_bisect(p)
            except CertificateError:
                continue
            assert same_interval(est, bisected), p
            # here only a zero on the bisection grid, hit exactly, goes unproven
            assert cell or est.radius < 1e-15, p
            proven += cell
            unproven += not cell
        assert proven > 100 and unproven > 5

    @pytest.mark.parametrize(
        "p",
        [
            # root 1/4 is a bisection midpoint of [0, 1]: an edge's sign is 0
            IntPolynomial((-1, 4)),
            # float(10^309) overflows
            IntPolynomial((-(10**309), 3 * 10**309)),
            # (9x - 1)(4x - 5)^2: Newton from 1/2 runs to 5/4, outside [0, 1]
            IntPolynomial((-1, 9)) * IntPolynomial((-5, 4)) * IntPolynomial((-5, 4)),
        ],
        ids=["zero-on-the-grid", "coefficient-overflows", "newton-leaves-the-bracket"],
    )
    def test_falls_back_to_bisection(self, p):
        est, bisected, proven = certify_and_bisect(p)
        assert same_interval(est, bisected)
        assert not proven

    @pytest.mark.parametrize("cells, proven", [(-1, False), (1, False), (-3, False), (3, False)])
    def test_a_guess_cells_off(self, cells, proven):
        # A guess off by a cell or more is not proven, and the bisection
        # runs.
        newton = roots._newton

        def off(p: IntPolynomial, lo: float, hi: float) -> float:
            width = Fraction(hi) - Fraction(lo)  # the bound rows' brackets are dyadic
            k = roots._halvings(width.numerator, width.denominator)
            return newton(p, lo, hi) + cells * (hi - lo) / 2**k

        for name, gf, _, _ in BOUND_ROWS:
            est, bisected, cell = certify_and_bisect(gf.den, newton=off)
            assert same_interval(est, bisected), name
            assert cell == proven, name

    def test_exact_evaluations_per_command(self, exact_values, capsys):
        # reproduce: the four bound rows; verify --suite roots: those and
        # the alpha-digits certificate.  Each takes four: the bracket's two
        # signs and the proven cell's two.  Bisecting every bracket took
        # 180 and 226.
        for argv, expected in ((["reproduce"], 16), (["verify", "--suite", "roots"], 20)):
            exact_values[0] = 0
            assert cli.main(argv) == 0
            assert exact_values[0] == expected, argv
        capsys.readouterr()


def fraction_remainder(a: list[Fraction], d: list[Fraction]) -> list[Fraction]:
    """a mod d by long division over the rationals; d has a nonzero top."""
    r = a[:]
    while len(r) >= len(d):
        factor, shift = r[-1] / d[-1], len(r) - len(d)
        for i, c in enumerate(d):
            r[i + shift] -= factor * c
        while r and r[-1] == 0:
            r.pop()
    return r


def fraction_gcd_degree(a: IntPolynomial, b: IntPolynomial) -> int:
    """Euclid over the rationals: the oracle of the int sequence."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb:
        fa, fb = fb, fraction_remainder(fa, fb)
    return len(fa) - 1


class TestGcdDegree:
    def test_matches_fraction_euclid(self):
        rng = random.Random(10)

        def poly() -> IntPolynomial:
            return IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))

        degrees = set()
        for _ in range(400):
            a, b, c = poly(), poly(), poly()
            expected = fraction_gcd_degree(a * c, b * c)
            assert _gcd(a * c, b * c).degree == expected, (a, b, c)
            degrees.add(expected)
        assert {-1, 0, 1, 2, 3, 4} <= degrees  # common factors of every degree

    def test_the_gcd_divides_both_inputs(self):
        # The returned polynomial itself, not only its degree: Fraction long
        # division of each input by it leaves no remainder.
        rng = random.Random(31)

        def poly() -> IntPolynomial:
            return IntPolynomial(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 5))))

        for _ in range(400):
            a, b, c = poly() * poly(), poly(), poly()
            g = _gcd(a * c, b * c)
            if not g:
                assert not (a * c or b * c), (a, b, c)
                continue
            for f in (a * c, b * c):
                assert fraction_remainder(list(map(Fraction, f.coeffs)), list(g.coeffs)) == []
            assert g.degree >= c.degree, (a, b, c, g)  # c divides both
        assert _gcd(IntPolynomial(()), IntPolynomial(())) == IntPolynomial(())

    def test_refuses_a_zero_numerator(self):
        with pytest.raises(CertificateError, match="not constant"):
            growth_bound(rf(0, NOCB_WORD_SERIES.den))


class TestRootEstimate:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            RootEstimate(0.5, 0.0)

    def test_rejects_weak_gap(self):
        with pytest.raises(ValueError):
            RootEstimate(0.5, 1e-12, modulus_gap=1.0)

    def test_gap_needs_a_positive_value(self):
        # 0.0 divided by zero in the gap test; a negative value passed it.
        for value in (0.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="positive value"):
                RootEstimate(value, 1e-3, modulus_gap=2.0)
        assert RootEstimate(-0.5, 1e-3).value == -0.5  # no gap, no demand

    def test_accepts_strong_gap(self):
        est = RootEstimate(0.5, 1e-12, modulus_gap=1.5)
        assert est.unique_smallest

    def test_uniqueness_follows_the_gap(self):
        assert not RootEstimate(0.5, 1e-12).unique_smallest
        with pytest.raises(TypeError):
            RootEstimate(0.5, 1e-12, unique_smallest=True)  # not a field


class TestCertifiedRoots:
    def test_alpha(self):
        est = certified_smallest_root(PAIR_SERIES_CAB.den)
        assert est.unique_smallest
        assert abs(est.value - 0.2695867676) <= 1e-9
        assert est.radius < 1e-9
        assert est.modulus_gap is not None and est.modulus_gap > 2

    def test_golden_like_baseline(self):
        est = certified_smallest_root(NOCB_WORD_SERIES.den)
        assert abs(est.value - (2 - math.sqrt(3))) <= est.radius + 1e-15


class TestGrowthBounds:
    def test_baseline(self):
        assert abs(growth_bound(NOCB_WORD_SERIES) - (7 + 4 * math.sqrt(3))) <= 1e-9

    def test_bound_chain_descends(self):
        cab = growth_bound(PAIR_SERIES_CAB)
        cabb = growth_bound(PAIR_SERIES_CABB)
        run = growth_bound(PAIR_SERIES_CAB_RUN)
        base = growth_bound(NOCB_WORD_SERIES)
        assert base > cab > cabb > run > 13.7

    def test_refuses_a_cancelled_pole(self):
        # (1 - 4x + x^2) / ((1 - 4x + x^2)(1 - 3x)) is 1/(1 - 3x), growth 9
        den = NOCB_WORD_SERIES.den
        with pytest.raises(CertificateError, match="not constant"):
            growth_bound(rf(den, den * IntPolynomial((1, -3))))

    def test_pinned_digits(self):
        assert abs(growth_bound(PAIR_SERIES_CAB) - 13.7595074) <= 1e-6
        assert abs(growth_bound(PAIR_SERIES_CABB) - 13.73977) <= 1e-4
        assert abs(growth_bound(PAIR_SERIES_CAB_RUN) - 13.73718) <= 1e-4
