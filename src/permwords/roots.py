"""Polynomial roots and certified growth bounds.

One exact route certifies the root that matters.  A Schur-Cohn count in
integer arithmetic finds a rational radius R with exactly one zero of p
in |x| < R.  The count is with multiplicity, so that zero is simple.
The non-real zeros of a real polynomial come in conjugate pairs, so it
is real; a sign change of p below R makes it positive, and exact
bisection pins its digits.  Every other zero has modulus at least R,
which proves the modulus gap.  Outward counts then widen R:
`certified_smallest_root` takes all OUTWARD_STEPS, to report a wide gap,
and `growth_bound`, which returns no gap, stops at the first R that
proves one.  Each sign comes from one evaluator,
`_scaled_value`: b^n * p(a/b) by Horner's rule in ints, so the
bisection runs on int numerators over one shared denominator.
Durand-Kerner iteration (`all_roots`) stays only as the tests' float
oracle.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd, lcm

from .series import IntPolynomial, RationalFunction, _Frozen

__all__ = [
    "CertificateError",
    "RootConvergenceError",
    "RootEstimate",
    "all_roots",
    "certified_smallest_root",
    "growth_bound",
    "is_square_free",
    "refine_real_root",
]

# Root intervals are bisected to half-width PRECISION: at 1e-13 each bound's
# whole interval [1/hi^2, 1/lo^2] sits inside its row's tolerance.
PRECISION = 1e-13
# Steps of the search for a radius holding one zero, then outward steps.
SEARCH_STEPS = 64
OUTWARD_STEPS = 12


class RootConvergenceError(RuntimeError):
    """Durand-Kerner iteration failed to settle."""


class CertificateError(RuntimeError):
    """The smallest root could not be certified unique and real."""


class RootEstimate(_Frozen):
    """A real root pinned to [value - radius, value + radius].

    A modulus_gap, when given, is proven: every other root has modulus at
    least modulus_gap * (value + radius).  It needs a positive value and
    must exceed 1 + 10*radius/value, so that the root is the unique
    smallest.
    """

    __match_args__ = ("value", "radius", "modulus_gap")
    value: float
    radius: float
    modulus_gap: float | None

    def __init__(self, value: float, radius: float, modulus_gap: float | None = None) -> None:
        if not radius > 0:
            raise ValueError("radius must be positive")
        if modulus_gap is not None:
            if not value > 0:
                raise ValueError("a modulus gap needs a positive value")
            if not modulus_gap > 1 + 10 * radius / value:
                raise ValueError("modulus gap does not prove a unique smallest root")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "modulus_gap", modulus_gap)

    @property
    def unique_smallest(self) -> bool:
        """True when a proven gap sets the root apart from every other."""
        return self.modulus_gap is not None


def all_roots(
    p: IntPolynomial, *, tol: float = 1e-13, max_iter: int = 1000
) -> list[complex]:
    """All complex roots of p by Durand-Kerner iteration, in floats.

    No certificate uses it; it is the tests' float oracle for the exact
    zero count.  Roots are returned sorted by modulus.  Each must pass a
    residual test scaled by the coefficient sizes, and for the (real)
    inputs used here the root multiset must be closed under conjugation;
    a failure of either raises instead of returning bad data.
    """
    if p.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    lead = p.coeffs[-1]
    monic = [c / lead for c in p.coeffs]
    deg = p.degree
    if deg == 1:
        return [complex(-monic[0])]

    def value(z: complex) -> complex:
        out = 0j
        for c in reversed(monic):
            out = out * z + c
        return out

    radius = 1.0 + max(abs(c) for c in monic[:-1])
    seed = cmath.exp(0.4j)  # irrational angle, breaks symmetry
    roots = [
        radius ** ((k + 1) / deg) * seed * cmath.exp(2j * cmath.pi * k / deg)
        for k in range(deg)
    ]
    for _ in range(max_iter):
        shift = 0.0
        for k in range(deg):
            zk = roots[k]
            denom = 1.0 + 0j
            for j in range(deg):
                if j != k:
                    denom *= zk - roots[j]
            if denom == 0:
                roots[k] = zk + 1e-8 * (1 + 1j)
                shift = float("inf")
                continue
            delta = value(zk) / denom
            roots[k] = zk - delta
            shift = max(shift, abs(delta))
        if shift <= tol * max(1.0, max(abs(z) for z in roots)):
            break
    else:
        raise RootConvergenceError(f"no convergence after {max_iter} iterations: {roots}")

    for z in roots:
        scale = sum(abs(c) * max(1.0, abs(z)) ** i for i, c in enumerate(monic))
        if abs(value(z)) > 1e-8 * scale:
            raise RootConvergenceError(f"residual too large at {z}: {abs(value(z))}")
    unmatched = list(roots)
    for z in roots:
        # conjugation closure, with tolerance loose enough for clusters
        best = min(unmatched, key=lambda u: abs(u - z.conjugate()))
        if abs(best - z.conjugate()) > 1e-6 * max(1.0, abs(z)):
            raise RootConvergenceError(f"roots not closed under conjugation near {z}")
        unmatched.remove(best)
    return sorted(roots, key=lambda z: (abs(z), z.real, z.imag))


def _scaled(p: IntPolynomial, x: Fraction) -> list[int]:
    """The int coefficients of b^n * p(a*t/b) in t, for x = a/b, n = deg p.

    Their zeros in |t| < 1 are p's in |t| < x: they feed Schur-Cohn
    (`_zeros_inside`) only, and signs come from `_scaled_value`.
    """
    a, b, n = x.numerator, x.denominator, p.degree
    return [c * a**i * b ** (n - i) for i, c in enumerate(p.coeffs)]


def _scaled_value(p: IntPolynomial, a: int, b: int) -> int:
    """b^n * p(a/b) for n = deg p, by Horner's rule in ints.

    For b > 0 it has the sign of p(a/b), whether or not a/b is reduced.

    >>> _scaled_value(IntPolynomial((-1, 0, 2)), 1, 2)  # 4 * (2/4 - 1)
    -2
    """
    value, power = 0, 1
    for c in reversed(p.coeffs):
        value = value * a + c * power
        power *= b
    return value


def _zeros_inside(c: list[int]) -> int | None:
    """Zeros of sum c[i] t^i in |t| < 1, with multiplicity, by Schur-Cohn.

    Each step takes the Schur transform a0*p - an*p* (p* reverses the
    coefficients), of lower degree, and divides it by its content.  It has
    as many zeros inside as p when a0^2 > an^2, and deg p minus that many
    when a0^2 < an^2.  A singular step, a0^2 = an^2, gives None; any zero
    on the unit circle forces one.

    >>> _zeros_inside([-1, 0, 4]), _zeros_inside([1, -4, 1])  # 4t^2 - 1; 1 - 4t + t^2
    (2, None)
    """
    inside, sign = 0, 1
    while len(c) > 1:
        a0, an, n = c[0], c[-1], len(c) - 1
        delta = a0 * a0 - an * an
        if delta == 0:
            return None
        if delta < 0:
            inside, sign = inside + sign * n, -sign
        c = _primitive([a0 * c[i] - an * c[n - i] for i in range(n)])  # c[0] = delta
    return inside


def _primitive(c: list[int]) -> list[int]:
    """c (a fresh list) without trailing zeros, divided by its content gcd."""
    while c and not c[-1]:
        c.pop()
    g = gcd(*c)
    return [v // g for v in c]


def refine_real_root(p: IntPolynomial, lo: Fraction, hi: Fraction) -> RootEstimate:
    """Bisect a sign-change bracket down to half-width PRECISION, exactly.

    The bracket is held as int numerators over one shared denominator,
    which doubles at each step, so every midpoint is the exact rational
    (lo + hi) / 2.  Each sign is that of an int (`_scaled_value`), so the
    returned interval is a proof, not an estimate.  Endpoints with equal
    signs are refused.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    den = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    f_lo, f_hi = _scaled_value(p, a, den), _scaled_value(p, b, den)
    if f_lo * f_hi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: p has one sign at both")
    if f_lo * f_hi == 0:
        a = b = a if f_lo == 0 else b
    width = Fraction(2 * PRECISION)
    while (b - a) * width.denominator > width.numerator * den:
        mid, den = a + b, 2 * den  # the midpoint, over the doubled denominator
        f_mid = _scaled_value(p, mid, den)
        if f_mid == 0:
            a = b = mid
        elif (f_mid > 0) == (f_lo > 0):
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    # int / int rounds correctly, so these are the floats of the Fractions
    value = (a + b) / (2 * den)
    # half-width plus a float-rounding ulp so the interval stays honest
    radius = (b - a) / (2 * den) + abs(value) * 2.3e-16 + 5e-324
    return RootEstimate(value=value, radius=radius)


def is_square_free(p: IntPolynomial) -> bool:
    """Exact check: gcd(p, p') is a constant.  No certificate needs it."""
    return _gcd_degree(p, p.derivative()) == 0


def _gcd_degree(a: IntPolynomial, b: IntPolynomial) -> int:
    """Degree of gcd(a, b), or -1 when both are zero.

    A primitive pseudo-remainder sequence in ints: each step clears the
    remainder's top term by integer multiples, then divides by the content.
    """
    p, q = _primitive(list(a.coeffs)), _primitive(list(b.coeffs))
    while q:
        r = p
        while len(r) >= len(q):
            top, shift = r[-1], len(r) - len(q)
            r = [q[-1] * v for v in r]
            for i, v in enumerate(q):
                r[i + shift] -= top * v
            r = _primitive(r)
        p, q = q, r
    return len(p) - 1


def _certificate(p: IntPolynomial, widen_fully: bool) -> RootEstimate:
    """The certificate of p's smallest root, for both public entry points.

    Search for a radius r holding exactly one zero, check the sign change
    on [lo, r], refine, then take outward steps.  They only grow r, so the
    proven gap r / (upper end of the root's interval) only grows: with
    widen_fully they take all OUTWARD_STEPS, and without it they stop at
    the first r whose gap is proven, which refuses exactly the same p.
    """
    lo, hi, r = Fraction(0), None, Fraction(1)
    for _ in range(SEARCH_STEPS):
        count = _zeros_inside(_scaled(p, r))
        if count == 1:
            break
        if count is None:  # a singular step decides nothing: retry nearer lo
            r = (lo + r) / 2
            continue
        lo, hi = (r, hi) if count == 0 else (lo, r)
        r = 2 * lo if hi is None else (lo + hi) / 2
    else:
        raise CertificateError(
            f"no radius holds exactly one zero of {p.coeffs} after {SEARCH_STEPS} "
            f"steps (none in |x| < {float(lo):.6g})"
        )
    f_lo, f_r = (_scaled_value(p, x.numerator, x.denominator) for x in (lo, r))
    if f_lo * f_r >= 0:
        raise CertificateError(
            f"the one zero of {p.coeffs} in |x| < {float(r):.6g} is not positive"
        )
    est = refine_real_root(p, lo, r)
    top, needed = est.value + est.radius, 1 + 10 * est.radius / est.value
    for _ in range(OUTWARD_STEPS):
        if not widen_fully and float(r) / top > needed:
            break
        step = 2 * r if hi is None else (r + hi) / 2
        if _zeros_inside(_scaled(p, step)) == 1:
            r = step
        else:
            hi = step
    gap = float(r) / top
    if not gap > needed:
        raise CertificateError(f"proven modulus gap {gap:.6g} is too small")
    return RootEstimate(est.value, est.radius, modulus_gap=gap)


def certified_smallest_root(p: IntPolynomial) -> RootEstimate:
    """Certify and refine p's smallest-modulus root, in exact arithmetic.

    Demands: a radius r, found by bisection, where the Schur-Cohn count
    shows exactly one zero in |x| < r; and a sign change of p on [lo, r],
    where lo is the search's last radius with count 0.  The count is
    taken with multiplicity, so that zero is simple: a repeated smallest
    zero leaves no radius with a count of one, while repeated zeros
    further out do no harm.  All OUTWARD_STEPS then push r toward the
    next modulus, and the gap r / (upper end of the root's interval) is
    proven.  Any shortfall raises CertificateError with the data that
    failed.
    """
    return _certificate(p, widen_fully=True)


def growth_bound(f: RationalFunction) -> float:
    """The squared reciprocal of f's smallest denominator root.

    When f counts objects split over two words of total size 2n, its
    coefficient growth per unit of n is the square of the reciprocal
    root, which is what this returns.  The numerator must share no factor
    with the denominator, so that no pole cancels, and the root must pass
    the uniqueness certificate.  The gap itself is not returned, so the
    outward steps stop at the first radius that proves it (for every
    bound row, the search radius already does); the same f are refused
    as with all OUTWARD_STEPS.
    """
    if _gcd_degree(f.num, f.den) != 0:
        raise CertificateError(f"gcd of {f.num.coeffs} and {f.den.coeffs} is not constant")
    est = _certificate(f.den, widen_fully=False)
    return (1.0 / est.value) ** 2
