"""Polynomial roots and certified growth bounds.

One exact route certifies the root that matters.  A Schur-Cohn count in
integer arithmetic, `_zeros_inside(p, R)`, finds a rational radius R
with exactly one zero of p in |x| < R.  The count is with multiplicity,
so that zero is simple.  The non-real zeros of a real polynomial come in
conjugate pairs, so it is real, and a sign change of p below R makes it
positive.  Exact bisection of that bracket to PRECISION must end in the
one cell of its last level that holds the zero; a float Newton iterate
names the cell, and two exact signs prove it, or else the bisection
runs.  Floats only propose: the interval is the bisection's either way.
Every other zero has modulus at least R, which proves the modulus gap.
Outward counts then widen R: `certified_smallest_root` takes all
OUTWARD_STEPS, to report a wide gap, and `growth_bound`, which returns
no gap, stops at the first R that proves one.  The exact algebra comes
from `series`: each sign from `_scaled_value`, b^n * p(a/b) in ints, so
the bisection runs on int numerators over one shared denominator, and
the pole and square-free tests from the polynomial gcd `_gcd`.
Durand-Kerner iteration (`all_roots`) stays only as the tests' float oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isfinite, lcm

from .series import IntPolynomial, RationalFunction, _Frozen, _gcd, _primitive, _scaled_value

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
# Float Newton steps that may name the bisection's last cell.
NEWTON_STEPS = 40


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


def all_roots(p: IntPolynomial) -> list[complex]:
    """All complex roots of p by Durand-Kerner iteration, in floats.

    No certificate uses it; it is the tests' float oracle for the exact
    zero count.  Roots are returned sorted by modulus.  Each must pass a
    residual test scaled by the coefficient sizes, and for the (real)
    inputs used here the root multiset must be closed under conjugation;
    a failure of either raises instead of returning bad data.
    """
    import cmath  # only here, so that no command loads it

    if p.degree < 1:
        raise ValueError("polynomial must have degree at least 1")
    monic = [c / p.coeffs[-1] for c in p.coeffs]
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
    for _ in range(1000):
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
        if shift <= 1e-13 * max(1.0, max(abs(z) for z in roots)):
            break
    else:
        raise RootConvergenceError(f"no convergence after 1000 iterations: {roots}")

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


def _zeros_inside(p: IntPolynomial, r: Fraction) -> int | None:
    """Zeros of p in |x| < r, with multiplicity, by Schur-Cohn.

    For r = a/b and n = deg p, it counts the zeros in |t| < 1 of the int
    polynomial c(t) = b^n * p(a*t/b).  Each step takes the Schur transform
    a0*c - an*c* (c* reverses the coefficients), of lower degree, and
    divides it by its content.  It has as many zeros inside as c when
    a0^2 > an^2, and deg c minus that many when a0^2 < an^2.  A singular
    step, a0^2 = an^2, gives None; any zero on the circle |x| = r forces
    one.

    >>> [_zeros_inside(IntPolynomial(c), Fraction(1)) for c in ((-1, 0, 4), (1, -4, 1))]
    [2, None]
    """
    a, b, n = r.numerator, r.denominator, p.degree
    c = [v * a**i * b ** (n - i) for i, v in enumerate(p.coeffs)]
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


def refine_real_root(p: IntPolynomial, lo: Fraction, hi: Fraction) -> RootEstimate:
    """Bisect a sign-change bracket down to half-width PRECISION, exactly.

    The bracket is held as int numerators over one shared denominator,
    which doubles at each step, so every midpoint is the exact rational
    (lo + hi) / 2.  Each sign is that of an int (`_scaled_value`), so the
    returned interval is a proof, not an estimate.  Endpoints with equal
    signs are refused.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    a, b, den, f_lo, f_hi = _bracket(p, lo, hi)
    if f_lo * f_hi > 0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: p has one sign at both")
    if f_lo * f_hi == 0:
        a = b = a if f_lo == 0 else b
    return _bisect(p, a, b, den, f_lo)


def _bracket(p: IntPolynomial, lo: Fraction, hi: Fraction) -> tuple[int, int, int, int, int]:
    """lo < hi as int numerators a < b over one denominator den, and p there.

    p at lo and hi comes as den^n * p (n = deg p), which has p's sign:
    the returned tuple is a, b, den, den^n * p(lo), den^n * p(hi).
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    den = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    return a, b, den, _scaled_value(p, a, den), _scaled_value(p, b, den)


def _halvings(width: int, den: int) -> int:
    """The bisection steps that take width / den to 2 * PRECISION or below.

    Each step doubles den and keeps the int width, so the number is fixed
    by the bracket: the least k with width / (den * 2^k) <= 2 * PRECISION.
    """
    w = Fraction(2 * PRECISION)
    ratio = -(-width * w.denominator // (w.numerator * den))  # ceil
    return max(ratio - 1, 0).bit_length()


def _bisect(p: IntPolynomial, a: int, b: int, den: int, f_lo: int) -> RootEstimate:
    """Bisect [a/den, b/den], where p has f_lo's sign at a/den and changes sign.

    A zero at a midpoint ends the bisection there.
    """
    for _ in range(_halvings(b - a, den)):
        mid, den = a + b, 2 * den  # the midpoint, over the doubled denominator
        f_mid = _scaled_value(p, mid, den)
        if f_mid == 0:
            a = b = mid
            break
        if (f_mid > 0) == (f_lo > 0):
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    # int / int rounds correctly, so these are the floats of the Fractions
    value = (a + b) / (2 * den)
    # half-width plus a float-rounding ulp so the interval stays honest
    radius = (b - a) / (2 * den) + abs(value) * 2.3e-16 + 5e-324
    return RootEstimate(value=value, radius=radius)


def _proven_cell(p: IntPolynomial, a: int, b: int, den: int, f_lo: int) -> tuple[int, int, int]:
    """The cell where `_bisect` of a bracket holding one zero ends, or the bracket.

    [a/den, b/den] must hold exactly one zero of p, with p of f_lo's sign
    at a/den.  After k = `_halvings` steps the width b - a is unchanged
    and den is den * 2^k, so bisection ends in the cell i from a * 2^k +
    i * (b - a) to that plus b - a: the one that holds the zero, unless
    a midpoint hits it first.  A float Newton iterate from the midpoint
    names i, and cell i is returned only when exact signs prove it:
    f_lo's at its left edge and the other at its right, both nonzero.
    Then the zero is inside and on no midpoint, and bisection ends there
    too.  Any float failure or unproven cell returns the bracket
    unchanged, to be bisected.
    """
    d, k = b - a, _halvings(b - a, den)
    lo, hi = a / den, b / den
    x = _newton(p, lo, hi) if lo < hi else None
    if x is None:
        return a, b, den
    i = min(floor((x - lo) / (hi - lo) * 2.0**k), 2**k - 1)
    base, den_k = a << k, den << k

    def side(j: int) -> int:
        """1 or -1 when p at edge j has f_lo's sign or the other, 0 at a zero."""
        v = _scaled_value(p, base + j * d, den_k)
        return 0 if v == 0 else 1 if (v > 0) == (f_lo > 0) else -1

    if (side(i), side(i + 1)) != (1, -1):
        return a, b, den
    return base + i * d, base + (i + 1) * d, den_k


def _newton(p: IntPolynomial, lo: float, hi: float) -> float | None:
    """p's zero in [lo, hi] by float Newton steps from the midpoint, or None.

    None when a coefficient overflows a float, a value or derivative is
    not finite, the derivative is zero, or the last iterate is not in
    [lo, hi].  It proves nothing; `_proven_cell` checks it exactly.
    """
    try:
        coeffs = [float(c) for c in reversed(p.coeffs)]
    except OverflowError:
        return None
    x = (lo + hi) / 2
    for _ in range(NEWTON_STEPS):
        value = slope = 0.0
        for c in coeffs:
            value, slope = value * x + c, slope * x + value
        if not (isfinite(value) and isfinite(slope)) or slope == 0:
            return None
        step = value / slope
        x -= step
        if abs(step) <= PRECISION / 16:  # well inside a cell of width >= PRECISION
            break
    return x if lo <= x <= hi else None


def is_square_free(p: IntPolynomial) -> bool:
    """Exact check: gcd(p, p') is a constant.  No certificate needs it."""
    return _gcd(p, p.derivative()).degree == 0


def _certificate(p: IntPolynomial, widen_fully: bool) -> RootEstimate:
    """The certificate of p's smallest root, for both public entry points.

    Search for a radius r holding exactly one zero, check the sign change
    on [lo, r], refine (`_proven_cell` spares the bisection its steps when
    two exact signs prove where it ends), then take outward steps.  They only grow r, so the
    proven gap r / (upper end of the root's interval) only grows: with
    widen_fully they take all OUTWARD_STEPS, and without it they stop at
    the first r whose gap is proven, which refuses exactly the same p.
    """
    lo, hi, r = Fraction(0), None, Fraction(1)
    for _ in range(SEARCH_STEPS):
        count = _zeros_inside(p, r)
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
    a, b, den, f_lo, f_r = _bracket(p, lo, r)
    if f_lo * f_r >= 0:
        raise CertificateError(
            f"the one zero of {p.coeffs} in |x| < {float(r):.6g} is not positive"
        )
    est = _bisect(p, *_proven_cell(p, a, b, den, f_lo), f_lo)
    top, needed = est.value + est.radius, 1 + 10 * est.radius / est.value
    for _ in range(OUTWARD_STEPS):
        if not widen_fully and float(r) / top > needed:
            break
        step = 2 * r if hi is None else (r + hi) / 2
        if _zeros_inside(p, step) == 1:
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
    if _gcd(f.num, f.den).degree != 0:
        raise CertificateError(f"gcd of {f.num.coeffs} and {f.den.coeffs} is not constant")
    est = _certificate(f.den, widen_fully=False)
    return (1.0 / est.value) ** 2
