"""Exact integer polynomials, rational functions, and series expansion.

Everything here is exact: coefficients are Python ints (or Fractions at
the few points where division is unavoidable), and equality of rational
functions is decided by cross-multiplication, never by floats.

The module also pins the closed-form rational series the rest of the
package reproduces:

- SEGMENT_SERIES        CB-free segments by length
- NOCB_WORD_SERIES      CB-free words by length
- PAIR_SERIES_CAB       word pairs passing the base test + the CAB rule
- PAIR_SERIES_CABB      + the CABB rule
- PAIR_SERIES_CAB_RUN   + the full CAB-run rule

and `verify_functional_equations` replays the recursions those closed
forms came from, as exact identities where the source prints one.  It is
pure algebra: comparing a series with exhaustive pair counts is the job
of `brute_count_pairs` and the CLI's gf suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Union

__all__ = [
    "IntPolynomial",
    "RationalFunction",
    "EquationCheck",
    "NOCB_WORD_SERIES",
    "PAIR_SERIES_CAB",
    "PAIR_SERIES_CABB",
    "PAIR_SERIES_CAB_RUN",
    "SEGMENT_SERIES",
    "expand",
    "rf_equal",
    "verify_functional_equations",
]

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial as ascending coefficients, no trailing zeros."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        coeffs = tuple(map(index, self.coeffs))  # a Fraction or float raises TypeError
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, m: int) -> int:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __rmul__(self, other: int) -> "IntPolynomial":
        return self * other

    def evaluate(self, x: Scalar) -> Scalar:
        out: Scalar = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))


def _poly(*coeffs: int) -> IntPolynomial:
    return IntPolynomial(tuple(coeffs))


X = _poly(0, 1)
ONE = _poly(1)


@dataclass(frozen=True, eq=False)
class RationalFunction:
    """num/den kept unreduced; den must have a nonzero constant term.

    The constant-term demand is what makes every RationalFunction a
    power series at 0.  Equality is by cross-multiplication, so the lack
    of normalization never shows; no hash agrees with it, so the class is
    unhashable.
    """

    num: IntPolynomial
    den: IntPolynomial = ONE

    def __post_init__(self) -> None:
        if self.den.is_zero() or self.den.coefficient(0) == 0:
            raise ValueError("denominator must have a nonzero constant term")

    @staticmethod
    def _coerce(other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, IntPolynomial):
            return RationalFunction(other)
        return RationalFunction(IntPolynomial((other,)))

    def __add__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return rf_equal(self, other)


def rf_equal(f: RationalFunction, g: RationalFunction) -> bool:
    """f == g as rational functions (cross-multiplied, exact)."""
    return (f.num * g.den - g.num * f.den).is_zero()


def rf(num: IntPolynomial | int, den: IntPolynomial | int = 1) -> RationalFunction:
    if not isinstance(num, IntPolynomial):
        num = _poly(num)
    if not isinstance(den, IntPolynomial):
        den = _poly(den)
    return RationalFunction(num, den)


def expand(f: RationalFunction, order: int) -> list[int | Fraction]:
    """Power-series coefficients c_0..c_order of f at 0, exactly.

    Uses the linear recurrence the denominator induces; each value is an
    int whenever it is integral, a Fraction otherwise.  It stays in ints
    when den[0] is 1 or -1, its own inverse, as in every pinned series.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    den = f.den.coeffs
    inv_d0 = den[0] if den[0] in (1, -1) else Fraction(1, den[0])
    out: list[int | Fraction] = []
    for m in range(order + 1):
        acc = f.num.coefficient(m)
        for j in range(1, min(m, len(den) - 1) + 1):
            acc -= den[j] * out[m - j]
        out.append(acc * inv_d0)
    return [int(c) if c.denominator == 1 else c for c in out]


# --- pinned closed forms ----------------------------------------------------

SEGMENT_SERIES = rf(X, _poly(1, -3, 1))
NOCB_WORD_SERIES = rf(1, _poly(1, -4, 1))
PAIR_SERIES_CAB = rf(_poly(0, 0, 1, -2), _poly(1, -8, 22, -26, 14, -5, 1))
PAIR_SERIES_CABB = rf(
    _poly(0, 0, 1, -4, 4), _poly(1, -10, 38, -70, 66, -33, 12, -6, 4, -1)
)
PAIR_SERIES_CAB_RUN = rf(
    _poly(0, 0, 1, -2, -1, 1), _poly(1, -8, 21, -19, -2, 11, -6, 1)
)


@dataclass(frozen=True)
class EquationCheck:
    """Result of replaying one defining equation against its closed form.

    An "exact" check holds when its residual numerator vanishes.  An
    "unverifiable-as-printed" one has no equation to replay and no
    residual, so it is never ok here; its series needs another check.
    """

    name: str
    status: str  # "exact" or "unverifiable-as-printed"
    residual_num: tuple[int, ...] | None
    note: str

    @property
    def ok(self) -> bool:
        return self.residual_num == ()


def _cd_tail() -> RationalFunction:
    # nonempty C/D strings: x + 2x^2 + 4x^3 + ... = x/(1-2x)
    return rf(X, _poly(1, -2))


def _one_b_segment() -> RationalFunction:
    # A, then C/D letters ending in D (or nothing), then B, then C/D letters
    x = rf(X)
    return x * (_cd_tail() + rf(1)) * x * rf(1, _poly(1, -2))


def verify_functional_equations() -> list[EquationCheck]:
    """Replay the defining equations of the three pair series, exactly.

    The CAB and CABB equations are polynomial identities: each residual
    numerator must vanish.  The displayed equation for the CAB-run series
    is malformed at the source (a dangling summation with no index or
    bound), so no identity can be formed from it; its entry carries no
    residual, and the series must be checked against pair counts instead.
    """
    x = rf(X)
    seg = SEGMENT_SERIES
    checks = []

    # F = S^2 + S^2 F - (x/(1-2x)) * x*S * x * F
    h = PAIR_SERIES_CAB
    rhs = seg * seg + seg * seg * h - _cd_tail() * (x * seg) * x * h
    residual = h - rhs
    checks.append(
        EquationCheck(
            name="pairs-cab",
            status="exact",
            residual_num=residual.num.coeffs,
            note="splitting a pair at the last A of w",
        )
    )

    # F = S^2 (1+F) - (x/(1-2x)) * x*S * x * F - x^2*S * (one-B segment) * x * F
    k = PAIR_SERIES_CABB
    rhs = (
        seg * seg * (rf(1) + k)
        - _cd_tail() * (x * seg) * x * k
        - (x * x * seg) * _one_b_segment() * x * k
    )
    residual = k - rhs
    checks.append(
        EquationCheck(
            name="pairs-cabb",
            status="exact",
            residual_num=residual.num.coeffs,
            note="recursive step read as self-referential, not CAB-counted",
        )
    )

    checks.append(
        EquationCheck(
            name="pairs-cab-run",
            status="unverifiable-as-printed",
            residual_num=None,
            note="displayed equation has a dangling sum",
        )
    )
    return checks
