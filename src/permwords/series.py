"""Exact integer polynomials, rational functions, and series expansion.

Everything here is exact: coefficients are Python ints (or Fractions at
the few points where division is unavoidable), and equality of rational
functions is decided by cross-multiplication, never by floats.  Here too
is the exact algebra `roots` certifies with: `_scaled_value`, `_primitive`
and the gcd `_gcd`.

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

from fractions import Fraction
from math import gcd
from operator import index
from typing import NamedTuple

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

class _Frozen:
    """Base of the package's immutable value classes, as a frozen dataclass would be.

    A subclass names its fields in __match_args__ and stores them in its
    own __init__ with object.__setattr__.  Assignment and deletion raise
    AttributeError; equality, hash and repr run over the named fields,
    equality only between instances of one class.  Instances keep their
    __dict__, so pickle and copy.deepcopy restore them without calling
    __setattr__.  It spares every command the import of `dataclasses`
    (with `inspect`, `ast` and the rest that it loads), and it lives here
    because series imports nothing from the package.
    """

    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class IntPolynomial(_Frozen):
    """Integer polynomial as ascending coefficients, no trailing zeros."""

    __match_args__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: tuple[int, ...] = ()) -> None:
        coeffs = tuple(map(index, coeffs))  # a Fraction or float raises TypeError
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, m: int) -> int:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else 0

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented  # a RationalFunction adds it from the right
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
            if not isinstance(other, int):
                return NotImplemented  # a RationalFunction multiplies from the right
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))


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


def _primitive(c: list[int]) -> list[int]:
    """c (a fresh list) without trailing zeros, divided by its content gcd."""
    while c and not c[-1]:
        c.pop()
    g = gcd(*c)
    return [v // g for v in c]


def _gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """The primitive gcd of a and b, up to sign; zero when both are zero.

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
    return IntPolynomial(tuple(p))


def _poly(*coeffs: int) -> IntPolynomial:
    return IntPolynomial(tuple(coeffs))


X = _poly(0, 1)
ONE = _poly(1)


class RationalFunction(_Frozen):
    """num/den kept unreduced; den must have a nonzero constant term.

    The constant-term demand is what makes every RationalFunction a
    power series at 0.  Equality is by cross-multiplication, so the lack
    of normalization never shows; no hash agrees with it, so the class is
    unhashable.
    """

    __match_args__ = ("num", "den")
    num: IntPolynomial
    den: IntPolynomial

    def __init__(self, num: IntPolynomial, den: IntPolynomial = ONE) -> None:
        if not (isinstance(num, IntPolynomial) and isinstance(den, IntPolynomial)):
            raise TypeError(f"num and den must be IntPolynomials: {num!r}, {den!r}")
        if den.coefficient(0) == 0:
            raise ValueError("denominator must have a nonzero constant term")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    __radd__ = __add__

    def __sub__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        return self + -self._coerce(other)

    def __rsub__(self, other: "IntPolynomial | int") -> "RationalFunction":
        return self._coerce(other) - self

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction | IntPolynomial | int") -> "RationalFunction":
        other = self._coerce(other)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:  # defined here, so __hash__ is None
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return rf_equal(self, other)


def rf_equal(f: RationalFunction, g: RationalFunction) -> bool:
    """f == g as rational functions (cross-multiplied, exact)."""
    return not (f.num * g.den - g.num * f.den)


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


class EquationCheck(NamedTuple):
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
    cab = _cd_tail() * (x * seg) * x  # (x/(1-2x)) * x*S * x
    # Each equation reads F = S^2 (1+F) - cut * F.
    equations = (
        ("pairs-cab", PAIR_SERIES_CAB, cab, "splitting a pair at the last A of w"),
        (
            "pairs-cabb",
            PAIR_SERIES_CABB,
            cab + (x * x * seg) * _one_b_segment() * x,  # and x^2*S * (one-B segment) * x
            "recursive step read as self-referential, not CAB-counted",
        ),
    )
    checks = []
    for name, f, cut, note in equations:
        residual = f - (seg * seg * (rf(1) + f) - cut * f)
        checks.append(EquationCheck(name, "exact", residual.num.coeffs, note))
    checks.append(
        EquationCheck(
            name="pairs-cab-run",
            status="unverifiable-as-printed",
            residual_num=None,
            note="displayed equation has a dangling sum",
        )
    )
    return checks
