"""Complex polynomial and rational-function arithmetic.

Substrate for every ODE-coefficient manipulation in the package: immutable
`Poly` (ascending coefficients) and `RatFun` (num/den with monic denominator,
no GCD cancellation) values, Horner evaluation with pole detection,
quotient-rule and logarithmic differentiation, and cross-multiplication
equality.

All coefficients are complex: the characteristic exponents that parametrize
the solution formulas go complex for real equation parameters, and a single
numeric tower avoids duplicating every code path per branch.
"""
from __future__ import annotations

from cmath import isfinite as _cisfinite
from dataclasses import dataclass
from math import isfinite as _isfinite
from numbers import Complex as _Complex

from .errors import DegreeCapError, NonFiniteError, PoleError, ZeroCoefficientError

#: Hard bound on polynomial degree; all equation coefficients in scope have
#: degree <= 8, so exceeding this means runaway symbolic growth upstream.
DEGREE_CAP = 64

#: |den(x)| <= POLE_TOL * max(1, |x|^deg(den)) is treated as a pole.
POLE_TOL = 1e-12

#: rat_equal: cross-multiplied difference is "zero" when every coefficient is
#: below EQUAL_TOL relative to the largest coefficient of either product.
EQUAL_TOL = 1e-10

NEG_INF = float("-inf")


def as_complex(z) -> complex:
    """Coerce a scalar to `complex`, refusing non-finite components."""
    t = type(z)
    if t is complex:  # fast path: skips complex() and the ABC check
        w = z
    elif t is float or t is int or isinstance(z, _Complex):
        w = complex(z)
    else:
        raise TypeError(f"expected a complex scalar, got {type(z).__name__}")
    if not (_isfinite(w.real) and _isfinite(w.imag)):
        raise NonFiniteError(f"non-finite scalar {w!r}")
    return w


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients, ascending degree.

    Trailing exact zeros are trimmed on construction; the zero polynomial is
    the empty tuple and reports degree -inf. The constructor coerces each
    coefficient with `as_complex`; the arithmetic below builds its results
    with `_of` from the builtin complex values it computed.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs=()):
        self._set([as_complex(c) for c in coeffs])

    @classmethod
    def _of(cls, cs: list) -> Poly:
        """Poly of builtin complex coefficients, without `as_complex`;
        a non-finite one raises NonFiniteError as there."""
        if not all(map(_cisfinite, cs)):
            raise NonFiniteError("non-finite polynomial coefficient")
        p = object.__new__(cls)
        p._set(cs)
        return p

    def _set(self, cs: list) -> None:
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) - 1 > DEGREE_CAP:
            raise DegreeCapError(
                f"polynomial degree {len(cs) - 1} exceeds cap {DEGREE_CAP}")
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> float:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly._of(out)

    def __neg__(self) -> Poly:
        return Poly._of([-c for c in self.coeffs])

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0j] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
        return Poly._of(out)

    def scale(self, k) -> Poly:
        k = as_complex(k)
        return Poly._of([k * c for c in self.coeffs])

    def derivative(self) -> Poly:
        return Poly._of([n * c for n, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> complex:
        x = as_complex(x)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def max_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def __repr__(self) -> str:  # compact, test-log friendly
        return f"Poly({list(self.coeffs)!r})"


def poly_x(*coeffs) -> Poly:
    """Shorthand constructor: poly_x(c0, c1, ...) = c0 + c1 x + ..."""
    return Poly(coeffs)


POLY_ZERO = Poly()
POLY_ONE = Poly((1,))
POLY_X = Poly((0, 1))


@dataclass(frozen=True)
class RatFun:
    """Rational function num/den in canonical scalar form.

    The denominator's leading coefficient is normalized to 1 (the scalar
    factor moves into the numerator); no polynomial GCD cancellation is
    performed — equality testing cross-multiplies, so uncancelled common
    factors are harmless. Two exact rules keep common factors from being
    created instead: a sum over one and the same denominator `Poly` adds
    the numerators over it, and the logarithmic derivative r'/r of
    r = N/D is formed as (N'D - ND')/(N D) (`rat_log_derivative`), not as
    the quotient r'/r, whose denominator D^3 N repeats D.
    """

    num: Poly
    den: Poly

    def __init__(self, num, den=POLY_ONE):
        num = num if isinstance(num, Poly) else Poly(num if isinstance(num, (list, tuple)) else (num,))
        den = den if isinstance(den, Poly) else Poly(den if isinstance(den, (list, tuple)) else (den,))
        if den.is_zero():
            raise ZeroCoefficientError("rational function with zero denominator")
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
            # force exact monic lead (scale can leave 1+eps rounding)
            den = Poly._of([*den.coeffs[:-1], 1 + 0j])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def const(k) -> RatFun:
        return RatFun(Poly((as_complex(k),)), POLY_ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- field operations ---------------------------------------------------

    def __add__(self, other: RatFun) -> RatFun:
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __neg__(self) -> RatFun:
        return RatFun(-self.num, self.den)

    def __sub__(self, other: RatFun) -> RatFun:
        return self + (-other)

    def __mul__(self, other: RatFun) -> RatFun:
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: RatFun) -> RatFun:
        if other.num.is_zero():
            raise ZeroCoefficientError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def scale(self, k) -> RatFun:
        return RatFun(self.num.scale(k), self.den)

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"


RAT_ZERO = RatFun(POLY_ZERO, POLY_ONE)
RAT_ONE = RatFun(POLY_ONE, POLY_ONE)


def rat_eval(r: RatFun, x) -> complex:
    """Evaluate num(x)/den(x) by Horner's scheme.

    Raises PoleError when |den(x)| <= POLE_TOL * max(1, |x|^deg(den)), the
    scale of den's own Horner evaluation. The two Horner loops are
    `Poly.__call__`'s, inlined so that x is coerced once.
    """
    x = as_complex(x)
    den = r.den.coeffs
    dv = 0j
    for c in reversed(den):
        dv = dv * x + c
    deg = len(den) - 1
    scale = max(1.0, abs(x) ** deg) if deg > 0 else 1.0
    if abs(dv) <= POLE_TOL * scale:
        raise PoleError(f"denominator vanishes at x = {x!r}")
    nv = 0j
    for c in reversed(r.num.coeffs):
        nv = nv * x + c
    return nv / dv


def rat_derivative(r: RatFun) -> RatFun:
    """Quotient-rule derivative (num' den - num den') / den^2."""
    return RatFun(r.num.derivative() * r.den - r.num * r.den.derivative(),
                  r.den * r.den)


def rat_log_derivative(r: RatFun) -> RatFun:
    """r'/r of r = N/D as (N' D - N D') / (N D); r must not be zero."""
    if r.num.is_zero():
        raise ZeroCoefficientError("logarithmic derivative of the zero "
                                   "rational function")
    n, d = r.num, r.den
    return RatFun(n.derivative() * d - n * d.derivative(), n * d)


def rat_equal(r1: RatFun, r2: RatFun) -> bool:
    """True iff num1*den2 - num2*den1 is zero within EQUAL_TOL relative to
    the largest coefficient magnitude of either cross product."""
    p1 = r1.num * r2.den
    p2 = r2.num * r1.den
    scale = max(p1.max_coeff(), p2.max_coeff())
    if scale == 0.0:
        return True
    diff = p1 - p2
    return diff.max_coeff() <= EQUAL_TOL * scale
