"""Special-function evaluation with paired value/derivative results.

Confluent and Gauss hypergeometric functions, Whittaker functions, the error
function family, and the incomplete gamma/beta integrals — everything the
closed-form solution bases are built from. Each public function returns an
FnValue carrying the value and the derivative with respect to the final
argument, so solution members can be assembled with exact product/chain rules
(no finite differencing inside the library). Where the derivative is a second
series (0F1, 1F1, U, 2F1 and the Whittaker functions), it is summed at its
first read, so a caller that needs only the value sums only its series.

Numeric architecture
--------------------
Every function has one double-precision kernel, _k_*(cap, ...), on builtin
complex with the Lanczos gamma, and one mpmath rerun, _mp_*(m, ...): a
single call of mpmath's own function (hyp0f1, hyp1f1, hyperu, hyp2f1, erf,
gammainc, or betainc(a, b, 0, x) for B_x). In the
kernels every series is summed by _sum_series and both continued fractions
by the modified-Lentz loop _lentz, which stop once |term| <= 1e-16 |sum|
three consecutive times (non-strict, so an exactly zero sum stops) or
|delta - 1| < 1e-16, within the term cap: MAX_TERMS_DEFAULT, or the
HEUN_AIR_MAX_TERMS environment variable, read once per public call. Each
kernel also returns a cancellation estimate -- the peak magnitude reached by
partial sums/terms divided by the final magnitude, so that the relative
error is about SERIES_EPS times the estimate.

_guarded tries a function's double-precision routes, given as one ordered
tuple, and returns the first finite value whose estimate is at most
CANCEL_LIMIT (~1e-13 relative accuracy), else the mpmath rerun:

1. the kernel _k_*;
2. for U, 2F1, B_x and Gamma(a, z) only, a second double-precision route
   _k2_*(cap, ...), which returns (value, estimate) with the estimate in
   the same units, or _DECLINE where it does not apply:
   - U for Re z > 0: the Laplace integral at Re a >= 1 by a
     double-exponential trapezoid rule, whose estimate includes the square
     of its step-halving difference, then the a-recurrence down to a in
     its stable direction;
   - 2F1 for |1 - z| <= CONNECT_MAX: the 1 - z connection formula, which
     declines within INT_TOL of an integer c - a - b; B_x goes through it;
   - Gamma(a, z): Legendre's continued fraction for Re z > 0, and
     Gamma(a) - z^a/a 1F1(a; a+1; -z) otherwise;
   each estimate also counts the rounding of the route's gamma factors
   (_gamma_ulps) and powers, which grows with |a|, |b|, |c| and near the
   integers, where the reflection loses digits;
3. the mpmath rerun, on this thread's private mpmath context m at the
   fixed working precision _RERUN_DPS, whose value is rounded to a double.
   mpmath is imported by the first rerun (_mp_ctx), not with the package,
   so a process whose every call the double routes answer never loads it.

Each public function builds its tuple at the call, from the module's
names, for its value and its derivative. The kernel comes first, except
within CONNECT_FIRST of z = 1, where 2F1 and B_x list the connection route
first: there the Gauss series converges slowest, like |z|^n, while the
route's two series in 1 - z converge within a few dozen terms. Elsewhere,
a call that the kernel answers is unchanged by the second routes, and only
a value that the kernel would have handed to the rerun can come from a
second route instead: it then differs from the rerun's value in the last
digits, by at most ~1e-13 relative (tests/test_accuracy.py). Any route
that overflows inside declines to the next, and so does a second route
that raises a typed error (_declines wraps each _k2_*); a kernel's typed
errors (a refused input, the term cap) propagate. A rerun value beyond the
doubles, above or below, raises NonFiniteError.

mpmath's functions raise their own working precision while a sum cancels
(F. Johansson et al., mpmath, https://mpmath.org), so a rerun is one pass
and reads no estimate; a hypergeometric sum cancelling below the working
precision, such as a terminating series whose value is exactly 0, is 0. So
U's connection formula, the Kummer and Euler transformations and the B_x
prefactor are written once, in the double kernels. At the points a rerun
answers, tests/test_accuracy.py compares mpmath with itself at 40 digits:
there it checks the working precision, not the algorithm.

A derivative that is a second series runs through _guarded at its first
read, under the term cap that its call read, and Gamma(a, z)'s and B_x's
closed forms are formed there; its errors (ConvergenceError, NonFiniteError
also for an overflow, ...) are raised by that read, and by every later one,
not by the call, so a value that fits a double stays readable.

The double path keeps two bounded LRU memos, since one point of a basis
repeats work: the members of a BHE or CHE basis sum two identical 1F1
series at each x (the M member's two values are terms of the U or W
member's), and U's gamma factors depend on (a, b) only. The 1F1 memo holds
the last 256 (value, cancel) results of the double-path 1F1 kernel,
keyed on (term cap, a, b, z), so a lower HEUN_AIR_MAX_TERMS is never
answered from a sum found under a higher one. The U memo holds the two
gamma products of the connection formula for the last 16 (a, b). Each
_guarded call still decides its own rerun, and the mpmath rerun is never
memoized. Keys compare with ==, which equates +0.0 and -0.0; no result bit
of either kernel was found to depend on the sign of a zero argument part.

Branches: all fractional powers and logarithms are principal, arg in
(-pi, pi], defined on the negative real axis and continuous from above (the
C99/cmath convention, which mpmath shares). Functions whose defining data is
genuinely undefined at a point raise instead (DomainError/BranchError).
"""
from __future__ import annotations

import cmath
import functools
import math
import os
import threading

from .errors import (BranchError, ConvergenceError, DomainError, HeunAirError,
                     NonFiniteError, ParamError, PoleError)
from .numkernel import as_complex

ENV_MAX_TERMS = "HEUN_AIR_MAX_TERMS"
MAX_TERMS_DEFAULT = 10000

#: Series termination: |term| <= SERIES_EPS*|sum|, three in a row; continued
#: fractions stop once |delta - 1| < SERIES_EPS.
SERIES_EPS = 1e-16
CONSECUTIVE_BELOW = 3

#: Smallest positive double: the continued fractions' zero-denominator guard.
TINY = 5e-324

#: Largest estimate (relative error over SERIES_EPS) at which _guarded keeps
#: a double-precision route's value; above it the next route runs, and after
#: the last one the mpmath rerun.
CANCEL_LIMIT = 1e3

#: Integer-proximity tolerance for parameter preconditions.
INT_TOL = 1e-9

#: Kummer transformation applied inside the 1F1 kernel only below this real
#: part; mild alternation (Re z in (-2,0)) is summed directly.
KUMMER_RE_THRESHOLD = -2.0

#: erf/erfi guaranteed evaluation domain.
ERF_MAX_ABS = 12.0

#: Entries kept by the double path's memos: 1F1 sums and U's gamma factors.
_MEMO_1F1 = 256
_MEMO_U_FACTORS = 16

#: A second route's (value, estimate) when it does not apply.
_DECLINE = (complex("nan"), math.inf)

#: The 2F1 connection route runs for |1 - z| up to this,
CONNECT_MAX = 0.9
#: and before the kernel up to this, where the Gauss series converges
#: slowest. Beyond it the kernel stays first: at 0.2 the GHE members miss
#: their bound in tests/test_member_accuracy.py at x = 0.85.
CONNECT_FIRST = 0.1


def max_terms() -> int:
    """Series term cap, overridable via HEUN_AIR_MAX_TERMS."""
    raw = os.environ.get(ENV_MAX_TERMS)
    if raw is None:
        return MAX_TERMS_DEFAULT
    try:
        n = int(raw)
    except ValueError:
        raise ParamError(f"{ENV_MAX_TERMS} must be a positive integer, got {raw!r}")
    if n <= 0:
        raise ParamError(f"{ENV_MAX_TERMS} must be a positive integer, got {raw!r}")
    return n


class FnValue:
    """Function value and derivative with respect to the final argument.

    The derivative is either given, FnValue(value, derivative), or computed
    on its first read by a thunk, FnValue(value, thunk=f): the public
    functions whose derivative is a second series pass that series as the
    thunk, so a caller that never reads it never sums it. The thunk keeps
    the term cap its call read, and an error in it (ConvergenceError,
    NonFiniteError, also where the thunk overflows) is raised by the read,
    at every read."""

    __slots__ = ("value", "_derivative", "_thunk")

    def __init__(self, value, derivative=None, thunk=None):
        self.value = value
        self._derivative = derivative
        self._thunk = thunk

    @property
    def derivative(self):
        if self._thunk is not None:
            try:
                d = self._thunk()
            except OverflowError:
                d = math.inf
            if not cmath.isfinite(d):
                raise NonFiniteError("derivative overflows double precision")
            self._derivative, self._thunk = d, None
        return self._derivative

    def __eq__(self, other):
        if not isinstance(other, FnValue):
            return NotImplemented
        return (self.value, self.derivative) == (other.value, other.derivative)

    def __hash__(self):
        return hash((self.value, self.derivative))

    def __repr__(self):
        return f"FnValue(value={self.value!r}, derivative={self.derivative!r})"


def near_integer(w, tol: float = INT_TOL) -> bool:
    w = complex(w)
    return abs(w.imag) <= tol and abs(w.real - round(w.real)) <= tol


def near_nonpositive_integer(w, tol: float = INT_TOL) -> bool:
    w = complex(w)
    return near_integer(w, tol) and round(w.real) <= 0


# ---------------------------------------------------------------------------
# Lanczos gamma (double precision), g = 7, 9 coefficients
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
#: Complex, so that the erf kernel divides complex by complex.
_SQRT_PI = complex(math.sqrt(math.pi))


def _lanczos(zz):
    """t and the Lanczos sum: gamma(zz + 1) = sqrt(2 pi) t^(zz+1/2) e^(-t) sum."""
    acc = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        acc += _LANCZOS_COEF[i] / (zz + i)
    return zz + _LANCZOS_G + 0.5, acc


def _log_gamma(z) -> complex:
    """A logarithm of gamma, on no particular branch, that overflows nowhere:
    the Lanczos formula in log form, and in the reflection
    sin(pi z) = (s/2) e^(-s pi z) (1 - e^(2 s pi z)) with s = i sign(Im z)."""
    if z.real < 0.5:
        s = 1j if z.imag >= 0 else -1j
        w = cmath.pi * z
        log_sin = -s * w + cmath.log(s / 2) + cmath.log(1 - cmath.exp(2 * s * w))
        return math.log(math.pi) - log_sin - _log_gamma(1.0 - z)
    zz = z - 1.0
    t, acc = _lanczos(zz)
    return math.log(_SQRT_TWO_PI) + (zz + 0.5) * cmath.log(t) - t + cmath.log(acc)


def gamma(z) -> complex:
    """Complete gamma function (Lanczos approximation, reflection for
    Re(z) < 0.5). Relative error at most 5e-13 on Re z in [-30, 60],
    |Im z| <= 220 (against mpmath at 40 digits, the worst of 3000 seeded
    points is 3.8e-13 to 4.6e-13, by seed), and ~1e-12 in log form where
    sin(pi z) overflows (|Im z| >~ 225). In the reflection, Gamma(1 - z) is
    taken in log form where the Lanczos intermediate overflows although
    Gamma(1 - z) does not (Re z <~ -140); where Gamma(1 - z) overflows
    too, or its product with sin(pi z) does, |Gamma(z)| is below the normal
    doubles and is refused (NonFiniteError)."""
    z = as_complex(z)
    if near_nonpositive_integer(z):
        # sin(pi z) in the reflection below is never exactly zero in floating
        # point, and within 1e-9 of a pole the result has no usable accuracy
        raise PoleError(f"gamma pole at {z!r}")
    try:
        if z.real < 0.5:
            try:
                inner = gamma(1.0 - z)
            except NonFiniteError:  # the Lanczos t^(zz+1/2) overflowed
                try:
                    inner = cmath.exp(_log_gamma(1.0 - z))
                except OverflowError:  # so did gamma(1 - z): gamma(z) is tiny
                    inner = math.inf
            d = cmath.sin(cmath.pi * z) * inner
            if not cmath.isfinite(d):  # |gamma(z)| = pi/|d| is tiny
                raise NonFiniteError(f"gamma({z!r}) underflows double precision")
            return cmath.pi / d
        zz = z - 1.0
        t, acc = _lanczos(zz)
        return _SQRT_TWO_PI * t ** (zz + 0.5) * cmath.exp(-t) * acc
    except OverflowError:
        if z.real < 0.5:  # sin(pi z) overflowed, where gamma itself is tiny
            return cmath.exp(_log_gamma(z))
        raise NonFiniteError(f"gamma({z!r}) overflows in double precision") from None


def rgamma(z) -> complex:
    """Reciprocal gamma, with exact zeros at the nonpositive integers. Within
    INT_TOL of one, n, the reflection takes sin(pi z) = (-1)^n sin(pi (z - n))
    on the reduced argument, which keeps the relative accuracy."""
    z = as_complex(z)
    try:
        if near_nonpositive_integer(z):
            n = round(z.real)
            if z == n:
                return 0j
            sign = -1 if n % 2 else 1
            r = sign * cmath.sin(cmath.pi * (z - n)) * gamma(1.0 - z) / cmath.pi
        elif z.real < 0.5:
            r = cmath.sin(cmath.pi * z) * gamma(1.0 - z) / cmath.pi
        else:
            r = 1.0 / gamma(z)
        if cmath.isfinite(r):
            return r
    # gamma, or the product with it, overflows or underflows where 1/gamma
    # may still be in range
    except (OverflowError, NonFiniteError, ZeroDivisionError):
        pass
    try:
        return cmath.exp(-_log_gamma(z))
    except OverflowError:
        raise NonFiniteError(f"rgamma({z!r}) overflows in double precision") from None


def principal_power(z, w) -> complex:
    """z**w on the principal branch (arg in (-pi, pi], defined on the
    negative real axis). Zero base: 0**0 = 1, 0**w = 0 for Re(w) > 0,
    DomainError otherwise."""
    z = as_complex(z)
    w = as_complex(w)
    if z == 0:
        if w == 0:
            return 1.0 + 0j
        if w.real > 0:
            return 0j
        raise DomainError(f"0 raised to power {w!r} with nonpositive real part")
    return cmath.exp(w * cmath.log(z))


# ---------------------------------------------------------------------------
# Rerun guard
# ---------------------------------------------------------------------------

_local = threading.local()


#: Working precision of the mpmath rerun, in decimal digits: the 17 that
#: fix a double and 9 guard digits.
_RERUN_DPS = 26


def _mp_ctx() -> mpmath.MPContext:
    """This thread's private mpmath context, at _RERUN_DPS digits, so that a
    rerun never changes the global mpmath.mp precision. Created once per
    thread: building an mpmath.MPContext costs about a millisecond. mpmath
    itself is imported here, at the first rerun."""
    m = getattr(_local, "m", None)
    if m is None:
        import mpmath
        m = _local.m = mpmath.MPContext()
        m.dps = _RERUN_DPS
    return m


def _export_cancel(peak, mag_final) -> float:
    """peak / mag_final, at most 1e300 (also where it is inf or nan)."""
    c = peak / max(mag_final, TINY)
    return c if c <= 1e300 else 1e300


def _declines(route):
    """A second double-precision route that declines, returning _DECLINE,
    where it raises a typed refusal or overflows inside; a kernel's typed
    errors propagate instead."""
    @functools.wraps(route)
    def second(cap, *args):
        try:
            return route(cap, *args)
        except (HeunAirError, ArithmeticError):
            return _DECLINE
    return second


def _guarded(routes, rerun, cap, *args) -> complex:
    """Try the double-precision routes in order under the term cap `cap`,
    each returning (value, estimate), and return the first finite value
    whose estimate is at most CANCEL_LIMIT; a route that overflows (an
    ArithmeticError) declines to the next. When every route declines,
    return rerun(m, *args): one call of mpmath's own function on this
    thread's private context m, NonFiniteError where its value overflows a
    double or underflows to 0."""
    for route in routes:
        try:
            value, est = route(cap, *args)
        except ArithmeticError:
            continue
        if cmath.isfinite(value) and est <= CANCEL_LIMIT:
            return value
    m = _mp_ctx()
    from mpmath.libmp import NoConvergence  # loaded by _mp_ctx
    try:
        v = rerun(m, *args)
    except NoConvergence as e:
        raise ConvergenceError(f"extended-precision evaluation: {e}") from None
    if not m.isfinite(v):
        raise ConvergenceError("extended-precision evaluation is not finite")
    c = complex(v)  # +-inf or 0 beyond the doubles' range, without raising
    if not cmath.isfinite(c) or (c == 0 and v != 0):
        raise NonFiniteError("function value lies beyond the doubles' range")
    return c


# ---------------------------------------------------------------------------
# Summation loops and double-precision kernels, each with its mpmath rerun
# ---------------------------------------------------------------------------

def _sum_series(first, step, what, cap):
    """first + sum of the terms term = step(term, n), n = 0, 1, ..., at most
    cap of them; returns (sum, cancel), the cancellation estimate being the
    largest |term| or |partial sum| reached over |sum| (_export_cancel)."""
    term = s = first
    peak = abs(s)
    below = 0
    for n in range(cap):
        term = step(term, n)
        s = s + term
        m_t, m_s = abs(term), abs(s)
        if m_t > peak:
            peak = m_t
        if m_s > peak:
            peak = m_s
        # non-strict, so that a sum that is exactly zero terminates too
        if m_t <= SERIES_EPS * m_s:
            below += 1
            if below >= CONSECUTIVE_BELOW:
                return s, _export_cancel(peak, m_s)
        else:
            below = 0
    raise ConvergenceError(f"{what} did not converge within {cap} terms")


def _lentz(b0, a_n, b_n, what, cap):
    """b0 + a_1/(b_1 + a_2/(b_2 + ...)) by the modified Lentz method
    (Thompson and Barnett, J. Comput. Phys. 64, 1986), within cap terms;
    a_n and b_n map n >= 1 to the partial numerators and denominators."""
    f = b0 if abs(b0) > TINY else complex(TINY)
    c_ = f
    d = 0j
    for n in range(1, cap):
        an, bn = a_n(n), b_n(n)
        d = bn + an * d
        if abs(d) < TINY:
            d = complex(TINY)
        c_ = bn + an / c_
        if abs(c_) < TINY:
            c_ = complex(TINY)
        d = 1 / d
        delta = c_ * d
        f = f * delta
        if abs(delta - 1) < SERIES_EPS:
            return f
    raise ConvergenceError(f"{what} did not converge within {cap} terms")


def _k_1f1_series(cap, a, b, z):
    """Kummer series sum_n (a)_n/(b)_n z^n/n!; returns (sum, cancel)."""
    return _sum_series(
        1 + 0j, lambda t, n: t * (a + n) / (b + n) * z / (n + 1),
        "1F1 series", cap)


@functools.lru_cache(maxsize=_MEMO_1F1)
def _k_1f1(cap, a, b, z):
    """1F1 with the Kummer transformation applied for strongly negative
    Re(z) (alternating-series rescue); returns (value, cancel). The memo key
    holds the term cap, so no sum stands in for a lower cap's."""
    if z.real < KUMMER_RE_THRESHOLD:
        v, cancel = _k_1f1_series(cap, b - a, b, -z)
        return cmath.exp(z) * v, cancel
    return _k_1f1_series(cap, a, b, z)


# zeroprec: a sum that cancels below the working precision, such as a
# terminating series whose value is exactly 0, is 0 instead of a ValueError
def _mp_1f1(m, a, b, z):
    return m.hyp1f1(a, b, z, zeroprec=m.prec)


@functools.lru_cache(maxsize=_MEMO_U_FACTORS)
def _u_factors(a, b):
    """The z-independent factors of U's connection formula (DLMF 13.2.42).
    The formula multiplies left to right, so it forms each product before
    the z-dependent factor: memoizing the products keeps every bit."""
    return gamma(1 - b) * rgamma(a - b + 1), gamma(b - 1) * rgamma(a)


def _k_kummer_u(cap, a, b, z):
    """U via the two-term connection formula; returns (value, cancel)."""
    m1, c1 = _k_1f1(cap, a, b, z)
    m2, c2 = _k_1f1(cap, a - b + 1, 2 - b, z)
    g1, g2 = _u_factors(a, b)
    t1 = g1 * m1
    t2 = g2 * principal_power(z, 1 - b) * m2
    u = t1 + t2
    peak = abs(t1) * max(c1, 1.0) + abs(t2) * max(c2, 1.0)
    return u, _export_cancel(peak, abs(u))


def _mp_kummer_u(m, a, b, z):
    return m.hyperu(a, b, z, zeroprec=m.prec)


def _gamma_ulps(*xs) -> float:
    """The rounding of a product of gamma or reciprocal-gamma factors at xs,
    in units of SERIES_EPS relative: 1 + 4|x| for the Lanczos formula (its
    power and its sum lose about |x| ulps; the factor 4 covers the worst of
    4000 seeded points against mpmath on Re x in [-40, 60], |Im x| <= 60
    but for a few near Re x = 0.5, Im x ~ 25, where the sum cancels), and
    where Re x < 0.5 the reflection's sin(pi x) at the rounded argument
    pi x, |pi x cot(pi x)| <= max(pi |x|, |x| / d) ulps, d the distance from
    x to the nearest integer. (At an integer, rgamma is exactly 0.)"""
    ulps = 0.0
    for x in xs:
        ax = abs(x)
        ulps += 1.0 + 4.0 * ax
        d = abs(x - round(x.real))
        if x.real < 0.5 and d:
            ulps += max(math.pi * ax, ax / d)
    return ulps


def _laplace_nodes(ks):
    """(even, log s, s, weight) of the trapezoid rule with step _LAPLACE_H
    after s = exp(x - e^-x), x = k h, for k in ks: a double-exponential
    rule for integrands that decay like e^-s (Ooura and Mori, J. Comput.
    Appl. Math. 38, 1991)."""
    nodes = []
    for k in ks:
        x = k * _LAPLACE_H
        e = math.exp(-x)
        log_s = x - e
        s = math.exp(log_s)
        nodes.append((k % 2 == 0, log_s, s, _LAPLACE_H * (1 + e) * s))
    return tuple(nodes)


_LAPLACE_H = 1 / 8
#: Summed outward from x = 0: up to x = 6 (s = 403) and down to x = -5
#: (s = e^-153).
_LAPLACE_RIGHT = _laplace_nodes(range(0, 49))
_LAPLACE_LEFT = _laplace_nodes(range(-1, -41, -1))


@_declines
def _k2_kummer_u(cap, a, b, z):
    """U for Re z > 0 by the Laplace integral (DLMF 13.4.4) with s = z t,
    U(a, b, z) = z^-a / Gamma(a) int_0^inf e^-s s^(a-1) (1 + s/z)^(b-a-1) ds,
    at a + n, the first order with Re >= 1, and (when n > 0) at a + n + 1,
    on one set of nodes; then n steps of the a-recurrence DLMF 13.3.7,
    U(a-1) = -(b - 2a - z) U(a) - a (a - b + 1) U(a+1), in the decreasing
    direction, in which U is the minimal solution. Returns (value,
    estimate), the estimate being the relative error over SERIES_EPS:
    the square of the halving difference (the rule on the even nodes alone
    has step 2h, and a double-exponential rule's error falls as
    exp(-c/h), so the error at h is about the square of that at 2h), plus
    the rounding, SERIES_EPS times the sums' peak-to-value ratio plus that
    of the factor z^-a0 / Gamma(a0), times the recurrence's
    (|t1| + |t2|) / |U| at each step."""
    if z.real <= 0:
        return _DECLINE
    n = max(0, math.ceil(1 - a.real))
    a0 = a + n
    p = b - a0 - 1
    zi = 1 / z
    j0 = j1 = e0 = e1 = 0j
    m0 = m1 = 0.0
    cexp, clog = cmath.exp, cmath.log
    for nodes in (_LAPLACE_RIGHT, _LAPLACE_LEFT):
        below = 0
        for even, log_s, s, w in nodes:
            ws = 1 + s * zi
            f = w * cexp((a0 - 1) * log_s + p * clog(ws) - s)
            g = f * s / ws  # the integrand of a0 + 1
            j0 += f
            j1 += g
            m0 += abs(f)
            m1 += abs(g)
            if even:
                e0 += f
                e1 += g
            if abs(f) <= SERIES_EPS * abs(j0) and abs(g) <= SERIES_EPS * abs(j1):
                below += 1
                if below >= CONSECUTIVE_BELOW:
                    break
            else:
                below = 0
        else:
            return _DECLINE  # the integrand did not decay across the nodes
    halving = max(abs(j0 - 2 * e0) / abs(j0), abs(j1 - 2 * e1) / abs(j1))
    log_z = cmath.log(z)
    rounding = (max(m0 / abs(j0), m1 / abs(j1)) + _gamma_ulps(a0)
                + abs(a0 * log_z))
    scale = rgamma(a0) * cmath.exp(-a0 * log_z)
    u, u_next = scale * j0, scale * j1 / (a0 * z)
    for k in range(n):
        ak = a0 - k
        t1 = -(b - 2 * ak - z) * u
        t2 = -ak * (ak - b + 1) * u_next
        u, u_next = t1 + t2, u
        rounding *= (abs(t1) + abs(t2)) / abs(u)
    return u, halving * halving / SERIES_EPS + rounding


def _k_2f1_series(cap, a, b, c, z):
    return _sum_series(
        1 + 0j, lambda t, n: t * (a + n) * (b + n) / ((c + n) * (n + 1)) * z,
        "2F1 series", cap)


def _k_2f1(cap, a, b, c, z):
    """2F1 for |z| < 1. In the band |z| > 0.5 the Euler transformation
    (1-z)^(c-a-b) 2F1(c-a, c-b; c; z) is applied when the function is
    singular-growing at z = 1 (Re(c-a-b) < 0), which is where the raw series
    conditioning degrades."""
    if abs(z) > 0.5 and (c - a - b).real < 0:
        v, cancel = _k_2f1_series(cap, c - a, c - b, c, z)
        return principal_power(1 - z, c - a - b) * v, cancel
    return _k_2f1_series(cap, a, b, c, z)


def _mp_2f1(m, a, b, c, z):
    return m.hyp2f1(a, b, c, z, zeroprec=m.prec)


@_declines
def _k2_2f1(cap, a, b, c, z):
    """2F1 by the 1 - z connection formula (DLMF 15.8.4, 15.10.21), for
    |1 - z| <= CONNECT_MAX: with s = c - a - b,
    Gamma(c) Gamma(s) / (Gamma(c-a) Gamma(c-b)) 2F1(a, b; 1-s; 1-z)
    + (1-z)^s Gamma(c) Gamma(-s) / (Gamma(a) Gamma(b)) 2F1(c-a, c-b; 1+s; 1-z).
    Declines within INT_TOL of an integer s, where the gamma factors have
    poles; near one, the two terms cancel and the estimate says so."""
    w = 1 - z
    s = c - a - b
    if abs(w) > CONNECT_MAX or near_integer(s):
        return _DECLINE
    f1, c1 = _k_2f1(cap, a, b, 1 - s, w)
    f2, c2 = _k_2f1(cap, c - a, c - b, 1 + s, w)
    g = gamma(c)
    t1 = g * gamma(s) * rgamma(c - a) * rgamma(c - b) * f1
    t2 = principal_power(w, s) * g * gamma(-s) * rgamma(a) * rgamma(b) * f2
    v = t1 + t2
    peak = (abs(t1) * (max(c1, 1.0) + _gamma_ulps(c, s, c - a, c - b))
            + abs(t2) * (max(c2, 1.0) + _gamma_ulps(c, -s, a, b)
                         + abs(s * cmath.log(w))))
    return v, _export_cancel(peak, abs(v))


def _k_0f1(cap, b, z):
    return _sum_series(1 + 0j, lambda t, n: t * z / ((b + n) * (n + 1)),
                       "0F1 series", cap)


def _mp_0f1(m, b, z):
    return m.hyp0f1(b, z, zeroprec=m.prec)


def _k_erf(cap, z):
    """erf kernel: power series for |z| <= 3 and near the imaginary axis,
    continued fraction on erfc elsewhere; returns (value, cancel)."""
    az = abs(z)
    if az <= 3.0 or abs(z.real) < az / 4:
        # erf(z) = 2/sqrt(pi) sum_n (-1)^n z^(2n+1) / (n! (2n+1))
        z2 = z * z
        s, cancel = _sum_series(
            z, lambda t, n: t * (-z2) * (2 * n + 1) / ((n + 1) * (2 * n + 3)),
            "erf series", cap)
        return 2 / _SQRT_PI * s, cancel
    # 1/(sqrt(pi) e^(w^2) erfc w) = w + (1/2)/(w + 1/(w + (3/2)/(w + ...))), Re w > 0
    w = z if z.real > 0 else -z
    f = _lentz(w, lambda n: complex(n) / 2, lambda n: w,
               "erfc continued fraction", cap)
    erfc_w = cmath.exp(-w * w) / _SQRT_PI / f
    erf_w = 1 - erfc_w
    cancel = _export_cancel(1 + abs(erfc_w), abs(erf_w))
    return (erf_w if z.real > 0 else -erf_w), cancel


def _mp_erf(m, z):
    return m.erf(z)


def _legendre_igam(cap, a, z):
    """Legendre's continued fraction, for Re(z) > 0:
    Gamma(a,z) = e^(-z) z^a / (z+1-a - 1(1-a)/(z+3-a - 2(2-a)/(...)))"""
    f = _lentz(z + 1 - a, lambda n: -n * (n - a),
               lambda n: z + 2 * n + 1 - a,
               "incomplete-gamma continued fraction", cap)
    return cmath.exp(-z) * principal_power(z, a) / f


def _igam_by_fraction(a, z) -> bool:
    """Whether Gamma(a, z) is Legendre's continued fraction: large right-plane z."""
    return z.real > 0 and abs(z) >= max(6.0, abs(a) + 2.0)


def _k_igam_upper(cap, a, z):
    """Upper incomplete gamma; complement series for small/left-plane z,
    continued fraction for large right-plane z; returns (value, cancel)."""
    if _igam_by_fraction(a, z):
        return _legendre_igam(cap, a, z), 1.0
    # Gamma(a) - z^a e^(-z) sum_n z^n / (a (a+1) ... (a+n))
    s, series_cancel = _sum_series(1 / a, lambda t, n: t * z / (a + n + 1),
                                   "incomplete-gamma series", cap)
    lower = principal_power(z, a) * cmath.exp(-z) * s
    g = gamma(a)
    v = g - lower
    peak_outer = abs(g) + abs(lower) * max(series_cancel, 1.0)
    return v, _export_cancel(peak_outer, abs(v))


def _mp_igam_upper(m, a, z):
    return m.gammainc(a, z)


@_declines
def _k2_igam_upper(cap, a, z):
    """Upper incomplete gamma where the series route cancels: for Re z > 0
    Legendre's continued fraction of _k_igam_upper at any |z|, which
    converges there; otherwise Gamma(a) - gamma(a, z) with
    gamma(a, z) = z^a/a 1F1(a; a+1; -z) (DLMF 8.5.1), whose series in -z
    does not alternate the way the complement series does for Re z < 0."""
    if z.real > 0:
        return _legendre_igam(cap, a, z), 1.0
    m, cancel = _k_1f1_series(cap, a, a + 1, -z)
    lower = principal_power(z, a) / a * m
    g = gamma(a)
    v = g - lower
    peak = (abs(g) * _gamma_ulps(a)
            + abs(lower) * (max(cancel, 1.0) + abs(a * cmath.log(z))))
    return v, _export_cancel(peak, abs(v))


def _k_inc_beta(cap, x, a, b):
    """B_x(a,b) = x^a/a 2F1(a, 1-b; a+1; x); returns (value, cancel)."""
    f, cancel = _k_2f1(cap, a, 1 - b, a + 1, x)
    return principal_power(x, a) / a * f, cancel


@_declines
def _k2_inc_beta(cap, x, a, b):
    """The same through the 2F1 connection route."""
    f, est = _k2_2f1(cap, a, 1 - b, a + 1, x)
    return principal_power(x, a) / a * f, est


def _mp_inc_beta(m, x, a, b):
    return m.betainc(a, b, 0, x)


# ---------------------------------------------------------------------------
# Public functions
# ---------------------------------------------------------------------------

def hyp1f1(a, b, z) -> FnValue:
    """Confluent hypergeometric M(a; b; z) and d/dz = (a/b) M(a+1; b+1; z).

    b must not lie within 1e-9 of a nonpositive integer. Entire in z; the
    guaranteed accuracy target is ~1e-12 relative for |z| <= 50.
    """
    a, b, z = as_complex(a), as_complex(b), as_complex(z)
    if near_nonpositive_integer(b):
        raise ParamError(f"1F1 undefined: b = {b!r} at a nonpositive integer")
    cap = max_terms()
    value = _guarded((_k_1f1,), _mp_1f1, cap, a, b, z)
    return FnValue(value, thunk=lambda: (a / b) * _guarded(
        (_k_1f1,), _mp_1f1, cap, a + 1, b + 1, z))


def kummer_u(a, b, z) -> FnValue:
    """Kummer U(a; b; z) via the two-term 1F1 connection formula, with
    d/dz = -a U(a+1; b+1; z).

    b must not lie within 1e-9 of any integer (the connection formula's gamma
    factors degenerate there); z must be nonzero.
    """
    a, b, z = as_complex(a), as_complex(b), as_complex(z)
    if near_integer(b):
        raise ParamError(f"U connection formula degenerate: b = {b!r} at an integer")
    if z == 0:
        raise DomainError("U undefined at z = 0")
    cap, routes = max_terms(), (_k_kummer_u, _k2_kummer_u)
    value = _guarded(routes, _mp_kummer_u, cap, a, b, z)
    return FnValue(value, thunk=lambda: -a * _guarded(
        routes, _mp_kummer_u, cap, a + 1, b + 1, z))


def hyp2f1(a, b, c, z) -> FnValue:
    """Gauss 2F1(a, b; c; z) inside the unit disk, with
    d/dz = (ab/c) 2F1(a+1, b+1; c+1; z).

    c must not lie within 1e-9 of a nonpositive integer; |z| >= 1 is refused.
    Accuracy target ~1e-11 relative for |z| <= 0.95. Within CONNECT_FIRST
    of z = 1, value and derivative try the 1 - z connection formula before
    the Gauss series.
    """
    a, b, c, z = as_complex(a), as_complex(b), as_complex(c), as_complex(z)
    if near_nonpositive_integer(c):
        raise ParamError(f"2F1 undefined: c = {c!r} at a nonpositive integer")
    if abs(z) >= 1.0:
        raise DomainError(f"2F1 series domain is |z| < 1, got |z| = {abs(z):.6g}")
    cap = max_terms()
    routes = ((_k2_2f1, _k_2f1) if abs(1 - z) <= CONNECT_FIRST
              else (_k_2f1, _k2_2f1))
    value = _guarded(routes, _mp_2f1, cap, a, b, c, z)
    return FnValue(value, thunk=lambda: (a * b / c) * _guarded(
        routes, _mp_2f1, cap, a + 1, b + 1, c + 1, z))


def hyp0f1(b, z) -> FnValue:
    """Limit hypergeometric 0F1(; b; z) with d/dz = (1/b) 0F1(; b+1; z)."""
    b, z = as_complex(b), as_complex(z)
    if near_nonpositive_integer(b):
        raise ParamError(f"0F1 undefined: b = {b!r} at a nonpositive integer")
    cap = max_terms()
    value = _guarded((_k_0f1,), _mp_0f1, cap, b, z)
    return FnValue(value, thunk=lambda: (1 / b) * _guarded(
        (_k_0f1,), _mp_0f1, cap, b + 1, z))


def whittaker(kind: str, mu, nu, z) -> FnValue:
    """Whittaker functions M/W(mu, nu, z) = z^(nu+1/2) e^(-z/2) {1F1|U}(a;b;z)
    with a = 1/2 - mu + nu, b = 1 + 2 nu, on the principal branch of the
    power. Derivative is with respect to z.
    """
    mu, nu, z = as_complex(mu), as_complex(nu), as_complex(z)
    if kind not in ("M", "W"):
        raise ParamError(f"whittaker kind must be 'M' or 'W', got {kind!r}")
    if z == 0:
        raise DomainError("Whittaker functions undefined at z = 0")
    a = 0.5 - mu + nu
    b = 1.0 + 2.0 * nu
    inner = hyp1f1(a, b, z) if kind == "M" else kummer_u(a, b, z)
    pref = principal_power(z, nu + 0.5) * cmath.exp(-z / 2)
    return FnValue(pref * inner.value, thunk=lambda: pref * (
        ((nu + 0.5) / z - 0.5) * inner.value + inner.derivative))


def erf_like(kind: str, z) -> FnValue:
    """Error function family: kind 'erf' or 'erfi' (erfi(z) = -i erf(iz)),
    with derivatives 2/sqrt(pi) e^(-+z^2). Guaranteed for |z| <= 12."""
    z = as_complex(z)
    if kind not in ("erf", "erfi"):
        raise ParamError(f"erf_like kind must be 'erf' or 'erfi', got {kind!r}")
    if abs(z) > ERF_MAX_ABS:
        raise ConvergenceError(
            f"erf/erfi guaranteed only for |z| <= {ERF_MAX_ABS:g}, got |z| = {abs(z):.6g}")
    cap = max_terms()
    if kind == "erf":
        value = _guarded((_k_erf,), _mp_erf, cap, z)
        deriv = 2.0 / math.sqrt(math.pi) * cmath.exp(-z * z)
    else:
        value = -1j * _guarded((_k_erf,), _mp_erf, cap, 1j * z)
        deriv = 2.0 / math.sqrt(math.pi) * cmath.exp(z * z)
    return FnValue(value, deriv)


def inc_gamma_upper(a, z) -> FnValue:
    """Upper incomplete gamma Gamma(a, z) with d/dz = -z^(a-1) e^(-z).

    z = 0 requires Re(a) > 0 (the complete gamma); elsewhere the principal
    branch of z^a is used. For z = 0 the derivative additionally requires
    Re(a) >= 1.
    """
    a, z = as_complex(a), as_complex(z)
    if z == 0:
        if a.real <= 0:
            raise DomainError("Gamma(a, 0) requires Re(a) > 0")
        value = gamma(a)
        if a == 1:
            return FnValue(value, -1.0 + 0j)
        if a.real > 1:
            return FnValue(value, 0j)
        raise DomainError("derivative of Gamma(a, z) at z = 0 unbounded for Re(a) < 1")
    if near_nonpositive_integer(a) and not _igam_by_fraction(a, z):
        raise ParamError(
            f"Gamma(a, z) series route undefined at nonpositive integer a = {a!r}")
    value = _guarded((_k_igam_upper, _k2_igam_upper), _mp_igam_upper,
                     max_terms(), a, z)
    return FnValue(value, thunk=lambda: -principal_power(z, a - 1) * cmath.exp(-z))


def inc_beta(x, a, b) -> FnValue:
    """Incomplete beta B_x(a, b) = x^a/a 2F1(a, 1-b; a+1; x) with
    d/dx = x^(a-1) (1-x)^(b-1).

    a must not lie within 1e-9 of a nonpositive integer; real x in [1, inf)
    is refused (the integral's endpoint singularity / cut), and |x| >= 1 is
    outside the series domain. Within CONNECT_FIRST of x = 1, the 2F1 is
    tried by the 1 - z connection formula before the Gauss series.
    """
    x, a, b = as_complex(x), as_complex(a), as_complex(b)
    if near_nonpositive_integer(a):
        raise ParamError(f"B_x(a, b) undefined: a = {a!r} at a nonpositive integer")
    if x.imag == 0 and x.real >= 1.0:
        raise BranchError(f"B_x undefined for real x >= 1, got x = {x.real:.6g}")
    if abs(x) >= 1.0:
        raise DomainError(f"B_x series domain is |x| < 1, got |x| = {abs(x):.6g}")
    routes = ((_k2_inc_beta, _k_inc_beta) if abs(1 - x) <= CONNECT_FIRST
              else (_k_inc_beta, _k2_inc_beta))
    value = _guarded(routes, _mp_inc_beta, max_terms(), x, a, b)
    return FnValue(value, thunk=lambda: (principal_power(x, a - 1)
                                        * principal_power(1 - x, b - 1)))
