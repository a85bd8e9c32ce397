"""Transformation pipeline between Abel-type first-order equations and
linear second-order equations.

An AIR parameter set (s0..s2, r0..r2 plus the cubic's root layout) encodes a
first-order equation whose inverse-variable form is a Riccati equation; the
composite of that inversion with the standard Riccati-to-linear substitution
is a linear second-order ODE with rational coefficients. `air_to_linear`
emits that composite directly — the intermediate objects are implicit,
non-numeric, and never needed at runtime.

The rest of the module is the non-local machinery that connects a linear ODE
with first-order coefficient c1 and zeroth-order c0 to relatives sharing its
normal form:

* `mobius_nonlocal` — the involutive transform (c1, c0) -> (c0'/c0 - c1, c0);
* `companion_p_ode` — the equation satisfied by p = y';
* `reconstruct_y`  — algebraic recovery y = (p' - c1 p)/c0, giving y' = p
  without quadrature.

The central identity (tested, not assumed): the normal form of
companion_p_ode(mobius_nonlocal(ode)) coincides with the normal form of ode.
Both maps take c0'/c0 as the logarithmic derivative (N'D - ND')/(ND) of
c0 = N/D (`rat_log_derivative`), and `to_normal_form` keeps c1^2/4 - c1'/2
over c1's squared denominator, so the coincidence computes within
DEGREE_CAP on the hypergeometric seed equations of all three families
(`solutions._pfq_seed_ode`): the GHE companion's (c1, c0) have (numerator,
denominator) degrees (11, 12) and (28, 30), its normal form (52, 54).
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateError, ParamError, PoleError, ZeroCoefficientError
from .forms import LinearODE
from .numkernel import (POLY_X, Poly, RatFun, as_complex, rat_derivative,
                        rat_eval, rat_log_derivative)

#: Cubic root layouts of the AIR right-hand side and the matching P(y).
KIND_THREE_EQUAL = "ThreeEqualRoots"   # P(y) = 1
KIND_TWO_EQUAL = "TwoEqualRoots"       # P(y) = y
KIND_DISTINCT = "DistinctRoots"        # P(y) = y(y-1)

_KINDS = (KIND_THREE_EQUAL, KIND_TWO_EQUAL, KIND_DISTINCT)

#: |c0(x)| below this (relative to max(1,|x|)) counts as a zero of c0 when
#: reconstructing y from p.
RECONSTRUCT_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class AIRParams:
    """Parameters of the solvable Abel equation class.

    kind selects the root layout of the defining cubic (equivalently the
    polynomial P(y) of the associated canonical form); rho1..rho3, when all
    given, select the general root-parametrized form instead.
    """

    s0: complex
    s1: complex
    s2: complex
    r0: complex
    r1: complex
    r2: complex
    kind: str
    rho1: complex | None = None
    rho2: complex | None = None
    rho3: complex | None = None

    def __init__(self, s0, s1, s2, r0, r1, r2, kind=KIND_THREE_EQUAL,
                 rho1=None, rho2=None, rho3=None):
        if kind not in _KINDS:
            raise ParamError(f"kind must be one of {_KINDS}, got {kind!r}")
        s2c, r2c = as_complex(s2), as_complex(r2)
        if s2c == 0 and r2c == 0:
            raise ParamError("AIR parameters require s2 != 0 or r2 != 0")
        rhos = (rho1, rho2, rho3)
        given = [r for r in rhos if r is not None]
        if given and len(given) != 3:
            raise ParamError("rho1..rho3 must be given together or not at all")
        object.__setattr__(self, "s0", as_complex(s0))
        object.__setattr__(self, "s1", as_complex(s1))
        object.__setattr__(self, "s2", s2c)
        object.__setattr__(self, "r0", as_complex(r0))
        object.__setattr__(self, "r1", as_complex(r1))
        object.__setattr__(self, "r2", r2c)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rho1", as_complex(rho1) if rho1 is not None else None)
        object.__setattr__(self, "rho2", as_complex(rho2) if rho2 is not None else None)
        object.__setattr__(self, "rho3", as_complex(rho3) if rho3 is not None else None)

    @property
    def rho(self) -> tuple[complex, complex, complex] | None:
        if self.rho1 is None:
            return None
        return (self.rho1, self.rho2, self.rho3)


def air_to_linear(p: AIRParams) -> LinearODE:
    """Linear second-order image of an AIR parameter set.

    Emits the composite of the x<->y inversion and the Riccati-to-linear
    substitution as an ODE y'' = c1(x) y' + c0(x) y with rational
    coefficients. s2 = 0 collapses the construction to a plain
    hypergeometric-class equation and is refused (DegenerateError).
    """
    s0, s1, s2 = p.s0, p.s1, p.s2
    r0, r1, r2 = p.r0, p.r1, p.r2
    if s2 == 0:
        raise DegenerateError(
            "s2 = 0 degenerates the construction to a plain hypergeometric "
            "equation; no fourth singularity is produced")
    lin2 = Poly((r2, s2))          # s2 x + r2
    lin1 = Poly((r1, s1))          # s1 x + r1
    lin0 = Poly((r0, s0))          # s0 x + r0
    if p.rho is not None:
        rho1, rho2, rho3 = p.rho
        if (abs(rho1 - rho2) == 0 or abs(rho1 - rho3) == 0
                or abs(rho2 - rho3) == 0):
            raise ParamError("rho1..rho3 must be pairwise distinct")
        prod = Poly((-rho1, 1)) * Poly((-rho2, 1)) * Poly((-rho3, 1))
        c1 = RatFun(lin1, prod) + RatFun(Poly((s2,)), lin2)
        for r in (rho1, rho2, rho3):
            c1 = c1 - RatFun(Poly((1,)), Poly((-r, 1)))
        c0 = RatFun(-(lin0 * lin2), prod * prod)
        return LinearODE(c1, c0)
    if p.kind == KIND_THREE_EQUAL:
        c1 = RatFun(lin1 * lin2 + Poly((s2,)), lin2)
        c0 = RatFun(-(lin0 * lin2), Poly((1,)))
    elif p.kind == KIND_TWO_EQUAL:
        c1 = RatFun(lin1 * lin2 - Poly((r2,)), POLY_X * lin2)
        c0 = RatFun(-(lin0 * lin2), Poly((0, 0, 1)))
    else:  # KIND_DISTINCT
        num1 = Poly((r2 * (1 + r1), (s1 - 2) * r2 + s2 * r1, s2 * (s1 - 1)))
        c1 = RatFun(num1, POLY_X * Poly((-1, 1)) * lin2)
        c0 = RatFun(-(lin0 * lin2), Poly((0, 0, 1)) * Poly((1, -2, 1)))
    return LinearODE(c1, c0)


def mobius_nonlocal(ode: LinearODE) -> LinearODE:
    """Non-local coefficient transform (c1, c0) -> (c0'/c0 - c1, c0).

    Involutive: applying it twice returns coefficients rationally equal to
    the input's. Requires a structurally nonzero c0.
    """
    if ode.c0.num.is_zero():
        raise ZeroCoefficientError(
            "the non-local transform needs c0 not identically zero")
    return LinearODE(rat_log_derivative(ode.c0) - ode.c1, ode.c0)


def companion_p_ode(ode: LinearODE) -> LinearODE:
    """ODE satisfied by p = y' when y'' = c1 y' + c0 y.

    Differentiating and eliminating y gives
    p'' = (c0'/c0 + c1) p' + (c1' + c0 - c0' c1/c0) p; when c0 is
    identically zero, y'' = c1 y' forces the reduced pair (c1, c1')."""
    c1, c0 = ode.c1, ode.c0
    if c0.num.is_zero():
        return LinearODE(c1, rat_derivative(c1))
    ratio = rat_log_derivative(c0)
    return LinearODE(ratio + c1, rat_derivative(c1) + c0 - ratio * c1)


def reconstruct_y(p_basis, ode: LinearODE):
    """Recover a basis for y'' = c1 y' + c0 y from a basis of the companion
    p-equation, without quadrature: y = (p' - c1 p)/c0 and y' = p.

    Evaluation raises PoleError at zeros of c0 (where the algebraic
    reconstruction formula breaks down).
    """
    from .solutions import make_basis  # deferred: solutions builds on abel

    if ode.c0.num.is_zero():
        raise ZeroCoefficientError("reconstruction needs c0 not identically zero")
    c1, c0 = ode.c1, ode.c0

    def lift(member):
        def y(x):
            x = as_complex(x)
            c0v = rat_eval(c0, x)
            if abs(c0v) <= RECONSTRUCT_ZERO_TOL * max(1.0, abs(x)):
                raise PoleError(f"c0 vanishes at x = {x!r}; y = (p' - c1 p)/c0 undefined")
            pv, ppv = member(x)
            return (ppv - rat_eval(c1, x) * pv) / c0v, pv
        return y

    return make_basis(
        y1=lift(p_basis.y1),
        y2=lift(p_basis.y2),
        classification=p_basis.classification,
        family=p_basis.family,
        valid_domain=p_basis.valid_domain,
        formula=f"reconstruct({p_basis.formula})",
        derived=dict(p_basis.derived),
        probe_point=p_basis.probe_point,
    )
