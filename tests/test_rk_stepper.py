"""The Runge-Kutta 5(4) stepper of `rk45_compare`, pinned to the generic
Dormand-Prince loop it replaced.

`_oracle_advance` is that loop: each stage is a `sum()` over its row of
the tableau, and every step recomputes its first stage. `_oracle_compare`
is `rk45_compare` around it, evaluating c1 and c0 at every right-hand
side. The written-out stepper reuses an accepted step's last stage as the
next step's first (first same as last) and never evaluates a zero c1, so
it must give the same rows to the last bit with fewer right-hand sides.
"""
from __future__ import annotations

import cmath

import pytest

from conftest import draw_family, rng
from heun_air import (HeunAirError, LinearODE, StiffnessError,
                      family_to_normal, make_basis, solve_family)
from heun_air import verify
from heun_air.cli import _VERIFY_WINDOWS
from heun_air.numkernel import POLY_ONE, RAT_ZERO, Poly, RatFun, rat_eval
from heun_air.verify import (_RK_A, _RK_C, _RK_ERR, RK_COMPARE_TOL,
                             RK_MIN_STEP, RK_RTOL, RK_ATOL, RK_SAMPLES,
                             CheckRow, example_basis, example_equation,
                             rk45_compare)

#: Seeded draws per family and branch.
DRAWS = 2
BRANCHES = {"general": False, "plus": True, "minus": "minus"}
#: A BHE general basis changes determination at x = -sigma: keep it out of
#: the window, as the benchmark's verify draws do.
BHE_CLEAR = (0.18, 2.52)
#: The fifth-order weights: the tableau's last row and a zero.
_RK_B5 = _RK_A[6] + (0.0,)


def _oracle_advance(fn, x, u, target, rtol, atol, min_step, h_work=None):
    if target == x:
        return u, h_work
    direction = 1.0 if target > x else -1.0
    if h_work is None:
        h_work = max(min_step * 10, abs(target - x) / 16)
    while direction * (target - x) > 0:
        clamped = abs(target - x) < h_work
        h = direction * min(h_work, abs(target - x))
        ks = []
        for i in range(7):
            xi = x + _RK_C[i] * h
            ui = u
            if i:
                acc0 = sum(_RK_A[i][j] * ks[j][0] for j in range(i))
                acc1 = sum(_RK_A[i][j] * ks[j][1] for j in range(i))
                ui = (u[0] + h * acc0, u[1] + h * acc1)
            ks.append(fn(xi, ui))
        new = (u[0] + h * sum(b * k[0] for b, k in zip(_RK_B5, ks)),
               u[1] + h * sum(b * k[1] for b, k in zip(_RK_B5, ks)))
        err0 = h * sum(e * k[0] for e, k in zip(_RK_ERR, ks))
        err1 = h * sum(e * k[1] for e, k in zip(_RK_ERR, ks))
        norm = max(
            abs(err0) / (atol + rtol * max(abs(u[0]), abs(new[0]))),
            abs(err1) / (atol + rtol * max(abs(u[1]), abs(new[1]))))
        if norm <= 1.0:
            x += h
            u = new
        factor = min(5.0, max(0.2, 0.9 * norm ** -0.2)) if norm > 0 else 5.0
        if norm > 1.0 or not clamped:
            h_work = abs(h) * factor
        if h_work < min_step:
            raise StiffnessError(
                f"step size {h_work:.3e} collapsed below {min_step:.3e} "
                f"at x = {x:.6g}")
    return u, h_work


def _oracle_compare(ode, basis, x0, interval, rtol=RK_RTOL, atol=RK_ATOL,
                    samples=RK_SAMPLES, tol=RK_COMPARE_TOL, ev=rat_eval):
    x0 = complex(x0).real
    a, b = complex(interval[0]).real, complex(interval[1]).real
    min_step = RK_MIN_STEP * abs(b - a)

    def fn(x, u):
        c1x = ev(ode.c1, complex(x))
        c0x = ev(ode.c0, complex(x))
        return (u[1], c1x * u[1] + c0x * u[0])

    targets = [a + (b - a) * i / (samples - 1) for i in range(samples)]
    rows = []
    for name, member in (("y1", basis.y1), ("y2", basis.y2)):
        try:
            ref = [member(t) for t in targets]
            u0 = member(x0)
        except HeunAirError as exc:
            rows.append(CheckRow("rk45", name, complex(a), float("nan"),
                                 type(exc).__name__))
            continue
        scale_v = max(abs(r[0]) for r in ref) or 1.0
        scale_d = max(abs(r[1]) for r in ref) or 1.0
        for go in (sorted([t for t in targets if t >= x0]),
                   sorted([t for t in targets if t < x0], reverse=True)):
            x, u, h_work = x0, u0, None
            for t in go:
                u, h_work = _oracle_advance(fn, x, u, t, rtol, atol,
                                            min_step, h_work)
                x = t
                rv, rd = ref[targets.index(t)]
                dev = max(abs(u[0] - rv) / max(abs(rv), 1e-3 * scale_v),
                          abs(u[1] - rd) / max(abs(rd), 1e-3 * scale_d))
                rows.append(CheckRow("rk45", name, complex(t), dev,
                                     "ok" if dev <= tol else "fail"))
    return rows


def _bits(compare, *args, **kw):
    """The rows as (check, member, x, value, status) in float.hex, or the
    error raised."""
    try:
        rows = compare(*args, **kw)
    except HeunAirError as exc:
        return type(exc).__name__, str(exc)
    return [(r.check, r.member, r.x.real.hex(), r.x.imag.hex(),
             r.value.hex(), r.status) for r in rows]


def _draws(kind: str, branch: str):
    r = rng(f"rk-stepper-{kind}-{branch}")
    out = []
    while len(out) < DRAWS:
        f = draw_family(kind, r, liouvillian=BRANCHES[branch])
        if (kind, branch) == ("BHE", "general") and \
                BHE_CLEAR[0] < -f.sigma.real < BHE_CLEAR[1]:
            continue
        out.append(f)
    return out


def _pair(name, y1, y2):
    return make_basis(y1, y2, "Hypergeometric", None, "anywhere", name, {},
                      0.7)


def _exp_pair():
    return _pair("exp_pair", lambda x: (cmath.exp(x), cmath.exp(x)),
                 lambda x: (cmath.exp(-x), -cmath.exp(-x)))


def _trig_pair():
    return _pair("trig_pair", lambda x: (cmath.cos(x), -cmath.sin(x)),
                 lambda x: (cmath.sin(x), cmath.cos(x)))


def _exp_growing_pair():
    """{e^x, x e^x}, a basis of y'' = 2 y' - y (c1 = 2)."""
    return _pair("exp_growing_pair", lambda x: (cmath.exp(x), cmath.exp(x)),
                 lambda x: (x * cmath.exp(x), (1 + x) * cmath.exp(x)))


EXP_ODE = LinearODE(RAT_ZERO, RatFun(POLY_ONE, POLY_ONE))
TRIG_ODE = LinearODE(RAT_ZERO, RatFun(Poly((-1,)), POLY_ONE))
GROWING_ODE = LinearODE(RatFun(Poly((2,)), POLY_ONE),
                        RatFun(Poly((-1,)), POLY_ONE))


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@pytest.mark.parametrize("kind", ["BHE", "CHE", "GHE"])
def test_rows_match_the_generic_stepper(kind, branch):
    for f in _draws(kind, branch):
        ode, basis = family_to_normal(f), solve_family(f)
        for win in _VERIFY_WINDOWS[kind]:
            mid = (win[0] + win[1]) / 2
            want = _bits(_oracle_compare, ode, basis, mid, win)
            assert _bits(rk45_compare, ode, basis, mid, win) == want, (f, win)


def test_rows_match_the_generic_stepper_on_closed_form_pairs():
    _, showcase = example_equation(0.7, 1.3)
    assert not showcase.c1.num.is_zero() and showcase.c1.den.degree > 0
    cases = [
        (EXP_ODE, _exp_pair(), 1.15, (0.3, 2.0), {}),
        (EXP_ODE, _exp_pair(), 2.0, (2.0, 0.3), {}),  # reversed window
        (TRIG_ODE, _trig_pair(), 0.0, (0.0, 10.0), {}),
        (TRIG_ODE, _trig_pair(), 0.0, (0.0, 10.0),
         {"rtol": 1e-6, "atol": 1e-8, "tol": 1.0}),
        (GROWING_ODE, _exp_growing_pair(), 0.9, (0.2, 1.7), {}),
        (showcase, example_basis(0.7, 1.3), 0.7, (0.25, 1.1), {}),
        (EXP_ODE, _exp_pair(), 0.5, (0.3, 2.0),  # step collapse
         {"rtol": 1e-40, "atol": 1e-40}),
    ]
    for ode, basis, x0, win, kw in cases:
        want = _bits(_oracle_compare, ode, basis, x0, win, **kw)
        assert _bits(rk45_compare, ode, basis, x0, win, **kw) == want, (
            basis.formula, win, kw)
    assert want[0] == "StiffnessError"


class _Counter:
    """A rat_eval that counts its calls, and those on one coefficient."""

    def __init__(self, watched=None):
        self.calls = self.watched_calls = 0
        self.watched = watched

    def __call__(self, r, x):
        self.calls += 1
        self.watched_calls += r is self.watched
        return rat_eval(r, x)


@pytest.mark.parametrize("kind", ["BHE", "CHE", "GHE"])
def test_normal_form_spends_six_right_hand_sides_per_step(kind, monkeypatch):
    f = _draws(kind, "general")[0]
    ode, basis = family_to_normal(f), solve_family(f)
    assert ode.c1.is_zero()
    for win in _VERIFY_WINDOWS[kind]:
        mid = (win[0] + win[1]) / 2
        old = _Counter()
        _oracle_compare(ode, basis, mid, win, ev=old)
        # the generic loop evaluates c1 and c0 at each of the 7 stages
        assert old.calls % 14 == 0
        steps = old.calls // 14
        new = _Counter(watched=ode.c1)
        monkeypatch.setattr(verify, "rat_eval", new)
        rk45_compare(ode, basis, mid, win)
        monkeypatch.undo()
        assert new.watched_calls == 0  # a zero c1 is never evaluated
        # one RHS (c0 only) per stage: 6 per step, plus the first stage of
        # each member and direction; every later target starts from the
        # last stage of the step that landed on it
        assert 6 * steps < new.calls <= 6 * steps + 4, (f, win)


def test_nonzero_c1_is_evaluated_at_every_right_hand_side(monkeypatch):
    new = _Counter(watched=GROWING_ODE.c1)
    monkeypatch.setattr(verify, "rat_eval", new)
    rk45_compare(GROWING_ODE, _exp_growing_pair(), 0.9, (0.2, 1.7))
    assert new.calls == 2 * new.watched_calls > 0
