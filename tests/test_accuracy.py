"""Accuracy of every public special function against mpmath at 40 digits.

Each case draws seeded arguments from one region and takes the worst
relative error of the value, |got - want| / |want|, against an independent
mpmath oracle in a context of its own. Three kinds of region:

* `doc`: the documented region of the function (hyp1f1 for |z| <= 50,
  hyp2f1 for |z| <= 0.95, erf/erfi for |z| <= 12, the others over moderate
  parameters and arguments);
* `rerun`: where the double-precision kernels cancel and hand over to a
  slower route, drawn as `tools/bit_identity.py` draws its special-function
  calls (large |z| for U and W, 0.5 < |z| < 0.97 for 2F1 and B_x, Re z < 0
  for 1F1 and Gamma(a, z)) and as the benchmark's `tabulate` and `verify`
  workloads reach them (U at real z in [0.29, 25], Gamma(a, z) at negative
  order);
* `edge`: U with b within 1e-6 to 1e-3 of an integer, where the connection
  formula's two terms nearly cancel, and 2F1 with c - a - b as close to an
  integer, where the 1 - z connection formula degenerates.

Each function has one bound, over all its regions: the worst error
measured over the same draws at 7395a91, before any second
double-precision route existed, rounded up to the next 1, 2 or 5 of its
decade. A derivative is the same kernel at shifted parameters times a known factor,
so the values cover it. Draws keep the parameters 0.05 away from the
points where a function refuses them.
"""
from __future__ import annotations

import cmath
import math

import mpmath
import pytest

from conftest import rng
from heun_air.specialfns import FnValue
from heun_air import (erf_like, gamma, hyp0f1, hyp1f1, hyp2f1, inc_beta,
                      inc_gamma_upper, kummer_u, whittaker)

_MP = mpmath.MPContext()
_MP.dps = 40

#: Per function: the bound, and in the comment the worst error at 7395a91
#: and the case that reached it.
BOUNDS = {
    "hyp1f1": 5e-13,          # 2.8e-13, doc
    "kummer_u": 2e-12,        # 1.1e-12, rerun
    "hyp2f1": 1e-13,          # 7.8e-14, rerun
    "hyp0f1": 1e-13,          # 7.8e-14, doc
    "whittaker_M": 5e-13,     # 2.5e-13, doc
    "whittaker_W": 5e-13,     # 3.3e-13, doc
    "erf": 2e-14,             # 1.9e-14, doc
    "erfi": 2e-14,            # 1.5e-14, doc
    "inc_gamma_upper": 5e-13,  # 3.0e-13, doc
    "inc_beta": 5e-14,        # 4.2e-14, rerun
    "gamma": 5e-13,           # 3.3e-13, doc
}

#: Distance kept from the parameter values that a function refuses.
MARGIN = 0.05


def _c(r, lo, hi, im=0.0):
    """Uniform real part in [lo, hi]; half the draws also get an imaginary
    part uniform in [-im, im]."""
    x = r.uniform(lo, hi)
    return complex(x, r.uniform(-im, im)) if r.random() < 0.5 else complex(x)


def _disk(r, lo, hi):
    """Modulus uniform in [lo, hi], argument uniform in [-pi, pi]."""
    return cmath.rect(r.uniform(lo, hi), r.uniform(-math.pi, math.pi))


def _off_int(w, nonpositive=False):
    """w is at least MARGIN from every integer (every nonpositive one)."""
    n = round(w.real)
    if nonpositive and n > 0:
        return True
    return abs(w - n) >= MARGIN


def _near_int(r, lo, hi):
    """An integer n in [lo, hi] moved by +-delta, delta log-uniform in
    [1e-6, 1e-3]."""
    return r.randint(lo, hi) + r.choice((-1, 1)) * 10 ** r.uniform(-6, -3)


def _draw(r, make, ok):
    while True:
        args = make(r)
        if ok(*args):
            return args


def _edge_2f1(r):
    """c - a - b within 1e-6 to 1e-3 of an integer, z in the band
    0.5 < |z| < 0.95 around z = 1."""
    a, b = r.uniform(-4, 4), r.uniform(-4, 4)
    c = a + b + _near_int(r, -3, 3)
    return (complex(a), complex(b), complex(c),
            1 - _disk(r, 0.05, 0.5))


def _mp(fn):
    return lambda *args: fn(*(_MP.mpc(a) for a in args))


# (id, function, oracle, draw, ok, points); the id's prefix names the bound
CASES = [
    # -- documented regions --------------------------------------------------
    ("hyp1f1-doc", hyp1f1, _mp(_MP.hyp1f1),
     lambda r: (_c(r, -6, 6, 3), _c(r, -4, 6, 2), _disk(r, 0, 50)),
     lambda a, b, z: _off_int(b, True), 80),
    ("kummer_u-doc", kummer_u, _mp(_MP.hyperu),
     lambda r: (_c(r, -3, 3, 1), _c(r, -2.5, 2.5, 1), _disk(r, 0.1, 10)),
     lambda a, b, z: _off_int(b), 60),
    ("hyp2f1-doc", hyp2f1, _mp(_MP.hyp2f1),
     lambda r: (_c(r, -3, 3, 1), _c(r, -3, 3, 1), _c(r, -3, 3, 1),
                _disk(r, 0, 0.95)),
     lambda a, b, c, z: _off_int(c, True), 80),
    ("hyp0f1-doc", hyp0f1, _mp(_MP.hyp0f1),
     lambda r: (_c(r, -5, 5, 2), _disk(r, 0, 60)),
     lambda b, z: _off_int(b, True), 80),
    ("whittaker_M-doc", lambda *a: whittaker("M", *a), _mp(_MP.whitm),
     lambda r: (_c(r, -3, 3, 1), _c(r, -2, 2, 1), _disk(r, 0.1, 40)),
     lambda mu, nu, z: _off_int(1 + 2 * nu, True), 50),
    ("whittaker_W-doc", lambda *a: whittaker("W", *a), _mp(_MP.whitw),
     lambda r: (_c(r, -3, 3, 1), _c(r, -2, 2, 1), _disk(r, 0.1, 10)),
     lambda mu, nu, z: _off_int(1 + 2 * nu), 40),
    ("erf-doc", lambda z: erf_like("erf", z), _mp(_MP.erf),
     lambda r: (_disk(r, 0, 12),), lambda z: True, 80),
    ("erfi-doc", lambda z: erf_like("erfi", z), _mp(_MP.erfi),
     lambda r: (_disk(r, 0, 12),), lambda z: True, 80),
    ("inc_gamma_upper-doc", inc_gamma_upper, _mp(_MP.gammainc),
     lambda r: (_c(r, -4, 4, 2), _c(r, -16, 20, 6)),
     lambda a, z: _off_int(a, True) and z != 0, 80),
    ("inc_beta-doc", inc_beta, lambda x, a, b: _MP.betainc(a, b, 0, x),
     lambda r: (_disk(r, 0.05, 0.97), _c(r, -5, 5, 2), _c(r, -5, 5, 2)),
     lambda x, a, b: _off_int(a, True), 80),
    ("gamma-doc", lambda z: FnValue(gamma(z), 0j), _mp(_MP.gamma),
     lambda r: (complex(r.uniform(-30, 60), r.uniform(-220, 220)),),
     lambda z: _off_int(z, True), 200),
    # -- where the double path cancels -----------------------------------------
    ("kummer_u-rerun", kummer_u, _mp(_MP.hyperu),
     lambda r: (_c(r, -4, 4, 2), _c(r, -3, 3, 1), _disk(r, 2, 40)),
     lambda a, b, z: _off_int(b), 60),
    ("kummer_u-tabulate", kummer_u, _mp(_MP.hyperu),
     lambda r: (_c(r, -2, 5, 3), _c(r, 0.5, 7.5, 5.5),
                complex(r.uniform(0.29, 25))),
     lambda a, b, z: _off_int(b), 60),
    ("whittaker_W-rerun", lambda *a: whittaker("W", *a), _mp(_MP.whitw),
     lambda r: (_c(r, -3, 3, 1), _c(r, -2, 2, 1), _disk(r, 2, 40)),
     lambda mu, nu, z: _off_int(1 + 2 * nu), 40),
    ("hyp2f1-rerun", hyp2f1, _mp(_MP.hyp2f1),
     lambda r: (_c(r, -10, 10, 3), _c(r, -10, 10, 3), _c(r, -10, 10, 3),
                _disk(r, 0.5, 0.97)),
     lambda a, b, c, z: _off_int(c, True), 80),
    ("hyp2f1-tabulate", hyp2f1, _mp(_MP.hyp2f1),
     lambda r: (_c(r, -4, 2), _c(r, -2, 2), _c(r, -10, -3),
                complex(r.uniform(0.5, 0.95))),
     lambda a, b, c, z: _off_int(c, True), 80),
    ("hyp1f1-rerun", hyp1f1, _mp(_MP.hyp1f1),
     lambda r: (_c(r, -6, 6, 3), _c(r, -4, 6, 2),
                complex(r.uniform(-50, 0), r.uniform(-20, 20))),
     lambda a, b, z: _off_int(b, True), 80),
    ("inc_gamma_upper-rerun", inc_gamma_upper, _mp(_MP.gammainc),
     lambda r: (_c(r, -4, 4, 2), complex(r.uniform(-16, 0), r.uniform(-6, 6))),
     lambda a, z: _off_int(a, True), 80),
    ("inc_gamma_upper-verify", inc_gamma_upper, _mp(_MP.gammainc),
     lambda r: (complex(r.uniform(-9.5, 0.8)), complex(r.uniform(-11.5, 6))),
     lambda a, z: _off_int(a, True) and z != 0, 80),
    ("inc_beta-rerun", inc_beta, lambda x, a, b: _MP.betainc(a, b, 0, x),
     lambda r: (_disk(r, 0.5, 0.97), _c(r, -10, 10, 3), _c(r, -10, 10, 3)),
     lambda x, a, b: _off_int(a, True), 80),
    # -- near the parameters where a route degenerates ---------------------------
    ("kummer_u-edge", kummer_u, _mp(_MP.hyperu),
     lambda r: (_c(r, -2, 4, 1), complex(_near_int(r, -2, 4)),
                complex(r.uniform(0.3, 25), r.uniform(-5, 5))),
     lambda a, b, z: True, 60),
    ("hyp2f1-edge", hyp2f1, _mp(_MP.hyp2f1),
     _edge_2f1,
     lambda a, b, c, z: _off_int(c, True) and 0.5 < abs(z) < 0.95, 80),
]


def worst_error(case) -> float:
    name, fn, oracle, make, ok, n = case
    r = rng(f"accuracy:{name}")
    worst = 0.0
    for _ in range(n):
        args = _draw(r, make, ok)
        want = oracle(*args)
        got = fn(*args).value
        worst = max(worst, float(abs(_MP.mpc(got) - want) / abs(want)))
    return worst


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_accuracy_against_mpmath(case):
    assert worst_error(case) <= BOUNDS[case[0].split("-")[0]]
