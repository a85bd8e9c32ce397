"""Seeded family-parameter draws for the benchmark workloads.

The distributions and conditioning filters are those of the acceptance
battery (`tests/conftest.py`): parameters uniform in [-2, 2], GHE's third
singular point a uniform in [1.5, 3], |lambda| and |delta| >= 0.1,
general-branch draws with |sigma^2 - tau^2| > 0.1, and a margin of 0.05
between resonance-prone quantities and the integer sets where the closed
forms degenerate.

The uniforms come from a Halton sequence with a seeded Cranley-Patterson
shift (randomized quasi-Monte Carlo) instead of independent draws. Every
prefix of such a stream covers the parameter box evenly, so the share of
cheap draws and of draws whose kernels fall back to mpmath varies less
from seed to seed than with independent draws. The filters reject points exactly as the acceptance
draws reject uniforms, so the accepted points follow the same conditional
distribution.

Pure standard library: the program only ever receives the drawn numbers.
"""
from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

PRIMES = (2, 3, 5, 7)

RESONANCE_MARGIN = 0.05
GENERAL_GAP = 0.1
MIN_SCALE = 0.1

#: Stream positions tried before a filter is declared wrong.
MAX_SKIP = 10000

GENERAL, PLUS, MINUS = "general", "plus", "minus"
BRANCHES = (GENERAL, PLUS, MINUS)
KINDS = ("BHE", "CHE", "GHE")


@dataclass(frozen=True)
class Draw:
    """One accepted parameter point: BHE (sigma, tau), CHE (lam, sigma,
    tau) or GHE (a, delta, sigma, tau)."""

    kind: str
    branch: str
    params: tuple


def dist_to_integers(w: complex) -> float:
    w = complex(w)
    return max(abs(w.imag), abs(w.real - round(w.real)))


def dist_to_nonpositive_integers(w: complex) -> float:
    w = complex(w)
    if w.real > 0.5:
        return abs(w - 1.0)
    return max(abs(w.imag), abs(w.real - round(w.real)))


def _radical_inverse(i: int, base: int) -> float:
    f, r = 1.0, 0.0
    while i:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _sym(u: float) -> float:
    return 4.0 * u - 2.0


def _tau(sigma: float, branch: str) -> float:
    return sigma if branch == PLUS else -sigma


def _accept_bhe(u, branch, window_clear):
    sigma = _sym(u[0])
    if branch != GENERAL:
        return (sigma, _tau(sigma, branch))
    tau = _sym(u[1])
    if abs(sigma * sigma - tau * tau) <= GENERAL_GAP:
        return None
    if window_clear and window_clear[0] < -sigma < window_clear[1]:
        return None
    return (sigma, tau)


def _accept_che(u, branch, _):
    lam, sigma = _sym(u[0]), _sym(u[1])
    if abs(lam) < MIN_SCALE:
        return None
    if branch != GENERAL:
        tau = _tau(sigma, branch)
        order = 2 * (tau - 1) * lam if branch == PLUS else 2 * (tau + 1) * lam
        if min(dist_to_nonpositive_integers(order),
               dist_to_nonpositive_integers(order + 1)) < RESONANCE_MARGIN:
            return None
        return (lam, sigma, tau)
    tau = _sym(u[2])
    if abs(sigma * sigma - tau * tau) <= GENERAL_GAP:
        return None
    nu = lam * cmath.sqrt(tau * tau - 2 * sigma + 1)
    if dist_to_integers(2 * nu) < RESONANCE_MARGIN:
        return None
    return (lam, sigma, tau)


def ghe_t(a, delta, sigma, tau) -> complex:
    """The exponent T of the four-point family, written out from its
    definition."""
    return cmath.sqrt(a * a * delta ** 2 - 2 * a * sigma * delta + tau * tau)


def _accept_ghe(u, branch, _):
    a = 1.5 + 1.5 * u[0]
    delta, sigma = _sym(u[1]), _sym(u[2])
    if abs(delta) < MIN_SCALE:
        return None
    if branch != GENERAL:
        tau = _tau(sigma, branch)
        alpha = (1 + 2 * (a * delta - tau) if branch == PLUS
                 else 1 - 2 * (a * delta + tau))
        if min(dist_to_nonpositive_integers(alpha),
               dist_to_nonpositive_integers(alpha - 1)) < RESONANCE_MARGIN:
            return None
        return (a, delta, sigma, tau)
    tau = _sym(u[3])
    if abs(sigma * sigma - tau * tau) <= GENERAL_GAP:
        return None
    big_t = ghe_t(a, delta, sigma, tau)
    for c in (1 - 2 * big_t, 2 - 2 * big_t, 1 + 2 * big_t, 2 + 2 * big_t):
        if dist_to_nonpositive_integers(c) < RESONANCE_MARGIN:
            return None
    return (a, delta, sigma, tau)


_ACCEPT = {"BHE": (_accept_bhe, 2), "CHE": (_accept_che, 3),
           "GHE": (_accept_ghe, 4)}


class Stream:
    """Endless stream of accepted draws of one family and branch.

    `extra`, for BHE general draws, is an open interval that -sigma must
    avoid (acceptance battery 3's conditioning of its RK windows).
    """

    def __init__(self, rng: random.Random, kind: str, branch: str,
                 extra=None):
        self.kind, self.branch, self.extra = kind, branch, extra
        self._accept, dims = _ACCEPT[kind]
        self._shift = [rng.random() for _ in range(dims)]
        self._i = 0

    def __next__(self) -> Draw:
        for _ in range(MAX_SKIP):
            self._i += 1
            u = [(_radical_inverse(self._i, PRIMES[d]) + s) % 1.0
                 for d, s in enumerate(self._shift)]
            params = self._accept(u, self.branch, self.extra)
            if params is not None:
                return Draw(self.kind, self.branch, params)
        raise RuntimeError(f"{self.kind} {self.branch} filter admits no draw")
