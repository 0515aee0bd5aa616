"""Circle-method approximants, their error multiplier and the sup outside X_j.

The approximant L_{j,s} glues a complete Gauss sum to the continuous
block H_j near each rational center with denominator in [2^(s-1), 2^s),
localized by a sharp dyadic window Xi_j in lambda and a pair of smooth
cutoffs chi_s in both variables.  L_j sums the scales 2^s <= j^C, and
the error multiplier is

    E_j(lam, beta) = M_j(lam, beta) 1_{X_j}(lam) - L_j(lam, beta).

Cutoff radii are floored below half the minimal center separation
2^(-2s), so at most one center can contribute at any point and scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .farey import XSet, nearest_fraction, xset_contains
from .osc import DEFAULT_BUMPS, BumpFamily, H_j
from .spectral import (LambdaGrid, Signal, _block_taps, _modulated_outputs,
                       multiplier_Mj)
# circle calls no transform itself; dft and idft stay importable here
# because the benchmark's tracer wraps them by name on this module
from .spectral import dft, idft  # noqa: F401
from .weyl import _complete_sum_row


@dataclass(frozen=True)
class ApproxParams:
    """Constants of the approximation pipeline.

    epsilon controls major-box widths, kappa the double-exponential
    growth of the chi_s cutoff scale 2^(2^(s d kappa)), exponent_C the
    polynomial scale bound j^C shared by X_j, Xi_j and the s-range.
    """

    d: int
    epsilon: float = 0.1
    kappa: float = 0.05
    exponent_C: float = 2.0
    prefactor: float = 1.0
    fam: BumpFamily = field(default=DEFAULT_BUMPS)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (0.0 < self.epsilon <= 0.1):
            raise ValueError("epsilon must lie in (0, 1/10]")
        if not (0.0 < self.kappa <= 0.25):
            raise ValueError("kappa must lie in (0, 1/4]")
        if self.exponent_C <= 0:
            raise ValueError("exponent_C must be positive")

    def chi_s_scale(self, s: int) -> float:
        """The dilation applied to chi at scale s.

        The nominal scale is the double exponential 2^(2^(s d kappa)).
        A floor of 2 c_chi 2^(2s+2) keeps the cutoff radius below half
        the minimal center separation 2^(-2s), which the enumeration
        relies on; the nominal value takes over once s is large.
        """
        exponent = 2.0 ** (s * self.d * self.kappa)
        if exponent > 900:
            raise OverflowError("chi_s scale overflows the float range")
        nominal = 2.0 ** exponent
        floor = 2.0 * self.fam.c_chi * 2.0 ** (2 * s + 2)
        return max(nominal, floor)

    def chi_s_radius(self, s: int) -> float:
        """Support radius of chi_s: chi vanishes outside |t| <= radius."""
        return 2.0 * self.fam.c_chi / self.chi_s_scale(s)

    def chi_s(self, t: float, s: int) -> float:
        return self.fam.chi(self.chi_s_scale(s) * t)

    def xset(self, j: int) -> XSet:
        return XSet(j, self.exponent_C, self.d, self.prefactor)

    def s_range(self, j: int) -> range:
        """Scales s >= 1 with 2^s <= j^C."""
        bound = j ** self.exponent_C
        s_max = int(math.floor(math.log2(bound))) if bound >= 2 else 0
        return range(1, s_max + 1)


def _torus_offset(x: float, num: int, den: int) -> tuple[int, int]:
    """Signed torus difference x - num/den reduced to [-1/2, 1/2], exact,
    as an integer pair: with x = n/d, (n den - num d) / (d den) less its
    nearest integer, a tie going to the even one (as round() does)."""
    n, d = float(x).as_integer_ratio()
    top, bottom = n * den - num * d, d * den
    k, rem = divmod(top, bottom)
    if 2 * rem > bottom or (2 * rem == bottom and k % 2):
        rem -= bottom
    return rem, bottom


def _exact_offset(x: float, num: int, den: int) -> float:
    """Signed torus difference x - num/den, exact before the final rounding.

    The plain double subtraction loses ~1e-16 absolutely, which the
    t^d phase then amplifies by 2^(dj); dividing the exact integer pair
    of _torus_offset, which Python rounds correctly, keeps the
    comparison between a multiplier value at x and an approximant
    centered at num/den consistent to relative precision.
    """
    top, bottom = _torus_offset(x, num, den)
    return top / bottom


def _contributing_centers(lam: float, beta: float, s: int,
                          p: ApproxParams) -> list[tuple[int, int, int]]:
    """Coprime triples (A, B, Q), Q in [2^(s-1), 2^s), within both cutoffs.

    A/Q and B/Q reduce to fractions with denominator < 2^s, and at most
    one such fraction lies within the cutoff radius of any point: the
    nearest Farey neighbour.  Coprimality then fixes Q as the lcm of the
    two reduced denominators, so at most one center survives.
    """
    radius = p.chi_s_radius(s)
    # half the separation 2^(-2s) of fractions with denominator < 2^s
    if radius > 2.0 ** (-2 * s - 1):
        raise ValueError(f"chi_s radius {radius} at s = {s} exceeds half the "
                         f"center separation, 2^{-2 * s - 1}")
    r_num, r_den = radius.as_integer_ratio()
    near = []
    for x in (float(lam), float(beta)):
        f, (gap, den) = nearest_fraction(x, 2 ** s - 1)
        if gap * r_den > r_num * den:
            return []
        near.append(f)
    (a, qa), (b, qb) = near
    Q = math.lcm(qa, qb)
    if not 2 ** (s - 1) <= Q < 2 ** s:
        return []
    return [(a * (Q // qa) % Q, b * (Q // qb) % Q, Q)]


def _ljs_term(lam: float, beta: float, j: int, s: int, A: int, B: int, Q: int,
              p: ApproxParams, tol: float) -> complex:
    # the Xi_j window is X_j's comparison: exact offset against its width
    top, bottom = _torus_offset(lam, A, Q)
    w_num, w_den = p.xset(j).width.as_integer_ratio()
    if abs(top) * w_den > w_num * bottom:
        return 0j
    dl = top / bottom
    db = _exact_offset(beta, B, Q)
    cl = p.chi_s(dl, s)
    cb = p.chi_s(db, s)
    if cl == 0.0 or cb == 0.0:
        return 0j
    S = _complete_sum_row(A, Q, p.d)[B % Q]
    return S * H_j(dl, db, j, p.d, p.fam, tol) * cl * cb


def L_js(lam: float, beta: float, j: int, s: int, p: ApproxParams,
         tol: float = 1e-10) -> complex:
    """The scale-s approximant: at most one center contributes."""
    if j < 1 or s < 1:
        raise ValueError("j and s must be >= 1")
    total = 0j
    for A, B, Q in _contributing_centers(lam, beta, s, p):
        total += _ljs_term(lam, beta, j, s, A, B, Q, p, tol)
    return total


def L_j(lam: float, beta: float, j: int, p: ApproxParams,
        tol: float = 1e-10) -> complex:
    """sum over s with 2^s <= j^C of L_js; empty range gives 0."""
    if j < 1:
        raise ValueError("j must be >= 1")
    return sum((L_js(lam, beta, j, s, p, tol) for s in p.s_range(j)), 0j)


def error_Ej(lam: float, beta: float, j: int, p: ApproxParams,
             tol: float = 1e-10) -> complex:
    """M_j(lam, beta) 1_{X_j}(lam) - L_j(lam, beta).

    Supported in lambda inside X_j: the Xi_j window inside L_j makes X_j's
    exact comparison with the same width, around centers whose
    denominators Q < 2^s <= j^C are within X_j's bound, so L_j cannot
    fire outside it.
    """
    inside = xset_contains(lam, p.xset(j))
    mj = multiplier_Mj(lam, beta, j, p.d, p.fam) if inside else 0j
    return mj - L_j(lam, beta, j, p, tol)


def restricted_sup_outside_Xj(f: Signal, j: int, grid: LambdaGrid,
                              p: ApproxParams, ring_size: int) -> float:
    """l2 norm of the grid-sup of |M_j(lam, .) applied to f|, lam outside X_j.

    The grid is filtered to lambda outside X_j; an empty filtered grid or
    a zero f returns 0 with no transform.  The result is normalized by
    the l2 norm of f.  It aliases once f's support + 2^(j+2) exceeds
    ring_size, as in acceptance 10.
    """
    denom = f.norm2()
    xs = p.xset(j)
    lams = [lam for lam in grid.points if not xset_contains(lam, xs)]
    if not lams or denom == 0.0:
        return 0.0
    acc = np.zeros(ring_size)
    for out in _modulated_outputs(f, lams, _block_taps(j, p.fam), p.d,
                                  ring_size):
        np.maximum(acc, np.abs(out), out=acc)
    return float(np.linalg.norm(acc) / denom)
