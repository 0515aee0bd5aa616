"""Slow reference implementations that the tests compare fast paths with.

Each oracle scans its whole search space with no shortcut the fast path
takes, so an agreement checks the fast path's pruning argument.
"""

import math
from fractions import Fraction

import numpy as np

from modhilb.circle import ApproxParams, _ljs_term


def dirichlet_approx_bruteforce(lam: float, q_max: int) -> tuple[int, int]:
    """Slow double-loop reference for farey.dirichlet_approx."""
    if q_max < 1:
        raise ValueError("q_max must be a positive integer")
    lam_f = Fraction(lam)
    # q ascending, so min keeps the smaller denominator on a tie
    admissible = [Fraction(a, q) for q in range(1, q_max + 1)
                  for a in range(q + 1)
                  if abs(lam_f - Fraction(a, q)) <= Fraction(1, q * q_max)]
    best = min(admissible, key=lambda f: abs(lam_f - f)) % 1
    return best.numerator, best.denominator


def all_centers(s: int) -> list[tuple[int, int, int]]:
    """Full enumeration of the scale-s center set: coprime (A, B, Q),
    Q in [2^(s-1), 2^s)."""
    out = []
    for Q in range(2 ** (s - 1), 2 ** s):
        for A in range(Q):
            for B in range(Q):
                if math.gcd(math.gcd(A, B), Q) == 1:
                    out.append((A, B, Q))
    return out


def L_js_full_enumeration(lam: float, beta: float, j: int, s: int,
                          p: ApproxParams, tol: float = 1e-10) -> complex:
    """Slow reference for circle.L_js summing over the entire center set.

    A center outside either cutoff contributes an exact 0.
    """
    return sum((_ljs_term(lam, beta, j, s, A, B, Q, p, tol)
                for A, B, Q in all_centers(s)), 0j)


def _two_sum(a, b):
    """a + b as s + e exactly (Knuth's two-sum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """a b as p + e exactly (Dekker's product, from 26-bit halves)."""
    def split(u):
        c = 134217729.0 * u
        hi = c - (c - u)
        return hi, u - hi
    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def exact_phase_quadrature(phase, amplitude, support):
    """osc.oscillatory_quadrature's rule with its nodes and its phase
    carried in double-double, so that e(phase) is exact to about eps at
    any frequency.

    In plain floats a node t is off by up to eps |t| and phase(t) by eps
    |phase(t)|, so e(phase(t)) carries a relative error of about eps
    times the phase, and the rule sums those errors over some 20 nodes
    per cycle: for the symbol at l = 14, some 2^18 cycles, the sum
    reaches 5e-14.  Here each panel is [lo, lo + 2 half] with half exact
    (its edges are within a factor 2 of each other), each node
    lo + half + half x is a double-double, and phase = -(X t^d + Y t) is
    reduced mod 1 before it is rounded.  The amplitude is taken at the
    rounded node, an error of eps |amplitude'|.  An amplitude that
    returns a stack gives one integral per row.
    """
    x, w = np.polynomial.legendre.leggauss(20)
    # panels per pass, to keep the node arrays small at any frequency
    chunk = 1 << 12
    total = 0j
    for u, v in zip(support[:-1], support[1:]):
        n = math.ceil(phase.variation(u, v)) + 4
        edges = np.linspace(u, v, n + 1)
        for k in range(0, n, chunk):
            lo = edges[:-1][k:k + chunk, None]
            half = 0.5 * (edges[1:][k:k + chunk, None] - lo)
            mid, mid_e = _two_sum(lo, half)
            off, off_e = _two_prod(half, x)
            t, t_e = _two_sum(mid, off)
            t_e += mid_e + off_e
            # t^d as p + p_e, then X t^d + Y t as two exact products and
            # the low-order terms, the first order in t_e among them
            p, p_e = t, 0.0
            for _ in range(phase.d - 1):
                p, e = _two_prod(p, t)
                p_e = e + p_e * t
            a, a_e = _two_prod(phase.X, p)
            b, b_e = _two_prod(phase.Y, t)
            low = a_e + b_e + phase.X * p_e - phase.derivative(t) * t_e
            frac = (a - np.round(a)) + (b - np.round(b)) + low
            vals = np.exp(-2j * np.pi * frac) * amplitude(t)
            total = total + (vals @ w) @ half[:, 0]
    return total
