"""Slow reference implementations that the tests compare fast paths with.

Each oracle scans its whole search space with no shortcut the fast path
takes, so an agreement checks the fast path's pruning argument.
"""

import cmath
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


def xset_contains_scan(x: float, xs) -> bool:
    """Slow reference for farey.xset_contains: x within xs.width of some
    a/q, q <= xs.q_bound, compared in Fraction (a the two integers next
    to x q)."""
    xf = Fraction(x)
    return any(abs(xf - Fraction(a, q)) <= Fraction(xs.width)
               for q in range(1, xs.q_bound + 1)
               for a in (math.floor(xf * q), math.floor(xf * q) + 1))


def naive_complete_sum(a: int, b: int, q: int, d: int) -> complex:
    """Direct-summation reference for the complete sums of weyl, with
    float phases."""
    return sum(cmath.exp(-2j * cmath.pi * (a * r ** d + b * r) / q)
               for r in range(1, q + 1)) / q


def full_table_sum(lam: float, beta: float, m, w, d: int) -> complex:
    """sum_m w(m) e(-lam m^d - beta m) over every tap m of the lists m, w,
    phases in Fraction: the reference of spectral's symbols."""
    total = 0j
    for mi, wi in zip(m, w):
        ph = Fraction(lam) * mi ** d + Fraction(beta) * mi
        total += wi * cmath.exp(-2j * cmath.pi * float(ph - math.floor(ph)))
    return total


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


def r_variation_bruteforce(seqs: np.ndarray, r: float) -> np.ndarray:
    """The r-variation of each row of seqs, by exhaustive enumeration over
    all increasing subsequences (the oracle of r_variation)."""
    seqs = np.asarray(seqs)
    n = seqs.shape[1]
    best = np.zeros(len(seqs))
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) < 2:
            continue
        diffs = np.abs(np.diff(seqs[:, idx], axis=1))
        if math.isinf(r):
            vals = diffs.max(axis=1)
        else:
            vals = (diffs ** r).sum(axis=1) ** (1.0 / r)
        np.maximum(best, vals, out=best)
    return best
