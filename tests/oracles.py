"""Slow reference implementations that the tests compare fast paths with.

Each oracle scans its whole search space with no shortcut the fast path
takes, so an agreement checks the fast path's pruning argument.
"""

import math
from fractions import Fraction

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

