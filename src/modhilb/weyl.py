"""Complete Weyl/Gauss exponential sums.

The normalized complete sum

    S(a/q, b/q) = (1/q) * sum_{r=1..q} e(-(a/q) r^d - (b/q) r),

its orthogonality and kernel identities, and the fit of its
square-root cancellation in q (Hua's bound).

One routine computes complete sums: the row S(a/q, b/q), b = 0..q-1.
The residues a r^d mod q are reduced in exact integer arithmetic before
the single transcendental call, so no drift accumulates even for large
q, and b enters through one length-q FFT.  The summation index runs
1..q; by periodicity this agrees with 0..q-1, the order the FFT uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .farey import ReducedFraction


@dataclass(frozen=True)
class WeylTriple:
    """Arguments (a/q, b/q) of a complete sum, jointly normalized.

    Invariants: 0 <= a, b < q and gcd(a, b, q) = 1.
    """

    a: int
    b: int
    q: int
    d: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if not (0 <= self.a < self.q and 0 <= self.b < self.q):
            raise ValueError("need 0 <= a, b < q")
        if math.gcd(math.gcd(self.a, self.b), self.q) != 1:
            raise ValueError("need gcd(a, b, q) = 1")


def _complete_sum_row(a: int, q: int, d: int) -> np.ndarray:
    """S(a/q, b/q) for all b = 0..q-1 at once, via a length-q DFT.

    With x_r = e(-(a/q) r^d), the b-th sum is (1/q) * DFT(x)[b]; the
    residues a r^d mod q are computed exactly before exponentiation.
    """
    rd = np.array([pow(r, d, q) for r in range(q)], dtype=np.int64)
    ks = (a * rd) % q
    x = np.exp(-2j * np.pi * ks / q)
    return np.fft.fft(x) / q


def complete_weyl_sum(t: WeylTriple) -> complex:
    """The normalized complete Gauss sum S(a/q, b/q)."""
    return complex(_complete_sum_row(t.a, t.q, t.d)[t.b])


def _admissible_max(a: int, q: int, d: int) -> tuple[float, int]:
    """max |S(a/q, b/q)| over the b with gcd(a, b, q) = 1, and their count.

    b = 1 is always admissible, so for q >= 2 the set is never empty.
    """
    admissible = np.gcd(math.gcd(a, q), np.arange(q)) == 1
    row = np.abs(_complete_sum_row(a, q, d))
    return float(row[admissible].max()), int(admissible.sum())


def weyl_orthogonality_scan(q_max: int, d: int) -> dict:
    """Scan all (a, b, q) with q <= q_max, gcd(a,b,q)=1, gcd(a,q)>1.

    Every such sum vanishes identically; the report carries the maximum
    |S| observed (floating-point noise only) and the number of cases.
    """
    if q_max < 1:
        raise ValueError("q_max must be positive")
    max_abs = 0.0
    count = 0
    for q in range(2, q_max + 1):
        for a in range(q):
            if math.gcd(a, q) > 1:
                peak, cases = _admissible_max(a, q, d)
                max_abs = max(max_abs, peak)
                count += cases
    return {"q_max": q_max, "d": d, "max_abs": max_abs, "count": count}


def weyl_kernel_identity(a_over_q: ReducedFraction, d: int, x: int) -> tuple[complex, complex]:
    """Both sides of the kernel re-expression at a/q.

    lhs = sum_{b=1..q} S(a/q, b/q) e((b/q) x), computed naively;
    rhs = sum_{r=1..q, r = x mod q} e(-(a/q) r^d), a single unimodular
    term.  The two agree and |rhs| = 1.
    """
    a, q = a_over_q.numerator, a_over_q.denominator
    row = _complete_sum_row(a, q, d)
    b_arr = np.arange(q)
    lhs = complex((row * np.exp(2j * np.pi * b_arr * x / q)).sum())
    r = x % q
    rhs = complex(np.exp(-2j * np.pi * ((a * pow(r, d, q)) % q) / q))
    return lhs, rhs


def hua_exponent_fit(q_max: int, d: int) -> tuple[float, float]:
    """Least-squares slope of log per-q max |S| against log q.

    Aggregates per-denominator maxima over all admissible (a, b) before
    fitting; returns (fitted_exponent, max of |S| * q^(1/d)).
    """
    if q_max < 8:
        raise ValueError("q_max must be >= 8")
    qs, maxima = [], []
    for q in range(2, q_max + 1):
        best = max(_admissible_max(a, q, d)[0] for a in range(q))
        if best > 0.0:
            qs.append(q)
            maxima.append(best)
    qs_a = np.array(qs, dtype=float)
    max_a = np.array(maxima)
    slope, _ = np.polyfit(np.log(qs_a), np.log(max_a), 1)
    max_constant = float((max_a * qs_a ** (1.0 / d)).max())
    return float(slope), max_constant
