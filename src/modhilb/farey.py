"""Exact rational machinery for the circle method.

The Farey neighbours of a rational (the one nearest-rational routine),
Dirichlet approximation, and the X_j sets of dangerous modulation
parameters with their membership test.

A rational is an integer pair (p, q) in lowest terms (0 <= p < q on the
torus); all operations are pure functions on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def farey_neighbours(x, q_max: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The neighbours lo <= x <= hi of x in the Farey sequence of order q_max.

    x is any exact real with ``as_integer_ratio`` (a float, an int or a
    Fraction); lo and hi are integer pairs (p, q), q >= 1, in lowest
    terms.  They are adjacent among the fractions with denominator <=
    q_max (on the whole real line, so the nearest of them is the nearest
    such fraction to x on the torus too), and lo == hi == x when x itself
    has denominator <= q_max.  They are the last convergent of the
    continued fraction of x with denominator <= q_max and the largest
    semiconvergent that follows it, found in O(log q_max) integer steps.
    """
    if q_max < 1:
        raise ValueError("q_max must be a positive integer")
    n, d = x.as_integer_ratio()
    if d <= q_max:
        return (n, d), (n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        if q0 + a * q1 > q_max:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    k = (q_max - q0) // q1
    semi, conv = (p0 + k * p1, q0 + k * q1), (p1, q1)
    # semi < conv, by cross-multiplication over positive denominators
    return (semi, conv) if semi[0] * q1 < p1 * semi[1] else (conv, semi)


def nearest_fraction(x, q_max: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The nearest p/q to x with q <= q_max, the smaller one on a tie, and
    the distance |x - p/q| as an integer pair (numerator, denominator).

    x is as in farey_neighbours; with x = n/d the distance is
    |n q - p d| / (d q), so callers compare it with a bound u/v exactly
    by cross-multiplication.
    """
    n, d = x.as_integer_ratio()
    lo, hi = farey_neighbours(x, q_max)
    gap_lo = abs(n * lo[1] - lo[0] * d)
    gap_hi = abs(n * hi[1] - hi[0] * d)
    # gap_lo / q_lo <= gap_hi / q_hi, cross-multiplied
    if gap_lo * hi[1] <= gap_hi * lo[1]:
        return lo, (gap_lo, d * lo[1])
    return hi, (gap_hi, d * hi[1])


def dirichlet_approx(lam: float, q_max: int) -> tuple[int, int]:
    """Best Dirichlet approximation a/q to lam with q <= q_max.

    Among all reduced a/q with q <= q_max satisfying the Dirichlet
    inequality |lam - a/q| <= 1/(q*q_max), returns one minimizing
    |lam - a/q|, as the torus pair (a mod q, q); ties are broken by the
    smaller denominator.

    Only the two Farey neighbours of lam in F_{q_max} can win: any other
    such fraction on one side is farther than the neighbour there and
    fails the inequality.  The nearer neighbour may fail it too, and then
    the farther one holds it (Dirichlet's theorem).  With lam = n/d,
    |lam - a/q| = |n q - a d| / (d q), so every comparison is an exact
    integer one.
    """
    lam = float(lam)
    n, d = lam.as_integer_ratio()
    best = None
    for a, q in farey_neighbours(lam, q_max):
        gap = abs(n * q - a * d)
        if gap * q_max > d:
            continue
        # nearer (gap / q smaller, cross-multiplied), then smaller q
        if best is None or (gap * best[2], q) < (best[0] * q, best[2]):
            best = (gap, a, q)
    if best is None:  # ruled out by Dirichlet's theorem
        raise ValueError(f"no Farey neighbour of {lam} meets the Dirichlet "
                         f"inequality at q_max = {q_max}")
    return best[1] % best[2], best[2]


def dyadic_width(j: int, exponent_C: float, d: int, prefactor: float = 1.0) -> float:
    """The power of two nearest (in log scale) to prefactor * j^C * 2^(-d*j)."""
    if j < 1:
        raise ValueError("j must be positive")
    target_log2 = math.log2(prefactor) + exponent_C * math.log2(j) - d * j
    return 2.0 ** round(target_log2)


@dataclass(frozen=True)
class XSet:
    """The set of dangerous modulation parameters at scale 2^j.

    A union of intervals of a common dyadic width around every rational
    a/q with q <= floor(j^C).  The width is the power of two nearest to
    prefactor * j^C * 2^(-d*j).
    """

    j: int
    exponent_C: float
    d: int
    prefactor: float = 1.0
    width: float = field(init=False)

    def __post_init__(self):
        if self.j < 1 or self.exponent_C <= 0 or self.d < 2:
            raise ValueError("invalid XSet parameters")
        w = dyadic_width(self.j, self.exponent_C, self.d, self.prefactor)
        object.__setattr__(self, "width", w)

    @property
    def q_bound(self) -> int:
        return int(math.floor(self.j ** self.exponent_C))


def xset_contains(lam: float, xs: XSet) -> bool:
    """True iff lam is within xs.width of some a/q with q <= floor(j^C).

    The nearest such a/q is one of lam's two Farey neighbours of that
    order; its distance is compared with the width exactly.
    """
    _, (gap, den) = nearest_fraction(float(lam), xs.q_bound)
    w_num, w_den = xs.width.as_integer_ratio()
    return gap * w_den <= w_num * den
