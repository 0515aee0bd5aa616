"""Exact rational machinery for the circle method.

Reduced fractions on the torus, Dirichlet approximation (with its
brute-force oracle), Farey level enumeration, major-box membership, and
the X_j sets of dangerous modulation parameters with their membership
test.

All operations are pure functions on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class ReducedFraction:
    """A point a/q on the torus in lowest terms, 0 <= a < q."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise ValueError("denominator must be positive")
        if not (0 <= self.numerator < self.denominator or
                (self.numerator == 0 and self.denominator == 1)):
            raise ValueError("not a canonical torus representative")
        if math.gcd(self.numerator, self.denominator) != 1:
            raise ValueError("fraction is not reduced")

    @property
    def value(self) -> float:
        return self.numerator / self.denominator

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def reduce(a: int, q: int) -> ReducedFraction:
    """Canonical torus representative of a/q mod 1."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    a %= q
    g = math.gcd(a, q)
    return ReducedFraction(a // g, q // g)


def torus_distance(x: float, y: float = 0.0) -> float:
    """Distance on the torus: min(|x-y| mod 1, 1 - (|x-y| mod 1))."""
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


def dirichlet_approx(lam: float, q_max: int) -> ReducedFraction:
    """Best Dirichlet approximation a/q to lam with q <= q_max.

    Among all reduced a/q with q <= q_max satisfying the Dirichlet
    inequality |lam - a/q| <= 1/(q*q_max), returns one minimizing
    |lam - a/q|; ties are broken by the smaller denominator.

    The scan visits, for every q, the nearest numerator round(lam*q);
    any fraction satisfying the inequality is dominated by the nearest
    one at the same denominator, so this search is exhaustive.
    Borderline comparisons are adjudicated in exact rational arithmetic.
    """
    if q_max < 1:
        raise ValueError("q_max must be a positive integer")
    qs = np.arange(1, q_max + 1)
    nums = np.rint(lam * qs)
    dist = np.abs(lam - nums / qs)
    bound = 1.0 / (qs * q_max)
    # float prefilter with a slack band; exact checks below settle the band
    maybe = dist <= bound * (1.0 + 1e-9) + 1e-15
    lam_f = Fraction(lam)
    best: tuple[Fraction, int, int] | None = None  # (distance, q, a)
    for q in qs[maybe]:
        q = int(q)
        a = round(lam * q)
        d_exact = abs(lam_f - Fraction(a, q))
        if d_exact > Fraction(1, q * q_max):
            continue
        if best is None or d_exact < best[0]:
            best = (d_exact, q, a)
    # Dirichlet's theorem guarantees a fraction within the inequality,
    # and the prefilter's slack band keeps every such denominator
    assert best is not None, f"no Dirichlet approximation to {lam!r}"
    return reduce(best[2], best[1])


def dirichlet_approx_bruteforce(lam: float, q_max: int) -> ReducedFraction:
    """Slow double-loop reference for dirichlet_approx (test oracle)."""
    if q_max < 1:
        raise ValueError("q_max must be a positive integer")
    lam_f = Fraction(lam)
    best = None
    for q in range(1, q_max + 1):
        for a in range(0, q + 1):
            d = abs(lam_f - Fraction(a, q))
            if d > Fraction(1, q * q_max):
                continue
            if best is None or d < best[0]:
                best = (d, q, a)
    assert best is not None
    return reduce(best[2], best[1])


def farey_level(q_max: int) -> list[ReducedFraction]:
    """All reduced fractions in [0,1) with denominator <= q_max, ascending."""
    if q_max < 1:
        raise ValueError("q_max must be a positive integer")
    seen = set()
    for q in range(1, q_max + 1):
        for a in range(0, q):
            if math.gcd(a, q) == 1:
                seen.add((a, q))
    fractions = sorted(seen, key=lambda t: Fraction(t[0], t[1]))
    return [ReducedFraction(a, q) for a, q in fractions]


@dataclass(frozen=True)
class MajorBox:
    """The j-th major box at a rational pair of centers.

    Half-widths are 2^((eps-d)j) in lambda and 2^((eps-1)j) in beta; the
    centers share a common denominator Q with Q <= 2^(eps*j).
    """

    center_lambda: ReducedFraction
    center_beta: ReducedFraction
    j: int
    epsilon: float
    d: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError("j must be a positive integer")
        if not (0.0 < self.epsilon <= 0.1):
            raise ValueError("epsilon must lie in (0, 1/10]")
        if self.d < 2:
            raise ValueError("d must be an integer >= 2")
        q_common = math.lcm(self.center_lambda.denominator,
                            self.center_beta.denominator)
        if q_common > 2.0 ** (self.epsilon * self.j):
            raise ValueError("common denominator exceeds 2^(eps*j)")

    @property
    def half_width_lambda(self) -> float:
        return 2.0 ** ((self.epsilon - self.d) * self.j)

    @property
    def half_width_beta(self) -> float:
        return 2.0 ** ((self.epsilon - 1.0) * self.j)


def in_major_box(lam: float, beta: float, box: MajorBox) -> bool:
    """Membership test with torus distances against both half-widths."""
    return (torus_distance(lam, box.center_lambda.value) <= box.half_width_lambda
            and torus_distance(beta, box.center_beta.value) <= box.half_width_beta)


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
    width: float = field(default=0.0)

    def __post_init__(self):
        if self.j < 1 or self.exponent_C <= 0 or self.d < 2:
            raise ValueError("invalid XSet parameters")
        w = dyadic_width(self.j, self.exponent_C, self.d, self.prefactor)
        object.__setattr__(self, "width", w)

    @property
    def q_bound(self) -> int:
        return int(math.floor(self.j ** self.exponent_C))


def xset_contains(lam: float, xs: XSet) -> bool:
    """True iff lam is within xs.width of some a/q with q <= floor(j^C)."""
    for q in range(1, xs.q_bound + 1):
        a = round(lam * q)
        if torus_distance(lam, a / q) <= xs.width:
            return True
    return False
