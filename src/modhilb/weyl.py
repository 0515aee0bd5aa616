"""Complete Weyl/Gauss exponential sums.

The normalized complete sum

    S(a/q, b/q) = (1/q) * sum_{r=1..q} e(-(a/q) r^d - (b/q) r),

its kernel identity at any integers a and q >= 1, and the per-q table of
|S| with its admissible (a, b), from which bench's orthogonality scan and
Hua-bound fit are built.

One routine computes complete sums: the rows S(a/q, b/q), b = 0..q-1, of
one a or of an array of a.  a is taken mod q, and the residues a r^d mod q
are reduced in exact integer arithmetic before the single transcendental
call, so no drift accumulates even for large q; b enters through one
length-q FFT per row.  The summation index runs 1..q; by periodicity this
agrees with 0..q-1, the order the FFT uses.  Single rows are kept
read-only in a small least-recently-used cache, since the circle method
asks for the same few rows at point after point; per-q tables are not.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np


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


def _fresh_row(a: int | np.ndarray, q: int, d: int) -> np.ndarray:
    """S(a/q, b/q) for all b = 0..q-1 at once, via a length-q DFT.

    One row per entry of a, an int or a 1-D int array, taken mod q.  With
    x_r = e(-(a/q) r^d), the b-th sum is (1/q) * DFT(x)[b]; the residues
    a r^d mod q are computed exactly in int64 (every product stays below
    q^2, so q < 3e9) before exponentiation.
    """
    r = np.arange(q, dtype=np.int64)
    rd = r
    for _ in range(d - 1):
        rd = rd * r % q
    ks = np.multiply.outer(a % q, rd) % q
    x = np.exp(-2j * np.pi * ks / q)
    return np.fft.fft(x) / q


# read-only rows by (a mod q, q, d), least recently used first, holding at
# most _ROW_CACHE_BYTES of row data
_ROWS: OrderedDict = OrderedDict()
_ROW_CACHE_BYTES = 1 << 19
_row_bytes = 0


def _complete_sum_row(a: int, q: int, d: int) -> np.ndarray:
    """The read-only row S(a/q, b/q), b = 0..q-1, built once while cached."""
    global _row_bytes
    key = (a % q, q, d)
    row = _ROWS.get(key)
    if row is not None:
        _ROWS.move_to_end(key)
        return row
    row = _fresh_row(a, q, d)
    row.setflags(write=False)
    _ROWS[key] = row
    _row_bytes += row.nbytes
    while _row_bytes > _ROW_CACHE_BYTES:
        _row_bytes -= _ROWS.popitem(last=False)[1].nbytes
    return row


def complete_weyl_sum(t: WeylTriple) -> complex:
    """The normalized complete Gauss sum S(a/q, b/q)."""
    return complex(_complete_sum_row(t.a, t.q, t.d)[t.b])


_TABLE_ROWS = 64  # rows of _admissible_table built at once


def _admissible_table(q: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """|S(a/q, b/q)| for a, b = 0..q-1, uncached, and the mask of admissible
    (a, b), gcd(a, b, q) = 1; for q >= 2 b = 1 is admissible in every row.

    Built _TABLE_ROWS rows at a time, so the complex rows and the gcds in
    flight stay O(q), not O(q^2)."""
    a = np.arange(q)
    g = np.gcd(a, q)
    table = np.empty((q, q))
    admissible = np.empty((q, q), dtype=bool)
    for lo in range(0, q, _TABLE_ROWS):
        rows = slice(lo, lo + _TABLE_ROWS)
        np.abs(_fresh_row(a[rows], q, d), out=table[rows])
        np.equal(np.gcd.outer(g[rows], a), 1, out=admissible[rows])
    return table, admissible


def weyl_kernel_identity(a: int, q: int, d: int, x: int) -> tuple[complex, complex]:
    """Both sides of the kernel re-expression at a/q.

    lhs = sum_{b=1..q} S(a/q, b/q) e((b/q) x), computed naively;
    rhs = sum_{r=1..q, r = x mod q} e(-(a/q) r^d), a single unimodular
    term.  The two agree and |rhs| = 1, for a/q reduced or not.
    """
    row = _complete_sum_row(a, q, d)
    r = x % q
    # b x mod q in integers, so a large |x| loses no phase
    lhs = complex((row * np.exp(2j * np.pi * (np.arange(q) * r % q) / q)).sum())
    rhs = complex(np.exp(-2j * np.pi * ((a * pow(r, d, q)) % q) / q))
    return lhs, rhs

