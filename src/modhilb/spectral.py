"""Finite-signal engine.

DFT-based multiplier application on cyclic rings, the block multipliers
M_j and the truncated symbol M, the maximal modulated-Hilbert operator
over a modulation grid (with a direct convolution oracle), the
arithmetic factor of the TT* kernel, and the r-variation (with its
exhaustive oracle) and oscillation functionals.

Fourier convention: the forward transform uses the kernel e(-beta n), so
dft agrees with the standard FFT sign.  A Signal returned by a ring
operation has offset 0 and its values indexed by x mod ring_size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .farey import ReducedFraction, dirichlet_approx
from .osc import DEFAULT_BUMPS, BumpFamily, psi_j
from .weyl import _complete_sum_row

TWO_PI = 2.0 * np.pi


@dataclass
class Signal:
    """A finitely supported complex function on the integers.

    values[i] is the value at offset + i.  Two signals with the same
    pointwise values compare equal regardless of zero padding.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 1:
            raise ValueError("values must be one-dimensional")

    @classmethod
    def delta(cls, x: int = 0) -> "Signal":
        return cls(x, np.array([1.0 + 0j]))

    def trimmed(self) -> tuple[int, np.ndarray]:
        nz = np.nonzero(self.values)[0]
        if len(nz) == 0:
            return 0, np.zeros(0, dtype=complex)
        return self.offset + int(nz[0]), self.values[nz[0]:nz[-1] + 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signal):
            return NotImplemented
        off_a, val_a = self.trimmed()
        off_b, val_b = other.trimmed()
        return off_a == off_b and np.array_equal(val_a, val_b)

    @property
    def support_width(self) -> int:
        return len(self.trimmed()[1])

    def value_at(self, x: int) -> complex:
        i = x - self.offset
        if 0 <= i < len(self.values):
            return complex(self.values[i])
        return 0j

    def translate(self, h: int) -> "Signal":
        return Signal(self.offset + h, self.values.copy())

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class LambdaGrid:
    """A finite, sorted set of modulation parameters in [0, 1]."""

    points: tuple[float, ...]
    provenance: str = "explicit"

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if any(not (0.0 <= p <= 1.0) for p in pts):
            raise ValueError("grid points must lie in [0, 1]")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, n: int) -> "LambdaGrid":
        if n < 1:
            raise ValueError("n must be positive")
        return cls(tuple(i / n for i in range(n)), provenance=f"uniform({n})")


# ---------------------------------------------------------------------------
# transforms and multiplier application

def dft(values: np.ndarray) -> np.ndarray:
    """Forward transform with kernel e(-beta n), beta = t/N."""
    return np.fft.fft(np.asarray(values, dtype=complex))


def idft(values: np.ndarray) -> np.ndarray:
    return np.fft.ifft(np.asarray(values, dtype=complex))


def _embed_on_ring(f: Signal, ring_size: int) -> np.ndarray:
    ring = np.zeros(ring_size, dtype=complex)
    idx = (f.offset + np.arange(len(f.values))) % ring_size
    np.add.at(ring, idx, f.values)
    return ring


def apply_multiplier(f: Signal, m: Callable, ring_size: int) -> Signal:
    """Evaluate (m(beta) fhat(beta))^v on a cyclic ring.

    m is called once, on the array of all betas = t/ring_size, and must
    return an array of the same shape; anything else raises ValueError.
    The ring must be at least four times the support width of f; smaller
    rings alias the output.
    """
    if ring_size < 4 * f.support_width:
        raise ValueError("ring_size must be >= 4x the support width of f")
    ring = _embed_on_ring(f, ring_size)
    betas = np.arange(ring_size) / ring_size
    mv = np.asarray(m(betas), dtype=complex)
    if mv.shape != betas.shape:
        raise ValueError(f"multiplier returned shape {mv.shape}, "
                         f"expected {betas.shape}")
    return Signal(0, idft(dft(ring) * mv))


# ---------------------------------------------------------------------------
# the multipliers

def _frac(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x)


def _reduced_phase(lam: float, beta: float, m: np.ndarray, d: int) -> np.ndarray:
    """(lam m^d + beta m) mod 1 in extended precision."""
    ml = m.astype(np.longdouble)
    phase = _frac(np.longdouble(lam) * ml ** d) + _frac(np.longdouble(beta) * ml)
    return _frac(phase).astype(np.float64)


def _taps_between(lo: int, hi: int) -> np.ndarray:
    """The integers m with lo <= |m| <= hi, ascending."""
    pos = np.arange(lo, hi + 1, dtype=np.int64)
    return np.concatenate([-pos[::-1], pos])


def _block_taps(j: int,
                fam: BumpFamily = DEFAULT_BUMPS) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of M_j: psi_j(m) on the support of psi_j."""
    m = _taps_between(2 ** (j - 1), 2 ** (j + 1))
    return m, psi_j(m.astype(float), j, fam)


def _partition_taps(J: int,
                    fam: BumpFamily = DEFAULT_BUMPS) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of multiplier_M: the blocks j = 1..J summed, 1/m at m = +-1."""
    m = _taps_between(1, 2 ** (J + 1))
    w = np.zeros(len(m))
    for j in range(1, J + 1):
        w += psi_j(m.astype(float), j, fam)
    unit = np.abs(m) == 1
    w[unit] = 1.0 / m[unit]
    return m, w


def _sharp_taps(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact kernel 1/m, 0 < |m| <= radius."""
    m = _taps_between(1, radius)
    return m, 1.0 / m


def _symbol(lam: float, beta: float, taps, d: int) -> complex:
    """sum_m w(m) e(-lam m^d - beta m) over the tap table taps = (m, w)."""
    m, w = taps
    phase = _reduced_phase(lam, beta, m, d)
    return complex((w * np.exp(-2j * np.pi * phase)).sum())


def multiplier_Mj(lam: float, beta: float, j: int, d: int,
                  fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """The j-th block: sum_m psi_j(m) e(-lam m^d - beta m)."""
    return _symbol(lam, beta, _block_taps(j, fam), d)


def multiplier_M(lam: float, beta: float, d: int, J: int,
                 fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """The truncated symbol: sum_m w(m) e(-lam m^d - beta m), w the
    kernel of _partition_taps.

    w is the sum of the blocks psi_j, j = 1..J, which reproduces 1/m for
    2 <= |m| <= 2^J, with 1/m itself at m = +-1, where the partition does
    not reach.  The total matches the sharp kernel sum for every
    |m| <= 2^J, with the partition's smooth roll-off on (2^J, 2^(J+1)].
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    return _symbol(lam, beta, _partition_taps(J, fam), d)


def _modulated_outputs(f: Signal, lams: Sequence[float], taps, d: int,
                       ring_size: int):
    """Yield K_lam * f on the ring for each lam, K_lam(m) = w(m) e(-lam m^d).

    taps = (m, w) is the kernel's lambda-independent tap table (the
    _*_taps builders); f is embedded and transformed once.  Taps beyond
    the ring wrap onto it.
    """
    m, w = taps
    idx = m % ring_size
    powers = m.astype(np.longdouble) ** d
    fhat = dft(_embed_on_ring(f, ring_size))
    for lam in lams:
        # _reduced_phase(lam, 0.0, m, d) with m^d computed once: a
        # fraction that rounded up to 1 (tiny lam, negative m^d) is 0
        phase = _frac(np.longdouble(lam) * powers)
        phase[phase == 1] = 0
        ker = np.zeros(ring_size, dtype=complex)
        np.add.at(ker, idx, w * np.exp(-2j * np.pi * phase.astype(np.float64)))
        yield idft(fhat * dft(ker))


# ---------------------------------------------------------------------------
# the maximal operator

def carleson_apply(f: Signal, grid: LambdaGrid, d: int, J: int,
                   ring_size: int, fam: BumpFamily = DEFAULT_BUMPS,
                   kernel: str = "partition",
                   radius: Optional[int] = None) -> Signal:
    """Pointwise max over the grid of |(M(lam, .) fhat)^v|.

    kernel="partition" uses the truncated symbol multiplier_M assembled
    from the dyadic blocks; kernel="sharp" uses the exact coefficients
    e(-lam m^d)/m up to the given radius (default 2^(J+1)), which is the
    radius-matched FFT counterpart of carleson_direct_oracle.  Cost is
    O(|grid| N log N) either way.
    """
    if len(grid.points) == 0:
        raise ValueError("empty modulation grid")
    if ring_size < 4 * f.support_width:
        raise ValueError("ring_size must be >= 4x the support width of f")
    if kernel == "partition":
        taps = _partition_taps(J, fam)
    elif kernel == "sharp":
        taps = _sharp_taps(2 ** (J + 1) if radius is None else radius)
    else:
        raise ValueError("kernel must be 'partition' or 'sharp'")
    acc = np.zeros(ring_size)
    for out in _modulated_outputs(f, grid.points, taps, d, ring_size):
        np.maximum(acc, np.abs(out), out=acc)
    return Signal(0, acc.astype(complex))


def carleson_direct_oracle(f: Signal, grid: LambdaGrid, d: int,
                           M_radius: int, ring_size: int) -> Signal:
    """Direct-convolution reference with the exact kernel e(-lam m^d)/m.

    O(|grid| N M_radius); no bump partition, no FFT.  Used to bound the
    partition discrepancy and to validate the FFT path.
    """
    if len(grid.points) == 0:
        raise ValueError("empty modulation grid")
    ring = _embed_on_ring(f, ring_size)
    acc = np.zeros(ring_size)
    ms = np.arange(1, M_radius + 1, dtype=np.int64)
    ms = np.concatenate([-ms[::-1], ms])
    for lam in grid.points:
        phase = _reduced_phase(lam, 0.0, ms, d)
        coeff = np.exp(-2j * np.pi * phase) / ms
        out = np.zeros(ring_size, dtype=complex)
        for m, c in zip(ms, coeff):
            out += c * np.roll(ring, int(m))
        np.maximum(acc, np.abs(out), out=acc)
    return Signal(0, acc.astype(complex))


# ---------------------------------------------------------------------------
# the TT* kernel's arithmetic factor

def ttstar_frequency_factor(aq: ReducedFraction, apqp: ReducedFraction,
                            w: int, d: int) -> complex:
    """The arithmetic factor of the reduced TT* kernel at offset w = x - u.

    With Q = gcd(q, q'), this is
        sum_{c mod Q} R(a/q, c/Q) conj(R(a'/q', c/Q)) e(c w / Q),
    where R(a/q, c/Q) is the complete normalized sum at frequency c/Q.
    The vanishing of R off divisors and the frequency separation of the
    smooth windows phi_s collapse the TT* kernel at scale s to this
    factor times the window autocorrelation phi_s*phi_s(x-u).
    """
    a, q = aq.numerator, aq.denominator
    ap, qp = apqp.numerator, apqp.denominator
    Q = math.gcd(q, qp)
    c = np.arange(Q)
    r1 = _complete_sum_row(a, q, d)[c * (q // Q)]
    r2 = _complete_sum_row(ap, qp, d)[c * (qp // Q)]
    return complex((r1 * np.conj(r2) * np.exp(2j * np.pi * c * w / Q)).sum())


def ttstar_ratio_scan(s_values: Sequence[int], d: int, n_pairs: int = 40,
                      seed: int = 0) -> dict:
    """Max of the TT* kernel relative to its window, per scale s.

    The kernel is the window autocorrelation times the arithmetic factor
    of ttstar_frequency_factor, so the ratio is the factor's modulus.  The
    scan maximizes it over sampled pairs of distinct reduced fractions
    with denominators in [2^(s-1), 2^s) and over offsets mod gcd(q, q').
    """
    rng = np.random.Generator(np.random.Philox(seed))
    maxima = {}
    for s in s_values:
        q_lo, q_hi = 2 ** (s - 1), 2 ** s

        def draw():
            # a linearizer value: uniform modulation parameter, reduced
            # through its best rational with denominator in [2^(s-1), 2^s)
            while True:
                rf = dirichlet_approx(float(rng.random()), q_hi - 1)
                if q_lo <= rf.denominator < q_hi:
                    return rf

        best = 0.0
        for _ in range(n_pairs):
            # distinct fractions: a coinciding pair sits on the diagonal
            # of the TT* composition, where the ratio is identically 1
            while True:
                aq, apqp = draw(), draw()
                if aq != apqp:
                    break
            Q = math.gcd(aq.denominator, apqp.denominator)
            w = int(rng.integers(0, 2 ** (2 * s))) % Q
            best = max(best, abs(ttstar_frequency_factor(aq, apqp, w, d)))
        maxima[int(s)] = best
    return {"d": d, "n_pairs": n_pairs, "seed": seed, "max_ratio": maxima}


# ---------------------------------------------------------------------------
# variation and oscillation

def r_variation(seq: Sequence[complex], r: float) -> float:
    """sup over increasing subsequences of the l^r norm of differences.

    r = inf returns the diameter.  Dynamic programming over endpoint
    indices: best[i] is the largest sum of r-th powers over paths ending
    at i; O(n^2).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a = np.asarray(seq, dtype=complex)
    n = len(a)
    if n == 0:
        raise ValueError("sequence must be nonempty")
    if n == 1:
        return 0.0
    diff = np.abs(a[None, :] - a[:, None])
    if math.isinf(r):
        return float(diff.max())
    best = np.zeros(n)
    for i in range(1, n):
        best[i] = (best[:i] + diff[:i, i] ** r).max()
    return float(best.max() ** (1.0 / r))


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


def oscillation_sum(f: Signal, intervals: Sequence[tuple[float, float, float]],
                    grid_per_interval: int, d: int, J: int,
                    ring_size: int) -> float:
    """sum_i || sup over the grid in I_i of |C_lam f - C_(anchor_i) f| ||^2.

    Each interval is (lo, hi, anchor) with lo < anchor <= hi, and the
    intervals must be strictly decreasing (the dyadic schedule runs
    toward lambda = 0).  C_lam is the truncated modulated Hilbert
    transform with kernel radius min(2^(J+1), ring_size/4), applied
    circularly.  The per-interval grid is geometric between hi and lo.
    """
    if grid_per_interval < 1:
        raise ValueError("grid_per_interval must be >= 1")
    g = grid_per_interval
    lams = []
    prev_lo = None
    for lo, hi, anchor in intervals:
        if not (0.0 <= lo < hi and lo < anchor <= hi):
            raise ValueError("malformed interval (lo, hi, anchor)")
        if prev_lo is not None and hi > prev_lo:
            raise ValueError("intervals must be decreasing and disjoint")
        prev_lo = lo
        # each interval is one pass over [anchor, grid...]
        lams.append(anchor)
        lams += [hi * (lo / hi) ** (t / g) if lo > 0 else hi * 0.5 ** t
                 for t in range(g)]
    taps = _sharp_taps(min(2 ** (J + 1), ring_size // 4))
    outputs = _modulated_outputs(f, lams, taps, d, ring_size)
    total = 0.0
    for _ in intervals:
        base = next(outputs)
        sup = np.zeros(ring_size)
        for _ in range(g):
            np.maximum(sup, np.abs(next(outputs) - base), out=sup)
        total += float((sup ** 2).sum())
    return total
