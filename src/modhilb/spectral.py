"""Finite-signal engine.

DFT-based multiplier application on cyclic rings, the block multipliers
M_j and the truncated symbol M, the maximal modulated-Hilbert operator
over a modulation grid (with a direct convolution oracle), TT* kernels,
and the r-variation / oscillation functionals.

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
from .weyl import _complete_sum

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

    @classmethod
    def dyadic(cls, j_min: int, j_max: int, per_slab: int) -> "LambdaGrid":
        pts = set()
        for j in range(j_min, j_max + 1):
            lo, hi = 2.0 ** (-j - 1), 2.0 ** (-j)
            for i in range(per_slab):
                pts.add(lo + (hi - lo) * i / per_slab)
        return cls(tuple(sorted(pts)),
                   provenance=f"dyadic({j_min},{j_max},{per_slab})")


@dataclass(frozen=True)
class TTStarContext:
    """Scale, degree and the (arbitrary) linearizing functions.

    lam and mu map integers to modulation parameters; for the arithmetic
    kernel K_s they may return ReducedFraction values directly.
    """

    scale: int
    d: int
    lam: Callable
    mu: Callable

    def __post_init__(self):
        if self.scale < 1 or self.d < 2:
            raise ValueError("invalid TTStarContext")


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

def _reduced_phase(lam: float, beta: float, m: np.ndarray, d: int) -> np.ndarray:
    """(lam m^d + beta m) mod 1 in extended precision."""
    ml = m.astype(np.longdouble)
    term1 = np.longdouble(lam) * ml ** d
    term2 = np.longdouble(beta) * ml
    phase = (term1 - np.floor(term1)) + (term2 - np.floor(term2))
    return (phase - np.floor(phase)).astype(np.float64)


def _psi_support_indices(j: int) -> np.ndarray:
    lo, hi = 2 ** (j - 1), 2 ** (j + 1)
    pos = np.arange(lo, hi + 1, dtype=np.int64)
    return np.concatenate([-pos[::-1], pos])


def multiplier_Mj(lam: float, beta: float, j: int, d: int,
                  fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """The j-th block: sum_m psi_j(m) e(-lam m^d - beta m)."""
    m = _psi_support_indices(j)
    weights = psi_j(m.astype(float), j, fam)
    phase = _reduced_phase(lam, beta, m, d)
    return complex((weights * np.exp(-2j * np.pi * phase)).sum())


def multiplier_M(lam: float, beta: float, d: int, J: int,
                 fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """The truncated symbol: blocks j = 1..J plus the exact |m| = 1 terms.

    The dyadic partition reproduces the kernel 1/m only for |m| >= 2, so
    the two innermost terms e(-lam m^d - beta m)/m, m = +-1, are added
    directly.  The total then matches the sharp kernel sum for every
    |m| <= 2^J, with the partition's smooth roll-off on (2^J, 2^(J+1)].
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    total = sum(multiplier_Mj(lam, beta, j, d, fam) for j in range(1, J + 1))
    for m in (1, -1):
        total += np.exp(-2j * np.pi * ((lam * m ** d + beta * m) % 1.0)) / m
    return complex(total)


def _partition_kernel_on_ring(lam: float, d: int, J: int, ring_size: int,
                              fam: BumpFamily = DEFAULT_BUMPS) -> np.ndarray:
    """Spatial kernel of multiplier_M(lam, ., d, J) periodized onto the ring."""
    ring = np.zeros(ring_size, dtype=complex)
    for j in range(1, J + 1):
        m = _psi_support_indices(j)
        weights = psi_j(m.astype(float), j, fam)
        phase = _reduced_phase(lam, 0.0, m, d)
        np.add.at(ring, m % ring_size, weights * np.exp(-2j * np.pi * phase))
    for m in (1, -1):
        ring[m % ring_size] += np.exp(-2j * np.pi * ((lam * m ** d) % 1.0)) / m
    return ring


def _sharp_kernel_on_ring(lam: float, d: int, radius: int,
                          ring_size: int) -> np.ndarray:
    """Spatial kernel e(-lam m^d)/m, 0 < |m| <= radius, on the ring."""
    ring = np.zeros(ring_size, dtype=complex)
    m = np.arange(1, radius + 1, dtype=np.int64)
    m = np.concatenate([-m[::-1], m])
    phase = _reduced_phase(lam, 0.0, m, d)
    np.add.at(ring, m % ring_size, np.exp(-2j * np.pi * phase) / m)
    return ring


def _mj_kernel_on_ring(lam: float, j: int, d: int, ring_size: int,
                       fam: BumpFamily = DEFAULT_BUMPS) -> np.ndarray:
    ring = np.zeros(ring_size, dtype=complex)
    m = _psi_support_indices(j)
    weights = psi_j(m.astype(float), j, fam)
    phase = _reduced_phase(lam, 0.0, m, d)
    np.add.at(ring, m % ring_size, weights * np.exp(-2j * np.pi * phase))
    return ring


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
    if radius is None:
        radius = 2 ** (J + 1)
    fhat = dft(_embed_on_ring(f, ring_size))
    acc = np.zeros(ring_size)
    for lam in grid.points:
        if kernel == "partition":
            ker = _partition_kernel_on_ring(lam, d, J, ring_size, fam)
        elif kernel == "sharp":
            ker = _sharp_kernel_on_ring(lam, d, radius, ring_size)
        else:
            raise ValueError("kernel must be 'partition' or 'sharp'")
        out = idft(fhat * dft(ker))
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
# TT* kernels

def ttstar_kernel_Kj(x: int, n: int, ctx: TTStarContext,
                     fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """sum_m psi_j(x-m) psi_j(n-m) e(lam(x)(x-m)^d - mu(n)(n-m)^d)."""
    j = ctx.scale
    half = 2 ** (j + 1)
    m = np.arange(x - half, x + half + 1, dtype=np.int64)
    wx = psi_j((x - m).astype(float), j, fam)
    wn = psi_j((n - m).astype(float), j, fam)
    mask = (wx != 0) & (wn != 0)
    if not mask.any():
        return 0j
    m = m[mask]
    lam_x = float(ctx.lam(x))
    mu_n = float(ctx.mu(n))
    xl = (x - m).astype(np.longdouble)
    nl = (n - m).astype(np.longdouble)
    ph = np.longdouble(lam_x) * xl ** ctx.d - np.longdouble(mu_n) * nl ** ctx.d
    ph = (ph - np.floor(ph)).astype(np.float64)
    return complex((wx[mask] * wn[mask] * np.exp(2j * np.pi * ph)).sum())


def _linearizer_fraction(fn: Callable, point: int, s: int) -> ReducedFraction:
    v = fn(point)
    if isinstance(v, ReducedFraction):
        rf = v
    else:
        rf = dirichlet_approx(float(v) % 1.0, 2 ** s - 1)
    if not (2 ** (s - 1) <= rf.denominator < 2 ** s):
        raise ValueError(
            f"linearizer denominator {rf.denominator} outside [2^{s - 1}, 2^{s})")
    return rf


def phi_hat_s(beta, s: int, fam: BumpFamily = DEFAULT_BUMPS):
    """Smoothstep frequency window supported in |beta| <= 2^(-5s)."""
    arr = np.asarray(beta, dtype=float)
    res = np.asarray(fam.eta(arr * 2.0 ** (5 * s + 1)))
    return float(res) if arr.ndim == 0 else res


def _phi_autoconv_on_ring(s: int, ring_size: int,
                          fam: BumpFamily = DEFAULT_BUMPS) -> np.ndarray:
    """phi_s * phi_s on the ring, via the squared frequency window."""
    betas = np.arange(ring_size) / ring_size
    wrapped = betas - np.round(betas)
    fh = phi_hat_s(wrapped, s, fam)
    return idft(np.asarray(fh, dtype=complex) ** 2) * ring_size


def ttstar_frequency_factor(aq: ReducedFraction, apqp: ReducedFraction,
                            w: int, d: int) -> complex:
    """The arithmetic factor of the reduced TT* kernel at offset w = x - u.

    With Q = gcd(q, q'), this is
        sum_{c mod Q} R(a/q, c/Q) conj(R(a'/q', c/Q)) e(c w / Q),
    where R(a/q, c/Q) is the complete normalized sum at frequency c/Q.
    The full kernel is this factor times phi_s*phi_s(x-u), so the factor
    equals the ratio K_s/(phi_s*phi_s) wherever the latter is nonzero.
    """
    a, q = aq.numerator, aq.denominator
    ap, qp = apqp.numerator, apqp.denominator
    Q = math.gcd(q, qp)
    total = 0j
    for c in range(Q):
        r1 = _complete_sum(a, (c * (q // Q)) % q, q, d)
        r2 = _complete_sum(ap, (c * (qp // Q)) % qp, qp, d)
        total += r1 * np.conj(r2) * np.exp(2j * np.pi * c * w / Q)
    return complex(total)


def ttstar_kernel_Ks(x: int, u: int, ctx: TTStarContext,
                     ring_size: int, fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """The arithmetic TT* kernel at scale s.

    Evaluates the reduced form: the vanishing of R off divisors and the
    frequency-separation of the phi_s windows collapse the double sum to
    frequencies c/Q with Q = gcd(q(x), q'(u)), leaving the arithmetic
    factor times phi_s*phi_s(x-u).  The ring must resolve the phi_s
    window: ring_size >= 2^(5s+3).
    """
    s = ctx.scale
    if ring_size < 2 ** (5 * s + 3):
        raise ValueError("s too large for ring_size: need ring_size >= 2^(5s+3)")
    aq = _linearizer_fraction(ctx.lam, x, s)
    apqp = _linearizer_fraction(ctx.mu, u, s)
    factor = ttstar_frequency_factor(aq, apqp, x - u, ctx.d)
    conv = _phi_autoconv_on_ring(s, ring_size, fam)
    return complex(factor * conv[(x - u) % ring_size])


def ttstar_ratio_scan(s_values: Sequence[int], d: int, n_pairs: int = 40,
                      seed: int = 0) -> dict:
    """Max of |K_s| / |phi_s*phi_s| over sampled linearizer pairs.

    The window factor cancels in the ratio, so the scan maximizes the
    arithmetic frequency factor over sampled reduced fractions with
    denominators in [2^(s-1), 2^s) and over all offsets mod gcd(q, q').
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


def r_variation_bruteforce(seq: Sequence[complex], r: float) -> float:
    """Exhaustive enumeration over all increasing subsequences (oracle)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    a = list(seq)
    n = len(a)
    best = 0.0
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) < 2:
            continue
        diffs = [abs(a[idx[t + 1]] - a[idx[t]]) for t in range(len(idx) - 1)]
        if math.isinf(r):
            val = max(diffs)
        else:
            val = sum(d ** r for d in diffs) ** (1.0 / r)
        best = max(best, val)
    return best


def _carleson_lambda_output(ring_f_hat: np.ndarray, lam: float, d: int,
                            radius: int, ring_size: int) -> np.ndarray:
    ker = _sharp_kernel_on_ring(lam, d, radius, ring_size)
    return idft(ring_f_hat * dft(ker))


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
    prev_lo = None
    for lo, hi, anchor in intervals:
        if not (0.0 <= lo < hi and lo < anchor <= hi):
            raise ValueError("malformed interval (lo, hi, anchor)")
        if prev_lo is not None and hi > prev_lo:
            raise ValueError("intervals must be decreasing and disjoint")
        prev_lo = lo
    radius = min(2 ** (J + 1), ring_size // 4)
    fhat = dft(_embed_on_ring(f, ring_size))
    total = 0.0
    for lo, hi, anchor in intervals:
        base = _carleson_lambda_output(fhat, anchor, d, radius, ring_size)
        sup = np.zeros(ring_size)
        g = grid_per_interval
        for t in range(g):
            lam = hi * (lo / hi) ** (t / g) if lo > 0 else hi * 0.5 ** t
            out = _carleson_lambda_output(fhat, lam, d, radius, ring_size)
            np.maximum(sup, np.abs(out - base), out=sup)
        total += float((sup ** 2).sum())
    return total
