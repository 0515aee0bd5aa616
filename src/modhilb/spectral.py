"""Finite-signal engine.

DFT-based multiplier application on cyclic rings with the square
function of the symbols G, the block multipliers M_j, the maximal
modulated-Hilbert operator over a modulation grid (with a direct
convolution oracle), the arithmetic factor of the TT* kernel, and the
r-variation and oscillation functionals.

Fourier convention: the forward transform uses the kernel e(-beta n), so
dft agrees with the standard FFT sign.  A Signal returned by a ring
operation has offset 0 and its values indexed by x mod ring_size.

Threads: the maximal operator and the outside-X_j sup take their max
over lambda through _modulated_sup, which on rings of 2^14 points or
more splits the lambdas across the CPUs the process may run on, at most
two, one thread each, taking the lambdas one at a time, joined before
it returns.  The result is bit for bit the same for any CPU count;
nothing sets the count but the CPU affinity.  The oscillation sums stay
in one thread.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .osc import DEFAULT_BUMPS, BumpFamily, G_hat_direct, PhaseContext, psi_j
from .weyl import _complete_sum_row


@dataclass(eq=False)
class Signal:
    """A finitely supported complex function on the integers.

    values[i] is the value at offset + i.
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

    @property
    def support_width(self) -> int:
        """The length from the first nonzero value to the last, 0 if none."""
        nz = np.flatnonzero(self.values)
        return int(nz[-1] - nz[0]) + 1 if nz.size else 0

    def norm2(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True)
class LambdaGrid:
    """A finite, nonempty, sorted set of modulation parameters in [0, 1]."""

    points: tuple[float, ...]
    provenance: str = "explicit"

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise ValueError("empty modulation grid")
        if any(not (0.0 <= p <= 1.0) for p in pts):
            raise ValueError("grid points must lie in [0, 1]")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)


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
# the square function

def square_function_S_G(f: Signal, l: int, k_range: tuple[int, int],
                        lambda_grid_per_slab: int, d: int,
                        fam: BumpFamily = DEFAULT_BUMPS, tol: float = 1e-8):
    """Discrete square function built from the windowed symbols.

    For each k in k_range, integrates |G_lam * f|^2 over the dyadic slab
    of lam values by the trapezoid rule on a lambda grid, weights the
    slab by 2^(dk), sums over k and takes a pointwise square root.
    Convolutions run on the smallest power-of-two ring of at least 4x
    the support of f.
    """
    if lambda_grid_per_slab < 1:
        raise ValueError("need at least one grid point per slab")
    k_min, k_max = k_range
    width = max(len(f.values), 1)
    ring_size = 1
    while ring_size < 4 * width:
        ring_size *= 2
    acc = np.zeros(ring_size)
    for k in range(k_min, k_max + 1):
        slab_lo = math.ldexp(1.0, l - d * k)
        slab_hi = 2.0 * slab_lo
        n = lambda_grid_per_slab
        if n == 1:
            lams = np.array([slab_lo])
            weights = np.array([slab_hi - slab_lo])
        else:
            lams = np.linspace(slab_lo, slab_hi, n)
            dx = (slab_hi - slab_lo) / (n - 1)
            weights = np.full(n, dx)
            weights[0] = weights[-1] = dx / 2
        for lam, wgt in zip(lams, weights):
            lam = min(lam, np.nextafter(slab_hi, 0.0))
            ctx = PhaseContext(d, k, l, lam)

            def symbol(betas, ctx=ctx):
                xi = betas - np.round(betas)
                return np.array([G_hat_direct(x, ctx, fam, tol) for x in xi])

            conv = apply_multiplier(f, symbol, ring_size)
            acc += math.ldexp(1.0, d * k) * wgt * np.abs(conv.values) ** 2
    return Signal(0, np.sqrt(acc).astype(complex))


# ---------------------------------------------------------------------------
# the multipliers

def _tap_powers(m: np.ndarray, d: int) -> np.ndarray:
    """m^d as int64 words; ValueError if |m|^d >= 2^63."""
    if m.size and int(np.abs(m).max()) ** d >= 2 ** 63:
        raise ValueError("|m|^d must be below 2^63")
    return np.asarray(m, dtype=np.int64) ** d


def _reduce(x: float, md: np.ndarray) -> np.ndarray:
    """(x md) mod 1 in [-1/2, 1/2] for finite x and md from _tap_powers.

    Payne and Hanek's exact reduction, cut to one 64-bit word: x = hi
    2^-64 + lo with hi = floor(x 2^64) and 0 <= lo < 2^-64, so hi md mod
    2^64 is numpy's wrapping uint64 product, read as a signed word, and
    lo md is below 1/2 in size.
    """
    num, den = float(x).as_integer_ratio()  # den is a power of two
    hi = (num << 64) // den
    lo = x - math.ldexp(hi, -64) if den > 2 ** 64 else 0.0
    word = (md.view(np.uint64) * np.uint64(hi % 2 ** 64)).view(np.int64)
    t = word * 2.0 ** -64 + lo * md
    return t - np.rint(t)


def _phase(x: float, m: np.ndarray, d: int) -> np.ndarray:
    """(x m^d) mod 1 in [-1/2, 1/2] for finite x; ValueError if |m|^d >= 2^63."""
    return _reduce(x, _tap_powers(m, d))


def _unit_table() -> np.ndarray:
    """e(-k/256), k = 0..255, from sin on the first quadrant.

    The other quadrants are exact multiples by -i, -1 and i, so e(-1/4),
    e(-1/2) and e(-3/4) are exact.
    """
    s = np.sin(np.pi / 128 * np.arange(65))  # sin(2 pi k / 256)
    c, s = s[64:0:-1], s[:64]                # cos and sin, k = 0..63
    return (np.concatenate([c, -s, -c, s])
            + 1j * np.concatenate([-s, -c, s, c]))


_E_TABLE = _unit_table()
_E_TABLE.setflags(write=False)
_ROUND = 1.5 * 2.0 ** 52  # u + _ROUND is u rounded to an integer, |u| < 2^51


def _e_neg(t: np.ndarray, w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = w e(-t) for t in [-1/2, 1/2], with no exp, sin or cos.

    256 t = k + r with k the nearest integer and |r| <= 1/2, both exact,
    so e(-t) = e(-k/256) e(-r/256): a gather from _E_TABLE times the
    Taylor series of cos and sin at 2 pi r / 256 <= pi/256, to degree 7,
    whose truncation error is below 1e-19.  Per call it is built from +,
    x and a gather alone; the table is the one transcendental step, taken
    once at import.
    """
    u = t * 256.0
    y = u + _ROUND
    k = y.view(np.int64) & 255  # the low bits of y's mantissa are k mod 2^8
    y -= _ROUND                 # k
    np.subtract(u, y, out=u)    # r
    u *= np.pi / 128            # 2 pi r / 256
    z = np.multiply(u, u, out=y)
    c, s = z * (-1 / 720), z * (-1 / 5040)  # Horner, in place
    for a, b in ((1 / 24, 1 / 120), (-1 / 2, -1 / 6)):
        c += a
        c *= z
        s += b
        s *= z
    c += 1.0
    s += 1.0
    s *= u
    out.real = c
    np.negative(s, out=out.imag)
    out *= _E_TABLE.take(k)
    out *= w
    return out


@functools.lru_cache(maxsize=32)
def _tap_table(kind: str, n: int,
               smoothness_order: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd kernel of one multiplier as (pos, w), built once and read-only.

    The kernel is w(m) at each m of pos and -w(m) at -m.  kind "block"
    is psi_j, j = n, on 2^(j-1) <= m < 2^(j+1), its support less the end
    2^(j+1), where psi_j is 0; "partition" the blocks
    j = 1..n summed, with 1/m at m = +-1; "sharp" 1/m for
    0 < |m| <= n (smoothness_order 0).  psi depends on the smoothness
    order alone, not on d or c_chi, so equal families share a table.
    """
    if kind == "block":
        fam = BumpFamily(smoothness_order=smoothness_order)
        pos = np.arange(2 ** (n - 1), 2 ** (n + 1), dtype=np.int64)
        w = psi_j(pos.astype(float), n, fam)
    elif kind == "partition":
        fam = BumpFamily(smoothness_order=smoothness_order)
        pos = np.arange(1, 2 ** (n + 1) + 1, dtype=np.int64)
        w = np.zeros(len(pos))
        for j in range(1, n + 1):
            w += psi_j(pos.astype(float), j, fam)
        w[0] = 1.0
    else:
        pos = np.arange(1, n + 1, dtype=np.int64)
        w = 1.0 / pos
    pos.setflags(write=False)
    w.setflags(write=False)
    return pos, w


def _block_taps(j: int,
                fam: BumpFamily = DEFAULT_BUMPS) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of M_j: psi_j(m), 2^(j-1) <= m < 2^(j+1)."""
    return _tap_table("block", j, fam.smoothness_order)


def _partition_taps(J: int,
                    fam: BumpFamily = DEFAULT_BUMPS) -> tuple[np.ndarray, np.ndarray]:
    """The kernel of the truncated symbol M: the blocks j = 1..J summed,
    1/m at m = +-1.

    It reproduces 1/m for 2 <= |m| <= 2^J, with the partition's smooth
    roll-off on (2^J, 2^(J+1)].  ValueError if J < 1, where no block is
    summed.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    return _tap_table("partition", J, fam.smoothness_order)


def _sharp_taps(radius: int) -> tuple[np.ndarray, np.ndarray]:
    """The exact kernel 1/m, 0 < |m| <= radius, an integer >= 1: a float
    radius, such as 2^(J+1) at a negative J, is refused, not rounded."""
    if not isinstance(radius, numbers.Integral) or radius < 1:
        raise ValueError(f"sharp kernel radius must be an integer >= 1, "
                         f"not {radius!r}")
    return _tap_table("sharp", int(radius), 0)


# _block_symbol's blocks hold _K = _K1 _K2 taps, written _PASS blocks a pass
_K1, _K2, _PASS = 16, 32, 8
_K = _K1 * _K2
# measured crossover, on tables that ended on a block of one tap: between
# calls to the rest of the pipeline the direct sum was the faster on 1537
# taps and the block sum on 2048 and more.  Not re-measured on whole-block
# tables: block j = 10, now 1536 taps in 3 blocks, took 51 us by blocks
# and 63 us tap by tap, timed alone; moving the cut moves the bits of M_10
_BLOCK_MIN_TAPS = 2048


@functools.lru_cache(maxsize=32)
def _block_words(m0: int, n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The integer phase words of _block_symbol on the taps m0..m0+n-1.

    With B = ceil(n/_K) blocks, m = m_b + k, m_b = m0 + _K b and
    k = _K2 k1 + k2: the lam words are m_b (m_b + 2 _K2 k1) by (b, k1),
    2 m_b k2 by (b, k2) and k^2 by k; the beta words are +-m_b, +-_K2 k1
    and +-k2, each sign pair adjacent.  Every word is below
    (m0 + B _K)^2; ValueError if that reaches 2^63.  Returns the words,
    read-only, lam's then beta's, and the offsets of the six groups in
    that order.
    """
    nb = -(-n // _K)
    if (m0 + nb * _K) ** 2 >= 2 ** 63:
        raise ValueError("|m|^2 must be below 2^63")
    mb = m0 + _K * np.arange(nb, dtype=np.int64)
    k = np.arange(_K, dtype=np.int64)
    k1, k2 = k[::_K2], k[:_K2]
    col = mb[:, None]
    lam_w = np.concatenate([(col * (col + 2 * k1)).ravel(),
                            (2 * col * k2).ravel(), k * k])
    beta_w = np.concatenate([np.multiply.outer(x, [1, -1]).ravel()
                             for x in (mb, k1, k2)])
    lam_w.setflags(write=False)
    beta_w.setflags(write=False)
    sizes = (nb * _K1, nb * _K2, _K, 2 * nb, 2 * _K1, 2 * _K2)
    return lam_w, beta_w, (0,) + tuple(itertools.accumulate(sizes))


def _block_symbol(lam: float, beta: float, taps) -> complex:
    """_symbol at d = 2 on taps whose pos is a contiguous range, by blocks.

    The pair +-m gives w(m) (e(-lam m^2 - beta m) - e(-lam m^2 + beta m)),
    so the symbol is S(beta) - S(-beta), S(beta) = sum_m w(m)
    e(-lam m^2 - beta m) on the positive taps.  In the notation of
    _block_words,

        lam m^2 + beta m = [lam m_b (m_b + 2 _K2 k1) + beta (m_b + _K2 k1)]
                           + [2 lam m_b k2 + beta k2] + lam k^2,

    so each term is w(m) E[k] times e of the first bracket, u[b, k1], and
    of the second, v[b, k2].  Every factor is e of a word reduced exactly
    by _reduce, and cos and sin run on B (_K1 + _K2) + _K + 2 (B + _K1 +
    _K2) entries, not on the taps.  Per tap there remain w E, written
    _PASS blocks at a time into one buffer as a real and an imaginary row,
    and a batched real matmul with v at +-beta.  The table must be a
    whole number of blocks, as the block and partition tables that reach
    here are.
    """
    pos, w = taps
    nb = -(-len(pos) // _K)
    lam_w, beta_w, cuts = _block_words(int(pos[0]), len(pos))
    t = np.concatenate([_reduce(lam, lam_w), _reduce(beta, beta_w)])
    t *= -2.0 * np.pi
    e = np.empty(len(t), dtype=complex)  # e(-phase) of every word
    np.cos(t, out=e.real)
    np.sin(t, out=e.imag)
    u, v, E, eb, ek1, ek2 = (e[a:b] for a, b in zip(cuts, cuts[1:]))
    ek1[1::2] *= -1.0                    # the sign of S(-beta)
    u = u.reshape(nb, _K1, 1) * eb.reshape(nb, 1, 2) * ek1.reshape(_K1, 2)
    v = (v.reshape(nb, _K2, 1) * ek2.reshape(_K2, 2)).view(float)
    E = np.stack([E.real, E.imag])
    out = np.empty((nb, 2 * _K1, 4))
    buf = np.empty((_PASS, 2, _K))
    for b0 in range(0, nb, _PASS):
        p = min(_PASS, nb - b0)
        np.multiply(w[b0 * _K:(b0 + p) * _K].reshape(p, 1, _K), E,
                    out=buf[:p])
        np.matmul(buf[:p].reshape(p, 2 * _K1, _K2), v[b0:b0 + p],
                  out=out[b0:b0 + p])
    # out as complex: sum_k2 w Re(E) v and sum_k2 w Im(E) v, by (b, k1, +-)
    terms = out.view(complex).reshape(nb, 2, _K1, 2)
    terms *= u[:, None]
    with_re, with_im = terms.reshape(nb, 2, -1).sum(axis=(0, 2))
    return complex(with_re + 1j * with_im)


def _symbol(lam: float, beta: float, taps, d: int) -> complex:
    """sum_m w(m) e(-lam m^d - beta m) over the odd kernel taps = (pos, w).

    Summed over the positive taps: the pair +-m gives
    -2i w(m) e(-lam m^d) sin(2 pi beta m) for d even, and
    -2i w(m) sin(2 pi (lam m^d + beta m)) for d odd.  At d = 2 a table of
    _BLOCK_MIN_TAPS taps or more, whose pos the _*_taps builders make a
    contiguous range of whole blocks, is summed by _block_symbol, with no
    cos or sin per tap; any other table and d is summed tap by tap.
    """
    pos, w = taps
    if d == 2 and len(pos) >= _BLOCK_MIN_TAPS:
        return _block_symbol(lam, beta, taps)
    lam_ph = _phase(lam, pos, d)
    beta_ph = _reduce(beta, pos)  # pos, int64, is its own first power
    if d % 2 == 0:
        # by real and imaginary part: a complex exp costs more than cos
        # and sin together
        ws = w * np.sin(2.0 * np.pi * beta_ph)
        arg = 2.0 * np.pi * lam_ph
        return complex(-2.0 * (ws * np.sin(arg)).sum(),
                       -2.0 * (ws * np.cos(arg)).sum())
    terms = w * np.sin(2.0 * np.pi * (lam_ph + beta_ph))
    return complex(0.0, -2.0 * terms.sum())


def multiplier_Mj(lam: float, beta: float, j: int, d: int,
                  fam: BumpFamily = DEFAULT_BUMPS) -> complex:
    """The j-th block: sum_m psi_j(m) e(-lam m^d - beta m)."""
    return _symbol(lam, beta, _block_taps(j, fam), d)


def _modulated_outputs(fhat: np.ndarray, lams: Iterable[float], taps,
                       d: int):
    """Yield K_lam * f on the ring for each lam, K_lam(m) = w(m) e(-lam m^d).

    fhat is the dft of f embedded on the ring, whose size is len(fhat).
    taps = (pos, w) is the odd kernel's lambda-independent tap table (the
    _*_taps builders), w(m) at m in pos and -w(m) at -m.  Each kernel is
    built in place: the phase words of pos^d, taken once per call, give
    w e(-lam m^d) on pos through _e_neg, and the tap at -m is minus that
    value, conjugated for odd d.  Taps beyond the ring wrap and add up.
    One dft and one idft run per lam, and each row yielded is a fresh
    array.
    """
    pos, w = taps
    ring_size = len(fhat)
    md = _tap_powers(pos, d)
    idx_pos, idx_neg = pos % ring_size, -pos % ring_size
    vals = np.empty(len(pos), dtype=complex)
    ker = np.empty(ring_size, dtype=complex)
    for lam in lams:
        _e_neg(_reduce(lam, md), w, vals)
        ker.fill(0.0)
        np.add.at(ker, idx_pos, vals)
        if d % 2:
            np.conjugate(vals, out=vals)
        np.subtract.at(ker, idx_neg, vals)
        spec = dft(ker)
        spec *= fhat
        yield idft(spec)


# measured crossover, on two CPUs: a 32-lambda partition kernel (J = 11),
# timed alone in four alternated rounds, took 0.61-0.79 of its one-thread
# time split on 2^14 points and 0.68-1.09 on 2^13, where modulated-fft
# benchmark runs also read it both faster and slower split than not
_SPLIT_MIN_RING = 2 ** 14
# the split was timed on two CPUs only: more loops are unmeasured in time
# and in memory, where each loop holds 2.1-2.3 MB of ring buffers at 2^14
# points beside the first (ru_maxrss of a process running modulated-fft's
# ops, 3 rounds)
_SPLIT_MAX_LOOPS = 2


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _modulated_sup(f: Signal, lams: Sequence[float], taps, d: int,
                   ring_size: int) -> np.ndarray:
    """max over lams of |K_lam * f| on the ring, pointwise, K_lam as in
    _modulated_outputs.

    f is transformed once.  On rings of _SPLIT_MIN_RING points or more,
    one loop runs per CPU the process may run on, at most
    _SPLIT_MAX_LOOPS and never more than lambdas; smaller rings run one.
    Each loop is its own _modulated_outputs loop and running max, the
    first in the calling thread and each other one in a thread of a pool
    that lives for this call alone: numpy's FFT releases the interpreter
    lock.  The loops take the lambdas one at a time from one shared
    iterator, so they end within a lambda of each other even when one
    CPU runs slower.  A loop that raises empties the iterator, so the
    others stop after their current lambda; the exception is raised
    here, after every thread has ended.  The loops' maxima are combined
    by np.maximum, which is exact, so the result is bit for bit the same
    whichever loop took which lambda.
    """
    fhat = dft(_embed_on_ring(f, ring_size))
    n = (min(_cpu_count(), _SPLIT_MAX_LOOPS)
         if ring_size >= _SPLIT_MIN_RING else 1)
    n = max(1, min(n, len(lams)))
    pending, lock = iter(lams), threading.Lock()

    def draw():
        while True:
            with lock:
                lam = next(pending, None)
            if lam is None:
                return
            yield lam

    def loop_sup():
        nonlocal pending
        acc = np.zeros(ring_size)
        try:
            for out in _modulated_outputs(fhat, draw(), taps, d):
                np.maximum(acc, np.abs(out), out=acc)
        except BaseException:
            with lock:
                pending = iter(())
            raise
        return acc

    # imported here: concurrent.futures brings logging and queue with it,
    # 5-9 ms of import and 0.3-0.6 MB of peak memory in every process
    # that imports modhilb, most of which never take this sup
    from concurrent.futures import ThreadPoolExecutor

    # the pool starts a thread per submitted loop, none for one loop
    with ThreadPoolExecutor(max(n - 1, 1)) as pool:
        rest = [pool.submit(loop_sup) for _ in range(n - 1)]
        acc = loop_sup()
        for part in rest:
            np.maximum(acc, part.result(), out=acc)
    return acc


# ---------------------------------------------------------------------------
# the maximal operator

def carleson_apply(f: Signal, grid: LambdaGrid, d: int, J: int,
                   ring_size: int, fam: BumpFamily = DEFAULT_BUMPS,
                   kernel: str = "partition",
                   radius: Optional[int] = None) -> Signal:
    """Pointwise max over the grid of |(M(lam, .) fhat)^v|.

    kernel="partition" uses the truncated symbol M, whose kernel
    _partition_taps assembles from the dyadic blocks j = 1..J, with reach
    2^(J+1); J < 1 or any other radius raises ValueError.  kernel="sharp"
    uses the exact coefficients e(-lam m^d)/m up to the given radius
    (default 2^(J+1)), which is the radius-matched FFT counterpart of
    carleson_direct_oracle.  Cost is O(|grid| N log N) either way.
    """
    if ring_size < 4 * f.support_width:
        raise ValueError("ring_size must be >= 4x the support width of f")
    if kernel == "partition":
        if radius not in (None, 2 ** (J + 1)):
            raise ValueError(f"the partition kernel reaches 2^(J+1) = "
                             f"{2 ** (J + 1)}, not radius {radius}")
        taps = _partition_taps(J, fam)
    elif kernel == "sharp":
        taps = _sharp_taps(2 ** (J + 1) if radius is None else radius)
    else:
        raise ValueError("kernel must be 'partition' or 'sharp'")
    acc = _modulated_sup(f, grid.points, taps, d, ring_size)
    return Signal(0, acc.astype(complex))


def carleson_direct_oracle(f: Signal, grid: LambdaGrid, d: int,
                           M_radius: int, ring_size: int) -> Signal:
    """Direct-convolution reference with the exact kernel e(-lam m^d)/m.

    O(|grid| N M_radius); no bump partition, no FFT.  Used to bound the
    partition discrepancy and to validate the FFT path.
    """
    ring = _embed_on_ring(f, ring_size)
    acc = np.zeros(ring_size)
    ms = np.concatenate([np.arange(-M_radius, 0), np.arange(1, M_radius + 1)])
    for lam in grid.points:
        coeff = np.exp(-2j * np.pi * _phase(lam, ms, d)) / ms
        out = np.zeros(ring_size, dtype=complex)
        for m, c in zip(ms, coeff):
            out += c * np.roll(ring, int(m))
        np.maximum(acc, np.abs(out), out=acc)
    return Signal(0, acc.astype(complex))


# ---------------------------------------------------------------------------
# the TT* kernel's arithmetic factor

def ttstar_frequency_factor(aq: tuple[int, int], apqp: tuple[int, int],
                            w: int, d: int) -> complex:
    """The arithmetic factor of the reduced TT* kernel at offset w = x - u.

    At torus points aq = (a, q), apqp = (a', q') in lowest terms, 0 <= a < q
    (the reduction to Q = gcd(q, q') assumes both), this is
        sum_{c mod Q} R(a/q, c/Q) conj(R(a'/q', c/Q)) e(c w / Q),
    where R(a/q, c/Q) is the complete normalized sum at frequency c/Q.
    The vanishing of R off divisors and the frequency separation of the
    smooth windows phi_s collapse the TT* kernel at scale s to this
    factor times the window autocorrelation phi_s*phi_s(x-u).
    """
    for a, q in (aq, apqp):
        if not (0 <= a < q and math.gcd(a, q) == 1):
            raise ValueError(f"need {a}/{q} in lowest terms, 0 <= a < q")
    (a, q), (ap, qp) = aq, apqp
    Q = math.gcd(q, qp)
    c = np.arange(Q)
    r1 = _complete_sum_row(a, q, d)[c * (q // Q)]
    r2 = _complete_sum_row(ap, qp, d)[c * (qp // Q)]
    # w mod Q first: the factor depends on it alone, and c w stays exact
    return complex((r1 * np.conj(r2)
                    * np.exp(2j * np.pi * c * (w % Q) / Q)).sum())


# ---------------------------------------------------------------------------
# variation and oscillation

def r_variation(seqs, r: float):
    """sup over increasing subsequences of the l^r norm of differences.

    seqs is one sequence, which gives a float, or a (rows, n) stack of
    them, which gives one value per row.
    r = inf returns the diameter.  Dynamic programming over endpoint
    indices, for every row at once: best[:, i] is the largest sum of r-th
    powers over paths ending at i; O(n^2) per row.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a = np.asarray(seqs, dtype=complex)
    stack = np.atleast_2d(a)
    n = stack.shape[1]
    if n == 0:
        raise ValueError("sequence must be nonempty")
    # diff[:, i, k] = |a_k - a_i|
    diff = np.abs(stack[:, None, :] - stack[:, :, None])
    if math.isinf(r):
        out = diff.max(axis=(1, 2))
    else:
        best = np.zeros(stack.shape)
        for i in range(1, n):
            best[:, i] = (best[:, :i] + diff[:, :i, i] ** r).max(axis=1)
        out = best.max(axis=1) ** (1.0 / r)
    return float(out[0]) if a.ndim == 1 else out


def oscillation_sum(f: Signal, intervals: Sequence[tuple[float, float, float]],
                    grid_per_interval: int, d: int, J: int,
                    ring_size: int) -> float:
    """sum_i || sup over the grid in I_i of |C_lam f - C_(anchor_i) f| ||^2.

    Each interval is (lo, hi, anchor) with lo < anchor <= hi, and the
    intervals must be strictly decreasing (the dyadic schedule runs
    toward lambda = 0).  C_lam is the truncated modulated Hilbert
    transform with kernel radius min(2^(J+1), ring_size/4), applied
    circularly on purpose: it models the rotation x -> x+1 on Z/N, a
    measure-preserving system.  The per-interval grid is geometric
    from hi toward lo; a grid point equal to its interval's anchor is
    not transformed, as its difference from the anchor is exactly 0.
    """
    if grid_per_interval < 1:
        raise ValueError("grid_per_interval must be >= 1")
    g = grid_per_interval
    passes = []
    prev_lo = None
    for lo, hi, anchor in intervals:
        if not (0.0 <= lo < hi and lo < anchor <= hi):
            raise ValueError("malformed interval (lo, hi, anchor)")
        if prev_lo is not None and hi > prev_lo:
            raise ValueError("intervals must be decreasing and disjoint")
        prev_lo = lo
        # each interval is one pass over [anchor, grid...]
        grid = [hi * (lo / hi) ** (t / g) if lo > 0 else hi * 0.5 ** t
                for t in range(g)]
        passes.append([anchor] + [lam for lam in grid if lam != anchor])
    taps = _sharp_taps(min(2 ** (J + 1), ring_size // 4))
    outputs = _modulated_outputs(dft(_embed_on_ring(f, ring_size)),
                                 itertools.chain(*passes), taps, d)
    total = 0.0
    for lams in passes:
        base = next(outputs)
        sup = np.zeros(ring_size)
        for _ in lams[1:]:
            np.maximum(sup, np.abs(next(outputs) - base), out=sup)
        total += float((sup ** 2).sum())
    return total
