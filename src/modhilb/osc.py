"""Bump families and oscillatory-integral evaluation.

Concrete realizations of the cutoffs (eta, psi, chi, zeta, xi0), the
continuous multiplier block H_j, and the windowed oscillatory symbol G
with its stationary-phase split at the critical points.

The base cutoff eta is a polynomial smoothstep (default degree 9, C^4):
eta = 1 on [-1,1], 0 outside [-2,2], monotone on the transition bands.
Everything else is derived from eta, so smoothness and support constants
are certified by construction rather than assumed.

Every symbol integral here has the polynomial phase -(X t^d + Y t) and an
amplitude that is smooth between breakpoints known in advance.  All of
them run through one core, adaptive Levin collocation over both halves of
supp psi, whose cost does not grow with the frequency, which falls back
to Clenshaw-Curtis on panels of less than one turn and which reads its
error estimate from Chebyshev tails.  Its panels start graded toward each
stationary point of the phase, from a width of half a cycle there,
doubling outward, so bisection rarely finds them one round at a time.

oscillatory_quadrature is the one slow reference that core is tested
against: composite 20-point Gauss-Legendre on equal panels, about one per
cycle of the exact phase variation, with no tolerance or budget to tune.
Its nodes and phase are in double-double and its panels are taken in
bounded passes.  No production path calls it.  It lives here rather than
among the tests because the benchmark's tracer wraps it by name on this
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature exhausts its panel budget.

    Carries the best estimate achieved so far in the ``estimate``
    attribute so callers can decide whether to accept it.
    """

    def __init__(self, message: str, estimate: complex):
        super().__init__(message)
        self.estimate = estimate


class BumpFamily:
    """The smooth cutoff family used throughout.

    Members (all even unless noted):

    - eta:   1 on [-1,1], 0 outside [-2,2]
    - psi:   (eta(t) - eta(2t))/t, odd, supported on 1/2 <= |t| <= 2;
             theta(t) = t psi(t) is an annular partition unit,
             sum_j theta(2^j t) = 1 for t != 0
    - chi:   1 on |xi| <= c_chi, 0 outside |xi| <= 2*c_chi
    - zeta:  fat annulus, 1 on 1/8 <= |xi| <= 8, supported in [1/16, 16]
    - xi0:   narrow bump of radius 1/(4d) around 0 (critical-point excision)
    """

    def __init__(self, d: int = 2, smoothness_order: int = 4,
                 c_chi: Optional[float] = None):
        if smoothness_order < 2:
            raise ValueError("smoothness_order must be >= 2")
        if d < 2:
            raise ValueError("d must be >= 2")
        self.d = d
        self.smoothness_order = smoothness_order
        self.c_chi = float(c_chi) if c_chi is not None else 1.0 / (8 * d)
        n = smoothness_order
        # smoothstep coefficients for S_n(u) = u^(n+1) * sum_k c_k u^k
        self._step_coeffs = np.array(
            [math.comb(n + k, k) * math.comb(2 * n + 1, n - k) * (-1) ** k
             for k in range(n + 1)], dtype=float)

    def _smoothstep(self, u: np.ndarray) -> np.ndarray:
        """S_n(u) on [0,1]: 0 at 0, 1 at 1, C^n when extended by constants."""
        u = np.clip(u, 0.0, 1.0)
        c = self._step_coeffs
        poly = c[-1] * u
        poly += c[-2]
        for k in range(len(c) - 3, -1, -1):
            poly *= u
            poly += c[k]
        # u^(n+1) by plain multiplies; pow() per element is far slower
        power = u * u
        for _ in range(self.smoothness_order - 1):
            power *= u
        poly *= power
        return poly

    def eta(self, x):
        arr = np.asarray(x, dtype=float)
        res = 1.0 - self._smoothstep(np.abs(arr) - 1.0)
        return float(res) if arr.ndim == 0 else res

    def psi(self, t):
        # (eta(t) - eta(2t))/t from one smoothstep: for |t| < 1 eta(t) = 1
        # and the numerator is S(2|t| - 1), which clips to zero for |t| <=
        # 1/2; for |t| >= 1 eta(2t) = 1 - S(1) = 0 and it is 1 - S(|t| - 1)
        arr = np.asarray(t, dtype=float)
        a = np.abs(arr)
        inner = a < 1.0
        step = self._smoothstep(np.where(inner, 2.0 * a - 1.0, a - 1.0))
        num = np.where(inner, step, 1.0 - step)
        res = np.divide(num, arr, out=np.zeros_like(num), where=arr != 0.0)
        return float(res) if arr.ndim == 0 else res

    def chi(self, xi):
        arr = np.asarray(xi, dtype=float)
        res = np.asarray(self.eta(arr / self.c_chi))
        return float(res) if arr.ndim == 0 else res

    def zeta(self, xi):
        arr = np.asarray(xi, dtype=float)
        res = np.asarray(self.eta(arr / 8.0)) - np.asarray(self.eta(16.0 * arr))
        return float(res) if arr.ndim == 0 else res

    def xi0(self, s):
        """Excision bump: 1 for |s| <= 1/(8d), 0 for |s| >= 1/(4d)."""
        arr = np.asarray(s, dtype=float)
        res = np.asarray(self.eta(8.0 * self.d * arr))
        return float(res) if arr.ndim == 0 else res


DEFAULT_BUMPS = BumpFamily(d=2)


def psi_j(t, j: int, fam: BumpFamily = DEFAULT_BUMPS):
    """The dilated block 2^(-j) psi(2^(-j) t), supported 2^(j-1) <= |t| <= 2^(j+1)."""
    scale = math.ldexp(1.0, -j)
    arr = np.asarray(t, dtype=float)
    res = scale * np.asarray(fam.psi(scale * arr))
    return float(res) if arr.ndim == 0 else res


# ---------------------------------------------------------------------------
# adaptive Levin quadrature for polynomial phases

def _oriented_sum(lo: np.ndarray, hi: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The integral over the union of the panels, from their (rows,
    panels) oriented integrals: a panel with lo > hi ran backward, so it
    counts with the opposite sign.  Forward and backward panels are summed
    apart, so mirror layouts of equal values cancel exactly."""
    back = lo > hi
    return vals[:, ~back].sum(axis=1) - vals[:, back].sum(axis=1)


def _bisect_to_tolerance(phase: _PolynomialPhase, amplitude, lo_e: np.ndarray,
                         hi_e: np.ndarray, tol: float,
                         panel_budget: int) -> np.ndarray:
    """Levin integrals over the panels [lo_i, hi_i], bisecting failing
    panels until the summed error estimates meet tol.

    A panel may run backward (lo_i > hi_i); the panels laid out count
    against panel_budget.  Returns one integral per row of the amplitude
    stack over the union of the panels (_oriented_sum).  On exhaustion
    raises QuadratureError whose estimate is that integral so far.
    """
    vals, err = _levin_batch(phase, amplitude, lo_e, hi_e)
    created = len(lo_e)
    while err.sum(axis=1).max() > tol:
        thresh = tol / (2.0 * len(lo_e))
        bad = (err > thresh).any(axis=0)
        if not bad.any():
            bad = err.max(axis=0) == err.max()
        if created + int(bad.sum()) > panel_budget:
            raise QuadratureError(
                "panel budget exhausted before reaching tolerance",
                _oriented_sum(lo_e, hi_e, vals))
        ba, bb = lo_e[bad], hi_e[bad]
        mid = 0.5 * (ba + bb)
        if not ((ba != mid) & (mid != bb)).all():
            raise QuadratureError(
                "panels bisected to the floating-point resolution before "
                "reaching tolerance", _oriented_sum(lo_e, hi_e, vals))
        new_lo = np.concatenate([ba, mid])
        new_hi = np.concatenate([mid, bb])
        new_vals, new_err = _levin_batch(phase, amplitude, new_lo, new_hi)
        keep = ~bad
        lo_e = np.concatenate([lo_e[keep], new_lo])
        hi_e = np.concatenate([hi_e[keep], new_hi])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        created += int(bad.sum())
    return _oriented_sum(lo_e, hi_e, vals)


def _oscillating_factor(phase, t):
    """e(phase(t)) evaluated in one pass."""
    ph = (2.0 * np.pi) * np.asarray(phase(t))
    out = np.empty(ph.shape, dtype=complex)
    np.cos(ph, out=out.real)
    np.sin(ph, out=out.imag)
    return out


def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The points cos(pi k / n), k = 0..n (n even), their differentiation
    matrix, Clenshaw-Curtis weights on [-1, 1], and the rows that take
    values there to the coefficients of T_(n-2), T_(n-1), T_n."""
    theta = np.pi * np.arange(n + 1) / n
    x = np.cos(theta)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    diff = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    diff -= np.diag(diff.sum(axis=1))
    v = np.ones(n - 1)
    for k in range(1, n // 2):
        v -= 2.0 * np.cos(2 * k * theta[1:-1]) / (4 * k * k - 1)
    v -= np.cos(n * theta[1:-1]) / (n * n - 1)
    weights = np.concatenate([[1.0 / (n * n - 1)], 2.0 * v / n,
                              [1.0 / (n * n - 1)]])
    # a cosine transform, halved at both ends, and for T_n
    tail = (2.0 / n) * np.cos(np.arange(n - 2, n + 1)[:, None] * theta) / abs(c)
    tail[-1] *= 0.5
    return x, diff, weights, tail


# 17 Chebyshev points per panel, index 0 at the right end
_CHEB_X, _D17, _W17, _CHEB_TAIL = _chebyshev(16)
_LEVIN_CHUNK = 1 << 10
# A panel on which the phase turns through fewer cycles than this is
# integrated by Clenshaw-Curtis on the same points: the 17 points resolve
# e(phase) there, while the collocation matrix, nilpotent differentiation
# plus a small diagonal, is near singular.
_LEVIN_MIN_TURNS = 1.0

# Phase variation int |phase'| over supp psi, in cycles, up to which each
# half of supp psi starts from equal panels as well as its cuts.  Below
# it most panels are Clenshaw-Curtis ones, and starting from the cuts
# alone costs several rounds of bisection; above it the equal panels are
# more than the oscillation needs, and cost time.
_EQUAL_PANEL_CYCLES = 300.0


def _equal_panels(tol: float) -> int:
    """Equal panels per half of supp psi below _EQUAL_PANEL_CYCLES.

    16 down to tol = 1e-8, then growing like tol^(-1/10) (41 at 1e-12),
    as sized for the gap to a nested 9-point rule, an earlier estimate;
    from 16 per half, a third of the major-box H_j calls at tol 1e-12
    still take a second batch.  A tol below 1e-16, or <= 0, cannot be met
    any better than 1e-16 and starts as 1e-16 does.
    """
    return max(16, math.ceil(16.0 * (1e-8 / max(tol, 1e-16)) ** 0.1))


@dataclass(frozen=True)
class _PolynomialPhase:
    """The phase -(X t^d + Y t) of every symbol integral in this module."""

    X: float
    Y: float
    d: int

    def __call__(self, t):
        # repeated multiplies: the power ufunc dominates otherwise
        p = t * t
        for _ in range(self.d - 2):
            p = p * t
        return -(self.X * p + self.Y * t)

    def derivative(self, t):
        p = t
        for _ in range(self.d - 2):
            p = p * t
        return -(self.d * self.X * p + self.Y)

    def second_derivative(self, t: float) -> float:
        return -(self.d * (self.d - 1) * self.X) * t ** (self.d - 2)

    @cached_property
    def critical_points(self) -> list[float]:
        """The real roots of phase': one for d even; for d odd two, the
        larger first, or none."""
        if self.X == 0.0:
            return []
        rhs = -self.Y / (self.d * self.X)
        p = self.d - 1
        if self.d % 2 == 0:
            return [math.copysign(abs(rhs) ** (1.0 / p), rhs)]
        if rhs <= 0.0:
            return []
        r = rhs ** (1.0 / p)
        return [r, -r]

    def variation(self, a: float, b: float) -> float:
        """int_a^b |phase'(t)| dt, exact: phase is monotone between critical points."""
        cuts = [a] + sorted(r for r in self.critical_points if a < r < b) + [b]
        vals = [self(c) for c in cuts]
        return sum(abs(v1 - v0) for v0, v1 in zip(vals, vals[1:]))


def _levin_batch(phase: _PolynomialPhase, amplitude, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levin integrals and error estimates over each [lo_i, hi_i], as
    (rows, panels) arrays for the rows of the amplitude stack.

    On each panel, collocation at the 17 Chebyshev points solves
    p' + 2 pi i phase' p = a for every amplitude of the stack at once;
    then int e(phase) a = p(hi) e(phase(hi)) - p(lo) e(phase(lo)).  Any
    solution gives the same value, since the homogeneous ones are
    multiples of e(-phase).  Panels of less than _LEVIN_MIN_TURNS cycles
    use Clenshaw-Curtis instead.  The error estimate is 4 max |c_14..c_16|,
    the top Chebyshev coefficients of what the panel integrates: p, or
    the half-width times a e(phase) on a Clenshaw-Curtis panel.
    """
    n = len(lo)
    res, err = [], []
    for start in range(0, n, _LEVIN_CHUNK):
        sl = slice(start, min(start + _LEVIN_CHUNK, n))
        half = 0.5 * (hi[sl] - lo[sl])
        t = 0.5 * (lo[sl] + hi[sl])[:, None] + half[:, None] * _CHEB_X
        amp = np.asarray(amplitude(t.ravel())).reshape((-1,) + t.shape)
        dphi = phase.derivative(t)
        slow = 2.0 * np.abs(half) * np.abs(dphi).max(axis=1) < _LEVIN_MIN_TURNS
        fast = ~slow
        val = np.empty(amp.shape[:2], dtype=complex)
        # the values whose Chebyshev tail is the estimate
        series = np.empty(amp.shape, dtype=complex)
        if slow.any():
            f = amp[:, slow] * _oscillating_factor(phase, t[slow])
            val[:, slow] = (f * _W17).sum(axis=-1) * half[slow]
            series[:, slow] = f * np.abs(half[slow])[:, None]
        if fast.any():
            h = half[fast]
            mat = np.empty((len(h), 17, 17), dtype=complex)
            mat[:] = _D17
            # the diagonals, through a strided view
            mat.reshape(len(h), 17 * 17)[:, ::18] += (
                (2j * np.pi) * h[:, None] * dphi[fast])
            p = np.linalg.solve(
                mat, amp[:, fast].transpose(1, 2, 0) * h[:, None, None])
            e_hi, e_lo = _oscillating_factor(
                phase, np.stack([hi[sl][fast], lo[sl][fast]]))[..., None]
            val[:, fast] = (p[:, 0] * e_hi - p[:, -1] * e_lo).T
            series[:, fast] = p.transpose(2, 0, 1)
        res.append(val)
        # products summed along the points, not matmuls: no panel's value or
        # estimate may depend on which panels share its chunk
        err.append(4.0 * np.abs(
            (series[..., None, :] * _CHEB_TAIL).sum(axis=-1)).max(axis=-1))
    return np.concatenate(res, axis=1), np.concatenate(err, axis=1)


def _psi_support_quadrature(phase: _PolynomialPhase, fam: BumpFamily,
                            tol: float, panel_budget: int, weights=None,
                            breakpoints=(), factor: complex = 1.0) -> np.ndarray:
    """factor times the integrals of e(phase) psi w_i over supp psi.

    weights maps a node array to an (n, nodes) real stack, or is None for
    the single weight 1; the common factor is evaluated once per node and
    shared, so the cost of n integrals is close to the cost of one.  One
    Levin batch covers both halves of supp psi, and failing panels are
    bisected until the summed error estimates meet tol.  Each half
    starts from panels broken at psi's joints, the critical points and
    the given breakpoints, where the weights may lose smoothness, and at
    or below _EQUAL_PANEL_CYCLES of phase variation from
    _equal_panels(tol) equal panels as well.  Each critical point r with
    phase''(r) != 0 also adds the graded cuts r +- h 2^k, k = 0, 1, ...
    while h 2^k < 3/2 (the length of a half), where h =
    |phase''(r)|^(-1/2) is the distance over which the phase turns half
    a cycle away from r.  Near r the Levin solution
    behaves like amplitude / phase', which has a pole at r, so a panel
    converges only when its width is at most about its distance to r:
    bisection would reach this geometric mesh one batch per level, and
    starting from it saves those rounds.  The weights must be smooth
    between breakpoints, and phase' vanishes only at cuts, so the cost
    depends on the weights' smoothness and on the critical points, not
    on the frequency.  Each half's edges are monotone: the left half is
    laid out as [1/2, 2] with its own cuts reflected, then negated, so
    its panels run backward, and the result is still the integral over
    the half (_oriented_sum).  psi is odd, so for w = 1, an even d and
    Y = 0 each backward panel computes the same oriented integral as its
    mirror, bit for bit, and the result is exactly 0 at every frequency.
    A QuadratureError carries factor times the estimate over all of supp
    psi, so it estimates the value a successful call would return.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    # psi's smoothstep pieces meet at +-1
    cuts = [-1.0, 1.0, *phase.critical_points, *breakpoints]
    # graded cuts r +- h 2^k at each critical point r: the mesh that
    # bisection toward r would reach one round at a time
    for r in phase.critical_points:
        curvature = abs(phase.second_derivative(r))
        if curvature == 0.0:
            continue
        h = curvature ** -0.5
        while h < 1.5:
            cuts += [r - h, r + h]
            h *= 2.0
    start = [0.5, 2.0]
    if phase.variation(-2.0, -0.5) + phase.variation(0.5, 2.0) <= _EQUAL_PANEL_CYCLES:
        start = np.linspace(0.5, 2.0, _equal_panels(tol) + 1)
    right = np.unique([*start, *(c for c in cuts if 0.5 < c < 2.0)])
    left = -np.unique([*start, *(-c for c in cuts if -2.0 < c < -0.5)])
    lo = np.concatenate([left[:-1], right[:-1]])
    hi = np.concatenate([left[1:], right[1:]])

    def amplitude(t):
        base = fam.psi(t)[None, :]
        return base if weights is None else base * weights(t)

    try:
        return factor * _bisect_to_tolerance(phase, amplitude, lo, hi, tol,
                                             panel_budget)
    except QuadratureError as exc:
        raise QuadratureError(str(exc), factor * exc.estimate) from None


# ---------------------------------------------------------------------------
# the slow reference

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


def oscillatory_quadrature(phase: _PolynomialPhase, amplitude: Callable,
                           support: Sequence[float]) -> complex:
    """int e(phase(t)) amplitude(t) dt over [a, b] by composite 20-point
    Gauss-Legendre, with its nodes and its phase in double-double.

    support is (a, c_1, ..., b), sorted, with the amplitude smooth between
    consecutive points.  Each piece [u, v] is cut into
    ceil(phase.variation(u, v)) + 4 equal panels, about one per cycle of
    the phase, where 20 nodes resolve e(phase) far below 1e-15.  In
    plain floats a node t would be off by up to eps |t| and phase(t) by
    eps |phase(t)|, an error of eps times the phase in e(phase(t)).  So
    each panel is [lo, lo + 2 half] with half exact (its edges are within
    a factor 2 of each other), each node lo + half + half x is a
    double-double, and X t^d + Y t is reduced mod 1 before it is
    rounded; e(phase) is then exact to about eps at any frequency.  The
    amplitude is taken at the rounded node, an error of eps |amplitude'|.
    It must accept numpy arrays; one that returns a stack of rows gives
    one integral per row.  Panels are taken 4096 at a time, so memory
    does not grow with the frequency.  It has no tolerance and no
    adaptivity, and no production path calls it: it is the slow
    reference that the Levin core behind the symbol integrals is tested
    against.
    """
    # built per call: numpy.polynomial is imported only when the reference runs
    x, w = np.polynomial.legendre.leggauss(20)
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
    return complex(total) if np.ndim(total) == 0 else total


# ---------------------------------------------------------------------------
# the continuous multiplier block H_j

def H_j(x: float, y: float, j: int, d: int, fam: BumpFamily = DEFAULT_BUMPS,
        tol: float = 1e-10, panel_budget: int = 2 ** 18) -> complex:
    """int e(-x t^d - y t) psi_j(t) dt.

    Computed after the substitution t = 2^j u, which keeps the quadrature
    domain fixed at the support of psi for every j.
    """
    phase = _PolynomialPhase(math.ldexp(float(x), d * j),
                             math.ldexp(float(y), j), d)
    return complex(_psi_support_quadrature(phase, fam, tol, panel_budget)[0])


# ---------------------------------------------------------------------------
# phase geometry and the stationary-phase split

@dataclass(frozen=True)
class PhaseContext:
    """Parameters of the rescaled phase -2^(-l) (lam 2^(kd) t^d + xi 2^k t).

    lam must lie in the dyadic slab [2^(l-dk), 2^(l-dk+1)).  When
    regime_C is supplied, the regime condition k^C >= 2^l is enforced.
    """

    d: int
    k: int
    l: int
    lam: float
    regime_C: Optional[float] = None

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.l < 0:
            raise ValueError("l must be >= 0")
        slab_lo = math.ldexp(1.0, self.l - self.d * self.k)
        if not (slab_lo <= self.lam < 2.0 * slab_lo):
            raise ValueError("lam outside its dyadic slab")
        if self.regime_C is not None:
            if self.k < 1 or self.k ** self.regime_C < math.ldexp(1.0, self.l):
                raise ValueError("regime condition k^C >= 2^l violated")

    @property
    def lam2kd(self) -> float:
        """lam * 2^(kd), always in [2^l, 2^(l+1))."""
        return math.ldexp(self.lam, self.d * self.k)


def _g_phase(ctx: PhaseContext, xi: float) -> _PolynomialPhase:
    return _PolynomialPhase(ctx.lam2kd, math.ldexp(float(xi), ctx.k), ctx.d)


def G_hat_direct(xi: float, ctx: PhaseContext, fam: BumpFamily = DEFAULT_BUMPS,
                 tol: float = 1e-10, panel_budget: int = 2 ** 18) -> complex:
    """The windowed symbol: int e(2^l phi(t, xi)) psi(t) dt * zeta(2^(k-l) xi)."""
    zf = fam.zeta(math.ldexp(float(xi), ctx.k - ctx.l))
    if zf == 0.0:
        return 0j
    phase = _g_phase(ctx, xi)
    return complex(_psi_support_quadrature(phase, fam, tol, panel_budget,
                                           factor=zf)[0])


def stationary_phase_split(xi: float, ctx: PhaseContext,
                           fam: BumpFamily = DEFAULT_BUMPS, tol: float = 1e-10,
                           panel_budget: int = 2 ** 18):
    """Split the windowed symbol into nonstationary and local parts.

    Returns (A_hat, B_hat_plus, B_hat_minus); B_hat_minus is None for d
    even (a second critical point exists only for d odd).  The critical
    points are excised from A_hat by the bump xi0; each B part is the
    integral against the corresponding xi0 window, so

        A_hat + B_hat_plus (+ B_hat_minus) = G_hat_direct(xi)

    exactly, up to quadrature tolerance.  When no critical point exists,
    A_hat is the whole symbol and the B parts vanish.
    """
    d_even = ctx.d % 2 == 0
    zf = fam.zeta(math.ldexp(float(xi), ctx.k - ctx.l))
    if zf == 0.0:
        return (0j, 0j, None if d_even else 0j)
    # zeta vanishes at xi = 0, so the roots here are never degenerate
    phase = _g_phase(ctx, xi)
    roots = phase.critical_points

    # the excised part and the per-root windows share the phase, hence
    # the same panel layout; stacking them shares the node evaluations
    def weight_stack(t):
        windows = [np.asarray(fam.xi0(t - r)) for r in roots]
        return np.stack([np.ones_like(t) - sum(windows)] + windows)

    # xi0(s) = eta(8 d s) has its smoothstep joints at |s| = 1/(8d), 2/(8d)
    window_joints = [r + u / (8.0 * fam.d) for r in roots
                     for u in (-2.0, -1.0, 1.0, 2.0)]
    parts = [complex(v) for v in _psi_support_quadrature(
        phase, fam, tol, panel_budget, weight_stack, window_joints,
        factor=zf)]
    # for d odd the two roots are +/- r with r > 0, the plus part the
    # window at the larger root; with no root the B parts vanish
    parts += [0j] * (3 - len(parts))
    return (parts[0], parts[1], None if d_even else parts[2])
