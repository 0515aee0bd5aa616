"""Bump families and oscillatory-integral evaluation.

Concrete realizations of the cutoffs (eta, psi, chi, zeta, xi0), the
continuous multiplier block H_j, the windowed oscillatory symbol G with
its stationary-phase split (critical points, the conjugate-phase constant
and signed power), and the square function built from G.

The base cutoff eta is a polynomial smoothstep (default degree 9, C^4):
eta = 1 on [-1,1], 0 outside [-2,2], monotone on the transition bands.
Everything else is derived from eta, so smoothness and support constants
are certified by construction rather than assumed.

Every symbol integral here has the polynomial phase -(X t^d + Y t) and an
amplitude that is smooth between breakpoints known in advance.  Above
LEVIN_MIN_CYCLES of phase variation they use adaptive Levin collocation,
whose cost does not grow with the frequency; below it, the adaptive
Gauss-Kronrod quadrature of oscillatory_quadrature, which is also the
reference the Levin path is tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi


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
        # fused form of (eta(t) - eta(2t))/t: both smoothsteps clip to
        # zero for |t| <= 1/2, so the quotient needs no support bookkeeping
        arr = np.asarray(t, dtype=float)
        a = np.abs(arr)
        num = self._smoothstep(2.0 * a - 1.0)
        num -= self._smoothstep(a - 1.0)
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
# adaptive oscillatory quadrature

# 15-point Kronrod extension of 7-point Gauss-Legendre; the Gauss nodes
# sit at the odd indices, so one evaluation pass feeds both rules.
_XGK_HALF = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0])
_WGK_HALF = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728])
_WG_HALF = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469])
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


def _panel_batch(g, n_out: int, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod integrals and error estimates over each [lo_i, hi_i].

    g maps a flat node array to an (n_out, nodes) stack of integrand
    values sharing the same panels; one vectorized evaluation at the 15
    Kronrod nodes yields the K15 result, the embedded G7 result, and a
    scaled error estimate in the style of classic automatic integrators:
    the raw |K15 - G7| gap is damped through the panel's total variation
    proxy, so nearly-exact panels are not refined just because the gap
    sits above round-off.
    """
    n = len(lo)
    res_k = np.empty((n_out, n), dtype=complex)
    err = np.empty((n_out, n))
    # chunked so the (panels x 15) node matrices stay cache-sized
    step = 1 << 12
    for start in range(0, n, step):
        sl = slice(start, min(start + step, n))
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        t = mid[:, None] + half[:, None] * _XGK[None, :]
        vals = g(t.ravel()).reshape((n_out,) + t.shape)
        rk = (vals @ _WGK) * half
        rg = (vals @ _WG) * half
        mean = rk / np.where(half == 0.0, 1.0, 2.0 * half)
        resasc = (np.abs(vals - mean[..., None]) @ _WGK) * half
        raw = np.abs(rk - rg)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
        res_k[:, sl] = rk
        err[:, sl] = np.where(resasc > 0.0, scaled, raw)
    return res_k, err


def _adaptive_oscillatory(phase, g, n_out: int, support: tuple[float, float],
                          tol: float, panel_budget: int) -> np.ndarray:
    """Shared-panel adaptive core behind oscillatory_quadrature.

    Integrates the n_out stacked integrands produced by g over [a, b] on
    one common panel layout, refining until every component meets the
    absolute tolerance.  On budget exhaustion raises QuadratureError
    whose estimate is the length-n_out vector achieved so far.
    """
    a, b = float(support[0]), float(support[1])
    if not b > a:
        return np.zeros(n_out, dtype=complex)

    span = b - a
    # estimated |phase'| on a midpoint grid; fine enough for the smooth
    # polynomial phases used here
    m = 2048
    cell = span / m
    mids = a + (np.arange(m) + 0.5) * cell
    h = span * 1e-7
    dphi = np.abs(np.asarray(phase(mids + h)) - np.asarray(phase(mids - h))) / (2 * h)
    cycles = np.concatenate([[0.0], np.cumsum(dphi * cell)])
    total_cycles = cycles[-1]

    n_osc = int(math.ceil(total_cycles * 4.0))
    budget_hit = False
    if n_osc > panel_budget:
        n_osc = panel_budget
        budget_hit = True
    if n_osc > 0:
        targets = np.linspace(0.0, total_cycles, n_osc + 1)
        osc_edges = np.interp(targets, cycles, np.concatenate([[a], mids + 0.5 * cell]))
    else:
        osc_edges = np.array([a, b])
    base_edges = np.linspace(a, b, 17)
    edges = np.unique(np.concatenate([osc_edges, base_edges, [a, b]]))

    lo_e, hi_e = edges[:-1], edges[1:]
    vals, err = _panel_batch(g, n_out, lo_e, hi_e)

    if budget_hit:
        raise QuadratureError(
            "initial quarter-period subdivision exceeds the panel budget",
            vals.sum(axis=1))

    def batch(lo, hi):
        return _panel_batch(g, n_out, lo, hi)

    return _bisect_to_tolerance(batch, lo_e, hi_e, vals, err, tol,
                                panel_budget)


def _bisect_to_tolerance(batch, lo_e: np.ndarray, hi_e: np.ndarray,
                         vals: np.ndarray, err: np.ndarray, tol: float,
                         panel_budget: int) -> np.ndarray:
    """Bisect failing panels until the summed error estimates meet tol.

    batch(lo, hi) returns the (n_out, panels) integrals and error
    estimates over [lo_i, hi_i]; vals and err hold them for the panels
    already laid out, which count against panel_budget.  On exhaustion
    raises QuadratureError whose estimate is the length-n_out vector
    achieved so far.
    """
    created = len(lo_e)
    while err.sum(axis=1).max() > tol:
        thresh = tol / (2.0 * len(lo_e))
        bad = (err > thresh).any(axis=0)
        if not bad.any():
            bad = err.max(axis=0) == err.max()
        if created + int(bad.sum()) > panel_budget:
            raise QuadratureError(
                "panel budget exhausted before reaching tolerance",
                vals.sum(axis=1))
        ba, bb = lo_e[bad], hi_e[bad]
        mid = 0.5 * (ba + bb)
        if not ((ba < mid) & (mid < bb)).all():
            raise QuadratureError(
                "panels bisected to the floating-point resolution before "
                "reaching tolerance", vals.sum(axis=1))
        new_lo = np.concatenate([ba, mid])
        new_hi = np.concatenate([mid, bb])
        new_vals, new_err = batch(new_lo, new_hi)
        keep = ~bad
        lo_e = np.concatenate([lo_e[keep], new_lo])
        hi_e = np.concatenate([hi_e[keep], new_hi])
        vals = np.concatenate([vals[:, keep], new_vals], axis=1)
        err = np.concatenate([err[:, keep], new_err], axis=1)
        created += int(bad.sum())
    return vals.sum(axis=1)


def _oscillating_factor(phase, t):
    """e(phase(t)) evaluated in one pass."""
    ph = (2.0 * np.pi) * np.asarray(phase(t))
    out = np.empty(ph.shape, dtype=complex)
    np.cos(ph, out=out.real)
    np.sin(ph, out=out.imag)
    return out


def oscillatory_quadrature(phase: Callable, amplitude: Callable,
                           support: tuple[float, float], tol: float = 1e-10,
                           panel_budget: int = 2 ** 18) -> complex:
    """Evaluate int e(phase(t)) amplitude(t) dt over [a, b] adaptively.

    Panels are first laid out so that no panel spans more than a quarter
    of the local oscillation period (the period is estimated from
    |phase'| by centered differences on a fine midpoint grid), then
    refined by bisection wherever the embedded Gauss-Kronrod 7/15 error
    estimate indicates the absolute error budget is not yet met.

    Both callables must accept numpy arrays.  Raises QuadratureError,
    carrying the achieved estimate, if the panel budget is exhausted.
    This is the reference the faster symbol paths below are tested
    against.
    """
    def g(t):
        out = _oscillating_factor(phase, t)
        out *= np.asarray(amplitude(t))
        return out[None, :]

    try:
        res = _adaptive_oscillatory(phase, g, 1, support, tol, panel_budget)
    except QuadratureError as exc:
        raise QuadratureError(str(exc), complex(exc.estimate[0])) from None
    return complex(res[0])


# ---------------------------------------------------------------------------
# adaptive Levin quadrature for polynomial phases

def _chebyshev(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points cos(pi k / n), k = 0..n (n even), their differentiation
    matrix and their Clenshaw-Curtis weights on [-1, 1]."""
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
    return x, diff, weights


# 17 Chebyshev points per panel, index 0 at the right end.  The
# even-indexed 9 form the nested rule; the gap between the 17-point and
# the 9-point results is the error estimate.  Each rule is
# (differentiation matrix, Clenshaw-Curtis weights, stride into the 17).
_CHEB_X, _D17, _W17 = _chebyshev(16)
_NESTED_RULES = ((_D17, _W17, 1), (*_chebyshev(8)[1:], 2))
_LEVIN_CHUNK = 1 << 10
# A panel on which the phase turns through fewer cycles than this is
# integrated by Clenshaw-Curtis on the same points: the 17 points resolve
# e(phase) there, while the collocation matrix, nilpotent differentiation
# plus a small diagonal, is near singular.
_LEVIN_MIN_TURNS = 1.0

# Phase variation int |phase'| over supp psi, in cycles, above which the
# symbol integrals use the Levin core.  Below it quarter-period
# Gauss-Kronrod panels are few and cost less than the collocation solves.
LEVIN_MIN_CYCLES = 300.0


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


def _levin_batch(phase: _PolynomialPhase, amplitude, n_out: int,
                 lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levin integrals and error estimates over each [lo_i, hi_i].

    On each panel, collocation at the Chebyshev points solves
    p' + 2 pi i phase' p = a for every amplitude of the stack at once;
    then int e(phase) a = p(hi) e(phase(hi)) - p(lo) e(phase(lo)).  Any
    solution gives the same value, since the homogeneous ones are
    multiples of e(-phase).  Panels of less than _LEVIN_MIN_TURNS cycles
    use Clenshaw-Curtis instead.  The error estimate is the raw gap
    between the 17-point and the nested 9-point results.
    """
    n = len(lo)
    res = np.empty((n_out, n), dtype=complex)
    err = np.empty((n_out, n))
    for start in range(0, n, _LEVIN_CHUNK):
        sl = slice(start, min(start + _LEVIN_CHUNK, n))
        half = 0.5 * (hi[sl] - lo[sl])
        t = 0.5 * (lo[sl] + hi[sl])[:, None] + half[:, None] * _CHEB_X
        amp = np.asarray(amplitude(t.ravel())).reshape((n_out,) + t.shape)
        dphi = phase.derivative(t)
        slow = 2.0 * half * np.abs(dphi).max(axis=1) < _LEVIN_MIN_TURNS
        fast = ~slow
        both = np.empty((2, n_out, len(half)), dtype=complex)
        if slow.any():
            f = amp[:, slow] * _oscillating_factor(phase, t[slow])
            for out, (_, wts, step) in zip(both, _NESTED_RULES):
                out[:, slow] = (f[..., ::step] @ wts) * half[slow]
        if fast.any():
            h = half[fast]
            rhs = amp[:, fast].transpose(1, 2, 0) * h[:, None, None]
            w = (2j * np.pi) * h[:, None] * dphi[fast]
            e_hi = _oscillating_factor(phase, hi[sl][fast])[:, None]
            e_lo = _oscillating_factor(phase, lo[sl][fast])[:, None]
            for out, (diff, _, step) in zip(both, _NESTED_RULES):
                idx = np.arange(len(diff))
                mat = np.broadcast_to(diff, (len(h),) + diff.shape).astype(complex)
                mat[:, idx, idx] += w[:, ::step]
                p = np.linalg.solve(mat, rhs[:, ::step])
                out[:, fast] = (p[:, 0] * e_hi - p[:, -1] * e_lo).T
        res[:, sl] = both[0]
        err[:, sl] = np.abs(both[0] - both[1])
    return res, err


def _adaptive_levin(phase: _PolynomialPhase, amplitude, n_out: int,
                    edges: list[np.ndarray], tol: float,
                    panel_budget: int) -> np.ndarray:
    """Integrate e(phase) times the n_out stacked amplitudes, adaptively.

    edges holds one sorted breakpoint array per interval of the domain;
    the amplitudes must be smooth between breakpoints and phase' may
    vanish only at them.  Failing panels are bisected as in the
    Gauss-Kronrod core; the cost depends on the amplitudes' smoothness
    and on the critical points, not on the frequency.
    """
    lo = np.concatenate([e[:-1] for e in edges])
    hi = np.concatenate([e[1:] for e in edges])

    def batch(lo, hi):
        return _levin_batch(phase, amplitude, n_out, lo, hi)

    vals, err = batch(lo, hi)
    return _bisect_to_tolerance(batch, lo, hi, vals, err, tol, panel_budget)


# supp psi, and the points where psi's smoothstep pieces meet inside it
_PSI_SUPPORT = ((-2.0, -0.5), (0.5, 2.0))
_PSI_JOINTS = (-1.0, 1.0)


def _psi_support_quadrature(phase: _PolynomialPhase, fam: BumpFamily,
                            tol: float, panel_budget: int, weights=None,
                            n_out: int = 1, breakpoints=(),
                            factor: complex = 1.0) -> np.ndarray:
    """factor times the integrals of e(phase) psi w_i over supp psi.

    weights maps a node array to an (n_out, nodes) real stack, or is
    None for the single weight 1; the common factor is evaluated once per
    node and shared, so the cost of n_out integrals is close to the cost
    of one.  Above LEVIN_MIN_CYCLES of phase variation the Levin core
    integrates on panels broken at psi's joints, the critical points and
    the given breakpoints, where the weights may lose smoothness; below
    it the Gauss-Kronrod core does, on each half of the support.  A
    QuadratureError carries factor times the estimate over all of supp
    psi, so it estimates the value a successful call would return.
    """
    def stack(base, t):
        return base[None, :] if weights is None else base[None, :] * weights(t)

    if sum(phase.variation(a, b) for a, b in _PSI_SUPPORT) > LEVIN_MIN_CYCLES:
        cuts = (*_PSI_JOINTS, *phase.critical_points, *breakpoints)
        edges = [np.unique([a, b, *(c for c in cuts if a < c < b)])
                 for a, b in _PSI_SUPPORT]
        parts = [lambda: _adaptive_levin(phase, lambda t: stack(fam.psi(t), t),
                                         n_out, edges, tol, panel_budget)]
    else:
        def g(t):
            return stack(_oscillating_factor(phase, t) * fam.psi(t), t)

        parts = [lambda ab=ab: _adaptive_oscillatory(phase, g, n_out, ab,
                                                     tol / 2, panel_budget)
                 for ab in _PSI_SUPPORT]

    total = np.zeros(n_out, dtype=complex)
    failure = None
    for part in parts:
        try:
            total += part()
        except QuadratureError as exc:
            # go on to the other half, so the estimate covers supp psi
            failure = failure or exc
            total += exc.estimate
    if failure is not None:
        raise QuadratureError(str(failure), factor * total) from None
    return factor * total


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


def critical_point(xi: float, ctx: PhaseContext) -> list[float]:
    """Real solutions t of d lam 2^(k(d-1)) t^(d-1) = -xi.

    One root for d even; for d odd, two roots when xi < 0 and none when
    xi > 0.  xi = 0 is degenerate and yields the empty list with a
    diagnostic warning.
    """
    if xi == 0.0:
        warnings.warn("critical_point: xi = 0 is degenerate; no roots returned")
        return []
    return list(_g_phase(ctx, xi).critical_points)


def conjugate_phase_constant(d: int) -> float:
    """The constant c_d = -((d+1)/d) * d^(-1/(d-1)) in the conjugate phase.

    The local (critical point) part of the split carries the oscillation
    c_d * lam^(-1/(d-1)) * xi^(d/(d-1)) with the signed-power convention
    of signed_power.
    """
    return -((d + 1.0) / d) * d ** (-1.0 / (d - 1.0))


def signed_power(xi: float, d: int) -> float:
    """xi^(d/(d-1)): signed power for d even, absolute power for d odd."""
    p = d / (d - 1.0)
    if d % 2 == 0:
        return math.copysign(abs(xi) ** p, xi)
    return abs(xi) ** p


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
    if not roots:
        whole = complex(_psi_support_quadrature(phase, fam, tol, panel_budget,
                                                factor=zf)[0])
        return (whole, 0j, None if d_even else 0j)

    # the excised part and the per-root windows share the phase, hence
    # the same panel layout; stacking them shares the node evaluations
    def weight_stack(t):
        windows = [np.asarray(fam.xi0(t - r)) for r in roots]
        return np.stack([1.0 - sum(windows)] + windows)

    # xi0(s) = eta(8 d s) has its smoothstep joints at |s| = 1/(8d), 2/(8d)
    window_joints = [r + u / (8.0 * fam.d) for r in roots
                     for u in (-2.0, -1.0, 1.0, 2.0)]
    vals = _psi_support_quadrature(phase, fam, tol, panel_budget,
                                   weight_stack, 1 + len(roots),
                                   window_joints, factor=zf)
    a_hat = complex(vals[0])
    b_parts = [complex(v) for v in vals[1:]]
    if d_even:
        return (a_hat, b_parts[0], None)
    # for d odd the two roots are +/- r with r > 0; the plus part is the
    # window at the larger root
    return (a_hat, b_parts[0], b_parts[1])


# ---------------------------------------------------------------------------
# square function

def square_function_S_G(f, l: int, k_range: tuple[int, int],
                        lambda_grid_per_slab: int, d: int,
                        fam: BumpFamily = DEFAULT_BUMPS, tol: float = 1e-8):
    """Discrete square function built from the windowed symbols.

    For each k in k_range, integrates |G_lam * f|^2 over the dyadic slab
    of lam values by the trapezoid rule on a lambda grid, weights the
    slab by 2^(dk), sums over k and takes a pointwise square root.
    Convolutions run on the smallest power-of-two ring of at least 4x
    the support of f.
    """
    from .spectral import Signal, apply_multiplier

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
