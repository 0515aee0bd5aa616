"""The benchmark's workloads: seeded op lists, the ops, and their checks.

Every op calls public modhilb functions with every parameter passed
explicitly, and checks its own result against a property from the paper
or an independent oracle.  Inputs come from numpy Philox keyed by the
seed.  Nothing here uses the experiment harness in modhilb.bench or a
private helper of the library, so refactors behind the public functions
cannot silently change a workload.

Import this module only after checkout.use_checkout_source().
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from modhilb import circle, farey, osc, spectral, weyl


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def unit_signal(rng: np.random.Generator, width: int,
                mean_zero: bool = False) -> spectral.Signal:
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    if mean_zero:
        vals -= vals.mean()
    return spectral.Signal(0, vals / np.linalg.norm(vals))


def sorted_grid(rng: np.random.Generator, size: int) -> spectral.LambdaGrid:
    return spectral.LambdaGrid(tuple(np.sort(rng.uniform(0.0, 1.0, size))),
                               provenance="explicit")


def default_family(d: int, smoothness_order: int) -> osc.BumpFamily:
    return osc.BumpFamily(d=d, smoothness_order=smoothness_order,
                          c_chi=1.0 / (8 * d))


def approx_params(fam: osc.BumpFamily) -> circle.ApproxParams:
    return circle.ApproxParams(d=fam.d, epsilon=0.1, kappa=0.05,
                               exponent_C=2.0, prefactor=1.0, fam=fam)


# ---------------------------------------------------------------------------
# independent oracles for the FFT ops (d = 2 only)

_DEKKER = 134217729.0  # 2^27 + 1


def frac_lam_msq(lams, m: np.ndarray) -> np.ndarray:
    """(lam m^2) mod 1 for each lam and each |m| <= 2^12, rounded once.

    Dekker's split writes lam = hi + lo with halves of at most 27 bits;
    with m^2 <= 2^24 both hi m^2 and lo m^2 are exact doubles, so their
    fractional parts are exact and only the final sum rounds.  This is
    independent of the library's extended-precision reduction.
    """
    if np.abs(m).max() > 2 ** 12:
        raise ValueError("|m| must be <= 2^12 for an exact product")
    lams = np.asarray(lams, dtype=float)[:, None]
    c = _DEKKER * lams
    hi = c - (c - lams)
    lo = lams - hi
    msq = (m.astype(np.float64) ** 2)[None, :]
    a = hi * msq
    b = lo * msq
    ph = (a - np.floor(a)) + (b - np.floor(b))
    return ph - np.floor(ph)


def _embed(f: spectral.Signal, ring_size: int) -> np.ndarray:
    ring = np.zeros(ring_size, dtype=complex)
    ring[(f.offset + np.arange(len(f.values))) % ring_size] = f.values
    return ring


def partition_weights(J: int, fam: osc.BumpFamily) -> tuple[np.ndarray, np.ndarray]:
    """(m, W(m)): the partition kernel is W(m) e(-lam m^d), 0 < |m| <= 2^(J+1).

    W sums the dyadic blocks psi_j, j = 1..J; at m = +-1, where every
    block vanishes, the truncated symbol carries the exact term 1/m.
    """
    pos = np.arange(1, 2 ** (J + 1) + 1)
    m = np.concatenate([-pos[::-1], pos])
    w = sum(np.asarray(osc.psi_j(m.astype(float), j, fam)) for j in range(1, J + 1))
    w[np.abs(m) == 1] = 1.0 / m[np.abs(m) == 1]
    return m, w


def oscillation_sum_oracle(f: spectral.Signal, intervals, g: int, J: int,
                           ring_size: int) -> float:
    """The oscillation sum for d = 2, recomputed with batched numpy FFTs."""
    radius = min(2 ** (J + 1), ring_size // 4)
    pos = np.arange(1, radius + 1)
    m = np.concatenate([-pos[::-1], pos])
    fhat = np.fft.fft(_embed(f, ring_size))
    total = 0.0
    for lo, hi, anchor in intervals:
        lams = [anchor] + [hi * (lo / hi) ** (t / g) for t in range(g)]
        ker = np.zeros((len(lams), ring_size), dtype=complex)
        ker[:, m % ring_size] = np.exp(-2j * np.pi * frac_lam_msq(lams, m)) / m
        out = np.fft.ifft(fhat * np.fft.fft(ker, axis=1), axis=1)
        sup = np.abs(out[1:] - out[0]).max(axis=0)
        total += float((sup ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# ops: run() calls the library and nothing else; check() judges the result

SPLIT_TOL_FACTOR = 10.0   # acceptance 08: |A + B+ + B- - direct| < 10 tol
FFT_TOL = 1e-7            # FFT ops against the oracles above
MAJOR_BOX_TOL = 1e-6      # |M_j - S H_j| on a major box


@dataclass(frozen=True)
class StationaryPhaseOp:
    xi: float
    ctx: osc.PhaseContext
    fam: osc.BumpFamily
    tol: float
    budget: int

    @property
    def label(self) -> str:
        return f"split-l{self.ctx.l}-d{self.ctx.d}"

    def run(self):
        direct = osc.G_hat_direct(self.xi, self.ctx, self.fam, self.tol,
                                  self.budget)
        split = osc.stationary_phase_split(self.xi, self.ctx, self.fam,
                                           self.tol, self.budget)
        return (direct,) + tuple(split)

    def check(self, result) -> bool:
        direct, a_hat, b_plus, b_minus = result
        if (b_minus is None) != (self.ctx.d % 2 == 0):
            return False
        total = a_hat + b_plus + (b_minus or 0j)
        return bool(abs(total - direct) < SPLIT_TOL_FACTOR * self.tol)


@dataclass(frozen=True)
class RestrictedSupOp:
    """The X_j-restricted sup at a low and a high j (acceptance 10)."""

    f: spectral.Signal
    grid: spectral.LambdaGrid
    j_lo: int
    j_hi: int
    p: circle.ApproxParams
    ring_size: int
    label = "restricted-sup"

    def run(self):
        return tuple(circle.restricted_sup_outside_Xj(
            self.f, j, self.grid, self.p, self.ring_size)
            for j in (self.j_lo, self.j_hi))

    def check(self, result) -> bool:
        norm_lo, norm_hi = result
        return bool(math.isfinite(norm_lo) and 0.0 <= norm_hi < norm_lo)

    def rings(self):
        # the M_j kernel reaches |m| = 2^(j+1)
        return [(2 ** (j + 1), self.f.support_width, self.ring_size)
                for j in (self.j_lo, self.j_hi)]


@dataclass(frozen=True)
class CarlesonOp:
    """The maximal operator with the partition kernel, checked at sample points."""

    f: spectral.Signal
    grid: spectral.LambdaGrid
    d: int
    J: int
    ring_size: int
    fam: osc.BumpFamily
    sample_x: tuple
    label = "carleson-partition"

    def run(self):
        return spectral.carleson_apply(self.f, self.grid, self.d, self.J,
                                       self.ring_size, self.fam,
                                       kernel="partition",
                                       radius=2 ** (self.J + 1))

    def check(self, result) -> bool:
        out = result.values
        if out.shape != (self.ring_size,) or not np.all(np.isfinite(out)):
            return False
        m, w = partition_weights(self.J, self.fam)
        coeff = w * np.exp(-2j * np.pi * frac_lam_msq(self.grid.points, m))
        ring = _embed(self.f, self.ring_size)
        for x in self.sample_x:
            expect = np.abs(coeff @ ring[(x - m) % self.ring_size]).max()
            if not abs(out[x] - expect) <= FFT_TOL:
                return False
        return True

    def rings(self):
        return [(2 ** (self.J + 1), self.f.support_width, self.ring_size)]


@dataclass(frozen=True)
class OscillationSumOp:
    f: spectral.Signal
    intervals: tuple
    grid_per_interval: int
    d: int
    J: int
    ring_size: int
    label = "oscillation-sum"

    def run(self):
        return spectral.oscillation_sum(self.f, self.intervals,
                                        self.grid_per_interval, self.d,
                                        self.J, self.ring_size)

    def check(self, result) -> bool:
        expect = oscillation_sum_oracle(self.f, self.intervals,
                                        self.grid_per_interval, self.J,
                                        self.ring_size)
        return bool(abs(result - expect) <= FFT_TOL * expect)

    def rings(self):
        radius = min(2 ** (self.J + 1), self.ring_size // 4)
        return [(radius, self.f.support_width, self.ring_size)]


@dataclass(frozen=True)
class MajorBoxOp:
    """M_j(lam, beta) against S(A/Q, B/Q) H_j(offsets) inside a major box."""

    j: int
    A: int
    B: int
    Q: int
    lam: float
    beta: float
    d_lam: float
    d_beta: float
    fam: osc.BumpFamily
    tol: float
    budget: int

    @property
    def label(self) -> str:
        return f"major-box-j{self.j}"

    def run(self):
        d = self.fam.d
        s = weyl.complete_weyl_sum(weyl.WeylTriple(self.A, self.B, self.Q, d))
        h = osc.H_j(self.d_lam, self.d_beta, self.j, d, self.fam, self.tol,
                    self.budget)
        m = spectral.multiplier_Mj(self.lam, self.beta, self.j, d, self.fam)
        return (s, h, m)

    def check(self, result) -> bool:
        s, h, m = result
        return bool(abs(m - s * h) <= MAJOR_BOX_TOL)


@dataclass(frozen=True)
class ErrorEjOp:
    lam: float
    beta: float
    j: int
    p: circle.ApproxParams
    tol: float

    @property
    def label(self) -> str:
        return f"error-Ej-j{self.j}"

    def run(self):
        return circle.error_Ej(self.lam, self.beta, self.j, self.p, self.tol)

    def check(self, result) -> bool:
        return bool(math.isfinite(abs(result)) and abs(result) < 1.0)


# ---------------------------------------------------------------------------
# op lists

SP_K, SP_TOL, SP_BUDGET = 40, 1e-8, 2 ** 21
# one round of 18 ops.  Twelve cheap l = 9 ops, spread between the dear
# ones, hold the median: (9, 2) mostly costs less than (9, 3), so the
# median op is a typical (9, 3) op, drawn from 24 or more per run rather
# than from a handful of costly ones.  The four l = 13 ops, 22% of a
# round and three quarters of its time, hold the tail percentile (p86)
# at their middle.  Neither statistic lands on a boundary between kinds,
# and both sit at a fixed share of the ops whatever the run's length.
SP_ROUND = ((9, 2), (9, 3), (13, 2), (9, 2), (9, 3), (11, 2),
            (9, 2), (9, 3), (13, 3), (9, 2), (9, 3), (13, 2),
            (9, 2), (9, 3), (11, 3), (9, 2), (9, 3), (13, 3))
# additive recurrence of the plastic number: every prefix of the sequence
# covers the unit square evenly, so a run's mix of (lam, xi) changes
# little with the seed that drew the shifts
_R2 = (0.7548776662466927, 0.5698402909980532)


def stationary_phase_ops(seed: int, rounds: int) -> list:
    """Rounds of G_hat_direct plus stationary_phase_split at one (xi, ctx).

    lam is uniform in its dyadic slab and |xi| 2^(k-l) uniform in
    [1/4, 4], as in the stationary-phase experiment; the sign of xi
    alternates between successive ops of the same (l, d).
    """
    combos = sorted(set(SP_ROUND))
    shifts = dict(zip(combos, _rng(seed, 0).random((len(combos), 2))))
    seen = dict.fromkeys(combos, 0)
    fams = {d: default_family(d, 4) for d in (2, 3)}
    ops = []
    for _ in range(rounds):
        for l, d in SP_ROUND:
            k = seen[l, d]
            seen[l, d] += 1
            u_lam = (shifts[l, d][0] + k * _R2[0]) % 1.0
            u_xi = (shifts[l, d][1] + k * _R2[1]) % 1.0
            slab = math.ldexp(1.0, l - d * SP_K)
            lam = min(slab * (1.0 + u_lam), math.nextafter(2.0 * slab, 0.0))
            sign = 1.0 if k % 2 == 0 else -1.0
            xi = sign * (0.25 + 3.75 * u_xi) * math.ldexp(1.0, l - SP_K)
            ctx = osc.PhaseContext(d, SP_K, l, lam, regime_C=None)
            ops.append(StationaryPhaseOp(xi, ctx, fams[d], SP_TOL, SP_BUDGET))
    return ops


def geometric_intervals(count: int, hi: float, lo: float) -> tuple:
    edges = [hi * (lo / hi) ** (i / count) for i in range(count + 1)]
    return tuple((edges[i + 1], edges[i], edges[i]) for i in range(count))


def modulated_fft_ops(seed: int, rounds: int) -> list:
    """Rounds of oscillation_sum, carleson_apply, X_j sup, carleson_apply.

    The cheap op comes first so that the warm-up op stays cheap.  With
    two carleson_apply ops in four, the median op lies in the middle of
    them.  Every ring holds kernel radius plus signal support.
    """
    rng = _rng(seed, 1)
    fam = default_family(2, 4)
    p = approx_params(fam)
    x6 = p.xset(6)
    intervals = geometric_intervals(16, 0.25, math.ldexp(1.0, -20))

    def carleson():
        return CarlesonOp(unit_signal(rng, 2048), sorted_grid(rng, 32), 2, 11,
                          8192, fam,
                          tuple(int(x) for x in rng.integers(0, 8192, 4)))

    ops = []
    for _ in range(rounds):
        ops.append(OscillationSumOp(unit_signal(rng, 1024, mean_zero=True),
                                    intervals, 4, 2, 10, 4096))
        ops.append(carleson())
        f = unit_signal(rng, 4096)
        # the experiment's density requirement: some lambda must lie
        # outside X_6, or the j = 6 sup runs over an empty grid and is 0;
        # about 0.5% of uniform 256-point grids miss it and are redrawn
        while True:
            grid = sorted_grid(rng, 256)
            if not all(farey.xset_contains(lam, x6) for lam in grid.points):
                break
        ops.append(RestrictedSupOp(f, grid, 6, 12, p, 16384))
        ops.append(carleson())
    return ops


# one round of 16 ops: a major-box point ("box") and an E_j point ("err")
# at each j in 8..14, alternating kinds, plus two more major-box points
# at j = 11.  Op cost rises with j, so the three (box, 11) ops hold the
# median, away from the boundary between two kinds of different cost
# where it lands with one op per (kind, j); the two j = 14 ops, of about
# equal cost, hold the tail percentile (p93).
MA_ROUND = (("box", 8), ("err", 9), ("box", 10), ("err", 11), ("box", 11),
            ("box", 12), ("err", 13), ("box", 14), ("err", 8), ("box", 9),
            ("err", 10), ("box", 11), ("err", 12), ("box", 11), ("box", 13),
            ("err", 14))
MA_EPSILON = 0.1


def torus_offset(x: float, num: int, den: int) -> float:
    """x - num/den reduced to the nearest representative, rounded once."""
    delta = Fraction(x) - Fraction(num, den)
    return float(delta - round(delta))


def major_arcs_ops(seed: int, rounds: int) -> list:
    """Rounds of the 16 ops of MA_ROUND.

    Major-box points use C^2 bumps, Q in {2, 3} and quadrature tolerance
    1e-12; E_j points are sampled as the E_j decay scan samples them,
    with C^4 bumps and tolerance 1e-8.
    """
    rng = _rng(seed, 2)
    d = 2
    box_fam = default_family(d, 2)
    p = approx_params(default_family(d, 4))
    ops = []
    n_err = 0
    for _ in range(rounds):
        for kind, j in MA_ROUND:
            if kind == "box":
                Q = int(rng.integers(2, 4))
                while True:
                    A, B = (int(v) for v in rng.integers(0, Q, 2))
                    if math.gcd(math.gcd(A, B), Q) == 1:
                        break
                o_lam, o_beta = rng.uniform(-1.0, 1.0, 2)
                lam = (A / Q + o_lam * 2.0 ** ((MA_EPSILON - d) * j)) % 1.0
                beta = (B / Q + o_beta * 2.0 ** ((MA_EPSILON - 1.0) * j)) % 1.0
                ops.append(MajorBoxOp(j, A, B, Q, lam, beta,
                                      torus_offset(lam, A, Q),
                                      torus_offset(beta, B, Q),
                                      box_fam, 1e-12, 2 ** 18))
            else:
                xs = p.xset(j)
                q_hi = 4 if n_err % 2 == 0 else xs.q_bound
                q = int(rng.integers(1, q_hi + 1))
                a = int(rng.integers(0, q))
                lam = (a / q + rng.uniform(-1.0, 1.0) * xs.width) % 1.0
                if n_err % 3 == 0:
                    beta = float(rng.uniform(0.0, 1.0))
                else:
                    b = int(rng.integers(0, q))
                    beta = (b / q + rng.uniform(-1.0, 1.0) * 2.0 ** (-j / 2)) % 1.0
                ops.append(ErrorEjOp(float(lam), float(beta), j, p, 1e-8))
                n_err += 1
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_ops: Callable[[int, int], list]
    round_size: int
    # a timed run ends on a whole round, after at least min_rounds; the
    # round's mix of op kinds and min_rounds place the tail percentile
    # inside one kind of op
    min_rounds: int
    max_rounds: int

    @property
    def tail_percentile(self) -> int:
        """The highest whole percentile with ten ops beyond it in a run of min_rounds.

        Fixed per workload, so that runs of different lengths, and
        versions of different speeds, report the same percentile.
        """
        n = self.min_rounds * self.round_size
        return 100 * (n - 10) // n


WORKLOADS = {w.name: w for w in (
    Workload("stationary-phase", stationary_phase_ops, len(SP_ROUND), 4, 60),
    Workload("modulated-fft", modulated_fft_ops, 4, 15, 40),
    Workload("major-arcs", major_arcs_ops, len(MA_ROUND), 10, 700),
)}


def check_ring(label: str, radius: int, support: int, ring_size: int) -> None:
    """Raise unless kernel radius + signal support <= ring size (no aliasing)."""
    if radius + support > ring_size:
        raise ValueError(f"{label}: kernel radius {radius} + support {support} "
                         f"exceeds ring size {ring_size}")


def check_rings(ops) -> None:
    for op in ops:
        for ring in getattr(op, "rings", list)():
            check_ring(op.label, *ring)


# ---------------------------------------------------------------------------
# the untimed oracle check run once per benchmark run

ORACLE_TOL = 1e-9


def carleson_oracle_diff(seed: int) -> float:
    """Sharp-kernel carleson_apply against carleson_direct_oracle (acceptance 07)."""
    rng = _rng(seed, 3)
    N, J, radius, width = 512, 7, 256, 128
    f = spectral.Signal(0, rng.standard_normal(width)
                        + 1j * rng.standard_normal(width))
    grid = sorted_grid(rng, 32)
    check_ring("carleson-oracle", radius, width, N)
    fast = spectral.carleson_apply(f, grid, 2, J, N, default_family(2, 4),
                                   kernel="sharp", radius=radius)
    slow = spectral.carleson_direct_oracle(f, grid, 2, radius, N)
    return float(np.abs(fast.values - slow.values).max())


def result_digest(result) -> str:
    """A hash of every bit of an op result, for traced/untraced comparison."""
    h = hashlib.sha256()

    def feed(x):
        if x is None:
            h.update(b"none")
        elif isinstance(x, tuple):
            for y in x:
                feed(y)
        elif isinstance(x, spectral.Signal):
            h.update(np.int64(x.offset).tobytes())
            h.update(x.values.tobytes())
        else:
            h.update(np.asarray(x).tobytes())

    feed(result)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# running ops

def run_one(op):
    """(latency_s, result_digest, error); an op fails if it raises or its check fails."""
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is counted, and the run goes on
        return time.perf_counter() - t0, None, f"{op.label}: {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        ok = op.check(result)
    except Exception as exc:
        return latency, None, f"{op.label}: check raised {type(exc).__name__}: {exc}"
    return (latency, result_digest(result),
            None if ok else f"{op.label}: check failed")


def run_rounds(ops, round_size, seconds, min_rounds):
    """Run whole rounds until `seconds` have passed and min_rounds are done."""
    records = []
    start = time.perf_counter()
    for r in range(len(ops) // round_size):
        if r >= min_rounds and time.perf_counter() - start >= seconds:
            break
        records.extend(run_one(op) for op in ops[r * round_size:(r + 1) * round_size])
    return records
