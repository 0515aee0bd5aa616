"""Experiment harness: named experiments, configs, deterministic reports.

Each experiment is one function whose keyword-only parameters declare it:
their names are the config keys, their defaults the default values and
their annotations the types; a parameter without a default (the seed of
a randomized experiment) is required.  An experiment binds module
operations together, draws any randomness from a counter-based Philox
generator keyed by the configured seed, and emits a CSV table plus a
JSON summary whose "params" are the complete resolved config.
Re-running an identical config reproduces the CSV byte for byte.

Every parameter changes what its experiment reports: a value that
reaches no row and no summary value is a constant of the body, not an
option.  test_every_option_moves_a_reported_number in
tests/test_bench.py runs each option at a second value and checks that
the rows or the summary move.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
from dataclasses import dataclass, replace
from typing import get_args, get_origin

import numpy as np

from . import circle, farey, osc, spectral, weyl

SCHEMA_VERSION = 1
RNG_ALGORITHM = "philox4x64"


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The harness generator: Philox keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _cast(key: str, value, kind):
    """value as the annotated type: int, float, str or tuple[T, ...]."""
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key!r}: {value!r} is not a list")
        return tuple(_cast(key, v, get_args(kind)[0]) for v in value)
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    # a bool is no number, an int or a str must come through unchanged,
    # and a float may be inf but not NaN
    if out is None or isinstance(value, bool) or (
            math.isnan(out) if kind is float else out != value):
        raise ValueError(f"config key {key!r}: {value!r} is not a valid "
                         f"{kind.__name__}")
    return out


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    output_path: str = "."

    def validate(self) -> dict:
        """The params bound to the experiment's signature, defaults applied
        and values cast to the annotated types."""
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        sig = inspect.signature(EXPERIMENTS[self.experiment], eval_str=True)
        try:
            bound = sig.bind(**self.params)
        except TypeError as exc:
            raise ValueError(f"experiment {self.experiment!r}: {exc}") from None
        bound.apply_defaults()
        return {key: _cast(key, value, sig.parameters[key].annotation)
                for key, value in bound.arguments.items()}

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        if not isinstance(raw.get("experiment"), str):
            raise ValueError('config field "experiment" must be a string')
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ValueError('config field "params" must be an object')
        return cls(experiment=raw["experiment"], params=params,
                   output_path=raw.get("output_path", "."))


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    summary: dict
    passed: bool

    def write(self) -> None:
        out_dir = self.config.output_path
        os.makedirs(out_dir, exist_ok=True)
        name = self.config.experiment
        csv_path = os.path.join(out_dir, f"{name}.csv")
        json_path = os.path.join(out_dir, f"{name}.summary.json")
        with open(csv_path, "w", newline="") as fh:
            if self.rows:
                writer = csv.DictWriter(fh, fieldnames=list(self.rows[0].keys()))
                writer.writeheader()
                for row in self.rows:
                    writer.writerow({k: _fmt(v) for k, v in row.items()})
        payload = {
            "schema_version": SCHEMA_VERSION,
            "rng": RNG_ALGORITHM,
            "experiment": name,
            "params": self.config.params,
            "summary": self.summary,
            "pass": self.passed,
        }
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
            fh.write("\n")


def _random_signal(rng: np.random.Generator, width: int,
                   mean_zero: bool = False, unit: bool = False) -> spectral.Signal:
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    if mean_zero:
        vals = vals - vals.mean()
    if unit:
        vals = vals / np.linalg.norm(vals)
    return spectral.Signal(0, vals)


def _need(ok, what: str) -> None:
    """Reject, before any computation, a config the experiment cannot judge."""
    if not ok:
        raise ValueError(f"need {what}")


# ---------------------------------------------------------------------------
# experiment bodies; each returns (rows, summary, passed)

def _exp_weyl_scan(*, q_max: int = 60, d_list: tuple[int, ...] = (2,)):
    # every admissible sum with gcd(a, q) > 1 vanishes: |S| is round-off
    _need(q_max >= 2 and d_list, "q_max >= 2 and a d to scan")
    rows, worst = [], 0.0
    for d in d_list:
        max_abs, count = 0.0, 0
        for q in range(2, q_max + 1):
            table, admissible = weyl._admissible_table(q, d)
            cases = admissible & (np.gcd(np.arange(q), q) > 1)[:, None]
            max_abs = max(max_abs, float(table[cases].max()))
            count += int(cases.sum())
        rows.append({"d": d, "q_max": q_max, "cases": count,
                     "max_abs": max_abs})
        worst = max(worst, max_abs)
    return rows, {"max_abs": worst, "threshold": 1e-12}, worst < 1e-12


def _exp_hua_fit(*, q_max: int = 200, d: int = 2):
    # slope of log max |S| against log q, max per q over admissible (a, b)
    _need(q_max >= 8, "q_max >= 8")
    # -0.4 judges Hua's q^(-1/2) at d = 2; Hua's q^(-1/d) fits -0.344 at
    # d = 3 and -0.315 at d = 4 for q <= 200, and would fail it
    _need(d == 2, "d = 2: the -0.4 threshold is Hua's bound at d = 2 only")
    # the row a = 1 is all admissible and by Parseval its |S|^2 sum to 1,
    # so every max is positive and has a logarithm
    maxima = []
    for q in range(2, q_max + 1):
        table, admissible = weyl._admissible_table(q, d)
        maxima.append(float(table[admissible].max()))
    qs_a = np.arange(2.0, q_max + 1)
    max_a = np.array(maxima)
    slope = float(np.polyfit(np.log(qs_a), np.log(max_a), 1)[0])
    const = float((max_a * qs_a ** (1.0 / d)).max())
    rows = [{"d": d, "q_max": q_max, "fitted_exponent": slope,
             "max_constant": const}]
    return rows, {"fitted_exponent": slope, "threshold": -0.4}, slope <= -0.4


def _exp_kernel_identity(*, q_max: int = 40, d_list: tuple[int, ...] = (2,)):
    _need(q_max >= 1 and d_list, "q_max >= 1 and a d to check")
    rows = []
    worst_diff = worst_mod = 0.0
    for d in d_list:
        for q in range(1, q_max + 1):
            max_diff = max_mod = 0.0
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                for x in range(q):
                    lhs, rhs = weyl.weyl_kernel_identity(a, q, d, x)
                    max_diff = max(max_diff, abs(lhs - rhs))
                    max_mod = max(max_mod, abs(abs(rhs) - 1.0))
            rows.append({"d": d, "q": q, "max_abs_diff": max_diff,
                         "max_modulus_dev": max_mod})
            worst_diff = max(worst_diff, max_diff)
            worst_mod = max(worst_mod, max_mod)
    summary = {"max_abs_diff": worst_diff, "max_modulus_dev": worst_mod,
               "threshold": 1e-10}
    return rows, summary, worst_diff < 1e-10 and worst_mod < 1e-10


def _exp_major_arc_error(*, seed: int, j_min: int = 8, j_max: int = 14,
                         d: int = 2, epsilon: float = 0.1, Q_max: int = 3,
                         samples_per_box: int = 6, smoothness: int = 2):
    # the sup over sampled major-box points of |M_j - S H_j(offsets)|; with
    # the C2 family it stays above the double-precision floor at j = 8..13,
    # so its decay is resolved there, while at j = 14 (about 6e-16) it is
    # round-off, about 6 ulp of |M_14| (about 0.88)
    _need(j_max > j_min, "j_max > j_min: two j for a decay step")
    _need(0.0 < epsilon <= 0.1, "epsilon in (0, 1/10]")
    fam = osc.BumpFamily(d=d, smoothness_order=smoothness)
    j_range = list(range(j_min, j_max + 1))
    sups, clamped, boxes = [], {}, {}
    for j in j_range:
        # no box at scale j has a denominator above 2^(epsilon j)
        clamped[j] = min(Q_max, int(2.0 ** (epsilon * j)))
        boxes[j], sup = 0, 0.0
        rng = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, j]))
        hw_l, hw_b = 2.0 ** ((epsilon - d) * j), 2.0 ** ((epsilon - 1.0) * j)
        for Q in range(1, clamped[j] + 1):
            for A in range(Q):
                row = weyl._complete_sum_row(A, Q, d)
                for B in range(Q):
                    if math.gcd(math.gcd(A, B), Q) != 1:
                        continue
                    boxes[j] += 1
                    # uniform samples in the box, then its center (H_j = 0)
                    offsets = rng.uniform(-1.0, 1.0, size=(samples_per_box, 2))
                    for ol, ob in np.vstack([offsets, [0.0, 0.0]]):
                        lam = (A / Q + ol * hw_l) % 1.0
                        beta = (B / Q + ob * hw_b) % 1.0
                        # offsets re-derived from the rounded points, so both
                        # sides see identical arguments; quadrature at 1e-12:
                        # at 1e-10 the sups at j = 8, 9 move by 5e-7 relative
                        dl = circle._exact_offset(lam, A, Q)
                        db = circle._exact_offset(beta, B, Q)
                        approx = row[B] * osc.H_j(dl, db, j, d, fam, 1e-12)
                        mj = spectral.multiplier_Mj(lam, beta, j, d, fam)
                        sup = max(sup, abs(mj - approx))
        sups.append(sup)
    log_sups = np.log2(np.array(sups))
    slope = float(np.polyfit(np.array(j_range, dtype=float), log_sups, 1)[0])
    step = float(np.diff(log_sups).mean())
    rows = [{"j": j, "sup_error": s} for j, s in zip(j_range, sups)]
    summary = {"mean_log2_step": step, "fitted_exponent": slope,
               "threshold": -0.5, "clamped_Q_max": clamped, "boxes": boxes}
    return rows, summary, step <= -0.5


def _exp_ej_decay(*, seed: int, j_min: int = 8, j_max: int = 14, d: int = 2,
                  kappa: float = 0.05, C: float = 2.0, samples: int = 40,
                  smoothness: int = 4):
    # decrease is judged on 3-point moving averages: four j give two
    _need(j_max - j_min >= 3, "j_max >= j_min + 3: four j for two averages")
    _need(samples >= 1, "samples >= 1")
    fam = osc.BumpFamily(d=d, smoothness_order=smoothness)
    p = circle.ApproxParams(d=d, kappa=kappa, exponent_C=C, fam=fam)
    j_range = list(range(j_min, j_max + 1))
    rng = np.random.Generator(np.random.Philox(seed))
    sups = []
    for j in j_range:
        xs = p.xset(j)
        sup = 0.0
        for i in range(samples):
            if i % 2 == 0:
                q = int(rng.integers(1, 5))
            else:
                q = int(rng.integers(1, xs.q_bound + 1))
            a = int(rng.integers(0, q))
            off = rng.uniform(-1.0, 1.0) * xs.width
            lam = (a / q + off) % 1.0
            if i % 3 == 0:
                beta = rng.uniform(0.0, 1.0)
            else:
                b = int(rng.integers(0, q))
                beta = (b / q + rng.uniform(-1.0, 1.0) * 2.0 ** (-j / 2)) % 1.0
            # quadrature at 1e-8 is far below sups of order 1e-2
            sup = max(sup, abs(circle.error_Ej(lam, beta, j, p, 1e-8)))
        sups.append(sup)
    sups_a = np.array(sups)
    smooth = np.convolve(sups_a, np.ones(3) / 3.0, mode="valid")
    monotone = bool(np.all(np.diff(smooth) < 0))
    fitted_power = float(np.polyfit(np.log(np.array(j_range, dtype=float)),
                                    np.log(sups_a), 1)[0])
    rows = [{"j": j, "sup_error": s} for j, s in zip(j_range, sups)]
    summary = {"monotone_decreasing": monotone, "fitted_power": fitted_power,
               "predicted_power": -1.0 / (2.0 * p.kappa)}
    return rows, summary, monotone


def _exp_xj_restricted(*, seed: int, j_lo: int = 6, j_hi: int = 12,
                       d: int = 2, C: float = 2.0, n_seeds: int = 5,
                       n_lams: int = 256, N: int = 4096, smoothness: int = 4):
    # X_j at small j covers most of the torus; the grid (n_lams) must be
    # dense enough that some lambdas land outside it
    _need(n_seeds >= 1, "n_seeds >= 1")
    fam = osc.BumpFamily(d=d, smoothness_order=smoothness)
    p = circle.ApproxParams(d=d, exponent_C=C, fam=fam)
    rows = []
    ok = True
    for t in range(n_seeds):
        rng = make_rng(seed, stream=t)
        f = _random_signal(rng, N // 4, unit=True)
        lams = np.sort(rng.uniform(0.0, 1.0, n_lams))
        grid = spectral.LambdaGrid(tuple(lams), provenance="explicit")
        norm_lo = circle.restricted_sup_outside_Xj(f, j_lo, grid, p, N)
        norm_hi = circle.restricted_sup_outside_Xj(f, j_hi, grid, p, N)
        rows.append({"seed_stream": t, "j_lo": j_lo, "norm_lo": norm_lo,
                     "j_hi": j_hi, "norm_hi": norm_hi})
        ok = ok and norm_hi < norm_lo
    return rows, {"all_decreasing": ok}, ok


def _exp_carleson(*, N: int = 512, J: int = 6, d: int = 2, grid_size: int = 32,
                  input: str = "delta", seed: int = 0):
    # seed draws the random input; the delta input uses no randomness
    _need(input in ("delta", "random"), "input 'delta' or 'random'")
    if input == "delta":
        f = spectral.Signal.delta(0)
    else:
        f = _random_signal(make_rng(seed), N // 4)
    grid = spectral.LambdaGrid(tuple(np.linspace(0.0, 0.9, grid_size)))
    out = spectral.carleson_apply(f, grid, d, J, N)
    rows = [{"x": x, "value": float(out.values[x].real)} for x in range(N)]
    summary = {"N": N, "J": J, "delta_pattern_checked": input == "delta"}
    if input == "delta":
        radius = min(2 ** J, N // 2 - 1)
        passed = abs(out.values[0]) < 1e-9 and all(
            abs(out.values[x].real - 1.0 / x) < 1e-9
            and abs(out.values[N - x].real - 1.0 / x) < 1e-9
            for x in range(1, radius + 1))
    else:
        # the FFT path with the exact kernel (radius 2^(J+1)) against direct
        # convolution at that radius, within acceptance 07's bound
        sharp = spectral.carleson_apply(f, grid, d, J, N, kernel="sharp")
        direct = spectral.carleson_direct_oracle(f, grid, d, 2 ** (J + 1), N)
        diff = float(np.abs(sharp.values - direct.values).max())
        summary["oracle_max_diff"] = diff
        passed = diff < 1e-9
    return rows, summary, passed


def _exp_stationary_phase(*, seed: int, d: int = 2, tol: float = 1e-8,
                          l_min: int = 8, l_max: int = 14, n_xi: int = 50):
    _need(l_max > l_min, "l_max > l_min: two l for a peak exponent")
    _need(n_xi >= 1, "n_xi >= 1")
    # k cancels exactly: lam 2^(kd) = 2^l U and xi 2^k = +-u 2^l are exact
    # power-of-two products, so the phase -2^(-l)(lam 2^(kd) t^d + xi 2^k t),
    # and every reported number, is the same at any k
    k = 40
    l_fit = list(range(l_min, l_max + 1))
    rng = make_rng(seed)
    fam = osc.BumpFamily(d=d)
    rows = []
    worst_recon = 0.0
    peaks = []
    peak_arg = None
    for l in l_fit:
        slab = math.ldexp(1.0, l - d * k)
        recon = 0.0
        scale = math.ldexp(1.0, l - k)
        for _ in range(n_xi):
            ctx = osc.PhaseContext(d, k, l, float(slab * rng.uniform(1.0, 2.0)))
            xi = float(rng.uniform(0.25, 4.0) * scale *
                       (1 if rng.random() < 0.5 else -1))
            direct = osc.G_hat_direct(xi, ctx, fam, tol)
            a_hat, b_plus, b_minus = osc.stationary_phase_split(
                xi, ctx, fam, tol)
            total = a_hat + b_plus + (b_minus or 0j)
            recon = max(recon, abs(total - direct))
        worst_recon = max(worst_recon, recon)
        # the peak location is scale invariant in units of xi 2^(k-l), so
        # after a coarse scan at the first l only a local refinement around
        # the known argmax is needed
        ctx = osc.PhaseContext(d, k, l, 1.3 * slab)
        peak = 0.0
        if peak_arg is None:
            for m in range(48):
                u = 0.25 + 3.75 * m / 47.0
                for su in (u, -u):
                    val = abs(osc.G_hat_direct(su * scale, ctx, fam, tol))
                    if val > peak:
                        peak, peak_arg = val, su
        else:
            for du in np.linspace(-0.15, 0.15, 9):
                val = abs(osc.G_hat_direct((peak_arg + du) * scale, ctx, fam,
                                           tol))
                peak = max(peak, val)
        peaks.append(peak)
        rows.append({"l": l, "max_recon_error": recon, "peak_abs": peak})
    slope = float(np.polyfit(np.array(l_fit, dtype=float),
                             np.log2(np.array(peaks)), 1)[0])
    summary = {"max_recon_error": worst_recon, "recon_threshold": 10 * tol,
               "peak_exponent": slope, "expected_exponent": -0.5}
    passed = worst_recon < 10 * tol and abs(slope + 0.5) <= 0.15
    return rows, summary, passed


def _exp_square_function(*, seed: int, d: int = 2, l: int = 2, k_min: int = 2,
                         k_max: int = 3):
    rng = make_rng(seed)
    f = _random_signal(rng, 8)
    out1 = spectral.square_function_S_G(f, l, (k_min, k_max), 4, d)
    out2 = spectral.square_function_S_G(
        spectral.Signal(f.offset, 2.0 * f.values), l, (k_min, k_max), 4, d)
    dev = float(np.abs(out2.values - 2.0 * out1.values).max())
    rows = [{"x": x, "S_G": float(out1.values[x].real)}
            for x in range(len(out1.values))]
    return rows, {"homogeneity_dev": dev}, dev < 1e-8


def _exp_ttstar(*, seed: int, s_list: tuple[int, ...] = (3, 4, 5), d: int = 2,
                n_pairs: int = 40):
    # the ratio of the TT* kernel to its window, maxed per s; at s = 1 the
    # only fraction with q in [1, 2) is 0/1, so no distinct pair exists
    _need(len(set(s_list)) >= 2 and min(s_list) >= 2,
          "two distinct scales, each s >= 2")
    rng = np.random.Generator(np.random.Philox(seed))
    ratios = {}
    for s in s_list:
        q_lo, q_hi = 2 ** (s - 1), 2 ** s

        def draw():
            # a linearizer value: uniform modulation parameter, reduced
            # through its best rational with denominator in [2^(s-1), 2^s)
            while True:
                aq = farey.dirichlet_approx(float(rng.random()), q_hi - 1)
                if q_lo <= aq[1] < q_hi:
                    return aq

        best = 0.0
        for _ in range(n_pairs):
            # distinct fractions: a coinciding pair sits on the diagonal
            # of the TT* composition, where the ratio is identically 1
            while True:
                aq, apqp = draw(), draw()
                if aq != apqp:
                    break
            Q = math.gcd(aq[1], apqp[1])
            w = int(rng.integers(0, 2 ** (2 * s))) % Q
            best = max(best, abs(spectral.ttstar_frequency_factor(aq, apqp,
                                                                  w, d)))
        ratios[int(s)] = best
    rows = [{"s": s, "max_ratio": ratios[s]} for s in sorted(ratios)]
    vals = [ratios[s] for s in sorted(ratios)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return rows, {"max_ratio": ratios, "strictly_decreasing": decreasing}, decreasing


def _exp_ergodic(*, seed: int, N: int = 2 ** 12, d: int = 2,
                 J_list: tuple[int, ...] = (4, 8, 16, 32), n_seeds: int = 5,
                 grid_per_interval: int = 4, J_mult: int = 10):
    _need(len(set(J_list)) >= 2, "two distinct J for a growth exponent")
    _need(n_seeds >= 1, "n_seeds >= 1")
    # the first grid point of each interval is its anchor, so one point
    # compares the anchor with itself and every sum is 0
    _need(grid_per_interval >= 2, "grid_per_interval >= 2")
    rows = []
    exponents = []
    for t in range(n_seeds):
        rng = make_rng(seed, stream=t)
        f = _random_signal(rng, N, mean_zero=True, unit=True)
        sums = []
        for J in J_list:
            # split a fixed resolvable modulation range into J geometric
            # intervals; growth in J then measures partition refinement
            # rather than saturated tail intervals
            hi, lo = 0.25, math.ldexp(1.0, -20)
            edges = [hi * (lo / hi) ** (i / J) for i in range(J + 1)]
            intervals = [(edges[i + 1], edges[i], edges[i]) for i in range(J)]
            val = spectral.oscillation_sum(f, intervals, grid_per_interval, d,
                                           J_mult, N)
            sums.append(val)
            rows.append({"seed_stream": t, "J": J, "oscillation_sum": val})
        expo = float(np.polyfit(np.log(np.array(J_list, dtype=float)),
                                np.log(np.maximum(np.array(sums), 1e-300)),
                                1)[0])
        exponents.append(expo)
    worst = max(exponents)
    return rows, {"growth_exponents": exponents, "max_exponent": worst,
                  "threshold": 0.9}, worst < 0.9


def _exp_variation(*, n_max: int = 8,
                   r_list: tuple[float, ...] = (1.0, 2.0, 3.0, math.inf)):
    _need(n_max >= 2 and r_list, "n_max >= 2 and an r to compare")
    worst = 0.0
    rows = []
    for n in range(2, n_max + 1):
        seqs = np.array(np.meshgrid(*([[-1, 0, 1]] * n),
                                    indexing="ij")).reshape(n, -1).T
        for r in r_list:
            brute = spectral.r_variation_bruteforce(seqs, r)
            dp = spectral.r_variation(seqs, r)
            dev = float(np.abs(brute - dp).max())
            worst = max(worst, dev)
            rows.append({"n": n, "r": r, "max_abs_diff": dev})
    return rows, {"max_abs_diff": worst}, worst < 1e-12


EXPERIMENTS = {
    "weyl-scan": _exp_weyl_scan,
    "hua-fit": _exp_hua_fit,
    "kernel-identity": _exp_kernel_identity,
    "major-arc-error": _exp_major_arc_error,
    "ej-decay": _exp_ej_decay,
    "xj-restricted": _exp_xj_restricted,
    "carleson": _exp_carleson,
    "stationary-phase": _exp_stationary_phase,
    "square-function": _exp_square_function,
    "ttstar": _exp_ttstar,
    "ergodic": _exp_ergodic,
    "variation": _exp_variation,
}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Validate, dispatch, and write the report files.

    The report's params are the resolved ones, so its summary.json is a
    complete config that reproduces the run.
    """
    params = config.validate()
    rows, summary, passed = EXPERIMENTS[config.experiment](**params)
    # bool() so a numpy bool is written as a JSON boolean, not a string
    report = ExperimentReport(replace(config, params=params),
                              rows, summary, bool(passed))
    report.write()
    return report
