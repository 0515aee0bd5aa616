"""Experiment harness: named experiments, configs, deterministic reports.

Each experiment binds module operations together, draws any randomness
from a counter-based Philox generator keyed by the configured seed, and
emits a CSV table plus a JSON summary.  Re-running an identical config
reproduces the CSV byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict
    output_path: str = "."

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        spec = EXPERIMENTS[self.experiment]
        unknown = set(self.params) - set(spec.allowed_keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if spec.randomized and "seed" not in self.params:
            raise ValueError(f"experiment {self.experiment!r} requires a seed")

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            raw = json.load(fh)
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {version!r}")
        return cls(experiment=raw["experiment"], params=raw.get("params", {}),
                   output_path=raw.get("output_path", "."))


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list
    summary: dict
    passed: bool

    def write(self, out_dir: Optional[str] = None) -> tuple[str, str]:
        out_dir = out_dir or self.config.output_path
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
        return csv_path, json_path


@dataclass(frozen=True)
class _ExperimentSpec:
    func: Callable
    allowed_keys: tuple
    randomized: bool


def _random_signal(rng: np.random.Generator, width: int, offset: int = 0,
                   mean_zero: bool = False, unit: bool = False) -> spectral.Signal:
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    if mean_zero:
        vals = vals - vals.mean()
    if unit:
        vals = vals / np.linalg.norm(vals)
    return spectral.Signal(offset, vals)


# ---------------------------------------------------------------------------
# experiment bodies; each returns (rows, summary, passed)

def _exp_weyl_scan(params):
    q_max = int(params.get("q_max", 60))
    ds = params.get("d_list", [int(params.get("d", 2))])
    rows, worst = [], 0.0
    for d in ds:
        rep = weyl.weyl_orthogonality_scan(q_max, int(d))
        rows.append({"d": d, "q_max": q_max, "cases": rep["count"],
                     "max_abs": rep["max_abs"]})
        worst = max(worst, rep["max_abs"])
    return rows, {"max_abs": worst, "threshold": 1e-12}, worst < 1e-12


def _exp_hua_fit(params):
    q_max = int(params.get("q_max", 200))
    d = int(params.get("d", 2))
    slope, const = weyl.hua_exponent_fit(q_max, d)
    rows = [{"d": d, "q_max": q_max, "fitted_exponent": slope,
             "max_constant": const}]
    return rows, {"fitted_exponent": slope, "threshold": -0.4}, slope <= -0.4


def _exp_kernel_identity(params):
    q_max = int(params.get("q_max", 40))
    ds = params.get("d_list", [int(params.get("d", 2))])
    rows = []
    worst_diff = worst_mod = 0.0
    for d in ds:
        for q in range(1, q_max + 1):
            max_diff = max_mod = 0.0
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                for x in range(q):
                    lhs, rhs = weyl.weyl_kernel_identity(
                        farey.ReducedFraction(a, q), int(d), x)
                    max_diff = max(max_diff, abs(lhs - rhs))
                    max_mod = max(max_mod, abs(abs(rhs) - 1.0))
            rows.append({"d": d, "q": q, "max_abs_diff": max_diff,
                         "max_modulus_dev": max_mod})
            worst_diff = max(worst_diff, max_diff)
            worst_mod = max(worst_mod, max_mod)
    summary = {"max_abs_diff": worst_diff, "max_modulus_dev": worst_mod,
               "threshold": 1e-10}
    return rows, summary, worst_diff < 1e-10 and worst_mod < 1e-10


def _circle_params(params, default_smoothness: int = 4) -> circle.ApproxParams:
    d = int(params.get("d", 2))
    fam = osc.BumpFamily(
        d=d, smoothness_order=int(params.get("smoothness", default_smoothness)))
    return circle.ApproxParams(
        d=d,
        epsilon=float(params.get("epsilon", 0.1)),
        kappa=float(params.get("kappa", 0.05)),
        exponent_C=float(params.get("C", 2.0)),
        fam=fam)


def _exp_major_arc_error(params):
    # the C2 family leaves the discretization error visible above the
    # double-precision floor, so the decay slope is measurable
    p = _circle_params(params, default_smoothness=2)
    j_range = range(int(params.get("j_min", 8)), int(params.get("j_max", 14)) + 1)
    rep = circle.major_box_error_sweep(
        list(j_range), p, int(params.get("Q_max", 3)),
        int(params.get("samples_per_box", 6)), seed=int(params["seed"]))
    rows = [{"j": j, "sup_error": s}
            for j, s in zip(rep["j_range"], rep["sup_errors"])]
    summary = {"mean_log2_step": rep["mean_log2_step"],
               "fitted_exponent": rep["fitted_exponent"], "threshold": -0.5}
    return rows, summary, rep["mean_log2_step"] <= -0.5


def _exp_ej_decay(params):
    p = _circle_params(params)
    j_range = list(range(int(params.get("j_min", 8)),
                         int(params.get("j_max", 14)) + 1))
    rep = circle.ej_decay_scan(j_range, p, int(params.get("samples", 40)),
                               seed=int(params["seed"]))
    rows = [{"j": j, "sup_error": s}
            for j, s in zip(rep["j_range"], rep["sup_errors"])]
    summary = {"monotone_decreasing": rep["monotone_decreasing"],
               "fitted_power": rep["fitted_power"],
               "predicted_power": rep["predicted_power"]}
    return rows, summary, rep["monotone_decreasing"]


def _exp_xj_restricted(params):
    p = _circle_params(params)
    j_lo = int(params.get("j_lo", 6))
    j_hi = int(params.get("j_hi", 12))
    n_seeds = int(params.get("n_seeds", 5))
    # X_j at small j covers most of the torus; the grid must be dense
    # enough that some lambdas land outside it
    n_lams = int(params.get("n_lams", 256))
    N = int(params.get("N", 4096))
    base_seed = int(params["seed"])
    rows = []
    ok = True
    for t in range(n_seeds):
        rng = make_rng(base_seed, stream=t)
        f = _random_signal(rng, N // 4, unit=True)
        lams = np.sort(rng.uniform(0.0, 1.0, n_lams))
        grid = spectral.LambdaGrid(tuple(lams), provenance="explicit")
        norm_lo = circle.restricted_sup_outside_Xj(f, j_lo, grid, p, N)
        norm_hi = circle.restricted_sup_outside_Xj(f, j_hi, grid, p, N)
        rows.append({"seed_stream": t, "j_lo": j_lo, "norm_lo": norm_lo,
                     "j_hi": j_hi, "norm_hi": norm_hi})
        ok = ok and norm_hi < norm_lo
    return rows, {"all_decreasing": ok}, ok


def _exp_carleson(params):
    N = int(params.get("N", 512))
    J = int(params.get("J", 6))
    d = int(params.get("d", 2))
    n_grid = int(params.get("grid_size", 32))
    source = params.get("input", "delta")
    if source == "delta":
        f = spectral.Signal.delta(0)
    else:
        rng = make_rng(int(params["seed"]))
        f = _random_signal(rng, N // 4)
    grid = spectral.LambdaGrid(tuple(np.linspace(0.0, 0.9, n_grid)))
    out = spectral.carleson_apply(f, grid, d, J, N)
    rows = [{"x": x, "value": float(out.values[x].real)} for x in range(N)]
    passed = True
    if source == "delta":
        radius = min(2 ** J, N // 2 - 1)
        for x in range(1, radius + 1):
            passed = passed and abs(out.values[x].real - 1.0 / x) < 1e-9
            passed = passed and abs(out.values[N - x].real - 1.0 / x) < 1e-9
        passed = passed and abs(out.values[0]) < 1e-9
    return rows, {"N": N, "J": J, "delta_pattern_checked": source == "delta"}, passed


def _exp_stationary_phase(params):
    d = int(params.get("d", 2))
    k = int(params.get("k", 40))
    tol = float(params.get("tol", 1e-8))
    budget = 2 ** 21
    l_fit = list(range(int(params.get("l_min", 8)),
                       int(params.get("l_max", 14)) + 1))
    n_xi = int(params.get("n_xi", 50))
    rng = make_rng(int(params["seed"]))
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
            direct = osc.G_hat_direct(xi, ctx, fam, tol, budget)
            a_hat, b_plus, b_minus = osc.stationary_phase_split(
                xi, ctx, fam, tol, budget)
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
                    val = abs(osc.G_hat_direct(su * scale, ctx, fam, tol,
                                               budget))
                    if val > peak:
                        peak, peak_arg = val, su
        else:
            for du in np.linspace(-0.15, 0.15, 9):
                val = abs(osc.G_hat_direct((peak_arg + du) * scale, ctx, fam,
                                           tol, budget))
                peak = max(peak, val)
        peaks.append(peak)
        rows.append({"l": l, "max_recon_error": recon, "peak_abs": peak})
    slope = float(np.polyfit(np.array(l_fit, dtype=float),
                             np.log2(np.array(peaks)), 1)[0])
    summary = {"max_recon_error": worst_recon, "recon_threshold": 10 * tol,
               "peak_exponent": slope, "expected_exponent": -0.5}
    passed = worst_recon < 10 * tol and abs(slope + 0.5) <= 0.15
    return rows, summary, passed


def _exp_square_function(params):
    d = int(params.get("d", 2))
    rng = make_rng(int(params["seed"]))
    f = _random_signal(rng, 8)
    l = int(params.get("l", 2))
    k_range = (int(params.get("k_min", 2)), int(params.get("k_max", 3)))
    out1 = osc.square_function_S_G(f, l, k_range, 4, d)
    out2 = osc.square_function_S_G(
        spectral.Signal(f.offset, 2.0 * f.values), l, k_range, 4, d)
    dev = float(np.abs(out2.values - 2.0 * out1.values).max())
    rows = [{"x": x, "S_G": float(out1.values[x].real)}
            for x in range(len(out1.values))]
    return rows, {"homogeneity_dev": dev}, dev < 1e-8


def _exp_ttstar(params):
    s_values = params.get("s_list", [3, 4, 5])
    rep = spectral.ttstar_ratio_scan(
        [int(s) for s in s_values], int(params.get("d", 2)),
        n_pairs=int(params.get("n_pairs", 40)), seed=int(params["seed"]))
    ratios = rep["max_ratio"]
    rows = [{"s": s, "max_ratio": ratios[s]} for s in sorted(ratios)]
    vals = [ratios[s] for s in sorted(ratios)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return rows, {"max_ratio": ratios, "strictly_decreasing": decreasing}, decreasing


def _dyadic_schedule(J: int, d: int) -> list[tuple[float, float, float]]:
    """Intervals (2^(-d j_(i+1)), 2^(-d j_i)] with anchors at the right edge."""
    sched = list(range(1, J + 2))
    intervals = []
    for i in range(J):
        hi = math.ldexp(1.0, -d * sched[i])
        lo = math.ldexp(1.0, -d * sched[i + 1])
        intervals.append((lo, hi, hi))
    return intervals


def _exp_ergodic(params):
    N = int(params.get("N", 2 ** 12))
    d = int(params.get("d", 2))
    J_list = [int(j) for j in params.get("J_list", [4, 8, 16, 32])]
    n_seeds = int(params.get("n_seeds", 5))
    g = int(params.get("grid_per_interval", 4))
    base_seed = int(params["seed"])
    J_big = int(params.get("J_mult", 10))
    rows = []
    exponents = []
    for t in range(n_seeds):
        rng = make_rng(base_seed, stream=t)
        f = _random_signal(rng, N, mean_zero=True, unit=True)
        sums = []
        for J in J_list:
            # split a fixed resolvable modulation range into J geometric
            # intervals; growth in J then measures partition refinement
            # rather than saturated tail intervals
            hi, lo = 0.25, math.ldexp(1.0, -20)
            edges = [hi * (lo / hi) ** (i / J) for i in range(J + 1)]
            intervals = [(edges[i + 1], edges[i], edges[i]) for i in range(J)]
            val = spectral.oscillation_sum(f, intervals, g, d, J_big, N)
            sums.append(val)
            rows.append({"seed_stream": t, "J": J, "oscillation_sum": val})
        expo = float(np.polyfit(np.log(np.array(J_list, dtype=float)),
                                np.log(np.maximum(np.array(sums), 1e-300)),
                                1)[0])
        exponents.append(expo)
    worst = max(exponents)
    return rows, {"growth_exponents": exponents, "max_exponent": worst,
                  "threshold": 0.9}, worst < 0.9


def _exp_variation(params):
    n_max = int(params.get("n_max", 8))
    r_list = params.get("r_list", [1.0, 2.0, 3.0, math.inf])
    worst = 0.0
    rows = []
    for n in range(2, n_max + 1):
        seqs = np.array(np.meshgrid(*([[-1, 0, 1]] * n),
                                    indexing="ij")).reshape(n, -1).T
        for r in r_list:
            r = float(r)
            brute = _variation_enumerated(seqs, r)
            dp = np.array([spectral.r_variation(s, r) for s in seqs])
            dev = float(np.abs(brute - dp).max())
            worst = max(worst, dev)
            rows.append({"n": n, "r": r, "max_abs_diff": dev})
    return rows, {"max_abs_diff": worst}, worst < 1e-12


def _variation_enumerated(seqs: np.ndarray, r: float) -> np.ndarray:
    """Vectorized exhaustive r-variation over rows of seqs (oracle)."""
    n = seqs.shape[1]
    best = np.zeros(len(seqs))
    for mask in range(1, 2 ** n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) < 2:
            continue
        sub = seqs[:, idx].astype(float)
        diffs = np.abs(np.diff(sub, axis=1))
        if math.isinf(r):
            vals = diffs.max(axis=1)
        else:
            vals = (diffs ** r).sum(axis=1) ** (1.0 / r)
        np.maximum(best, vals, out=best)
    return best


EXPERIMENTS = {
    "weyl-scan": _ExperimentSpec(_exp_weyl_scan, ("q_max", "d", "d_list"), False),
    "hua-fit": _ExperimentSpec(_exp_hua_fit, ("q_max", "d"), False),
    "kernel-identity": _ExperimentSpec(_exp_kernel_identity,
                                       ("q_max", "d", "d_list"), False),
    "major-arc-error": _ExperimentSpec(
        _exp_major_arc_error,
        ("j_min", "j_max", "d", "epsilon", "kappa", "C", "Q_max",
         "samples_per_box", "smoothness", "seed"), True),
    "ej-decay": _ExperimentSpec(
        _exp_ej_decay,
        ("j_min", "j_max", "d", "epsilon", "kappa", "C", "samples", "smoothness",
         "seed"), True),
    "xj-restricted": _ExperimentSpec(
        _exp_xj_restricted,
        ("j_lo", "j_hi", "d", "epsilon", "kappa", "C", "n_seeds", "n_lams",
         "N", "smoothness", "seed"), True),
    "carleson": _ExperimentSpec(
        _exp_carleson, ("N", "J", "d", "grid_size", "input", "seed"), False),
    "stationary-phase": _ExperimentSpec(
        _exp_stationary_phase,
        ("d", "k", "tol", "l_min", "l_max", "n_xi", "seed"),
        True),
    "square-function": _ExperimentSpec(
        _exp_square_function, ("d", "l", "k_min", "k_max", "seed"), True),
    "ttstar": _ExperimentSpec(_exp_ttstar, ("s_list", "d", "n_pairs", "seed"),
                              True),
    "ergodic": _ExperimentSpec(
        _exp_ergodic,
        ("N", "d", "J_list", "n_seeds", "grid_per_interval", "J_mult", "seed"),
        True),
    "variation": _ExperimentSpec(_exp_variation, ("n_max", "r_list"), False),
}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Validate, dispatch, and write the report files."""
    config.validate()
    spec = EXPERIMENTS[config.experiment]
    rows, summary, passed = spec.func(config.params)
    report = ExperimentReport(config, rows, summary, passed)
    report.write()
    return report
