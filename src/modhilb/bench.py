"""Experiment harness: named experiments, configs, deterministic reports.

Each experiment is one function whose keyword-only parameters declare it:
their names are the config keys, their defaults the default values and
their annotations the types; a parameter without a default (the seed of
a randomized experiment) is required.  An experiment binds module
operations together, draws any randomness from a counter-based Philox
generator keyed by the configured seed, and emits a CSV table plus a
JSON summary whose "params" are the complete resolved config.
Re-running an identical config reproduces the CSV byte for byte.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional, get_args, get_origin

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
    if out is None or (kind is int and out != value):
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

def _exp_weyl_scan(*, q_max: int = 60, d_list: tuple[int, ...] = (2,)):
    rows, worst = [], 0.0
    for d in d_list:
        rep = weyl.weyl_orthogonality_scan(q_max, d)
        rows.append({"d": d, "q_max": q_max, "cases": rep["count"],
                     "max_abs": rep["max_abs"]})
        worst = max(worst, rep["max_abs"])
    return rows, {"max_abs": worst, "threshold": 1e-12}, worst < 1e-12


def _exp_hua_fit(*, q_max: int = 200, d: int = 2):
    slope, const = weyl.hua_exponent_fit(q_max, d)
    rows = [{"d": d, "q_max": q_max, "fitted_exponent": slope,
             "max_constant": const}]
    return rows, {"fitted_exponent": slope, "threshold": -0.4}, slope <= -0.4


def _exp_kernel_identity(*, q_max: int = 40, d_list: tuple[int, ...] = (2,)):
    rows = []
    worst_diff = worst_mod = 0.0
    for d in d_list:
        for q in range(1, q_max + 1):
            max_diff = max_mod = 0.0
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                for x in range(q):
                    lhs, rhs = weyl.weyl_kernel_identity(
                        farey.ReducedFraction(a, q), d, x)
                    max_diff = max(max_diff, abs(lhs - rhs))
                    max_mod = max(max_mod, abs(abs(rhs) - 1.0))
            rows.append({"d": d, "q": q, "max_abs_diff": max_diff,
                         "max_modulus_dev": max_mod})
            worst_diff = max(worst_diff, max_diff)
            worst_mod = max(worst_mod, max_mod)
    summary = {"max_abs_diff": worst_diff, "max_modulus_dev": worst_mod,
               "threshold": 1e-10}
    return rows, summary, worst_diff < 1e-10 and worst_mod < 1e-10


def _circle_params(d: int, epsilon: float, kappa: float, C: float,
                   smoothness: int) -> circle.ApproxParams:
    fam = osc.BumpFamily(d=d, smoothness_order=smoothness)
    return circle.ApproxParams(d=d, epsilon=epsilon, kappa=kappa,
                               exponent_C=C, fam=fam)


def _exp_major_arc_error(*, seed: int, j_min: int = 8, j_max: int = 14,
                         d: int = 2, epsilon: float = 0.1, kappa: float = 0.05,
                         C: float = 2.0, Q_max: int = 3,
                         samples_per_box: int = 6, smoothness: int = 2):
    # the C2 family leaves the discretization error visible above the
    # double-precision floor, so the decay slope is measurable
    p = _circle_params(d, epsilon, kappa, C, smoothness)
    rep = circle.major_box_error_sweep(list(range(j_min, j_max + 1)), p, Q_max,
                                       samples_per_box, seed=seed)
    rows = [{"j": j, "sup_error": s}
            for j, s in zip(rep["j_range"], rep["sup_errors"])]
    summary = {"mean_log2_step": rep["mean_log2_step"],
               "fitted_exponent": rep["fitted_exponent"], "threshold": -0.5}
    return rows, summary, rep["mean_log2_step"] <= -0.5


def _exp_ej_decay(*, seed: int, j_min: int = 8, j_max: int = 14, d: int = 2,
                  epsilon: float = 0.1, kappa: float = 0.05, C: float = 2.0,
                  samples: int = 40, smoothness: int = 4):
    p = _circle_params(d, epsilon, kappa, C, smoothness)
    rep = circle.ej_decay_scan(list(range(j_min, j_max + 1)), p, samples,
                               seed=seed)
    rows = [{"j": j, "sup_error": s}
            for j, s in zip(rep["j_range"], rep["sup_errors"])]
    summary = {"monotone_decreasing": rep["monotone_decreasing"],
               "fitted_power": rep["fitted_power"],
               "predicted_power": rep["predicted_power"]}
    return rows, summary, rep["monotone_decreasing"]


def _exp_xj_restricted(*, seed: int, j_lo: int = 6, j_hi: int = 12,
                       d: int = 2, epsilon: float = 0.1, kappa: float = 0.05,
                       C: float = 2.0, n_seeds: int = 5, n_lams: int = 256,
                       N: int = 4096, smoothness: int = 4):
    # X_j at small j covers most of the torus; the grid (n_lams) must be
    # dense enough that some lambdas land outside it
    p = _circle_params(d, epsilon, kappa, C, smoothness)
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
    if input == "delta":
        f = spectral.Signal.delta(0)
    else:
        f = _random_signal(make_rng(seed), N // 4)
    grid = spectral.LambdaGrid(tuple(np.linspace(0.0, 0.9, grid_size)))
    out = spectral.carleson_apply(f, grid, d, J, N)
    rows = [{"x": x, "value": float(out.values[x].real)} for x in range(N)]
    passed = True
    if input == "delta":
        radius = min(2 ** J, N // 2 - 1)
        for x in range(1, radius + 1):
            passed = passed and abs(out.values[x].real - 1.0 / x) < 1e-9
            passed = passed and abs(out.values[N - x].real - 1.0 / x) < 1e-9
        passed = passed and abs(out.values[0]) < 1e-9
    return rows, {"N": N, "J": J, "delta_pattern_checked": input == "delta"}, passed


def _exp_stationary_phase(*, seed: int, d: int = 2, k: int = 40,
                          tol: float = 1e-8, l_min: int = 8, l_max: int = 14,
                          n_xi: int = 50):
    budget = 2 ** 21
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


def _exp_square_function(*, seed: int, d: int = 2, l: int = 2, k_min: int = 2,
                         k_max: int = 3):
    rng = make_rng(seed)
    f = _random_signal(rng, 8)
    out1 = osc.square_function_S_G(f, l, (k_min, k_max), 4, d)
    out2 = osc.square_function_S_G(
        spectral.Signal(f.offset, 2.0 * f.values), l, (k_min, k_max), 4, d)
    dev = float(np.abs(out2.values - 2.0 * out1.values).max())
    rows = [{"x": x, "S_G": float(out1.values[x].real)}
            for x in range(len(out1.values))]
    return rows, {"homogeneity_dev": dev}, dev < 1e-8


def _exp_ttstar(*, seed: int, s_list: tuple[int, ...] = (3, 4, 5), d: int = 2,
                n_pairs: int = 40):
    rep = spectral.ttstar_ratio_scan(s_list, d, n_pairs=n_pairs, seed=seed)
    ratios = rep["max_ratio"]
    rows = [{"s": s, "max_ratio": ratios[s]} for s in sorted(ratios)]
    vals = [ratios[s] for s in sorted(ratios)]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    return rows, {"max_ratio": ratios, "strictly_decreasing": decreasing}, decreasing


def _exp_ergodic(*, seed: int, N: int = 2 ** 12, d: int = 2,
                 J_list: tuple[int, ...] = (4, 8, 16, 32), n_seeds: int = 5,
                 grid_per_interval: int = 4, J_mult: int = 10):
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
    worst = 0.0
    rows = []
    for n in range(2, n_max + 1):
        seqs = np.array(np.meshgrid(*([[-1, 0, 1]] * n),
                                    indexing="ij")).reshape(n, -1).T
        for r in r_list:
            brute = spectral.r_variation_bruteforce(seqs, r)
            dp = np.array([spectral.r_variation(s, r) for s in seqs])
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
    report = ExperimentReport(replace(config, params=params),
                              rows, summary, passed)
    report.write()
    return report
