"""End-to-end acceptance suite.

Each test pins one headline quantitative property of the toolkit with an
explicit tolerance and a wall-clock budget.  Thresholds are deliberately
looser than the asymptotic predictions they probe; they are meant to
fail loudly on regressions, not to certify constants.
"""

import math
import time

import numpy as np

from modhilb import bench, spectral, weyl
from modhilb.spectral import LambdaGrid, Signal
from oracles import r_variation_bruteforce


def timed(budget_seconds):
    """Assert the wrapped body finishes inside its wall-clock budget."""
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                elapsed = time.monotonic() - self.start
                assert elapsed < budget_seconds, (
                    f"runtime {elapsed:.1f}s exceeds budget {budget_seconds}s")
    return _Timer()


def test_01_weyl_orthogonality_exhaustive():
    # every admissible sum with gcd(a, q) > 1 vanishes identically
    with timed(30):
        rows, summary, passed = bench._exp_weyl_scan(q_max=60, d_list=(2, 3))
        for row in rows:
            assert row["max_abs"] < 1e-12, row
        assert passed


def test_02_gauss_sum_magnitude_primes():
    # |S(a/p, 0)| = p^(-1/2) for all primes p <= 101 and a coprime
    def is_prime(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))

    with timed(5):
        for p in filter(is_prime, range(2, 102)):
            if p == 2:
                continue  # S(1/2, 0) = 0: the square-root law is odd-prime only
            for a in range(1, p):
                val = abs(weyl.complete_weyl_sum(weyl.WeylTriple(a, 0, p, 2)))
                assert abs(val - p ** -0.5) < 1e-12, (p, a, val)


def test_03_kernel_identity_exhaustive():
    with timed(60):
        rows, summary, passed = bench._exp_kernel_identity(q_max=40,
                                                           d_list=(2, 3))
        assert len(rows) == 2 * 40
        for row in rows:
            assert row["max_abs_diff"] < 1e-10, row
            assert row["max_modulus_dev"] < 1e-12, row
        assert passed


def test_04_hua_exponent():
    with timed(120):
        rows, summary, passed = bench._exp_hua_fit(q_max=200)
        assert summary["fitted_exponent"] <= -0.4, summary
        assert passed


def test_05_major_box_approximation_decay():
    # C2 bumps keep the discretization error visible above the float
    # floor; the experiment's quadrature at 1e-12 keeps it above the
    # quadrature floor
    with timed(600):
        rows, summary, passed = bench._exp_major_arc_error(
            seed=7, j_min=8, j_max=14, d=2, epsilon=0.1, Q_max=3,
            samples_per_box=6, smoothness=2)
        assert summary["mean_log2_step"] <= -0.5, (summary, rows)
        assert passed


def test_06_error_multiplier_decay():
    # sup |E_j| decreases on its 3-point moving average
    with timed(600):
        rows, summary, passed = bench._exp_ej_decay(
            seed=3, j_min=8, j_max=14, d=2, samples=40)
        assert summary["monotone_decreasing"] is True, (summary, rows)
        assert passed


def test_07_oracle_equivalence():
    with timed(60):
        rng = bench.make_rng(4, stream=0)
        # 100 random (f, multiplier) pairs: FFT path vs direct convolution
        worst = 0.0
        for _ in range(100):
            N = int(rng.choice([64, 257, 512]))
            width = N // 4
            f = Signal(0, rng.standard_normal(width)
                       + 1j * rng.standard_normal(width))
            coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lags = rng.integers(-width, width, size=4)

            def m(b, coeffs=coeffs, lags=lags):
                b = np.asarray(b)
                return sum(c * np.exp(-2j * np.pi * b * h)
                           for c, h in zip(coeffs, lags))

            out = spectral.apply_multiplier(f, m, N)
            ring = np.zeros(N, dtype=complex)
            ring[:width] = f.values
            direct = sum(c * np.roll(ring, int(h))
                         for c, h in zip(coeffs, lags))
            worst = max(worst, float(np.abs(out.values - direct).max()))
        assert worst < 1e-9, worst

        # Carleson FFT path vs the direct oracle, radius-matched
        N, J = 512, 7
        radius = 2 ** (J + 1)
        f = Signal(0, rng.standard_normal(N // 4)
                   + 1j * rng.standard_normal(N // 4))
        grid = LambdaGrid(tuple(np.sort(rng.uniform(0.0, 1.0, 32))))
        fast = spectral.carleson_apply(f, grid, 2, J, N, kernel="sharp",
                                       radius=radius)
        slow = spectral.carleson_direct_oracle(f, grid, 2, radius, N)
        diff = float(np.abs(fast.values - slow.values).max())
        assert diff < 1e-9, diff


def test_08_stationary_phase_split():
    with timed(600):
        rows, summary, passed = bench._exp_stationary_phase(
            seed=2, n_xi=50, l_min=8, l_max=14, tol=1e-8)
        assert summary["max_recon_error"] < summary["recon_threshold"], summary
        assert abs(summary["peak_exponent"] + 0.5) <= 0.15, summary
        assert passed


def test_09_ttstar_ratio_decreasing():
    with timed(300):
        rows, summary, passed = bench._exp_ttstar(
            seed=0, s_list=(3, 4, 5), d=2, n_pairs=40)
        vals = [summary["max_ratio"][s] for s in (3, 4, 5)]
        assert vals[0] > vals[1] > vals[2], vals
        assert passed


def test_10_outside_xj_decay():
    with timed(300):
        rows, summary, passed = bench._exp_xj_restricted(
            seed=11, n_seeds=5, j_lo=6, j_hi=12)
        for row in rows:
            assert row["norm_hi"] < row["norm_lo"], row
        assert passed


def test_11_r_variation_dp_equals_enumeration():
    with timed(60):
        for n in range(2, 9):
            seqs = np.array(np.meshgrid(*([[-1, 0, 1]] * n),
                                        indexing="ij")).reshape(n, -1).T
            per_r = {}
            for r in (1.0, 2.0, 3.0, math.inf):
                brute = r_variation_bruteforce(seqs, r)
                dp = spectral.r_variation(seqs, r)
                assert float(np.abs(brute - dp).max()) < 1e-12, (n, r)
                per_r[r] = dp
            # monotone in r on every sequence
            order = [1.0, 2.0, 3.0, math.inf]
            for lo, hi in zip(order, order[1:]):
                assert np.all(per_r[hi] <= per_r[lo] + 1e-12), (n, lo, hi)


def test_12_ergodic_oscillation_growth():
    with timed(600):
        rows, summary, passed = bench._exp_ergodic(
            seed=9, N=2 ** 12, J_list=[4, 8, 16, 32], n_seeds=5)
        assert summary["max_exponent"] < 0.9, summary
        assert passed


def test_13_example_suite_is_green():
    # the TRIVIAL examples are asserted verbatim in the per-module test
    # files and the DERIVED fixtures there were frozen from the named
    # oracles; this placeholder keeps that guarantee visible in this
    # suite's output
    import test_bench  # noqa: F401
    import test_circle  # noqa: F401
    import test_farey  # noqa: F401
    import test_osc  # noqa: F401
    import test_spectral  # noqa: F401
    import test_weyl  # noqa: F401
