"""Tests for the finite-signal engine."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhilb.farey import ReducedFraction
from modhilb.osc import DEFAULT_BUMPS
from modhilb.spectral import (LambdaGrid, Signal, apply_multiplier,
                              carleson_apply, carleson_direct_oracle, dft,
                              idft, multiplier_M, multiplier_Mj,
                              oscillation_sum, r_variation,
                              r_variation_bruteforce, ttstar_frequency_factor,
                              ttstar_ratio_scan)
from test_weyl import naive_complete_sum


class TestSignal:
    def test_padding_invariant_equality(self):
        a = Signal(0, np.array([0, 1.0, 2.0, 0, 0]))
        b = Signal(1, np.array([1.0, 2.0]))
        assert a == b

    def test_delta(self):
        d = Signal.delta(3)
        assert d.value_at(3) == 1.0
        assert d.value_at(2) == 0.0
        assert d.support_width == 1

    def test_translate(self):
        f = Signal(0, np.array([1.0, 2.0]))
        assert f.translate(5).value_at(5) == 1.0


class TestLambdaGrid:
    def test_uniform(self):
        g = LambdaGrid.uniform(4)
        assert g.points == (0.0, 0.25, 0.5, 0.75)

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaGrid((0.5, 0.5))
        with pytest.raises(ValueError):
            LambdaGrid((0.1, 1.5))


class TestDft:
    def test_delta_to_ones(self):
        assert np.allclose(dft(np.array([1.0, 0, 0, 0])), 1.0)

    def test_constant_to_scaled_delta(self):
        out = dft(np.ones(8))
        assert out[0] == pytest.approx(8.0)
        assert np.allclose(out[1:], 0.0, atol=1e-12)

    def test_roundtrip_257(self):
        rng = np.random.Generator(np.random.Philox(8))
        v = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        assert np.allclose(idft(dft(v)), v, atol=1e-12)

    def test_sign_convention(self):
        # forward kernel e(-beta n): a pure mode e(n/N) lands at frequency 1
        n = np.arange(16)
        mode = np.exp(2j * np.pi * n / 16)
        out = dft(mode)
        assert abs(out[1]) == pytest.approx(16.0)


class TestApplyMultiplier:
    def test_identity(self):
        f = Signal(0, np.array([1.0, -2.0, 3.0]))
        out = apply_multiplier(f, lambda b: np.ones_like(b), 16)
        assert np.allclose(out.values[:3], f.values)

    def test_modulation_translation(self):
        f = Signal(0, np.array([1.0, 2.0, 0.5]))
        h = 3
        out = apply_multiplier(f, lambda b: np.exp(-2j * np.pi * b * h), 32)
        for x in range(3):
            assert out.values[(x + h) % 32] == pytest.approx(f.values[x])

    def test_ring_too_small_rejected(self):
        f = Signal(0, np.ones(10))
        with pytest.raises(ValueError):
            apply_multiplier(f, lambda b: np.ones_like(b), 16)

    def test_multiplier_must_return_betas_shape(self):
        f = Signal(0, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            apply_multiplier(f, lambda b: 1.0, 16)
        with pytest.raises(ValueError):
            apply_multiplier(f, lambda b: np.ones((len(b), 2)), 16)

    def test_type_error_inside_multiplier_propagates(self):
        # a scalar-only multiplier is a bug in the caller, not a cue to
        # retry it point by point
        f = Signal(0, np.array([1.0, 2.0]))
        with pytest.raises(TypeError):
            apply_multiplier(f, lambda b: math.cos(2.0 * math.pi * b), 16)

    def test_mj_multiplier_matches_convolution_oracle(self):
        # direct double-loop convolution with n -> psi_j(n) e(-lam n^d)
        from modhilb.osc import psi_j

        j, d, lam, ring = 3, 2, 0.3, 128
        rng = np.random.Generator(np.random.Philox(9))
        f = Signal(0, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        out = apply_multiplier(
            f, lambda b: np.array([multiplier_Mj(lam, float(bb), j, d)
                                   for bb in np.atleast_1d(b)]), ring)
        expected = np.zeros(ring, dtype=complex)
        ring_f = np.zeros(ring, dtype=complex)
        ring_f[:8] = f.values
        for n in range(-2 ** (j + 1), 2 ** (j + 1) + 1):
            w = psi_j(float(n), j)
            if w == 0.0:
                continue
            coeff = w * cmath.exp(-2j * cmath.pi * ((lam * n ** d) % 1.0))
            expected += coeff * np.roll(ring_f, n)
        assert np.allclose(out.values, expected, atol=1e-9)

    def test_random_pairs_match_direct_convolution(self):
        rng = np.random.Generator(np.random.Philox(10))
        for N in (64, 257, 512):
            for _ in range(4):
                width = N // 4
                f = Signal(0, rng.standard_normal(width)
                           + 1j * rng.standard_normal(width))
                ker = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                lags = rng.integers(-width, width, size=5)

                def m(b, ker=ker, lags=lags):
                    b = np.asarray(b)
                    return sum(c * np.exp(-2j * np.pi * b * h)
                               for c, h in zip(ker, lags))

                out = apply_multiplier(f, m, N)
                ring_f = np.zeros(N, dtype=complex)
                ring_f[:width] = f.values
                expected = sum(c * np.roll(ring_f, int(h))
                               for c, h in zip(ker, lags))
                assert np.allclose(out.values, expected, atol=1e-9)


class TestMultipliers:
    def test_mj_zero_at_origin(self):
        assert abs(multiplier_Mj(0.0, 0.0, 4, 2)) < 1e-13

    def test_mj_periodicity(self):
        v0 = multiplier_Mj(0.3, 0.7, 4, 2)
        assert multiplier_Mj(1.3, 0.7, 4, 2) == pytest.approx(v0, abs=1e-12)
        assert multiplier_Mj(0.3, 1.7, 4, 2) == pytest.approx(v0, abs=1e-12)

    def test_mj_regression_fixture(self):
        # frozen from an exact-rational-phase direct-summation oracle
        val = multiplier_Mj(0.25, 1.0 / 3.0, 5, 2)
        assert val.real == pytest.approx(0.0002899427366037144, abs=1e-12)
        assert val.imag == pytest.approx(-0.0002580566608997865, abs=1e-12)

    def test_m_zero_at_origin(self):
        assert abs(multiplier_M(0.0, 0.0, 2, 6)) < 1e-12

    def test_m_pure_imaginary_at_lam_zero(self):
        for beta in (0.1, 0.37, 0.82):
            val = multiplier_M(0.0, beta, 2, 6)
            assert abs(val.real) < 1e-12

    def test_m_half_half_fixture(self):
        # (m^2 + m)/2 is always an integer, so every phase is 1 and the
        # odd kernel sums to zero
        assert abs(multiplier_M(0.5, 0.5, 2, 8)) < 1e-12

    def test_m_matches_sharp_kernel_inside_radius(self):
        # the partition reproduces e(.)/m exactly for |m| <= 2^J
        lam, beta, d, J = 0.21, 0.43, 2, 6
        val = multiplier_M(lam, beta, d, J)
        sharp = 0j
        for m in range(1, 2 ** (J + 1) + 1):
            for mm in (m, -m):
                w = sum(2.0 ** -j * DEFAULT_BUMPS.psi(2.0 ** -j * mm)
                        for j in range(1, J + 1)) if abs(mm) > 1 else 1.0 / mm
                sharp += w * cmath.exp(
                    -2j * cmath.pi * ((lam * mm ** d + beta * mm) % 1.0))
        assert val == pytest.approx(sharp, abs=1e-10)


class TestCarleson:
    def test_delta_gives_inverse_distance(self):
        N, J = 256, 5
        out = carleson_apply(Signal.delta(0), LambdaGrid.uniform(8), 2, J, N)
        for x in range(1, 2 ** J + 1):
            assert out.values[x].real == pytest.approx(1.0 / x, abs=1e-9)
            assert out.values[N - x].real == pytest.approx(1.0 / x, abs=1e-9)
        assert abs(out.values[0]) < 1e-9

    def test_single_lambda_zero_is_hilbert_transform(self):
        N, J = 128, 4
        rng = np.random.Generator(np.random.Philox(11))
        f = Signal(0, rng.standard_normal(16) + 0j)
        out = carleson_apply(f, LambdaGrid((0.0,)), 2, J, N)
        ring_f = np.zeros(N, dtype=complex)
        ring_f[:16] = f.values
        expected = np.zeros(N, dtype=complex)
        for m in range(1, 2 ** (J + 1) + 1):
            expected += np.roll(ring_f, m) / m - np.roll(ring_f, -m) / m
        # partition tail differs beyond 2^J; compare via the sharp kernel path
        sharp = carleson_apply(f, LambdaGrid((0.0,)), 2, J, N, kernel="sharp")
        assert np.allclose(sharp.values.real, np.abs(expected), atol=1e-9)

    def test_translation_invariance(self):
        N, J = 128, 4
        rng = np.random.Generator(np.random.Philox(12))
        f = Signal(0, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        grid = LambdaGrid((0.0, 0.25, 0.6))
        out = carleson_apply(f, grid, 2, J, N)
        out_shift = carleson_apply(f.translate(7), grid, 2, J, N)
        assert np.allclose(np.roll(out.values, 7), out_shift.values, atol=1e-9)

    def test_unimodular_invariance(self):
        N, J = 128, 4
        rng = np.random.Generator(np.random.Philox(13))
        f = Signal(0, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        grid = LambdaGrid((0.1, 0.5))
        out = carleson_apply(f, grid, 2, J, N)
        c = cmath.exp(0.7j)
        out_rot = carleson_apply(Signal(0, c * f.values), grid, 2, J, N)
        assert np.allclose(out.values, out_rot.values, atol=1e-9)

    def test_sharp_matches_direct_oracle(self):
        N, J = 128, 4
        rng = np.random.Generator(np.random.Philox(14))
        f = Signal(0, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        grid = LambdaGrid(tuple(np.linspace(0.0, 0.9, 8)))
        fast = carleson_apply(f, grid, 2, J, N, kernel="sharp",
                              radius=2 ** (J + 1))
        slow = carleson_direct_oracle(f, grid, 2, 2 ** (J + 1), N)
        assert np.allclose(fast.values, slow.values, atol=1e-9)

    @pytest.mark.parametrize("d", [2, 3])
    def test_partition_matches_symbol_at_one_lambda(self, d):
        # the partition kernel is the spatial form of multiplier_M
        N, J, lam = 256, 5, 0.37
        rng = np.random.Generator(np.random.Philox(15))
        f = Signal(3, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        out = carleson_apply(f, LambdaGrid((lam,)), d, J, N)
        symbol = apply_multiplier(
            f, lambda betas: np.array([multiplier_M(lam, b, d, J)
                                       for b in betas]), N)
        assert not out.values.imag.any()
        assert np.allclose(out.values.real, np.abs(symbol.values), atol=1e-10)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            carleson_direct_oracle(Signal.delta(0), LambdaGrid(()), 2, 8, 64)


class TestTTStarKs:
    def test_frequency_factor_parseval_diagonal(self):
        # identical fractions: sum_c |R|^2 = 1 at offset 0 (Parseval)
        aq = ReducedFraction(3, 8)
        val = ttstar_frequency_factor(aq, aq, 0, 2)
        assert val == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("aq, apqp, w, d", [
        pytest.param((3, 8), (5, 12), 1, 2, id="3/8-5/12"),
        pytest.param((5, 16), (3, 28), 3, 2, id="5/16-3/28"),
        pytest.param((1, 9), (2, 27), 4, 3, id="1/9-2/27-cubic"),
    ])
    def test_frequency_factor_off_diagonal(self, aq, apqp, w, d):
        # distinct denominators and w != 0, the pairs the ratio scan
        # draws: the docstring formula summed directly
        (a, q), (ap, qp) = aq, apqp
        Q = math.gcd(q, qp)
        want = sum(naive_complete_sum(a, c * (q // Q), q, d)
                   * naive_complete_sum(ap, c * (qp // Q), qp, d).conjugate()
                   * cmath.exp(2j * cmath.pi * c * w / Q) for c in range(Q))
        assert abs(want) > 0.1
        got = ttstar_frequency_factor(ReducedFraction(a, q),
                                      ReducedFraction(ap, qp), w, d)
        assert got == pytest.approx(want, abs=1e-12)

    def test_ratio_scan_shape(self):
        rep = ttstar_ratio_scan([2, 3], 2, n_pairs=8, seed=0)
        assert set(rep["max_ratio"]) == {2, 3}
        assert all(0.0 <= v <= 1.0 + 1e-9 for v in rep["max_ratio"].values())


class TestRVariation:
    def test_constant(self):
        assert r_variation([1.0, 1.0, 1.0], 2.0) == 0.0

    def test_zigzag_r1(self):
        assert r_variation([0, 1, 0, 1], 1.0) == pytest.approx(3.0)

    def test_zigzag_r2(self):
        # exhaustive enumeration oracle over all 2^4 subsequences
        assert r_variation([0, 1, 0, 1], 2.0) == pytest.approx(math.sqrt(3.0))

    def test_r_infinity_diameter(self):
        assert r_variation([0, 5, 2, -1], math.inf) == pytest.approx(6.0)

    def test_r_below_one_rejected(self):
        with pytest.raises(ValueError):
            r_variation([0, 1], 0.5)

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1,
                    max_size=9),
           st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
    @settings(max_examples=80, deadline=None)
    def test_dp_matches_bruteforce(self, seq, r):
        assert r_variation(seq, r) == pytest.approx(
            r_variation_bruteforce([seq], r)[0], abs=1e-10)

    @given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2,
                    max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_r(self, seq):
        vals = [r_variation(seq, r) for r in (1.0, 2.0, 4.0, math.inf)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10

    def test_length_twelve_dp_equals_enumeration(self):
        rng = np.random.Generator(np.random.Philox(15))
        seq = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for r in (1.0, 2.0, math.inf):
            assert r_variation(seq, r) == pytest.approx(
                r_variation_bruteforce([seq], r)[0], abs=1e-10)


class TestOscillationSum:
    def test_zero_signal(self):
        f = Signal(0, np.zeros(8))
        intervals = [(0.25, 0.5, 0.5), (0.125, 0.25, 0.25)]
        assert oscillation_sum(f, intervals, 2, 2, 5, 64) == 0.0

    def test_single_anchor_grid(self):
        # with one grid point at the anchor, the difference vanishes
        rng = np.random.Generator(np.random.Philox(16))
        f = Signal(0, rng.standard_normal(8) + 0j)
        val = oscillation_sum(f, [(0.25, 0.5, 0.5)], 1, 2, 5, 64)
        assert val < 1e-20

    def test_constant_input_annihilated(self):
        # for d even the kernel e(-lam m^d)/m is odd in m, so it sums to
        # zero and every C_lam maps a constant on the ring to 0
        N = 256
        f = Signal(0, np.ones(N))
        intervals = [(2.0 ** -6, 2.0 ** -4, 2.0 ** -4),
                     (2.0 ** -8, 2.0 ** -6, 2.0 ** -6)]
        assert oscillation_sum(f, intervals, 2, 2, 10, N) < 1e-18

    def test_oscillation_falls_along_the_dyadic_schedule(self):
        # C_lam f converges as lam -> 0: the oscillation over each
        # interval (2^(-2(j+1)), 2^(-2j)] falls as j grows
        N = 1024
        rng = np.random.Generator(np.random.Philox(21))
        vals = rng.standard_normal(N)
        f = Signal(0, vals - vals.mean())
        sums = [oscillation_sum(f, [(2.0 ** (-2 * j - 2), 2.0 ** (-2 * j),
                                     2.0 ** (-2 * j))], 2, 2, 10, N)
                for j in range(1, 8)]
        assert np.all(np.diff(sums) < 0)

    def test_malformed_intervals_rejected(self):
        f = Signal(0, np.ones(4))
        with pytest.raises(ValueError):
            oscillation_sum(f, [(0.5, 0.25, 0.3)], 2, 2, 5, 64)
        with pytest.raises(ValueError):
            oscillation_sum(f, [(0.125, 0.25, 0.25), (0.25, 0.5, 0.5)], 2, 2,
                            5, 64)

    def test_schedule_validation(self):
        # the dyadic schedule lam = 2^(-d j) must run toward 0 in disjoint
        # intervals, each sampled by at least one grid point
        f = Signal(0, np.ones(64))
        dyadic = [(2.0 ** -8, 2.0 ** -6, 2.0 ** -6),
                  (2.0 ** -10, 2.0 ** -8, 2.0 ** -8)]
        assert oscillation_sum(f, dyadic, 2, 2, 5, 64) < 1e-18
        with pytest.raises(ValueError):
            oscillation_sum(f, dyadic[::-1], 2, 2, 5, 64)
        with pytest.raises(ValueError):
            oscillation_sum(f, [(2.0 ** -8, 2.0 ** -6, 2.0 ** -6),
                                (2.0 ** -9, 2.0 ** -7, 2.0 ** -7)], 2, 2, 5, 64)
        with pytest.raises(ValueError):
            oscillation_sum(f, dyadic, 0, 2, 5, 64)
