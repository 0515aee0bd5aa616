"""Tests for the finite-signal engine."""

import cmath
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhilb import spectral
from modhilb.bench import _exp_ttstar
from modhilb.osc import DEFAULT_BUMPS, BumpFamily, psi_j
from modhilb.spectral import (_BLOCK_MIN_TAPS, _SPLIT_MAX_LOOPS,
                              _SPLIT_MIN_RING, LambdaGrid,
                              Signal, _block_symbol, _block_taps,
                              _block_words, _e_neg, _modulated_outputs,
                              _modulated_sup, _partition_taps,
                              _phase, _sharp_taps, _symbol, _tap_table,
                              apply_multiplier, carleson_apply,
                              carleson_direct_oracle, dft, idft,
                              multiplier_M, multiplier_Mj,
                              oscillation_sum, r_variation,
                              r_variation_bruteforce, ttstar_frequency_factor)
from test_weyl import naive_complete_sum


def _every_tap(taps) -> tuple[np.ndarray, np.ndarray]:
    """The odd kernel (pos, w) at every tap: w(m) at m, -w(m) at -m."""
    pos, w = taps
    return (np.concatenate([-pos[::-1], pos]),
            np.concatenate([-w[::-1], w]))


class TestSignal:
    def test_padding_invariant_equality(self):
        a = Signal(0, np.array([0, 1.0, 2.0, 0, 0]))
        b = Signal(1, np.array([1.0, 2.0]))
        assert a == b

    def test_delta(self):
        d = Signal.delta(3)
        # 1 at 3 and 0 at 2: equality ignores zero padding
        assert d == Signal(2, np.array([0.0, 1.0]))
        assert d.support_width == 1


class TestLambdaGrid:
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


def _torus_distance(got: float, exact: Fraction) -> float:
    diff = Fraction(got) - exact
    return abs(float(diff - round(diff)))


# the largest |m| with |m|^d < 2^63
_M_MAX = {2: 3037000499, 3: 2097151, 4: 55108}


class TestPhase:
    @given(st.one_of(
               st.sampled_from([0.0, 1.0, 1.3, -0.3, 1.0 - 2.0 ** -53,
                                2.0 ** -70, 1e-30, 5e-324]),
               st.floats(min_value=-1.0, max_value=1.0),
               st.builds(lambda sign, e: sign * 10.0 ** e,
                         st.sampled_from([-1.0, 1.0]),
                         st.floats(min_value=-320.0, max_value=3.0)),
               st.floats(allow_nan=False, allow_infinity=False)),
           st.sampled_from([2, 3, 4]).flatmap(lambda d: st.tuples(
               st.just(d), st.lists(st.integers(-_M_MAX[d], _M_MAX[d]),
                                    min_size=1, max_size=20))))
    @example(-5e-324, (3, [-_M_MAX[3], -1, 1, _M_MAX[3]]))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_oracle(self, x, d_and_ms):
        d, ms = d_and_ms
        got = _phase(x, np.array(ms, dtype=np.int64), d)
        assert np.all(np.abs(got) <= 0.5)
        for m, g in zip(ms, got.tolist()):
            assert _torus_distance(g, Fraction(x) * m ** d) <= 4.5e-16

    def test_power_bound_is_exact(self):
        _phase(0.3, np.array([-_M_MAX[4]]), 4)
        with pytest.raises(ValueError):
            _phase(0.3, np.array([_M_MAX[4] + 1]), 4)


class TestTabulatedExp:
    def _check(self, t):
        got = _e_neg(t, np.ones(len(t)), np.empty(len(t), dtype=complex))
        for x, g in zip(t.tolist(), got.tolist()):
            assert abs(g - cmath.exp(-2j * math.pi * x)) <= 1.5e-15, x

    def test_table_points_and_their_neighbours(self):
        # the rounding to the nearest k/256 flips at k/256 +- 1/512; the
        # points next to each k/256 exercise a remainder of a few ulp
        t = [0.0, 0.5, -0.5]
        for k in range(-128, 129):
            lo = hi = k / 256
            for _ in range(3):
                lo, hi = math.nextafter(lo, -1.0), math.nextafter(hi, 1.0)
                t += [lo, hi]
        t = np.array([x for x in t if abs(x) <= 0.5])
        self._check(t)

    def test_seeded_uniforms(self):
        rng = np.random.Generator(np.random.Philox(23))
        self._check(rng.uniform(-0.5, 0.5, 10 ** 4))

    def test_weights_scale_each_tap(self):
        rng = np.random.Generator(np.random.Philox(24))
        t, w = rng.uniform(-0.5, 0.5, 64), rng.standard_normal(64)
        out = np.empty(64, dtype=complex)
        assert _e_neg(t, w, out) is out
        assert np.max(np.abs(out - w * np.exp(-2j * np.pi * t))) <= 1.5e-15


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

    @pytest.mark.parametrize("lam, beta", [(0.7310585786300049, 0.1),
                                           (0.123456789, 0.6180339887498949)])
    def test_mj_matches_exact_phases_at_j12_cubic(self, lam, beta):
        # m^3 reaches 2^39 at j = 12: the tap sum with Fraction phases
        m, w = _every_tap(_block_taps(12))
        want = 0j
        for mi, wi in zip(m.tolist(), w.tolist()):
            ph = Fraction(lam) * mi ** 3 + Fraction(beta) * mi
            want += wi * cmath.exp(-2j * cmath.pi * float(ph - math.floor(ph)))
        assert abs(multiplier_Mj(lam, beta, 12, 3) - want) <= 1e-13

    def test_mj_power_beyond_int64_rejected(self):
        # m^5 reaches 2^65 at j = 12
        with pytest.raises(ValueError):
            multiplier_Mj(0.3, 0.1, 12, 5)

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


def _full_table_sum(lam: float, beta: float, m, w, d: int) -> complex:
    """sum_m w(m) e(-lam m^d - beta m) over every tap, phases in Fraction."""
    total = 0j
    for mi, wi in zip(m, w):
        ph = Fraction(lam) * mi ** d + Fraction(beta) * mi
        total += wi * cmath.exp(-2j * cmath.pi * float(ph - math.floor(ph)))
    return total


# lam = 0.7 2^-40 has bits below 2^-64, which _reduce carries apart; the
# last point lies in the major box around (1/3, 2/3) at j = 13
_LAM_BETA = [(0.7310585786300049, 0.1), (0.123456789, 0.6180339887498949),
             (0.5 + 2.0 ** -20, 1.0 / 3.0), (0.0, 0.37), (0.7 * 2.0 ** -40, 0.29),
             (1.0 / 3.0 + 1.3 * 2.0 ** -26, 2.0 / 3.0 - 0.7 * 2.0 ** -13)]


class TestHalfTapSymbol:
    """The symbols sum the positive taps only; the references every tap.

    At d = 2 a table of _BLOCK_MIN_TAPS taps or more is summed in blocks:
    block j = 13 and partition J = 11 are.
    """

    @pytest.mark.parametrize("j, d", [(3, 2), (3, 3), (8, 2), (8, 3), (13, 2)])
    @pytest.mark.parametrize("lam, beta", _LAM_BETA)
    def test_mj_matches_full_table(self, lam, beta, j, d):
        fam = BumpFamily(d=d)
        n = np.arange(2 ** (j - 1), 2 ** (j + 1) + 1)
        m = np.concatenate([-n[::-1], n])
        w = psi_j(m.astype(float), j, fam)
        want = _full_table_sum(lam, beta, m.tolist(), w.tolist(), d)
        assert abs(multiplier_Mj(lam, beta, j, d, fam) - want) <= 1e-13

    @pytest.mark.parametrize("J, d", [(6, 2), (6, 3), (11, 2)],
                             ids=["2", "3", "J11-2"])
    @pytest.mark.parametrize("lam, beta", _LAM_BETA)
    def test_m_matches_full_table(self, lam, beta, J, d):
        n = np.arange(1, 2 ** (J + 1) + 1)
        m = np.concatenate([-n[::-1], n])
        w = sum(psi_j(m.astype(float), j) for j in range(1, J + 1))
        w[np.abs(m) == 1] = 1.0 / m[np.abs(m) == 1]
        want = _full_table_sum(lam, beta, m.tolist(), w.tolist(), d)
        assert abs(multiplier_M(lam, beta, d, J) - want) <= 1e-13

    def test_odd_d_symbol_is_imaginary(self):
        # the pair +-m contributes -2i w(m) sin(2 pi (lam m^3 + beta m))
        assert multiplier_Mj(0.3, 0.7, 6, 3).real == 0.0

    @pytest.mark.parametrize("m0, n", [(1, 1), (1, 512), (7, 513), (1000, 4096),
                                       (3, 4097), (2 ** 20, 9000)])
    def test_block_sum_matches_exp_reference(self, m0, n):
        # a last block of 1..512 taps and a last pass of 1..8 blocks; the
        # reference takes np.exp of each tap's reduced phase
        rng = np.random.Generator(np.random.Philox(25))
        pos = np.arange(m0, m0 + n)
        w = rng.standard_normal(n) / n
        m, wm = _every_tap((pos, w))
        for lam, beta in _LAM_BETA:
            ph = _phase(lam, m, 2) + _phase(beta, m, 1)
            want = (wm * np.exp(-2j * np.pi * ph)).sum()
            assert abs(_block_symbol(lam, beta, (pos, w)) - want) <= 1e-13

    def test_block_path_serves_the_large_tables_only(self):
        # the oracle cases above reach both sums at d = 2
        assert len(_block_taps(8)[0]) < _BLOCK_MIN_TAPS <= len(_block_taps(13)[0])
        assert (len(_partition_taps(6)[0]) < _BLOCK_MIN_TAPS
                <= len(_partition_taps(11)[0]))

    def test_block_words_beyond_int64_rejected(self):
        # two whole blocks of 512 taps: the words stay below (m0 + 1024)^2
        _block_words(_M_MAX[2] - 1024, 1024)
        with pytest.raises(ValueError):
            _block_words(_M_MAX[2] + 1 - 1024, 1024)


class TestCarleson:
    def test_delta_gives_inverse_distance(self):
        N, J = 256, 5
        grid = LambdaGrid(tuple(np.arange(8) / 8))
        out = carleson_apply(Signal.delta(0), grid, 2, J, N)
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
        out_shift = carleson_apply(Signal(f.offset + 7, f.values), grid, 2, J, N)
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

    def test_sharp_matches_direct_oracle_cubic(self):
        # odd d takes the conjugate mirror of the taps
        N, radius = 2 ** 14, 32
        rng = np.random.Generator(np.random.Philox(16))
        f = Signal(5, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        grid = LambdaGrid(tuple(np.sort(rng.random(9))))
        fast = carleson_apply(f, grid, 3, 4, N, kernel="sharp", radius=radius)
        slow = carleson_direct_oracle(f, grid, 3, radius, N)
        assert np.max(np.abs(fast.values - slow.values)) <= 1e-9

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

    def test_partition_radius_is_its_reach(self):
        # the partition kernel reaches 2^(J+1); that radius, or none, is
        # the only one it accepts
        N, J = 256, 5
        f, grid = Signal(2, np.array([1.0, -0.5j, 0.25])), LambdaGrid((0.1, 0.6))
        out = carleson_apply(f, grid, 2, J, N)
        same = carleson_apply(f, grid, 2, J, N, radius=2 ** (J + 1))
        assert np.array_equal(out.values, same.values)
        for radius in (2 ** J, 2 ** (J + 1) - 1, 2 ** (J + 2)):
            with pytest.raises(ValueError, match="partition"):
                carleson_apply(f, grid, 2, J, N, radius=radius)


class TestModulatedOutputs:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("taps", [_block_taps(12), _partition_taps(10),
                                      _sharp_taps(300)],
                             ids=["block", "partition", "sharp"])
    def test_mirrored_taps_change_no_row(self, taps, d):
        # the loop takes phases on the positive taps only; the reference
        # builds each kernel from every tap's phase
        N = 2 ** 14
        rng = np.random.Generator(np.random.Philox(17))
        f = Signal(0, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        lams = rng.random(11).tolist()
        m, w = _every_tap(taps)
        fhat = dft(np.concatenate([f.values, np.zeros(N - 256)]))
        got = list(_modulated_outputs(fhat, lams, taps, d))
        assert len(got) == len(lams)
        for lam, out in zip(lams, got):
            ker = np.zeros(N, dtype=complex)
            np.add.at(ker, m % N, w * np.exp(-2j * np.pi * _phase(lam, m, d)))
            assert np.max(np.abs(out - idft(fhat * dft(ker)))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_wrapping_ring_matches_exp_reference(self, d):
        # block j = 12 reaches |m| = 2^13 on a 4096-point ring, as in
        # acceptance 10: every ring point sums several taps
        N, j = 4096, 12
        rng = np.random.Generator(np.random.Philox(18))
        f = Signal(0, rng.standard_normal(1024) + 1j * rng.standard_normal(1024))
        lams = rng.random(5).tolist()
        m, w = _every_tap(_block_taps(j))
        fhat = dft(np.concatenate([f.values, np.zeros(N - 1024)]))
        got = list(_modulated_outputs(fhat, lams, _block_taps(j), d))
        for lam, out in zip(lams, got):
            ker = np.zeros(N, dtype=complex)
            np.add.at(ker, m % N, w * np.exp(-2j * np.pi * _phase(lam, m, d)))
            assert np.max(np.abs(out - idft(fhat * dft(ker)))) <= 1e-14

    def test_rows_are_independent_arrays(self):
        # oscillation_sum holds its anchor row while it consumes the rest
        rng = np.random.Generator(np.random.Philox(19))
        fhat = dft(np.concatenate([rng.standard_normal(64),
                                   np.zeros(1024 - 64)]))
        outputs = _modulated_outputs(fhat, rng.random(6).tolist(),
                                     _sharp_taps(100), 2)
        first = next(outputs)
        held = first.copy()
        rest = list(outputs)
        assert len(rest) == 5
        assert np.array_equal(first, held)
        assert not any(np.shares_memory(first, row) for row in rest)


class TestModulatedSup:
    """The sup over lambda, its loops split across threads, bit for bit."""

    N = 2 ** 14

    def signal_and_lams(self, n_lams):
        rng = np.random.Generator(np.random.Philox(20))
        f = Signal(0, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        return f, rng.random(n_lams).tolist()

    def record_loops(self, monkeypatch):
        """Record (thread, lambdas taken) of each modulation loop run."""
        loops = []
        loop = spectral._modulated_outputs

        def recording(fhat, lams, taps, d):
            taken = []
            loops.append((threading.get_ident(), taken))

            def tee():
                for lam in lams:
                    taken.append(lam)
                    yield lam

            return loop(fhat, tee(), taps, d)

        monkeypatch.setattr(spectral, "_modulated_outputs", recording)
        return loops

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("taps", [_block_taps(12), _partition_taps(11)],
                             ids=["block-12", "partition-11"])
    @pytest.mark.parametrize("cpus, max_loops, n_lams, n_loops", [
        (1, 2, 7, 1), (2, 2, 7, 2), (3, 2, 7, 2), (3, 3, 7, 3),
        (3, 3, 2, 2)],
        ids=["1-cpu", "2-cpus", "3-cpus-capped", "3-cpus-3-loops",
             "fewer-lambdas-than-cpus"])
    def test_any_cpu_count_gives_the_serial_max(self, monkeypatch, taps, d,
                                                cpus, max_loops, n_lams,
                                                n_loops):
        assert self.N >= _SPLIT_MIN_RING
        assert _SPLIT_MAX_LOOPS == 2
        f, lams = self.signal_and_lams(n_lams)
        fhat = dft(np.concatenate([f.values, np.zeros(self.N - 256)]))
        serial = np.zeros(self.N)
        for out in _modulated_outputs(fhat, lams, taps, d):
            np.maximum(serial, np.abs(out), out=serial)
        monkeypatch.setattr(spectral, "_cpu_count", lambda: cpus)
        # the cap raised, the code runs more loops than were timed
        monkeypatch.setattr(spectral, "_SPLIT_MAX_LOOPS", max_loops)
        loops = self.record_loops(monkeypatch)
        # more threads than this machine's CPUs, switching as often as
        # the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = _modulated_sup(f, lams, taps, d, self.N)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, serial)
        assert len(loops) == n_loops
        # every lambda is taken by exactly one loop
        assert sorted(lam for _, taken in loops for lam in taken) == sorted(lams)
        # the calling thread runs one loop, each other thread one more
        assert len({t for t, _ in loops}) == n_loops
        assert threading.get_ident() in {t for t, _ in loops}

    def test_small_ring_runs_one_loop_in_the_calling_thread(self,
                                                            monkeypatch):
        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        loops = self.record_loops(monkeypatch)
        f, lams = self.signal_and_lams(5)
        _modulated_sup(f, lams, _partition_taps(8), 2, _SPLIT_MIN_RING // 2)
        assert loops == [(threading.get_ident(), lams)]

    def test_worker_exception_propagates_and_no_thread_outlives_the_call(
            self, monkeypatch):
        class WorkerFailure(Exception):
            pass

        caller = threading.get_ident()
        e_neg = spectral._e_neg
        failed = threading.Event()
        caller_lams = []

        def failing_off_the_caller(t, w, out):
            if threading.get_ident() != caller:
                failed.set()
                raise WorkerFailure
            caller_lams.append(t)
            # the caller holds its first lambda until a worker has failed
            # on another, so the worker cannot find the lambdas all taken
            if not failed.wait(timeout=60):
                raise TimeoutError("no worker took a lambda")
            return e_neg(t, w, out)

        monkeypatch.setattr(spectral, "_cpu_count", lambda: 2)
        monkeypatch.setattr(spectral, "_e_neg", failing_off_the_caller)
        f, lams = self.signal_and_lams(4)
        before = threading.active_count()
        with pytest.raises(WorkerFailure):
            carleson_apply(f, LambdaGrid(tuple(sorted(lams))), 2, 11, self.N)
        assert threading.active_count() == before
        # the failed loop emptied the iterator: the caller stopped after
        # the lambda it held, if it took one before the worker, and left
        # the rest untaken
        assert len(caller_lams) <= 1


def _fresh_tables(fam: BumpFamily) -> dict:
    """The three kinds of tap table built here, as (pos, w), from psi_j
    and 1/m, with block j = 12 for the block sum at d = 2."""
    tables = {}
    for kind, j in (("block", 8), ("block-12", 12)):
        pos = np.arange(2 ** (j - 1), 2 ** (j + 1) + 1)
        tables[kind] = (pos, psi_j(pos.astype(float), j, fam))
    pos = np.arange(1, 2 ** 7 + 1)
    w = sum(psi_j(pos.astype(float), j, fam) for j in range(1, 7))
    w[0] = 1.0
    tables["partition"] = (pos, w)
    pos = np.arange(1, 301)
    tables["sharp"] = (pos, 1.0 / pos)
    return tables


def _cached_tables(fam: BumpFamily) -> dict:
    return {"block": _block_taps(8, fam), "block-12": _block_taps(12, fam),
            "partition": _partition_taps(6, fam), "sharp": _sharp_taps(300)}


class TestTapTableCache:
    """Each tap table is built once per key, shared and read-only."""

    FAMS = [DEFAULT_BUMPS, BumpFamily(d=3, smoothness_order=2, c_chi=0.01)]

    @pytest.mark.parametrize("kind", ["block", "partition", "sharp"])
    def test_cached_table_is_read_only(self, kind):
        m, w = _cached_tables(DEFAULT_BUMPS)[kind]
        with pytest.raises(ValueError, match="read-only"):
            m[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            w[-1] *= 2.0

    def test_equal_families_share_a_table(self):
        # psi depends on the smoothness order alone, not on d or c_chi
        for order in (2, 4):
            base = _cached_tables(BumpFamily(d=2, smoothness_order=order))
            for other in (BumpFamily(d=3, smoothness_order=order),
                          BumpFamily(d=2, smoothness_order=order, c_chi=0.05)):
                for kind, taps in _cached_tables(other).items():
                    assert taps is base[kind]
        c2 = _cached_tables(BumpFamily(smoothness_order=2))
        c4 = _cached_tables(BumpFamily(smoothness_order=4))
        assert c2["block"] is not c4["block"]
        assert not np.array_equal(c2["block"][1], c4["block"][1])

    @pytest.mark.parametrize("fam", FAMS, ids=["C4-d2", "C2-d3"])
    def test_cached_table_equals_fresh_build(self, fam):
        _tap_table.cache_clear()
        for _ in ("cold", "warm"):
            cached = _cached_tables(fam)
            for kind, (m, w) in _fresh_tables(fam).items():
                assert np.array_equal(cached[kind][0], m)
                assert np.array_equal(cached[kind][1], w)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("fam", FAMS, ids=["C4-d2", "C2-d3"])
    def test_results_cold_and_warm_bit_identical(self, fam, d):
        rng = np.random.Generator(np.random.Philox(23))
        points = rng.random((5, 2))
        f = Signal(2, rng.standard_normal(40) + 1j * rng.standard_normal(40))
        grid = LambdaGrid(tuple(np.sort(rng.random(6))))
        fresh = _fresh_tables(fam)

        def run():
            return ([multiplier_Mj(lam, beta, j, d, fam) for j in (8, 12)
                     for lam, beta in points]
                    + [multiplier_M(lam, beta, d, 6, fam) for lam, beta in points],
                    [carleson_apply(f, grid, d, 6, 512, fam, kernel=k).values
                     for k in ("partition", "sharp")])

        # cold: no tap table and, at d = 2, no block sum's words cached
        _tap_table.cache_clear()
        _block_words.cache_clear()
        cold = run()
        assert _tap_table.cache_info().currsize == 4
        assert _block_words.cache_info().currsize == (d == 2)
        warm = run()
        assert _tap_table.cache_info().hits > 0
        assert cold[0] == warm[0]
        for a, b in zip(cold[1], warm[1]):
            assert np.array_equal(a, b)
        assert cold[0] == [_symbol(lam, beta, fresh[kind], d)
                           for kind in ("block", "block-12", "partition")
                           for lam, beta in points]


class TestTTStarKs:
    def test_frequency_factor_parseval_diagonal(self):
        # identical fractions: sum_c |R|^2 = 1 at offset 0 (Parseval)
        val = ttstar_frequency_factor((3, 8), (3, 8), 0, 2)
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
        got = ttstar_frequency_factor(aq, apqp, w, d)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("w", [5 + 6 * 10 ** 15, -1, 5 + 6 * 2 ** 70],
                             ids=["6e15", "minus-1", "6*2^70"])
    def test_frequency_factor_depends_on_w_mod_Q(self, w):
        # Q = gcd(12, 18) = 6 and w = 5 mod 6; an unreduced c w lost its
        # precision past 2^53 and wrapped past 2^63
        got = ttstar_frequency_factor((1, 12), (5, 18), w, 2)
        assert got == ttstar_frequency_factor((1, 12), (5, 18), 5, 2)

    @pytest.mark.parametrize("bad", [(2, 4), (5, 3), (1, 0)],
                             ids=["2/4", "5/3", "1/0"])
    def test_frequency_factor_rejects_non_torus_pairs(self, bad):
        # the reduction to gcd(q, q') needs lowest terms with 0 <= a < q
        for aq, apqp in ((bad, (1, 3)), ((1, 3), bad)):
            with pytest.raises(ValueError, match="need"):
                ttstar_frequency_factor(aq, apqp, 0, 2)

    def test_ratio_scan_shape(self):
        _, summary, _ = _exp_ttstar(seed=0, s_list=(2, 3), d=2, n_pairs=8)
        assert set(summary["max_ratio"]) == {2, 3}
        assert all(0.0 <= v <= 1.0 + 1e-9
                   for v in summary["max_ratio"].values())


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

    def test_stack_gives_each_row(self):
        # a (rows, n) stack returns one value per row, as each row alone
        rng = np.random.Generator(np.random.Philox(16))
        stack = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
        for r in (1.0, 2.0, 3.0, math.inf):
            got = r_variation(stack, r)
            assert got.shape == (40,)
            assert got == pytest.approx(
                [r_variation(row, r) for row in stack], rel=1e-15, abs=0.0)
            assert got == pytest.approx(r_variation_bruteforce(stack, r),
                                        abs=1e-12)
        assert isinstance(r_variation(stack[0], 2.0), float)

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
