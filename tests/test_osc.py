"""Tests for bump families and oscillatory quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from modhilb import osc
from modhilb.osc import (DEFAULT_BUMPS, BumpFamily, G_hat_direct, H_j,
                         PhaseContext, QuadratureError, _PolynomialPhase,
                         oscillatory_quadrature, psi_j, stationary_phase_split)
from modhilb.spectral import Signal, square_function_S_G


GRID = np.linspace(-20.0, 20.0, 1001)
# the zero phase, and the phase t of e(t)
ZERO = _PolynomialPhase(0.0, 0.0, 2)
LINEAR = _PolynomialPhase(0.0, -1.0, 2)


class TestBumpFamily:
    def test_eta_plateau_and_support(self):
        fam = DEFAULT_BUMPS
        x = np.linspace(-1.0, 1.0, 101)
        assert np.allclose(fam.eta(x), 1.0)
        x = np.array([-3.0, -2.0, 2.0, 2.5])
        assert np.allclose(fam.eta(x), 0.0)

    def test_eta_even_and_monotone_band(self):
        fam = DEFAULT_BUMPS
        x = np.linspace(0.0, 3.0, 301)
        assert np.allclose(fam.eta(x), fam.eta(-x))
        band = np.linspace(1.0, 2.0, 200)
        vals = fam.eta(band)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_psi_odd(self):
        fam = DEFAULT_BUMPS
        assert np.allclose(np.asarray(fam.psi(GRID)) + np.asarray(fam.psi(-GRID)),
                           0.0, atol=1e-15)

    def test_psi_support(self):
        fam = DEFAULT_BUMPS
        t = np.linspace(-10.0, 10.0, 2001)
        vals = np.asarray(fam.psi(t))
        outside = (np.abs(t) < 0.5 - 1e-9) | (np.abs(t) > 2.0 + 1e-9)
        assert np.allclose(vals[outside], 0.0)

    def test_kernel_partition_identity(self):
        # sum_j 2^-j psi(2^-j x) = 1/x for |x| >= 4, truncated near log2|x|
        fam = DEFAULT_BUMPS
        for x in np.concatenate([np.linspace(4.0, 300.0, 61),
                                 -np.linspace(4.0, 300.0, 61)]):
            j0 = round(math.log2(abs(x)))
            total = sum(psi_j(x, j, fam) for j in range(max(1, j0 - 3), j0 + 4))
            assert abs(total - 1.0 / x) < 1e-12

    def test_theta_partition_of_unity(self):
        # theta(t) = t psi(t) = eta(t) - eta(2t) telescopes over 2^j t
        fam = DEFAULT_BUMPS
        for xi in np.concatenate([np.logspace(-3, 3, 101),
                                  -np.logspace(-3, 3, 101)]):
            j0 = round(math.log2(abs(xi)))
            total = sum(u * fam.psi(u) for u in
                        (math.ldexp(abs(xi), j) * math.copysign(1, xi)
                         for j in range(-j0 - 4, -j0 + 5)))
            assert abs(total - 1.0) < 1e-12

    def test_chi_sandwich(self):
        fam = DEFAULT_BUMPS
        c = fam.c_chi
        xi = np.linspace(-3 * c, 3 * c, 400)
        vals = np.asarray(fam.chi(xi))
        assert np.all(vals[np.abs(xi) <= c] >= 1.0 - 1e-15)
        assert np.all(vals[np.abs(xi) >= 2 * c] <= 1e-15)
        assert np.all((0.0 <= vals) & (vals <= 1.0 + 1e-15))

    def test_smoothness_order_validation(self):
        with pytest.raises(ValueError):
            BumpFamily(d=2, smoothness_order=1)
        with pytest.raises(ValueError):
            BumpFamily(d=1)

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_psi_is_the_two_smoothstep_quotient(self, order):
        # psi takes one smoothstep where (eta(t) - eta(2t))/t takes two;
        # they agree bit for bit because S(0) = 0 and S(1) = 1 exactly
        fam = BumpFamily(smoothness_order=order)
        assert fam._smoothstep(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]
        t = np.union1d(np.linspace(-2.5, 2.5, 20001),
                       [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        a = np.abs(t)
        num = fam._smoothstep(2.0 * a - 1.0) - fam._smoothstep(a - 1.0)
        quotient = np.divide(num, t, out=np.zeros_like(t), where=t != 0.0)
        assert np.array_equal(fam.psi(t), quotient)

    def test_xi0_radius(self):
        fam = BumpFamily(d=2)
        assert fam.xi0(0.0) == 1.0
        assert fam.xi0(1.0 / (8 * 2)) == 1.0
        assert fam.xi0(1.0 / (4 * 2)) == 0.0


class TestPsiJ:
    def test_zero_at_origin(self):
        assert psi_j(0.0, 4) == 0.0

    def test_dilation_identity(self):
        for j in (1, 3, 7):
            assert psi_j(float(2 ** j), j) == pytest.approx(
                2.0 ** -j * DEFAULT_BUMPS.psi(1.0))

    def test_integral_vanishes(self):
        # psi_j(., 3) has its joints at +-4, +-8 and +-16
        val = oscillatory_quadrature(ZERO, lambda t: psi_j(t, 3),
                                     (-16.0, -8.0, -4.0, 4.0, 8.0, 16.0))
        assert abs(val) < 1e-10

    def test_support(self):
        j = 5
        t = np.array([2.0 ** (j - 1) / 2, 2.0 ** (j + 2)])
        assert psi_j(float(t[0]), j) == 0.0
        assert psi_j(float(t[1]), j) == 0.0


# supp psi with psi's joints, where it is smooth between the points
PSI_SUPPORT = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


class TestOscillatoryQuadrature:
    def test_odd_amplitude_zero_phase(self):
        val = oscillatory_quadrature(ZERO, DEFAULT_BUMPS.psi, PSI_SUPPORT)
        assert abs(val) < 1e-10

    def test_abs_psi_matches_riemann_oracle(self):
        # 10^6-point midpoint Riemann oracle; the value is 2 log 2
        val = oscillatory_quadrature(
            ZERO, lambda t: np.abs(DEFAULT_BUMPS.psi(t)), PSI_SUPPORT)
        assert val.real == pytest.approx(1.3862943611198904, abs=1e-9)
        assert abs(val.imag) < 1e-12

    def test_linear_phase_is_fourier_transform(self):
        # e(t) against an even bump equals its Fourier transform at -1,
        # cross-checked against a fine-grid oracle
        fam = DEFAULT_BUMPS
        n = 2 ** 20
        t = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
        oracle = np.sum(np.exp(2j * np.pi * t) * fam.eta(t)) * (4.0 / n)
        # eta's joints at +-1
        val = oscillatory_quadrature(LINEAR, fam.eta, (-2.0, -1.0, 1.0, 2.0))
        assert val == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("Y", [1000.3, -1000.3, 37.7, 2.0 ** 14 + 0.3,
                                   -(2.0 ** 14 + 0.3)])
    def test_linear_phase_closed_form_at_many_cycles(self, Y):
        # int_{1/2}^2 e(Y t) dt = (e(2Y) - e(Y/2)) / (2 pi i Y), over
        # 1500 cycles at |Y| = 1000.3 and 24576 at 2^14 + 0.3; 2Y and Y/2
        # are exact, and so is their reduction mod 1, so the closed form
        # is good to about eps at any Y, and the bound is the rule's own
        # round-off, which a float phase exceeds there
        def e(x):
            return np.exp(2j * np.pi * (x - round(x)))

        exact = (e(2.0 * Y) - e(0.5 * Y)) / (2j * np.pi * Y)
        val = oscillatory_quadrature(_PolynomialPhase(0.0, -Y, 2), np.ones_like,
                                     (0.5, 2.0))
        assert abs(val - exact) <= 1e-15

    def test_memory_does_not_grow_with_the_frequency(self):
        # some 3.3e4 cycles; the rule takes its panels 4096 at a time,
        # where all of them at once would take some 36 MB
        phase = _PolynomialPhase(1.37 * 2.0 ** 12, -1.9 * 2.0 ** 12, 3)
        tracemalloc.start()
        try:
            oscillatory_quadrature(phase, DEFAULT_BUMPS.psi, (0.5, 1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20

    def test_empty_interval(self):
        assert oscillatory_quadrature(LINEAR, lambda t: t, (1.0, 1.0)) == 0j

    def test_breakpoints_start_as_panel_edges(self):
        # the C^2 psi is a different polynomial over t on either side of
        # its joint at 1; int psi over [1/2, 2] is log 2 (Frullani)
        fam = BumpFamily(d=2, smoothness_order=2)
        cut = oscillatory_quadrature(ZERO, fam.psi, (0.5, 1.0, 2.0))
        assert abs(cut - math.log(2.0)) <= 1e-14


class TestHj:
    def test_origin_vanishes(self):
        assert abs(H_j(0.0, 0.0, 6, 2)) < 1e-10

    def test_conjugation_symmetry_even_d(self):
        rng = np.random.Generator(np.random.Philox(2))
        for _ in range(6):
            x = float(rng.uniform(-1, 1)) * 2.0 ** -12
            y = float(rng.uniform(-1, 1)) * 2.0 ** -6
            lhs = np.conj(H_j(x, y, 6, 2))
            rhs = -H_j(-x, y, 6, 2)
            assert abs(lhs - rhs) < 1e-9

    def test_magnitude_bound(self):
        # |H_j| <= int |psi_j| = int |psi| = 2 log 2
        for x, y in ((1e-4, 1e-2), (0.0, 0.3), (2e-3, 0.0)):
            assert abs(H_j(x, y, 5, 2)) <= 2.0 * math.log(2.0) + 1e-9

    def test_stationary_phase_decay_along_ray(self):
        # |H_j(2^-dj u, 2^-j v)| ~ (1 + |u| + |v|)^(-1/2) along a ray
        j, d = 8, 2
        us = np.array([4.0, 16.0, 64.0, 256.0])
        vals = np.array([abs(H_j(u * 2.0 ** (-d * j), 2.0 * u * 2.0 ** -j, j, d))
                         for u in us])
        slopes = np.diff(np.log(vals)) / np.diff(np.log(us))
        assert np.all(slopes < -0.3)
        assert np.all(slopes > -1.2)


class TestPhaseContext:
    def test_slab_validation(self):
        with pytest.raises(ValueError):
            PhaseContext(2, 4, 3, 1.0)  # lam outside [2^-5, 2^-4)
        ctx = PhaseContext(2, 4, 3, 1.5 * 2.0 ** -5)
        assert ctx.lam2kd == pytest.approx(1.5 * 2.0 ** 3)

    def test_regime_condition(self):
        with pytest.raises(ValueError):
            PhaseContext(2, 2, 10, 1.0 * 2.0 ** 6, regime_C=2.0)


class TestCriticalPoint:
    def test_even_d_single_root(self):
        # d lam 2^(k(d-1)) t = -xi with lam 2^(2k) = 2^l gives t = 1/2
        d, k, l = 2, 5, 3
        lam = math.ldexp(1.0, l - d * k)
        ctx = PhaseContext(d, k, l, lam)
        roots = osc._g_phase(ctx, -math.ldexp(1.0, l - k)).critical_points
        assert roots == [pytest.approx(0.5)]

    def test_odd_d_root_count(self):
        d, k, l = 3, 4, 2
        lam = math.ldexp(1.0, l - d * k)
        ctx = PhaseContext(d, k, l, lam)
        assert len(osc._g_phase(ctx, -1.0).critical_points) == 2
        assert len(osc._g_phase(ctx, 1.0).critical_points) == 0

    def test_defining_equation_and_derivative_identity(self):
        d, k, l = 2, 6, 4
        lam = 1.3 * math.ldexp(1.0, l - d * k)
        ctx = PhaseContext(d, k, l, lam)
        coeff = d * math.ldexp(lam, k * (d - 1))
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(10):
            xi = float(rng.uniform(0.2, 4.0)) * math.ldexp(1.0, l - k)
            xi *= 1 if rng.random() < 0.5 else -1
            (t,) = osc._g_phase(ctx, xi).critical_points
            assert abs(coeff * t ** (d - 1) + xi) <= 1e-12 * abs(xi)
            h = 1e-6 * abs(xi)
            (tp,) = osc._g_phase(ctx, xi + h).critical_points
            (tm,) = osc._g_phase(ctx, xi - h).critical_points
            fd = (tp - tm) / (2 * h)
            # implicit differentiation of the defining equation gives
            # t'(xi) = t / ((d - 1) xi)
            assert fd == pytest.approx(t / ((d - 1) * xi), rel=1e-5)

    def test_unit_scale_roots(self):
        # |t(xi)| is about 1 when |xi| is about 2^(l-k)
        d, k, l = 2, 8, 5
        lam = math.ldexp(1.0, l - d * k)
        ctx = PhaseContext(d, k, l, lam)
        (t,) = osc._g_phase(ctx, -2.0 * math.ldexp(1.0, l - k)).critical_points
        assert 0.5 <= abs(t) <= 2.0


class TestGHat:
    def test_cutoff_vanishes(self):
        d, k, l = 2, 10, 4
        ctx = PhaseContext(d, k, l, math.ldexp(1.0, l - d * k))
        xi = 100.0 * math.ldexp(1.0, l - k)  # far outside supp zeta(2^(k-l) .)
        assert G_hat_direct(xi, ctx) == 0j

    def test_l_zero_matches_fine_grid_oracle(self):
        d, k = 2, 6
        ctx = PhaseContext(d, k, 0, math.ldexp(1.0, -d * k))
        xi = 0.7 * math.ldexp(1.0, -k)
        fam = DEFAULT_BUMPS
        n = 2 ** 20
        t = -2.0 + (np.arange(n) + 0.5) * (4.0 / n)
        phase = -(ctx.lam2kd * t ** d + math.ldexp(xi, k) * t)
        oracle = (np.sum(np.exp(2j * np.pi * phase) * fam.psi(t)) * (4.0 / n)
                  * fam.zeta(math.ldexp(xi, k)))
        assert G_hat_direct(xi, ctx) == pytest.approx(oracle, abs=1e-8)

    def test_modulus_bound(self):
        d, k, l = 2, 8, 3
        ctx = PhaseContext(d, k, l, 1.2 * math.ldexp(1.0, l - d * k))
        xi = -1.1 * math.ldexp(1.0, l - k)
        assert abs(G_hat_direct(xi, ctx)) <= 2.0 * math.log(2.0) + 1e-9


class TestStationaryPhaseSplit:
    def test_reconstruction_even_d(self):
        d, k, l = 2, 12, 6
        rng = np.random.Generator(np.random.Philox(4))
        for _ in range(5):
            lam = float(rng.uniform(1.0, 2.0)) * math.ldexp(1.0, l - d * k)
            ctx = PhaseContext(d, k, l, lam)
            xi = float(rng.uniform(0.3, 3.0)) * math.ldexp(1.0, l - k)
            xi *= 1 if rng.random() < 0.5 else -1
            a_hat, b_plus, b_minus = stationary_phase_split(xi, ctx)
            assert b_minus is None
            direct = G_hat_direct(xi, ctx)
            assert abs(a_hat + b_plus - direct) < 1e-9

    def test_reconstruction_odd_d(self):
        d, k, l = 3, 8, 5
        lam = 1.4 * math.ldexp(1.0, l - d * k)
        ctx = PhaseContext(d, k, l, lam)
        xi = -1.2 * math.ldexp(1.0, l - k)
        a_hat, b_plus, b_minus = stationary_phase_split(xi, ctx)
        assert b_minus is not None
        direct = G_hat_direct(xi, ctx)
        assert abs(a_hat + b_plus + b_minus - direct) < 1e-9
        # positive xi: no critical point, whole symbol in A_hat
        a2, bp2, bm2 = stationary_phase_split(abs(xi), ctx)
        assert bp2 == 0j and bm2 == 0j
        assert abs(a2 - G_hat_direct(abs(xi), ctx)) < 1e-12

    def test_outside_zeta_support(self):
        d, k, l = 2, 10, 4
        ctx = PhaseContext(d, k, l, math.ldexp(1.0, l - d * k))
        a_hat, b_plus, b_minus = stationary_phase_split(
            100.0 * math.ldexp(1.0, l - k), ctx)
        assert a_hat == 0j and b_plus == 0j and b_minus is None


class TestSquareFunction:
    def test_zero_input(self):
        f = Signal(0, np.zeros(4))
        out = square_function_S_G(f, 2, (2, 2), 4, 2)
        assert np.allclose(out.values, 0.0)

    def test_homogeneity(self):
        rng = np.random.Generator(np.random.Philox(6))
        f = Signal(0, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        out1 = square_function_S_G(f, 2, (2, 3), 3, 2)
        out2 = square_function_S_G(Signal(0, 2.0 * f.values), 2, (2, 3), 3, 2)
        assert np.allclose(out2.values, 2.0 * out1.values, atol=1e-9)

    def test_single_slab_single_point_hand_assembly(self):
        # reduces to 2^(dk/2) slab_width^(1/2) |G_lam * f|
        from modhilb.spectral import apply_multiplier

        d, l, k = 2, 2, 2
        rng = np.random.Generator(np.random.Philox(7))
        f = Signal(0, rng.standard_normal(5) + 0j)
        out = square_function_S_G(f, l, (k, k), 1, d)
        slab_lo = math.ldexp(1.0, l - d * k)
        ctx = PhaseContext(d, k, l, slab_lo)

        def symbol(betas):
            res = np.zeros(len(betas), dtype=complex)
            for i, b in enumerate(betas):
                res[i] = G_hat_direct(float(b - round(b)), ctx)
            return res

        ring = len(out.values)
        conv = apply_multiplier(f, symbol, ring)
        expected = (math.ldexp(1.0, d * k) * slab_lo) ** 0.5 * np.abs(conv.values)
        assert np.allclose(np.abs(out.values), expected, atol=1e-8)


def _psi_oracle(phase, fam=DEFAULT_BUMPS, weight=None, breakpoints=()):
    """int e(phase) psi weight over supp psi by the reference quadrature,
    with psi's joints and the weight's breakpoints as piece edges."""
    def amp(t):
        base = fam.psi(t)
        return base if weight is None else base * weight(t)

    cuts = [-1.0, 1.0, *breakpoints]
    return sum(oscillatory_quadrature(
        phase, amp, sorted({a, b, *(c for c in cuts if a < c < b)}))
        for a, b in ((-2.0, -0.5), (0.5, 2.0)))


class TestLevinAgainstGaussKronrod:
    """The symbol integrals against oscillatory_quadrature, the one
    reference: composite Gauss-Legendre with its nodes and phase in
    double-double (the class keeps the name of the Gauss-Kronrod rule
    that it replaced, so its tests keep their ids)."""

    TOL = 1e-10

    def _check_symbol(self, xi, ctx):
        fam = BumpFamily(d=ctx.d)
        zf = fam.zeta(math.ldexp(xi, ctx.k - ctx.l))
        phase = _PolynomialPhase(ctx.lam2kd, math.ldexp(xi, ctx.k), ctx.d)
        direct = G_hat_direct(xi, ctx, fam, self.TOL)
        assert abs(direct - zf * _psi_oracle(phase, fam)) < self.TOL
        split = stationary_phase_split(xi, ctx, fam, self.TOL)
        roots = osc._g_phase(ctx, xi).critical_points
        windows = [lambda t, r=r: fam.xi0(t - r) for r in roots]
        weights = [lambda t: 1.0 - sum(w(t) for w in windows)] + windows
        # xi0(s) = eta(8 d s) has its joints at |s| = 1/(8d), 2/(8d)
        joints = [r + u / (8.0 * ctx.d) for r in roots
                  for u in (-2.0, -1.0, 1.0, 2.0)]
        assert all(p in (0j, None) for p in split[len(weights):])
        for part, weight in zip(split, weights):
            expect = zf * _psi_oracle(phase, fam, weight, joints)
            assert abs(part - expect) < self.TOL

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("l", [6, 10])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_symbol_and_split(self, d, l, sign):
        k = 40
        ctx = PhaseContext(d, k, l, 1.37 * math.ldexp(1.0, l - d * k))
        self._check_symbol(sign * 1.9 * math.ldexp(1.0, l - k), ctx)

    def test_sampled_point_at_l12(self):
        d, k, l = 2, 40, 12
        ctx = PhaseContext(d, k, l, 1.61 * math.ldexp(1.0, l - d * k))
        self._check_symbol(-2.3 * math.ldexp(1.0, l - k), ctx)

    @pytest.mark.parametrize("d, k, l, xi", [(2, 12, 4, -1.3), (2, 12, 4, 0.7),
                                             (3, 8, 3, -1.2)])
    def test_split_below_crossover(self, d, k, l, xi):
        # few cycles, and windows at the critical points that are not
        # even: the backward panels of the left half must take them at t
        ctx = PhaseContext(d, k, l, 1.4 * math.ldexp(1.0, l - d * k))
        xi = math.ldexp(xi, l - k)
        assert osc._g_phase(ctx, xi).critical_points
        self._check_symbol(xi, ctx)

    @pytest.mark.parametrize("edge_root", [0.51, -0.51, 0.49])
    def test_critical_point_near_psi_edge(self, edge_root):
        # a stationary point a hair inside or outside |t| = 1/2, where
        # psi starts: a panel layout that misses it loses digits
        d, k, l = 2, 40, 7
        ctx = PhaseContext(d, k, l, 1.2 * math.ldexp(1.0, l - d * k))
        xi = -d * ctx.lam * math.ldexp(edge_root, k * (d - 1))
        (root,) = osc._g_phase(ctx, xi).critical_points
        assert abs(root - edge_root) < 1e-12
        self._check_symbol(xi, ctx)

    @pytest.mark.parametrize("X, Y, d", [
        # roots of phase' at 1.3 (d = 2) and +-1.1 (d = 3), inside supp psi
        pytest.param(350.0, -2.0 * 350.0 * 1.3, 2, id="2"),
        pytest.param(350.0, -3.0 * 350.0 * 1.21, 3, id="3"),
        # Y = 0 and d odd: no root; H_j(1.1 * 2^-22, 0, 10, 3)
        pytest.param(1.1 * 2.0 ** 8, 0.0, 3, id="y0"),
    ])
    def test_H_j(self, X, Y, d):
        j = 10
        val = H_j(math.ldexp(X, -d * j), math.ldexp(Y, -j), j, d,
                  tol=self.TOL)
        expect = _psi_oracle(_PolynomialPhase(X, Y, d))
        assert abs(val - expect) < self.TOL

    def test_budget_exhaustion_carries_estimate(self):
        d, k, l = 2, 40, 10
        ctx = PhaseContext(d, k, l, 1.3 * math.ldexp(1.0, l - d * k))
        with pytest.raises(QuadratureError) as exc:
            G_hat_direct(-1.5 * math.ldexp(1.0, l - k), ctx, tol=1e-12,
                         panel_budget=6)
        est = np.asarray(exc.value.estimate)
        assert est.shape == (1,) and np.all(np.isfinite(est))


class TestBelowCrossover:
    """The symbol integrals at few cycles, where most Levin panels are
    Clenshaw-Curtis ones."""

    @pytest.mark.parametrize("order", [2, 4])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("X, Y", [(0.0, 3.0), (5.0, -7.0), (12.0, 11.0),
                                      (-15.0, 2.5), (3.0, 0.0), (9.0, -30.0)])
    def test_matches_gauss_legendre(self, X, Y, d, order):
        j, tol = 10, 1e-12
        fam = BumpFamily(d=d, smoothness_order=order)
        val = H_j(math.ldexp(X, -d * j), math.ldexp(Y, -j), j, d, fam, tol)
        assert abs(val - _psi_oracle(_PolynomialPhase(X, Y, d), fam)) <= tol

    @pytest.mark.parametrize("d, j, x", [(2, 8, 1e-5), (2, 8, -2e-4),
                                         (2, 8, 5e-4), (2, 12, 3e-7),
                                         (4, 5, 1e-6), (4, 5, -7e-6),
                                         # 12583 and 273804 cycles
                                         (2, 12, 1e-4), (4, 8, 2e-6)])
    @pytest.mark.parametrize("tol", [1e-12, 1e-10])
    def test_zero_at_y0_for_even_d(self, d, j, x, tol):
        # psi is odd and the phase even, so the halves cancel exactly
        assert H_j(x, 0.0, j, d, tol=tol) == 0j


@pytest.fixture
def summed_estimate(monkeypatch):
    """The Levin error estimates of each row, summed over the panels that
    the last quadrature call ended with.  Bisection replaces a panel by
    two, the first starting where it started, so the panels keyed by
    their start are the final ones."""
    panels = {}
    levin_batch, bisect = osc._levin_batch, osc._bisect_to_tolerance

    def fresh(*args):
        panels.clear()
        return bisect(*args)

    def recorded(phase, amplitude, lo, hi):
        vals, err = levin_batch(phase, amplitude, lo, hi)
        panels.update(zip(lo, err.T))
        return vals, err

    monkeypatch.setattr(osc, "_bisect_to_tolerance", fresh)
    monkeypatch.setattr(osc, "_levin_batch", recorded)
    return lambda: np.sum(list(panels.values()), axis=0)


def _assert_estimates_bound_errors(values, estimates, phase, amplitude,
                                   breakpoints=()):
    """Each estimate is at least the error of its value, less a round-off
    floor of 4 eps int |amplitude|.  The exact values come from
    oscillatory_quadrature, one per row of the amplitude stack; its phase
    in double-double keeps its own round-off near eps, where a float
    phase would reach 5e-14 at l = 14, above one row's 2e-14 estimate
    there."""
    cuts = [-1.0, 1.0, *breakpoints]
    pieces = [sorted({a, b, *(c for c in cuts if a < c < b)})
              for a, b in ((-2.0, -0.5), (0.5, 2.0))]
    exact = sum(oscillatory_quadrature(phase, amplitude, s) for s in pieces)
    mass = sum(oscillatory_quadrature(ZERO, lambda t: np.abs(amplitude(t)), s)
               for s in pieces).real
    floor = 4.0 * np.finfo(float).eps * mass
    assert np.all(estimates >= np.abs(np.asarray(values) - exact) - floor)


# the symbol points of TestLevinAgainstGaussKronrod as (d, k, l,
# lam 2^(dk-l), xi 2^(k-l)), and the symbol at l = 14, beyond the highest
# of them
GUARD_SYMBOL_POINTS = (
    [(d, 40, l, 1.37, sign * 1.9) for d in (2, 3) for l in (6, 10, 14)
     for sign in (1.0, -1.0)]
    + [(2, 40, 12, 1.61, -2.3), (2, 12, 4, 1.4, -1.3), (2, 12, 4, 1.4, 0.7),
       (3, 8, 3, 1.4, -1.2)]
    + [(2, 40, 7, 1.2, -2.4 * r) for r in (0.51, -0.51, 0.49)])


@pytest.mark.parametrize("d, k, l, lam, xi", GUARD_SYMBOL_POINTS)
def test_estimate_bounds_the_symbol_error(d, k, l, lam, xi, summed_estimate):
    ctx = PhaseContext(d, k, l, math.ldexp(lam, l - d * k))
    xi = math.ldexp(xi, l - k)
    fam = BumpFamily(d=d)
    zf = fam.zeta(math.ldexp(xi, k - l))
    phase = osc._g_phase(ctx, xi)
    roots = phase.critical_points
    # the rows of G_hat_direct, then of the split, as it stacks them
    values = [G_hat_direct(xi, ctx, fam, 1e-10)]
    estimates = [summed_estimate()[0]]
    values += stationary_phase_split(xi, ctx, fam, 1e-10)[:1 + len(roots)]
    estimates += list(summed_estimate())

    def amplitude(t):
        windows = [fam.xi0(t - r) for r in roots]
        return fam.psi(t) * np.stack(
            [np.ones_like(t), 1.0 - sum(windows, np.zeros_like(t)), *windows])

    joints = [r + u / (8.0 * d) for r in roots for u in (-2.0, -1.0, 1.0, 2.0)]
    _assert_estimates_bound_errors(np.array(values) / zf,
                                   np.array(estimates), phase, amplitude,
                                   joints)


# the H_j points of TestLevinAgainstGaussKronrod and TestBelowCrossover as
# (X, Y, d, smoothness order, tol), at j = 10
GUARD_H_J_POINTS = (
    [(350.0, -2.0 * 350.0 * 1.3, 2, 4, 1e-10),
     (350.0, -3.0 * 350.0 * 1.21, 3, 4, 1e-10), (1.1 * 2.0 ** 8, 0.0, 3, 4, 1e-10)]
    + [(X, Y, d, order, 1e-12) for order in (2, 4) for d in (2, 3)
       for X, Y in [(0.0, 3.0), (5.0, -7.0), (12.0, 11.0), (-15.0, 2.5),
                    (3.0, 0.0), (9.0, -30.0)]])


@pytest.mark.parametrize("X, Y, d, order, tol", GUARD_H_J_POINTS)
def test_estimate_bounds_the_h_j_error(X, Y, d, order, tol, summed_estimate):
    j = 10
    fam = BumpFamily(d=d, smoothness_order=order)
    value = H_j(math.ldexp(X, -d * j), math.ldexp(Y, -j), j, d, fam, tol)
    _assert_estimates_bound_errors([value], summed_estimate(),
                                   _PolynomialPhase(X, Y, d),
                                   lambda t: fam.psi(t)[None])


@pytest.mark.parametrize("l", [4, 10], ids=["few-cycles", "many-cycles"])
def test_symbol_integrals_never_reach_gauss_kronrod(l, monkeypatch):
    # one production core: the reference quadrature (Gauss-Kronrod once,
    # composite Gauss-Legendre now; the test keeps its id) is never called
    def refuse(*args):
        raise AssertionError("a symbol integral reached the reference quadrature")

    monkeypatch.setattr(osc, "oscillatory_quadrature", refuse)
    d, k, j = 2, 12, 6
    ctx = PhaseContext(d, k, l, 1.4 * math.ldexp(1.0, l - d * k))
    xi = -1.3 * math.ldexp(1.0, l - k)
    phase = osc._g_phase(ctx, xi)
    cycles = phase.variation(-2.0, -0.5) + phase.variation(0.5, 2.0)
    assert (cycles > osc._EQUAL_PANEL_CYCLES) == (l == 10)
    H_j(math.ldexp(phase.X, -d * j), math.ldexp(phase.Y, -j), j, d)
    G_hat_direct(xi, ctx)
    stationary_phase_split(xi, ctx)


@pytest.fixture
def levin_batches(monkeypatch):
    """The arguments of every Levin batch run from here on."""
    batches = []
    levin_batch = osc._levin_batch

    def counted(*args):
        batches.append(args)
        return levin_batch(*args)

    monkeypatch.setattr(osc, "_levin_batch", counted)
    return batches


@pytest.mark.parametrize("d, r", [(2, 0.68), (3, 0.67)])
def test_graded_cuts_save_the_bisection_rounds(d, r, levin_batches):
    # a critical point inside supp psi at 2^13 cycles' scale: the graded
    # cuts around it start the Levin core on the mesh that bisection
    # toward it reaches one batch per round, in 7 batches without them
    k, l = 40, 13
    ctx = PhaseContext(d, k, l, 1.37 * math.ldexp(1.0, l - d * k))
    xi = -d * ctx.lam * math.ldexp(r ** (d - 1), k * (d - 1))
    assert abs(osc._g_phase(ctx, xi).critical_points[0] - r) < 1e-12
    G_hat_direct(xi, ctx, tol=1e-8)
    assert len(levin_batches) <= 2


def test_levin_chunks_change_no_value(monkeypatch):
    # at l = 4 each half of supp psi starts from 26 equal panels, so with
    # chunks of 16 a batch runs the chunk loop more than once and joins
    # the chunks' rows, which must give the values of one chunk
    def values():
        out = []
        for d, l in [(2, 4), (2, 9), (2, 13), (3, 4), (3, 9), (3, 13)]:
            ctx = PhaseContext(d, 40, l, 1.37 * math.ldexp(1.0, l - d * 40))
            for u in (-3.1, -1.9, -0.7, 0.6, 2.2):
                xi = u * math.ldexp(1.0, l - 40)
                out += ([G_hat_direct(xi, ctx)] if d == 2
                        else stationary_phase_split(xi, ctx))
        return np.array(out)

    default = values()
    monkeypatch.setattr(osc, "_LEVIN_CHUNK", 16)
    assert np.array_equal(values(), default)


def _random_h_j_values():
    # 200 H_j values of d = 2 and 3 from 0.01 to 1e3 cycles' scale, at the
    # tolerances the library uses, plus 60 even-phase H_j(x, 0)
    rng = np.random.Generator(np.random.Philox(29))
    vals, zeros = [], []
    for i in range(260):
        d = 2 + i % 2 if i < 200 else (2, 4, 6)[i % 3]
        j = int(rng.integers(4, 11))
        X, Y = rng.choice([-1.0, 1.0], 2) * 10.0 ** rng.uniform(-2.0, 3.0, 2)
        tol = (1e-8, 1e-10, 1e-12)[i % 3]
        if i < 200:
            vals.append(H_j(math.ldexp(X, -d * j), math.ldexp(Y, -j), j, d,
                            tol=tol))
        else:
            zeros.append(H_j(math.ldexp(X, -d * j), 0.0, j, d, tol=tol))
    return np.array(vals), np.array(zeros)


@pytest.fixture(scope="module")
def default_chunk_values():
    return _random_h_j_values()


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1024])
def test_levin_values_do_not_depend_on_the_batch(chunk, default_chunk_values,
                                                 monkeypatch):
    # each panel's arithmetic is its own, whichever panels share its chunk
    monkeypatch.setattr(osc, "_LEVIN_CHUNK", chunk)
    vals, zeros = _random_h_j_values()
    assert np.array_equal(vals, default_chunk_values[0])
    assert np.all(zeros == 0j)


@pytest.mark.parametrize("o_lam, o_beta", [(0.5, 0.5), (-0.3, 0.9), (0.9, 0.1)])
def test_major_box_h_j_converges_in_one_batch(o_lam, o_beta, levin_batches):
    # a major-box point of the circle method (j = 11, C^2, tol 1e-12): its
    # equal panels, more of them at a tighter tol, meet tol in the first
    # batch, where 16 of them needed 2 or 3
    j, eps = 11, 0.1
    H_j(o_lam * 2.0 ** ((eps - 2) * j), o_beta * 2.0 ** ((eps - 1) * j), j, 2,
        BumpFamily(d=2, smoothness_order=2), tol=1e-12)
    assert len(levin_batches) == 1


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("l", [9, 11, 13])
def test_stationary_phase_symbols_converge_in_one_batch(l, d, levin_batches):
    # points of the stationary-phase workload (k = 40, tol 1e-8, lam
    # uniform in its slab, |xi| 2^(k-l) uniform in [1/4, 4], both signs):
    # an estimate of the error of the value returned accepts the first
    # batch, where one that overstates it bisects panels that are done
    k, tol = 40, 1e-8
    fam = BumpFamily(d=d)
    rng = np.random.Generator(np.random.Philox(l * d))
    for u_lam, u_xi, sign in zip(rng.random(4), rng.random(4), (1, -1) * 2):
        ctx = PhaseContext(d, k, l, math.ldexp(1.0 + u_lam, l - d * k))
        xi = sign * math.ldexp(0.25 + 3.75 * u_xi, l - k)
        for symbol in (G_hat_direct, stationary_phase_split):
            levin_batches.clear()
            symbol(xi, ctx, fam, tol)
            assert len(levin_batches) == 1, symbol.__name__


def test_equal_panel_count():
    # 16 down to tol 1e-8, then growing like tol^(-1/10); defined at tol <= 0
    assert [osc._equal_panels(t) for t in (1e-4, 1e-8, 1e-10, 1e-12)] == [
        16, 16, 26, 41]
    assert osc._equal_panels(0.0) == osc._equal_panels(-1.0) == \
        osc._equal_panels(1e-16) == 101


class TestBudgetEstimates:
    """QuadratureError.estimate approximates the quantity the call returns."""

    def test_h_j_estimate_sums_both_halves(self):
        # psi is odd and the phase even, so the halves of supp psi cancel:
        # H_j is ~1e-15 while either half alone is ~2e-7
        with pytest.raises(QuadratureError) as exc:
            H_j(20 / 2 ** 12, 0.0, 6, 2, tol=1e-15, panel_budget=30)
        assert np.abs(exc.value.estimate).max() < 1e-12

    def test_g_hat_estimate_carries_zeta(self):
        d, k, l = 2, 5, 4
        ctx = PhaseContext(d, k, l, 1.3 * math.ldexp(1.0, l - d * k))
        xi = math.ldexp(0.09, l - k)
        assert 0.3 < DEFAULT_BUMPS.zeta(math.ldexp(xi, k - l)) < 0.4
        ref = G_hat_direct(xi, ctx, tol=1e-13)
        with pytest.raises(QuadratureError) as exc:
            G_hat_direct(xi, ctx, tol=0.0, panel_budget=1000)
        assert abs(exc.value.estimate[0] - ref) < 1e-6 * abs(ref)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tol_must_be_finite_and_nonnegative(tol):
    # NaN reached math.ceil in _equal_panels, -1 spent the whole panel
    # budget and inf accepted the first batch; tol = 0 stays legal
    # (TestBudgetEstimates)
    ctx = PhaseContext(2, 40, 9, 1.37 * math.ldexp(1.0, 9 - 80))
    xi = -1.9 * math.ldexp(1.0, 9 - 40)
    for call in (lambda: H_j(0.3 * 2 ** -16, 0.1 * 2 ** -8, 8, 2, tol=tol),
                 lambda: G_hat_direct(xi, ctx, tol=tol),
                 lambda: stationary_phase_split(xi, ctx, tol=tol)):
        with pytest.raises(ValueError, match="tol"):
            call()


class TestPhaseVariation:
    @pytest.mark.parametrize("X, Y, d", [
        (500.0, -1300.0, 2),    # critical point 1.3 inside [1/2, 2]
        (-80.0, 30.0, 2),       # critical point 0.1875, outside
        (200.0, -726.0, 3),     # critical points +-1.1
        (200.0, 726.0, 3),      # none
        (0.0, 45.0, 2),         # linear phase
    ])
    def test_closed_form_matches_midpoint_sum(self, X, Y, d):
        phase = osc._PolynomialPhase(X, Y, d)
        n = 10 ** 6
        for a, b in ((-2.0, -0.5), (0.5, 2.0)):
            t = a + (np.arange(n) + 0.5) * ((b - a) / n)
            fine = np.abs(d * X * t ** (d - 1) + Y).sum() * ((b - a) / n)
            assert phase.variation(a, b) == pytest.approx(fine, rel=1e-6)
