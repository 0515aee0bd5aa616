"""Tests for the circle-method approximants and error harnesses."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhilb import circle
from modhilb.bench import _exp_major_arc_error
from modhilb.circle import (ApproxParams, L_j, L_js, _contributing_centers,
                            _exact_offset, error_Ej, restricted_sup_outside_Xj)
from modhilb.farey import xset_contains
from modhilb.osc import H_j
from modhilb.spectral import (LambdaGrid, Signal, apply_multiplier,
                              multiplier_Mj)
from modhilb.weyl import WeylTriple, complete_weyl_sum

from oracles import L_js_full_enumeration, all_centers
from test_farey import EXACT_EDGE_FLOATS


P2 = ApproxParams(d=2)


class TestApproxParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxParams(d=1)
        with pytest.raises(ValueError):
            ApproxParams(d=2, epsilon=0.5)
        with pytest.raises(ValueError):
            ApproxParams(d=2, kappa=0.3)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_exponent_C_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="exponent_C"):
            ApproxParams(d=2, exponent_C=value)

    def test_prefactor_checked_by_xset(self):
        with pytest.raises(ValueError, match="prefactor"):
            ApproxParams(d=2, prefactor=0.0).xset(8)

    def test_chi_scale_overflow_rejected(self):
        p = ApproxParams(d=2, kappa=0.25)
        with pytest.raises(OverflowError):
            p.chi_s_scale(25)

    def test_chi_radius_below_center_separation(self):
        # the cutoff radius must stay under half the minimal separation
        # 2^(-2s) between scale-s centers
        for s in range(1, 10):
            assert P2.chi_s_radius(s) < 0.5 * 2.0 ** (-2 * s)

    def test_s_range(self):
        assert list(P2.s_range(1)) == []
        assert list(P2.s_range(10)) == [1, 2, 3, 4, 5, 6]


class TestExactOffset:
    def test_plain(self):
        assert _exact_offset(0.3, 1, 4) == pytest.approx(0.05)

    def test_wraparound(self):
        assert _exact_offset(0.95, 0, 1) == pytest.approx(-0.05)

    def test_exactness_near_center(self):
        lam = 0.5 + 2.0 ** -40
        assert _exact_offset(lam, 1, 2) == 2.0 ** -40

    @given(st.one_of(EXACT_EDGE_FLOATS, st.floats(-1e6, 1e6)),
           st.integers(-70, 70), st.integers(1, 64))
    @example(0.5, 0, 1)        # a tie at +1/2: rounds to the even 0
    @example(1.5, 0, 1)        # a tie at 3/2: rounds to the even 2
    @example(-0.5, 0, 1)
    @example(5e-324, 3, 3)     # a subnormal offset
    @example(-5e-324, 0, 1)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_formula(self, x, num, den):
        delta = Fraction(x) - Fraction(num, den)
        offset = delta - round(delta)
        assert Fraction(*circle._torus_offset(x, num, den)) == offset
        assert _exact_offset(x, num, den) == float(offset)


def _within(x, num, den, radius):
    """|x - num/den| on the torus <= radius, compared exactly."""
    delta = Fraction(x) - Fraction(num, den)
    return abs(delta - round(delta)) <= Fraction(radius)


class TestContributingCenters:
    def test_at_most_one_center(self):
        # the full center set filtered by both cutoffs, compared exactly,
        # at random points and at points within 1.3 radii of a center
        rng = np.random.Generator(np.random.Philox(17))
        for s in (1, 2, 3, 4):
            radius = P2.chi_s_radius(s)
            centers = all_centers(s)

            def near(x, num, den):
                if abs((x - num / den + 0.5) % 1.0 - 0.5) > 2.0 * radius:
                    return False  # float reject, far from the edge
                delta = Fraction(x) - Fraction(num, den)
                return abs(delta - round(delta)) <= Fraction(radius)

            points = [tuple(rng.random(2)) for _ in range(100)]
            for _ in range(100):
                A, B, Q = centers[rng.integers(len(centers))]
                dl, db = rng.uniform(-1.3, 1.3, 2) * radius
                points.append(((A / Q + dl) % 1.0, (B / Q + db) % 1.0))
            for lam, beta in points:
                expected = [(A, B, Q) for A, B, Q in centers
                            if near(lam, A, Q) and near(beta, B, Q)]
                assert len(expected) <= 1
                assert _contributing_centers(lam, beta, s, P2) == expected

    @given(st.integers(min_value=1, max_value=3),
           EXACT_EDGE_FLOATS, EXACT_EDGE_FLOATS,
           st.tuples(st.floats(-1.3, 1.3), st.floats(-1.3, 1.3)))
    @example(1, 0.0, -5e-324, (0.0, 0.0))
    @example(2, -0.5, 0.25, (0.0, 0.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_scan_off_the_unit_interval(self, s, lam, beta,
                                                         shift):
        # negative, subnormal and exactly rational points, and the same
        # points moved to within 1.3 radii of the nearest scale-s center
        radius = P2.chi_s_radius(s)
        centers = all_centers(s)
        a, b, q = centers[int(abs(lam) * 1e6) % len(centers)]
        moved = (-a / q + shift[0] * radius, b / q - 1.0 + shift[1] * radius)
        for x, y in ((lam, beta), moved):
            expected = [(A, B, Q) for A, B, Q in centers
                        if _within(x, A, Q, radius)
                        and _within(y, B, Q, radius)]
            assert _contributing_centers(x, y, s, P2) == expected

    def test_finds_nearby_center(self):
        eps = 0.25 * P2.chi_s_radius(2)
        centers = _contributing_centers(0.5 + eps, 0.5 - eps, 2, P2)
        assert centers == [(1, 1, 2)]

    def test_radius_beyond_half_separation_raises(self, monkeypatch):
        # a raise, not an assert: the one-center invariant holds under -O
        s = 2
        monkeypatch.setattr(ApproxParams, "chi_s_radius",
                            lambda self, s: 2.0 ** (-2 * s - 1) * (1 + 2 ** -52))
        with pytest.raises(ValueError, match="center separation"):
            _contributing_centers(0.5, 0.5, s, P2)
        with pytest.raises(ValueError, match="center separation"):
            L_js(0.5, 0.5, 8, s, P2)
        monkeypatch.setattr(ApproxParams, "chi_s_radius",
                            lambda self, s: 2.0 ** (-2 * s - 1))
        assert _contributing_centers(0.5, 0.5, s, P2) == [(1, 1, 2)]


class TestLjs:
    def test_outside_all_cutoffs(self):
        # the golden-ratio point is far from every low-denominator rational
        lam = 0.3819660112501051
        assert L_js(lam, lam, 10, 2, P2) == 0j

    def test_s1_single_center_form(self):
        p = P2
        lam = 0.2 * p.chi_s_radius(1)
        beta = -0.3 * p.chi_s_radius(1) % 1.0
        val = L_js(lam, beta, 10, 1, p)
        dl = _exact_offset(lam, 0, 1)
        db = _exact_offset(beta, 0, 1)
        expected = (H_j(dl, db, 10, 2, p.fam) * p.chi_s(dl, 1)
                    * p.chi_s(db, 1))
        if abs(dl) > p.xset(10).width:
            expected = 0j
        assert val == pytest.approx(expected, abs=1e-12)

    def test_centered_beta_vanishes(self):
        # beta sits exactly at the center, so H_j vanishes by oddness
        val = L_js(0.5 + 2.0 ** -25, 0.5, 10, 2, P2)
        assert val == 0j

    def test_hand_assembly_from_weyl_and_osc(self):
        # displaced point near the (1,1,2) center, assembled by hand
        j, s = 10, 2
        dl, db = 2.0 ** -25, 2.0 ** -13
        lam, beta = 0.5 + dl, 0.5 + db
        S = complete_weyl_sum(WeylTriple(1, 1, 2, 2))
        dl_e = _exact_offset(lam, 1, 2)
        db_e = _exact_offset(beta, 1, 2)
        expected = (S * H_j(dl_e, db_e, j, 2, P2.fam)
                    * P2.chi_s(dl_e, s) * P2.chi_s(db_e, s))
        assert L_js(lam, beta, j, s, P2) == pytest.approx(expected, abs=1e-12)

    def test_matches_full_enumeration(self):
        rng = np.random.Generator(np.random.Philox(18))
        for s in (1, 2, 3, 4):
            for _ in range(5):
                q = int(rng.integers(2 ** (s - 1), 2 ** s))
                a = int(rng.integers(0, q))
                lam = (a / q + rng.uniform(-1, 1) * P2.chi_s_radius(s)) % 1.0
                beta = float(rng.random())
                fast = L_js(lam, beta, 8, s, P2)
                slow = L_js_full_enumeration(lam, beta, 8, s, P2)
                assert fast == pytest.approx(slow, abs=1e-12)

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            L_js(0.1, 0.1, 0, 1, P2)
        with pytest.raises(ValueError):
            L_j(0.1, 0.1, 0, P2)


class TestLj:
    def test_empty_s_range_zero(self):
        assert L_j(0.3, 0.3, 1, P2) == 0j

    def test_additivity(self):
        lam, beta = 0.5 + 2.0 ** -22, 0.5 + 2.0 ** -12
        total = sum((L_js(lam, beta, 10, s, P2) for s in P2.s_range(10)), 0j)
        assert L_j(lam, beta, 10, P2) == pytest.approx(total, abs=1e-13)


class TestErrorEj:
    def test_zero_far_from_everything(self):
        lam = 0.3819660112501051  # outside X_12 and every cutoff
        assert not xset_contains(lam, P2.xset(12))
        assert error_Ej(lam, 0.77, 12, P2) == 0j

    def test_zero_just_outside_xj(self):
        # 2^-10 + 1.85e-17 from 1/3, just outside X_8 (width 2^-10): the
        # Xi_j window and X_j make the same exact comparison
        lam = 1 / 3 - 2 ** -10
        assert not xset_contains(lam, P2.xset(8))
        assert error_Ej(lam, 1 / 3, 8, P2) == 0j

    def test_zero_at_origin(self):
        assert abs(error_Ej(0.0, 0.0, 8, P2)) < 1e-10

    def test_small_inside_major_box(self):
        # deep inside the (0,0,1) box the approximant tracks the block
        lam, beta = 2.0 ** -25, 2.0 ** -15
        assert abs(error_Ej(lam, beta, 10, P2)) < 1e-2


class TestMajorBoxScan:
    # the major-box scan lives in the major-arc-error experiment body
    def test_scan_reports_all_boxes(self):
        rows, summary, _ = _exp_major_arc_error(seed=0, j_min=8, j_max=9,
                                                Q_max=1, samples_per_box=2)
        assert summary["boxes"][8] == 1
        assert all(row["sup_error"] >= 0.0 for row in rows)

    def test_qmax_clamped_to_admissible_bound(self):
        # at j=8, eps=0.1 only Q = 1 is admissible; larger requests clamp
        _, summary, _ = _exp_major_arc_error(seed=0, j_min=8, j_max=9,
                                             Q_max=3, samples_per_box=1)
        assert summary["clamped_Q_max"][8] == 1


class TestRestrictedSup:
    def test_grid_inside_xj_gives_zero(self):
        f = Signal(0, np.ones(4))
        grid = LambdaGrid((0.5,))  # 1/2 is inside every X_j
        assert restricted_sup_outside_Xj(f, 8, grid, P2, 64) == 0.0

    def test_zero_signal_gives_zero_without_transforms(self, monkeypatch):
        def no_loop(*args):
            raise AssertionError("the modulation loop ran on a zero signal")

        monkeypatch.setattr(circle, "_modulated_sup", no_loop)
        # near 0 the grid lies outside X_6, so only the zero f short-cuts
        grid = LambdaGrid(tuple(np.linspace(0.009, 0.019, 8)))
        f = Signal(5, np.zeros(16))
        assert restricted_sup_outside_Xj(f, 6, grid, P2, 512) == 0.0

    def test_delta_bounded_by_kernel_norm(self):
        # Young: sup_x |M_j * delta| <= max |psi_j| summed = l1 norm of psi_j
        from modhilb.osc import psi_j

        j = 6
        # near 0 the grid lies outside X_6, so the sup is not vacuous
        grid = LambdaGrid(tuple(np.linspace(0.009, 0.019, 8)))
        val = restricted_sup_outside_Xj(Signal.delta(0), j, grid, P2, 512)
        assert val > 0.0
        l2_bound = math.sqrt(512) * sum(
            abs(psi_j(float(m), j)) for m in range(-2 ** (j + 1), 2 ** (j + 1) + 1))
        assert val <= l2_bound

    def test_matches_block_multiplier_outside_xj(self):
        # l2 norm of the pointwise max, over the lambdas outside X_j, of
        # |M_j(lam, .) applied to f|, normalized by |f|
        j, N = 6, 512
        rng = np.random.Generator(np.random.Philox(17))
        f = Signal(0, rng.standard_normal(32) + 1j * rng.standard_normal(32))
        lams = (0.01, 0.018, 0.5)
        kept = [lam for lam in lams if not xset_contains(lam, P2.xset(j))]
        assert kept == [0.01, 0.018]
        outs = [np.abs(apply_multiplier(
            f, lambda betas, lam=lam: np.array(
                [multiplier_Mj(lam, b, j, P2.d, P2.fam) for b in betas]),
            N).values) for lam in kept]
        expect = np.linalg.norm(np.maximum(*outs)) / f.norm2()
        val = restricted_sup_outside_Xj(f, j, LambdaGrid(lams), P2, N)
        assert val == pytest.approx(expect, rel=1e-12)
