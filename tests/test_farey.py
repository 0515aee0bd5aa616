"""Tests for the exact rational machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhilb.farey import (MajorBox, ReducedFraction, XSet, dirichlet_approx,
                           dirichlet_approx_bruteforce, dyadic_width,
                           farey_level, in_major_box, reduce, torus_distance,
                           xset_contains)


class TestReduce:
    def test_gcd_cancellation(self):
        assert reduce(2, 4) == ReducedFraction(1, 2)

    def test_mod_one_reduction(self):
        assert reduce(7, 3) == ReducedFraction(1, 3)

    def test_zero_canonical_form(self):
        assert reduce(0, 5) == ReducedFraction(0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            reduce(1, 0)

    def test_negative_numerator_wraps(self):
        assert reduce(-1, 4) == ReducedFraction(3, 4)


class TestReducedFraction:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ReducedFraction(2, 4)
        with pytest.raises(ValueError):
            ReducedFraction(5, 3)
        with pytest.raises(ValueError):
            ReducedFraction(1, -2)

    def test_value(self):
        assert ReducedFraction(1, 2).value == 0.5
        assert float(ReducedFraction(1, 4)) == 0.25


class TestDirichletApprox:
    def test_exact_rational_input(self):
        assert dirichlet_approx(0.5, 10) == ReducedFraction(1, 2)

    def test_log10_two(self):
        # frozen from the brute-force double loop over all q <= 64
        assert dirichlet_approx(0.30103, 64) == ReducedFraction(3, 10)

    def test_zero(self):
        assert dirichlet_approx(0.0, 7) == ReducedFraction(0, 1)

    def test_q_max_one_always_valid(self):
        assert dirichlet_approx(0.49, 1) == ReducedFraction(0, 1)

    def test_invalid_q_max(self):
        with pytest.raises(ValueError):
            dirichlet_approx(0.3, 0)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_oracle(self, lam, q_max):
        assert dirichlet_approx(lam, q_max) == dirichlet_approx_bruteforce(lam, q_max)

    def test_dirichlet_inequality_on_grid(self):
        # exact check of |lam - a/q| <= 1/(q q_max) over a uniform grid
        for q_max in (1, 2, 7, 32, 128):
            for i in range(0, 10_000, 37):
                lam = i / 10_000
                rf = dirichlet_approx(lam, q_max)
                gap = abs(Fraction(lam) - rf.as_fraction())
                gap = min(gap, 1 - gap)  # the representative lives on the torus
                assert gap <= Fraction(1, rf.denominator * q_max)


class TestFareyLevel:
    def test_level_one(self):
        assert farey_level(1) == [ReducedFraction(0, 1)]

    def test_level_three(self):
        assert farey_level(3) == [ReducedFraction(0, 1), ReducedFraction(1, 3),
                                  ReducedFraction(1, 2), ReducedFraction(2, 3)]

    def test_count_level_five(self):
        # direct enumeration oracle: 1 + sum_{2<=k<=5} phi(k) = 10
        assert len(farey_level(5)) == 10

    def test_length_totient_formula(self):
        def phi(n):
            return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        for q in range(1, 30):
            expected = 1 + sum(phi(k) for k in range(1, q + 1)) - phi(1)
            assert len(farey_level(q)) == expected

    def test_strictly_increasing(self):
        vals = [f.as_fraction() for f in farey_level(17)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestMajorBox:
    def box(self):
        zero = ReducedFraction(0, 1)
        return MajorBox(zero, zero, j=10, epsilon=0.1, d=2)

    def test_center_inside(self):
        assert in_major_box(0.0, 0.0, self.box())

    def test_width_arithmetic(self):
        # (eps - d) j = -19, so 2^-17 exceeds the lambda half-width
        assert not in_major_box(2.0 ** -17, 0.0, self.box())
        assert in_major_box(2.0 ** -20, 0.0, self.box())

    def test_torus_wraparound(self):
        assert in_major_box(1.0 - 2.0 ** -20, 0.0, self.box())

    def test_denominator_bound_enforced(self):
        with pytest.raises(ValueError):
            MajorBox(ReducedFraction(1, 3), ReducedFraction(0, 1),
                     j=10, epsilon=0.1, d=2)

    def test_disjointness_of_sampled_boxes(self):
        # random (lam, beta) belong to at most one box over all Q <= 2^(eps j)
        rng = np.random.Generator(np.random.Philox(5))
        for j in range(10, 17):
            q_bound = int(2.0 ** (0.05 * j))
            boxes = []
            for q in range(1, q_bound + 1):
                for a in range(q):
                    for b in range(q):
                        if math.gcd(math.gcd(a, b), q) != 1:
                            continue
                        boxes.append(MajorBox(reduce(a, q), reduce(b, q),
                                              j=j, epsilon=0.05, d=2))
            for lam, beta in rng.random((50, 2)):
                hits = sum(in_major_box(lam, beta, box) for box in boxes)
                assert hits <= 1


class TestXSet:
    def test_low_denominator_rational_inside(self):
        xs = XSet(j=12, exponent_C=2.0, d=2)
        assert xs.q_bound >= 2
        assert xset_contains(0.5, xs)
        assert xset_contains(0.0, xs)

    def test_golden_ratio_point_outside(self):
        # frozen from a scan over all q <= 144 against the dyadic width
        xs = XSet(j=12, exponent_C=2.0, d=2)
        assert not xset_contains(0.3819660113, xs)

    def test_width_is_power_of_two(self):
        for j in range(1, 20):
            w = XSet(j=j, exponent_C=2.0, d=2).width
            assert math.ldexp(1.0, round(math.log2(w))) == w

    def test_symmetry_under_reflection(self):
        xs = XSet(j=9, exponent_C=2.0, d=2)
        rng = np.random.Generator(np.random.Philox(1))
        for lam in rng.random(200):
            assert xset_contains(lam, xs) == xset_contains((1.0 - lam) % 1.0, xs)

    def test_dyadic_width_rounding(self):
        assert dyadic_width(1, 2.0, 2) == 2.0 ** -2
        w = dyadic_width(12, 2.0, 2)
        target = 12 ** 2 * 2.0 ** -24
        assert 0.5 < w / target < 2.0


class TestTorusDistance:
    def test_plain(self):
        assert torus_distance(0.25, 0.5) == 0.25

    def test_wraparound(self):
        assert torus_distance(0.95, 0.05) == pytest.approx(0.1)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_symmetry(self, x, y):
        dist = torus_distance(x, y)
        assert 0.0 <= dist <= 0.5
        assert dist == torus_distance(y, x)
