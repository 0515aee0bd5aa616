"""Tests for the exact rational machinery."""

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhilb.farey import (XSet, dirichlet_approx, dyadic_width,
                           farey_neighbours, nearest_fraction, xset_contains)

from oracles import dirichlet_approx_bruteforce, xset_contains_scan


class TestDirichletApprox:
    def test_exact_rational_input(self):
        assert dirichlet_approx(0.5, 10) == (1, 2)

    def test_log10_two(self):
        # frozen from the brute-force double loop over all q <= 64
        assert dirichlet_approx(0.30103, 64) == (3, 10)

    def test_zero(self):
        assert dirichlet_approx(0.0, 7) == (0, 1)

    def test_nearer_neighbour_can_fail(self):
        # 1/31 is the nearest fraction, but the inequality rejects it
        lam = 0.016527635528529094
        x = Fraction(lam)
        nearest = min((Fraction(*f) for f in farey_neighbours(x, 31)),
                      key=lambda f: abs(x - f))
        assert nearest == Fraction(1, 31)
        assert dirichlet_approx(lam, 31) == (0, 1)

    def test_q_max_one_always_valid(self):
        assert dirichlet_approx(0.49, 1) == (0, 1)

    def test_invalid_q_max(self):
        with pytest.raises(ValueError):
            dirichlet_approx(0.3, 0)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_oracle(self, lam, q_max):
        assert dirichlet_approx(lam, q_max) == dirichlet_approx_bruteforce(lam, q_max)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=1, max_value=2 ** 20))
    @settings(max_examples=200, deadline=None)
    @example(0.0, 7)
    @example(1.0 - 2.0 ** -40, 5)
    @example(0.5, 10)
    def test_torus_pair_in_lowest_terms(self, lam, q_max):
        a, q = dirichlet_approx(lam, q_max)
        assert 0 <= a < q <= q_max
        assert math.gcd(a, q) == 1
        if lam == 1.0 - 2.0 ** -40:
            # 1/1 is nearer than any (q - 1)/q with q <= 2^20, and it is
            # the torus point 0/1
            assert (a, q) == (0, 1)

    def test_dirichlet_inequality_on_grid(self):
        # exact check of |lam - a/q| <= 1/(q q_max) over a uniform grid
        for q_max in (1, 2, 7, 32, 128):
            for i in range(0, 10_000, 37):
                lam = i / 10_000
                a, q = dirichlet_approx(lam, q_max)
                gap = abs(Fraction(lam) - Fraction(a, q))
                gap = min(gap, 1 - gap)  # the representative lives on the torus
                assert gap <= Fraction(1, q * q_max)


@cache
def _farey_bruteforce(q_max):
    """Every a/q in [0, 1] with q <= q_max, ascending."""
    return sorted({Fraction(a, q) for q in range(1, q_max + 1)
                   for a in range(q + 1)})


class TestFareyNeighbours:
    @given(st.one_of(
               st.floats(min_value=0.0, max_value=1.0).map(Fraction),
               st.integers(1, 64).flatmap(
                   lambda q: st.integers(0, q).map(lambda a: Fraction(a, q))),
               st.floats(min_value=0.0, max_value=1e-300).map(Fraction),
               st.floats(min_value=1.0 - 1e-9, max_value=1.0).map(Fraction)),
           st.integers(min_value=1, max_value=64))
    @example(Fraction(5e-324), 7)
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_scan(self, x, q_max):
        pairs = farey_neighbours(x, q_max)
        assert all(q >= 1 and math.gcd(p, q) == 1 for p, q in pairs)
        lo, hi = (Fraction(*f) for f in pairs)
        level = _farey_bruteforce(q_max)
        assert lo <= x <= hi
        assert lo.denominator <= q_max and hi.denominator <= q_max
        assert not any(lo < f < hi for f in level)
        assert (lo == hi) == (x in level)

    def test_float_and_fraction_agree(self):
        for x in (0.3, -0.3, 5e-324, 1 / 3, 0.5, 1.0 - 2 ** -53):
            for q_max in (1, 7, 127):
                assert farey_neighbours(x, q_max) == farey_neighbours(
                    Fraction(x), q_max)

    def test_invalid_q_max(self):
        with pytest.raises(ValueError):
            farey_neighbours(Fraction(1, 3), 0)


# floats off the unit interval and at its ends: negative, subnormal (of
# both signs) and exactly rational ones, k / 2^m
EXACT_EDGE_FLOATS = st.one_of(
    st.floats(min_value=-2.0, max_value=0.0),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.tuples(st.integers(-2 ** 10, 2 ** 10), st.integers(0, 10)).map(
        lambda km: math.ldexp(km[0], -km[1])))


class TestNearestFraction:
    @given(EXACT_EDGE_FLOATS, st.integers(min_value=1, max_value=40))
    @example(5e-324, 7)
    @example(-5e-324, 7)
    @example(-0.5, 1)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_scan(self, x, q_max):
        # the nearest a/q, the smaller on a tie, and its exact distance
        xf = Fraction(x)
        scan = min((abs(xf - Fraction(a, q)), Fraction(a, q))
                   for q in range(1, q_max + 1)
                   for a in (math.floor(xf * q), math.floor(xf * q) + 1))
        f, (gap, den) = nearest_fraction(x, q_max)
        assert (Fraction(gap, den), Fraction(*f)) == scan


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

    @pytest.mark.parametrize("field, value", [
        ("exponent_C", 0.0), ("exponent_C", math.inf),
        ("exponent_C", math.nan), ("prefactor", 0.0), ("prefactor", -1.0),
        ("prefactor", math.inf), ("prefactor", math.nan)])
    def test_nonpositive_or_nonfinite_rejected(self, field, value):
        # an infinite exponent overflowed the width's rounding, and a zero
        # prefactor failed in log2, neither naming the field
        with pytest.raises(ValueError, match=field):
            XSet(**{"j": 8, "exponent_C": 2.0, "d": 2, field: value})

    def test_width_is_derived_not_passed(self):
        with pytest.raises(TypeError):
            XSet(j=6, exponent_C=2.0, d=2, width=1.0)

    def test_symmetry_under_reflection(self):
        xs = XSet(j=9, exponent_C=2.0, d=2)
        rng = np.random.Generator(np.random.Philox(1))
        for lam in rng.random(200):
            assert xset_contains(lam, xs) == xset_contains((1.0 - lam) % 1.0, xs)

    def test_exact_at_interval_edge(self):
        # this lambda lies 2^-7 + 1.7e-18 from 1/36, its nearest fraction
        # with q <= 36, so it is just outside the width-2^-7 interval
        xs = XSet(j=6, exponent_C=2.0, d=2)
        assert xs.q_bound == 36 and xs.width == 2.0 ** -7
        assert not xset_contains(1 / 36 - 2 ** -7, xs)

    @given(st.integers(min_value=3, max_value=9),
           st.one_of(st.floats(min_value=0.0, max_value=1.0),
                     st.tuples(st.integers(1, 81), st.floats(0.0, 1.0),
                               st.sampled_from([-1.0, 1.0]))))
    @settings(max_examples=200, deadline=None)
    def test_matches_exact_scan(self, j, point):
        # lambda uniform, or a float at the edge of the interval at a/q
        xs = XSet(j=j, exponent_C=2.0, d=2)
        if isinstance(point, tuple):
            q, u, sign = point
            q = min(q, xs.q_bound)
            point = (math.floor(u * q) / q + sign * xs.width) % 1.0
        assert xset_contains(point, xs) == xset_contains_scan(point, xs)

    @given(st.integers(min_value=3, max_value=9), EXACT_EDGE_FLOATS)
    @example(6, -1 / 36 + 2 ** -7)
    @example(6, -5e-324)
    @example(6, 0.375)
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_scan_off_the_unit_interval(self, j, x):
        xs = XSet(j=j, exponent_C=2.0, d=2)
        assert xset_contains(x, xs) == xset_contains_scan(x, xs)

    def test_dyadic_width_rounding(self):
        assert dyadic_width(1, 2.0, 2) == 2.0 ** -2
        w = dyadic_width(12, 2.0, 2)
        target = 12 ** 2 * 2.0 ** -24
        assert 0.5 < w / target < 2.0
