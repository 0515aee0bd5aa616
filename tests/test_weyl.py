"""Tests for the complete Weyl/Gauss sums."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhilb.farey import ReducedFraction
from modhilb.weyl import (WeylTriple, _complete_sum_row, complete_weyl_sum,
                          hua_exponent_fit, weyl_kernel_identity,
                          weyl_orthogonality_scan)


def naive_complete_sum(a, b, q, d):
    """Independent direct-summation oracle with float phases."""
    return sum(cmath.exp(-2j * cmath.pi * (a * r ** d + b * r) / q)
               for r in range(1, q + 1)) / q


class TestCompleteWeylSum:
    def test_cubic_gauss_point(self):
        # direct 3-term summation oracle: S(1/3, 0) = -i/sqrt(3) for d=2
        val = complete_weyl_sum(WeylTriple(1, 0, 3, 2))
        assert val == pytest.approx(-1j / math.sqrt(3), abs=1e-14)

    def test_orthogonality_example(self):
        # gcd(a, q) = 2 > 1 with gcd(a, b, q) = 1 forces vanishing
        assert abs(complete_weyl_sum(WeylTriple(2, 1, 4, 2))) < 1e-14

    def test_q_one(self):
        assert complete_weyl_sum(WeylTriple(0, 0, 1, 2)) == pytest.approx(1.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            WeylTriple(2, 2, 4, 2)  # gcd(a,b,q) = 2
        with pytest.raises(ValueError):
            WeylTriple(5, 0, 3, 2)  # a out of range

    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=2, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_oracle(self, q, d):
        for a in range(q):
            for b in range(q):
                if math.gcd(math.gcd(a, b), q) != 1:
                    continue
                got = complete_weyl_sum(WeylTriple(a, b, q, d))
                assert got == pytest.approx(naive_complete_sum(a, b, q, d),
                                            abs=1e-11)

    def test_conjugation_symmetry(self):
        for q in range(2, 41):
            for a in range(q):
                for b in range(q):
                    if math.gcd(math.gcd(a, b), q) != 1:
                        continue
                    lhs = complete_weyl_sum(WeylTriple(a, b, q, 2))
                    rhs = complete_weyl_sum(
                        WeylTriple((q - a) % q, (q - b) % q, q, 2))
                    assert abs(lhs - rhs.conjugate()) < 1e-12

    def test_row_matches_single_sums(self):
        for q in (5, 12, 17):
            row = _complete_sum_row(3 % q, q, 2)
            for b in range(q):
                assert row[b] == pytest.approx(naive_complete_sum(3 % q, b, q, 2),
                                               abs=1e-12)


class TestOrthogonalityScan:
    def test_small_scan(self):
        rep = weyl_orthogonality_scan(4, 2)
        assert rep["max_abs"] < 1e-12
        assert rep["count"] > 0

    def test_empty_scan(self):
        rep = weyl_orthogonality_scan(1, 2)
        assert rep["max_abs"] == 0.0
        assert rep["count"] == 0

    def test_cubic_scan(self):
        rep = weyl_orthogonality_scan(30, 3)
        assert rep["max_abs"] < 1e-12


class TestKernelIdentity:
    def test_q_one(self):
        lhs, rhs = weyl_kernel_identity(ReducedFraction(0, 1), 2, 0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_third_at_two(self):
        # three-term direct evaluation: both sides equal e(-1/3)
        lhs, rhs = weyl_kernel_identity(ReducedFraction(1, 3), 2, 2)
        expected = cmath.exp(-2j * cmath.pi / 3)
        assert lhs == pytest.approx(expected, abs=1e-12)
        assert rhs == pytest.approx(expected, abs=1e-12)

    def test_rhs_always_unimodular(self):
        for q in (2, 7, 15, 31):
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                for x in range(q):
                    _, rhs = weyl_kernel_identity(ReducedFraction(a, q), 2, x)
                    assert abs(abs(rhs) - 1.0) < 1e-12


class TestHuaFit:
    def test_prime_gauss_magnitude(self):
        # |S(a/p, 0)| = p^(-1/2) exactly for every a coprime to prime p
        for p in (3, 5, 7, 11, 13):
            for a in range(1, p):
                val = abs(complete_weyl_sum(WeylTriple(a, 0, p, 2)))
                assert abs(val - p ** -0.5) < 1e-13

    def test_fit_small(self):
        slope, const = hua_exponent_fit(40, 2)
        assert slope <= -0.4
        assert const < 10.0

    def test_triangle_bound(self):
        assert abs(complete_weyl_sum(WeylTriple(1, 1, 2, 2))) <= 1.0 + 1e-15

    def test_q_max_too_small(self):
        with pytest.raises(ValueError):
            hua_exponent_fit(4, 2)
