"""Tests for the complete Weyl/Gauss sums."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhilb import weyl
from modhilb.bench import _exp_hua_fit, _exp_weyl_scan
from modhilb.weyl import (WeylTriple, _complete_sum_row, complete_weyl_sum,
                          weyl_kernel_identity)

from oracles import naive_complete_sum


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
        with pytest.raises(ValueError, match="q must be positive"):
            WeylTriple(0, 0, 0, 2)
        with pytest.raises(ValueError, match="d must be >= 2"):
            WeylTriple(0, 0, 1, 1)

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


class TestRowCache:
    def test_cached_rows_are_read_only_fresh_builds(self):
        for a, q, d in ((3, 17, 2), (5, 127, 3), (0, 1, 2), (7, 60, 4)):
            cold = _complete_sum_row(a, q, d)
            warm = _complete_sum_row(a, q, d)
            assert warm is cold
            assert not warm.flags.writeable
            with pytest.raises(ValueError):
                warm[0] = 0.0
            assert np.array_equal(warm, weyl._fresh_row(a, q, d))

    def test_powers_are_exact_in_int64(self):
        # r^d mod q by repeated int64 multiplies equals Python's pow
        for d in (2, 3, 4, 5, 7):
            for q in (1, 2, 97, 200, 3 * 10 ** 4):
                a = 1 + q // 3
                expect = np.fft.fft(np.exp(-2j * np.pi * np.array(
                    [a * pow(r, d, q) % q for r in range(q)]) / q)) / q
                assert np.array_equal(weyl._fresh_row(a % q, q, d), expect)

    def test_unreduced_numerator_gives_the_reduced_row(self):
        # a r^d in int64 would overflow at this a; a is taken mod q first
        a, q = 10 ** 15 + 3, 10007
        row = _complete_sum_row(a, q, 2)
        assert row is _complete_sum_row(a % q, q, 2)
        assert np.array_equal(row, weyl._fresh_row(a % q, q, 2))

    def test_table_rows_are_single_rows(self):
        # the per-q table and its admissible mask, entry by entry
        for d in (2, 3):
            for q in list(range(1, 31)) + [97, 128, 200]:
                table, admissible = weyl._admissible_table(q, d)
                for a in range(q):
                    row = weyl._fresh_row(a, q, d)
                    assert np.array_equal(table[a], np.abs(row))
                    assert admissible[a].tolist() == [
                        math.gcd(math.gcd(a, b), q) == 1 for b in range(q)]

    def test_cache_holds_at_most_its_byte_bound(self):
        for q in range(100, 400):
            _complete_sum_row(1, q, 2)
        held = sum(row.nbytes for row in weyl._ROWS.values())
        assert held == weyl._row_bytes <= weyl._ROW_CACHE_BYTES
        # the most recently built rows stay
        assert (1, 399, 2) in weyl._ROWS


class TestOrthogonalityScan:
    def test_small_scan(self):
        [row], _, _ = _exp_weyl_scan(q_max=4, d_list=(2,))
        assert row["max_abs"] < 1e-12
        assert row["cases"] > 0

    def test_empty_scan(self):
        # q = 1 has no a with gcd(a, q) > 1: nothing would be checked
        with pytest.raises(ValueError, match="need"):
            _exp_weyl_scan(q_max=1, d_list=(2,))

    def test_cubic_scan(self):
        [row], _, _ = _exp_weyl_scan(q_max=30, d_list=(3,))
        assert row["max_abs"] < 1e-12


class TestKernelIdentity:
    def test_q_one(self):
        lhs, rhs = weyl_kernel_identity(0, 1, 2, 0)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_third_at_two(self):
        # three-term direct evaluation: both sides equal e(-1/3)
        lhs, rhs = weyl_kernel_identity(1, 3, 2, 2)
        expected = cmath.exp(-2j * cmath.pi / 3)
        assert lhs == pytest.approx(expected, abs=1e-12)
        assert rhs == pytest.approx(expected, abs=1e-12)

    def test_rhs_always_unimodular(self):
        for q in (2, 7, 15, 31):
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                for x in range(q):
                    _, rhs = weyl_kernel_identity(a, q, 2, x)
                    assert abs(abs(rhs) - 1.0) < 1e-12


    def test_non_reduced_pair(self):
        # the identity holds for a/q as given, reduced or not
        for a, q in ((2, 6), (0, 4), (3, 9)):
            for d in (2, 3):
                for x in range(q):
                    lhs, rhs = weyl_kernel_identity(a, q, d, x)
                    assert abs(lhs - rhs) < 1e-12
                    assert abs(abs(rhs) - 1.0) < 1e-12
        # 2/6 = 1/3: at x = 2 both sides are e(-(1/3) 2^2) = e(-1/3)
        lhs, rhs = weyl_kernel_identity(2, 6, 2, 2)
        expected = cmath.exp(-2j * cmath.pi / 3)
        assert lhs == pytest.approx(expected, abs=1e-12)
        assert rhs == pytest.approx(expected, abs=1e-12)
        # a numerator whose products a r^d would overflow int64
        lhs, rhs = weyl_kernel_identity(10 ** 15 + 3, 10007, 2, 97)
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("x", [7 + 13 * 10 ** 12, 7 + 13 * 10 ** 15,
                                   7 - 13 * 10 ** 15, 7 + 13 * 2 ** 70],
                             ids=["13e12", "13e15", "-13e15", "13*2^70"])
    def test_large_x(self, x):
        # both sides depend on x mod q alone; b x / q taken as a float
        # lost the phase, by 4.2e-3 at x = 7 + 13 10^12
        assert weyl_kernel_identity(3, 13, 2, x) == weyl_kernel_identity(
            3, 13, 2, 7)
        lhs, rhs = weyl_kernel_identity(3, 13, 2, x)
        assert abs(lhs - rhs) < 1e-12


class TestQuadraticClosedForm:
    """For d = 2 and gcd(a, q) = 1, |S(a/q, b/q)| is q^(-1/2) at odd q; at
    q = 2 mod 4 it is sqrt(2/q) for odd b and 0 for even b; at q = 0 mod 4
    it is sqrt(2/q) for even b and 0 for odd b.  This oracle needs no FFT."""

    @staticmethod
    def closed_form(q):
        if q % 2:
            return np.full(q, q ** -0.5)
        b = np.arange(q)
        live = b % 2 == (1 if q % 4 == 2 else 0)
        return np.where(live, math.sqrt(2 / q), 0.0)

    def test_cached_rows(self):
        for q in range(1, 201):
            expect = self.closed_form(q)
            for a in range(q):
                if math.gcd(a, q) == 1:
                    got = np.abs(_complete_sum_row(a, q, 2))
                    assert np.abs(got - expect).max() < 1e-14, (a, q)

    def test_per_q_table(self):
        for q in range(1, 201):
            table, _ = weyl._admissible_table(q, 2)
            coprime = np.gcd(np.arange(q), q) == 1
            err = np.abs(table[coprime] - self.closed_form(q)).max()
            assert err < 1e-14, q


class TestHuaFit:
    def test_prime_gauss_magnitude(self):
        # |S(a/p, 0)| = p^(-1/2) exactly for every a coprime to prime p
        for p in (3, 5, 7, 11, 13):
            for a in range(1, p):
                val = abs(complete_weyl_sum(WeylTriple(a, 0, p, 2)))
                assert abs(val - p ** -0.5) < 1e-13

    def test_fit_small(self):
        [row], _, _ = _exp_hua_fit(q_max=40)
        assert row["fitted_exponent"] <= -0.4
        assert row["max_constant"] < 10.0

    def test_triangle_bound(self):
        assert abs(complete_weyl_sum(WeylTriple(1, 1, 2, 2))) <= 1.0 + 1e-15

    def test_q_max_too_small(self):
        with pytest.raises(ValueError):
            _exp_hua_fit(q_max=4)
