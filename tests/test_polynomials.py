import math

import pytest
from hypothesis import given, strategies as st

from coinvariant.errors import NonExactDivision
from coinvariant.polynomials import (
    IntPoly,
    ONE,
    ZERO,
    is_log_concave,
    is_unimodal,
    monomial,
    one_minus_q_power,
    one_minus_q_product,
    q_binomial,
    q_factorial,
    q_int,
    symmetric_about,
)

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero)
positive_polys = st.lists(st.integers(1, 9), min_size=1, max_size=5).map(IntPoly)


class TestArithmetic:
    def test_product_example(self):
        assert IntPoly([1, 1]) * IntPoly([1, 1, 1]) == IntPoly([1, 2, 2, 1])

    def test_additive_identity(self):
        p = IntPoly([3, -1, 2])
        assert p + ZERO == p

    def test_difference_of_squares(self):
        assert IntPoly([1, -1]) * IntPoly([1, 1]) == IntPoly([1, 0, -1])

    def test_normalization_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_zero_degree_undefined(self):
        with pytest.raises(ValueError):
            ZERO.degree

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.coeffs = (2,)

    @given(small_polys, small_polys)
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @given(small_polys, small_polys)
    def test_evaluation_at_one_is_ring_hom(self, a, b):
        assert (a + b)(1) == a(1) + b(1)
        assert (a * b)(1) == a(1) * b(1)
        assert (a - b)(1) == a(1) - b(1)


class TestDivideExact:
    def test_examples(self):
        assert IntPoly([1, 0, -1]).divide_one_minus_q_power(1) == IntPoly([1, 1])
        num = IntPoly([1, -1]) * IntPoly([1, 0, -1])
        assert num.divide_one_minus_q_power(2) == IntPoly([1, -1])

    def test_nonexact_raises(self):
        with pytest.raises(NonExactDivision):
            IntPoly([1, 1]).divide_one_minus_q_power(1)
        with pytest.raises(NonExactDivision):
            IntPoly([1, 0, 1]).divide_one_minus_q_power(3)

    def test_zero_divisor_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="needs k >= 1"):
                ONE.divide_one_minus_q_power(k)

    @given(nonzero_polys, st.integers(1, 12))
    def test_divides_one_minus_q_power(self, p, k):
        assert (p * one_minus_q_power(k)).divide_one_minus_q_power(k) == p

    def test_off_by_one_numerator_raises(self):
        p = IntPoly([2, -1, 0, 3, 1])
        for k in range(1, 13):
            num = (p * one_minus_q_power(k)).coeffs
            for j in range(len(num)):
                bumped = IntPoly(c + (i == j) for i, c in enumerate(num))
                with pytest.raises(NonExactDivision):
                    bumped.divide_one_minus_q_power(k)


class TestMirror:
    def test_example(self):
        assert IntPoly([1, 2, 0, 1]).mirror(3) == IntPoly([1, 0, 2, 1])

    def test_constant(self):
        assert ONE.mirror(0) == ONE

    def test_rejects_large_degree(self):
        with pytest.raises(ValueError):
            IntPoly([1, 1, 1]).mirror(1)

    @given(small_polys, st.integers(0, 4))
    def test_double_mirror_is_identity(self, p, extra):
        if p.is_zero:
            assert p.mirror(extra) == p
            return
        c = p.degree + extra
        assert p.mirror(c).mirror(c) == p


class TestQAnalogs:
    def test_q_int(self):
        assert q_int(3) == IntPoly([1, 1, 1])
        assert q_factorial(3) == IntPoly([1, 1]) * IntPoly([1, 1, 1])
        assert one_minus_q_power(2) == IntPoly([1, 0, -1])

    def test_one_minus_q_power_needs_positive_exponent(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="needs k >= 1"):
                one_minus_q_power(k)

    def test_one_minus_q_product(self):
        assert one_minus_q_product(0) == ONE
        assert one_minus_q_product(2) == IntPoly([1, -1, -1, 1])
        poly = ONE
        for n in range(1, 10):
            poly = poly * IntPoly([1, -1])
            assert one_minus_q_product(n) == q_factorial(n) * poly

    def test_q_binomial_is_factorial_quotient(self):
        for n in range(13):
            for k in range(n + 1):
                poly = q_binomial(n, k)
                # Z[q] has no zero divisors, so this pins the quotient
                assert poly * q_factorial(k) * q_factorial(n - k) == q_factorial(n)
                assert poly(1) == math.comb(n, k)

    def test_q_binomial_vanishes_outside_range(self):
        assert q_binomial(4, 2) == IntPoly([1, 1, 2, 1, 1])
        for n, k in ((3, -1), (3, 4), (0, 1), (-1, 0), (-2, -1)):
            assert q_binomial(n, k) == ZERO


class TestPredicates:
    def test_examples(self):
        seq = [1, 2, 2, 1]
        assert symmetric_about(seq, 3) and is_unimodal(seq) and is_log_concave(seq)
        assert not is_unimodal([1, 0, 1])
        betti = (IntPoly([1]) * q_int(1) * q_int(2) * q_int(3) * q_int(4)).coeffs
        assert betti == (1, 3, 5, 6, 5, 3, 1)
        assert symmetric_about(betti, 6) and is_unimodal(betti) and is_log_concave(betti)

    def test_symmetry_center_matters(self):
        assert symmetric_about([0, 1, 1], 3)
        assert not symmetric_about([0, 1, 1], 2)
        assert symmetric_about([1], 0)
        assert symmetric_about([], 2)

    def test_log_concave_literal_on_zeros(self):
        assert not is_log_concave([1, 0, 1])
        assert is_log_concave([0, 1, 0])
        assert is_log_concave([5])
        assert is_log_concave([])

    def test_unimodal_edges(self):
        assert is_unimodal([])
        assert is_unimodal([2])
        assert is_unimodal([1, 1, 1])
        assert is_unimodal([0, 0, 1, 1, 0])
        assert not is_unimodal([0, 0, 1, 0, 1])

    @given(positive_polys, positive_polys)
    def test_log_concavity_closed_under_product_when_positive(self, a, b):
        if is_log_concave(a.coeffs) and is_log_concave(b.coeffs):
            assert is_log_concave((a * b).coeffs)


class TestTextForm:
    def test_report_form(self):
        assert str(IntPoly([1, 2, 2, 1])) == "1 + 2*q + 2*q^2 + q^3"
        assert str(IntPoly([0, 1, 1])) == "q + q^2"
        assert str(IntPoly([1, -1, -1, 1])) == "1 - q - q^2 + q^3"
        assert str(ZERO) == "0"
        assert str(monomial(3)) == "q^3"
        assert str(IntPoly([-2, 0, 3])) == "-2 + 3*q^2"
