import pytest
from hypothesis import given, strategies as st

from coinvariant.audit import is_log_concave
from coinvariant.combinatorics import partitions_of
from coinvariant.errors import NonExactDivision
from coinvariant.polynomials import (
    IntPoly,
    ONE,
    _times_one_minus_q_power,
    is_unimodal,
    one_minus_q_product,
    q_factorial,
    series_quotient,
    symmetric_about,
)

small_polys = st.lists(st.integers(-9, 9), max_size=6).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: p.coeffs)
positive_polys = st.lists(st.integers(1, 9), min_size=1, max_size=5).map(IntPoly)


def q_int(k):
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return IntPoly((1,) * k)


def one_minus_q_power(k):
    """1 - q^k for k >= 1."""
    return IntPoly((1,) + (0,) * (k - 1) + (-1,))


def times(*polys):
    """The product of ``polys``, by the schoolbook double sum."""
    coeffs = [1]
    for poly in polys:
        out = [0] * (len(coeffs) + len(poly.coeffs))
        for i, x in enumerate(coeffs):
            for j, y in enumerate(poly.coeffs):
                out[i + j] += x * y
        coeffs = out
    return IntPoly(coeffs)


class TestArithmetic:
    def test_product_example(self):
        assert times(IntPoly([1, 1]), IntPoly([1, 1, 1])) == IntPoly([1, 2, 2, 1])

    def test_difference_of_squares(self):
        assert times(IntPoly([1, -1]), IntPoly([1, 1])) == IntPoly([1, 0, -1])

    def test_normalization_strips_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()

    def test_padded_rejects_a_polynomial_that_does_not_fit(self):
        assert IntPoly([1, 2]).padded(4) == (1, 2, 0, 0)
        with pytest.raises(ValueError, match="does not fit in 2 coefficients"):
            IntPoly([1, 1, 1]).padded(2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ONE.coeffs = (2,)

    @given(small_polys, small_polys)
    def test_multiplication_commutes(self, a, b):
        assert times(a, b) == times(b, a)

    @given(small_polys, small_polys)
    def test_evaluation_at_one_is_ring_hom(self, a, b):
        # the value at q = 1 is the coefficient sum
        assert sum(times(a, b).coeffs) == sum(a.coeffs) * sum(b.coeffs)


class TestDivideExact:
    def test_examples(self):
        assert IntPoly([1, 0, -1]).divide_one_minus_q_power(1) == IntPoly([1, 1])
        num = times(IntPoly([1, -1]), IntPoly([1, 0, -1]))
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
        assert times(p, one_minus_q_power(k)).divide_one_minus_q_power(k) == p

    def test_off_by_one_numerator_raises(self):
        p = IntPoly([2, -1, 0, 3, 1])
        for k in range(1, 13):
            num = times(p, one_minus_q_power(k)).coeffs
            for j in range(len(num)):
                bumped = IntPoly(c + (i == j) for i, c in enumerate(num))
                with pytest.raises(NonExactDivision):
                    bumped.divide_one_minus_q_power(k)


class TestQAnalogs:
    def test_q_int(self):
        assert q_factorial(3) == times(IntPoly([1, 1]), IntPoly([1, 1, 1]))

    def test_one_minus_q_product(self):
        assert one_minus_q_product(0) == ONE
        assert one_minus_q_product(2) == IntPoly([1, -1, -1, 1])
        poly = ONE
        for n in range(1, 10):
            poly = times(poly, IntPoly([1, -1]))
            assert one_minus_q_product(n) == times(q_factorial(n), poly)

    def test_products_built_from_smaller_n_are_the_dense_products(self):
        # out of order, so that some n start from a smaller n already built
        # and others from scratch; negative n is the empty product
        for n in (16, 3, 9, 0, -2, *range(17)):
            factorial, product = ONE, ONE
            for k in range(1, n + 1):
                factorial = times(factorial, q_int(k))
                product = times(product, one_minus_q_power(k))
            assert q_factorial(n) == factorial, n
            assert one_minus_q_product(n) == product, n


class TestSeriesQuotient:
    """``series_quotient`` of prod_{k<=n} (1 - q^k) by prod_j (1 - q^{rho_j})
    at every class rho of S_n, n <= 9."""

    @staticmethod
    def quotients():
        for n in range(1, 10):
            numerator = one_minus_q_product(n).coeffs
            for rho in partitions_of(n):
                yield n, rho, numerator, series_quotient(numerator, rho, len(numerator))

    def test_full_length_quotient_ends_in_zeros(self):
        # the quotient is a polynomial of degree deg N - |rho|
        for n, rho, numerator, quotient in self.quotients():
            assert len(quotient) == len(numerator), rho
            assert not any(quotient[-n:]), rho

    def test_quotient_times_the_divisor_is_the_numerator(self):
        for n, rho, numerator, quotient in self.quotients():
            product = quotient[:-n]
            for part in rho:
                product = _times_one_minus_q_power(product, part)
            assert tuple(product) == numerator, rho

    def test_shorter_lengths_are_prefixes(self):
        for n, rho, numerator, quotient in self.quotients():
            for length in range(len(numerator) + 1):
                assert series_quotient(numerator, rho, length) == quotient[:length], (rho, length)


class TestPredicates:
    def test_examples(self):
        seq = [1, 2, 2, 1]
        assert symmetric_about(seq, 3) and is_unimodal(seq) and is_log_concave(seq)
        assert not is_unimodal([1, 0, 1])
        betti = times(IntPoly([1]), q_int(1), q_int(2), q_int(3), q_int(4)).coeffs
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
            assert is_log_concave(times(a, b).coeffs)


class TestTextForm:
    def test_report_form(self):
        assert str(IntPoly([1, 2, 2, 1])) == "1 + 2*q + 2*q^2 + q^3"
        assert str(IntPoly([0, 1, 1])) == "q + q^2"
        assert str(IntPoly([1, -1, -1, 1])) == "1 - q - q^2 + q^3"
        assert str(IntPoly()) == "0"
        assert str(IntPoly([0, 0, 0, 1])) == "q^3"
        assert str(IntPoly([-2, 0, 3])) == "-2 + 3*q^2"
