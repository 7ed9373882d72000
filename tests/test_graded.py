import math

import pytest

from coinvariant import audit, graded
from coinvariant.audit import (
    check_duality,
    fake_degree_projection,
    fake_degree_syt,
    find_nonunimodal_fake_degrees,
    graded_character_poly,
    pad_core,
    stabilization_check,
)
from coinvariant.combinatorics import conjugate, dimension, n_stat, partitions_of
from coinvariant.errors import NonIntegral
from coinvariant.graded import (
    GradedMultiplicityTable,
    _validate,
    build_graded_table,
    fake_degree_hook,
    graded_table,
    poincare_polynomial,
    top_degree,
)
from coinvariant.polynomials import (
    ONE,
    IntPoly,
    is_log_concave,
    is_unimodal,
    monomial,
    symmetric_about,
)


class TestGradedCharacter:
    def test_transposition_n2(self):
        assert graded_character_poly(2, (2,)) == IntPoly([1, -1])

    def test_identity_is_poincare(self):
        for n in range(1, 9):
            assert graded_character_poly(n, (1,) * n) == poincare_polynomial(n)

    def test_three_cycle(self):
        assert graded_character_poly(3, (3,)) == IntPoly([1, -1, -1, 1])

    def test_degree_is_always_top(self):
        # numerator degree n(n+1)/2 minus denominator degree n, for any class
        for n in range(1, 9):
            for rho in partitions_of(n):
                assert graded_character_poly(n, rho).degree == top_degree(n)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            graded_character_poly(3, (2,))

    def test_vanishing_at_one_off_identity(self):
        for n in range(2, 11):
            for rho in partitions_of(n):
                value = graded_character_poly(n, rho)(1)
                assert value == (math.factorial(n) if rho == (1,) * n else 0)


class TestPoincare:
    def test_small(self):
        assert poincare_polynomial(2) == IntPoly([1, 1])
        assert poincare_polynomial(3) == IntPoly([1, 2, 2, 1])
        assert poincare_polynomial(4) == IntPoly([1, 3, 5, 6, 5, 3, 1])

    def test_value_at_one_is_group_order(self):
        for n in range(1, 11):
            assert poincare_polynomial(n)(1) == math.factorial(n)

    def test_predicates(self):
        for n in range(1, 13):
            poly = poincare_polynomial(n)
            seq = poly.coeffs
            assert symmetric_about(seq, poly.degree) and is_unimodal(seq) and is_log_concave(seq)


class TestFakeDegrees:
    def test_single_row(self):
        for n in (1, 3, 6):
            assert fake_degree_syt((n,)) == IntPoly([1])
            assert fake_degree_hook((n,)) == IntPoly([1])

    def test_single_column(self):
        assert fake_degree_syt((1, 1, 1)) == IntPoly([0, 0, 0, 1])

    def test_hook_shape(self):
        assert fake_degree_syt((2, 1)) == IntPoly([0, 1, 1])
        assert fake_degree_hook((2, 1)) == IntPoly([0, 1, 1])

    def test_two_by_two(self):
        # golden value frozen from the tableau enumeration route
        assert fake_degree_syt((2, 2)) == IntPoly([0, 0, 1, 0, 1])
        assert fake_degree_hook((2, 2)) == IntPoly([0, 0, 1, 0, 1])

    def test_hook_quotients(self):
        # q^{n(lam)} times the quotient [n]_q! / prod over cells [hook]_q
        quotients = [((2, 1), IntPoly([1, 1]))]
        quotients += [((n,), ONE) for n in (1, 2, 5)]
        quotients += [((1, 1), ONE), ((2, 2), IntPoly([1, 0, 1]))]
        for lam, quotient in quotients:
            assert fake_degree_hook(lam) == monomial(n_stat(lam)) * quotient

    def test_projection_n2(self):
        assert fake_degree_projection((2,), 2) == IntPoly([1])
        assert fake_degree_projection((1, 1), 2) == IntPoly([0, 1])

    def test_projection_n3(self):
        assert fake_degree_projection((2, 1), 3) == IntPoly([0, 1, 1])

    def test_projection_raises_on_a_remainder(self, monkeypatch):
        # one more at q^0 of the 5-cycle adds |C_(5)| = 24 to a class sum
        # that must be a multiple of 5! = 120
        def bumped(n, rho):
            poly = graded_character_poly(n, rho)
            return poly + ONE if rho == (5,) else poly

        monkeypatch.setattr(audit, "graded_character_poly", bumped)
        with pytest.raises(NonIntegral):
            fake_degree_projection((5,), 5)

    def test_three_routes_agree(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                syt = fake_degree_syt(lam)
                assert syt == fake_degree_hook(lam)
                assert syt == fake_degree_projection(lam, n)


class TestGradedTable:
    def test_n2(self):
        table = build_graded_table(2)
        assert table.top_degree == 1
        assert table.row((2,)) == (1, 0)
        assert table.row((1, 1)) == (0, 1)

    def test_n3(self):
        table = build_graded_table(3)
        assert table.top_degree == 3
        assert table.row((3,)) == (1, 0, 0, 0)
        assert table.row((2, 1)) == (0, 1, 1, 0)
        assert table.row((1, 1, 1)) == (0, 0, 0, 1)

    def test_row_sums_are_dimensions(self):
        table = graded_table(6)
        for lam in table.partitions:
            assert sum(table.row(lam)) == dimension(lam)
        # canonical order pins the leading dimension sequence for n = 6
        sums = tuple(sum(row) for row in table.b)
        assert sums[:6] == (1, 5, 9, 10, 5, 16)

    def test_column_sums_weighted_by_dimension(self):
        for n in range(1, 9):
            table = graded_table(n)
            betti = poincare_polynomial(n).padded(table.top_degree + 1)
            for i in range(table.top_degree + 1):
                total = sum(
                    dimension(lam) * table.row(lam)[i] for lam in table.partitions
                )
                assert total == betti[i]

    def test_multiplicity_out_of_range_is_zero(self):
        table = graded_table(3)
        assert table.multiplicity((2, 1), -1) == 0
        assert table.multiplicity((2, 1), 99) == 0

    def test_support(self):
        table = graded_table(3)
        assert table.support(0) == ((0, 1),)
        assert table.support(1) == ((1, 1),)
        assert table.support(-2) == ()
        assert table.support(table.top_degree + 1) == ()


class TestDuality:
    def test_explicit_n2(self):
        poly = graded_character_poly(2, (2,))
        assert poly.mirror(1) == poly.scale(-1)

    def test_small(self):
        for n in range(1, 9):
            assert check_duality(n)

    def test_mirror_defect_in_one_class(self, monkeypatch):
        # rho = (3, 1) has sign +1, so q^0 + chi(rho, q) is no longer its
        # own mirror at c = 6
        def bumped(n, rho):
            poly = graded_character_poly(n, rho)
            return poly + ONE if rho == (3, 1) else poly

        monkeypatch.setattr(audit, "graded_character_poly", bumped)
        assert not check_duality(4)


def bumped_table(table, *bumps):
    """``table`` with delta added at b[lam][i] and at b[conjugate(lam)][c - i]
    for each (lam, i, delta), which keeps duality."""
    c = table.top_degree
    b = [list(row) for row in table.b]
    for lam, i, delta in bumps:
        b[table.index(lam)][i] += delta
        b[table.index(conjugate(lam))][c - i] += delta
    return GradedMultiplicityTable(table.n, tuple(map(tuple, b)))


def guards_held(table):
    """(row sums, duality, Poincare columns), each checked on its own."""
    dims = [dimension(lam) for lam in table.partitions]
    betti = poincare_polynomial(table.n).padded(table.top_degree + 1)
    return (
        all(sum(row) == d for row, d in zip(table.b, dims)),
        graded._duality_failure(table) is None,
        all(
            sum(d * row[i] for d, row in zip(dims, table.b)) == betti[i]
            for i in range(table.top_degree + 1)
        ),
    )


class TestBuildGuards:
    """Each defect below breaks exactly one guard of ``_validate``."""

    def test_row_sum_only_defect(self):
        # +3 in row (4) and -1 in row (3,1) at degree 1 cancel in the
        # dimension-weighted column, as their mirrors do at degree 5
        broken = bumped_table(graded_table(4), ((4,), 1, 3), ((3, 1), 1, -1))
        assert guards_held(broken) == (False, True, True)
        with pytest.raises(AssertionError, match=r"^row sum != dim V\(\(4,\)\)$"):
            _validate(broken)

    def test_duality_only_defect(self):
        # (5,1) and (3,3) both have dimension 5 and are not conjugate, so
        # swapping their rows keeps every row sum and weighted column
        table = graded_table(6)
        b = list(table.b)
        a, z = table.index((5, 1)), table.index((3, 3))
        b[a], b[z] = b[z], b[a]
        broken = GradedMultiplicityTable(6, tuple(b))
        assert guards_held(broken) == (True, False, True)
        with pytest.raises(AssertionError, match=r"^duality fails on row \(5, 1\)$"):
            _validate(broken)

    def test_poincare_column_only_defect(self):
        # moving one copy of V(3,1) from degree 1 to degree 0 keeps its row
        # sum, and its mirror move in row (2,1,1) keeps duality
        broken = bumped_table(graded_table(4), ((3, 1), 1, -1), ((3, 1), 0, 1))
        assert guards_held(broken) == (True, True, False)
        with pytest.raises(
            AssertionError, match="^column 0 does not match Poincare coefficient$"
        ):
            _validate(broken)

    def test_lowest_degree_only_defect(self):
        # the rows of (5,1) and its conjugate (2,1,1,1,1) are each other's
        # mirror, so swapping them keeps every row sum, duality and every
        # weighted column; only the lowest degree n(lam) tells them apart
        table = graded_table(6)
        b = list(table.b)
        a, z = table.index((5, 1)), table.index((2, 1, 1, 1, 1))
        b[a], b[z] = b[z], b[a]
        broken = GradedMultiplicityTable(6, tuple(b))
        assert guards_held(broken) == (True, True, True)
        with pytest.raises(
            AssertionError,
            match=r"^row \(5, 1\) does not start at degree n\(lam\) with multiplicity 1$",
        ):
            _validate(broken)


class TestStabilization:
    def test_degree_one_pattern(self):
        # in degree 1 only the shape (n-1, 1) appears, with multiplicity 1
        for n in range(2, 10):
            table = graded_table(n)
            for lam in table.partitions:
                expected = 1 if lam == (n - 1, 1) else 0
                assert table.multiplicity(lam, 1) == expected

    def test_stable_up_to_degree_four(self):
        for i in range(1, 5):
            report = stabilization_check(i, 10)
            assert report.stable
            assert report.n_min == 2 * i

    def test_sequences_cover_small_cores(self):
        report = stabilization_check(2, 8)
        cores = [core for core, _ in report.sequences]
        assert cores == [(), (1,), (2,), (1, 1)]
        values = dict(report.sequences)
        # the degree-2 piece is V(n-1,1) + V(n-2,2) once n >= 4
        assert set(values[(1,)]) == {1}
        assert set(values[(2,)]) == {1}
        assert set(values[()]) == {0}
        assert set(values[(1, 1)]) == {0}

    def test_pad_core(self):
        assert pad_core((), 5) == (5,)
        assert pad_core((2, 1), 7) == (4, 2, 1)
        with pytest.raises(ValueError):
            pad_core((3,), 4)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stabilization_check(0, 10)
        with pytest.raises(ValueError):
            stabilization_check(3, 5)


class TestNonUnimodalFakeDegrees:
    def test_none_for_tiny_n(self):
        assert find_nonunimodal_fake_degrees(2) == []
        assert find_nonunimodal_fake_degrees(3) == []

    def test_first_example_at_n4(self):
        # (2,2) has fake degrees q^2 + q^4: the gap breaks unimodality
        assert find_nonunimodal_fake_degrees(4) == [(2, 2)]

    def test_n6_golden(self):
        # frozen after first computation, cross-checked by the SYT route below
        assert find_nonunimodal_fake_degrees(6) == [
            (4, 2),
            (3, 3),
            (2, 2, 2),
            (2, 2, 1, 1),
        ]

    def test_agrees_with_syt_route(self):
        for n in range(1, 9):
            via_oracle = [
                lam
                for lam in partitions_of(n)
                if not is_unimodal(fake_degree_syt(lam).coeffs)
            ]
            assert find_nonunimodal_fake_degrees(n) == via_oracle
