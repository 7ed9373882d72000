from fractions import Fraction

import pytest

from coinvariant import verify
from coinvariant.characters import character_table
from coinvariant.combinatorics import centralizer_size, dimension, partitions_of
from coinvariant.graded import graded_character_poly, graded_table, top_degree
from coinvariant.kronecker import OnDemandKronecker, kronecker_table
from coinvariant.springer import springer_graded_table
from coinvariant.verify import (
    betti_log_concavity,
    d_matrix,
    d_vector,
    low_degree_harness,
    parse_degree_filter,
    tensor_multiplicity_vector,
    tensor_pair_multiplicity,
    verify_d_unimodality,
    verify_flag_log_concavity,
)


def tensor_multiplicity_by_characters(n, i, j, nu):
    """Independent oracle: the degree-i piece has character [q^i] chi(rho, q)
    per class; multiply pointwise and project onto V(nu) with rational
    class weights."""
    table = character_table(n)
    total = Fraction(0)
    for rho, chi_nu in zip(table.partitions, table.row(nu)):
        graded_char = graded_character_poly(n, rho)
        value = graded_char.coeff(i) * graded_char.coeff(j) * chi_nu
        total += Fraction(value, centralizer_size(rho))
    assert total.denominator == 1
    return int(total)


class TestTensorPairMultiplicity:
    def test_adjacent_degrees_n3(self):
        assert tensor_pair_multiplicity(3, 1, 1, (3,)) == 1

    def test_degree_zero_is_identity(self):
        table = graded_table(5)
        for k in (0, 2, 7):
            for nu in partitions_of(5):
                assert tensor_pair_multiplicity(5, 0, k, nu) == table.multiplicity(
                    nu, k
                )

    def test_trivial_times_sign(self):
        assert tensor_pair_multiplicity(3, 0, 3, (1, 1, 1)) == 1

    def test_out_of_range_degree_contributes_zero(self):
        for nu in partitions_of(3):
            assert tensor_pair_multiplicity(3, -1, 2, nu) == 0
            assert tensor_pair_multiplicity(3, 4, 1, nu) == 0

    def test_commutes_in_degrees(self):
        for n in range(2, 7):
            c = top_degree(n)
            for i in range(c + 1):
                for j in range(i, c + 1):
                    for nu in partitions_of(n):
                        assert tensor_pair_multiplicity(
                            n, i, j, nu
                        ) == tensor_pair_multiplicity(n, j, i, nu)

    def test_matches_character_oracle(self):
        for n in range(2, 6):
            c = top_degree(n)
            for i in range(c + 1):
                for j in range(i, c + 1):
                    for nu in partitions_of(n):
                        assert tensor_pair_multiplicity(n, i, j, nu) == (
                            tensor_multiplicity_by_characters(n, i, j, nu)
                        )

    def test_rejects_non_partition(self):
        for nu in ((1, 2), (2, 2), (3, 0)):
            with pytest.raises(ValueError):
                tensor_pair_multiplicity(3, 1, 1, nu)


class TestDVector:
    def test_n3_trivial(self):
        assert d_vector(3, (3,)) == [1, 1]

    def test_n3_standard(self):
        assert d_vector(3, (2, 1)) == [0, 0]

    def test_n2_empty_interior(self):
        assert d_vector(2, (2,)) == []

    def test_rejects_non_partition(self):
        for nu in ((1, 2), (2, 2), (3, 0)):
            with pytest.raises(ValueError):
                d_vector(3, nu)

    def test_d_matrix_rejects_boundary_degrees(self):
        table = graded_table(4)
        for i in (0, table.top_degree):
            with pytest.raises(ValueError, match=rf"^degree {i} outside interior range \[1, 5\]$"):
                d_matrix(table, [i])

    def test_d_matrix_checks_every_degree_before_any_class_sum(self, monkeypatch):
        table = graded_table(4)

        def no_class_sums(n):
            raise AssertionError("character table looked up before the degree check")

        monkeypatch.setattr(verify, "character_table", no_class_sums)
        with pytest.raises(ValueError, match=r"^degree 6 outside interior range \[1, 5\]$"):
            d_matrix(table, [1, 2, 6])

    def test_symmetry_theorem(self):
        for n in range(3, 8):
            c = top_degree(n)
            for nu in partitions_of(n):
                seq = d_vector(n, nu)
                assert seq == seq[::-1], (n, nu)


class TestFlagLogConcavity:
    def test_n3_passes(self):
        report = verify_flag_log_concavity(3)
        assert report.status == "pass"
        assert report.min_d == 0
        assert report.violations == ()

    def test_n4_passes(self):
        report = verify_flag_log_concavity(4)
        assert report.status == "pass"

    def test_entries_cover_all_pairs(self):
        report = verify_flag_log_concavity(5)
        c = top_degree(5)
        assert len(report.entries) == len(partitions_of(5)) * (c - 1)

    def test_degree_filter(self):
        report = verify_flag_log_concavity(6, degree_filter=(1, 2, 3))
        assert report.degrees == (1, 2, 3)
        assert report.status == "pass"

    def test_payload_shape(self):
        payload = verify_flag_log_concavity(4).payload()
        assert payload["kind"] == "flag-lc"
        assert payload["status"] == "pass"
        assert {"nu", "i", "d"} == set(payload["entries"][0])

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            verify_flag_log_concavity(1)


class TestDegreeFilter:
    def test_all(self):
        assert parse_degree_filter("all", 5) == (1, 2, 3, 4)

    def test_low(self):
        assert parse_degree_filter("low:2", 10) == (1, 2, 8, 9)
        assert parse_degree_filter("low:3", 4) == (1, 2, 3)
        for empty in ("low:0", "low:-5"):
            with pytest.raises(ValueError, match="selects no interior degree"):
                parse_degree_filter(empty, 10)
        with pytest.raises(ValueError, match="degree filter 'low:x'"):
            parse_degree_filter("low:x", 10)

    def test_explicit(self):
        assert parse_degree_filter("3,1,2", 10) == (1, 2, 3)
        with pytest.raises(ValueError):
            parse_degree_filter("0,1", 10)
        with pytest.raises(ValueError):
            parse_degree_filter("9,10", 10)
        with pytest.raises(ValueError, match="degree filter '1,,2'"):
            parse_degree_filter("1,,2", 10)


class TestLowDegreeHarness:
    def test_small(self):
        report = low_degree_harness(6)
        assert report.status == "pass"
        assert report.violations == ()
        assert report.mirror_mismatches == ()

    def test_covers_degree_and_codegree(self):
        report = low_degree_harness(6)
        by_n = {}
        for n, nu, i, d in report.entries:
            by_n.setdefault(n, set()).add(i)
        assert by_n[6] == {1, 2, 3, 12, 13, 14}
        assert by_n[4] == {1, 2, 3, 4, 5}

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            low_degree_harness(3)

    def test_payload_kind(self):
        assert low_degree_harness(5).payload()["kind"] == "low-degree"

    def test_codegree_mismatch_fails_the_mirror_check(self, monkeypatch):
        # at n = 5 (c = 10) raise d[(4,1)][9] by one, so it no longer
        # mirrors d[(4,1)][1] but stays nonnegative
        compute = verify.d_matrix

        def skewed(table, degrees=None):
            matrix = compute(table, degrees)
            if table.n == 5:
                row = table.index((4, 1))
                matrix[9] = tuple(d + (k == row) for k, d in enumerate(matrix[9]))
            return matrix

        monkeypatch.setattr(verify, "d_matrix", skewed)
        report = low_degree_harness(6)
        assert report.mirror_mismatches == ((5, (4, 1), 1),)
        assert report.violations == ()
        assert report.status == "fail"
        assert report.payload()["mirror_mismatches"] == [{"n": 5, "nu": "4,1", "m": 1}]


class TestUnimodality:
    def test_n3(self):
        report = verify_d_unimodality(3)
        assert report.status == "pass"
        values = dict(report.sequences)
        assert values[(3,)] == (1, 1)
        assert values[(2, 1)] == (0, 0)

    def test_n6(self):
        report = verify_d_unimodality(6)
        assert report.status == "pass"
        assert report.symmetric_failures == ()
        assert report.unimodal_failures == ()

    def test_payload(self):
        payload = verify_d_unimodality(4).payload()
        assert payload["kind"] == "unimodal"
        assert payload["violations"] == []


class TestBettiLogConcavity:
    def test_examples(self):
        assert betti_log_concavity(1)
        assert betti_log_concavity(3)
        assert betti_log_concavity(4)

    def test_range(self):
        for n in range(1, 9):
            assert betti_log_concavity(n)

    def test_dimension_identity_directly(self):
        for n in range(2, 7):
            table = graded_table(n)
            matrix = d_matrix(table)
            betti = [
                sum(dimension(lam) * table.row(lam)[i] for lam in table.partitions)
                for i in range(table.top_degree + 1)
            ]
            dims = [dimension(nu) for nu in table.partitions]
            for i in range(1, table.top_degree):
                weighted = sum(d * v for d, v in zip(dims, matrix[i]))
                assert weighted == betti[i] ** 2 - betti[i - 1] * betti[i + 1]


def d_by_kronecker(table, kron, degrees):
    """The audit route: d from tensor multiplicities over Kronecker
    coefficients."""
    return {
        i: tuple(
            square - cross
            for square, cross in zip(
                tensor_multiplicity_vector(table, kron, i, i),
                tensor_multiplicity_vector(table, kron, i - 1, i + 1),
            )
        )
        for i in degrees
    }


class TestCharacterRouteMatchesKronecker:
    def test_coinvariant_every_degree(self):
        for n in range(2, 10):
            table = graded_table(n)
            degrees = range(1, table.top_degree)
            assert d_matrix(table) == d_by_kronecker(
                table, kronecker_table(n), degrees
            ), n

    def test_springer_types(self):
        checked = 0
        for n in range(3, 9):
            for mu in partitions_of(n):
                table = springer_graded_table(mu)
                if table.top_degree < 3:
                    continue
                degrees = range(1, table.top_degree)
                assert d_matrix(table) == d_by_kronecker(
                    table, kronecker_table(n), degrees
                ), mu
                checked += 1
        assert checked > 0

    def test_low_degree_harness_degrees_on_demand(self):
        for n in range(10, 13):
            table = graded_table(n)
            c = table.top_degree
            degrees = (1, 2, 3, c - 3, c - 2, c - 1)
            kron = OnDemandKronecker(character_table(n))
            assert d_matrix(table, degrees) == d_by_kronecker(table, kron, degrees), n
