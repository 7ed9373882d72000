from fractions import Fraction

import pytest

from coinvariant import characters, verify
from coinvariant.audit import (
    betti_log_concavity,
    d_vector,
    graded_character_poly,
    tensor_pair_multiplicity,
)
from coinvariant.characters import character_table
from coinvariant.combinatorics import centralizer_size, dimension, partition_index, partitions_of
from coinvariant.errors import NonIntegral
from coinvariant.graded import graded_table, top_degree
from coinvariant.kronecker import OnDemandKronecker, kronecker_table
from coinvariant.springer import springer_counterexample_search, springer_graded_table
from coinvariant.store import CacheStore
from coinvariant.verify import (
    d_matrices,
    d_matrix,
    low_degree_harness,
    low_degree_window,
    parse_degree_filter,
    tensor_multiplicity_vector,
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
        # [q^i] chi(rho, q), 0 outside the polynomial's degrees
        coeff = dict(enumerate(graded_character_poly(n, rho).coeffs)).get
        value = coeff(i, 0) * coeff(j, 0) * chi_nu
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
                assert tensor_pair_multiplicity(5, 0, k, nu) == table.b[partition_index(5)[nu]][k]

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
        # d_matrices takes every interior degree of a table and no other
        table = graded_table(4)
        assert sorted(d_matrices([table])[0]) == list(range(1, table.top_degree))
        for i in (0, table.top_degree):
            with pytest.raises(ValueError, match=rf"^degree {i} outside interior range \[1, 5\]$"):
                d_matrix(4, [i])

    def test_d_matrix_checks_every_degree_before_any_class_sum(self, monkeypatch):
        def no_class_sums(*args):
            raise AssertionError("character rows looked up before the degree check")

        monkeypatch.setattr(verify, "character_table", no_class_sums)
        monkeypatch.setattr(verify, "character_rows", no_class_sums)
        with pytest.raises(ValueError, match=r"^degree 6 outside interior range \[1, 5\]$"):
            d_matrix(4, [1, 2, 6])

    def test_symmetry_theorem(self):
        for n in range(3, 8):
            c = top_degree(n)
            for nu in partitions_of(n):
                seq = d_vector(n, nu)
                assert seq == seq[::-1], (n, nu)


class TestClosedFormRoute:
    """The coinvariant ring's graded characters by their closed form, the
    route of ``d_matrix``, against the graded table and the polynomials."""

    def test_every_degree_matches_the_table_and_the_polynomials(self):
        for n in range(1, 13):
            c = top_degree(n)
            table = graded_table(n)
            chi = verify._graded_characters(n, c + 1)
            assert sorted(chi) == list(range(c + 1)), n
            combined = character_table(n)._combine_rows([table.support(j) for j in range(c + 1)])
            assert [list(chi[j]) for j in range(c + 1)] == combined, n
            for k, rho in enumerate(partitions_of(n)):
                poly = graded_character_poly(n, rho)
                assert tuple(chi[j][k] for j in range(c + 1)) == poly.padded(c + 1)

    def test_window_is_the_full_series_at_its_degrees(self):
        for n in range(2, 15):
            c = top_degree(n)
            full = verify._graded_characters(n, c + 1)
            for m in range(8):
                length = m + 2
                chi = verify._graded_characters(n, length)
                assert set(chi) == {j for j in range(c + 1) if j < length or j > c - length}
                assert chi == {j: full[j] for j in chi}, (n, m)

    def test_d_matrix_matches_the_table_route(self):
        for n in range(1, 13):
            assert d_matrix(n) == d_matrices([graded_table(n)])[0], n
        assert d_matrix(1) == {}
        # every row at (1, 7, 14) and (1, 18); at (2,), (2, 34) and (3, 63)
        # only the rows with n - nu_1 <= 2 min(i, c - i)
        for n, degrees in [(6, (1, 7, 14)), (9, (1, 18)), (9, (2,)), (9, (2, 34)), (12, (3, 63))]:
            full = d_matrices([graded_table(n)])[0]
            assert d_matrix(n, degrees) == {i: full[i] for i in degrees}, (n, degrees)

    def test_d_matrix_checks_every_degree_before_any_character(self, monkeypatch):
        def no_characters(*args):
            raise AssertionError("characters taken before the degree check")

        monkeypatch.setattr(verify, "character_table", no_characters)
        monkeypatch.setattr(verify, "_graded_characters", no_characters)
        for degrees in ([0], [5, 6], [1, 2, 6]):
            bad = next(i for i in degrees if not 1 <= i <= 5)
            with pytest.raises(ValueError, match=rf"^degree {bad} outside interior range \[1, 5\]$"):
                d_matrix(4, degrees)

    def test_perturbed_identity_value_fails_the_betti_guard(self, monkeypatch):
        graded_characters = verify._graded_characters

        def skewed(n, length):
            chi = graded_characters(n, length)
            chi[3] = (*chi[3][:-1], chi[3][-1] - 1)
            return chi

        monkeypatch.setattr(verify, "_graded_characters", skewed)
        message = "chi_3 at the identity is not the Betti number b_3 of n=5"
        with pytest.raises(AssertionError, match=message):
            verify_flag_log_concavity(5)
        with pytest.raises(AssertionError, match=message):
            verify_d_unimodality(5)


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
        assert len(report.payload()["entries"]) == len(partitions_of(5)) * (c - 1)

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

        def skewed(n, degrees=None):
            matrix = compute(n, degrees)
            if n == 5:
                row = partitions_of(5).index((4, 1))
                matrix[9] = tuple(d + (k == row) for k, d in enumerate(matrix[9]))
            return matrix

        monkeypatch.setattr(verify, "d_matrix", skewed)
        report = low_degree_harness(6)
        assert report.mirror_mismatches == ((5, (4, 1), 1),)
        assert report.violations == ()
        assert report.status == "fail"
        assert report.payload()["mirror_mismatches"] == [{"n": 5, "nu": "4,1", "m": 1}]


class TestDistinctClassFunctions:
    """``d_matrix`` decomposes each distinct class function once; a
    co-degree function that differs from its degree's is decomposed apart."""

    @staticmethod
    def skew_codegree(monkeypatch):
        # chi_(c-1) of n = 6 gains chi_(4,2) - chi_(2,2,1,1), 0 at the
        # identity, so the Betti guard holds and f_(c-2), f_(c-1) change
        graded_characters = verify._graded_characters
        table = character_table(6)
        delta = [a - b for a, b in zip(table.row((4, 2)), table.row((2, 2, 1, 1)))]

        def skewed(n, length):
            chi = graded_characters(n, length)
            if n == 6:
                chi[14] = tuple(map(sum, zip(chi[14], delta)))
            return chi

        monkeypatch.setattr(verify, "_graded_characters", skewed)

    def test_codegree_functions_equal_their_degrees(self):
        for n in range(3, 10):
            c = top_degree(n)
            matrix = d_matrix(n)
            assert all(matrix[i] == matrix[c - i] for i in range(1, c)), n

    def test_skewed_codegree_character_changes_its_d(self, monkeypatch):
        clean = verify_flag_log_concavity(6).matrix
        self.skew_codegree(monkeypatch)
        skewed = verify_flag_log_concavity(6).matrix
        assert skewed[14] != clean[14] and skewed[14] != skewed[1]
        assert {i for i in clean if skewed[i] != clean[i]} == {13, 14}
        report = low_degree_harness(6)
        assert report.status == "fail"
        assert {(n, m) for n, _, m in report.mirror_mismatches} == {(6, 1), (6, 2)}


class TestLowDegreeRoute:
    """``d_matrix`` at degrees within m of either end: graded characters as
    truncated series, character rows with n - nu_1 <= 2m only, and a guard
    for each part."""

    def test_matches_d_matrix_on_full_tables(self):
        for n in range(2, 15):
            table = graded_table(n)
            full = d_matrices([table])[0]
            for m in range(1, 7):
                expected = {i: full[i] for i in low_degree_window(m, table.top_degree)}
                assert d_matrix(n, low_degree_window(m, table.top_degree)) == expected, (n, m)
                # the audit route agrees that d is 0 outside the row bound
                for row in expected.values():
                    for nu, d in zip(partitions_of(n), row):
                        assert d == 0 or n - nu[0] <= 2 * m, (n, m, nu)

    def test_full_rows_take_the_table_and_omitted_rows_take_rows_alone(self, monkeypatch):
        def no_rows(n, shapes):
            raise AssertionError("character_rows called for every row")

        monkeypatch.setattr(verify, "character_rows", no_rows)
        for n in range(3, 9):
            d_matrix(n)
        d_matrix(9, (1, 2, 3, 9, 33))
        monkeypatch.undo()
        table = verify.character_table

        def small_tables_only(n):
            assert n <= 7, f"character_table({n}) in the harness"
            return table(n)

        monkeypatch.setattr(verify, "character_table", small_tables_only)
        assert low_degree_harness(10).status == "pass"

    def test_dropped_row_fails_the_completeness_guard(self, monkeypatch):
        # the harness's rows at max_m = 3, less those with n - nu_1 = 6,
        # which are needed at m = 3: d[(3, 3, 3)][3] = 1
        monkeypatch.setattr(verify, "low_degree_shapes", lambda n, m: tuple(
            nu for nu in partitions_of(n) if n - nu[0] <= 5
        ))
        with pytest.raises(AssertionError, match=r"completeness fails at n=9, degree 3:"):
            low_degree_harness(9)

    @pytest.mark.parametrize(
        "rho, message",
        [
            ((2, 1, 1, 1), r"row \(4, 1\) does not have norm 5!"),
            ((1, 1, 1, 1, 1), r"dimension column wrong at \(4, 1\)"),
        ],
        ids=["norm", "dimension"],
    )
    def test_perturbed_mn_value_fails_the_row_guard(self, monkeypatch, rho, message):
        # degrees 1 and 9 of n = 5 need only the rows with n - nu_1 <= 2,
        # (4, 1) among them, so d_matrix builds those rows alone
        mn_row = characters._mn_row
        column = partitions_of(5).index(rho)

        def skewed(lam):
            row = mn_row(lam)
            if lam == (4, 1):
                row = tuple(v + (k == column) for k, v in enumerate(row))
            return row

        monkeypatch.setattr(characters, "_mn_row", skewed)
        with pytest.raises(AssertionError, match=message):
            d_matrix(5, (1, 9))

    def test_perturbed_graded_coefficient_fails_the_betti_guard(self, monkeypatch):
        graded_characters = verify._graded_characters

        def skewed(n, max_m):
            chi = graded_characters(n, max_m)
            if n == 5:
                chi[2] = (*chi[2][:-1], chi[2][-1] + 1)
            return chi

        monkeypatch.setattr(verify, "_graded_characters", skewed)
        message = "chi_2 at the identity is not the Betti number b_2 of n=5"
        with pytest.raises(AssertionError, match=message):
            low_degree_harness(5)

    def test_non_virtual_class_function_names_its_partition(self, monkeypatch):
        # rows in reverse canonical order without (6), so d_matrix takes the
        # rows alone and row 0 is (1^6), not (6)
        shapes = verify.low_degree_shapes
        monkeypatch.setattr(verify, "low_degree_shapes", lambda n, m: shapes(n, m)[:0:-1])
        graded_characters = verify._graded_characters

        def skewed(n, max_m):
            # chi_1 + 1 at the 6-cycles changes chi_1^2 there by an odd number,
            # so every hook's class sum moves by 120 * odd, not a multiple of 6!
            chi = graded_characters(n, max_m)
            if n == 6:
                chi[1] = (chi[1][0] + 1, *chi[1][1:])
            return chi

        monkeypatch.setattr(verify, "_graded_characters", skewed)
        message = r"class sum for \(1, 1, 1, 1, 1, 1\) is not divisible by 6!"
        with pytest.raises(NonIntegral, match=message):
            d_matrix(6, (1, 2, 3))


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
            matrix = d_matrices([table])[0]
            betti = [
                sum(dimension(lam) * row[i] for lam, row in zip(table.partitions, table.b))
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
            assert d_matrices([table])[0] == d_by_kronecker(
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
                assert d_matrices([table])[0] == d_by_kronecker(
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
            full = d_matrices([table])[0]
            assert {i: full[i] for i in degrees} == d_by_kronecker(table, kron, degrees), n


# n = 3 (c = 3): d[(2,1)] is -1 at degree 1 and 1 at degree 2, so both
# cached failure tuples are non-empty and a fresh tuple per access would show
FAILING_MATRICES = {3: {1: (0, -1, 0), 2: (0, 1, 0)}}

IMMUTABLE = {
    # name: (make, a field, the cached properties)
    "character-table": (lambda: character_table(5), "values", ("class_sizes", "_row_index")),
    "graded-table": (lambda: graded_table(5), "b", ()),
    "flag-report": (
        lambda: verify.LogConcavityReport(3, {1: (0, -1, 0), 2: (0, 1, 0)}),
        "matrix",
        ("violations",),
    ),
    "low-degree-report": (
        lambda: verify.LowDegreeReport(3, 3, FAILING_MATRICES),
        "matrices",
        ("violations", "mirror_mismatches"),
    ),
    "unimodal-report": (lambda: verify_d_unimodality(5), "matrix", ("sequences",)),
    "springer-report": (
        lambda: springer_counterexample_search(4, CacheStore()), "counterexamples", ()
    ),
}


class TestImmutability:
    """Tables and reports are set once: assignment fails, and what they
    derive is computed once."""

    @pytest.mark.parametrize("name", sorted(IMMUTABLE))
    def test_assignment_raises(self, name, tmp_path, monkeypatch):
        # a sweep's default store writes under the temporary directory
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(tmp_path))
        make, field, _ = IMMUTABLE[name]
        obj = make()
        held = getattr(obj, field)
        for attr in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, attr, None)
        assert getattr(obj, field) is held
        assert not hasattr(obj, "extra")

    @pytest.mark.parametrize("name", sorted(name for name in IMMUTABLE if name.endswith("-report")))
    def test_wrong_number_of_values_raises(self, name, tmp_path, monkeypatch):
        # every report is built from one value per name of its ``fields``
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(tmp_path))
        report = IMMUTABLE[name][0]()
        cls = type(report)
        values = [getattr(report, field) for field in cls.fields]
        assert cls(*values).payload() == report.payload()
        for wrong in (values[:-1], [*values, None]):
            with pytest.raises(TypeError) as raised:
                cls(*wrong)
            message = str(raised.value)
            assert cls.__name__ in message and all(field in message for field in cls.fields)

    @pytest.mark.parametrize(
        "name", sorted(name for name, (_, _, cached) in IMMUTABLE.items() if cached)
    )
    def test_cached_properties_return_one_object(self, name):
        make, _, cached = IMMUTABLE[name]
        obj = make()
        for attr in cached:
            first = getattr(obj, attr)
            assert first and getattr(obj, attr) is first, attr
