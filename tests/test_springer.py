import json
import math
import operator
import os
import re

import pytest

from coinvariant import cli, springer
from coinvariant.audit import kostka_number
from coinvariant.characters import CharacterTable, character_table
from coinvariant.combinatorics import (
    conjugate,
    dimension,
    dominates,
    format_partition,
    n_stat,
    partition_index,
    partitions_of,
    top_degree,
)
from coinvariant.errors import NonExactDivision, NonIntegral
from coinvariant.graded import GradedMultiplicityTable, graded_table
from coinvariant.parallel import parallel_map
from coinvariant.polynomials import IntPoly
from coinvariant.springer import (
    _calibrate,
    build_springer_tables,
    kostka_foulkes_poly,
    kostka_foulkes_poly_by_charge,
    springer_counterexample_search,
    springer_graded_table,
    springer_tables,
    verify_springer_log_concavity,
)
from coinvariant.store import CacheStore, table_entry, table_from_entry
from coinvariant.verify import d_matrices

# the ten types up to S_10 whose Springer representation fails
# equivariant log-concavity; everything below S_7 passes
COUNTEREXAMPLES_UP_TO_10 = {
    (4, 1, 1, 1),
    (5, 1, 1, 1),
    (6, 1, 1, 1),
    (5, 2, 1, 1),
    (5, 1, 1, 1, 1),
    (7, 1, 1, 1),
    (6, 2, 1, 1),
    (6, 1, 1, 1, 1),
    (5, 2, 1, 1, 1),
    (5, 1, 1, 1, 1, 1),
}


class TestKostkaFoulkes:
    def test_diagonal_is_one(self):
        assert kostka_foulkes_poly((2, 1), (2, 1)) == IntPoly([1])

    def test_standard_content_equals_fake_degree(self):
        assert kostka_foulkes_poly((2, 1), (1, 1, 1)) == IntPoly([0, 1, 1])

    def test_non_dominating_vanishes(self):
        assert not kostka_foulkes_poly((1, 1), (2,)).coeffs

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka_foulkes_poly((2, 1), (2, 2))

    @pytest.mark.parametrize(
        "lam, mu",
        [((1, 2), (2, 1)), ((3, 0), (2, 1)), ((3, 2), (1, 2, 2)), ((2, 1), (2, 0, 1))],
    )
    def test_rejects_non_partition(self, lam, mu):
        for route in (kostka_foulkes_poly, kostka_foulkes_poly_by_charge):
            with pytest.raises(ValueError, match="not a partition: "):
                route(lam, mu)

    def test_reads_the_table_up_to_11(self):
        # n = 0 has no table; K((), ()) = 1 there, as the charge route has it
        assert kostka_foulkes_poly((), ()) == IntPoly([1]) == kostka_foulkes_poly_by_charge((), ())
        for n in range(1, 12):
            for lam, mu, poly in table_pairs(n):
                assert kostka_foulkes_poly(lam, mu) == poly, (lam, mu)

    def test_constant_term_is_delta(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    # the constant term, 0 for the zero polynomial too
                    coeffs = kostka_foulkes_poly(lam, mu).coeffs
                    assert sum(coeffs[:1]) == (1 if lam == mu else 0)

    def test_value_at_one_is_kostka_number(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert sum(kostka_foulkes_poly(lam, mu).coeffs) == kostka_number(lam, mu)

    def test_dominance_vanishing(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert (not kostka_foulkes_poly(lam, mu).coeffs) == (
                        not dominates(lam, mu)
                    )

    def test_degree_bound(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    coeffs = kostka_foulkes_poly(lam, mu).coeffs
                    if coeffs:
                        assert len(coeffs) - 1 == n_stat(mu) - n_stat(lam)


def table_pairs(n):
    """(lam, mu, K(lam, mu)) from ``build_springer_tables(n)``, row lam of
    type mu's table reversed, every pair of n."""
    parts = partitions_of(n)
    for mu, table in zip(parts, build_springer_tables(n)):
        for lam, row in zip(parts, table.b):
            yield lam, mu, IntPoly(reversed(row))


class TestKostkaFoulkesTable:
    """The Hall-Littlewood factorisation route against the charge route,
    and each of its guards."""

    def test_matches_charge_route_up_to_9(self):
        for n in range(1, 10):
            for lam, mu, poly in table_pairs(n):
                assert poly == kostka_foulkes_poly_by_charge(lam, mu), (lam, mu)

    def test_matches_charge_route_at_10_and_11(self):
        for n in (10, 11):
            for lam, mu, poly in table_pairs(n):
                assert poly == kostka_foulkes_poly_by_charge(lam, mu), (lam, mu)

    def test_table_shape(self):
        tables = build_springer_tables(6)
        assert len(tables) == len(partitions_of(6))
        for mu, table in zip(partitions_of(6), tables):
            assert len(table.b) == len(partitions_of(6))
            assert {len(row) for row in table.b} == {n_stat(mu) + 1}
        with pytest.raises(ValueError, match="n must be positive"):
            build_springer_tables(0)

    @staticmethod
    def patch_weight(monkeypatch, mu, change):
        """E_mu at q replaced by ``change(E_mu)`` for the one type mu."""
        weight = springer._hall_weight

        def patched(nu, phi):
            e = weight(nu, phi)
            return change(e) if nu == mu else e

        monkeypatch.setattr(springer, "_hall_weight", patched)

    def test_failing_diagonal_names_mu(self, monkeypatch):
        # -E_mu divides every residual of the column, so every division is
        # exact and only the diagonal K(mu, mu) = -1 is off
        self.patch_weight(monkeypatch, (3, 2), operator.neg)
        with pytest.raises(AssertionError, match=r"^diagonal of mu=\(3, 2\) is not E_mu$"):
            build_springer_tables(5)

    def test_failing_division_names_the_pair(self, monkeypatch):
        # K((5), (3, 2)) = q^4 is the column's first residual over E_mu;
        # E_mu + 1 leaves a remainder there
        self.patch_weight(monkeypatch, (3, 2), lambda e: e + 1)
        with pytest.raises(
            NonExactDivision,
            match=r"^E_mu does not divide K\(\(5,\), \(3, 2\)\) E_mu exactly$",
        ):
            build_springer_tables(5)

    def test_failing_class_sum_raises_non_integral(self, monkeypatch):
        # chi_(4,1) at the identity class one too large: row (5) of the Gram
        # matrix then gains the graded character there, [5]_q!, which is odd
        # at even q and so no multiple of 5!
        chars = character_table(5)
        values = [list(row) for row in chars.values]
        values[chars.shapes.index((4, 1))][-1] += 1
        patched = CharacterTable(5, tuple(map(tuple, values)))
        monkeypatch.setattr(springer, "character_table", lambda n: patched)
        with pytest.raises(NonIntegral, match=r"^class sum for \(5,\) is not divisible by 5!$"):
            build_springer_tables(5)

    @pytest.mark.parametrize(
        "n, lam, other, lift, broken",
        [
            # K((3,1,1), (2,2,1)) gains q^(c+1): digit sum 2 <= f^lam = 6
            (5, (3, 1, 1), (2, 2, 1), lambda q: q ** (top_degree(5) + 1), "degree"),
            # K((5), (4,1)) = q + 1: degree 1 is within the bound, f^(5) = 1
            (5, (5,), (4, 1), lambda q: 1, "digit sum"),
            # (4,1,1) and (3,3) are incomparable, so K((4,1,1), (3,3)) = 1 is off
            (6, (4, 1, 1), (3, 3), lambda q: 1, "dominance"),
            # K((4,1,1), (3,3)) = -1 at q, a value no digits read back
            (6, (4, 1, 1), (3, 3), lambda q: -1, "negative"),
        ],
        ids=lambda value: value if isinstance(value, str) else None,
    )
    def test_a_consistent_wrong_gram_matrix_fails_the_digit_check(
        self, monkeypatch, n, lam, other, lift, broken
    ):
        # the Gram matrix U P U^T with U = 1 + x e(lam, other), x = lift(q),
        # is the one of U K, whose rows lam before other in canonical order
        # keep it triangular with unit diagonal: every division is exact and
        # every diagonal holds, and only the digit check of row lam can fail
        # q = 2^B, B = bitlen(max_lam f^lam) + 1, the point the table is taken at
        q = 1 << (max(map(dimension, partitions_of(n))).bit_length() + 1)
        x = lift(q)
        r, r_other = partitions_of(n).index(lam), partitions_of(n).index(other)
        decompose = CharacterTable._decompose_all

        def lifted(self, functions):
            gram = [list(row) for row in decompose(self, functions)]
            for row in gram:
                row[r] += x * row[r_other]
            gram[r] = [a + x * b for a, b in zip(gram[r], gram[r_other])]
            return gram

        monkeypatch.setattr(CharacterTable, "_decompose_all", lifted)
        with pytest.raises(
            AssertionError, match=rf"^K\({re.escape(str(lam))}, {re.escape(str(other))}\) breaks"
        ):
            build_springer_tables(n)

    def test_every_built_table_is_calibrated(self, monkeypatch):
        calibrated = []

        def recording(table, mu):
            calibrated.append(mu)
            _calibrate(table, mu)

        monkeypatch.setattr(springer, "_calibrate", recording)
        for n in range(1, 8):
            calibrated.clear()
            tables = build_springer_tables(n)
            assert calibrated == list(partitions_of(n)), n
            assert [t.top_degree for t in tables] == [n_stat(mu) for mu in partitions_of(n)]


class TestSpringerTable:
    def test_regular_type_matches_coinvariant_ring(self):
        for n in range(1, 8):
            assert springer_graded_table((1,) * n).b == graded_table(n).b

    def test_one_row_type_is_trivial_rep(self):
        for n in (2, 4, 6):
            table = springer_graded_table((n,))
            assert table.top_degree == 0
            for lam, row in zip(partitions_of(n), table.b):
                assert row == ((1,) if lam == (n,) else (0,))

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError, match="not a partition: "):
            springer_graded_table((1, 2))

    def test_subregular_n3(self):
        table = springer_graded_table((2, 1))
        assert table.top_degree == 1
        assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
        assert table.b == ((1, 0), (0, 1), (0, 0))

    def test_column_dimension_sums_match_kostka_at_one(self):
        # ungraded, the Springer fiber of type mu carries the permutation
        # module of mu: total dimension n! / prod(mu_i!), spread over
        # degrees 0 .. n(mu)
        for mu in (mu for n in range(1, 8) for mu in partitions_of(n)):
            n = sum(mu)
            table = springer_graded_table(mu)
            assert table.top_degree == n_stat(mu)
            assert table.support(-1) == table.support(n_stat(mu) + 1) == ()
            total = sum(
                dimension(lam) * sum(row) for lam, row in zip(partitions_of(n), table.b)
            )
            denom = 1
            for part in mu:
                denom *= math.factorial(part)
            assert total == math.factorial(n) // denom

    def test_zero_rows_are_one_tuple(self):
        # a built table and the same table read back from its springer-n
        # entry each hold all their zero rows as one object
        for mu, built in zip(partitions_of(7), build_springer_tables(7)):
            read = table_from_entry(mu, json.loads(json.dumps(table_entry(mu, built))))
            assert (read.n, read.b) == (built.n, built.b)
            for table in (built, read):
                zeros = [row for row in table.b if not any(row)]
                assert len({id(row) for row in zeros}) == min(len(zeros), 1), mu


def with_row(table, lam, row):
    """``table`` with the row of ``lam`` replaced."""
    b = list(table.b)
    b[partition_index(table.n)[lam]] = tuple(row)
    return GradedMultiplicityTable(table.n, tuple(b))


class TestCalibrationGuards:
    """Each defect below breaks exactly one guard of ``_calibrate``."""

    def test_one_row_type_not_trivial(self):
        # the trivial rep shifted to degree 1 still fills the top degree
        # with V(3) alone
        broken = GradedMultiplicityTable(3, ((0, 1), (0, 0), (0, 0)))
        assert broken.support(broken.top_degree) == ((0, 1),)
        with pytest.raises(AssertionError, match=r"^type \(n\) table is not the trivial rep$"):
            _calibrate(broken, (3,))

    def test_regular_type_not_the_coinvariant_ring(self):
        # an extra V(2,1) in degree 0 leaves the sign rep alone on top
        table = springer_graded_table((1, 1, 1))
        broken = with_row(table, (2, 1), (1, 1, 1, 0))
        assert broken.support(broken.top_degree) == ((2, 1),)
        with pytest.raises(AssertionError, match=r"^type \(1\^n\) table does not match"):
            _calibrate(broken, (1, 1, 1))

    def test_top_degree_support(self):
        table = springer_graded_table((2, 1))
        broken = with_row(table, (2, 1), (0, 2))
        with pytest.raises(
            AssertionError,
            match=r"^grading calibration fails for mu=\(2, 1\): "
            r"top degree support \(\(1, 2\),\)$",
        ):
            _calibrate(broken, (2, 1))


class TestSpringerLogConcavity:
    def test_vacuous_for_one_row(self):
        report = verify_springer_log_concavity((6,))
        assert report.status == "pass"
        assert report.matrix == {}

    def test_smallest_counterexample(self):
        report = verify_springer_log_concavity((4, 1, 1, 1))
        assert report.status == "fail"
        assert report.violations == (((2, 1, 1, 1, 1, 1), 5, -1),)

    def test_all_types_pass_through_n6(self):
        for n in range(1, 7):
            for mu in partitions_of(n):
                assert verify_springer_log_concavity(mu).status == "pass"


class TestBatchedD:
    """``d_matrices`` over every type of one n, the sweep's route for the
    tables it holds, against ``d_matrices`` of each table alone."""

    def test_every_type_up_to_10(self):
        for n in range(1, 11):
            expected = [d_matrices([springer_graded_table(mu)])[0] for mu in partitions_of(n)]
            assert d_matrices(springer_tables(n)) == expected, n

    def test_tables_must_share_one_n(self):
        with pytest.raises(ValueError, match="tables of one n"):
            d_matrices([graded_table(3), graded_table(4)])
        assert d_matrices([]) == []

    def test_perturbed_type_names_the_failing_partition(self, monkeypatch):
        # chi_0 of the type (4,1,1,1) gains h = (chi_lam + chi_lam') / 2,
        # lam = (6,1), which is no virtual character; chi_0 enters only
        # f_1 = chi_1^2 - chi_0 chi_2, so only that function is off
        n, lam = 7, (6, 1)
        tables = springer_tables(n)
        bad = tables[partitions_of(n).index((4, 1, 1, 1))]
        chars = character_table(n)
        h = [(x + y) // 2 for x, y in zip(chars.row(lam), chars.row(conjugate(lam)))]
        combine = CharacterTable._combine_rows

        def perturbed(self, supports):
            chis = combine(self, supports)
            if supports == [bad.support(j) for j in range(bad.top_degree + 1)]:
                chis[0] = [x + y for x, y in zip(chis[0], h)]
            return chis

        chi0, chi1, chi2 = combine(chars, [bad.support(j) for j in range(3)])
        f1 = [x * x - (lo + e) * hi for x, lo, hi, e in zip(chi1, chi0, chi2, h)]
        weighted = list(map(operator.mul, chars.class_sizes, f1))
        failing = [
            nu
            for nu, row in zip(partitions_of(n), chars.values)
            if sum(map(operator.mul, weighted, row)) % math.factorial(n)
        ]
        assert failing
        message = f"class sum for {failing[0]} is not divisible by {n}!"
        monkeypatch.setattr(CharacterTable, "_combine_rows", perturbed)
        for batch in ([bad], tables):
            with pytest.raises(NonIntegral) as raised:
                d_matrices(batch)
            assert str(raised.value) == message, len(batch)
        good = [table for table in tables if table is not bad]
        assert d_matrices(good) == [d_matrices([table])[0] for table in good]


SPRINGER_FRONTIER = {
    11: [
        "8,1,1,1", "7,2,1,1", "7,1,1,1,1", "6,2,1,1,1", "6,1,1,1,1,1", "5,2,1,1,1,1",
        "5,1,1,1,1,1,1",
    ],
    12: [
        "9,1,1,1", "8,2,1,1", "8,1,1,1,1", "7,3,1,1", "7,2,2,1", "7,2,1,1,1",
        "7,1,1,1,1,1", "6,3,1,1,1", "6,2,2,1,1", "6,2,1,1,1,1", "6,1,1,1,1,1,1",
    ],
    13: [
        "10,1,1,1", "9,2,1,1", "9,1,1,1,1", "8,3,1,1", "8,2,2,1", "8,2,1,1,1",
        "8,1,1,1,1,1", "7,3,1,1,1", "7,2,2,1,1", "7,2,1,1,1,1", "7,1,1,1,1,1,1",
        "6,2,2,1,1,1",
    ],
    14: [
        "11,1,1,1", "10,2,1,1", "10,1,1,1,1", "9,3,1,1", "9,2,2,1", "9,2,1,1,1",
        "9,1,1,1,1,1", "8,3,2,1", "8,3,1,1,1", "8,2,2,2", "8,2,2,1,1", "8,2,1,1,1,1",
        "8,1,1,1,1,1,1", "7,4,1,1,1", "7,3,1,1,1,1", "7,2,2,2,1", "7,2,2,1,1,1",
        "7,2,1,1,1,1,1", "7,1,1,1,1,1,1,1", "6,3,1,1,1,1,1",
    ],
}


class TestCounterexampleSearch:
    def test_none_up_to_6(self, tmp_path):
        report = springer_counterexample_search(6, CacheStore(tmp_path))
        assert [mu for mu, _ in report.counterexamples] == []
        assert report.status == "pass"

    def test_s7(self, tmp_path):
        report = springer_counterexample_search(7, CacheStore(tmp_path))
        assert [mu for mu, _ in report.counterexamples] == [(4, 1, 1, 1)]
        assert report.status == "fail"

    def test_frontier_past_s10(self, fresh_memo, tmp_path):
        # the failing types of n = 11..14, in canonical order, as the sweep
        # at n_max 14 found them; the ten up to S_10 are pinned in
        # tests/test_acceptance.py
        report = springer_counterexample_search(14, CacheStore(tmp_path))
        types = [mu for mu, _ in report.counterexamples]
        found = {n: [format_partition(mu) for mu in types if sum(mu) == n] for n in range(11, 15)}
        assert found == SPRINGER_FRONTIER
        assert list(map(len, found.values())) == [7, 11, 12, 20]

    def test_jobs_identical(self, tmp_path):
        serial = springer_counterexample_search(7, CacheStore(tmp_path / "1"), jobs=1)
        forked = springer_counterexample_search(7, CacheStore(tmp_path / "2"), jobs=2)
        assert serial.payload() == forked.payload()

    def test_one_pool_per_scan(self, pool_builds, fresh_memo, tmp_path):
        # no springer file is cached, so every type is built in the pool
        forked = springer_counterexample_search(8, CacheStore(tmp_path / "2"), jobs=2)
        assert len(pool_builds) == 1
        serial = springer_counterexample_search(8, CacheStore(tmp_path / "1"), jobs=1)
        assert forked.payload() == serial.payload()
        assert len(pool_builds) == 1

    def test_pool_maps_over_n_largest_first(self, fresh_memo, monkeypatch, tmp_path):
        mapped = []

        def inline_map(fn, items, jobs):
            mapped.append(items)
            return [fn(item) for item in items]

        monkeypatch.setattr(springer, "parallel_map", inline_map)
        report = springer_counterexample_search(7, CacheStore(tmp_path), jobs=2)
        # each item carries the cache directory its worker builds in
        assert mapped == [[(n, tmp_path) for n in range(7, 0, -1)]]
        assert [mu for mu, _ in report.counterexamples] == [(4, 1, 1, 1)]

    def test_one_cpu_starts_no_pool(self, pool_builds, fresh_memo, monkeypatch, tmp_path):
        # min(jobs, items, CPUs) = 1 worker, so the cold sweep maps inline
        def payload(jobs):
            cache, out = tmp_path / f"cache-{jobs}", tmp_path / f"scan-{jobs}.json"
            argv = ["springer-scan", "--n-max", "7", "--jobs", jobs, "--cache-dir", str(cache)]
            fresh_memo.clear()
            assert cli.run([*argv, "--out", str(out)]) == 2
            return json.loads(out.read_bytes())["payload"]

        reference = payload("1")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert payload("2") == reference
        assert pool_builds == []

    def test_chunked_pool_keeps_submission_order(self):
        # the items go out one at a time, 100 of them over two workers
        items = list(range(100))
        assert parallel_map(math.factorial, items, 2) == [math.factorial(k) for k in items]

    def test_pool_has_at_most_one_worker_per_cpu(self, fake_pool, fresh_memo, tmp_path):
        reference = springer_counterexample_search(7, CacheStore(tmp_path / "1"), jobs=1).payload()
        assert fake_pool == []
        for jobs, workers in ((2, 2), (3, 3), (4, 3), (500, 3)):
            # a fresh store has no springer file, so each sweep maps over a pool
            store = CacheStore(tmp_path / str(jobs))
            assert springer_counterexample_search(7, store, jobs=jobs).payload() == reference
            assert fake_pool.pop() == workers
        assert parallel_map(str, [1, 2], 500) == ["1", "2"]
        assert fake_pool == [2]

    def test_cli_jobs_above_cpu_count(self, fake_pool, fresh_memo, tmp_path):
        argv = ["springer-scan", "--n-max", "7", "--jobs", "500", "--cache-dir", str(tmp_path)]
        assert cli.run(argv) == 2
        assert fake_pool == [3]

    def test_scan_range_needs_an_interior_degree(self, tmp_path):
        # the sweep has no size cap; the command line holds it.  The range
        # is checked before the store is touched
        store = CacheStore(tmp_path / "cache")
        with pytest.raises(ValueError, match="n_max must be at least 3"):
            springer_counterexample_search(2, store)
        assert not store.root.exists()

    def test_payload_shape(self, tmp_path):
        payload = springer_counterexample_search(7, CacheStore(tmp_path)).payload()
        assert payload["n_range"] == [1, 7]
        entry = payload["counterexamples"][0]
        assert entry["mu"] == "4,1,1,1"
        assert entry["n"] == 7
        assert entry["witnesses"] == [{"nu": "2,1,1,1,1,1", "i": 5, "d": -1}]
