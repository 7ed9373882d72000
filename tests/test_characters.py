import math
import operator

import pytest
from hypothesis import given, strategies as st

from coinvariant import characters
from coinvariant.audit import character_value
from coinvariant.characters import (
    CharacterTable,
    _mn_row,
    _validate,
    build_character_table,
    character_rows,
    character_table,
    verify_orthogonality,
)
from coinvariant.combinatorics import (
    centralizer_size,
    class_sign,
    conjugate,
    dimension,
    partitions_of,
)
from coinvariant.errors import NonIntegral
from coinvariant.graded import graded_table
from coinvariant.springer import springer_graded_table
from coinvariant.verify import d_matrices


class TestCharacterValue:
    def test_trivial_character(self):
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert character_value((n,), rho) == 1

    def test_sign_character(self):
        assert character_value((1, 1, 1), (2, 1)) == -1
        for n in range(1, 7):
            for rho in partitions_of(n):
                assert character_value((1,) * n, rho) == class_sign(rho)

    def test_standard_at_three_cycle(self):
        assert character_value((2, 1), (3,)) == -1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            character_value((2, 1), (2, 2))


class TestBuildTable:
    def test_n1(self):
        table = build_character_table(1)
        assert table.values == ((1,),)

    def test_n3_dimensions(self):
        table = build_character_table(3)
        dims = tuple(table.row(lam)[table.index((1, 1, 1))] for lam in table.partitions)
        assert dims == (1, 2, 1)

    def test_dimension_column_matches_hooks(self):
        for n in range(1, 9):
            table = character_table(n)
            identity = (1,) * n
            for lam in table.partitions:
                assert table.row(lam)[table.index(identity)] == dimension(lam)

    def test_sum_of_squares(self):
        for n in range(1, 13):
            table = character_table(n)
            identity = table.partitions.index((1,) * n)
            total = sum(row[identity] ** 2 for row in table.values)
            assert total == math.factorial(n)

    def test_conjugation_twist(self):
        for n in range(1, 11):
            table = character_table(n)
            for lam in table.partitions:
                row = table.row(lam)
                conj_row = table.row(conjugate(lam))
                for j, rho in enumerate(table.partitions):
                    assert conj_row[j] == class_sign(rho) * row[j]

    def test_n12_shape(self):
        table = character_table(12)
        assert len(table.partitions) == 77
        assert len(table.values) == 77
        assert all(len(row) == 77 for row in table.values)

    def test_size_must_be_positive(self):
        # the builder has no size cap; the command line holds the caps
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                build_character_table(n)


def reference_decompose(table: CharacterTable, values) -> tuple[int, ...]:
    """The audit route for the packed kernel: one class sum per row."""
    nfact = math.factorial(table.n)
    weighted = tuple(map(operator.mul, table.class_sizes, values))
    result = []
    for k, row in enumerate(table.values):
        mult, rem = divmod(sum(map(operator.mul, weighted, row)), nfact)
        if rem:
            raise NonIntegral(
                f"class sum for {table.partitions[k]} is not divisible by {table.n}!"
            )
        result.append(mult)
    return tuple(result)


def reference_orthogonality(table: CharacterTable) -> bool:
    """Row orthogonality with one class sum per pair of rows."""
    nfact = math.factorial(table.n)
    for i, row in enumerate(table.values):
        weighted = tuple(map(operator.mul, table.class_sizes, row))
        for k, other in enumerate(table.values[i:], i):
            if sum(map(operator.mul, weighted, other)) != (nfact if k == i else 0):
                return False
    return True


def virtual_character(table: CharacterTable, coefficients) -> list[int]:
    """sum_k c_k chi_k at every class."""
    return [
        sum(c * value for c, value in zip(coefficients, column))
        for column in zip(*table.values)
    ]


class TestOrthogonality:
    def test_small_tables(self):
        for n in (1, 2, 4, 6):
            assert verify_orthogonality(character_table(n))

    def test_medium_tables(self):
        for n in range(7, 11):
            assert verify_orthogonality(character_table(n))

    def test_column_relation(self):
        # the audit of what the row relation implies: sum over lam of
        # chi_lam(rho) chi_lam(sigma) is z_rho when rho == sigma, else 0
        for n in range(1, 11):
            table = character_table(n)
            columns = list(zip(*table.values))
            for j, rho in enumerate(table.partitions):
                for k in range(j, len(columns)):
                    expected = centralizer_size(rho) if k == j else 0
                    assert sum(map(operator.mul, columns[j], columns[k])) == expected

    def test_perturbed_table_fails(self):
        table = character_table(6)
        values = [list(row) for row in table.values]
        values[2][3] += 1
        broken = CharacterTable(
            n=table.n,
            values=tuple(tuple(row) for row in values),
        )
        assert not verify_orthogonality(broken)


    def test_duplicated_row_fails(self):
        # two equal rows: every norm is n!, and the off-diagonal sum of the
        # pair is n!, the Cauchy-Schwarz extreme
        for n in (3, 5, 6):
            table = character_table(n)
            for k in (0, len(table.values) // 2):
                values = list(table.values)
                values[k + 1] = values[k]
                broken = with_values(table, values)
                weighted = tuple(map(operator.mul, table.class_sizes, values[k]))
                assert sum(map(operator.mul, weighted, values[k + 1])) == math.factorial(n)
                assert not verify_orthogonality(broken)
                assert not reference_orthogonality(broken)

    def test_wrong_norm_fails(self):
        for n in (2, 5, 6):
            table = character_table(n)
            for factor in (2, -1, 0):
                values = list(table.values)
                values[1] = tuple(factor * v for v in values[1])
                broken = with_values(table, values)
                assert verify_orthogonality(broken) == reference_orthogonality(broken)
                assert verify_orthogonality(broken) == (factor == -1)

    def test_every_unit_perturbation_matches_reference(self):
        for n in range(1, 8):
            table = character_table(n)
            for i, row in enumerate(table.values):
                for j in range(len(row)):
                    for step in (1, -1):
                        values = [list(r) for r in table.values]
                        values[i][j] += step
                        broken = with_values(table, values)
                        assert verify_orthogonality(broken) == reference_orthogonality(
                            broken
                        ), (n, i, j, step)


class TestDecompose:
    def test_irreducible_is_unit_vector(self):
        for n in range(1, 9):
            table = character_table(n)
            for k, row in enumerate(table.values):
                unit = tuple(int(j == k) for j in range(len(table.partitions)))
                assert table.decompose(row) == unit, table.partitions[k]

    def test_tensor_products_have_product_dimension(self):
        table = character_table(6)
        dims = [dimension(lam) for lam in table.partitions]
        for a, row_a in enumerate(table.values):
            for b, row_b in enumerate(table.values):
                mults = table.decompose([x * y for x, y in zip(row_a, row_b)])
                assert sum(map(math.prod, zip(dims, mults))) == dims[a] * dims[b]

    def test_identity_class_indicator_is_not_a_character(self):
        for n in range(2, 9):
            table = character_table(n)
            indicator = [int(rho == (1,) * n) for rho in table.partitions]
            with pytest.raises(NonIntegral, match=f"not divisible by {n}!"):
                table.decompose(indicator)
            with pytest.raises(NonIntegral, match=f"not divisible by {n}!"):
                table.multiplicity(indicator, (n,))

    def test_multiplicity_is_one_entry_of_decompose(self):
        for n in range(1, 8):
            table = character_table(n)
            for row_a in table.values:
                for row_b in table.values:
                    product = [x * y for x, y in zip(row_a, row_b)]
                    assert tuple(
                        table.multiplicity(product, nu) for nu in table.partitions
                    ) == table.decompose(product)


class TestPackedKernel:
    """``CharacterTable._decompose_all`` against one class sum per row; it
    packs each distinct function once and gives every input its vector."""

    def test_every_product_matches_reference(self, monkeypatch):
        packed = []
        class_sums = CharacterTable._packed_class_sums

        def recording(self, weighted, layout):
            packed.append(list(weighted))
            return class_sums(self, weighted, layout)

        monkeypatch.setattr(CharacterTable, "_packed_class_sums", recording)
        for n in range(1, 9):
            table = character_table(n)
            products = [
                tuple(map(operator.mul, row_a, row_b))
                for a, row_a in enumerate(table.values)
                for row_b in table.values[a:]
            ]
            # every product again in reverse, and the first once more: the
            # products repeat already (chi_sign chi_lam = chi_lam'), and
            # only their distinct weighted values, in first-seen order, are packed
            batch = products + products[::-1] + products[:1]
            distinct = list(dict.fromkeys(products))
            packed.clear()
            assert table._decompose_all(batch) == [
                reference_decompose(table, product) for product in batch
            ], n
            assert packed == [[tuple(map(operator.mul, table.class_sizes, f)) for f in distinct]], n

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.integers(-(2**300), 2**300),
                        min_size=len(partitions_of(n)),
                        max_size=len(partitions_of(n)),
                    ),
                    min_size=1,
                    max_size=5,
                ),
            )
        )
    )
    def test_large_signed_virtual_characters(self, case):
        n, coefficients = case
        table = character_table(n)
        functions = [virtual_character(table, c) for c in coefficients]
        assert table._decompose_all(functions) == [tuple(c) for c in coefficients]
        repeated = coefficients + coefficients[::-1]
        assert table._decompose_all(functions + functions[::-1]) == list(map(tuple, repeated))

    def test_digits_at_the_width_bound(self):
        # at n = 2, c times an irreducible has class sums 2c and 0, and 2|c|
        # is the bound max|chi| * sum_rho |C_rho c| itself; c = 2^k - 1 and
        # 2^k put that bound at both ends of every bit length
        table = character_table(2)
        for c in (value for k in range(1, 40) for value in (2**k - 1, 2**k)):
            coefficients = [(c, 0), (-c, 0), (0, c), (0, -c), (c, 0)]
            functions = [virtual_character(table, pair) for pair in coefficients]
            assert table._decompose_all(functions) == coefficients, c

    def test_mixed_batch_names_the_failing_partition(self):
        # chi_lam and chi_lam' agree mod 2, so (chi_lam + chi_lam') / 2 is
        # integer-valued with multiplicity 1/2 at lam = (n-1, 1) and at its
        # conjugate, and 0 at the trivial row the class sums start with
        for n in range(4, 9):
            table = character_table(n)
            lam = (n - 1, 1)
            pair = zip(table.row(lam), table.row(conjugate(lam)))
            bad = [(x + y) // 2 for x, y in pair]
            message = f"class sum for {lam} is not divisible by {n}!"
            with pytest.raises(NonIntegral) as expected:
                reference_decompose(table, bad)
            assert str(expected.value) == message
            virtual = virtual_character(table, range(len(table.values)))
            # alone, repeated, and repeated among virtual characters
            for batch in ([bad], [bad, bad], [bad, *table.values, virtual, bad, virtual, bad]):
                with pytest.raises(NonIntegral) as raised:
                    table._decompose_all(batch)
                assert str(raised.value) == message, (n, len(batch))

    def test_empty_batch(self):
        assert character_table(4)._decompose_all([]) == []


class TestPackedRows:
    """``CharacterTable._combine_rows`` keeps the rows it packed, per digit size."""

    def test_each_row_is_packed_once_per_digit_size(self, monkeypatch):
        table = build_character_table(6)
        packed = []
        pack = characters._pack

        def recording_pack(values, layout):
            packed.append((table.values.index(tuple(values)), layout.size))
            return pack(values, layout)

        monkeypatch.setattr(characters, "_pack", recording_pack)
        small = [[(0, 1), (3, 2)], [(3, -1)]]
        expected = [
            virtual_character(table, [1, 0, 0, 2] + [0] * 7),
            virtual_character(table, [0, 0, 0, -1] + [0] * 7),
        ]
        assert table._combine_rows(small) == expected
        assert table._combine_rows(small) == expected
        first = sorted(packed)
        assert [k for k, _ in first] == [0, 3]
        # a weight that needs wider digits packs its rows again, once
        large = [[(0, 2**40), (5, -1)]]
        assert table._combine_rows(large) == [
            virtual_character(table, [2**40, 0, 0, 0, 0, -1] + [0] * 5)
        ]
        wide = sorted(set(packed) - set(first))
        assert [k for k, _ in wide] == [0, 5] and wide[0][1] > first[0][1]
        # in a batch with the large weight, row 3 is packed wide as well
        assert table._combine_rows(small + large)[:2] == expected
        assert packed[len(first) + len(wide):] == [(3, wide[0][1])]
        assert len(packed) == len(set(packed)) == 5

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.integers(-(2**200), 2**200), min_size=len(partitions_of(n)),
                             max_size=len(partitions_of(n))),
                    min_size=1,
                    max_size=6,
                ),
            )
        )
    )
    def test_kept_rows_give_the_combinations_of_every_size(self, case):
        # one table over many calls, so rows packed at one size are reused
        n, coefficients = case
        table = character_table(n)
        for c in coefficients:
            support = [(k, x) for k, x in enumerate(c) if x]
            assert table._combine_rows([support]) == [virtual_character(table, c)]


class TestCharacterRows:
    """Rows of chosen shapes alone, by the row-at-a-time recursion."""

    def test_row_recursion_matches_the_table(self):
        for n in range(0, 13):
            for lam in partitions_of(n):
                assert _mn_row(lam) == tuple(
                    character_value(lam, rho) for rho in partitions_of(n)
                ), lam

    def test_rows_in_any_order_decompose_as_the_table(self):
        table = character_table(7)
        shapes = ((4, 2, 1), (7,), (2, 2, 1, 1, 1), (5, 2))
        rows = character_rows(7, shapes)
        assert rows.values == tuple(table.row(lam) for lam in shapes)
        functions = [virtual_character(table, range(15)), table.values[3]]
        full = table._decompose_all(functions)
        at = [table.index(lam) for lam in shapes]
        assert rows._decompose_all(functions) == [tuple(d[k] for k in at) for d in full]

    def test_non_virtual_function_names_the_row_partition(self):
        # (chi_(4,2) + chi_(2,2,1,1)) / 2 is integer-valued but has
        # multiplicity 1/2 at (4, 2), which is row 0 here and index 2 in S_6
        table = character_table(6)
        f = [(a + b) // 2 for a, b in zip(table.row((4, 2)), table.row((2, 2, 1, 1)))]
        rows = character_rows(6, ((4, 2), (3, 3)))
        with pytest.raises(NonIntegral, match=r"class sum for \(4, 2\) is not divisible by 6!"):
            rows._decompose_all([f])

    def test_rows_must_be_partitions_of_n(self):
        with pytest.raises(ValueError):
            character_rows(5, ((4, 2),))


class TestRowSubsets:
    """Rows of some shapes answer as the full table does at those shapes."""

    @staticmethod
    def subsets(n):
        parts = partitions_of(n)
        return [parts, parts[::-1], (parts[len(parts) // 2],), parts[1::2] + parts[:1]]

    def test_rows_answer_as_the_full_table(self):
        for n in range(1, 9):
            table = character_table(n)
            count = len(table.partitions)
            functions = [
                virtual_character(table, range(count)),
                virtual_character(table, [(-3) ** k for k in range(count)]),
                list(map(operator.mul, table.values[count // 2], table.values[-1])),
            ]
            full = table._decompose_all(functions)
            for shapes in self.subsets(n):
                rows = character_rows(n, shapes)
                at = [table.index(lam) for lam in shapes]
                assert rows.shapes == shapes
                for lam in shapes:
                    assert rows.row(lam) == table.row(lam)
                    for rho in table.partitions:
                        assert rows.row(lam)[rows.index(rho)] == table.row(lam)[table.index(rho)]
                for f, d in zip(functions, full):
                    assert rows.decompose(f) == tuple(d[k] for k in at), (n, shapes)
                    for lam in shapes:
                        assert rows.multiplicity(f, lam) == table.multiplicity(f, lam)
                # small and wide coefficients: both digit routes of the layout
                supports = [
                    [(k, k + 1) for k in range(len(shapes))],
                    [(k, (-1) ** k * 2**70) for k in range(len(shapes))][::-1],
                ]
                expected = table._combine_rows(
                    [[(at[k], c) for k, c in support] for support in supports]
                )
                assert rows._combine_rows(supports) == expected, (n, shapes)

    def test_rows_of_every_partition_are_the_full_table(self):
        for n in range(1, 11):
            rows, table = character_rows(n, partitions_of(n)), character_table(n)
            assert (rows.n, rows.values, rows.shapes) == (table.n, table.values, table.shapes)


def reference_d_matrix(table) -> dict[int, tuple[int, ...]]:
    """d one degree at a time, from plainly summed graded characters."""
    chars = character_table(table.n)

    def chi(i):
        return [
            sum(m * chars.values[r][k] for r, m in table.support(i))
            for k in range(len(chars.partitions))
        ]

    return {
        i: reference_decompose(
            chars, [x * x - lo * hi for x, lo, hi in zip(chi(i), chi(i - 1), chi(i + 1))]
        )
        for i in range(1, table.top_degree)
    }


class TestDMatrixMatchesReference:
    def test_coinvariant_tables(self):
        for n in range(1, 11):
            table = graded_table(n)
            assert d_matrices([table])[0] == reference_d_matrix(table), n

    def test_springer_tables(self):
        for n in range(1, 9):
            for mu in partitions_of(n):
                table = springer_graded_table(mu)
                assert d_matrices([table])[0] == reference_d_matrix(table), mu


def with_values(table: CharacterTable, values) -> CharacterTable:
    return CharacterTable(
        n=table.n,
        values=tuple(tuple(row) for row in values),
    )


class TestTwistPreservingDefects:
    """Row k gains chi_mu and its conjugate row k' gains sign * chi_mu =
    chi_mu': the twist still holds, so orthogonality must see the defect,
    for every such pair and mu, as the reference does."""

    def test_pair_defect_fails(self):
        for n in range(3, 7):
            table = character_table(n)
            parts = table.partitions
            for k, lam in enumerate(parts):
                twin = table.index(conjugate(lam))
                if twin <= k:
                    continue
                for mu in parts:
                    values = [list(row) for row in table.values]
                    values[k] = list(map(operator.add, values[k], table.row(mu)))
                    values[twin] = list(map(operator.add, values[twin], table.row(conjugate(mu))))
                    broken = with_values(table, values)
                    assert not verify_orthogonality(broken), (lam, mu)
                    assert not reference_orthogonality(broken)
                    with pytest.raises(AssertionError):
                        _validate(broken)


class TestBuildGuards:
    """Each defect below breaks exactly one guard of ``_validate``."""

    def test_orthogonality_only_defect(self):
        table = character_table(6)
        lam, rho = (4, 2), (3, 2, 1)
        assert conjugate(lam) != lam and rho != (1,) * 6
        values = [list(row) for row in table.values]
        j = table.index(rho)
        values[table.index(lam)][j] += 1
        values[table.index(conjugate(lam))][j] += class_sign(rho)
        broken = with_values(table, values)
        assert not verify_orthogonality(broken)
        with pytest.raises(AssertionError, match="orthogonality fails for n=6"):
            _validate(broken)

    def test_off_diagonal_only_defect(self):
        # negating chi_(5,1)((3,1,1,1)) = 2 and its twin in the conjugate row
        # keeps every row norm at 720, the twist and the dimension column,
        # but row (5,1) is no longer orthogonal to row (6)
        table = character_table(6)
        rho = (3, 1, 1, 1)
        values = [list(row) for row in table.values]
        j = table.index(rho)
        for lam in ((5, 1), conjugate((5, 1))):
            values[table.index(lam)][j] *= -1
        assert table.row((5, 1))[j] == 2
        broken = with_values(table, values)
        assert all(
            sum(map(operator.mul, broken.class_sizes, map(operator.mul, row, row))) == 720
            for row in broken.values
        )
        assert not verify_orthogonality(broken)
        with pytest.raises(AssertionError, match="orthogonality fails for n=6"):
            _validate(broken)

    def test_twist_only_defect(self):
        # (5,1) and (3,3) both have dimension 5 and are not conjugate, so
        # swapping their rows keeps the dimension column and orthogonality
        table = character_table(6)
        values = list(table.values)
        a, b = table.index((5, 1)), table.index((3, 3))
        values[a], values[b] = values[b], values[a]
        broken = with_values(table, values)
        assert verify_orthogonality(broken)
        with pytest.raises(AssertionError, match=r"conjugation twist fails at \(\(5, 1\), "):
            _validate(broken)

    def test_dimension_column_only_defect(self):
        # negating a conjugate pair of rows keeps the twist and orthogonality
        table = character_table(6)
        values = [list(row) for row in table.values]
        for lam in ((4, 2), (2, 2, 1, 1)):
            values[table.index(lam)] = [-v for v in values[table.index(lam)]]
        broken = with_values(table, values)
        assert verify_orthogonality(broken)
        with pytest.raises(AssertionError, match=r"dimension column wrong at \(4, 2\)"):
            _validate(broken)
