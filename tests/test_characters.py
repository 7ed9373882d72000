import math
import operator
import re
import struct
from fractions import Fraction

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
    check_stored_table,
    character_table,
    verify_orthogonality,
)
from coinvariant.combinatorics import (
    centralizer_size,
    class_sign,
    conjugate,
    dimension,
    partition_index,
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
        dims = tuple(table.row(lam)[partition_index(3)[(1, 1, 1)]] for lam in table.partitions)
        assert dims == (1, 2, 1)

    def test_dimension_column_matches_hooks(self):
        for n in range(1, 9):
            table = character_table(n)
            identity = (1,) * n
            for lam in table.partitions:
                assert table.row(lam)[partition_index(n)[identity]] == dimension(lam)

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


def plain_multiplicity(table: CharacterTable, values, lam) -> Fraction:
    """(1/n!) sum_rho |C_rho| f(rho) chi_lam(rho), the multiplicity of
    V(lam) in the class function f with ``values``, as one plain class sum
    in exact fractions (|C_rho| / n! = 1 / z_rho)."""
    return sum(
        Fraction(f * chi, centralizer_size(rho))
        for f, chi, rho in zip(values, table.row(lam), table.partitions)
    )


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
            # the trivial row comes first, and its multiplicity is 1/n!
            message = re.escape(f"class sum for {(n,)} is not divisible by {n}!")
            with pytest.raises(NonIntegral, match=f"^{message}$"):
                table.decompose(indicator)
            assert plain_multiplicity(table, indicator, (n,)) == Fraction(1, math.factorial(n))

    def test_multiplicity_is_one_entry_of_decompose(self):
        for n in range(1, 8):
            table = character_table(n)
            for row_a in table.values:
                for row_b in table.values:
                    product = [x * y for x, y in zip(row_a, row_b)]
                    assert tuple(
                        plain_multiplicity(table, product, nu) for nu in table.partitions
                    ) == table.decompose(product)


class TestPackedKernel:
    """``CharacterTable._decompose_all`` against one class sum per row; it
    packs each distinct function once and gives every input its vector."""

    def test_every_product_matches_reference(self, monkeypatch):
        packed = []
        class_sums = CharacterTable._packed_class_sums

        def recording(self, functions, layout):
            packed.append(list(functions))
            return class_sums(self, functions, layout)

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
            # only the distinct functions, in first-seen order, are packed
            batch = products + products[::-1] + products[:1]
            distinct = list(dict.fromkeys(products))
            packed.clear()
            assert table._decompose_all(batch) == [
                reference_decompose(table, product) for product in batch
            ], n
            assert packed == [distinct], n

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


class TestDigitPacking:
    """``_pack`` and ``_unpack`` against the plain signed base-2^(8 size)
    expansion, at every ``struct`` digit size and at two sizes past it."""

    @staticmethod
    def layout(size, count):
        # a bound of bit length 8 size - 2 takes exactly ``size`` bytes
        layout = characters._digit_layout((1 << (8 * size - 2)) - 1, count)
        assert layout.size == size
        return layout

    @given(
        st.sampled_from([1, 2, 4, 8, 9, 17]).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(st.integers(-(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1), max_size=9),
            )
        )
    )
    def test_round_trip_at_every_digit(self, case):
        size, values = case
        layout = self.layout(size, len(values))
        total = sum(v << (8 * size * i) for i, v in enumerate(values))
        assert characters._pack(values, layout) == total
        assert characters._unpack(total, layout) == values

    @pytest.mark.parametrize("size", [1, 2, 4, 8, 9, 17])
    def test_extremes_and_out_of_range_digits(self, size):
        half = 1 << (8 * size - 1)
        values = [-half, half - 1, 0, -1, 1, half - 1, -half]
        layout = self.layout(size, len(values))
        assert characters._unpack(characters._pack(values, layout), layout) == values
        for bad in (half, -half - 1):
            with pytest.raises((struct.error, OverflowError)):
                characters._pack([*values, bad], self.layout(size, len(values) + 1))


class TestCombineRows:
    """``CharacterTable._combine_rows`` on dense coefficient columns packs
    every row once per call, at the digit size its widest column needs, and
    keeps nothing between calls."""

    def test_each_row_is_packed_once_per_call(self, monkeypatch):
        table = build_character_table(6)
        count = len(table.values)
        packed = []
        pack = characters._pack

        def recording_pack(values, layout):
            packed.append((table.values.index(tuple(values)), layout.size))
            return pack(values, layout)

        monkeypatch.setattr(characters, "_pack", recording_pack)
        small = [[1, 0, 0, 2] + [0] * 7, [0, 0, 0, -1] + [0] * 7, [0] * count]
        expected = [virtual_character(table, c) for c in small]
        assert table._combine_rows(small) == expected
        narrow = packed[0][1]
        assert sorted(packed) == [(k, narrow) for k in range(count)]
        # nothing is kept: a second call packs every row again
        packed.clear()
        assert table._combine_rows(small) == expected
        assert sorted(packed) == [(k, narrow) for k in range(count)]
        # a column that needs wider digits packs every row wide, once
        large = [2**40, 0, 0, 0, 0, -1] + [0] * 5
        packed.clear()
        assert table._combine_rows([*small, large]) == [*expected, virtual_character(table, large)]
        wide = packed[0][1]
        assert wide > narrow and sorted(packed) == [(k, wide) for k in range(count)]
        assert table._combine_rows([]) == []

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
    def test_dense_columns_give_the_combinations_of_every_size(self, case):
        # alone and in one call, so narrow columns share a wide call's layout
        n, coefficients = case
        table = character_table(n)
        expected = [virtual_character(table, c) for c in coefficients]
        assert table._combine_rows(coefficients) == expected
        for c, chi in zip(coefficients, expected):
            assert table._combine_rows([c]) == [chi]


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
        at = [partition_index(7)[lam] for lam in shapes]
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
                at = [partition_index(n)[lam] for lam in shapes]
                assert rows.shapes == shapes
                for lam in shapes:
                    assert rows.row(lam) == table.row(lam)
                    for rho in table.partitions:
                        j = partition_index(n)[rho]
                        assert rows.row(lam)[j] == table.row(lam)[j]
                for f, d in zip(functions, full):
                    assert rows.decompose(f) == tuple(d[k] for k in at), (n, shapes)
                    for lam, mult in zip(shapes, rows.decompose(f)):
                        assert mult == plain_multiplicity(table, f, lam)
                # small and wide coefficients: both digit routes of the layout
                columns = [
                    [k + 1 for k in range(len(shapes))],
                    [(-1) ** k * 2**70 for k in range(len(shapes))],
                ]
                full_columns = [[0] * count for _ in columns]
                for dense, column in zip(full_columns, columns):
                    for k, c in zip(at, column):
                        dense[k] = c
                expected = table._combine_rows(full_columns)
                assert rows._combine_rows(columns) == expected, (n, shapes)

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
                twin = partition_index(n)[conjugate(lam)]
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
        index = partition_index(6)
        j = index[rho]
        values[index[lam]][j] += 1
        values[index[conjugate(lam)]][j] += class_sign(rho)
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
        index = partition_index(6)
        j = index[rho]
        for lam in ((5, 1), conjugate((5, 1))):
            values[index[lam]][j] *= -1
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
        a, b = partition_index(6)[(5, 1)], partition_index(6)[(3, 3)]
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
            k = partition_index(6)[lam]
            values[k] = [-v for v in values[k]]
        broken = with_values(table, values)
        assert verify_orthogonality(broken)
        with pytest.raises(AssertionError, match=r"dimension column wrong at \(4, 2\)"):
            _validate(broken)


class TestStoredTableCheck:
    """A table read from a file is used only if it holds the built rows."""

    def test_built_tables_pass(self):
        for n in range(1, 11):
            check_stored_table(character_table(n))

    @pytest.mark.parametrize(
        "edits, first",
        [
            # (3,2,1) is self-conjugate and (3,1,1,1) even: the dimension
            # column, the transposition column and the twist all still hold
            ([((3, 2, 1), (3, 1, 1, 1), 18)], (3, 2, 1)),
            # (4,1,1) is odd, so the matching edit of the conjugate row keeps
            # the twist; (5,1) comes first in canonical order
            ([((2, 1, 1, 1, 1), (4, 1, 1), -8), ((5, 1), (4, 1, 1), 8)], (5, 1)),
        ],
        ids=["self-conjugate-row", "conjugate-rows"],
    )
    def test_an_edited_entry_names_the_first_row_that_differs(self, edits, first):
        table = character_table(6)
        index = partition_index(6)
        values = [list(row) for row in table.values]
        for lam, rho, delta in edits:
            values[index[lam]][index[rho]] += delta
        with pytest.raises(AssertionError, match=re.escape(f"row {first} is not")):
            check_stored_table(with_values(table, values))
