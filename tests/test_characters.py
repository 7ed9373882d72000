import math
import operator

import pytest

from coinvariant.characters import (
    CharacterTable,
    _validate,
    build_character_table,
    character_table,
    character_value,
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
        dims = tuple(table.value(lam, (1, 1, 1)) for lam in table.partitions)
        assert dims == (1, 2, 1)

    def test_dimension_column_matches_hooks(self):
        for n in range(1, 9):
            table = character_table(n)
            identity = (1,) * n
            for lam in table.partitions:
                assert table.value(lam, identity) == dimension(lam)

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


def with_values(table: CharacterTable, values) -> CharacterTable:
    return CharacterTable(
        n=table.n,
        values=tuple(tuple(row) for row in values),
    )


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
        assert table.value((5, 1), rho) == 2
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
