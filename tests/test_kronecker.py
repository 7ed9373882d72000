from fractions import Fraction

import pytest

from coinvariant.characters import character_table
from coinvariant.combinatorics import (
    centralizer_size,
    conjugate,
    dimension,
    partitions_of,
)
from coinvariant.kronecker import (
    KroneckerTable,
    OnDemandKronecker,
    build_kronecker_table,
    kronecker_coefficient,
    kronecker_table,
    verify_kronecker_identities,
)


def kronecker_by_character_product(lam, mu, nu):
    """Independent oracle: pointwise-multiply the character rows and expand
    in the character basis with per-class rational weights 1/z_rho."""
    n = sum(lam)
    table = character_table(n)
    product = [a * b for a, b in zip(table.row(lam), table.row(mu))]
    total = sum(
        Fraction(p * c, centralizer_size(rho))
        for p, c, rho in zip(product, table.row(nu), table.partitions)
    )
    assert total.denominator == 1
    return int(total)


class TestCoefficient:
    def test_trivial_factor_gives_delta(self):
        for n in (3, 5):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    expected = 1 if mu == nu else 0
                    assert kronecker_coefficient((n,), mu, nu) == expected

    def test_sign_squared_is_trivial(self):
        assert kronecker_coefficient((1, 1, 1), (1, 1, 1), (3,)) == 1

    def test_standard_cube(self):
        assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kronecker_coefficient((2, 1), (3,), (2, 2))

    def test_matches_character_product_oracle(self):
        for n in range(2, 6):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    for nu in partitions_of(n):
                        assert kronecker_coefficient(lam, mu, nu) == (
                            kronecker_by_character_product(lam, mu, nu)
                        )


class TestTable:
    def test_n2_delta_structure(self):
        table = kronecker_table(2)
        for lam in partitions_of(2):
            for mu in partitions_of(2):
                for nu in partitions_of(2):
                    direct = kronecker_coefficient(lam, mu, nu)
                    assert table.coefficient(lam, mu, nu) == direct

    def test_n3_storage_is_symmetry_reduced(self):
        table = kronecker_table(3)
        assert all(a <= b <= c for a, b, c in table.entries)
        # ten sorted triples over three partitions, not all nonzero
        assert len(table.entries) <= 10
        assert table.coefficient((2, 1), (2, 1), (2, 1)) == 1

    def test_lookup_is_symmetric(self):
        table = kronecker_table(5)
        lam, mu, nu = (3, 1, 1), (2, 2, 1), (3, 2)
        value = table.coefficient(lam, mu, nu)
        assert value == table.coefficient(nu, lam, mu)
        assert value == table.coefficient(mu, nu, lam)
        assert value == kronecker_coefficient(lam, mu, nu)

    def test_identities_small(self):
        for n in range(2, 7):
            assert verify_kronecker_identities(kronecker_table(n))

    def test_perturbed_entry_fails(self):
        table = kronecker_table(4)
        entries = dict(table.entries)
        key = next(iter(sorted(entries)))
        entries[key] += 1
        broken = KroneckerTable(n=4, entries=entries)
        assert not verify_kronecker_identities(broken)

    def test_size_must_be_positive(self):
        # the builder has no size cap; the command line holds the caps
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                build_kronecker_table(n)

    def test_bulk_build_at_cap(self):
        # 77^3 logical entries, reduced to sorted triples; identities are
        # verified inside the build
        table = kronecker_table(12)
        assert len(table.partitions) == 77
        assert all(a <= b <= c for a, b, c in table.entries)
        assert all(g > 0 for g in table.entries.values())
        assert table.coefficient((11, 1), (11, 1), (12,)) == 1


class TestIdentitiesByHand:
    def test_conjugation_twist(self):
        table = kronecker_table(6)
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                assert table.coefficient(lam, mu, (3, 2, 1)) == table.coefficient(
                    conjugate(lam), conjugate(mu), (3, 2, 1)
                )

    def test_dimension_sum(self):
        table = kronecker_table(6)
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                total = sum(
                    dimension(nu) * table.coefficient(lam, mu, nu)
                    for nu in partitions_of(6)
                )
                assert total == dimension(lam) * dimension(mu)


class TestOnDemandBackend:
    def test_matches_full_table(self):
        for n in range(2, 10):
            full = kronecker_table(n)
            lazy = OnDemandKronecker(character_table(n))
            count = len(full.partitions)
            for a in range(count):
                for b in range(a, count):
                    assert full.pair_vector(a, b) == lazy.pair_vector(a, b)

    def test_coefficient_delegates(self):
        lazy = OnDemandKronecker(character_table(4))
        assert lazy.coefficient((2, 2), (2, 2), (4,)) == 1
