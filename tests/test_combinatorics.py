import ast
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import coinvariant
from coinvariant import combinatorics
from coinvariant.audit import (
    character_value,
    enumerate_syt,
    fake_degree_projection,
    fake_degree_syt,
    graded_character_poly,
    kostka_number,
    major_index,
)
from coinvariant.combinatorics import (
    charge,
    centralizer_size,
    check_partition,
    class_sign,
    class_size,
    conjugate,
    dimension,
    dominates,
    enumerate_ssyt,
    format_partition,
    hook_lengths,
    hook_product,
    is_partition,
    n_stat,
    parse_partition,
    partitions_of,
    reading_word,
)
from coinvariant.errors import NonIntegral
from coinvariant.graded import fake_degree_hook
from coinvariant.kronecker import kronecker_coefficient
from coinvariant.springer import kostka_foulkes_poly


def euler_partition_count(n: int) -> int:
    """Independent p(n) oracle: Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


partitions_up_to_12 = st.integers(0, 12).flatmap(
    lambda n: st.sampled_from(partitions_of(n))
)


class TestPartitions:
    def test_single(self):
        assert partitions_of(1) == ((1,),)

    def test_complete_enumeration_n4(self):
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))

    def test_count_n12(self):
        assert len(partitions_of(12)) == 77

    def test_counts_match_euler_recurrence(self):
        for n in range(21):
            assert len(partitions_of(n)) == euler_partition_count(n)

    def test_descending_lex_order(self):
        for n in range(1, 13):
            parts = partitions_of(n)
            assert all(parts[k] > parts[k + 1] for k in range(len(parts) - 1))
            assert parts[0] == (n,)
            assert parts[-1] == (1,) * n

    def test_all_valid_and_distinct(self):
        for n in range(13):
            parts = partitions_of(n)
            assert len(set(parts)) == len(parts)
            assert all(is_partition(p) and sum(p) == n for p in parts)

    def test_partition_of_zero(self):
        assert partitions_of(0) == ((),)
        assert conjugate(()) == ()
        assert n_stat(()) == 0
        assert hook_lengths(()) == ()

    def test_text_forms(self):
        assert parse_partition("4,1,1,1") == (4, 1, 1, 1)
        assert format_partition((4, 1, 1, 1)) == "4,1,1,1"
        assert parse_partition("") == ()
        with pytest.raises(ValueError):
            parse_partition("1,2")
        with pytest.raises(ValueError):
            parse_partition("2,0")
        with pytest.raises(ValueError):
            parse_partition("a,b")


class TestCheckPartition:
    def test_partition_of_n(self):
        assert check_partition((2, 1)) == (2, 1)
        assert check_partition((2, 1), 3) == (2, 1)
        with pytest.raises(ValueError, match="^2,1 is not a partition of 4$"):
            check_partition((2, 1), 4)

    def test_empty_partition_is_named(self):
        with pytest.raises(ValueError, match="^the empty partition is not a partition of 5$"):
            check_partition((), 5)
        assert check_partition((), 0) == ()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: graded_character_poly(3, (3, 0)),
            lambda: character_value((1, 2), (3,)),
            lambda: character_value((2, 1), (0, 3)),
            lambda: kronecker_coefficient((1, 2), (2, 1), (3,)),
            lambda: fake_degree_projection((1, 2), 3),
            lambda: hook_lengths((1, 2)),
            lambda: dimension((1, 2)),
            lambda: hook_product((1, 2)),
            lambda: fake_degree_hook((1, 2)),
            lambda: fake_degree_syt((1, 2)),
            lambda: list(enumerate_syt((2, 0))),
            lambda: list(enumerate_ssyt((3, 0), (2, 1))),
            lambda: list(enumerate_ssyt((2, 1), (1, 2))),
            lambda: kostka_number((3, 0), (2, 1)),
        ],
        ids=["graded_character_poly", "character_value-lam", "character_value-rho",
             "kronecker_coefficient", "fake_degree_projection", "hook_lengths",
             "dimension", "hook_product", "fake_degree_hook", "fake_degree_syt",
             "enumerate_syt", "enumerate_ssyt-shape", "enumerate_ssyt-content",
             "kostka_number"],
    )
    def test_entry_points_reject_non_partitions(self, call):
        with pytest.raises(ValueError, match="not a partition"):
            call()


class TestConjugate:
    def test_examples(self):
        assert conjugate((3,)) == (1, 1, 1)
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((4, 2, 1, 1)) == (4, 2, 1, 1)
        assert conjugate((3, 1)) == (2, 1, 1)

    @given(partitions_up_to_12)
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam

    def test_involution_exhaustive(self):
        for n in range(13):
            for lam in partitions_of(n):
                assert conjugate(conjugate(lam)) == lam

    @given(partitions_up_to_12)
    def test_preserves_size(self, lam):
        assert sum(conjugate(lam)) == sum(lam)


class TestHooks:
    def test_examples(self):
        assert Counter(hook_lengths((2, 1))) == Counter({3: 1, 1: 2})
        assert Counter(hook_lengths((2, 2))) == Counter({3: 1, 2: 2, 1: 1})
        for n in (1, 4, 7):
            assert hook_lengths((n,)) == tuple(range(n, 0, -1))

    def test_dimension_2_2(self):
        assert math.factorial(4) // 12 == 2 == dimension((2, 2))

    def test_hook_product_divides_factorial(self):
        for n in range(1, 11):
            for lam in partitions_of(n):
                assert math.factorial(n) % hook_product(lam) == 0

    def test_sum_of_squared_dimensions(self):
        for n in range(1, 11):
            total = sum(dimension(lam) ** 2 for lam in partitions_of(n))
            assert total == math.factorial(n)


class TestClassData:
    def test_examples(self):
        assert centralizer_size((1, 1, 1)) == 6
        assert centralizer_size((3,)) == 3
        assert centralizer_size((2, 1)) == 2

    def test_class_sizes_partition_group(self):
        for n in range(1, 13):
            assert sum(class_size(rho) for rho in partitions_of(n)) == math.factorial(n)

    def test_sign(self):
        assert class_sign((1, 1, 1)) == 1
        assert class_sign((2, 1)) == -1
        assert class_sign((3,)) == 1


class TestExactQuotients:
    """n! over a hook product or a centralizer size must be exact, and the
    check must not vanish under ``python -O``."""

    def test_dimension_raises_on_a_remainder(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "hook_product", lambda lam: 7)
        with pytest.raises(NonIntegral, match="hook product of 3 does not divide 3!"):
            dimension((3,))

    def test_class_size_raises_on_a_remainder(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "centralizer_size", lambda rho: 7)
        with pytest.raises(NonIntegral, match="centralizer size of 2,1 does not divide 3!"):
            class_size((2, 1))

    def test_package_has_no_assert_statement(self):
        package = Path(coinvariant.__file__).parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_package_imports_no_unused_name(self):
        # a name is used if it appears as an ast.Name, which covers the base
        # of every attribute chain and every annotation
        allowed = {
            # perfbench/traced.py wraps verify.parallel_map (ROADMAP item 1)
            ("verify.py", "parallel_map"),
        }
        package = Path(coinvariant.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and (path.name, name) not in allowed:
                        found.append(f"{path.name}:{node.lineno} {name}")
        assert found == []


class TestNStat:
    def test_examples(self):
        assert n_stat((3,)) == 0
        assert n_stat((2, 1)) == 1
        assert n_stat((1, 1, 1)) == 3

    @given(partitions_up_to_12)
    def test_matches_conjugate_binomials(self, lam):
        # n(lam) = sum over columns of C(column, 2)
        assert n_stat(lam) == sum(c * (c - 1) // 2 for c in conjugate(lam))


class TestDominance:
    def test_examples(self):
        assert dominates((3,), (2, 1))
        assert dominates((2, 1), (1, 1, 1))
        assert not dominates((1, 1, 1), (2, 1))
        assert dominates((2, 2), (2, 1, 1))
        assert not dominates((2, 2), (3, 1))

    def test_reflexive(self):
        for lam in partitions_of(8):
            assert dominates(lam, lam)


class TestStandardTableaux:
    def test_single_row(self):
        assert list(enumerate_syt((3,))) == [((1, 2, 3),)]

    def test_two_tableaux_2_1(self):
        assert list(enumerate_syt((2, 1))) == [((1, 2), (3,)), ((1, 3), (2,))]

    def test_count_2_2(self):
        assert len(list(enumerate_syt((2, 2)))) == 2

    def test_counts_match_hook_formula(self):
        for n in range(10):
            for lam in partitions_of(n):
                tableaux = list(enumerate_syt(lam))
                assert len(tableaux) == dimension(lam)
                assert len(set(tableaux)) == len(tableaux)

    def test_major_index_examples(self):
        assert major_index(((1, 2, 3),)) == 0
        assert major_index(((1, 3), (2,))) == 1
        assert major_index(((1, 2), (3,))) == 2
        assert major_index(((1,), (2,), (3,))) == 3

    def test_stream_is_sorted(self):
        for lam in [(3, 2), (2, 2, 1), (4, 1)]:
            tableaux = list(enumerate_syt(lam))
            assert tableaux == sorted(tableaux)


class TestSemistandardTableaux:
    def test_row_of_ones(self):
        for n in (1, 3, 6):
            assert list(enumerate_ssyt((n,), (n,))) == [((1,) * n,)]

    def test_shape_equals_content(self):
        assert list(enumerate_ssyt((2, 1), (2, 1))) == [((1, 1), (2,))]

    def test_standard_content(self):
        assert list(enumerate_ssyt((2, 1), (1, 1, 1))) == [
            ((1, 2), (3,)),
            ((1, 3), (2,)),
        ]

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            list(enumerate_ssyt((2, 1), (2, 2)))

    def test_standard_content_count_matches_syt(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert kostka_number(lam, (1,) * n) == dimension(lam)

    def test_positive_iff_dominates(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    count = kostka_number(lam, mu)
                    assert (count > 0) == dominates(lam, mu)

    def test_kostka_unity_on_diagonal(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert kostka_number(lam, lam) == 1

    def test_every_pair_up_to_7(self):
        # the count is checked against K(lam, mu)(1) of the Hall-Littlewood
        # factorisation (build_springer_tables), which does not enumerate tableaux
        for n in range(8):
            for lam in partitions_of(n):
                assert len(list(enumerate_syt(lam))) == dimension(lam)
                for mu in partitions_of(n):
                    letters = [k for k, size in enumerate(mu, 1) for _ in range(size)]
                    tableaux = list(enumerate_ssyt(lam, mu))
                    assert len(set(tableaux)) == len(tableaux)
                    assert len(tableaux) == kostka_foulkes_poly(lam, mu)(1)
                    for tab in tableaux:
                        assert tuple(map(len, tab)) == lam
                        assert all(list(row) == sorted(row) for row in tab)
                        assert all(
                            above[c] < below[c]
                            for above, below in zip(tab, tab[1:])
                            for c in range(len(below))
                        )
                        assert sorted(reading_word(tab)) == letters


class TestCharge:
    def test_examples(self):
        assert charge((1, 1, 1)) == 0
        assert charge((1, 2, 3)) == 3
        assert charge((3, 2, 1)) == 0
        assert charge((2, 1, 1)) == 0
        assert charge(()) == 0

    def test_rejects_non_partition_content(self):
        with pytest.raises(ValueError):
            charge((2, 2, 1))
        with pytest.raises(ValueError):
            charge((2, 3))
        with pytest.raises(ValueError):
            charge((1, 3, 3, 1))

    def test_word_of_standard_content_bounds(self):
        # charge of the strictly increasing word 1..n is C(n, 2), of the
        # strictly decreasing word it is 0
        for n in range(1, 9):
            assert charge(tuple(range(1, n + 1))) == n * (n - 1) // 2
            assert charge(tuple(range(n, 0, -1))) == 0

    def test_charge_enumerates_syt(self):
        # over standard content the charge multiset has one value per SYT
        for n in range(1, 8):
            for lam in partitions_of(n):
                words = [reading_word(t) for t in enumerate_ssyt(lam, (1,) * n)]
                assert len(words) == dimension(lam)
                charges = [charge(w) for w in words]
                assert all(0 <= c <= n * (n - 1) // 2 for c in charges)
