"""The graded S_n-representation on the coinvariant ring.

Degree convention: everything is stored in the single grading i, where the
degree-i piece is what geometry would call cohomological degree 2i.  The
top degree is c = n(n-1)/2.

The multiplicity of the irreducible V(lam) in the degree-i piece equals the
number of standard tableaux of shape lam with major index i (the fake
degree).  It is computed one way here, by the q-hook formula
(``fake_degree_hook``, the only place the formula is evaluated); the
major-index enumeration and the character projection of the graded
character that audit it are in ``audit``.

The graded dimensions ``poincare_polynomial`` are ``polynomials.q_factorial``.
"""

from __future__ import annotations

from operator import mul

from . import memo
from .combinatorics import (
    Partition,
    conjugate,
    dimension,
    hook_lengths,
    n_stat,
    partition_index,
    partitions_of,
    top_degree,
)
from .polynomials import IntPoly, one_minus_q_product, q_factorial as poincare_polynomial


def fake_degree_hook(lam: Partition) -> IntPoly:
    """q^{n(lam)} [n]_q! / prod over cells [hook]_q, as q^{n(lam)}
    prod_{i<=n} (1 - q^i) / prod over cells (1 - q^hook), one division by
    1 - q^hook per cell: both quotients carry n factors of (1 - q).  Exact
    by the hook theorem."""
    poly = one_minus_q_product(sum(lam))
    for h in sorted(hook_lengths(lam), reverse=True):
        poly = poly.divide_one_minus_q_power(h)
    return IntPoly((0,) * n_stat(lam) + poly.coeffs)


class GradedMultiplicityTable:
    """b[lam][i] = multiplicity of V(lam) in the degree-i piece of a graded
    S_n-representation: the coinvariant ring, or a Springer fiber.

    The table holds only n and ``b``, one row per partition in canonical
    order, each running over degrees 0 .. top; ``partitions`` and
    ``top_degree`` are derived from them.
    """

    def __init__(self, n: int, b: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMultiplicityTable is immutable")

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    @property
    def top_degree(self) -> int:
        return len(self.b[0]) - 1

    def support(self, i: int) -> tuple[tuple[int, int], ...]:
        """Nonzero (partition row, multiplicity) pairs in degree i, read
        from the rows on each call and not kept; only calibration and the
        audit routes read it (a sweep's d reads the degree columns)."""
        if not 0 <= i <= self.top_degree:
            return ()
        return tuple((r, row[i]) for r, row in enumerate(self.b) if row[i])


def build_graded_table(n: int) -> GradedMultiplicityTable:
    """Hook-formula route, validated against the structural identities."""
    if n < 1:
        raise ValueError("n must be positive")
    c = top_degree(n)
    table = GradedMultiplicityTable(
        n, tuple(fake_degree_hook(lam).padded(c + 1) for lam in partitions_of(n))
    )
    _validate(table)
    return table


def _duality_failure(table: GradedMultiplicityTable) -> Partition | None:
    """First row lam with b[lam][c-i] != b[conjugate(lam)][i] for some i."""
    idx = partition_index(table.n)
    for row, lam in zip(table.b, table.partitions):
        if row[::-1] != table.b[idx[conjugate(lam)]]:
            return lam
    return None


def _validate(table: GradedMultiplicityTable) -> None:
    """The guards of a table built or read from a file: row sums, duality,
    the Betti columns, and each row lam starting at degree n(lam) with
    multiplicity 1, the one that tells lam from lam'; AssertionError otherwise."""
    n, c = table.n, table.top_degree
    dims = [dimension(lam) for lam in table.partitions]
    for r, lam in enumerate(table.partitions):
        if sum(table.b[r]) != dims[r]:
            raise AssertionError(f"row sum != dim V({lam})")
    lam = _duality_failure(table)
    if lam is not None:
        raise AssertionError(f"duality fails on row {lam}")
    betti = poincare_polynomial(n).padded(c + 1)
    for i, column in enumerate(zip(*table.b)):
        if sum(map(mul, dims, column)) != betti[i]:
            raise AssertionError(f"column {i} does not match Poincare coefficient")
    for lam, row in zip(table.partitions, table.b):
        low = n_stat(lam)
        if any(row[:low]) or row[low] != 1:
            raise AssertionError(f"row {lam} does not start at degree n(lam) with multiplicity 1")


def graded_table(n: int) -> GradedMultiplicityTable:
    """Process-wide memoized table; a disk cache may seed it (see memo)."""
    return memo.lookup("graded", n, build_graded_table)
