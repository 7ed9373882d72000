"""The graded S_n-representation on the coinvariant ring.

Degree convention: everything is stored in the single grading i, where the
degree-i piece is what geometry would call cohomological degree 2i.  The
top degree is c = n(n-1)/2.

The multiplicity of the irreducible V(lam) in the degree-i piece equals the
number of standard tableaux of shape lam with major index i (the fake
degree).  Three independent routes compute the same polynomial:

* ``fake_degree_syt``        -- direct major-index enumeration,
* ``fake_degree_hook``       -- q-hook formula (production route, and the
                                only place the formula is evaluated),
* ``fake_degree_projection`` -- character projection of the graded character.

The graded dimensions ``poincare_polynomial`` are ``polynomials.q_factorial``.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from . import memo
from .characters import character_table
from .combinatorics import (
    Partition,
    check_partition,
    class_sign,
    conjugate,
    dimension,
    enumerate_syt,
    hook_lengths,
    major_index,
    n_stat,
    partition_index,
    partitions_of,
    top_degree,
)
from .polynomials import (
    IntPoly,
    is_unimodal,
    monomial,
    one_minus_q_product,
    q_factorial as poincare_polynomial,
)


def graded_character_poly(n: int, rho: Partition) -> IntPoly:
    """Graded character at a class of cycle type rho:
    prod_{i<=n} (1 - q^i) / prod_j (1 - q^{rho_j}), one division by
    1 - q^part per cycle.  Exact by construction."""
    check_partition(rho, n)
    poly = one_minus_q_product(n)
    for part in rho:
        poly = poly.divide_one_minus_q_power(part)
    return poly


def fake_degree_syt(lam: Partition) -> IntPoly:
    """Major-index generating polynomial over standard tableaux of shape lam."""
    c = top_degree(sum(lam))
    coeffs = [0] * (c + 1)
    for tableau in enumerate_syt(lam):
        coeffs[major_index(tableau)] += 1
    return IntPoly(coeffs)


def fake_degree_hook(lam: Partition) -> IntPoly:
    """q^{n(lam)} [n]_q! / prod over cells [hook]_q, as q^{n(lam)}
    prod_{i<=n} (1 - q^i) / prod over cells (1 - q^hook), one division by
    1 - q^hook per cell: both quotients carry n factors of (1 - q).  Exact
    by the hook theorem."""
    poly = one_minus_q_product(sum(lam))
    for h in sorted(hook_lengths(lam), reverse=True):
        poly = poly.divide_one_minus_q_power(h)
    return monomial(n_stat(lam)) * poly


def fake_degree_projection(lam: Partition, n: int) -> IntPoly:
    """Project the graded character onto V(lam): the q^i coefficient is
    ``CharacterTable.multiplicity`` of rho -> [q^i] chi(rho, q) at lam, an
    exact class sum (NonIntegral on a remainder)."""
    check_partition(lam, n)
    table = character_table(n)
    c = top_degree(n)
    chis = [graded_character_poly(n, rho).padded(c + 1) for rho in table.partitions]
    return IntPoly(table.multiplicity(column, lam) for column in zip(*chis))


class GradedMultiplicityTable:
    """b[lam][i] = multiplicity of V(lam) in the degree-i piece of a graded
    S_n-representation: the coinvariant ring, or a Springer fiber.

    The table holds only n and ``b``, one row per partition in canonical
    order, each running over degrees 0 .. top; ``partitions``,
    ``top_degree`` and ``supports`` are derived from them.
    """

    def __init__(self, n: int, b: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("GradedMultiplicityTable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedMultiplicityTable) and (self.n, self.b) == (other.n, other.b)

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    @property
    def top_degree(self) -> int:
        return len(self.b[0]) - 1

    @property
    def supports(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per degree: the nonzero (row, multiplicity) pairs."""
        return tuple(map(self.support, range(self.top_degree + 1)))

    def index(self, lam: Partition) -> int:
        return partition_index(self.n)[lam]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.b[self.index(lam)]

    def multiplicity(self, lam: Partition, i: int) -> int:
        """b[lam][i]; degrees outside [0, top] hold the zero representation."""
        if not 0 <= i <= self.top_degree:
            return 0
        return self.b[self.index(lam)][i]

    def support(self, i: int) -> tuple[tuple[int, int], ...]:
        """Nonzero (partition row, multiplicity) pairs in degree i, read
        from the rows on each call and not kept: a Springer sweep holds
        many tables and needs each support once."""
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


def check_duality(n: int) -> bool:
    """Both faces of the complementary-degree duality.

    Polynomial face: mirror(chi(rho, q), c) == sign(rho) * chi(rho, q) for
    every class rho.  Multiplicity face: b[lam][c-i] == b[conjugate(lam)][i].
    """
    c = top_degree(n)
    for rho in partitions_of(n):
        poly = graded_character_poly(n, rho)
        if poly.mirror(c) != poly.scale(class_sign(rho)):
            return False
    return _duality_failure(graded_table(n)) is None


# ---------------------------------------------------------------------------
# Representation-stability checks


class StabilizationReport(NamedTuple):
    """Padded degree-i multiplicities across n; stable means all constant.

    For a core partition mu, the padded shape at n is (n - |mu|, *mu).
    ``sequences`` maps each core to the multiplicity sequence over
    n = n_min .. n_max.
    """

    degree: int
    n_min: int
    n_max: int
    sequences: tuple[tuple[Partition, tuple[int, ...]], ...]
    anomalies: tuple[Partition, ...]

    @property
    def stable(self) -> bool:
        return not self.anomalies


def pad_core(core: Partition, n: int) -> Partition:
    """(n - |core|, *core); rejects paddings that are not partitions."""
    first = n - sum(core)
    if core and first < core[0]:
        raise ValueError(f"cannot pad {core} to n={n}")
    if first < 0:
        raise ValueError(f"cannot pad {core} to n={n}")
    return (first, *core) if first > 0 else core


def stabilization_check(i: int, n_max: int) -> StabilizationReport:
    """Scan b[pad(core, n)][i] for n in [2i, n_max] for every core of size <= i.

    Any shape with |shape| - shape_1 > i has no tableau of major index i, so
    the cores of size <= i cover every possibly-nonzero row; this is verified
    during the scan and any stray nonzero row is reported as an anomaly.
    """
    if i < 1:
        raise ValueError("degree must be >= 1")
    n_min = 2 * i
    if n_max < n_min:
        raise ValueError(f"n_max must be at least {n_min}")
    cores = [mu for size in range(i + 1) for mu in partitions_of(size)]
    sequences = []
    anomalies = []
    for core in cores:
        seq = tuple(
            graded_table(n).multiplicity(pad_core(core, n), i)
            for n in range(n_min, n_max + 1)
        )
        sequences.append((core, seq))
        if len(set(seq)) > 1:
            anomalies.append(core)
    core_set = set(cores)
    for n in range(n_min, n_max + 1):
        for r, mult in graded_table(n).support(i):
            lam = graded_table(n).partitions[r]
            if lam[1:] not in core_set:
                anomalies.append(lam[1:])
    return StabilizationReport(
        degree=i,
        n_min=n_min,
        n_max=n_max,
        sequences=tuple(sequences),
        anomalies=tuple(dict.fromkeys(anomalies)),
    )


def find_nonunimodal_fake_degrees(n: int) -> list[Partition]:
    """All shapes whose fake-degree coefficient sequence is not unimodal."""
    return [
        lam
        for lam in partitions_of(n)
        if not is_unimodal(fake_degree_hook(lam).coeffs)
    ]
