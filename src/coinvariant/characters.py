"""Exact irreducible characters of the symmetric group.

Character values are computed by the Murnaghan-Nakayama recursion over
border strips, memoized on (shape, remaining cycle type) with the cycle
type consumed largest part first.  Everything is an exact Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial
from operator import mul
from typing import Sequence

from . import memo
from .combinatorics import (
    Partition,
    check_partition,
    class_sign,
    class_size,
    conjugate,
    dimension,
    partition_index,
    partitions_of,
)
from .errors import NonIntegral


@cache
def _border_strip_removals(lam: Partition, k: int) -> tuple[tuple[int, Partition], ...]:
    """All ways to remove a border strip of size k: (sign, smaller shape).

    Works on the beta-set (first-column hook lengths): removing a strip of
    size k means lowering one beta value by k onto an unoccupied value; the
    strip height is the number of beta values jumped over.
    """
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    occupied = set(beta)
    removals: list[tuple[int, Partition]] = []
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((occupied - {b}) | {nb}, reverse=True)
        shape = tuple(new_beta[j] - (ell - 1 - j) for j in range(ell))
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        removals.append((-1 if height % 2 else 1, shape))
    return tuple(removals)


@cache
def _mn(lam: Partition, rho: Partition) -> int:
    if not lam:
        return 1
    total = 0
    k, rest = rho[0], rho[1:]
    for sign, smaller in _border_strip_removals(lam, k):
        total += sign * _mn(smaller, rest)
    return total


def character_value(lam: Partition, rho: Partition) -> int:
    """chi_lam(rho) for partitions of the same n."""
    check_partition(rho, sum(check_partition(lam)))
    return _mn(lam, rho)


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of S_n in canonical partition order.

    ``values[i][j]`` is chi of the i-th partition (irreducible) at the j-th
    partition (conjugacy class).  The table holds only n and ``values``;
    ``partitions`` and ``class_sizes`` are derived from n.
    """

    n: int
    values: tuple[tuple[int, ...], ...]

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(class_size(rho) for rho in self.partitions)

    def index(self, lam: Partition) -> int:
        return partition_index(self.n)[lam]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self.index(lam)]

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.values[self.index(lam)][self.index(rho)]

    def decompose(self, values: Sequence[int]) -> tuple[int, ...]:
        """Multiplicities, in canonical order, of the irreducibles in the
        class function f with ``values`` per class: (1/n!) sum over rho of
        |C_rho| f(rho) chi(rho); NonIntegral if f is not a virtual character."""
        weighted = tuple(map(mul, self.class_sizes, values))
        return tuple(self._class_sum(weighted, k) for k in range(len(self.values)))

    def multiplicity(self, values: Sequence[int], lam: Partition) -> int:
        """The entry of ``decompose(values)`` at lam, from its one class sum."""
        return self._class_sum(tuple(map(mul, self.class_sizes, values)), self.index(lam))

    def _class_sum(self, weighted: Sequence[int], k: int) -> int:
        """(1/n!) sum over rho of weighted(rho) chi_k(rho), exactly."""
        mult, rem = divmod(sum(map(mul, weighted, self.values[k])), factorial(self.n))
        if rem:
            raise NonIntegral(f"class sum for {self.partitions[k]} is not divisible by {self.n}!")
        return mult


def build_character_table(n: int) -> CharacterTable:
    """Compute, validate, and return the character table of S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    parts = partitions_of(n)
    values = tuple(
        tuple(_mn(lam, rho) for rho in parts) for lam in parts
    )
    table = CharacterTable(n, values)
    _validate(table)
    return table


def _validate(table: CharacterTable) -> None:
    n = table.n
    parts = table.partitions
    identity = parts.index((1,) * n)
    for i, lam in enumerate(parts):
        if table.values[i][identity] != dimension(lam):
            raise AssertionError(f"dimension column wrong at {lam}")
    idx = partition_index(n)
    signs = [class_sign(rho) for rho in parts]
    for row, lam in zip(table.values, parts):
        twisted = table.values[idx[conjugate(lam)]]
        if twisted != tuple(map(mul, signs, row)):
            j = next(j for j, s in enumerate(signs) if twisted[j] != s * row[j])
            raise AssertionError(f"conjugation twist fails at ({lam}, {parts[j]})")
    if not verify_orthogonality(table):
        raise AssertionError(f"orthogonality fails for n={n}")


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact row orthogonality, sum_rho |C_rho| chi_lam(rho) chi_mu(rho) =
    n! delta(lam, mu).  Columns need no check: with D = diag(|C_rho|) the
    rows say X D X^T = n! I for the square table X, so D X^T / n! is the
    inverse of X and X^T X = n! D^-1 = diag(z_rho) (Macdonald, I.7)."""
    values = table.values
    nfact = factorial(table.n)
    for i, row in enumerate(values):
        weighted = tuple(map(mul, table.class_sizes, row))
        if sum(map(mul, weighted, row)) != nfact:
            return False
        if any(sum(map(mul, weighted, other)) for other in values[i + 1 :]):
            return False
    return True


def character_table(n: int) -> CharacterTable:
    """Process-wide memoized table; a disk cache may seed it (see memo)."""
    return memo.lookup("char", n, build_character_table)
