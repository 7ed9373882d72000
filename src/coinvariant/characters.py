"""Exact irreducible characters of the symmetric group.

Character values are computed by the Murnaghan-Nakayama recursion over
border strips, memoized on (shape, remaining cycle type) with the cycle
type consumed largest part first.  Everything is an exact Python int.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

from . import memo
from .combinatorics import (
    Partition,
    centralizer_size,
    class_sign,
    class_size,
    conjugate,
    dimension,
    partition_index,
    partitions_of,
)
from .errors import LimitExceeded

DEFAULT_MAX_N = 14


def _border_strip_removals(lam: Partition, k: int) -> list[tuple[int, Partition]]:
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
    return removals


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
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    return _mn(lam, rho)


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of S_n in canonical partition order.

    ``values[i][j]`` is chi of the i-th partition (irreducible) at the j-th
    partition (conjugacy class).
    """

    n: int
    partitions: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]
    class_sizes: tuple[int, ...]

    def index(self, lam: Partition) -> int:
        return partition_index(self.n)[lam]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self.index(lam)]

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.values[self.index(lam)][self.index(rho)]


def build_character_table(n: int, max_n: int = DEFAULT_MAX_N) -> CharacterTable:
    """Compute, validate, and return the character table of S_n."""
    if not 1 <= n <= max_n:
        raise LimitExceeded(f"character table size {n} outside [1, {max_n}]")
    parts = partitions_of(n)
    values = tuple(
        tuple(_mn(lam, rho) for rho in parts) for lam in parts
    )
    table = CharacterTable(
        n=n,
        partitions=parts,
        values=values,
        class_sizes=tuple(class_size(rho) for rho in parts),
    )
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
    for i, lam in enumerate(parts):
        conj_row = table.values[idx[conjugate(lam)]]
        for j, rho in enumerate(parts):
            if conj_row[j] != class_sign(rho) * table.values[i][j]:
                raise AssertionError(f"conjugation twist fails at ({lam}, {rho})")
    if not verify_orthogonality(table):
        raise AssertionError(f"orthogonality fails for n={n}")


def verify_orthogonality(table: CharacterTable) -> bool:
    """Exact row and column orthogonality for the whole table."""
    n = table.n
    parts = table.partitions
    count = len(parts)
    nfact = factorial(n)
    for i in range(count):
        row_i = table.values[i]
        for j in range(i, count):
            row_j = table.values[j]
            total = sum(
                size * a * b
                for size, a, b in zip(table.class_sizes, row_i, row_j)
            )
            if total != (nfact if i == j else 0):
                return False
    for j in range(count):
        for k in range(j, count):
            total = sum(row[j] * row[k] for row in table.values)
            expected = centralizer_size(parts[j]) if j == k else 0
            if total != expected:
                return False
    return True


def character_table(n: int) -> CharacterTable:
    """Process-wide memoized table; a disk cache may seed it (see memo)."""
    return memo.lookup("char", n, build_character_table)
