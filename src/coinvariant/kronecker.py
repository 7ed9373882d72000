"""Kronecker coefficients of the symmetric group by exact class sums.

g(lam, mu, nu) = (1/n!) sum over classes rho of
class_size(rho) * chi_lam(rho) * chi_mu(rho) * chi_nu(rho).

On-demand pair vectors decompose the product character chi_lam * chi_mu
with ``CharacterTable.decompose`` and single coefficients take its one
class sum at nu with ``CharacterTable.multiplicity``; both divide each
class sum by n! once and raise NonIntegral on a remainder: a failure
means a character table bug, never data.  ``build_kronecker_table`` keeps
its own bulk loop over sorted triples, with the same exactness check, as
the independent reference; lookups symmetrize.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from operator import mul

from . import memo
from .characters import CharacterTable, character_table
from .combinatorics import (
    Partition, check_partition, conjugate, dimension, partition_index, partitions_of,
)
from .errors import NonIntegral


def kronecker_coefficient(
    lam: Partition,
    mu: Partition,
    nu: Partition,
    table: CharacterTable | None = None,
) -> int:
    """Multiplicity of V(nu) in V(lam) (x) V(mu)."""
    n = sum(check_partition(lam))
    check_partition(mu, n)
    check_partition(nu, n)
    if table is None:
        table = character_table(n)
    return table.multiplicity(tuple(map(mul, table.row(lam), table.row(mu))), nu)


@dataclass
class KroneckerTable:
    """All g(lam, mu, nu) for one n, stored under sorted index triples.

    The table holds only n and ``entries`` (plus a memo of pair vectors);
    ``partitions`` is derived from n.
    """

    n: int
    entries: dict[tuple[int, int, int], int]
    _pair_cache: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    def index(self, lam: Partition) -> int:
        return partition_index(self.n)[lam]

    def coefficient(self, lam: Partition, mu: Partition, nu: Partition) -> int:
        key = tuple(sorted((self.index(lam), self.index(mu), self.index(nu))))
        return self.entries.get(key, 0)

    def pair_vector(self, a: int, b: int) -> tuple[int, ...]:
        """g values over all nu (canonical order) for row indices a, b."""
        key = (a, b) if a <= b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is None:
            get = self.entries.get
            cached = tuple(
                get(tuple(sorted((*key, c))), 0) for c in range(len(self.partitions))
            )
            self._pair_cache[key] = cached
        return cached


def build_kronecker_table(n: int) -> KroneckerTable:
    """Bulk class sums over sorted triples; zero entries are not stored."""
    if n < 1:
        raise ValueError("n must be positive")
    table = character_table(n)
    count = len(table.partitions)
    nfact = factorial(n)
    weighted = [
        [size * v for size, v in zip(table.class_sizes, table.values[a])]
        for a in range(count)
    ]
    entries: dict[tuple[int, int, int], int] = {}
    for a in range(count):
        row_a = weighted[a]
        for b in range(a, count):
            row_b = table.values[b]
            pair = [x * y for x, y in zip(row_a, row_b)]
            for c in range(b, count):
                row_c = table.values[c]
                total = 0
                for x, y in zip(pair, row_c):
                    if x:
                        total += x * y
                g, rem = divmod(total, nfact)
                if rem:
                    raise NonIntegral(f"triple ({a},{b},{c}) sum not divisible by n!")
                if g:
                    entries[(a, b, c)] = g
    kron = KroneckerTable(n, entries)
    if not verify_kronecker_identities(kron):
        raise AssertionError(f"Kronecker identities fail for n={n}")
    return kron


def verify_kronecker_identities(table: KroneckerTable) -> bool:
    """The four structural identities, exhaustively over the table:

    * symmetry under permuting (lam, mu, nu) -- structural in storage,
      rechecked through symmetrized lookups;
    * g(lam, mu, (n)) == delta(lam, mu);
    * g(conjugate lam, conjugate mu, nu) == g(lam, mu, nu);
    * sum_nu dim(nu) g(lam, mu, nu) == dim(lam) dim(mu).
    """
    parts = table.partitions
    count = len(parts)
    idx = partition_index(table.n)
    conj = [idx[conjugate(lam)] for lam in parts]
    dims = [dimension(lam) for lam in parts]
    row_n = idx[(table.n,)] if table.n > 0 else 0
    get = table.entries.get
    for a in range(count):
        for b in range(a, count):
            expected = 1 if a == b else 0
            if get(tuple(sorted((a, b, row_n))), 0) != expected:
                return False
            total = 0
            for c in range(count):
                g = get(tuple(sorted((a, b, c))), 0)
                if g < 0:
                    return False
                if g != get(tuple(sorted((conj[a], conj[b], c))), 0):
                    return False
                total += dims[c] * g
            if total != dims[a] * dims[b]:
                return False
    return True


def kronecker_table(n: int) -> KroneckerTable:
    """Process-wide memoized table; a disk cache may seed it (see memo)."""
    return memo.lookup("kron", n, build_kronecker_table)


@dataclass
class OnDemandKronecker:
    """Class-sum backend with KroneckerTable's coefficient and pair_vector.

    Computes pair vectors lazily instead of building the full g table, so
    the Kronecker audit route reaches sizes where a full table is too big.
    """

    table: CharacterTable
    _pair_cache: dict[tuple[int, int], tuple[int, ...]] = field(
        default_factory=dict, repr=False
    )

    def coefficient(self, lam: Partition, mu: Partition, nu: Partition) -> int:
        return kronecker_coefficient(lam, mu, nu, self.table)

    def pair_vector(self, a: int, b: int) -> tuple[int, ...]:
        key = (a, b) if a <= b else (b, a)
        cached = self._pair_cache.get(key)
        if cached is None:
            values = self.table.values
            cached = self.table.decompose(tuple(map(mul, values[a], values[b])))
            self._pair_cache[key] = cached
        return cached
