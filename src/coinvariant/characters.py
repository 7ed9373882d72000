"""Exact irreducible characters of the symmetric group.

Character rows are computed by the Murnaghan-Nakayama recursion over
border strips, memoized per shape and taken a block of classes at a time
with the cycle type consumed largest part first (``_mn_row``): full
tables and the rows ``character_rows`` picks both come from it.  A single
value ``character_value`` takes the same rule one class at a time
(``_mn``), the independent reference the rows are tested against.
Everything is an exact Python int.

Class sums are batched by packing (Kronecker substitution): the values of
many functions at one class are packed into one integer, digit i of
signed base 2^w holding function i, so one big-integer multiply-add per
(row, class) takes the class sums of all of them.  The digit width w is
bitlen(B) + 2, rounded up to whole bytes, for a proven bound B on every
digit: max|chi| * sum_rho max_i |C_rho f_i(rho)| for decompositions, and
n! for row orthogonality, once every row norm is n! (Cauchy-Schwarz for
the positive form sum_rho |C_rho| a_rho b_rho).  Each digit read back is
therefore exactly its class sum; every multiplicity is still divided by
n! with a ``NonIntegral`` check, and the build keeps its dimension,
twist and orthogonality guards.  Combinations sum_k c_k chi_k (graded
characters) are taken the same way from the rows packed by class, with
bound max|chi| * sum_k |c_k|; a table keeps each row it has packed, per
digit size, so the many Springer tables of one n pack each row once per
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import factorial
from operator import mul
from typing import Iterable, NamedTuple, Sequence

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


@cache
def _parts_at_most(m: int, k: int) -> int:
    """How many partitions of m have no part above k: those end the
    canonical order of m."""
    return sum(1 for rho in partitions_of(m) if not rho or rho[0] <= k)


@cache
def _mn_row(lam: Partition) -> tuple[int, ...]:
    """chi_lam at every class of |lam| in canonical order: the rule of
    ``_mn`` applied a whole block of classes at a time.  The classes
    whose largest part is k are (k, *rest) for the rests of |lam| - k with
    no part above k, in canonical order; those rests end the canonical
    order of |lam| - k, so the block is a sum of tails of the rows of the
    shapes left by removing a k-strip from lam."""
    n = sum(lam)
    if len(lam) <= 1:
        return (1,) * len(partitions_of(n))
    row: list[int] = []
    for k in range(n, 0, -1):
        count = _parts_at_most(n - k, k)
        block = [0] * count
        for sign, smaller in _border_strip_removals(lam, k):
            tail = _mn_row(smaller)[-count:]
            block = [b + sign * v for b, v in zip(block, tail)]
        row += block
    return tuple(row)


def character_value(lam: Partition, rho: Partition) -> int:
    """chi_lam(rho) for partitions of the same n."""
    check_partition(rho, sum(check_partition(lam)))
    return _mn(lam, rho)


class _PackedClassSums:
    """The packed class sums over rows ``values[k]``, chi of ``shapes[k]``
    at every class of S_n in canonical order: a ``CharacterTable`` holds
    every row, a ``CharacterRows`` some of them."""

    n: int
    values: tuple[tuple[int, ...], ...]
    shapes: tuple[Partition, ...]

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(class_size(rho) for rho in partitions_of(self.n))

    @cached_property
    def _max_abs_value(self) -> int:
        return max(abs(v) for row in self.values for v in row)

    def _decompose_all(self, functions: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """The multiplicities at every row of every class function in
        ``functions``, from one packed class sum per row: digit i of row
        k's sum is sum_rho |C_rho| f_i(rho) chi_k(rho), so every digit and
        every packed value is at most max|chi| * sum_rho max_i |C_rho f_i(rho)|
        in size."""
        weighted = [tuple(map(mul, self.class_sizes, f)) for f in functions]
        per_class = sum(max(map(abs, column)) for column in zip(*weighted))
        layout = _digit_layout(self._max_abs_value * per_class, len(functions))
        sums = [
            tuple(self._exact(digit, k) for digit in _unpack(total, layout))
            for k, total in enumerate(self._packed_class_sums(weighted, layout))
        ]
        return list(zip(*sums))

    def _packed_class_sums(self, weighted: Sequence[Sequence[int]], layout: _Layout) -> list[int]:
        """For every row k, sum_rho chi_k(rho) P_rho, where P_rho packs
        weighted[i][rho] into digit i: one big-integer multiply-add per
        (row, class) does the class sums of every i at once."""
        packed = [_pack(column, layout) for column in zip(*weighted)]
        return [sum(map(mul, row, packed)) for row in self.values]

    def _exact(self, total: int, k: int) -> int:
        """total / n!, the class sum of the k-th row, exactly."""
        mult, rem = divmod(total, factorial(self.n))
        if rem:
            raise NonIntegral(f"class sum for {self.shapes[k]} is not divisible by {self.n}!")
        return mult


@dataclass(frozen=True)
class CharacterRows(_PackedClassSums):
    """The rows of chi_lam for lam in ``shapes`` (partitions of n, in any
    order): ``values[k]`` is chi of ``shapes[k]`` at every class."""

    n: int
    shapes: tuple[Partition, ...]
    values: tuple[tuple[int, ...], ...]


def character_rows(n: int, shapes: Iterable[Partition]) -> CharacterRows:
    """The Murnaghan-Nakayama rows of ``shapes`` alone (``_mn_row``), each
    checked: its value at the identity class is dim V(lam) and its norm
    sum_rho |C_rho| chi(rho)^2 is n!."""
    shapes = tuple(check_partition(lam, n) for lam in shapes)
    rows = CharacterRows(n, shapes, tuple(map(_mn_row, shapes)))
    nfact = factorial(n)
    for lam, row in zip(shapes, rows.values):
        # the identity class (1^n) comes last in canonical order
        if row[-1] != dimension(lam):
            raise AssertionError(f"dimension column wrong at {lam}")
        if sum(map(mul, rows.class_sizes, map(mul, row, row))) != nfact:
            raise AssertionError(f"row {lam} does not have norm {n}!")
    return rows


@dataclass(frozen=True)
class CharacterTable(_PackedClassSums):
    """Full character table of S_n in canonical partition order.

    ``values[i][j]`` is chi of the i-th partition (irreducible) at the j-th
    partition (conjugacy class).  The table holds only n and ``values``;
    ``partitions`` (also its ``shapes``) and ``class_sizes`` are derived
    from n.
    """

    n: int
    values: tuple[tuple[int, ...], ...]

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    shapes = partitions

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
        return self._decompose_all([values])[0]

    def multiplicity(self, values: Sequence[int], lam: Partition) -> int:
        """The entry of ``decompose(values)`` at lam, from its one class sum."""
        k = self.index(lam)
        weighted = map(mul, self.class_sizes, values)
        return self._exact(sum(map(mul, weighted, self.values[k])), k)

    @cached_property
    def _packed_rows(self) -> dict[int, dict[int, int]]:
        """Per digit size, the rows ``_combine_rows`` has packed by class so
        far, by row index; a row's packing depends only on the size, since
        every layout here has one digit per class."""
        return {}

    def _combine_rows(self, supports: Sequence[Sequence[tuple[int, int]]]) -> list[list[int]]:
        """For each sparse list of (row index k, c_k), the class function
        sum_k c_k chi_k, as one multiply-add per pair on the rows packed by
        class; every value is at most max|chi| * sum_k |c_k| in size."""
        weight = max((sum(abs(c) for _, c in support) for support in supports), default=0)
        layout = _digit_layout(self._max_abs_value * max(weight, 1), len(self.values))
        packed = self._packed_rows.setdefault(layout.size, {})
        for k in {k for support in supports for k, _ in support} - packed.keys():
            packed[k] = _pack(self.values[k], layout)
        return [
            _unpack(sum(c * packed[k] for k, c in support), layout) for support in supports
        ]


class _Layout(NamedTuple):
    """``count`` signed digits of 8 size bits, each of absolute value below
    half = 2^(8 size - 1), packed into one integer; adding ``offset`` =
    sum_i half 2^(8 size i) makes every digit unsigned."""

    size: int
    half: int
    offset: int
    count: int


def _digit_layout(bound: int, count: int) -> _Layout:
    """The layout for ``count`` digits of absolute value at most ``bound``:
    8 size is bitlen(bound) + 2 rounded up to whole bytes, so half > 2 bound,
    and a sum of such digits times 2^(8 size i) has exactly one expansion."""
    size = (bound.bit_length() + 9) // 8
    half = 1 << (8 * size - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    return _Layout(size, half, offset, count)


def _pack(values: Iterable[int], layout: _Layout) -> int:
    """sum_i values[i] 2^(8 size i), built from bytes in linear time."""
    size, half, offset, _ = layout
    data = b"".join((v + half).to_bytes(size, "little") for v in values)
    return int.from_bytes(data, "little") - offset


def _unpack(total: int, layout: _Layout) -> list[int]:
    """The signed digits of ``total`` (the inverse of ``_pack``)."""
    size, half, offset, count = layout
    data = (total + offset).to_bytes(size * count, "little")
    return [
        int.from_bytes(data[at : at + size], "little") - half
        for at in range(0, len(data), size)
    ]


def build_character_table(n: int) -> CharacterTable:
    """Compute, validate, and return the character table of S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    parts = partitions_of(n)
    table = CharacterTable(n, tuple(map(_mn_row, parts)))
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
    inverse of X and X^T X = n! D^-1 = diag(z_rho) (Macdonald, I.7).

    Every row norm is checked against n! first.  The form sum_rho |C_rho|
    a_rho b_rho is positive definite, so by Cauchy-Schwarz every sum, and
    every weighted value |C_rho| chi(rho), then has absolute value at most
    n!; in that digit layout, row k passes exactly when its packed class
    sum over all rows is n! shifted to digit k.
    """
    nfact = factorial(table.n)
    weighted = [tuple(map(mul, table.class_sizes, row)) for row in table.values]
    if any(sum(map(mul, w, row)) != nfact for w, row in zip(weighted, table.values)):
        return False
    layout = _digit_layout(nfact, len(weighted))
    totals = table._packed_class_sums(weighted, layout)
    return all(total == nfact << (8 * layout.size * k) for k, total in enumerate(totals))


def character_table(n: int) -> CharacterTable:
    """Process-wide memoized table; a disk cache may seed it (see memo)."""
    return memo.lookup("char", n, build_character_table)
