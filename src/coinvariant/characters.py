"""Exact irreducible characters of the symmetric group.

Character rows are computed by the Murnaghan-Nakayama recursion over
border strips (Macdonald, I.7), taken a block of classes at a time with
the cycle type consumed largest part first (``_mn_row``), on beta sets
held as int bit masks: removing a k-strip lowers a set bit b to a free
bit b - k, and its sign is the parity of the set bits between them.
Rows are memoized per shape, on the mask without its trailing one bits
(the zero parts), so the rows of smaller shapes are shared across n.
Full tables and the rows ``character_rows`` picks are one type,
``CharacterTable``, and both come from ``_mn_row``.  The independent
reference the rows are tested against, the same rule one class at a time
on beta-set tuples, is ``audit.character_value``.  Everything is an exact
Python int.

Class sums are batched by packing (Kronecker substitution): the values of
many functions at one class are packed into one integer, digit i of
signed base 2^w holding function i, so one big-integer multiply-add per
(row, class) takes the class sums of all of them.  The digit width w is
bitlen(B) + 2, rounded up to whole bytes (and, below 9 bytes, to 1, 2, 4
or 8 bytes, whose digits ``struct`` converts in one call), for a proven
bound B on every digit: max|chi| * sum_rho max_i |C_rho f_i(rho)| for
decompositions, and n! for row orthogonality, once every row norm is n!
(Cauchy-Schwarz for the positive form sum_rho |C_rho| a_rho b_rho).
Each digit read back is therefore exactly its class sum; every
multiplicity is still divided by n! with a ``NonIntegral`` check, a whole
row's digits at once by one division of its packed sum
(``_exact_digits``), and the build keeps its dimension, twist and
orthogonality guards.  A table read from a file passes its closed-form
columns and the twist first (``check_stored_table``).  Combinations
sum_k c_k chi_k (graded characters) are taken the same way from the rows
packed by class, with bound max|chi| * sum_k |c_k|; a table keeps each
row it has packed, per digit size, so the many Springer tables of one n
pack each row once per size.  A batch packs each distinct class function
once and gives every function its own vector (``_decompose_all``), so no
caller dedupes: the coinvariant d (f_(c-i) = f_i), the Springer sweep's
one batch per n (its functions repeat across types) and the
Kostka-Foulkes Gram matrix all share the rule.
"""

from __future__ import annotations

import struct
from functools import cache, cached_property
from itertools import repeat
from math import factorial
from operator import add, mul, neg, sub
from typing import Collection, Iterable, NamedTuple, Sequence

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
def _parts_at_most(m: int, k: int) -> int:
    """How many partitions of m have no part above k: those end the
    canonical order of m."""
    return sum(1 for rho in partitions_of(m) if not rho or rho[0] <= k)


def _mn_row(lam: Partition) -> tuple[int, ...]:
    """chi_lam at every class of |lam| in canonical order (``_beta_row`` of
    lam's beta set: bit lam_i + l - 1 - i for each of its l parts)."""
    ell = len(lam)
    return _beta_row(sum(1 << (part + ell - 1 - i) for i, part in enumerate(lam)), sum(lam))


@cache
def _beta_row(mask: int, n: int) -> tuple[int, ...]:
    """The row of the shape of |lam| = n whose beta set is the set bits of
    ``mask``, with no zero part: the rule of ``audit._mn`` applied a whole
    block of classes at a time.  The classes whose largest part is k are
    (k, *rest) for the rests of n - k with no part above k, in canonical
    order; those rests end the canonical order of n - k, so the block is a
    sum of tails of the rows of the shapes left by removing a k-strip.
    Removing one lowers a set bit b to a free bit b - k, with sign (-1) to
    the number of set bits between them.  A zero part is a trailing one bit,
    so the smaller shape's mask drops those and every shape has one memo
    entry, shared by every n that reaches it."""
    if not mask & (mask - 1):
        return (1,) * len(partitions_of(n))
    row: list[int] = []
    for k in range(n, 0, -1):
        count = _parts_at_most(n - k, k)
        # bit j of free: j + k is in the beta set and j is not
        free = (mask & ~(mask << k)) >> k
        if not free:
            row += [0] * count
            continue
        block = None
        while free:
            low = free & -free
            free ^= low
            odd = ((mask >> low.bit_length()) & ((1 << (k - 1)) - 1)).bit_count() & 1
            smaller = mask ^ low ^ (low << k)
            # its trailing one bits are zero parts
            smaller >>= ((smaller + 1) & ~smaller).bit_length() - 1
            tail = _beta_row(smaller, n - k)[-count:]
            if block is None:
                block = list(map(neg, tail)) if odd else tail
            else:
                block = list(map(sub if odd else add, block, tail))
        row += block
    return tuple(row)


class CharacterTable:
    """Character rows of S_n: ``values[k]`` is chi of ``shapes[k]`` at
    every class of S_n in canonical order.  ``shapes`` defaults to every
    partition of n in canonical order, the full table.  Rows are looked up
    by shape (``row``, ``value``, ``multiplicity``) and classes by
    canonical position (``index``, ``partitions``), so a row subset
    answers as the full table does at its shapes.
    """

    def __init__(
        self, n: int, values: tuple[tuple[int, ...], ...], shapes: tuple[Partition, ...] | None = None
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "shapes", partitions_of(n) if shapes is None else shapes)

    def __setattr__(self, name, value):
        raise AttributeError("CharacterTable is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CharacterTable) and (self.n, self.values, self.shapes) == (
            other.n, other.values, other.shapes
        )

    @property
    def partitions(self) -> tuple[Partition, ...]:
        return partitions_of(self.n)

    def index(self, rho: Partition) -> int:
        return partition_index(self.n)[rho]

    @cached_property
    def _row_index(self) -> dict[Partition, int]:
        return {lam: k for k, lam in enumerate(self.shapes)}

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self._row_index[lam]]

    def value(self, lam: Partition, rho: Partition) -> int:
        return self.row(lam)[self.index(rho)]

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(class_size(rho) for rho in partitions_of(self.n))

    @cached_property
    def _max_abs_value(self) -> int:
        return max(abs(v) for row in self.values for v in row)

    def decompose(self, values: Sequence[int]) -> tuple[int, ...]:
        """Multiplicities, in the order of ``shapes``, of the irreducibles
        in the class function f with ``values`` per class: (1/n!) sum over
        rho of |C_rho| f(rho) chi(rho); NonIntegral if f is not a virtual
        character."""
        return self._decompose_all([values])[0]

    def multiplicity(self, values: Sequence[int], lam: Partition) -> int:
        """The entry of ``decompose(values)`` at lam, from its one class sum."""
        k = self._row_index[lam]
        weighted = map(mul, self.class_sizes, values)
        return self._exact(sum(map(mul, weighted, self.values[k])), k)

    def _decompose_all(self, functions: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
        """The multiplicities at every row of each class function in
        ``functions``, in input order, each distinct function decomposed
        once: its weighted values |C_rho| f(rho), equal exactly when the
        functions are (every |C_rho| > 0), are kept once, in first-seen
        order, and packed into one class sum per row.  Digit i of row k's
        sum is sum_rho |C_rho| f_i(rho) chi_k(rho), so every digit and every
        packed value is at most max|chi| * sum_rho max_i |C_rho f_i(rho)| in
        size.  ``functions`` may be a generator that drops each f once read."""
        # each distinct function's weighted values, with their position
        weighted: dict[tuple[int, ...], int] = {}
        sizes = self.class_sizes
        at = [weighted.setdefault(tuple(map(mul, sizes, f)), len(weighted)) for f in functions]
        per_class = sum(max(map(abs, column)) for column in zip(*weighted))
        layout = _digit_layout(self._max_abs_value * per_class, len(weighted))
        totals = self._packed_class_sums(weighted, layout)
        # drop the weighted values before the multiplicities are made, so
        # a large batch never holds both
        del weighted
        sums = [self._exact_digits(total, k, layout) for k, total in enumerate(totals)]
        vectors = list(zip(*sums))
        return [vectors[a] for a in at]

    def _exact_digits(self, total: int, k: int, layout: _Layout) -> list[int]:
        """Every digit of the k-th row's packed ``total`` divided by n!,
        exactly, from one division of ``total``: if total = n! q and every
        digit e of q has |n! e| < half, then the digits n! e expand total,
        and that expansion is unique, so they are its digits.  Otherwise
        some digit is not divisible, and ``_exact`` names the row."""
        nfact = factorial(self.n)
        quotient, rem = divmod(total, nfact)
        if not rem:
            digits = _unpack(quotient, layout)
            if max(map(abs, digits), default=0) * nfact < layout.half:
                return digits
        return [self._exact(digit, k) for digit in _unpack(total, layout)]

    def _packed_class_sums(self, weighted: Collection[Sequence[int]], layout: _Layout) -> list[int]:
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
        layout = _digit_layout(self._max_abs_value * max(weight, 1), len(self.class_sizes))
        packed = self._packed_rows.setdefault(layout.size, {})
        for k in {k for support in supports for k, _ in support} - packed.keys():
            packed[k] = _pack(self.values[k], layout)
        return [
            _unpack(sum(c * packed[k] for k, c in support), layout) for support in supports
        ]


def character_rows(n: int, shapes: Iterable[Partition]) -> CharacterTable:
    """The Murnaghan-Nakayama rows of ``shapes`` alone (``_mn_row``), in
    the given order, each checked: its value at the identity class is
    dim V(lam) and its norm sum_rho |C_rho| chi(rho)^2 is n!."""
    shapes = tuple(check_partition(lam, n) for lam in shapes)
    rows = CharacterTable(n, tuple(map(_mn_row, shapes)), shapes)
    _check_dimensions(rows)
    nfact = factorial(n)
    for lam, row in zip(shapes, rows.values):
        if sum(map(mul, rows.class_sizes, map(mul, row, row))) != nfact:
            raise AssertionError(f"row {lam} does not have norm {n}!")
    return rows


def _check_dimensions(table: CharacterTable) -> None:
    # every row is dim V(lam) at the identity class (1^n), last in canonical order
    for lam, row in zip(table.shapes, table.values):
        if row[-1] != dimension(lam):
            raise AssertionError(f"dimension column wrong at {lam}")


class _Layout(NamedTuple):
    """``count`` signed digits of 8 size bits, each of absolute value below
    half = 2^(8 size - 1), packed into one integer; adding ``offset`` =
    sum_i half 2^(8 size i) makes every digit unsigned."""

    size: int
    half: int
    offset: int
    count: int


# struct codes of the unsigned little-endian digit sizes that have one
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _digit_layout(bound: int, count: int) -> _Layout:
    """The layout for ``count`` digits of absolute value at most ``bound``:
    8 size is bitlen(bound) + 2 rounded up to whole bytes, so half > 2 bound,
    and a sum of such digits times 2^(8 size i) has exactly one expansion.
    A size up to 8 is rounded up to 1, 2, 4 or 8, so ``struct`` packs and
    unpacks its digits."""
    size = (bound.bit_length() + 9) // 8
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    half = 1 << (8 * size - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    return _Layout(size, half, offset, count)


def _pack(values: Iterable[int], layout: _Layout) -> int:
    """sum_i values[i] 2^(8 size i), built from bytes in linear time."""
    size, half, offset, count = layout
    if size in _FORMATS:
        data = struct.pack(f"<{count}{_FORMATS[size]}", *map(add, values, repeat(half)))
    else:
        data = b"".join((v + half).to_bytes(size, "little") for v in values)
    return int.from_bytes(data, "little") - offset


def _unpack(total: int, layout: _Layout) -> list[int]:
    """The signed digits of ``total`` (the inverse of ``_pack``)."""
    size, half, offset, count = layout
    data = (total + offset).to_bytes(size * count, "little")
    if size in _FORMATS:
        return [v - half for v in struct.unpack(f"<{count}{_FORMATS[size]}", data)]
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
    _check_dimensions(table)
    _check_twist(table)
    if not verify_orthogonality(table):
        raise AssertionError(f"orthogonality fails for n={table.n}")


def _check_twist(table: CharacterTable) -> None:
    """chi_lam' = sign * chi_lam on a full table; AssertionError otherwise,
    naming the first (lam, rho) in canonical order where it fails."""
    parts = table.partitions
    idx = partition_index(table.n)
    signs = [class_sign(rho) for rho in parts]
    for row, lam in zip(table.values, parts):
        twisted = table.values[idx[conjugate(lam)]]
        if twisted != tuple(map(mul, signs, row)):
            j = next(j for j, s in enumerate(signs) if twisted[j] != s * row[j])
            raise AssertionError(f"conjugation twist fails at ({lam}, {parts[j]})")


def check_stored_table(table: CharacterTable) -> None:
    """The guards a full table read from a file passes before it is used,
    the columns with closed forms and the twist: the identity column is
    dim V(lam) (hooks), the transposition column dim V(lam) * 2 * (sum of
    the contents of lam) / (n(n-1)), whose sign tells lam from lam', and
    chi_lam' = sign * chi_lam, the check the build also runs.
    AssertionError otherwise, naming the first row that fails."""
    n = table.n
    _check_dimensions(table)
    # the transposition class, or at n = 1 any class: both sides are then 0
    at = table.index((2,) + (1,) * (n - 2)) if n > 1 else 0
    for lam, row in zip(table.shapes, table.values):
        contents = sum(part * (part - 1) // 2 - i * part for i, part in enumerate(lam))
        # row[-1] is dim V(lam), checked above
        if row[at] * n * (n - 1) != 2 * row[-1] * contents:
            raise AssertionError(f"transposition column wrong at {lam}")
    _check_twist(table)


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
