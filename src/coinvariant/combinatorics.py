"""Partitions, Young tableaux, and word statistics.

Everything operates on plain immutable tuples: a partition is a weakly
decreasing tuple of positive integers, a tableau a tuple of row tuples.
All operations are pure and every enumeration order is deterministic, so
streams may be consumed from concurrent tasks without coordination.

Canonical partition order is descending lexicographic starting from ``(n,)``.
That order is the global indexing contract for every table and report in
this package.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from math import factorial
from typing import Iterator

from .errors import NonIntegral

Partition = tuple[int, ...]
Tableau = tuple[tuple[int, ...], ...]


def is_partition(parts: tuple[int, ...]) -> bool:
    """True if ``parts`` is weakly decreasing with strictly positive entries."""
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts: tuple[int, ...], n: int | None = None) -> Partition:
    """``parts`` itself if it is a partition, of ``n`` when given;
    ValueError otherwise."""
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts!r}")
    if n is not None and sum(parts) != n:
        name = format_partition(parts) if parts else "the empty partition"
        raise ValueError(f"{name} is not a partition of {n}")
    return parts


def parse_partition(text: str) -> Partition:
    """Parse the canonical text form ``"4,1,1,1"``; empty string is ()."""
    if text == "":
        return ()
    try:
        parts = tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise ValueError(f"bad partition text: {text!r}") from None
    return check_partition(parts)


def format_partition(parts: Partition) -> str:
    """Canonical text form: comma-separated parts, no whitespace."""
    return ",".join(str(p) for p in parts)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` in descending lexicographic order from (n,)."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, largest: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(gen(n, n))


@cache
def partition_index(n: int) -> dict[Partition, int]:
    """Position of each partition of ``n`` in the canonical order."""
    return {lam: k for k, lam in enumerate(partitions_of(n))}


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram; an involution."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_lengths(lam: Partition) -> tuple[int, ...]:
    """Hook length of every cell, in row-major order (arm + leg + 1)."""
    conj = conjugate(check_partition(lam))
    return tuple(
        lam[r] - c + conj[c] - r - 1
        for r in range(len(lam))
        for c in range(lam[r])
    )


@cache
def hook_product(lam: Partition) -> int:
    """The product of the hook lengths of ``lam``, memoized per shape."""
    prod = 1
    for h in hook_lengths(lam):
        prod *= h
    return prod


def dimension(lam: Partition) -> int:
    """Number of standard tableaux of shape ``lam`` (hook length formula),
    n! over the memoized hook product, checked exact on every call."""
    n = sum(lam)
    dim, rem = divmod(factorial(n), hook_product(lam))
    if rem:
        raise NonIntegral(f"hook product of {format_partition(lam)} does not divide {n}!")
    return dim


def centralizer_size(rho: Partition) -> int:
    """z_rho = prod(i^m_i * m_i!) over part multiplicities m_i."""
    z = 1
    for part, mult in Counter(rho).items():
        z *= part**mult * factorial(mult)
    return z


def class_size(rho: Partition) -> int:
    n = sum(rho)
    size, rem = divmod(factorial(n), centralizer_size(rho))
    if rem:
        raise NonIntegral(f"centralizer size of {format_partition(rho)} does not divide {n}!")
    return size


def class_sign(rho: Partition) -> int:
    """Sign of any permutation of cycle type ``rho``: (-1)^(n - length)."""
    return -1 if (sum(rho) - len(rho)) % 2 else 1


def n_stat(lam: Partition) -> int:
    """The statistic Sum_i (i-1)*lam_i over 1-based rows."""
    return sum(i * part for i, part in enumerate(lam))


def top_degree(n: int) -> int:
    return n * (n - 1) // 2


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: partial sums of ``lam`` weakly exceed those of ``mu``.

    Both must partition the same number for the order to be meaningful.
    """
    total_l = 0
    total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l < total_m:
            return False
    return True


# ---------------------------------------------------------------------------
# Young tableaux


def enumerate_ssyt(shape: Partition, content: Partition) -> Iterator[Tableau]:
    """All semistandard tableaux of ``shape`` and ``content``: rows weakly
    increase, columns strictly increase and letter k occurs content[k-1]
    times, so the count is the Kostka number.  The stream is sorted as
    tuples of rows, top row first (``reading_word`` starts from the bottom).

    The word 1^content[0] 2^content[1] ... is placed one cell at a time; the
    copies of one letter form a horizontal strip over the row lengths
    ``start`` that the letter began from, placed in weakly lower rows.
    """
    n = sum(check_partition(shape))
    check_partition(content, n)
    word = [letter for letter, size in enumerate(content, 1) for _ in range(size)]
    rows = len(shape)
    filled = [0] * rows
    tab: list[list[int]] = [[] for _ in range(rows)]
    found: list[Tableau] = []

    def place(k: int, low: int, start: tuple[int, ...]) -> None:
        if k == n:
            found.append(tuple(tuple(row) for row in tab))
            return
        if k == 0 or word[k - 1] != word[k]:
            low, start = 0, tuple(filled)
        for r in range(low, rows):
            c = filled[r]
            if c < shape[r] and (r == 0 or start[r - 1] > c):
                filled[r] += 1
                tab[r].append(word[k])
                place(k + 1, r, start)
                filled[r] -= 1
                tab[r].pop()

    place(0, 0, ())
    yield from sorted(found)


def enumerate_syt(shape: Partition) -> Iterator[Tableau]:
    """All standard tableaux of ``shape``: the semistandard tableaux of
    content (1^n), entries 1..n.  The count is n!/hook_product(shape)."""
    yield from enumerate_ssyt(shape, (1,) * sum(check_partition(shape)))


def major_index(tableau: Tableau) -> int:
    """Sum of entries j such that j+1 sits in a strictly lower row than j."""
    row_of: dict[int, int] = {}
    for r, row in enumerate(tableau):
        for entry in row:
            row_of[entry] = r
    n = len(row_of)
    return sum(j for j in range(1, n) if row_of[j + 1] > row_of[j])


def kostka_number(shape: Partition, content: Partition) -> int:
    return sum(1 for _ in enumerate_ssyt(shape, content))


def reading_word(tableau: Tableau) -> tuple[int, ...]:
    """Rows read left-to-right, bottom row first."""
    word: list[int] = []
    for row in reversed(tableau):
        word.extend(row)
    return tuple(word)


def charge(word: tuple[int, ...]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content.

    Standard subwords are extracted by scanning right-to-left cyclically,
    always picking the smallest letter still needed; within a subword
    index(1) = 0 and index(r+1) = index(r) + 1 exactly when r+1 sits
    strictly to the right of r in the original word.  Charge is the total
    of all indices over all extracted subwords.
    """
    counts = Counter(word)
    letters = sorted(counts)
    if letters and (letters[0] < 1 or letters != list(range(1, len(letters) + 1))):
        raise ValueError(f"word letters must be 1..m with no gaps: {word!r}")
    for r in range(1, len(letters)):
        if counts[r] < counts[r + 1]:
            raise ValueError(f"content of {word!r} is not a partition")

    positions = list(range(len(word)))
    total = 0
    while positions:
        top = max(word[p] for p in positions)
        cursor = len(positions) - 1
        marked: list[int] = []  # slot in `positions` of letter r, r = 1..top
        for target in range(1, top + 1):
            scan = cursor
            while word[positions[scan]] != target:
                scan = scan - 1 if scan > 0 else len(positions) - 1
            marked.append(scan)
            cursor = scan - 1 if scan > 0 else len(positions) - 1
        index = 0
        prev_pos = positions[marked[0]]
        for slot in marked[1:]:
            pos = positions[slot]
            if pos > prev_pos:
                index += 1
            total += index
            prev_pos = pos
        for slot in sorted(marked, reverse=True):
            del positions[slot]
    return total
