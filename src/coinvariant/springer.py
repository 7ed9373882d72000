"""Graded Springer representations via Kostka-Foulkes polynomials.

K(lam, mu)(q) is defined as the charge generating polynomial over
semistandard tableaux of shape lam and content mu, and computed by the
Kirillov-Reshetikhin fermionic (rigged-configuration) formula, which
enumerates no tableaux; the charge route ``kostka_foulkes_poly_by_charge``
is the audit that tests and ``selftest`` compare it with.  The degree-i
multiplicity of V(lam) in the Springer fiber of nilpotent type mu is the
coefficient of q^i in q^{n(mu)} K(lam, mu)(1/q); the top degree is n(mu).

Three calibration constraints pin this grading convention: the type (n)
table must be the trivial representation, the type (1^n) table must equal
the coinvariant-ring table, and K(lam, mu)(0) must be delta(lam, mu).  If
any ever fails the build stops; conventions are never auto-flipped.  A
table read back from a ``springer-n`` cache file (``table_from_entry``)
is calibrated again, and one that fails is rebuilt.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache, reduce
from itertools import accumulate, zip_longest

from . import memo
from .characters import character_table
from .combinatorics import (
    Partition,
    charge,
    check_partition,
    conjugate,
    dominates,
    enumerate_ssyt,
    format_partition,
    n_stat,
    partition_index,
    partitions_of,
    reading_word,
)
from .graded import GradedMultiplicityTable, graded_table
from .parallel import parallel_map
from .polynomials import ONE, IntPoly, monomial, q_binomial
from .verify import LogConcavityReport, ScanReport, d_matrices, d_row


@cache
def kostka_foulkes_poly(lam: Partition, mu: Partition) -> IntPoly:
    """K(lam, mu)(q) by the fermionic formula, summed over configurations
    nu^(k) of lam_{k+1} + lam_{k+2} + ... for k >= 1 with nu^(0) = mu (see
    ``_tail``); zero unless lam dominates mu."""
    check_partition(mu, sum(check_partition(lam)))
    if not dominates(lam, mu):
        return IntPoly()
    sizes = tuple(sum(lam[k:]) for k in range(1, len(lam))) + (0,)
    return sum((_tail(sizes[1:], mu, b) for b in partitions_of(sizes[0])), IntPoly())


def kostka_foulkes_poly_by_charge(lam: Partition, mu: Partition) -> IntPoly:
    """Audit route: charge generating polynomial over SSYT(lam, mu)."""
    check_partition(mu, sum(check_partition(lam)))
    if not dominates(lam, mu):
        return IntPoly()
    coeffs = [0] * (n_stat(mu) - n_stat(lam) + 1)
    for tableau in enumerate_ssyt(lam, mu):
        coeffs[charge(reading_word(tableau))] += 1
    return IntPoly(coeffs)


@cache
def _shape(rho: Partition) -> tuple[Partition, tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Columns, Q_p = sum_j min(p, rho_j) for p <= rho_1, and (part, count) pairs."""
    columns = conjugate(rho)
    return columns, tuple(accumulate(columns, initial=0)), tuple(Counter(rho).items())


@cache
def _tail(sizes: tuple[int, ...], a: Partition, b: Partition) -> IntPoly:
    """Sum over the levels below nu^(k) = b given nu^(k-1) = a; ``sizes``
    are |nu^(k+1)|, |nu^(k+2)|, ..., ending with the first empty level.

    Level k contributes q^binom(alpha_j(a) - alpha_j(b), 2) for every
    column j of the wider of a and b, with binom(x, 2) = x(x-1)/2 (so
    binom(-1, 2) = 1), and [P + m choose m]_q for each part p of b of
    multiplicity m, where the vacancy P = Q_p(a) - 2 Q_p(b) + Q_p(c) must
    be >= 0 and c = nu^(k+1).
    """
    cols_a, sums_a, _ = _shape(a)
    cols_b, sums_b, parts_b = _shape(b)
    step = sum((x - y) * (x - y - 1) // 2 for x, y in zip_longest(cols_a, cols_b, fillvalue=0))
    if not b:
        return monomial(step)
    # each vacancy but its Q_p(c) term, which is all that depends on c
    base = [(sums_a[min(p, len(sums_a) - 1)] - 2 * sums_b[p], p, m) for p, m in parts_b]
    total = IntPoly()
    for c in partitions_of(sizes[0]):
        sums_c = _shape(c)[1]
        last = len(sums_c) - 1
        binomials = []
        for partial, p, m in base:
            vacancy = partial + sums_c[p if p < last else last]
            if vacancy < 0:
                break
            binomials.append((vacancy + m, m))
        else:
            below = _tail(sizes[1:], b, c)
            if below:
                total = total + _binomial_product(tuple(binomials)) * below
    return monomial(step) * total


@cache
def _binomial_product(binomials: tuple[tuple[int, int], ...]) -> IntPoly:
    return reduce(IntPoly.__mul__, (q_binomial(n, k) for n, k in binomials), ONE)


def springer_graded_table(mu: Partition) -> GradedMultiplicityTable:
    """Degree-reversed Kostka-Foulkes multiplicities for nilpotent type mu;
    the top degree is n(mu)."""
    n = sum(mu)
    top = n_stat(mu)
    rows = []
    for lam in partitions_of(n):
        poly = kostka_foulkes_poly(lam, mu)
        if poly.is_zero:
            rows.append((0,) * (top + 1))
        else:
            rows.append(poly.mirror(top).padded(top + 1))
    table = GradedMultiplicityTable(n, tuple(rows))
    _calibrate(table, mu)
    return table


def _calibrate(table: GradedMultiplicityTable, mu: Partition) -> None:
    idx = partition_index(table.n)
    if mu == (table.n,):
        trivial = idx[(table.n,)]
        for r, row in enumerate(table.b):
            expected = (1,) if r == trivial else (0,)
            if row != expected:
                raise AssertionError("type (n) table is not the trivial rep")
    if mu == (1,) * table.n and table.b != graded_table(table.n).b:
        raise AssertionError(
            "type (1^n) table does not match the coinvariant ring; "
            "grading convention is broken"
        )
    # K(lam, mu)(0) = delta: exactly one multiplicity in the top degree,
    # namely V(mu) itself
    top_support = table.support(table.top_degree)
    if top_support != ((idx[mu], 1),):
        raise AssertionError(
            f"grading calibration fails for mu={mu}: "
            f"top degree support {top_support}"
        )


def verify_springer_log_concavity(
    mu: Partition, table: GradedMultiplicityTable | None = None
) -> LogConcavityReport:
    """d-scan of the Springer table of type mu (``table`` when given, else
    built); vacuous pass below two interior degrees."""
    if table is None:
        table = springer_graded_table(mu)
    return LogConcavityReport(table.n, d_matrices([table])[0])


class SpringerScanReport(ScanReport):
    """Counterexample sweep over all nilpotent types up to n_max."""

    failures = ("counterexamples",)

    def __init__(
        self,
        n_max: int,
        counterexamples: tuple[tuple[Partition, tuple[tuple[Partition, int, int], ...]], ...],
    ):
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "counterexamples", counterexamples)

    def types(self) -> list[Partition]:
        return [mu for mu, _ in self.counterexamples]

    def body(self, entries: list) -> dict:
        # no entry rows: ``entries`` is always empty
        return {
            "n_range": [1, self.n_max],
            "counterexamples": [
                {
                    "n": sum(mu),
                    "mu": format_partition(mu),
                    "witnesses": [d_row(*witness) for witness in witnesses],
                }
                for mu, witnesses in self.counterexamples
            ],
        }


def table_entry(mu: Partition, table: GradedMultiplicityTable) -> dict:
    """The ``springer-n`` file entry of type mu: the type, the top degree
    and each row as flat (degree, multiplicity) pairs of its nonzero
    entries, degrees increasing."""
    return {
        "mu": format_partition(mu),
        "top": table.top_degree,
        "rows": [[x for i, m in enumerate(row) if m for x in (i, m)] for row in table.b],
    }


def table_from_entry(mu: Partition, entry: dict) -> GradedMultiplicityTable:
    """The table of ``table_entry(mu, table)``, calibrated again.  ValueError
    unless the entry names mu, its top is n(mu), and it has p(n) rows of
    even length whose degrees increase within [0, top] with positive int
    multiplicities; AssertionError if the table fails calibration."""
    n, top, rows = sum(mu), entry["top"], entry["rows"]
    if entry["mu"] != format_partition(mu) or type(top) is not int or top != n_stat(mu):
        raise ValueError(f"entry is not the type {format_partition(mu)} with top n(mu)")
    if len(rows) != len(partitions_of(n)) or any(len(row) % 2 for row in rows):
        raise ValueError("rows are not p(n) lists of (degree, multiplicity) pairs")
    dense = []
    for row in rows:
        values = [0] * (top + 1)
        last = -1
        for i, m in zip(row[::2], row[1::2]):
            if type(i) is not int or type(m) is not int or not last < i <= top or m < 1:
                raise ValueError("a pair is not an increasing degree in [0, top] and a positive int")
            values[i] = m
            last = i
        dense.append(tuple(values))
    table = GradedMultiplicityTable(n, tuple(dense))
    _calibrate(table, mu)
    return table


def springer_tables(n: int) -> tuple[GradedMultiplicityTable, ...]:
    """The Springer table of every type of n, in canonical order."""
    return tuple(springer_graded_table(mu) for mu in partitions_of(n))


def _build_one_type(item: tuple[Partition, bool]) -> tuple[Partition, tuple, str | None]:
    """The d violations of type mu, whose table is built by Kostka-Foulkes;
    with the table's ``table_entry`` as compact JSON when ``encode`` asks
    for it, which the parent holds for every built type in far less memory
    than the lists it encodes."""
    mu, encode = item
    table = springer_graded_table(mu)
    violations = verify_springer_log_concavity(mu, table).violations
    return mu, violations, _encoded(mu, table) if encode else None


def _encoded(mu: Partition, table: GradedMultiplicityTable) -> str:
    return json.dumps(table_entry(mu, table), separators=(",", ":"))


def check_scan_range(n_max: int) -> None:
    """ValueError unless [1, n_max] is a range the search can scan."""
    if n_max < 3:
        raise ValueError(
            f"n range [1, {n_max}] has no type with an interior degree; "
            "n_max must be at least 3"
        )


def springer_counterexample_search(n_max: int, jobs: int = 1, store=None) -> SpringerScanReport:
    """All types mu with |mu| <= n_max whose Springer representation fails
    equivariant log-concavity, grouped by n in canonical order.  Any
    n_max >= 3 is scanned; the cost grows about 4x per step in n, and the
    command line caps it.  The character tables are warmed first, and with
    a cache ``store`` every ``springer-n`` file it holds is read into the
    memo.  Every type of an n whose tables the memo then holds is checked
    in this process, the d of all types of that n in one batch
    (``d_matrices``), so a warm sweep forks nothing.  Only the types of
    the other n go to the worker pool: each forked worker builds a table
    by Kostka-Foulkes and returns its d violations and, with a store, its
    entry encoded for disk.  Then one ``springer-n`` file is written per n
    whose file the store lacked.  Without a store nothing is read or
    written.
    """
    check_scan_range(n_max)
    for n in range(2, n_max + 1):
        character_table(n)
    ns = range(1, n_max + 1)
    missing = set() if store is None else {n for n in ns if store.read("springer", n) is None}
    held = {n: memo.held("springer", n) for n in ns}
    items = [(mu, n in missing) for n in ns if held[n] is None for mu in partitions_of(n)]
    violations = {}
    entries = {n: [] for n in ns}
    for mu, bad, entry in parallel_map(_build_one_type, items, jobs):
        violations[mu] = bad
        if entry is not None:
            entries[sum(mu)].append(entry)
    for n, tables in held.items():
        if tables is None:
            continue
        for mu, table, matrix in zip(partitions_of(n), tables, d_matrices(tables)):
            violations[mu] = LogConcavityReport(n, matrix).violations
            if n in missing:
                entries[n].append(_encoded(mu, table))
    for n in ns:
        if entries[n]:
            store.write("springer", n, {"tables": entries[n]})
    counterexamples = tuple(
        (mu, violations[mu]) for n in ns for mu in partitions_of(n) if violations[mu]
    )
    return SpringerScanReport(n_max, counterexamples)
