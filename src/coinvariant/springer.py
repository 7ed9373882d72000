"""Graded Springer representations via Kostka-Foulkes polynomials.

K(lam, mu)(q) is the charge generating polynomial over semistandard
tableaux of shape lam and content mu.  The degree-i multiplicity of V(lam)
in the Springer fiber of nilpotent type mu is the coefficient of q^i in
q^{n(mu)} K(lam, mu)(1/q); the top degree is n(mu).

Every K(lam, mu) of one n comes from one exact triangular factorisation
(``kostka_foulkes_table``), by Hall-Littlewood orthogonality (Macdonald,
*Symmetric Functions and Hall Polynomials*, III.2 and III.4; the identity
behind the Lusztig-Shoji algorithm).  With phi_m(q) = prod_{j<=m} (1 - q^j),
the graded multiplicity of V(lam) (x) V(nu) in the coinvariant ring,

    P(lam, nu) = (1/n!) sum_rho |C_rho| chi_lam(rho) chi_nu(rho)
                 phi_n(q) / prod_j (1 - q^{rho_j}),

equals sum_mu K(lam, mu) E_mu K(nu, mu) with E_mu = phi_n / prod_i
phi_{m_i(mu)}, and K is unitriangular in dominance.  Everything is taken
at q = 2^B, one Python int per polynomial, and the columns are solved from
the bottom of dominance (canonical order reversed):
K(lam, mu) E_mu = P(lam, mu) - sum over solved kappa of
K(lam, kappa) E_kappa K(mu, kappa), for every lam at or before mu in
canonical order (no later lam dominates mu).  The coefficients of
K(lam, mu) are >= 0 and sum to the Kostka number, which is at most
f^lam = dim V(lam); so with B = bitlen(max_lam f^lam) + 1 every
coefficient is one base-2^B digit below 2^(B-1), read back exactly, and
the spare bit makes a negative coefficient show as a digit above f^lam.

The guards: every n! class sum is exact (``NonIntegral``), every division
by E_mu is exact (``NonExactDivision`` naming (lam, mu)), every diagonal
K(mu, mu) E_mu comes out to exactly E_mu (AssertionError naming mu), and
every K(lam, mu) is 0 unless lam dominates mu, has degree at most
n(mu) - n(lam), and has digits summing to at most f^lam (AssertionError
naming (lam, mu)).  Tests and ``selftest`` audit this route against the
definition, ``kostka_foulkes_poly_by_charge``; ``kostka_foulkes_poly``
reads one pair from the memoized Springer tables it gives.

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
from functools import cache
from itertools import accumulate
from math import prod
from operator import mul

from . import memo
from .characters import character_table
from .combinatorics import (
    Partition,
    charge,
    check_partition,
    dimension,
    dominates,
    enumerate_ssyt,
    format_partition,
    n_stat,
    partition_index,
    partitions_of,
    reading_word,
)
from .errors import NonExactDivision
from .graded import GradedMultiplicityTable, graded_table
from .parallel import parallel_map
from .polynomials import ONE, IntPoly
from .verify import LogConcavityReport, ScanReport, d_matrices, d_row


def kostka_foulkes_table(n: int) -> tuple[tuple[IntPoly, ...], ...]:
    """K(lam, mu)(q) for every pair of partitions of n, at [r][s] for the
    r-th lam and the s-th mu in canonical order, from one triangular
    factorisation of the Hall-Littlewood Gram matrix at q = 2^B (see the
    module docstring for the identity, the digit bound and the guards)."""
    parts = partitions_of(n)
    dims = [dimension(lam) for lam in parts]
    tops = [n_stat(lam) for lam in parts]
    bits = max(dims).bit_length() + 1
    q = 1 << bits
    phi = list(accumulate((1 - q**j for j in range(1, n + 1)), mul, initial=1))
    chars = character_table(n)
    # the graded character phi_n / prod_j (1 - q^{rho_j}) at every class
    graded = [_exact_quotient(phi[n], prod(1 - q**p for p in rho), rho) for rho in parts]
    gram = chars._decompose_all([list(map(mul, row, graded)) for row in chars.values])
    weights = [_hall_weight(mu, phi) for mu in parts]
    # columns[t]: (r, K(parts[r], parts[t]) at q) for each nonzero entry of
    # a solved column, r increasing; rows[r]: the same entries by row
    columns: list[list[tuple[int, int]]] = [[] for _ in parts]
    rows: list[dict[int, int]] = [{} for _ in parts]
    for s in reversed(range(len(parts))):
        mu, weight = parts[s], weights[s]
        residuals = list(gram[s][: s + 1])
        for t, k in rows[s].items():
            w = weights[t] * k
            for r, value in columns[t]:
                if r > s:
                    break
                residuals[r] -= value * w
        for r, residual in enumerate(residuals):
            value, rem = divmod(residual, weight)
            if rem:
                raise NonExactDivision(f"E_mu does not divide K({parts[r]}, {mu}) E_mu exactly")
            if value:
                columns[s].append((r, value))
                rows[r][s] = value
        if rows[s].get(s) != 1:
            raise AssertionError(f"diagonal of mu={mu} is not E_mu")
    mask = q - 1
    table = [[IntPoly()] * len(parts) for _ in parts]
    for s, mu in enumerate(parts):
        for r, value in columns[s]:
            lam, digits = parts[r], []
            while value > 0:
                digits.append(value & mask)
                value >>= bits
            if value or not dominates(lam, mu) or (
                len(digits) > tops[s] - tops[r] + 1 or sum(digits) > dims[r]
            ):
                raise AssertionError(
                    f"K({lam}, {mu}) breaks the degree bound n(mu) - n(lam) "
                    "or the digit bound f^lam"
                )
            table[r][s] = IntPoly(digits)
    return tuple(map(tuple, table))


def _hall_weight(mu: Partition, phi: list[int]) -> int:
    """E_mu = phi_n / prod_i phi_{m_i(mu)} at q, where phi[m] is phi_m at q."""
    return _exact_quotient(phi[sum(mu)], prod(phi[m] for m in Counter(mu).values()), mu)


def _exact_quotient(a: int, b: int, rho: Partition) -> int:
    """a / b, a polynomial quotient for the partition rho taken at q, so exact."""
    quotient, rem = divmod(a, b)
    if rem:
        raise NonExactDivision(f"the quotient for {rho} at q = 2^B is not exact")
    return quotient


# cached for perfbench/traced.py, which reads cache_info() until ROADMAP item 1b
@cache
def kostka_foulkes_poly(lam: Partition, mu: Partition) -> IntPoly:
    """K(lam, mu)(q): row lam of the memoized Springer table of type mu,
    read from its top degree n(mu) down; zero unless lam dominates mu."""
    check_partition(mu, sum(check_partition(lam)))
    if not mu:
        return ONE
    return IntPoly(reversed(springer_graded_table(mu).row(lam)))


def kostka_foulkes_poly_by_charge(lam: Partition, mu: Partition) -> IntPoly:
    """Audit route: charge generating polynomial over SSYT(lam, mu)."""
    check_partition(mu, sum(check_partition(lam)))
    if not dominates(lam, mu):
        return IntPoly()
    coeffs = [0] * (n_stat(mu) - n_stat(lam) + 1)
    for tableau in enumerate_ssyt(lam, mu):
        coeffs[charge(reading_word(tableau))] += 1
    return IntPoly(coeffs)


def springer_graded_table(mu: Partition) -> GradedMultiplicityTable:
    """Degree-reversed Kostka-Foulkes multiplicities for nilpotent type mu;
    the top degree is n(mu).  Taken from ``springer_tables`` of |mu|."""
    n = sum(check_partition(mu))
    return springer_tables(n)[partition_index(n)[mu]]


def build_springer_tables(n: int) -> tuple[GradedMultiplicityTable, ...]:
    """The Springer table of every type of n, in canonical order, from
    ``kostka_foulkes_table(n)``, each table calibrated."""
    tables = []
    for mu, column in zip(partitions_of(n), zip(*kostka_foulkes_table(n))):
        # q^{n(mu)} K(1/q) over degrees 0 .. n(mu); deg K <= n(mu) is checked
        top = n_stat(mu)
        rows = tuple((0,) * (top + 1 - len(poly.coeffs)) + poly.coeffs[::-1] for poly in column)
        table = GradedMultiplicityTable(n, rows)
        _calibrate(table, mu)
        tables.append(table)
    return tuple(tables)


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
    """Process-wide memoized tables of every type of n; a disk cache may seed them (see memo)."""
    return memo.lookup("springer", n, build_springer_tables)


def _build_one_n(item: tuple[int, bool]) -> tuple[int, list, list[str] | None]:
    """The d violations of every type of n, whose tables are built from one
    Kostka-Foulkes table; with each table's ``table_entry`` as compact JSON
    when ``encode`` asks for it, which the parent holds for every built n in
    far less memory than the lists it encodes."""
    n, encode = item
    tables = build_springer_tables(n)
    return n, _violations(n, tables), _encoded_all(n, tables) if encode else None


def _violations(n: int, tables: tuple[GradedMultiplicityTable, ...]) -> list:
    """The d violations of every type of n, the d of all types in one batch."""
    return [LogConcavityReport(n, matrix).violations for matrix in d_matrices(tables)]


def _encoded_all(n: int, tables: tuple[GradedMultiplicityTable, ...]) -> list[str]:
    """The ``table_entry`` of every type of n as compact JSON."""
    return [
        json.dumps(table_entry(mu, table), separators=(",", ":"))
        for mu, table in zip(partitions_of(n), tables)
    ]


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
    n_max >= 3 is scanned; the command line caps it.  The character tables
    are warmed first, and with a cache ``store`` every ``springer-n`` file
    it holds is read into the memo.  Every n whose tables the memo then
    holds is checked in this process, so a warm sweep forks nothing.  The
    other n go to the worker pool, largest first: each forked worker builds
    the tables of its n from one Kostka-Foulkes table and returns their d
    violations and, with a store, their entries encoded for disk.  Either
    way the d of all types of one n is taken in one batch (``d_matrices``).
    Then one ``springer-n`` file is written per n whose file the store
    lacked.  Without a store nothing is read or written.
    """
    check_scan_range(n_max)
    for n in range(2, n_max + 1):
        character_table(n)
    ns = range(1, n_max + 1)
    missing = set() if store is None else {n for n in ns if store.read("springer", n) is None}
    held = {n: memo.held("springer", n) for n in ns}
    items = [(n, n in missing) for n in reversed(ns) if held[n] is None]
    violations = {}
    entries = {}
    for n, bad, encoded in parallel_map(_build_one_n, items, jobs):
        violations[n] = bad
        if encoded is not None:
            entries[n] = encoded
    for n, tables in held.items():
        if tables is not None:
            violations[n] = _violations(n, tables)
            if n in missing:
                entries[n] = _encoded_all(n, tables)
    for n in ns:
        if n in entries:
            store.write("springer", n, {"tables": entries[n]})
    counterexamples = tuple(
        (mu, bad) for n in ns for mu, bad in zip(partitions_of(n), violations[n]) if bad
    )
    return SpringerScanReport(n_max, counterexamples)
