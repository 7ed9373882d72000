"""Graded Springer representations via Kostka-Foulkes polynomials.

K(lam, mu)(q) is the charge generating polynomial over semistandard
tableaux of shape lam and content mu.  The degree-i multiplicity of V(lam)
in the Springer fiber of nilpotent type mu is the coefficient of q^i in
q^{n(mu)} K(lam, mu)(1/q); the top degree is n(mu).

Every K(lam, mu) of one n comes from one exact triangular factorisation
(``build_springer_tables``), by Hall-Littlewood orthogonality (Macdonald,
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
table read back from a ``springer-n`` cache file
(``store.table_from_entry``) is calibrated again, and one that fails is
rebuilt.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate
from math import prod
from operator import mul
from pathlib import Path

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
from .store import CacheStore
from .verify import LogConcavityReport, ScanReport, d_matrices, d_row


def build_springer_tables(n: int) -> tuple[GradedMultiplicityTable, ...]:
    """The Springer table of every type of n, in canonical order, from one
    triangular factorisation of the Hall-Littlewood Gram matrix at q = 2^B
    (see the module docstring for the identity, the digit bound and the
    guards).  Row lam of type mu's table is K(lam, mu) from its top degree
    n(mu) down; every zero row of a table is one shared tuple, and each
    table is calibrated."""
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
    tables = []
    for s, mu in enumerate(parts):
        b = [(0,) * (tops[s] + 1)] * len(parts)
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
            # q^{n(mu)} K(1/q) over degrees 0 .. n(mu)
            b[r] = (0,) * (tops[s] + 1 - len(digits)) + tuple(reversed(digits))
        table = GradedMultiplicityTable(n, tuple(b))
        _calibrate(table, mu)
        tables.append(table)
    return tuple(tables)


def _hall_weight(mu: Partition, phi: list[int]) -> int:
    """E_mu = phi_n / prod_i phi_{m_i(mu)} at q, where phi[m] is phi_m at q."""
    return _exact_quotient(phi[sum(mu)], prod(phi[m] for m in Counter(mu).values()), mu)


def _exact_quotient(a: int, b: int, rho: Partition) -> int:
    """a / b, a polynomial quotient for the partition rho taken at q, so exact."""
    quotient, rem = divmod(a, b)
    if rem:
        raise NonExactDivision(f"the quotient for {rho} at q = 2^B is not exact")
    return quotient


# cached for perfbench/traced.py, which reads cache_info() until ROADMAP item 1
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


def verify_springer_log_concavity(mu: Partition) -> LogConcavityReport:
    """d-scan of the Springer table of type mu; vacuous below two interior degrees."""
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


def springer_tables(n: int) -> tuple[GradedMultiplicityTable, ...]:
    """Process-wide memoized tables of every type of n; a disk cache may seed them (see memo)."""
    return memo.lookup("springer", n, build_springer_tables)


def _build_one_n(item: tuple[int, Path | None]) -> tuple[int, list, str | None]:
    """The d violations of every type of n, whose tables are built from one
    Hall-Littlewood solve; given a cache directory, a store on it builds
    them (``CacheStore.build``), writing their ``springer-n`` file, and the
    digest of that file comes back too."""
    n, root = item
    if root is None:
        return n, _violations(n, build_springer_tables(n)), None
    store = CacheStore(root)
    tables = store.build("springer", n)
    return n, _violations(n, tables), store.digests()[f"springer-{n}"]


def _violations(n: int, tables: tuple[GradedMultiplicityTable, ...]) -> list:
    """The d violations of every type of n, the d of all types in one batch."""
    return [LogConcavityReport(n, matrix).violations for matrix in d_matrices(tables)]


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
    are warmed first.  The sizes whose tables a cache ``store`` reads from
    its ``springer-n`` files, or without one the memo holds, are checked in
    this process, so a warm sweep forks nothing.  The other n go to the
    worker pool, largest first: each worker builds the tables of its n from
    one Hall-Littlewood solve, with a store through ``CacheStore.build`` on
    its directory, which writes the file at once, and returns their d
    violations and that file's digest, which ``store`` records.  So a
    sweep that fails keeps the files of the sizes already done.  Either way
    the d of all types of one n is taken in one batch (``d_matrices``).
    """
    check_scan_range(n_max)
    for n in range(2, n_max + 1):
        character_table(n)
    ns = range(1, n_max + 1)
    read = memo.held if store is None else store.read
    held = {n: read("springer", n) for n in ns}
    items = [(n, store and store.root) for n in reversed(ns) if held[n] is None]
    violations = {}
    for n, bad, digest in parallel_map(_build_one_n, items, jobs):
        violations[n] = bad
        if digest is not None:
            store.record("springer", n, digest)
    for n, tables in held.items():
        if tables is not None:
            violations[n] = _violations(n, tables)
    counterexamples = tuple(
        (mu, bad) for n in ns for mu, bad in zip(partitions_of(n), violations[n]) if bad
    )
    return SpringerScanReport(n_max, counterexamples)
