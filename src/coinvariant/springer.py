"""Graded Springer representations via Kostka-Foulkes polynomials.

K(lam, mu)(q) is the charge generating polynomial over semistandard
tableaux of shape lam and content mu.  The degree-i multiplicity of V(lam)
in the Springer fiber of nilpotent type mu is the coefficient of q^i in
the reversed polynomial q^{n(mu)} K(lam, mu)(1/q); the top degree is n(mu).

Two calibration constraints pin this grading convention: the type (1^n)
table must equal the coinvariant-ring table, and K(lam, mu)(0) must be
delta(lam, mu).  If either ever fails the build stops; conventions are
never auto-flipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .characters import character_table
from .combinatorics import (
    Partition,
    charge,
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
from .polynomials import IntPoly
from .verify import SCHEMA_VERSION, LogConcavityReport, d_matrix, report_from_d_matrix

DEFAULT_MAX_N = 10


@cache
def kostka_foulkes_poly(lam: Partition, mu: Partition) -> IntPoly:
    """Charge generating polynomial over SSYT(lam, mu); zero unless lam
    dominates mu."""
    if sum(lam) != sum(mu):
        raise ValueError("shape and content must have equal size")
    if not dominates(lam, mu):
        return IntPoly()
    coeffs = [0] * (n_stat(mu) - n_stat(lam) + 1)
    for tableau in enumerate_ssyt(lam, mu):
        coeffs[charge(reading_word(tableau))] += 1
    return IntPoly(coeffs)


@dataclass(frozen=True)
class SpringerGradedTable:
    """m[lam][i] = multiplicity of V(lam) in the degree-i piece for type mu."""

    mu: Partition
    n: int
    partitions: tuple[Partition, ...]
    m: tuple[tuple[int, ...], ...]
    supports: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def top_degree(self) -> int:
        return n_stat(self.mu)

    def index(self, lam: Partition) -> int:
        return partition_index(self.n)[lam]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.m[self.index(lam)]

    def multiplicity(self, lam: Partition, i: int) -> int:
        if not 0 <= i <= self.top_degree:
            return 0
        return self.m[self.index(lam)][i]

    def support(self, i: int) -> tuple[tuple[int, int], ...]:
        if not 0 <= i < len(self.supports):
            return ()
        return self.supports[i]


def springer_graded_table(mu: Partition) -> SpringerGradedTable:
    """Degree-reversed Kostka-Foulkes multiplicities for nilpotent type mu."""
    n = sum(mu)
    top = n_stat(mu)
    parts = partitions_of(n)
    rows = []
    for lam in parts:
        poly = kostka_foulkes_poly(lam, mu)
        if poly.is_zero:
            rows.append((0,) * (top + 1))
        else:
            rows.append(poly.mirror(top).padded(top + 1))
    rows = tuple(rows)
    supports = tuple(
        tuple((r, row[i]) for r, row in enumerate(rows) if row[i])
        for i in range(top + 1)
    )
    table = SpringerGradedTable(
        mu=mu, n=n, partitions=parts, m=rows, supports=supports
    )
    _calibrate(table)
    return table


def _calibrate(table: SpringerGradedTable) -> None:
    idx = partition_index(table.n)
    if table.mu == (table.n,):
        trivial = idx[(table.n,)]
        for r, row in enumerate(table.m):
            expected = (1,) if r == trivial else (0,)
            if row != expected:
                raise AssertionError("type (n) table is not the trivial rep")
    if table.mu == (1,) * table.n and table.m != graded_table(table.n).b:
        raise AssertionError(
            "type (1^n) table does not match the coinvariant ring; "
            "grading convention is broken"
        )
    # K(lam, mu)(0) = delta: exactly one multiplicity in the top degree,
    # namely V(mu) itself
    top_support = table.support(table.top_degree)
    if top_support != ((idx[table.mu], 1),):
        raise AssertionError(
            f"grading calibration fails for mu={table.mu}: "
            f"top degree support {top_support}"
        )


def coinvariant_calibration_matches(n: int) -> bool:
    """Type (1^n) Springer table equals the coinvariant-ring table."""
    springer = springer_graded_table((1,) * n)
    coinv: GradedMultiplicityTable = graded_table(n)
    return springer.m == coinv.b


def verify_springer_log_concavity(mu: Partition) -> LogConcavityReport:
    """d-scan of the Springer table of type mu; vacuous pass below two
    interior degrees."""
    n = sum(mu)
    table = springer_graded_table(mu)
    if table.top_degree < 2:
        return LogConcavityReport(
            n=n, degrees=(), entries=(), violations=(), min_d=None
        )
    return report_from_d_matrix(n, table.partitions, d_matrix(table))


@dataclass(frozen=True)
class SpringerScanReport:
    """Counterexample sweep over all nilpotent types up to n_max."""

    n_min: int
    n_max: int
    counterexamples: tuple[tuple[Partition, tuple[tuple[Partition, int, int], ...]], ...]
    provenance: dict = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        return "pass" if not self.counterexamples else "fail"

    def types(self) -> list[Partition]:
        return [mu for mu, _ in self.counterexamples]

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_range": [self.n_min, self.n_max],
            "counterexamples": [
                {
                    "n": sum(mu),
                    "mu": format_partition(mu),
                    "witnesses": [
                        {"nu": format_partition(nu), "i": i, "d": d}
                        for nu, i, d in witnesses
                    ],
                }
                for mu, witnesses in self.counterexamples
            ],
            "status": self.status,
        }


def _scan_one_type(mu: Partition) -> tuple[Partition, tuple]:
    report = verify_springer_log_concavity(mu)
    return mu, report.violations


def springer_counterexample_search(
    n_max: int, n_min: int = 1, jobs: int = 1, max_n: int = DEFAULT_MAX_N
) -> SpringerScanReport:
    """All types mu with n_min <= |mu| <= n_max whose Springer representation
    fails equivariant log-concavity, grouped by n in canonical order."""
    if n_max > max_n:
        raise ValueError(
            f"n_max {n_max} above cap {max_n}; raise the cap explicitly to go higher"
        )
    if n_max < max(n_min, 3):
        raise ValueError(
            f"n range [{n_min}, {n_max}] has no type with an interior degree; "
            "n_max must be at least 3"
        )
    counterexamples = []
    for n in range(n_min, n_max + 1):
        if n >= 2:
            character_table(n)  # warm before forking workers
        results = parallel_map(_scan_one_type, list(partitions_of(n)), jobs)
        for mu, violations in results:
            if violations:
                counterexamples.append((mu, violations))
    return SpringerScanReport(
        n_min=n_min, n_max=n_max, counterexamples=tuple(counterexamples)
    )
