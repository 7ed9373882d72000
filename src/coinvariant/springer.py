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

from dataclasses import dataclass
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
from .verify import (
    LogConcavityReport,
    ScanReport,
    d_matrix,
    d_row,
    report_from_d_matrix,
)

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
    table = GradedMultiplicityTable.from_rows(n, rows)
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


def coinvariant_calibration_matches(n: int) -> bool:
    """Type (1^n) Springer table equals the coinvariant-ring table."""
    return springer_graded_table((1,) * n).b == graded_table(n).b


def verify_springer_log_concavity(mu: Partition) -> LogConcavityReport:
    """d-scan of the Springer table of type mu; vacuous pass below two
    interior degrees."""
    table = springer_graded_table(mu)
    matrix = d_matrix(table) if table.top_degree >= 2 else {}
    return report_from_d_matrix(table.n, table.partitions, matrix)


@dataclass(frozen=True)
class SpringerScanReport(ScanReport):
    """Counterexample sweep over all nilpotent types up to n_max."""

    n_min: int
    n_max: int
    counterexamples: tuple[tuple[Partition, tuple[tuple[Partition, int, int], ...]], ...]

    failures = ("counterexamples",)

    def types(self) -> list[Partition]:
        return [mu for mu, _ in self.counterexamples]

    def body(self) -> dict:
        return {
            "n_range": [self.n_min, self.n_max],
            "counterexamples": [
                {
                    "n": sum(mu),
                    "mu": format_partition(mu),
                    "witnesses": [d_row(*witness) for witness in witnesses],
                }
                for mu, witnesses in self.counterexamples
            ],
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
