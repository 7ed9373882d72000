"""Equivariant log-concavity and unimodality checks.

For a graded multiplicity table (coinvariant ring or a Springer fiber) with
rows m[lam][i] and degree-i graded character chi_i = sum over lam of
m[lam][i] * chi_lam, the log-concavity statistic
d[nu][i] = mult(nu, H^i (x) H^i) - mult(nu, H^(i-1) (x) H^(i+1)) is

    (1/n!) sum over classes rho of |C_rho| * chi_nu(rho)
           * (chi_i(rho)^2 - chi_(i-1)(rho) * chi_(i+1)(rho))

for interior degrees 1 <= i <= top-1: the decomposition of the class
function chi_i^2 - chi_(i-1) chi_(i+1), which divides each class sum by n!
once with an exactness check.  ``d_matrix`` checks every requested degree,
then takes the graded characters chi_j from the character rows packed by
class and decomposes the class functions of all degrees together, with
one packed class sum per irreducible (see ``characters``): the digit
widths follow from proven bounds, so each digit is exactly its class sum.
Negative d values are findings, so reports always carry the full d
table, never just a flag.
``tensor_multiplicity_vector`` (sums over Kronecker coefficients) is the
independent audit route.  The low-degree harness needs no full table:
``low_degree_matrix`` decomposes the same class functions on the only
character rows where d can be nonzero, with a completeness guard that
proves the rest zero (see ``low_degree_harness``).

Degrees outside [0, top] of a graded table contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from operator import mul
from typing import ClassVar, Iterable, Mapping, Sequence

from .characters import character_rows, character_table
from .combinatorics import (
    Partition,
    check_partition,
    dimension,
    format_partition,
    partition_index,
    partitions_of,
)
from .graded import GradedMultiplicityTable, graded_table, poincare_polynomial, top_degree
from .kronecker import KroneckerTable, OnDemandKronecker
# unused here: perfbench/traced.py wraps verify.parallel_map; the import goes
# when the bench reads in-tree spans (ROADMAP item 1)
from .parallel import parallel_map  # noqa: F401
from .polynomials import is_log_concave, is_unimodal, one_minus_q_product, symmetric_about

SCHEMA_VERSION = 1


def tensor_multiplicity_vector(
    table: GradedMultiplicityTable,
    kron: KroneckerTable | OnDemandKronecker,
    i: int,
    j: int,
) -> tuple[int, ...]:
    """Multiplicity of every V(nu) in (degree-i piece) (x) (degree-j piece),
    summed over Kronecker coefficients (the audit route)."""
    acc = [0] * len(table.partitions)
    for a, ma in table.support(i):
        for b, mb in table.support(j):
            weight = ma * mb
            vec = kron.pair_vector(a, b)
            for k, g in enumerate(vec):
                if g:
                    acc[k] += weight * g
    return tuple(acc)


def tensor_pair_multiplicity(n: int, i: int, j: int, nu: Partition) -> int:
    """Multiplicity of V(nu) in H^i (x) H^j of the coinvariant ring."""
    check_partition(nu, n)
    table = graded_table(n)
    chars = character_table(n)
    chi_i, chi_j = chars._combine_rows([table.support(i), table.support(j)])
    return chars.multiplicity(tuple(map(mul, chi_i, chi_j)), nu)


def d_matrix(
    table: GradedMultiplicityTable,
    degrees: Iterable[int] | None = None,
) -> dict[int, tuple[int, ...]]:
    """d vectors over nu, keyed by interior degree i.  Every degree is
    checked before any class sum is taken; then the class functions
    chi_i^2 - chi_(i-1) chi_(i+1) of all degrees are decomposed together,
    in one packed class sum per irreducible."""
    top = table.top_degree
    degrees = range(1, top) if degrees is None else tuple(degrees)
    for i in degrees:
        if not 1 <= i <= top - 1:
            raise ValueError(f"degree {i} outside interior range [1, {top - 1}]")
    chars = character_table(table.n)
    needed = sorted({j for i in degrees for j in (i - 1, i, i + 1)})
    chi = dict(zip(needed, chars._combine_rows([table.support(j) for j in needed])))
    functions = [
        [x * x - lo * hi for x, lo, hi in zip(chi[i], chi[i - 1], chi[i + 1])]
        for i in degrees
    ]
    return dict(zip(degrees, chars._decompose_all(functions)))


def d_vector(n: int, nu: Partition) -> list[int]:
    """d[nu][i] for i = 1 .. c-1 in the coinvariant ring of S_n."""
    row = character_table(n).index(check_partition(nu, n))
    table = graded_table(n)
    matrix = d_matrix(table)
    return [matrix[i][row] for i in range(1, table.top_degree)]


# ---------------------------------------------------------------------------
# Reports


class ScanReport:
    """Shared report shape: a scan fails exactly when one of the fields
    named in ``failures`` is non-empty, and ``payload()`` wraps ``body()``
    between the schema version and the status."""

    failures: ClassVar[tuple[str, ...]] = ()

    @property
    def status(self) -> str:
        return "fail" if any(getattr(self, name) for name in self.failures) else "pass"

    def payload(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **self.body(), "status": self.status}


def d_row(nu: Partition, i: int, d: int) -> dict:
    """One d value as a payload row."""
    return {"nu": format_partition(nu), "i": i, "d": d}


@dataclass(frozen=True)
class LogConcavityReport(ScanReport):
    """Full d table of one scan.

    The report holds only n and ``matrix``, the d vector over nu in
    canonical order for each scanned interior degree; ``degrees``,
    ``entries`` (ordered by nu, then by degree), ``violations`` (exactly
    the d < 0 entries) and ``min_d`` are derived from it.
    """

    n: int
    matrix: Mapping[int, tuple[int, ...]]

    failures = ("violations",)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.matrix))

    @cached_property
    def entries(self) -> tuple[tuple[Partition, int, int], ...]:  # (nu, i, d)
        degrees = self.degrees
        return tuple(
            (nu, i, self.matrix[i][k])
            for k, nu in enumerate(partitions_of(self.n))
            for i in degrees
        )

    @cached_property
    def violations(self) -> tuple[tuple[Partition, int, int], ...]:
        return tuple(e for e in self.entries if e[2] < 0)

    @property
    def min_d(self) -> int | None:
        return min((d for _, _, d in self.entries), default=None)

    def body(self) -> dict:
        return {
            "n": self.n,
            "kind": "flag-lc",
            "entries": [d_row(*entry) for entry in self.entries],
            "violations": [d_row(*entry) for entry in self.violations],
        }


def low_degree_window(m: int, top: int) -> tuple[int, ...]:
    """Interior degrees i of [1, top - 1] with i <= m or i >= top - m."""
    return tuple(i for i in range(1, top) if i <= m or i >= top - m)


def parse_degree_filter(text: str, top: int) -> tuple[int, ...]:
    """Accepts "all", "low:M" (degrees 1..M and co-degrees), or "i1,i2,...".

    Returns interior degrees, sorted and deduplicated; a filter that selects
    none is an error, since the scan would check nothing.
    """
    interior = range(1, top)
    try:
        if text == "all":
            chosen = set(interior)
        elif text.startswith("low:"):
            chosen = set(low_degree_window(int(text[4:]), top))
        else:
            chosen = {int(piece) for piece in text.split(",")}
    except ValueError:
        raise ValueError(f"degree filter {text!r} is not all, low:M or i1,i2,...") from None
    bad = chosen.difference(interior)
    if bad:
        raise ValueError(f"degrees {sorted(bad)} outside interior range [1, {top - 1}]")
    if not chosen:
        raise ValueError(f"degree filter {text!r} selects no interior degree of [1, {top - 1}]")
    return tuple(sorted(chosen))


def check_flag_size(n: int) -> None:
    """ValueError unless n >= 2; checked before any degree filter is read."""
    if n < 2:
        raise ValueError("n must be at least 2")


def verify_flag_log_concavity(
    n: int, degree_filter: Iterable[int] | None = None
) -> LogConcavityReport:
    """Scan d[nu][i] over the coinvariant ring of S_n; pass iff all >= 0."""
    check_flag_size(n)
    return LogConcavityReport(n, d_matrix(graded_table(n), degree_filter))


# ---------------------------------------------------------------------------
# Low-degree / co-degree harness


@dataclass(frozen=True)
class LowDegreeReport(ScanReport):
    """d checks at degrees m and co-degrees c-m, m <= max_m, for every
    n <= n_max; ``violations`` (d < 0) and ``mirror_mismatches`` (each
    (n, nu, m) whose d differs from d[nu][c-m]) are derived from ``entries``."""

    n_max: int
    max_m: int
    entries: tuple[tuple[int, Partition, int, int], ...]  # (n, nu, i, d)

    failures = ("violations", "mirror_mismatches")

    @cached_property
    def violations(self) -> tuple[tuple[int, Partition, int, int], ...]:
        return tuple(e for e in self.entries if e[3] < 0)

    @cached_property
    def mirror_mismatches(self) -> tuple[tuple[int, Partition, int], ...]:  # (n, nu, m)
        d = {(n, nu, i): value for n, nu, i, value in self.entries}
        return tuple(
            (n, nu, m)
            for n, nu, m, value in self.entries
            if m <= self.max_m and value != d[n, nu, top_degree(n) - m]
        )

    def body(self) -> dict:
        return {
            "n": self.n_max,
            "kind": "low-degree",
            "entries": [{"n": n, **d_row(nu, i, d)} for n, nu, i, d in self.entries],
            "violations": [
                {"n": n, **d_row(nu, i, d)} for n, nu, i, d in self.violations
            ],
            "mirror_mismatches": [
                {"n": n, "nu": format_partition(nu), "m": m}
                for n, nu, m in self.mirror_mismatches
            ],
        }


def check_harness_range(n_max: int) -> None:
    """ValueError unless the harness can scan every n up to n_max."""
    if n_max < 4:
        raise ValueError("n_max must be at least 4")


def low_degree_shapes(n: int, max_m: int) -> tuple[Partition, ...]:
    """The nu of S_n with n - nu_1 <= 2 max_m, in canonical order: the only
    rows where d can be nonzero at degrees and co-degrees m <= max_m."""
    return tuple(nu for nu in partitions_of(n) if n - nu[0] <= 2 * max_m)


def _truncated_quotient(coeffs: Sequence[int], parts: Partition, length: int) -> list[int]:
    """The first ``length`` coefficients of the power series
    coeffs / prod over parts p of (1 - q^p)."""
    out = list(coeffs[:length])
    for p in parts:
        for j in range(p, length):
            out[j] += out[j - p]
    return out


def _graded_characters(n: int, max_m: int) -> dict[int, tuple[int, ...]]:
    """chi_j at every class rho of S_n, in canonical order, for the degrees
    j <= max_m + 1 and j >= c - max_m - 1: the q^j coefficients of
    N(q) / prod_j (1 - q^{rho_j}), N = prod_{k<=n} (1 - q^k), of degree c.
    The low ones are that quotient as a power series truncated after
    q^(max_m + 1).  The top ones are the truncated series of the reversed
    quotient, N's top coefficients over prod_j (q^{rho_j} - 1), not the
    sign twist of the low ones, so the harness's mirror check compares two
    computations."""
    c = top_degree(n)
    length = min(max_m + 2, c + 1)
    numerator = one_minus_q_product(n).coeffs
    reversed_numerator = numerator[::-1]
    low, top = [], []
    for rho in partitions_of(n):
        low.append(_truncated_quotient(numerator, rho, length))
        sign = -1 if len(rho) % 2 else 1
        top.append([sign * v for v in _truncated_quotient(reversed_numerator, rho, length)])
    chi = {c - k: column for k, column in enumerate(zip(*top))}
    chi.update(enumerate(zip(*low)))
    return chi


def low_degree_matrix(n: int, max_m: int) -> dict[int, tuple[int, ...]]:
    """d vectors over every nu of S_n at the degrees of
    ``low_degree_window(max_m, c)``, computed on the rows of
    ``low_degree_shapes`` alone and 0 elsewhere; see ``low_degree_harness``
    for the bound and the guards checked on the way."""
    c = top_degree(n)
    degrees = low_degree_window(max_m, c)
    chi = _graded_characters(n, max_m)
    betti = poincare_polynomial(n).coeffs
    for j, values in chi.items():
        # the identity class (1^n) comes last in canonical order
        if values[-1] != betti[j]:
            raise AssertionError(f"chi_{j} at the identity is not the Betti number b_{j} of n={n}")
    rows = character_rows(n, low_degree_shapes(n, max_m))
    functions = [
        [x * x - lo * hi for x, lo, hi in zip(chi[i], chi[i - 1], chi[i + 1])]
        for i in degrees
    ]
    matrix = dict(zip(degrees, rows._decompose_all(functions)))
    nfact = factorial(n)
    for i, f in zip(degrees, functions):
        norm = sum(map(mul, rows.class_sizes, map(mul, f, f)))
        if nfact * sum(d * d for d in matrix[i]) != norm:
            raise AssertionError(
                f"completeness fails at n={n}, degree {i}: some nu outside the rows has d != 0"
            )
    index = partition_index(n)
    padded = {}
    for i, d in matrix.items():
        row = [0] * len(index)
        for nu, value in zip(rows.shapes, d):
            row[index[nu]] = value
        padded[i] = tuple(row)
    return padded


def low_degree_harness(n_max: int, max_m: int = 3) -> LowDegreeReport:
    """d >= 0 at degrees m in 1..max_m and co-degrees, for all n up to n_max.

    Stability makes n <= 4m sufficient for degree m at every n; the scan
    still runs all n <= n_max as direct evidence, in this process: the
    whole scan is too little work for a worker pool to pay for itself.
    It builds no character or graded table and reads or writes no table
    file: per n it computes only the graded characters chi_j with j within
    max_m + 1 of either end and the character rows d can be nonzero on.

    The rows: n(lam) >= n - lam_1, so a constituent V(lam) of H^i, whose
    least major index is n(lam), has n - lam_1 <= i.  A constituent nu of
    V(a) (x) V(b) has n - nu_1 <= (n - a_1) + (n - b_1).  So d[nu][m], a
    difference of multiplicities in H^m (x) H^m and H^(m-1) (x) H^(m+1),
    is 0 unless n - nu_1 <= 2m.  Co-degrees need no other rows: H^(c-i)
    is the sign twist of H^i, and the two sign twists in each tensor
    product cancel.

    The guards, checked on every run (``low_degree_matrix``): every row
    has norm n! and its identity-class value is dim V(nu); every chi_j is
    the Betti number b_j at the identity class; every class sum clears n!
    (``NonIntegral`` names its partition); and completeness: for each
    class function f = chi_m^2 - chi_(m-1) chi_(m+1), the sum of d^2 over
    the computed rows equals <f, f> = (1/n!) sum_rho |C_rho| f(rho)^2
    exactly.  By Parseval <f, f> is the sum of d^2 over every nu, so
    every omitted d is 0: the row bound is checked, not assumed.

    Co-degree values are computed directly, not mirrored, so the report's
    check of the duality d[nu][m] == d[nu][c-m] compares two computations.
    """
    check_harness_range(n_max)
    entries = []
    for n in range(2, n_max + 1):
        for i, row in low_degree_matrix(n, max_m).items():
            entries.extend((n, nu, i, d) for nu, d in zip(partitions_of(n), row))
    return LowDegreeReport(n_max, max_m, tuple(entries))


# ---------------------------------------------------------------------------
# Unimodality of the d sequences


@dataclass(frozen=True)
class UnimodalityReport(ScanReport):
    """Per-nu d sequences over interior degrees with symmetry/unimodality flags.

    Symmetry (about the midpoint of [1, c-1]) is a theorem and must hold;
    unimodality is conjectural, so failures are findings, not errors.  The
    report holds only n and ``sequences``; both failure tuples are derived.
    """

    n: int
    sequences: tuple[tuple[Partition, tuple[int, ...]], ...]

    failures = ("symmetric_failures", "unimodal_failures")

    @property
    def symmetric_failures(self) -> tuple[Partition, ...]:
        # interior degrees run 1..c-1, so the symmetry center is at offset c-2
        center = top_degree(self.n) - 2
        return tuple(nu for nu, seq in self.sequences if not symmetric_about(seq, center))

    @property
    def unimodal_failures(self) -> tuple[Partition, ...]:
        return tuple(nu for nu, seq in self.sequences if not is_unimodal(seq))

    def body(self) -> dict:
        return {
            "n": self.n,
            "kind": "unimodal",
            "entries": [
                d_row(nu, i + 1, d) for nu, seq in self.sequences for i, d in enumerate(seq)
            ],
            "violations": [
                {"nu": format_partition(nu), "reason": "not-symmetric"}
                for nu in self.symmetric_failures
            ]
            + [
                {"nu": format_partition(nu), "reason": "not-unimodal"}
                for nu in self.unimodal_failures
            ],
        }


def check_unimodality_size(n: int) -> None:
    """ValueError unless S_n has d sequences worth checking."""
    if n < 3:
        raise ValueError("n must be at least 3")


def verify_d_unimodality(n: int) -> UnimodalityReport:
    check_unimodality_size(n)
    matrix = d_matrix(graded_table(n))
    return UnimodalityReport(n, tuple(zip(partitions_of(n), zip(*matrix.values()))))


def betti_log_concavity(n: int) -> bool:
    """Numeric log-concavity of the graded dimensions, cross-checked against
    the dimension-weighted d identity:
    sum_nu dim(nu) d[nu][i] == b_i^2 - b_{i-1} b_{i+1}."""
    betti = poincare_polynomial(n).coeffs
    if not is_log_concave(betti):
        return False
    if n < 2:
        return True
    table = graded_table(n)
    dims = [dimension(nu) for nu in table.partitions]
    matrix = d_matrix(table)
    c = table.top_degree
    padded = list(betti) + [0] * (c + 1 - len(betti))
    for i in range(1, c):
        weighted = sum(d * v for d, v in zip(dims, matrix[i]))
        if weighted != padded[i] ** 2 - padded[i - 1] * padded[i + 1]:
            return False
    return True
