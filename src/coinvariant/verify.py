"""Equivariant log-concavity and unimodality checks.

For a graded multiplicity table (coinvariant ring or a Springer fiber) with
rows m[lam][i], the degree-(i,j) tensor multiplicities are

    t(i, j)[nu] = sum over lam, mu of m[lam][i] * m[mu][j] * g(lam, mu, nu)

and the log-concavity statistic is d[nu][i] = t(i,i)[nu] - t(i-1,i+1)[nu]
for interior degrees 1 <= i <= top-1.  Negative d values are findings, so
reports always carry the full d table, never just a flag.

Any object with ``partitions``, ``top_degree`` and ``support(i)`` works as
the graded table here; degrees outside [0, top] contribute zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from .combinatorics import Partition, dimension, format_partition
from .graded import graded_table, poincare_polynomial
from .kronecker import kronecker_table, ondemand_kronecker
from .parallel import parallel_map
from .polynomials import is_log_concave, is_unimodal, symmetric_about

SCHEMA_VERSION = 1


class GradedTableLike(Protocol):
    partitions: tuple[Partition, ...]

    @property
    def top_degree(self) -> int: ...

    def support(self, i: int) -> tuple[tuple[int, int], ...]: ...


class KroneckerLike(Protocol):
    partitions: tuple[Partition, ...]

    def index(self, lam: Partition) -> int: ...

    def pair_vector(self, a: int, b: int) -> tuple[int, ...]: ...


def tensor_multiplicity_vector(
    table: GradedTableLike, kron: KroneckerLike, i: int, j: int
) -> tuple[int, ...]:
    """Multiplicity of every V(nu) in (degree-i piece) (x) (degree-j piece)."""
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
    table = graded_table(n)
    kron = ondemand_kronecker(n)
    vec = tensor_multiplicity_vector(table, kron, i, j)
    return vec[kron.index(nu)]


def d_matrix(
    table: GradedTableLike,
    kron: KroneckerLike,
    degrees: Sequence[int] | None = None,
) -> dict[int, tuple[int, ...]]:
    """d vectors over nu, keyed by interior degree i."""
    top = table.top_degree
    if degrees is None:
        degrees = range(1, top)
    cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def tensor(i: int, j: int) -> tuple[int, ...]:
        key = (i, j) if i <= j else (j, i)
        if key not in cache:
            cache[key] = tensor_multiplicity_vector(table, kron, *key)
        return cache[key]

    result: dict[int, tuple[int, ...]] = {}
    for i in degrees:
        if not 1 <= i <= top - 1:
            raise ValueError(f"degree {i} outside interior range [1, {top - 1}]")
        square = tensor(i, i)
        cross = tensor(i - 1, i + 1)
        result[i] = tuple(s - x for s, x in zip(square, cross))
    return result


def d_vector(n: int, nu: Partition) -> list[int]:
    """d[nu][i] for i = 1 .. c-1 in the coinvariant ring of S_n."""
    if sum(nu) != n:
        raise ValueError(f"{nu} is not a partition of {n}")
    table = graded_table(n)
    kron = ondemand_kronecker(n)
    k = kron.index(nu)
    c = table.top_degree
    matrix = d_matrix(table, kron)
    return [matrix[i][k] for i in range(1, c)]


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class LogConcavityReport:
    """Full d table of one scan; violations are exactly the d < 0 entries."""

    n: int
    degrees: tuple[int, ...]
    entries: tuple[tuple[Partition, int, int], ...]  # (nu, i, d)
    violations: tuple[tuple[Partition, int, int], ...]
    min_d: int | None
    provenance: dict = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"

    def payload(self, kind: str = "flag-lc") -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "kind": kind,
            "entries": [
                {"nu": format_partition(nu), "i": i, "d": d}
                for nu, i, d in self.entries
            ],
            "violations": [
                {"nu": format_partition(nu), "i": i, "d": d}
                for nu, i, d in self.violations
            ],
            "status": self.status,
        }


def report_from_d_matrix(
    n: int,
    partitions: tuple[Partition, ...],
    matrix: Mapping[int, tuple[int, ...]],
) -> LogConcavityReport:
    degrees = tuple(sorted(matrix))
    entries = tuple(
        (nu, i, matrix[i][k])
        for k, nu in enumerate(partitions)
        for i in degrees
    )
    violations = tuple(e for e in entries if e[2] < 0)
    return LogConcavityReport(
        n=n,
        degrees=degrees,
        entries=entries,
        violations=violations,
        min_d=min((e[2] for e in entries), default=None),
    )


def parse_degree_filter(text: str, top: int) -> tuple[int, ...]:
    """Accepts "all", "low:M" (degrees 1..M and co-degrees), or "i1,i2,...".

    Returns interior degrees, sorted and deduplicated; a filter that selects
    none is an error, since the scan would check nothing.
    """
    interior = range(1, top)
    if text == "all":
        chosen = set(interior)
    elif text.startswith("low:"):
        m = int(text[4:])
        chosen = {i for i in interior if i <= m or i >= top - m}
    else:
        chosen = {int(piece) for piece in text.split(",")}
        bad = chosen.difference(interior)
        if bad:
            raise ValueError(f"degrees {sorted(bad)} outside interior range [1, {top - 1}]")
    if not chosen:
        raise ValueError(f"degree filter {text!r} selects no interior degree of [1, {top - 1}]")
    return tuple(sorted(chosen))


def verify_flag_log_concavity(
    n: int,
    degree_filter: Iterable[int] | None = None,
    jobs: int = 1,
) -> LogConcavityReport:
    """Scan d[nu][i] over the coinvariant ring of S_n; pass iff all >= 0."""
    if n < 2:
        raise ValueError("n must be at least 2")
    table = graded_table(n)
    degrees = (
        tuple(range(1, table.top_degree))
        if degree_filter is None
        else tuple(sorted(set(degree_filter)))
    )
    # full sweeps amortize the bulk g table; restricted filters only touch a
    # few supports, where per-pair class sums are far cheaper
    full_sweep = degrees == tuple(range(1, table.top_degree))
    kron = kronecker_table(n) if full_sweep else ondemand_kronecker(n)
    chunks = parallel_map(
        _d_matrix_chunk,
        [(table, kron, piece) for piece in _split(degrees, jobs)],
        jobs,
    )
    matrix: dict[int, tuple[int, ...]] = {}
    for chunk in chunks:
        matrix.update(chunk)
    return report_from_d_matrix(n, table.partitions, matrix)


def _d_matrix_chunk(args) -> dict[int, tuple[int, ...]]:
    table, kron, degrees = args
    return d_matrix(table, kron, degrees)


def _split(items: Sequence, jobs: int) -> list[Sequence]:
    if jobs <= 1 or len(items) <= 1:
        return [items]
    size = max(1, -(-len(items) // jobs))
    return [items[k : k + size] for k in range(0, len(items), size)]


# ---------------------------------------------------------------------------
# Low-degree / co-degree harness


@dataclass(frozen=True)
class LowDegreeReport:
    """d checks at degrees m and co-degrees c-m, m <= 3, for every n <= n_max."""

    n_max: int
    entries: tuple[tuple[int, Partition, int, int], ...]  # (n, nu, i, d)
    violations: tuple[tuple[int, Partition, int, int], ...]
    mirror_mismatches: tuple[tuple[int, Partition, int], ...]  # (n, nu, m)
    provenance: dict = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        return "pass" if not (self.violations or self.mirror_mismatches) else "fail"

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n_max,
            "kind": "low-degree",
            "entries": [
                {"n": n, "nu": format_partition(nu), "i": i, "d": d}
                for n, nu, i, d in self.entries
            ],
            "violations": [
                {"n": n, "nu": format_partition(nu), "i": i, "d": d}
                for n, nu, i, d in self.violations
            ],
            "mirror_mismatches": [
                {"n": n, "nu": format_partition(nu), "m": m}
                for n, nu, m in self.mirror_mismatches
            ],
            "status": self.status,
        }


def _low_degree_one_n(args) -> tuple:
    n, max_m = args
    table = graded_table(n)
    kron = ondemand_kronecker(n)
    c = table.top_degree
    degrees = sorted(
        {m for m in range(1, max_m + 1) if m <= c - 1}
        | {c - m for m in range(1, max_m + 1) if c - m >= 1}
    )
    matrix = d_matrix(table, kron, degrees)
    entries = []
    mismatches = []
    for i in degrees:
        for k, nu in enumerate(table.partitions):
            entries.append((n, nu, i, matrix[i][k]))
    for m in range(1, max_m + 1):
        if 1 <= m <= c - 1 and 1 <= c - m <= c - 1:
            # co-degree values are rechecked directly, then compared with
            # the duality prediction d[nu][m] == d[nu][c-m]
            for k, nu in enumerate(table.partitions):
                if matrix[m][k] != matrix[c - m][k]:
                    mismatches.append((n, nu, m))
    return entries, mismatches


def low_degree_harness(n_max: int, max_m: int = 3, jobs: int = 1) -> LowDegreeReport:
    """d >= 0 at degrees m in 1..max_m and co-degrees, for all n up to n_max.

    Stability makes n <= 4m sufficient for degree m at every n; the scan
    still runs all n <= n_max as direct evidence.
    """
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    results = parallel_map(
        _low_degree_one_n, [(n, max_m) for n in range(2, n_max + 1)], jobs
    )
    entries = []
    mismatches = []
    for chunk_entries, chunk_mismatches in results:
        entries.extend(chunk_entries)
        mismatches.extend(chunk_mismatches)
    violations = tuple(e for e in entries if e[3] < 0)
    return LowDegreeReport(
        n_max=n_max,
        entries=tuple(entries),
        violations=violations,
        mirror_mismatches=tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Unimodality of the d sequences


@dataclass(frozen=True)
class UnimodalityReport:
    """Per-nu d sequences over interior degrees with symmetry/unimodality flags.

    Symmetry (about the midpoint of [1, c-1]) is a theorem and must hold;
    unimodality is conjectural, so failures are findings, not errors.
    """

    n: int
    sequences: tuple[tuple[Partition, tuple[int, ...]], ...]
    symmetric_failures: tuple[Partition, ...]
    unimodal_failures: tuple[Partition, ...]
    provenance: dict = field(default_factory=dict, compare=False)

    @property
    def status(self) -> str:
        return (
            "pass"
            if not (self.symmetric_failures or self.unimodal_failures)
            else "fail"
        )

    def payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n": self.n,
            "kind": "unimodal",
            "entries": [
                {"nu": format_partition(nu), "i": i + 1, "d": d}
                for nu, seq in self.sequences
                for i, d in enumerate(seq)
            ],
            "violations": [
                {"nu": format_partition(nu), "reason": "not-symmetric"}
                for nu in self.symmetric_failures
            ]
            + [
                {"nu": format_partition(nu), "reason": "not-unimodal"}
                for nu in self.unimodal_failures
            ],
            "status": self.status,
        }


def verify_d_unimodality(n: int, jobs: int = 1) -> UnimodalityReport:
    if n < 3:
        raise ValueError("n must be at least 3")
    report = verify_flag_log_concavity(n, jobs=jobs)
    table = graded_table(n)
    c = table.top_degree
    by_nu: dict[Partition, list[int]] = {nu: [] for nu in table.partitions}
    for nu, i, d in report.entries:
        by_nu[nu].append(d)
    sequences = tuple((nu, tuple(by_nu[nu])) for nu in table.partitions)
    # interior degrees run 1..c-1, so the symmetry center is at offset c-2
    symmetric_failures = tuple(
        nu for nu, seq in sequences if not symmetric_about(seq, c - 2)
    )
    unimodal_failures = tuple(nu for nu, seq in sequences if not is_unimodal(seq))
    return UnimodalityReport(
        n=n,
        sequences=sequences,
        symmetric_failures=symmetric_failures,
        unimodal_failures=unimodal_failures,
    )


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
    kron = kronecker_table(n)
    dims = [dimension(nu) for nu in table.partitions]
    matrix = d_matrix(table, kron)
    c = table.top_degree
    padded = list(betti) + [0] * (c + 1 - len(betti))
    for i in range(1, c):
        weighted = sum(d * v for d, v in zip(dims, matrix[i]))
        if weighted != padded[i] ** 2 - padded[i - 1] * padded[i + 1]:
            return False
    return True
