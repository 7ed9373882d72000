"""Equivariant log-concavity and unimodality checks.

For a graded S_n-representation (coinvariant ring or a Springer fiber)
with degree-i graded character chi_i, the log-concavity statistic
d[nu][i] = mult(nu, H^i (x) H^i) - mult(nu, H^(i-1) (x) H^(i+1)) is

    (1/n!) sum over classes rho of |C_rho| * chi_nu(rho)
           * (chi_i(rho)^2 - chi_(i-1)(rho) * chi_(i+1)(rho))

for interior degrees 1 <= i <= top-1: the decomposition of the class
function chi_i^2 - chi_(i-1) chi_(i+1), with one packed class sum per
irreducible for every distinct function of a batch, each divided by n!
exactly (see ``characters``).  Every requested degree is checked before
any character is taken.  The coinvariant ring's chi_j are the closed form
prod_{k<=n} (1 - q^k) / prod_j (1 - q^{rho_j}) at every class rho
(``_graded_characters``), checked against the Betti numbers, and one
function, ``d_matrix``, decomposes them for every coinvariant scan, on
the rows where d can be nonzero at the degrees asked for.  A graded
multiplicity table (a Springer fiber, or the coinvariant ring's table in
the audits of ``audit``) gives its chi_j from the character rows packed by
class, every table of one n in one batch (``d_matrices``).
Negative d values are findings, so reports always carry the full d
table, never just a flag.
``tensor_multiplicity_vector`` (sums over Kronecker coefficients) is the
independent audit route; it stays here while ``perfbench/traced.py``
counts its calls (ROADMAP item 1).

Degrees outside [0, top] of a graded table contribute zero.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial
from operator import mul
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Mapping, Sequence

from .characters import character_rows, character_table
from .combinatorics import Partition, format_partition, partitions_of, top_degree
# unused here: perfbench/traced.py wraps verify.parallel_map; the import goes
# when the bench reads in-tree spans (ROADMAP item 1)
from .parallel import parallel_map  # noqa: F401
from .polynomials import is_unimodal, one_minus_q_product, q_factorial, symmetric_about

if TYPE_CHECKING:
    from .graded import GradedMultiplicityTable
    from .kronecker import KroneckerTable, OnDemandKronecker

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
    right = table.support(j)
    for a, ma in table.support(i):
        for b, mb in right:
            weight = ma * mb
            vec = kron.pair_vector(a, b)
            for k, g in enumerate(vec):
                if g:
                    acc[k] += weight * g
    return tuple(acc)


def d_matrix(n: int, degrees: Iterable[int] | None = None) -> dict[int, tuple[int, ...]]:
    """d vectors over every nu of the coinvariant ring of S_n, keyed by
    interior degree i (every interior degree when ``degrees`` is None).

    With m the largest min(i, c - i) asked for, chi_j is needed only within
    m + 1 of either end, and d[nu][i] only on the rows n - nu_1 <= 2m
    (``low_degree_shapes``; see ``low_degree_harness``).  If those are every
    row (``needs_every_row``), the memoized character table decomposes.
    Otherwise those rows alone do (``character_rows``), every other d is 0,
    and completeness is checked, not assumed: by Parseval the sum of d^2 over every nu is
    <f, f> = (1/n!) sum_rho |C_rho| f(rho)^2 for f = chi_i^2 - chi_(i-1) chi_(i+1),
    so the sum over the rows must equal it exactly, at every degree.  The
    kernel decomposes each distinct class function once, comparing them
    (``CharacterTable._decompose_all``): f_(c-i) = f_i for this ring, since
    chi_(c-j) = sign * chi_j, and functions that differ are each decomposed."""
    c = top_degree(n)
    scan = range(1, c) if degrees is None else tuple(degrees)
    for i in scan:
        if not 1 <= i <= c - 1:
            raise ValueError(f"degree {i} outside interior range [1, {c - 1}]")
    m = _depth(c, scan)
    chi = _checked_graded_characters(n, m + 2)
    functions = list(_d_functions(chi, scan))
    if needs_every_row(n, scan):
        vectors = character_table(n)._decompose_all(functions)
    else:
        shapes = low_degree_shapes(n, m)
        rows = character_rows(n, shapes)
        found = rows._decompose_all(functions)
        for i, f, d in zip(scan, functions, found):
            norm = sum(map(mul, rows.class_sizes, map(mul, f, f)))
            if factorial(n) * sum(x * x for x in d) != norm:
                raise AssertionError(
                    f"completeness fails at n={n}, degree {i}: some nu outside the rows has d != 0"
                )
        by_shape = (dict(zip(shapes, d)) for d in found)
        vectors = [tuple(d.get(nu, 0) for nu in partitions_of(n)) for d in by_shape]
    return dict(zip(scan, vectors))


def needs_every_row(n: int, degrees: Iterable[int]) -> bool:
    """Whether d at the interior ``degrees`` of S_n may be nonzero on every
    row (``low_degree_shapes`` is every partition), so that ``d_matrix``
    decomposes with the memoized full character table."""
    shapes = low_degree_shapes(n, _depth(top_degree(n), degrees))
    return len(shapes) == len(partitions_of(n))


def _depth(top: int, degrees: Iterable[int]) -> int:
    """The largest min(i, top - i) over ``degrees``, 0 for none."""
    return max((min(i, top - i) for i in degrees), default=0)


def d_matrices(tables: Sequence[GradedMultiplicityTable]) -> list[dict[int, tuple[int, ...]]]:
    """The d matrix of every table of ``tables``, all of one n, at its every
    interior degree: the functions chi_i^2 - chi_(i-1) chi_(i+1) of every
    table in one batch, one packed class sum per irreducible, each distinct
    function once (``CharacterTable._decompose_all``; the functions of one n
    repeat across types).  A table's graded characters are dropped before the
    next table's are taken, so the batch holds only its weighted functions."""
    if len({table.n for table in tables}) > 1:
        raise ValueError("d_matrices needs tables of one n")
    if not tables:
        return []
    scans = [range(1, table.top_degree) for table in tables]
    chars = character_table(tables[0].n)

    def functions():
        for table, scan in zip(tables, scans):
            chi = chars._combine_rows([table.support(j) for j in range(table.top_degree + 1)])
            yield from _d_functions(chi, scan)

    vectors = iter(chars._decompose_all(functions()))
    return [dict(zip(scan, vectors)) for scan in scans]


def _d_functions(
    chi: Mapping[int, Sequence[int]] | Sequence[Sequence[int]], degrees: Iterable[int]
) -> Iterator[list[int]]:
    """chi_i^2 - chi_(i-1) chi_(i+1) at every class, for each i of ``degrees``."""
    for i in degrees:
        yield [x * x - lo * hi for x, lo, hi in zip(chi[i], chi[i - 1], chi[i + 1])]


# ---------------------------------------------------------------------------
# Reports


class ScanReport:
    """Shared report shape: a report holds one value per name of ``fields``,
    each set once.  A scan fails exactly when a field named in ``failures``
    is non-empty.  A report with entry rows names their keys in ``row_keys``
    and yields them from ``rows()``, the one source of ``payload()`` and ``store.write_report``."""

    fields: ClassVar[tuple[str, ...]] = ()
    failures: ClassVar[tuple[str, ...]] = ()
    row_keys: ClassVar[tuple[str, ...]] = ()

    def __init__(self, *values):
        if len(values) != len(self.fields):
            raise TypeError(f"{type(self).__name__} takes {self.fields}, got {len(values)} values")
        for name, value in zip(self.fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def status(self) -> str:
        return "fail" if any(getattr(self, name) for name in self.failures) else "pass"

    def rows(self) -> Iterator[tuple[tuple, Iterable[tuple[int, ...]]]]:
        """The entry rows in groups ``(head, tails)``: ``head`` holds the
        values of the leading keys, a partition already formatted, and each
        tuple of ints in ``tails`` the values of the keys after them, one
        tuple per row, so a writer encodes each head once."""
        return iter(())

    def payload(self, entries: list | None = None) -> dict:
        """``body(entries)`` between the schema version and the status, the
        entry rows as dicts from ``rows()`` unless ``entries`` stands in for them."""
        if entries is None:
            entries = [
                dict(zip(self.row_keys, (*head, *tail)))
                for head, tails in self.rows()
                for tail in tails
            ]
        return {"schema_version": SCHEMA_VERSION, **self.body(entries), "status": self.status}


def d_row(nu: Partition, i: int, d: int) -> dict:
    """One d value as a payload row."""
    return {"nu": format_partition(nu), "i": i, "d": d}


class DMatrixReport(ScanReport):
    """A report on one d matrix of S_n, as ``d_matrix`` gives it: the d
    vector over nu in canonical order for each scanned interior degree.
    The report holds only n and ``matrix``; ``degrees`` and the entry rows
    (ordered by nu, then by degree) are derived from it."""

    fields = ("n", "matrix")
    row_keys = ("nu", "i", "d")

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.matrix))

    def _columns(self) -> Iterator[tuple[Partition, tuple[int, ...]]]:
        """Each nu in canonical order with its d values at ``degrees``."""
        return zip(partitions_of(self.n), zip(*(self.matrix[i] for i in self.degrees)))

    def rows(self) -> Iterator[tuple[tuple[str], Iterable[tuple[int, int]]]]:
        degrees = self.degrees
        for nu, column in self._columns():
            yield (format_partition(nu),), zip(degrees, column)


class LogConcavityReport(DMatrixReport):
    """Full d table of one scan; ``violations`` (exactly the d < 0
    entries) and ``min_d`` are derived from the matrix."""

    failures = ("violations",)

    @cached_property
    def violations(self) -> tuple[tuple[Partition, int, int], ...]:
        degrees = self.degrees
        return tuple(
            (nu, i, d) for nu, column in self._columns() for i, d in zip(degrees, column) if d < 0
        )

    @property
    def min_d(self) -> int | None:
        return min(map(min, self.matrix.values()), default=None)

    def body(self, entries: list) -> dict:
        return {
            "n": self.n,
            "kind": "flag-lc",
            "entries": entries,
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
    """ValueError unless the coinvariant ring of S_n has an interior degree
    (n >= 3); ``verify-flag`` checks it before any degree filter is read."""
    if n < 3:
        raise ValueError("n must be at least 3")


def verify_flag_log_concavity(
    n: int, degree_filter: Iterable[int] | None = None
) -> LogConcavityReport:
    """Scan d[nu][i] over the coinvariant ring of S_n; pass iff all >= 0."""
    check_flag_size(n)
    return LogConcavityReport(n, d_matrix(n, degree_filter))


# ---------------------------------------------------------------------------
# Low-degree / co-degree harness


class LowDegreeReport(ScanReport):
    """d checks at degrees m and co-degrees c-m, m <= max_m, for every
    n <= n_max.  The report holds ``matrices``, the d matrix of each n as
    ``d_matrix`` gives it; ``entries`` (over every nu of n in canonical
    order within each (n, i)), ``violations`` (d < 0) and
    ``mirror_mismatches`` (each (n, nu, m) whose d differs from d[nu][c-m])
    are derived from them."""

    fields = ("n_max", "max_m", "matrices")
    failures = ("violations", "mirror_mismatches")
    row_keys = ("n", "nu", "i", "d")

    @property
    def entries(self) -> Iterator[tuple[int, Partition, int, int]]:  # (n, nu, i, d)
        for n, matrix in self.matrices.items():
            for i, row in matrix.items():
                yield from ((n, nu, i, d) for nu, d in zip(partitions_of(n), row))

    @cached_property
    def violations(self) -> tuple[tuple[int, Partition, int, int], ...]:
        return tuple(e for e in self.entries if e[3] < 0)

    @cached_property
    def mirror_mismatches(self) -> tuple[tuple[int, Partition, int], ...]:  # (n, nu, m)
        return tuple(
            (n, nu, m)
            for n, matrix in self.matrices.items()
            for m in matrix
            if m <= self.max_m
            for nu, d, mirror in zip(partitions_of(n), matrix[m], matrix[top_degree(n) - m])
            if d != mirror
        )

    def rows(self) -> Iterator[tuple[tuple[int, str], Iterable[tuple[int, int]]]]:
        # entries run over nu within each (n, i), so every row is its own group
        for n, matrix in self.matrices.items():
            names = list(map(format_partition, partitions_of(n)))
            for i, row in matrix.items():
                yield from (((n, name), ((i, d),)) for name, d in zip(names, row))

    def body(self, entries: list) -> dict:
        return {
            "n": self.n_max,
            "kind": "low-degree",
            "entries": entries,
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


def _graded_characters(n: int, length: int) -> dict[int, tuple[int, ...]]:
    """chi_j at every class rho of S_n, in canonical order: the q^j
    coefficients of N(q) / prod_j (1 - q^{rho_j}), N = prod_{k<=n} (1 - q^k),
    of degree c.  The degrees j < ``length`` are that quotient as a power
    series; the other degrees j > c - length are the series of the reversed
    quotient, N's top coefficients over prod_j (q^{rho_j} - 1), not the sign
    twist of the low ones, so the harness's mirror check compares two
    computations."""
    c = top_degree(n)
    top_length = max(0, min(length, c + 1 - length))
    numerator = one_minus_q_product(n).coeffs
    reversed_numerator = numerator[::-1]
    low, top = [], []
    for rho in partitions_of(n):
        low.append(_truncated_quotient(numerator, rho, min(length, c + 1)))
        sign = -1 if len(rho) % 2 else 1
        top.append([sign * v for v in _truncated_quotient(reversed_numerator, rho, top_length)])
    chi = {c - k: column for k, column in enumerate(zip(*top))}
    chi.update(enumerate(zip(*low)))
    return chi


def _checked_graded_characters(n: int, length: int) -> dict[int, tuple[int, ...]]:
    """``_graded_characters(n, length)``, every chi_j checked to be the
    Betti number b_j at the identity class."""
    chi = _graded_characters(n, length)
    betti = q_factorial(n).coeffs
    for j, values in chi.items():
        # the identity class (1^n) comes last in canonical order
        if values[-1] != betti[j]:
            raise AssertionError(f"chi_{j} at the identity is not the Betti number b_{j} of n={n}")
    return chi


def low_degree_harness(n_max: int, max_m: int = 3) -> LowDegreeReport:
    """d >= 0 at degrees m in 1..max_m and co-degrees, for all n up to n_max.

    Stability makes n <= 4m sufficient for degree m at every n; the scan
    still runs all n <= n_max as direct evidence, in this process: the
    whole scan is too little work for a worker pool to pay for itself.
    Per n, ``d_matrix`` takes only the graded characters chi_j with j within
    max_m + 1 of either end and the character rows d can be nonzero on:
    every row, from the memoized full table, for n <= 2 max_m + 1 (n <= 7
    at max_m = 3).  It reads or writes no table file.

    The rows: n(lam) >= n - lam_1, so a constituent V(lam) of H^i, whose
    least major index is n(lam), has n - lam_1 <= i.  A constituent nu of
    V(a) (x) V(b) has n - nu_1 <= (n - a_1) + (n - b_1).  So d[nu][m], a
    difference of multiplicities in H^m (x) H^m and H^(m-1) (x) H^(m+1),
    is 0 unless n - nu_1 <= 2m.  Co-degrees need no other rows: H^(c-i)
    is the sign twist of H^i, and the two sign twists in each tensor
    product cancel.

    The guards, checked on every run (``d_matrix``): every row has norm n!
    and its identity-class value is dim V(nu) (a full table is validated
    as it is built); every chi_j is the Betti number b_j at the identity
    class; every class sum clears n! (``NonIntegral`` names its
    partition); and, where rows are omitted, completeness, which proves
    every omitted d is 0.

    Co-degree values are computed directly, not mirrored, so the report's
    check of the duality d[nu][m] == d[nu][c-m] compares two computations.
    """
    check_harness_range(n_max)
    return LowDegreeReport(n_max, max_m, {
        n: d_matrix(n, low_degree_window(max_m, top_degree(n))) for n in range(2, n_max + 1)
    })


# ---------------------------------------------------------------------------
# Unimodality of the d sequences


class UnimodalityReport(DMatrixReport):
    """Per-nu d sequences over interior degrees with symmetry/unimodality flags.

    Symmetry (about the midpoint of [1, c-1]) is a theorem and must hold;
    unimodality is conjectural, so failures are findings, not errors.  The
    report holds only n and the d matrix; ``sequences`` and both failure
    tuples are derived from it.
    """

    failures = ("symmetric_failures", "unimodal_failures")

    @cached_property
    def sequences(self) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
        return tuple(self._columns())

    @property
    def symmetric_failures(self) -> tuple[Partition, ...]:
        # interior degrees run 1..c-1, so the symmetry center is at offset c-2
        center = top_degree(self.n) - 2
        return tuple(nu for nu, seq in self.sequences if not symmetric_about(seq, center))

    @property
    def unimodal_failures(self) -> tuple[Partition, ...]:
        return tuple(nu for nu, seq in self.sequences if not is_unimodal(seq))

    def body(self, entries: list) -> dict:
        failed = [("not-symmetric", nu) for nu in self.symmetric_failures]
        failed += [("not-unimodal", nu) for nu in self.unimodal_failures]
        return {
            "n": self.n,
            "kind": "unimodal",
            "entries": entries,
            "violations": [{"nu": format_partition(nu), "reason": why} for why, nu in failed],
        }


def verify_d_unimodality(n: int) -> UnimodalityReport:
    check_flag_size(n)
    return UnimodalityReport(n, d_matrix(n))
