"""Audit routes: a second way to each quantity the scans compute, kept only
to check the production route, and the ``selftest`` suites (``suites``)
with the one predicate only they use, ``is_log_concave``.  No production
module imports this one, so every scan runs one route per quantity;
``cli.cmd_selftest`` and the tests reach it.  The routes: one
Murnaghan-Nakayama value at a time on beta-set tuples
(``character_value``); tableaux counted one by one; the fake degrees by
major index and by character projection of ``graded_character_poly``;
the duality and stabilization of the graded table; and tensor
multiplicities and d from that table, against the closed form of
``verify.d_matrix``.
"""

from __future__ import annotations

from functools import cache
from operator import mul
from typing import Callable, Iterator, NamedTuple, Sequence

from . import characters, graded, kronecker, springer
from .characters import character_table
from .combinatorics import (
    Partition, Tableau, check_partition, class_sign, conjugate, dimension, enumerate_ssyt,
    partition_index, partitions_of, top_degree,
)
from .graded import graded_table
from .polynomials import IntPoly, is_unimodal, one_minus_q_product, q_factorial
from .verify import d_matrices


@cache
def _border_strip_removals(lam: Partition, k: int) -> tuple[tuple[int, Partition], ...]:
    """All ways to remove a border strip of size k: (sign, smaller shape).

    Works on the beta-set (first-column hook lengths): removing a strip of
    size k means lowering one beta value by k onto an unoccupied value; the
    strip height is the number of beta values jumped over.
    """
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    occupied = set(beta)
    removals: list[tuple[int, Partition]] = []
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted((occupied - {b}) | {nb}, reverse=True)
        shape = tuple(new_beta[j] - (ell - 1 - j) for j in range(ell))
        while shape and shape[-1] == 0:
            shape = shape[:-1]
        removals.append((-1 if height % 2 else 1, shape))
    return tuple(removals)


@cache
def _mn(lam: Partition, rho: Partition) -> int:
    if not lam:
        return 1
    removals = _border_strip_removals(lam, rho[0])
    return sum(sign * _mn(smaller, rho[1:]) for sign, smaller in removals)


def character_value(lam: Partition, rho: Partition) -> int:
    """chi_lam(rho) for partitions of the same n."""
    check_partition(rho, sum(check_partition(lam)))
    return _mn(lam, rho)


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


def graded_character_poly(n: int, rho: Partition) -> IntPoly:
    """Graded character at a class of cycle type rho:
    prod_{i<=n} (1 - q^i) / prod_j (1 - q^{rho_j}), one division by
    1 - q^part per cycle.  Exact by construction."""
    check_partition(rho, n)
    poly = one_minus_q_product(n)
    for part in rho:
        poly = poly.divide_one_minus_q_power(part)
    return poly


def fake_degree_syt(lam: Partition) -> IntPoly:
    """Major-index generating polynomial over standard tableaux of shape lam."""
    c = top_degree(sum(lam))
    coeffs = [0] * (c + 1)
    for tableau in enumerate_syt(lam):
        coeffs[major_index(tableau)] += 1
    return IntPoly(coeffs)


def fake_degree_projection(lam: Partition, n: int) -> IntPoly:
    """Project the graded character onto V(lam): the q^i coefficient is
    ``CharacterTable.multiplicity`` of rho -> [q^i] chi(rho, q) at lam, an
    exact class sum (NonIntegral on a remainder)."""
    check_partition(lam, n)
    table = character_table(n)
    c = top_degree(n)
    chis = [graded_character_poly(n, rho).padded(c + 1) for rho in table.partitions]
    return IntPoly(table.multiplicity(column, lam) for column in zip(*chis))


def check_duality(n: int) -> bool:
    """Both faces of the complementary-degree duality.

    Polynomial face: q^c chi(rho, 1/q) == sign(rho) * chi(rho, q) for every
    class rho, on the coefficients padded to degree c.  Multiplicity face:
    b[lam][c-i] == b[conjugate(lam)][i].
    """
    c = top_degree(n)
    for rho in partitions_of(n):
        coeffs = graded_character_poly(n, rho).padded(c + 1)
        if coeffs[::-1] != tuple(class_sign(rho) * x for x in coeffs):
            return False
    return graded._duality_failure(graded_table(n)) is None


class StabilizationReport(NamedTuple):
    """Padded degree-i multiplicities across n; stable means all constant.

    For a core partition mu, the padded shape at n is (n - |mu|, *mu).
    ``sequences`` maps each core to the multiplicity sequence over
    n = n_min .. n_max.
    """

    degree: int
    n_min: int
    n_max: int
    sequences: tuple[tuple[Partition, tuple[int, ...]], ...]
    anomalies: tuple[Partition, ...]

    @property
    def stable(self) -> bool:
        return not self.anomalies


def pad_core(core: Partition, n: int) -> Partition:
    """(n - |core|, *core); rejects paddings that are not partitions."""
    first = n - sum(core)
    if first < 0 or (core and first < core[0]):
        raise ValueError(f"cannot pad {core} to n={n}")
    return (first, *core) if first > 0 else core


def stabilization_check(i: int, n_max: int) -> StabilizationReport:
    """Scan b[pad(core, n)][i] for n in [2i, n_max] for every core of size <= i.

    Any shape with |shape| - shape_1 > i has no tableau of major index i, so
    the cores of size <= i cover every possibly-nonzero row; this is verified
    during the scan and any stray nonzero row is reported as an anomaly.
    """
    if i < 1:
        raise ValueError("degree must be >= 1")
    n_min = 2 * i
    if n_max < n_min:
        raise ValueError(f"n_max must be at least {n_min}")
    cores = [mu for size in range(i + 1) for mu in partitions_of(size)]
    ns = range(n_min, n_max + 1)
    sequences, anomalies = [], []
    for core in cores:
        seq = tuple(graded_table(n).b[partition_index(n)[pad_core(core, n)]][i] for n in ns)
        sequences.append((core, seq))
        if len(set(seq)) > 1:
            anomalies.append(core)
    core_set = set(cores)
    for n in ns:
        for r, mult in graded_table(n).support(i):
            lam = graded_table(n).partitions[r]
            if lam[1:] not in core_set:
                anomalies.append(lam[1:])
    return StabilizationReport(i, n_min, n_max, tuple(sequences), tuple(dict.fromkeys(anomalies)))


def find_nonunimodal_fake_degrees(n: int) -> list[Partition]:
    """All shapes whose fake-degree coefficient sequence is not unimodal."""
    return [lam for lam in partitions_of(n) if not is_unimodal(graded.fake_degree_hook(lam).coeffs)]


def tensor_pair_multiplicity(n: int, i: int, j: int, nu: Partition) -> int:
    """Multiplicity of V(nu) in H^i (x) H^j of the coinvariant ring."""
    check_partition(nu, n)
    table = graded_table(n)
    chars = character_table(n)
    chi_i, chi_j = chars._combine_rows([table.support(i), table.support(j)])
    return chars.multiplicity(tuple(map(mul, chi_i, chi_j)), nu)


def d_vector(n: int, nu: Partition) -> list[int]:
    """d[nu][i] for i = 1 .. c-1 in the coinvariant ring of S_n."""
    row = character_table(n).index(check_partition(nu, n))
    return [d[row] for d in d_matrices([graded_table(n)])[0].values()]


def is_log_concave(seq: Sequence[int]) -> bool:
    """a_k^2 >= a_{k-1} * a_{k+1} at every interior index, applied literally."""
    return all(
        seq[k] * seq[k] >= seq[k - 1] * seq[k + 1] for k in range(1, len(seq) - 1)
    )


def betti_log_concavity(n: int) -> bool:
    """Numeric log-concavity of the graded dimensions, cross-checked against
    the dimension-weighted d identity:
    sum_nu dim(nu) d[nu][i] == b_i^2 - b_{i-1} b_{i+1}."""
    betti = q_factorial(n).coeffs
    if not is_log_concave(betti):
        return False
    dims = [dimension(nu) for nu in partitions_of(n)]
    matrix = d_matrices([graded_table(n)])[0]
    return all(
        sum(map(mul, dims, matrix[i])) == betti[i] ** 2 - betti[i - 1] * betti[i + 1]
        for i in matrix
    )


def suites(ns: range) -> list[tuple[str, Callable[[], bool]]]:
    """The ``selftest`` suites over the sizes ``ns`` (1 .. n_max), as
    (name, check) pairs in the order they run.  Production and pinned
    routes are looked up on their modules when a check runs."""

    def kostka_foulkes():
        """(lam, mu, row) at every pair of every n, row lam of type mu's table,
        the coefficients of K(lam, mu) from degree n(mu) down, each n's tables
        built inside the suite so that their guards fail it (the cache of
        ``kostka_foulkes_poly`` outlives a run)."""
        for n in ns:
            parts = partitions_of(n)
            for mu, table in zip(parts, springer.build_springer_tables(n)):
                yield from ((lam, mu, row) for lam, row in zip(parts, table.b))

    return [
        ("conjugation involution", lambda: all(
            conjugate(conjugate(lam)) == lam for n in range(ns[-1] + 1) for lam in partitions_of(n)
        )),
        ("character orthogonality", lambda: all(
            characters.verify_orthogonality(characters.character_table(n)) for n in ns
        )),
        ("fake-degree three-route agreement", lambda: all(
            fake_degree_syt(lam) == graded.fake_degree_hook(lam) == fake_degree_projection(lam, n)
            for n in ns
            for lam in partitions_of(n)
        )),
        ("graded duality", lambda: all(check_duality(n) for n in ns)),
        ("Betti log-concavity", lambda: all(betti_log_concavity(n) for n in ns)),
        ("Kronecker identities", lambda: all(
            kronecker.verify_kronecker_identities(kronecker.kronecker_table(n)) for n in ns[1:]
        )),
        # build_springer_tables raises unless every type passes its calibration;
        # K(lam, mu)(0), the row's last entry, is delta(lam, mu) and
        # K(lam, mu)(1), the row sum, counts SSYT(lam, mu)
        ("Kostka-Foulkes calibration", lambda: all(
            row[-1] == (1 if lam == mu else 0) and sum(row) == kostka_number(lam, mu)
            for lam, mu, row in kostka_foulkes()
        )),
        ("Kostka-Foulkes two-route agreement", lambda: all(
            IntPoly(reversed(row)) == springer.kostka_foulkes_poly_by_charge(lam, mu)
            for lam, mu, row in kostka_foulkes()
        )),
    ]
