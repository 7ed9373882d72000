"""Acceptance suite.

Each test is one acceptance criterion and prints one pass/fail line
(visible with ``pytest -s``; ``pytest -v`` shows the same per-criterion
status through test outcomes).  Everything is exact integer arithmetic:
there is no tolerance anywhere.

Run:  pytest tests/test_acceptance.py -v -s
"""

import json
import time
from fractions import Fraction

import pytest

from coinvariant import cli
from coinvariant.audit import (
    check_duality,
    fake_degree_projection,
    fake_degree_syt,
    find_nonunimodal_fake_degrees,
    is_log_concave,
    kostka_number,
    stabilization_check,
)
from coinvariant.characters import character_table
from coinvariant.combinatorics import (
    centralizer_size,
    conjugate,
    dimension,
    dominates,
    partitions_of,
)
from coinvariant.graded import fake_degree_hook, graded_table, poincare_polynomial
from coinvariant.kronecker import kronecker_coefficient, kronecker_table
from coinvariant.parallel import default_jobs
from coinvariant.polynomials import is_unimodal, symmetric_about
from coinvariant.springer import kostka_foulkes_poly, springer_graded_table
from coinvariant.store import payload_bytes
from coinvariant.verify import verify_flag_log_concavity

SPRINGER_COUNTEREXAMPLES = [
    "4,1,1,1",
    "5,1,1,1",
    "6,1,1,1",
    "5,2,1,1",
    "5,1,1,1,1",
    "7,1,1,1",
    "6,2,1,1",
    "6,1,1,1,1",
    "5,2,1,1,1",
    "5,1,1,1,1,1",
]

MAX_JOBS = max(2, default_jobs())


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-cache")


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance-out")


def run_cli(cache_dir, *args):
    return cli.run([*args, "--cache-dir", str(cache_dir)])


def announce(number, elapsed, text):
    print(f"\ncriterion {number}: PASS ({elapsed:.1f}s) - {text}")


def test_criterion_01_low_degree_harness(cache_dir, outputs, capsys):
    started = time.monotonic()
    out = outputs / "harness-12.json"
    code = run_cli(
        cache_dir,
        "low-degree-harness", "--n-max", "12",
        "--jobs", str(MAX_JOBS), "--out", str(out),
    )
    elapsed = time.monotonic() - started
    assert code == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["status"] == "pass"
    assert payload["violations"] == []
    assert payload["mirror_mismatches"] == []
    # coverage: degrees m and c-m for m <= 3, every partition, every n <= 12
    seen = {}
    for entry in payload["entries"]:
        seen.setdefault(entry["n"], set()).add(entry["i"])
    for n in range(3, 13):
        c = n * (n - 1) // 2
        expected = {m for m in (1, 2, 3) if m <= c - 1}
        expected |= {c - m for m in (1, 2, 3) if c - m >= 1}
        assert seen[n] == expected, n
        per_n = sum(1 for e in payload["entries"] if e["n"] == n)
        assert per_n == len(expected) * len(partitions_of(n))
    assert elapsed < 900, "cold low-degree harness must finish within 15 minutes"
    with capsys.disabled():
        announce(1, elapsed, "d >= 0 at degrees/co-degrees m <= 3 for all n <= 12")


def test_criterion_02_springer_scan(cache_dir, outputs, capsys):
    started = time.monotonic()
    out = outputs / "springer-10.json"
    code = run_cli(
        cache_dir,
        "springer-scan", "--n-max", "10",
        "--jobs", str(MAX_JOBS), "--out", str(out),
    )
    elapsed = time.monotonic() - started
    assert code == 2, "counterexamples exist, so the exit status must be 2"
    payload = json.loads(out.read_text())["payload"]
    found = [entry["mu"] for entry in payload["counterexamples"]]
    assert found == SPRINGER_COUNTEREXAMPLES
    assert set(found) == set(SPRINGER_COUNTEREXAMPLES)
    assert all(entry["n"] >= 7 for entry in payload["counterexamples"])
    for entry in payload["counterexamples"]:
        assert entry["witnesses"], "every counterexample carries a witness"
        assert all(w["d"] < 0 for w in entry["witnesses"])
    assert elapsed < 600, "cold Springer scan must finish within 10 minutes"
    with capsys.disabled():
        announce(2, elapsed, "exactly the ten Springer counterexamples up to S_10")


def test_criterion_03_three_route_fake_degrees(capsys):
    started = time.monotonic()
    for n in range(1, 11):
        for lam in partitions_of(n):
            syt = fake_degree_syt(lam)
            assert syt == fake_degree_hook(lam), lam
            assert syt == fake_degree_projection(lam, n), lam
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(3, elapsed, "SYT / hook / projection fake degrees agree, n <= 10")


def test_criterion_04_duality(capsys):
    started = time.monotonic()
    for n in range(1, 11):
        assert check_duality(n), n
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(4, elapsed, "mirror duality on classes and multiplicities, n <= 10")


def test_criterion_05_d_symmetry(capsys):
    started = time.monotonic()
    for n in range(3, 9):
        report = verify_flag_log_concavity(n)
        c = n * (n - 1) // 2
        values = {
            (nu, i): d for i, row in report.matrix.items() for nu, d in zip(partitions_of(n), row)
        }
        for nu in partitions_of(n):
            for i in range(1, c):
                assert values[(nu, i)] == values[(nu, c - i)], (n, nu, i)
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(5, elapsed, "d[nu][i] == d[nu][c-i] exactly, n <= 8")


def test_criterion_06_full_degree_scan_n8(cache_dir, outputs, capsys):
    started = time.monotonic()
    flag_out = outputs / "flag-8.json"
    code = run_cli(
        cache_dir,
        "verify-flag", "--n", "8", "--degrees", "all",
        "--jobs", str(MAX_JOBS), "--out", str(flag_out),
    )
    assert code == 0
    flag_payload = json.loads(flag_out.read_text())["payload"]
    assert flag_payload["status"] == "pass"
    assert min(e["d"] for e in flag_payload["entries"]) >= 0

    uni_out = outputs / "unimodal-8.json"
    code = run_cli(cache_dir, "unimodal", "--n", "8", "--out", str(uni_out))
    assert code == 0
    uni_payload = json.loads(uni_out.read_text())["payload"]
    assert uni_payload["status"] == "pass"
    assert uni_payload["violations"] == []
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(6, elapsed, "full-degree scan and d unimodality pass at n = 8")


def kronecker_by_character_product(lam, mu, nu):
    table = character_table(sum(lam))
    product = [a * b for a, b in zip(table.row(lam), table.row(mu))]
    total = sum(
        Fraction(p * c, centralizer_size(rho))
        for p, c, rho in zip(product, table.row(nu), table.partitions)
    )
    assert total.denominator == 1
    return int(total)


def test_criterion_07_kronecker_identity_suite(capsys):
    from coinvariant.kronecker import verify_kronecker_identities

    started = time.monotonic()
    for n in range(2, 10):
        assert verify_kronecker_identities(kronecker_table(n)), n
    for n in range(2, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for nu in partitions_of(n):
                    assert kronecker_coefficient(
                        lam, mu, nu
                    ) == kronecker_by_character_product(lam, mu, nu)
    # sampled identities above the exhaustive range
    for n in (10, 11, 12):
        parts = partitions_of(n)
        sample = [parts[0], parts[1], parts[len(parts) // 2], parts[-1]]
        for lam in sample:
            for mu in sample:
                assert kronecker_coefficient(lam, mu, (n,)) == (1 if lam == mu else 0)
                total = sum(
                    dimension(nu) * kronecker_coefficient(lam, mu, nu)
                    for nu in parts
                )
                assert total == dimension(lam) * dimension(mu)
                for nu in sample:
                    assert kronecker_coefficient(
                        lam, mu, nu
                    ) == kronecker_coefficient(conjugate(lam), conjugate(mu), nu)
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(
            7, elapsed, "Kronecker identities: exhaustive n <= 9, sampled n <= 12"
        )


def test_criterion_08_structural_identities(capsys):
    started = time.monotonic()
    for n in range(1, 13):
        table = graded_table(n)
        betti = poincare_polynomial(n).padded(table.top_degree + 1)
        dims = {lam: dimension(lam) for lam in table.partitions}
        for lam, row in zip(table.partitions, table.b):
            assert sum(row) == dims[lam], (n, lam)
        for i in range(table.top_degree + 1):
            weighted = sum(dims[lam] * row[i] for lam, row in zip(table.partitions, table.b))
            assert weighted == betti[i], (n, i)
        assert symmetric_about(betti, table.top_degree), n
        assert is_unimodal(betti) and is_log_concave(betti), n
    # the fake-degree rows themselves are not always unimodal; the scan
    # must surface at least one such shape in this range
    assert any(find_nonunimodal_fake_degrees(n) for n in range(1, 13))
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(8, elapsed, "regular representation + Poincare identities, n <= 12")


def test_criterion_09_kostka_foulkes_calibration(capsys):
    started = time.monotonic()
    for n in range(1, 9):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                coeffs = kostka_foulkes_poly(lam, mu).coeffs
                # K(0) is the constant term, K(1) the coefficient sum
                assert sum(coeffs[:1]) == (1 if lam == mu else 0), (lam, mu)
                assert sum(coeffs) == kostka_number(lam, mu), (lam, mu)
                assert (not coeffs) == (not dominates(lam, mu)), (lam, mu)
        springer = springer_graded_table((1,) * n)
        assert springer.b == graded_table(n).b, n
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(9, elapsed, "K(0)=delta, K(1)=Kostka, dominance, type (1^n), n <= 8")


def test_criterion_10_stabilization(capsys):
    started = time.monotonic()
    for i in range(1, 5):
        report = stabilization_check(i, 12)
        assert report.stable, (i, report.anomalies)
        assert report.n_min == 2 * i
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(10, elapsed, "padded degree-i multiplicities constant, 2i <= n <= 12")


def test_criterion_11_determinism(cache_dir, outputs, capsys):
    started = time.monotonic()
    pairs = [
        ("harness", ["low-degree-harness", "--n-max", "12"]),
        ("springer", ["springer-scan", "--n-max", "10"]),
        ("flag8", ["verify-flag", "--n", "8", "--degrees", "all"]),
    ]
    for name, command in pairs:
        serial_out = outputs / f"{name}-jobs1.json"
        forked_out = outputs / f"{name}-jobsmax.json"
        code_serial = run_cli(
            cache_dir, *command, "--jobs", "1", "--out", str(serial_out)
        )
        code_forked = run_cli(
            cache_dir, *command, "--jobs", str(MAX_JOBS), "--out", str(forked_out)
        )
        assert code_serial == code_forked
        serial = json.loads(serial_out.read_text())
        forked = json.loads(forked_out.read_text())
        assert payload_bytes(serial) == payload_bytes(forked), name
    elapsed = time.monotonic() - started
    with capsys.disabled():
        announce(11, elapsed, "jobs=1 and jobs=max payloads byte-identical")
