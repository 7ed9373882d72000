"""Command-line surface.

Exit status contract: 0 on success/pass, 2 when a verification scan found
violations (the report is still written), 1 on operational errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .combinatorics import check_partition, format_partition, parse_partition, top_degree
from .errors import LimitExceeded, NonExactDivision, NonIntegral
from .parallel import default_jobs
from .store import CacheStore, check_report_path, report_document, write_report

# every size cap, here only: the library builds any table and runs any sweep
# it is asked for.  Table sizes must lie in [1, cap]; "springer" and "harness" cap n_max.
CAPS = {"char": 14, "kron": 12, "springer": 13, "harness": 16}


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--cache-dir",
        metavar="D",
        default=None,
        help="table cache directory (default: $COINVARIANT_CACHE_DIR or ~/.cache/coinvariant)",
    )
    common.add_argument(
        "--jobs",
        metavar="N",
        type=int,
        default=default_jobs(),
        help="worker processes (at most the CPU count) for the Springer tables "
        "springer-scan builds; a warm sweep and every other command fork none; "
        "output is identical for any N",
    )
    common.add_argument(
        "--max-n-override",
        metavar="N",
        type=int,
        default=None,
        help="raise the built-in size caps (character tables and fake-degrees, Kronecker "
        "tables, the springer-scan sweep, the low-degree harness) to N; never lowers them",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="coinvariant",
        description="Exact graded S_n-representation data and equivariant "
        "log-concavity checks for coinvariant rings and Springer fibers.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("fake-degrees", parents=[common], help="major-index generating polynomial of one shape")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="P")
    p.set_defaults(func=cmd_fake_degrees)

    p = sub.add_parser("kronecker", parents=[common], help="one Kronecker coefficient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, metavar="P")
    p.add_argument("--mu", required=True, metavar="P")
    p.add_argument("--nu", required=True, metavar="P")
    p.set_defaults(func=cmd_kronecker)

    p = sub.add_parser("verify-flag", parents=[common], help="equivariant log-concavity scan of the coinvariant ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", default="all", help='"all", "low:M", or comma-separated degrees')
    p.add_argument("--out", metavar="F", default=None)
    p.set_defaults(func=cmd_verify_flag)

    p = sub.add_parser("unimodal", parents=[common], help="symmetry/unimodality of the d sequences")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="F", default=None)
    p.set_defaults(func=cmd_unimodal)

    p = sub.add_parser("low-degree-harness", parents=[common], help="d >= 0 at degrees <= 3 and co-degrees, every n up to n-max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", metavar="F", default=None)
    p.set_defaults(func=cmd_low_degree)

    p = sub.add_parser("springer-scan", parents=[common], help="log-concavity counterexample sweep over Springer types")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", metavar="F", default=None)
    p.set_defaults(func=cmd_springer_scan)

    p = sub.add_parser("selftest", parents=[common], help="run the structural invariant suites")
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cmd_selftest)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_help()
        return 1
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if getattr(args, "out", None) == "":
            raise ValueError("--out needs a file name")
        if args.cache_dir == "":
            raise ValueError("--cache-dir needs a directory name")
        if getattr(args, "out", None):
            check_report_path(Path(args.out), has_entries=args.command != "springer-scan")
        return args.func(args)
    except (NonExactDivision, NonIntegral, LimitExceeded, AssertionError) as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(argv))


# ---------------------------------------------------------------------------
# command implementations


def _cap(args, kind: str) -> int:
    """The size cap of ``kind``, raised (never lowered) by ``--max-n-override``."""
    return max(CAPS[kind], args.max_n_override or 0)


def _check_caps(args, *requests) -> None:
    """LimitExceeded unless every size of every ``(kind, ns)`` request of a
    capped table kind lies in [1, cap]; n_max caps are checked by their commands."""
    for kind, ns in requests:
        cap = _cap(args, kind) if kind in CAPS else None
        for n in ns:
            if cap is not None and not 1 <= n <= cap:
                raise LimitExceeded(f"{kind} table size {n} outside [1, {cap}]")


def _seed(store: CacheStore, args, *requests) -> None:
    """Load or build the tables of every ``(kind, ns)`` request.  Every size
    of a capped kind is checked first, whether or not its file is cached, so
    a refused run touches no table file.  Graded tables have no cap: only
    springer-scan and selftest request them, each with the char table of its n."""
    _check_caps(args, *requests)
    for kind, ns in requests:
        for n in ns:
            store.get_or_build(kind, n)


def _finish(args, store: CacheStore | None, command: str, parameters: dict, report, lines) -> int:
    """Write the report to ``--out`` if given, print ``lines``, and map the
    report status to the exit code; ``store`` is None for a run that reads
    and writes no table file."""
    if args.out:
        # the entry rows go from report.rows() straight into the file
        document = report_document(
            command, parameters, report.payload(entries=[]), store, {"jobs": args.jobs}
        )
        write_report(Path(args.out), document, report.row_keys, report.rows())
    for line in lines:
        print(line)
    return 0 if report.status == "pass" else 2


def cmd_fake_degrees(args) -> int:
    from .graded import fake_degree_hook

    _check_caps(args, ("char", [args.n]))
    lam = check_partition(parse_partition(args.lam), args.n)
    print(fake_degree_hook(lam))
    return 0


def cmd_kronecker(args) -> int:
    from .kronecker import kronecker_coefficient

    n = args.n
    lam, mu, nu = (check_partition(parse_partition(t), n) for t in (args.lam, args.mu, args.nu))
    store = CacheStore(args.cache_dir)
    _seed(store, args, ("char", [n]))
    print(kronecker_coefficient(lam, mu, nu))
    return 0


def cmd_verify_flag(args) -> int:
    from . import verify

    n = args.n
    verify.check_flag_size(n)
    # the cap first: the degree filter is as large as the top degree
    _check_caps(args, ("char", [n]))
    degrees = verify.parse_degree_filter(args.degrees, top_degree(n))
    store = CacheStore(args.cache_dir)
    if verify.needs_every_row(n, degrees):
        _seed(store, args, ("char", [n]))
    report = verify.verify_flag_log_concavity(n, degrees)
    return _finish(args, store, "verify-flag", {"n": n, "degrees": args.degrees}, report, [
        f"verify-flag n={n} degrees={len(report.degrees)} "
        f"entries={sum(map(len, report.matrix.values()))} min_d={report.min_d} "
        f"status={report.status}",
        *(f"  violation: nu={format_partition(nu)} i={i} d={d}" for nu, i, d in report.violations),
    ])


def cmd_unimodal(args) -> int:
    from . import verify

    n = args.n
    verify.check_flag_size(n)
    store = CacheStore(args.cache_dir)
    _seed(store, args, ("char", [n]))
    report = verify.verify_d_unimodality(n)
    return _finish(args, store, "unimodal", {"n": n}, report, [
        f"unimodal n={n} sequences={len(report.sequences)} "
        f"symmetric_failures={len(report.symmetric_failures)} "
        f"unimodal_failures={len(report.unimodal_failures)} status={report.status}",
        *(f"  not symmetric: nu={format_partition(nu)}" for nu in report.symmetric_failures),
        *(f"  not unimodal: nu={format_partition(nu)}" for nu in report.unimodal_failures),
    ])


def cmd_low_degree(args) -> int:
    from . import verify

    n_max = args.n_max
    verify.check_harness_range(n_max)
    cap = _cap(args, "harness")
    if n_max > cap:
        raise LimitExceeded(f"low-degree-harness n_max {n_max} above cap {cap}")
    report = verify.low_degree_harness(n_max)
    return _finish(args, None, "low-degree-harness", {"n_max": n_max}, report, [
        f"low-degree-harness n_max={n_max} entries={sum(1 for _ in report.entries)} "
        f"violations={len(report.violations)} "
        f"mirror_mismatches={len(report.mirror_mismatches)} status={report.status}",
    ])


def cmd_springer_scan(args) -> int:
    from . import springer

    n_max = args.n_max
    store = CacheStore(args.cache_dir)
    cap = _cap(args, "springer")
    if n_max > cap:
        raise LimitExceeded(f"springer-scan n_max {n_max} above cap {cap}")
    springer.check_scan_range(n_max)
    ns = range(2, n_max + 1)
    _seed(store, args, ("char", ns), ("graded", ns))
    report = springer.springer_counterexample_search(n_max, jobs=args.jobs, store=store)
    lines = [
        f"springer-scan n_max={n_max} "
        f"counterexamples={len(report.counterexamples)} status={report.status}"
    ]
    for mu, witnesses in report.counterexamples:
        lines.append(f"  mu={format_partition(mu)} (n={sum(mu)}) witnesses={len(witnesses)}")
        lines += (f"    nu={format_partition(nu)} i={i} d={d}" for nu, i, d in witnesses)
    return _finish(args, store, "springer-scan", {"n_max": n_max}, report, lines)


def cmd_selftest(args) -> int:
    from . import audit

    n_max = args.n_max
    if n_max < 2:
        raise ValueError("selftest needs --n-max at least 2")
    store = CacheStore(args.cache_dir)
    failures = 0

    def check(name: str, suite) -> None:
        """Run ``suite()``; a suite whose build guard raises AssertionError
        fails with the guard's message on stderr, and the run goes on."""
        nonlocal failures
        try:
            ok = suite()
        except AssertionError as exc:
            print(f"selftest {name}: {exc}", file=sys.stderr)
            ok = False
        print(f"selftest {name}: {'pass' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    ns = range(1, n_max + 1)
    _seed(store, args, ("char", ns), ("graded", ns), ("kron", ns[1:]))
    for name, suite in audit.suites(ns):
        check(name, suite)

    print(f"selftest: {'all suites pass' if not failures else f'{failures} suite(s) FAILED'}")
    return 0 if failures == 0 else 2
