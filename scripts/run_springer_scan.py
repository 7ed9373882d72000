#!/usr/bin/env python3
"""Sweep Springer representations for equivariant log-concavity failures.

Prints every failing nilpotent type with all of its witnesses
(nu, degree, deficit) and writes the machine-readable report.
"""

import argparse
import sys
from pathlib import Path

from coinvariant.combinatorics import format_partition
from coinvariant.springer import springer_counterexample_search
from coinvariant.store import CacheStore, report_document, write_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=10)
    parser.add_argument("--out", default="reports/springer-scan.json")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    store = CacheStore(Path(args.cache_dir)) if args.cache_dir else CacheStore()
    for n in range(2, args.n_max + 1):
        store.get_or_build("char", n)
        store.get_or_build("graded", n)

    report = springer_counterexample_search(args.n_max, jobs=args.jobs)
    print(f"scanned all nilpotent types with n <= {args.n_max}")
    if not report.counterexamples:
        print("no equivariant log-concavity failures found")
    for mu, witnesses in report.counterexamples:
        print(f"type {format_partition(mu)} (n={sum(mu)}) fails:")
        for nu, i, d in witnesses:
            print(f"    nu={format_partition(nu)}  degree={i}  d={d}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    document = report_document(
        "springer-scan", {"n_max": args.n_max}, report.payload(), store
    )
    write_report(out, document)
    print(f"report written to {out}")
    return 0 if report.status == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
