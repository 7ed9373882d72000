#!/usr/bin/env python3
"""Survey fake-degree sequences for unimodality failures.

The graded multiplicity rows of the coinvariant ring (fake degrees) are
not always unimodal; this scan lists every shape that fails, with its
coefficient sequence, for each n in range.
"""

import argparse
import sys

from coinvariant.audit import find_nonunimodal_fake_degrees
from coinvariant.combinatorics import format_partition
from coinvariant.graded import fake_degree_hook


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()

    total = 0
    for n in range(1, args.n_max + 1):
        shapes = find_nonunimodal_fake_degrees(n)
        total += len(shapes)
        print(f"n={n}: {len(shapes)} non-unimodal fake-degree sequence(s)")
        for lam in shapes:
            coeffs = fake_degree_hook(lam).coeffs
            print(f"    {format_partition(lam)}: {list(coeffs)}")
    print(f"total: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
