"""The one process-wide memo of exact tables, keyed by (kind, n).

Library lookups build a missing table on first use, at any n; a cache
store adopts every table it reads or builds, so later library calls use
the table the store holds, but never in place of a file its directory
lacks.  Kind ``"springer"`` holds, per n, the Springer table of every
type of n in canonical order; a library lookup (``springer_tables``)
builds all of them from one Hall-Littlewood solve.  The Springer sweep
always runs on a store, which adopts the char and graded tables it loads
or builds and the tables of every ``springer-n`` file it reads.  The
sweep checks every n it read in its own process; only the other sizes go
to a forked worker pool, one n per task, whose workers inherit the memo
and build their tables through a store of their own, which adopts them
into the memo of the process it runs in.
"""

from __future__ import annotations

from typing import Callable, TypeVar

T = TypeVar("T")

_TABLES: dict[tuple[str, int], object] = {}


def lookup(kind: str, n: int, build: Callable[[int], T]) -> T:
    """The memoized (kind, n) table, made by ``build(n)`` on a miss."""
    table = _TABLES.get((kind, n))
    if table is None:
        table = _TABLES[(kind, n)] = build(n)
    return table


def adopt(kind: str, n: int, table: T) -> T:
    """Memoize ``table`` unless a (kind, n) table is held; return the held one."""
    return _TABLES.setdefault((kind, n), table)
