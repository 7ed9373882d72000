"""Run one coinvariant CLI command with spans around each layer's calls.

    python3 perfbench/traced.py SPANS_JSON CLI_ARG...

The package is imported (and the import timed), wrappers are installed at
the names the callers actually look up, and ``coinvariant.cli.run`` runs
the command in this process.  ``from .x import y`` binds ``y`` into the
caller's module, so e.g. ``springer.charge`` is wrapped, not
``combinatorics.charge``; the store reaches its builders through
``store._KINDS``.  Lookups such as ``verify.kronecker_table`` need no
wrapper: the build behind them is wrapped where ``kronecker`` looks it up.
Nothing under ``src/`` is changed.

Spans stay in memory and are written once, at exit, to SPANS_JSON:
per-name self time (duration minus the time child spans cover), call
counts, counters, and one record per span.  Calls made millions of times
(pair vectors, SSYT steps, charge) are aggregated only.  The exit status
is the CLI's.
"""

import sys
import time

_started = time.perf_counter()
from coinvariant import cli  # noqa: E402  (timed as cli.import_s)

IMPORT_S = time.perf_counter() - _started

import json  # noqa: E402
import pickle  # noqa: E402
from collections import Counter  # noqa: E402
from functools import wraps  # noqa: E402
from pathlib import Path  # noqa: E402

from coinvariant import (  # noqa: E402
    characters,
    graded,
    kronecker,
    springer,
    store,
    verify,
)


class Tracer:
    """Span stack with online self-time accounting."""

    def __init__(self):
        self.stack = []  # open frames: [start, child_s, span_id, parent_id]
        self.spans = []  # finished non-aggregated spans
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.next_id = 0

    def open(self, aggregate_only=False):
        parent = self.stack[-1][2] if self.stack else None
        span_id = None
        if not aggregate_only:
            span_id = self.next_id
            self.next_id += 1
        self.stack.append([time.perf_counter(), 0.0, span_id, parent])

    def close(self, name):
        end = time.perf_counter()
        start, child_s, span_id, parent = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += duration
        if span_id is not None:
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
            )

    def count(self, name, amount=1):
        self.counts[name] += amount

    def wrap(self, fn, name, after=None, aggregate_only=False):
        """``fn`` inside a span ``name``; ``after(args, result)`` runs outside it."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(aggregate_only)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(name)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn, name):
        """``fn`` unchanged except that its calls are counted; no span."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    t = tracer

    # builders are reached through the module registries and store._KINDS
    def after_build(args, table):
        t.count("tables_built")
        if isinstance(table, kronecker.KroneckerTable):
            t.count("kronecker.entries", len(table.entries))

    for kind, module, attr, name in (
        ("char", characters, "build_character_table", "characters.build"),
        ("graded", graded, "build_graded_table", "graded.build"),
        ("kron", kronecker, "build_kronecker_table", "kronecker.build"),
    ):
        wrapped = t.wrap(getattr(module, attr), name, after_build)
        setattr(module, attr, wrapped)
        store._KINDS[kind] = (wrapped, *store._KINDS[kind][1:])
    characters.verify_orthogonality = t.wrap(
        characters.verify_orthogonality, "characters.validate"
    )
    kronecker.verify_kronecker_identities = t.wrap(
        kronecker.verify_kronecker_identities, "kronecker.identities"
    )

    # store: a get_or_build that built nothing read the table back
    get_or_build = store.CacheStore.get_or_build

    @wraps(get_or_build)
    def traced_get_or_build(self, kind, n, **build_kwargs):
        built_before = t.counts["tables_built"]
        t.open()
        name = "store.read"
        try:
            table = get_or_build(self, kind, n, **build_kwargs)
            if t.counts["tables_built"] != built_before:
                name = "store.write"
        finally:
            t.close(name)
        path = self.root / f"{kind}-{n}.json"
        if path.exists():
            key = "bytes_written" if name == "store.write" else "bytes_read"
            t.count(f"store.{key}", path.stat().st_size)
        return table

    store.CacheStore.get_or_build = traced_get_or_build

    # Kronecker pair vectors: computed when the instance's memo grew
    for cls in (kronecker.KroneckerTable, kronecker.OnDemandKronecker):

        def traced_pair_vector(self, a, b, pair_vector=cls.pair_vector):
            cached = len(self._pair_cache)
            t.open(aggregate_only=True)
            try:
                return pair_vector(self, a, b)
            finally:
                t.close("kronecker.pair")
                if len(self._pair_cache) != cached:
                    t.count("kronecker.pair_computed")

        cls.pair_vector = traced_pair_vector

    def after_d_matrix(args, matrix):
        t.count("verify.d_entries", sum(len(row) for row in matrix.values()))

    d_matrix = t.wrap(verify.d_matrix, "verify.d_matrix", after_d_matrix)
    verify.d_matrix = springer.d_matrix = d_matrix
    verify.tensor_multiplicity_vector = t.counted(
        verify.tensor_multiplicity_vector, "verify.tensor_vectors"
    )

    # parallel: arguments are pickled outside the span, as a pool would
    for module in (verify, springer):
        parallel_map = module.parallel_map

        @wraps(parallel_map)
        def traced_map(fn, items, jobs, parallel_map=parallel_map):
            t.count("parallel.tasks", len(items))
            t.count("parallel.arg_bytes", sum(len(pickle.dumps(item)) for item in items))
            t.open()
            try:
                return parallel_map(fn, items, jobs)
            finally:
                t.close("parallel.map")

        module.parallel_map = traced_map

    # springer and the combinatorics it calls
    springer.springer_graded_table = t.wrap(
        springer.springer_graded_table, "springer.table"
    )
    springer.verify_springer_log_concavity = t.counted(
        springer.verify_springer_log_concavity, "springer.types"
    )
    springer.kostka_foulkes_poly = t.wrap(springer.kostka_foulkes_poly, "springer.kf")
    springer.charge = t.wrap(springer.charge, "combinatorics.charge", aggregate_only=True)
    enumerate_ssyt = springer.enumerate_ssyt

    @wraps(enumerate_ssyt)
    def traced_ssyt(shape, content):
        # the generator does its work inside next(), so each step is a span
        steps = iter(enumerate_ssyt(shape, content))
        while True:
            t.open(aggregate_only=True)
            try:
                tableau = next(steps)
            except StopIteration:
                return
            finally:
                t.close("combinatorics.ssyt")
            t.count("combinatorics.ssyt_count")
            yield tableau

    springer.enumerate_ssyt = traced_ssyt

    # report emission: payload(), the document and the file write
    for cls in (verify.LogConcavityReport, verify.LowDegreeReport, springer.SpringerScanReport):
        cls.payload = t.wrap(cls.payload, "cli.report")
    cli.report_document = t.wrap(cli.report_document, "cli.report")
    cli.write_report = t.wrap(
        cli.write_report,
        "cli.report",
        lambda args, _: t.count("cli.report_bytes", Path(args[0]).stat().st_size),
    )


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    kf_cache = springer.kostka_foulkes_poly
    install(tracer)
    try:
        return cli.run(cli_argv)
    finally:
        tracer.count("springer.kf_polys", kf_cache.cache_info().misses)
        document = {
            "import_s": IMPORT_S,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "spans": tracer.spans,
        }
        spans_path.write_text(json.dumps(document))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
