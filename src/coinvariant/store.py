"""Persistent caches for expensive tables and report emission.

One file ``{kind}-{n}.json`` per table: a one-line JSON header holding the
sha256 of the table document, then the document itself as one line of
compact JSON with exact decimal integers.  The kinds are ``char`` (the
character table of S_n), ``graded`` (the coinvariant ring's graded
multiplicities), ``kron`` (Kronecker coefficients) and ``springer`` (the
Springer table of every type mu of n, in canonical order, each row
stored sparsely as flat (degree, multiplicity) pairs).  Every document
opens with the same envelope, ``schema_version``, ``kind``, ``n`` and the
canonical partitions of n (``_envelope``), followed by the fields of its
kind.  A table is read back from n and the fields it holds; everything
it derives (partitions, class sizes) is written for readers of the file
only.  The digest covers the stored body bytes, so a body written
indented by an older version still reads as it is.  A digest mismatch, a
version mismatch, a file without the header or an envelope other than
the one the file name promises (say ``graded-4`` copied over
``graded-5``) or a body of the wrong shape triggers a rebuild, never a
partial read.  The shapes: a char table needs p(n) rows of p(n) ints, a
graded table p(n) rows of n(n-1)/2 + 1 ints, a kron table distinct
entries [a, b, c, g] of ints with 0 <= a <= b <= c < p(n) and g > 0, and
a springer table one entry per type, the types exactly the partitions of
n in order, each with top = n(mu) and p(n) rows of even length whose
degrees increase within [0, top] and whose multiplicities are positive
ints; every Springer table read is calibrated again
(``springer._calibrate``), and one that fails is malformed too.  Every
write goes to a unique temp file in the same directory and is renamed
into place, and no file is shared between tables, so concurrent runs on
one directory never see a half-written file.  Any n >= 1 is stored; size
caps belong to the CLI.

One route each way: ``read`` checks a file and adopts its table into the
process memo, and ``write`` makes every body from list items that are
compact JSON already.  ``get_or_build`` calls both around a build; the
Springer sweep calls them itself (see ``springer_counterexample_search``).

Reports are wrapped in a document {schema_version, command, parameters,
provenance, payload}.  Timestamps and machine facts live only in
provenance: payloads produced from the same inputs are byte-identical.
"""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import logging
import os
import tempfile
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path
from typing import Callable

from . import __version__, memo, springer
from .characters import CharacterTable, build_character_table
from .combinatorics import format_partition, partitions_of
from .graded import GradedMultiplicityTable, build_graded_table, top_degree
from .kronecker import KroneckerTable, build_kronecker_table

log = logging.getLogger("coinvariant.store")

SCHEMA_VERSION = 1
ENV_CACHE_DIR = "COINVARIANT_CACHE_DIR"

CONVENTIONS = {
    "partition_order": "descending lexicographic from (n)",
    "degree_normalization": "q^i per single grading step",
    "charge_reading_word": "rows left-to-right, bottom row first",
    "springer_grading": "coefficient of q^i in q^(n(mu)) * K(lam,mu)(1/q)",
}


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "coinvariant"


def _atomic_write(path: Path, data: bytes) -> None:
    """Write a unique temp file beside ``path``, then rename it into place;
    an OS error names ``path``, never the temp file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


# -- table (de)serialization -------------------------------------------------


def _envelope(kind: str, n: int) -> dict:
    """The four fields every table document opens with; a file whose own
    fields differ holds another table than its name promises."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "n": n,
        "partitions": [format_partition(p) for p in partitions_of(n)],
    }


def _char_doc(table: CharacterTable) -> dict:
    return {
        **_envelope("char", table.n),
        "class_sizes": table.class_sizes,
        "values": table.values,
    }


def _rows(doc: dict, field: str, width: int) -> tuple[tuple[int, ...], ...]:
    """``doc[field]`` as p(n) rows of ``width`` ints; ValueError otherwise."""
    rows = tuple(tuple(row) for row in doc[field])
    if len(rows) != len(partitions_of(doc["n"])) or any(len(row) != width for row in rows):
        raise ValueError(f"{field} is not p(n) rows of {width} values")
    if set(map(type, chain.from_iterable(rows))) != {int}:
        raise ValueError(f"{field} holds a value that is not an int")
    return rows


def _char_from_doc(doc: dict) -> CharacterTable:
    return CharacterTable(doc["n"], _rows(doc, "values", len(partitions_of(doc["n"]))))


def _kron_doc(table: KroneckerTable) -> dict:
    triples = sorted(table.entries.items())
    return {**_envelope("kron", table.n), "entries": [[a, b, c, g] for (a, b, c), g in triples]}


def _kron_from_doc(doc: dict) -> KroneckerTable:
    """Distinct entries [a, b, c, g] of ints with 0 <= a <= b <= c < p(n)
    and g > 0; ValueError otherwise."""
    count = len(partitions_of(doc["n"]))
    entries = {(a, b, c): g for a, b, c, g in doc["entries"]}
    if (
        len(entries) != len(doc["entries"])
        or set(map(type, chain(*entries, entries.values()))) != {int}
        or not all(0 <= a <= b <= c < count and g > 0 for (a, b, c), g in entries.items())
    ):
        raise ValueError(f"entries are not distinct [a, b, c, g] ints in [0, {count}), g > 0")
    return KroneckerTable(doc["n"], entries)


def _graded_doc(table: GradedMultiplicityTable) -> dict:
    return {**_envelope("graded", table.n), "b": table.b}


def _graded_from_doc(doc: dict) -> GradedMultiplicityTable:
    return GradedMultiplicityTable(doc["n"], _rows(doc, "b", top_degree(doc["n"]) + 1))


def _springer_doc(tables: tuple[GradedMultiplicityTable, ...]) -> dict:
    n = tables[0].n
    entries = [springer.table_entry(mu, t) for mu, t in zip(partitions_of(n), tables)]
    return {**_envelope("springer", n), "tables": entries}


def _springer_from_doc(doc: dict) -> tuple[GradedMultiplicityTable, ...]:
    """One entry per type of n, in canonical order (see
    ``springer.table_from_entry`` for the shape of each); ValueError
    otherwise, AssertionError if a table fails calibration."""
    types, entries = partitions_of(doc["n"]), doc["tables"]
    if len(entries) != len(types):
        raise ValueError("tables are not one entry per partition of n")
    return tuple(springer.table_from_entry(mu, entry) for mu, entry in zip(types, entries))


_ENCODER = json.JSONEncoder(separators=(",", ":"))

_KINDS: dict[str, tuple[Callable, Callable, Callable]] = {
    "char": (build_character_table, _char_doc, _char_from_doc),
    "kron": (build_kronecker_table, _kron_doc, _kron_from_doc),
    "graded": (build_graded_table, _graded_doc, _graded_from_doc),
    "springer": (springer.springer_tables, _springer_doc, _springer_from_doc),
}


class CacheStore:
    """Digest-checked table cache rooted at one directory."""

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        # digests of the table files this store read or wrote
        self._digests: dict[tuple[str, int], str] = {}

    def digests(self) -> dict[str, str]:
        """kind-n -> digest map for report provenance."""
        return {f"{kind}-{n}": d for (kind, n), d in sorted(self._digests.items())}

    def get_or_build(self, kind: str, n: int):
        """Digest-valid cached table, else build + validate + persist.

        Either way the table is adopted into the process memo, which never
        stands in for a missing or invalid file in this directory.
        """
        table = self.read(kind, n)
        if table is None:
            builder, to_doc, _ = _KINDS[kind]
            table = builder(n)
            doc = to_doc(table)
            field, items = doc.popitem()
            self.write(kind, n, {**doc, field: map(_ENCODER.encode, items)})
            table = memo.adopt(kind, n, table)
        return table

    def read(self, kind: str, n: int):
        """The (kind, n) table of its file if its header digest, schema,
        envelope and body shape hold, adopted into the process memo (the
        held table when one is), else None, with a warning unless the file
        is missing."""
        if kind not in _KINDS:
            raise ValueError(f"unknown cache kind {kind!r}")
        try:
            data = self._path(kind, n).read_bytes()
        except FileNotFoundError:
            return None
        header, _, body = data.partition(b"\n")
        try:
            digest = json.loads(header)["sha256"]
        except (ValueError, KeyError, TypeError):
            log.warning("cache %s-%s has no digest header; rebuilding", kind, n)
            return None
        if _digest(body) != digest:
            log.warning("cache %s-%s failed its digest; rebuilding", kind, n)
            return None
        try:
            doc = json.loads(body)
        except ValueError:
            doc = None
        if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
            log.warning("cache %s-%s has a stale schema; rebuilding", kind, n)
            return None
        envelope = _envelope(kind, n)
        if {key: doc.get(key) for key in envelope} != envelope:
            log.warning("cache %s-%s holds another table; rebuilding", kind, n)
            return None
        try:
            table = _KINDS[kind][2](doc)
        except (AssertionError, KeyError, TypeError, ValueError):
            log.warning("cache %s-%s is malformed; rebuilding", kind, n)
            return None
        self._digests[(kind, n)] = digest
        return memo.adopt(kind, n, table)

    def write(self, kind: str, n: int, fields: dict) -> None:
        """Persist the (kind, n) envelope and ``fields``, whose last value
        yields list items that are compact JSON already, spliced in as they
        are: encoding a whole document at once holds a string per value."""
        doc = {**_envelope(kind, n), **fields}
        field, items = doc.popitem()
        text = _ENCODER.encode({**doc, field: []})
        self._write(kind, n, (text[:-2] + ",".join(items) + "]}").encode())

    def _write(self, kind: str, n: int, body: bytes) -> None:
        digest = _digest(body)
        self.root.mkdir(parents=True, exist_ok=True)
        header = (json.dumps({"sha256": digest}) + "\n").encode()
        _atomic_write(self._path(kind, n), header + body)
        self._digests[(kind, n)] = digest

    def _path(self, kind: str, n: int) -> Path:
        return self.root / f"{kind}-{n}.json"


# -- report documents --------------------------------------------------------


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2) + "\n").encode()


def payload_bytes(document: dict) -> bytes:
    """Canonical serialization of just the payload (determinism contract)."""
    return _json_bytes(document["payload"])


def report_document(
    command: str,
    parameters: dict,
    payload: dict,
    store: CacheStore | None = None,
    extra_provenance: dict | None = None,
) -> dict:
    provenance = {
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "conventions": dict(CONVENTIONS),
        "cache_digests": store.digests() if store is not None else {},
    }
    if extra_provenance:
        provenance.update(extra_provenance)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "provenance": provenance,
        "payload": payload,
    }


def check_report_path(path: Path, has_entries: bool) -> None:
    """Refuse a report ``path`` in a directory that does not exist, or a
    .csv ``path`` for a report without entry rows (CSV holds only those
    rows).  The command line calls this before it reads or writes any
    table, so a refused run touches no table file."""
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    if path.suffix.lower() == ".csv" and not has_entries:
        raise ValueError("this report has no entry rows to export as CSV; write JSON instead")


def write_report(path: Path, document: dict) -> None:
    """JSON by default; entries-only CSV when the suffix is .csv, which
    needs a payload with entry rows."""
    path = Path(path)
    payload = document["payload"]
    check_report_path(path, "entries" in payload)
    if path.suffix.lower() == ".csv":
        _atomic_write(path, _csv_bytes(payload["entries"]))
    else:
        _atomic_write(path, _json_bytes(document))


def _csv_bytes(entries: list[dict]) -> bytes:
    # the columns in the order their keys first appear
    columns = list(dict.fromkeys(key for entry in entries for key in entry))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    writer.writerows(entries)
    return buffer.getvalue().encode()
