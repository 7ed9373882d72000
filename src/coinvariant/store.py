"""Persistent caches for expensive tables and report emission.

One file ``{kind}-{n}.json`` per table: a one-line JSON header holding the
sha256 of the table document, then the document itself as one line of
compact JSON with exact decimal integers.  The kinds are ``char`` (the
character table of S_n), ``graded`` (the coinvariant ring's graded
multiplicities), ``kron`` (Kronecker coefficients) and ``springer`` (the
Springer table of every type mu of n, in canonical order, each row
stored sparsely as flat (degree, multiplicity) pairs); the modules of a
kron, graded or springer table load when such a table is first used.
Every document opens with the same envelope, ``schema_version``,
``kind``, ``n`` and the canonical partitions of n (``_envelope``),
followed by the fields of its kind.  A table is read back from n and the
fields it holds; everything it derives (partitions, class sizes) is
written for readers of the file only.  The digest covers the stored body
bytes, so a body written indented by an older version still reads as it
is.  A digest mismatch, a version mismatch, a file without the header, a
header or body nested deeper than ``json`` parses, an envelope other than
the one the file name promises (say ``graded-4`` copied over
``graded-5``) or a body of the wrong shape triggers a rebuild, never a
partial read.  The shapes: a char table needs p(n) rows
of p(n) ints, a graded table p(n) rows of n(n-1)/2 + 1 ints, a kron table
distinct entries [a, b, c, g] of ints with 0 <= a <= b <= c < p(n) and
g > 0, and a springer table one entry per type, the types exactly the
partitions of n in order, each with top = n(mu) and p(n) rows of even
length whose degrees increase within [0, top] and whose multiplicities
are positive ints.  Every char table read passes its closed-form columns
and the twist (``characters.check_stored_table``), every graded table
read the guards of its build (``graded._validate``), and every Springer
table read is calibrated again (``springer._calibrate``); one that fails
is malformed too.  Every
write goes to a unique temp file in the same directory and is renamed
into place, and no file is shared between tables, so concurrent runs on
one directory never see a half-written file; every file written, table or
report, gets the mode any new file gets under the umask.  Any n >= 1 is
stored; size caps belong to the CLI.

One route each way for every kind: ``read`` checks a file and adopts its
table into the process memo, and ``build`` builds a table, writes its
file, its body spliced from list items encoded one by one, and adopts
the table.  ``get_or_build`` is ``read``, else ``build``.  The Springer
sweep does all its table traffic through the store it is given: it loads
or builds its char and graded tables there, reads its springer files in
its own process and builds the others in its workers, each on a store of
its own whose digests the sweep's store ``record``s (see
``springer_counterexample_search``).

Reports are wrapped in a document {schema_version, command, parameters,
provenance, payload}.  Timestamps and machine facts live only in
provenance: payloads produced from the same inputs are byte-identical.
``write_report`` writes a report's entry rows straight from the scan's
own data (the d matrix of a flag scan, see ``ScanReport.rows``), one
%-template per row, in chunks: the bytes are those of
``json.dumps(document, indent=2)``, or of ``csv.DictWriter`` for a .csv
path, which quotes a partition that contains a comma ("4,1" but 5).
Only the rest of the document goes through ``json``.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
from datetime import datetime, timezone
from importlib import import_module
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from . import __version__, memo
from .characters import CharacterTable, build_character_table, check_stored_table
from .combinatorics import Partition, format_partition, n_stat, partitions_of, top_degree

if TYPE_CHECKING:
    from .graded import GradedMultiplicityTable
    from .kronecker import KroneckerTable

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


def _warn(message: str, *args) -> None:
    # logging is imported only when a table file has to be rebuilt
    import logging

    logging.getLogger("coinvariant.store").warning(message, *args)


def _atomic_write(path: Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to a unique temp file beside ``path``, then rename it
    into place with the mode any new file gets under the umask; an OS error
    names ``path``, never the temp file, and leaves no temp file."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            # mkstemp makes the file 0600; reading the umask sets it for a
            # moment, and the package starts no thread that could create a
            # file meanwhile
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.writelines(chunks)
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
    """p(n) rows of p(n) ints, ValueError otherwise, that pass the guards of
    ``characters.check_stored_table``, AssertionError otherwise."""
    table = CharacterTable(doc["n"], _rows(doc, "values", len(partitions_of(doc["n"]))))
    check_stored_table(table)
    return table


def _kron_doc(table: KroneckerTable) -> dict:
    triples = sorted(table.entries.items())
    return {**_envelope("kron", table.n), "entries": [[a, b, c, g] for (a, b, c), g in triples]}


def _kron_from_doc(doc: dict) -> KroneckerTable:
    """Distinct entries [a, b, c, g] of ints with 0 <= a <= b <= c < p(n)
    and g > 0; ValueError otherwise."""
    from .kronecker import KroneckerTable

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
    """The ``_rows`` of field b, passing the build's guards (``graded._validate``)."""
    from .graded import GradedMultiplicityTable, _validate

    table = GradedMultiplicityTable(doc["n"], _rows(doc, "b", top_degree(doc["n"]) + 1))
    _validate(table)
    return table


def table_entry(mu: Partition, table: GradedMultiplicityTable) -> dict:
    """The ``springer-n`` file entry of type mu: the type, the top degree
    and each row as flat (degree, multiplicity) pairs of its nonzero
    entries, degrees increasing."""
    return {
        "mu": format_partition(mu),
        "top": table.top_degree,
        "rows": [[x for i, m in enumerate(row) if m for x in (i, m)] for row in table.b],
    }


def table_from_entry(mu: Partition, entry: dict) -> GradedMultiplicityTable:
    """The table of ``table_entry(mu, table)``, its zero rows one shared
    tuple as in a built table, calibrated again (``springer._calibrate``).
    ValueError unless the entry names mu, its top is n(mu), and it has p(n)
    rows of even length whose degrees increase within [0, top] with
    positive int multiplicities; AssertionError if it fails calibration."""
    from .graded import GradedMultiplicityTable
    from .springer import _calibrate

    n, top, rows = sum(mu), entry["top"], entry["rows"]
    if entry["mu"] != format_partition(mu) or type(top) is not int or top != n_stat(mu):
        raise ValueError(f"entry is not the type {format_partition(mu)} with top n(mu)")
    if len(rows) != len(partitions_of(n)) or any(len(row) % 2 for row in rows):
        raise ValueError("rows are not p(n) lists of (degree, multiplicity) pairs")
    zero = (0,) * (top + 1)
    dense = []
    for row in rows:
        if not row:
            dense.append(zero)
            continue
        values = [0] * (top + 1)
        last = -1
        for i, m in zip(row[::2], row[1::2]):
            if type(i) is not int or type(m) is not int or not last < i <= top or m < 1:
                raise ValueError("a pair is not an increasing degree in [0, top] and a positive int")
            values[i] = m
            last = i
        dense.append(tuple(values))
    table = GradedMultiplicityTable(n, tuple(dense))
    _calibrate(table, mu)
    return table


def _springer_doc(tables: tuple[GradedMultiplicityTable, ...]) -> dict:
    n = tables[0].n
    entries = [table_entry(mu, t) for mu, t in zip(partitions_of(n), tables)]
    return {**_envelope("springer", n), "tables": entries}


def _springer_from_doc(doc: dict) -> tuple[GradedMultiplicityTable, ...]:
    """One ``table_from_entry`` per type of n, in canonical order;
    ValueError otherwise, AssertionError if a table fails calibration."""
    types, entries = partitions_of(doc["n"]), doc["tables"]
    if len(entries) != len(types):
        raise ValueError("tables are not one entry per partition of n")
    return tuple(table_from_entry(mu, entry) for mu, entry in zip(types, entries))


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _lazy(module: str, name: str) -> Callable:
    """A builder calling ``module.name(n)``; ``module`` loads on its first call."""
    return lambda n: getattr(import_module(f".{module}", __package__), name)(n)


_KINDS: dict[str, tuple[Callable, Callable, Callable]] = {
    "char": (build_character_table, _char_doc, _char_from_doc),
    "kron": (_lazy("kronecker", "build_kronecker_table"), _kron_doc, _kron_from_doc),
    "graded": (_lazy("graded", "build_graded_table"), _graded_doc, _graded_from_doc),
    "springer": (_lazy("springer", "build_springer_tables"), _springer_doc, _springer_from_doc),
}


def _kind(kind: str) -> tuple[Callable, Callable, Callable]:
    """The builder, encoder and decoder of ``kind``; ValueError if unknown."""
    if kind not in _KINDS:
        raise ValueError(f"unknown cache kind {kind!r}")
    return _KINDS[kind]


class CacheStore:
    """Digest-checked table cache rooted at one directory."""

    def __init__(self, root: Path | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        # digests of the table files this store read or wrote
        self._digests: dict[tuple[str, int], str] = {}

    def digests(self) -> dict[str, str]:
        """kind-n -> digest map for report provenance."""
        return {f"{kind}-{n}": d for (kind, n), d in sorted(self._digests.items())}

    def record(self, kind: str, n: int, digest: str) -> None:
        """Note the digest of a (kind, n) file read or written in this directory."""
        self._digests[(kind, n)] = digest

    def get_or_build(self, kind: str, n: int):
        """``read``, else ``build``: either way the table is adopted into the
        process memo, which never stands in for a missing or invalid file."""
        table = self.read(kind, n)
        return self.build(kind, n) if table is None else table

    def build(self, kind: str, n: int):
        """Build the (kind, n) table, write its file without reading one, its
        last field's items encoded one by one and spliced in (a whole
        document encoded at once holds a string per value), and adopt it."""
        builder, to_doc, _ = _kind(kind)
        table = builder(n)
        doc = to_doc(table)
        field, items = doc.popitem()
        text = _ENCODER.encode({**doc, field: []})
        self._write(kind, n, (text[:-2] + ",".join(map(_ENCODER.encode, items)) + "]}").encode())
        return memo.adopt(kind, n, table)

    def read(self, kind: str, n: int):
        """The (kind, n) table of its file if its header digest, schema,
        envelope and body shape hold, adopted into the process memo (the
        held table when one is), else None, with a warning unless the file
        is missing."""
        from_doc = _kind(kind)[2]
        try:
            data = self._path(kind, n).read_bytes()
        except FileNotFoundError:
            return None
        header, _, body = data.partition(b"\n")
        # RecursionError: json cannot parse a value nested that deep
        try:
            digest = json.loads(header)["sha256"]
        except (RecursionError, ValueError, KeyError, TypeError):
            _warn("cache %s-%s has no digest header; rebuilding", kind, n)
            return None
        if _digest(body) != digest:
            _warn("cache %s-%s failed its digest; rebuilding", kind, n)
            return None
        try:
            doc = json.loads(body)
        except (RecursionError, ValueError):
            doc = None
        if not isinstance(doc, dict) or doc.get("schema_version") != SCHEMA_VERSION:
            _warn("cache %s-%s has a stale schema; rebuilding", kind, n)
            return None
        envelope = _envelope(kind, n)
        if {key: doc.get(key) for key in envelope} != envelope:
            _warn("cache %s-%s holds another table; rebuilding", kind, n)
            return None
        try:
            table = from_doc(doc)
        except (AssertionError, KeyError, TypeError, ValueError):
            _warn("cache %s-%s is malformed; rebuilding", kind, n)
            return None
        self.record(kind, n, digest)
        return memo.adopt(kind, n, table)

    def _write(self, kind: str, n: int, body: bytes) -> None:
        digest = _digest(body)
        self.root.mkdir(parents=True, exist_ok=True)
        header = (json.dumps({"sha256": digest}) + "\n").encode()
        _atomic_write(self._path(kind, n), (header, body))
        self.record(kind, n, digest)

    def _path(self, kind: str, n: int) -> Path:
        return self.root / f"{kind}-{n}.json"


# -- report documents --------------------------------------------------------


def payload_bytes(document: dict) -> bytes:
    """Canonical serialization of just the payload (determinism contract)."""
    return (json.dumps(document["payload"], indent=2) + "\n").encode()


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
    """Refuse a report ``path`` in a directory that does not exist, a
    ``path`` that is a directory, or a .csv ``path`` for a report without
    entry rows (CSV holds only those rows).  The command line calls this
    before it reads or writes any table, so a refused run touches no
    table file."""
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if path.suffix.lower() == ".csv" and not has_entries:
        raise ValueError("this report has no entry rows to export as CSV; write JSON instead")


Rows = Iterable[tuple[tuple, Iterable[tuple[int, ...]]]]

# where the rows go: the payload is the document's last field, and no field
# of it after "entries" holds that key at this indent
_EMPTY_ENTRIES = '\n    "entries": []'


def write_report(path: Path, document: dict, keys: tuple[str, ...] = (), rows: Rows = ()) -> None:
    """Write ``document`` as JSON, or only its entry rows as CSV when the
    suffix is .csv, which needs ``keys``.  The entry rows, ``rows`` grouped
    under ``keys`` as ``ScanReport.rows`` yields them, go into the payload's
    "entries" list, which ``document`` holds empty.  The bytes are those of
    ``json.dumps(document, indent=2) + "\n"`` with the rows in that list, or
    of ``csv.DictWriter``, with no dict per row."""
    path = Path(path)
    check_report_path(path, bool(keys))
    if path.suffix.lower() == ".csv":
        lines = _lines(keys, rows, ",".join(["%s"] * len(keys)) + "\r\n", _csv_field)
        chunks = chain([",".join(map(_csv_field, keys)) + "\r\n"], _batches(lines, ""))
    else:
        chunks = _json_chunks(document, keys, rows)
    _atomic_write(path, (chunk.encode() for chunk in chunks))


def _json_chunks(document: dict, keys: tuple[str, ...], rows: Rows) -> Iterator[str]:
    text = json.dumps(document, indent=2) + "\n"
    if not keys:
        yield text
        return
    # cut just before the "]" of the payload's empty entries list
    cut = text.rindex(_EMPTY_ENTRIES) + len(_EMPTY_ENTRIES) - 1
    yield text[:cut]
    # a row as json.dumps(document, indent=2) lays it out in that list
    fields = (f"        {_literal(json.dumps(key))}: %s" for key in keys)
    lines = _lines(keys, rows, "{\n" + ",\n".join(fields) + "\n      }", json.dumps)
    separator = "\n      "
    for batch in _batches(lines, ",\n      "):
        yield separator + batch
        separator = ",\n      "
    yield ("" if separator == "\n      " else "\n    ") + text[cut:]


def _lines(keys: tuple[str, ...], rows: Rows, skeleton: str, encode: Callable) -> Iterator[str]:
    """Every entry row as text.  The template of each distinct group head,
    ``skeleton`` with a %s per key filled with the head's values encoded
    and a %d per tail value, is made once and filled with each tail."""
    templates: dict[tuple, str] = {}
    for head, tails in rows:
        template = templates.get(head)
        if template is None:
            cells = [_literal(encode(value)) for value in head]
            template = templates[head] = skeleton % (*cells, *["%d"] * (len(keys) - len(cells)))
        yield from map(template.__mod__, tails)


def _batches(lines: Iterator[str], joiner: str) -> Iterator[str]:
    """``lines`` joined by ``joiner``, a few thousand rows to a chunk."""
    while batch := list(islice(lines, 4096)):
        yield joiner.join(batch)


def _literal(text: str) -> str:
    """``text`` as literal text of a %-template."""
    return text.replace("%", "%%")


def _csv_field(value) -> str:
    """``value`` as a CSV field, quoted only where ``csv.QUOTE_MINIMAL`` quotes."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
