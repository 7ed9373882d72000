import ast
import concurrent.futures
import csv
import errno
import hashlib
import io
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import coinvariant
from coinvariant import audit, cli, graded, springer, verify
from coinvariant.combinatorics import format_partition, partitions_of
from coinvariant.polynomials import IntPoly
from coinvariant.store import (
    _KINDS,
    CacheStore,
    _atomic_write,
    _char_doc,
    _graded_doc,
    default_cache_dir,
    payload_bytes,
    report_document,
    write_report,
)
from coinvariant.springer import build_springer_tables


@pytest.fixture
def store(tmp_path):
    return CacheStore(tmp_path / "cache")


# digests of small table files; a change here changes the file format
GOLDEN_DIGESTS = {
    "char-4": "sha256:3cf15ab0ecd9d99a29e6164cba9f87eaf2409b37d760007d5c8fbf7bac01d0b1",
    "graded-4": "sha256:47101346b2af8c92532a4701c00e5d44eab4b29f59c2038b6a318bdaf77ec7b8",
    "kron-4": "sha256:d1b964f27ea1ec812a16d94e6dbdee6c4175f96ddd11653ae099cd4e4189b673",
    "char-12": "sha256:f401fbb6929bd2a527b08d8663103778d05b355c94cd7ef770a1b44a4eb6dd2d",
    "char-14": "sha256:72ada5e91afd3737da42578932a3c8207136c97afb73371af4ad47bcaa67e9c3",
    "springer-4": "sha256:850d2c0bd4d37c01d46f1daecf877318d7c6505eeb8d4b5b5a95bfb94ede2b04",
    "springer-6": "sha256:81365a625e3c8ac110998eae5696c6cb9637e54685d79d3a100c797683a40d9e",
    "springer-9": "sha256:465ef114bebfbad83dd92350655651a8917c648fda93400a89af2614ea397042",
    "springer-11": "sha256:0a59b690bced13c2e4342874694d3d39ff61e0be86c3db71d084fb5733a32e7a",
}


def sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def digest_and_body(path: Path) -> tuple[str, bytes]:
    """A table file is a one-line JSON header with the body's digest, then the body."""
    header, _, body = path.read_bytes().partition(b"\n")
    return json.loads(header)["sha256"], body


def write_table_file(path: Path, digest: str, body: bytes) -> None:
    path.write_bytes(json.dumps({"sha256": digest}).encode() + b"\n" + body)


def fields(tables) -> list:
    """(n, b) of each graded table: the fields that make up a table."""
    return [(table.n, table.b) for table in tables]


def swap(items: list, a: int, b: int) -> None:
    items[a], items[b] = items[b], items[a]


def swap_rows(entries: list, a: int, b: int) -> None:
    """Swap the rows of two springer-n entries, keeping each type and top."""
    entries[a]["rows"], entries[b]["rows"] = entries[b]["rows"], entries[a]["rows"]


class TestCacheStore:
    def test_cold_build_persists(self, store):
        table = store.get_or_build("char", 4)
        assert table.n == 4
        digest, body = digest_and_body(store.root / "char-4.json")
        assert digest == sha256(body)
        assert json.loads(body)["kind"] == "char"
        assert store.digests() == {"char-4": digest}
        assert not (store.root / "manifest.json").exists()

    def test_warm_load_skips_rebuild(self, tmp_path):
        first = CacheStore(tmp_path)
        built = first.get_or_build("graded", 5)
        stamp = (tmp_path / "graded-5.json").stat().st_mtime_ns
        second = CacheStore(tmp_path)
        loaded = second.get_or_build("graded", 5)
        assert (tmp_path / "graded-5.json").stat().st_mtime_ns == stamp
        assert loaded.b == built.b
        assert [loaded.support(i) for i in range(11)] == [built.support(i) for i in range(11)]
        assert loaded.top_degree == built.top_degree == 10
        assert loaded.support(11) == loaded.support(-1) == ()

    def test_live_handle_is_shared(self, store):
        assert store.get_or_build("kron", 4) is store.get_or_build("kron", 4)

    def test_tampered_file_rebuilds(self, tmp_path):
        first = CacheStore(tmp_path)
        built = first.get_or_build("char", 4)
        path = tmp_path / "char-4.json"
        digest, body = digest_and_body(path)
        doc = json.loads(body)
        doc["values"][0][0] = 999
        write_table_file(path, digest, json.dumps(doc).encode())
        fresh = CacheStore(tmp_path)
        reloaded = fresh.get_or_build("char", 4)
        assert reloaded.values == built.values
        # the rebuild restored a digest-valid file with the true values
        digest, body = digest_and_body(path)
        assert digest == sha256(body)
        assert json.loads(body)["values"] == [list(row) for row in built.values]
        assert fresh.digests() == {"char-4": digest}

    def test_schema_version_mismatch_rebuilds(self, tmp_path):
        first = CacheStore(tmp_path)
        first.get_or_build("graded", 4)
        path = tmp_path / "graded-4.json"
        _, body = digest_and_body(path)
        doc = json.loads(body)
        doc["schema_version"] = 0
        stale = (json.dumps(doc, indent=2) + "\n").encode()
        # keep the digest consistent so only the version check can reject
        write_table_file(path, sha256(stale), stale)
        table = CacheStore(tmp_path).get_or_build("graded", 4)
        assert table.n == 4
        digest, body = digest_and_body(path)
        assert digest == sha256(body)
        assert json.loads(body)["schema_version"] == 1

    def test_manifest_era_file_rebuilds_with_warning(self, tmp_path, caplog):
        # before per-file digests a table file was the bare JSON document,
        # its digest kept in a shared manifest.json
        built = CacheStore(tmp_path / "fresh").get_or_build("char", 4)
        path = tmp_path / "char-4.json"
        _, body = digest_and_body(tmp_path / "fresh" / "char-4.json")
        doc = json.loads(body)
        doc["values"][0][0] = 999
        path.write_text(json.dumps(doc, indent=2) + "\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "schema_version": 1,
            "entries": [{"kind": "char", "n": 4, "file": path.name,
                         "sha256": sha256(path.read_bytes())}],
        }))
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            table = CacheStore(tmp_path).get_or_build("char", 4)
        assert table.values == built.values
        assert "char-4 has no digest header" in caplog.text
        digest, body = digest_and_body(path)
        assert digest == sha256(body)
        assert json.loads(body)["values"][0][0] == built.values[0][0]

    @pytest.mark.parametrize("kind, to_doc", [("char", _char_doc), ("graded", _graded_doc)])
    def test_new_body_is_one_compact_line(self, store, kind, to_doc):
        table = store.get_or_build(kind, 6)
        digest, body = digest_and_body(store.root / f"{kind}-6.json")
        assert digest == sha256(body)
        assert b"\n" not in body and b" " not in body
        # the document holds the table's tuples; JSON writes them as lists
        assert json.loads(body) == json.loads(json.dumps(to_doc(table)))

    @pytest.mark.parametrize("kind, to_doc", [("char", _char_doc), ("graded", _graded_doc)])
    def test_indented_body_reads_warm(self, tmp_path, caplog, kind, to_doc):
        # table files written before bodies were compact hold indent=2 JSON
        built = CacheStore(tmp_path / "fresh").get_or_build(kind, 6)
        body = (json.dumps(to_doc(built), indent=2) + "\n").encode()
        path = tmp_path / f"{kind}-6.json"
        write_table_file(path, sha256(body), body)
        data, stamp = path.read_bytes(), path.stat().st_mtime_ns
        store = CacheStore(tmp_path)
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            table = store.get_or_build(kind, 6)
        assert caplog.text == ""
        assert path.read_bytes() == data and path.stat().st_mtime_ns == stamp
        assert store.digests() == {f"{kind}-6": sha256(body)}
        assert to_doc(table) == to_doc(built)

    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_table_file_format_is_pinned(self, store, name):
        kind, n = name.split("-")
        store.get_or_build(kind, int(n))
        digest, body = digest_and_body(store.root / f"{name}.json")
        assert digest == sha256(body) == GOLDEN_DIGESTS[name]
        assert store.digests() == {name: digest}

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_body_is_the_compact_encoding_of_the_document(self, store, kind, n):
        table = store.get_or_build(kind, n)
        _, body = digest_and_body(store.root / f"{kind}-{n}.json")
        # the reference: one encoder over the whole document
        reference = json.dumps(_KINDS[kind][1](table), separators=(",", ":"))
        assert body == reference.encode()

    @pytest.mark.parametrize(
        "target, source",
        [
            ("graded-5", "graded-4"), ("char-5", "char-4"), ("char-5", "graded-5"),
            ("springer-6", "springer-5"), ("springer-5", "graded-5"),
        ],
        ids=[
            "graded-5-holds-graded-4", "char-5-holds-char-4", "char-5-holds-graded-5",
            "springer-6-holds-springer-5", "springer-5-holds-graded-5",
        ],
    )
    def test_file_holding_another_table_rebuilds(
        self, tmp_path, fresh_memo, caplog, target, source
    ):
        # a digest-valid file whose envelope is not the one its name promises;
        # verify-flag --n 4 writes the n = 4 sources and --n 5 reads n = 5 back
        commands = [
            ["unimodal", "--n", "5"], ["verify-flag", "--n", "4"], ["verify-flag", "--n", "5"],
        ]
        if target.startswith("springer") or "graded" in target + source:
            # only springer-scan reads graded tables; the first sweep
            # rebuilds in the pool and the second reads warm
            commands = [["springer-scan", "--n-max", "6", "--jobs", jobs] for jobs in "21"]

        def payloads(tag):
            found = []
            for k, argv in enumerate(commands):
                out = tmp_path / f"{tag}-{k}.json"
                assert run_cli(tmp_path, *argv, "--out", str(out)) == 0
                found.append(payload_bytes(json.loads(out.read_bytes())))
            return found

        cold = payloads("cold")
        cache = tmp_path / "cache"
        true_file = (cache / f"{target}.json").read_bytes()
        shutil.copy(cache / f"{source}.json", cache / f"{target}.json")
        fresh_memo.clear()
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            assert payloads("misplaced") == cold
        # rebuilt once, written back with the true table, then read warm
        assert caplog.text.count(f"cache {target} holds another table; rebuilding") == 1
        assert (cache / f"{target}.json").read_bytes() == true_file

    @pytest.mark.parametrize(
        "name, malform",
        [
            ("graded-6", lambda doc: doc.update(b=doc["b"][:3])),
            ("char-6", lambda doc: doc.pop("values")),
            ("char-6", lambda doc: doc.update(values=[row[:5] for row in doc["values"]])),
            ("char-6", lambda doc: doc["values"][0].__setitem__(0, "1")),
            ("char-6", lambda doc: doc["values"][0].__setitem__(0, True)),
            ("graded-6", lambda doc: doc["b"][0].__setitem__(0, 1.0)),
            ("kron-5", lambda doc: doc.update(entries=doc["entries"][:-3] + [[0, 0, 99, 1]])),
            ("kron-5", lambda doc: doc["entries"][0].pop()),
            ("kron-5", lambda doc: doc["entries"][0].__setitem__(3, 0)),
            ("kron-5", lambda doc: doc["entries"].append([0, 0, 0, 2])),
            # springer-6 holds the types (6), (5,1), (4,2), (4,1,1), (3,3),
            # (3,2,1), ..., and n(mu) = 3 for both (4,1,1) and (3,3)
            ("springer-6", lambda doc: swap(doc["tables"], 3, 4)),
            ("springer-6", lambda doc: swap_rows(doc["tables"], 3, 4)),
            ("springer-6", lambda doc: doc["tables"].pop()),
            ("springer-6", lambda doc: doc.pop("tables")),
            ("springer-6", lambda doc: doc["tables"][2].__setitem__("top", 3)),
            ("springer-6", lambda doc: doc["tables"][2].__setitem__("top", 2.0)),
            ("springer-6", lambda doc: doc["tables"][5]["rows"].pop()),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].pop()),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].__setitem__(0, 5)),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].__setitem__(0, -1)),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].extend([0, 1])),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].__setitem__(1, 0)),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].__setitem__(1, True)),
            ("springer-6", lambda doc: doc["tables"][5]["rows"][0].__setitem__(1, "1")),
        ],
        ids=[
            "graded-6-short-of-rows", "char-6-without-values", "char-6-short-rows",
            "char-6-string-value", "char-6-bool-value", "graded-6-float-value",
            "kron-5-index-out-of-range", "kron-5-three-field-entry", "kron-5-zero-coefficient",
            "kron-5-duplicate-entry",
            "springer-6-types-out-of-order", "springer-6-rows-of-two-types-swapped",
            "springer-6-short-of-types", "springer-6-without-tables", "springer-6-top-not-n-mu",
            "springer-6-float-top", "springer-6-short-of-rows", "springer-6-odd-row",
            "springer-6-degree-above-top", "springer-6-negative-degree",
            "springer-6-repeated-degree", "springer-6-zero-multiplicity",
            "springer-6-bool-multiplicity", "springer-6-string-multiplicity",
        ],
    )
    def test_malformed_body_rebuilds(self, tmp_path, fresh_memo, caplog, capsys, name, malform):
        # a digest-valid file with the right envelope but a body of the wrong
        # shape; selftest reads the kron tables that verify-flag never needs,
        # and only springer-scan reads the springer tables and, of the scans,
        # the graded ones
        def run(tag):
            if name.startswith("kron"):
                assert run_cli(tmp_path, "selftest", "--n-max", "5") == 0
                return capsys.readouterr().out
            if name.startswith(("springer", "graded")):
                out = tmp_path / f"{tag}.json"
                assert run_cli(tmp_path, "springer-scan", "--n-max", "6", "--out", str(out)) == 0
                return payload_bytes(json.loads(out.read_bytes()))
            out = tmp_path / f"{tag}.json"
            assert run_cli(tmp_path, "verify-flag", "--n", "6", "--out", str(out)) == 0
            return payload_bytes(json.loads(out.read_bytes()))

        cold = run("cold")
        path = tmp_path / "cache" / f"{name}.json"
        true_file = path.read_bytes()
        _, body = digest_and_body(path)
        doc = json.loads(body)
        malform(doc)
        body = json.dumps(doc, separators=(",", ":")).encode()
        write_table_file(path, sha256(body), body)
        fresh_memo.clear()
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            assert run("malformed") == cold
        assert [r.getMessage() for r in caplog.records] == [f"cache {name} is malformed; rebuilding"]
        assert path.read_bytes() == true_file

    @pytest.mark.parametrize(
        "part, message", [("header", "has no digest header"), ("body", "has a stale schema")]
    )
    def test_too_deeply_nested_file_rebuilds(self, tmp_path, fresh_memo, caplog, part, message):
        # nested deeper than json can parse: json raises RecursionError, and
        # the header or body reads as one of the wrong form
        def run(tag):
            out = tmp_path / f"{tag}.json"
            assert run_cli(tmp_path, "verify-flag", "--n", "5", "--out", str(out)) == 0
            return payload_bytes(json.loads(out.read_bytes()))

        cold = run("cold")
        path = tmp_path / "cache" / "char-5.json"
        true_file = path.read_bytes()
        deep = b"[" * 100000 + b"]" * 100000
        if part == "header":
            path.write_bytes(deep + b"\n" + digest_and_body(path)[1])
        else:
            write_table_file(path, sha256(deep), deep)
        fresh_memo.clear()
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            assert run("deep") == cold
        assert [r.getMessage() for r in caplog.records] == [f"cache char-5 {message}; rebuilding"]
        assert path.read_bytes() == true_file

    @pytest.mark.parametrize(
        "lam, other",
        [((5, 1), (4, 2)), ((5, 1), (2, 1, 1, 1, 1))],
        ids=["rows-of-two-dimensions", "conjugate-rows"],
    )
    def test_swapped_char_rows_rebuild(self, tmp_path, fresh_memo, caplog, capsys, lam, other):
        # a digest-valid char-6 of true rows in the wrong places: neither
        # swap is the rows the build computes, though the conjugate swap
        # keeps the dimensions, the twist and orthogonality
        commands = [["verify-flag", "--n", "6"], ["unimodal", "--n", "6"],
                    ["springer-scan", "--n-max", "6"]]

        def payloads(tag):
            found = []
            for k, argv in enumerate(commands):
                out = tmp_path / f"{tag}-{k}.json"
                assert run_cli(tmp_path, *argv, "--out", str(out)) == 0
                printed = capsys.readouterr()
                assert "status=pass" in printed.out and "error" not in printed.err, argv
                found.append(payload_bytes(json.loads(out.read_bytes())))
            return found

        cold = payloads("cold")
        path = tmp_path / "cache" / "char-6.json"
        true_file = path.read_bytes()
        _, body = digest_and_body(path)
        doc = json.loads(body)
        swap(doc["values"], *(doc["partitions"].index(format_partition(p)) for p in (lam, other)))
        body = json.dumps(doc, separators=(",", ":")).encode()
        write_table_file(path, sha256(body), body)
        fresh_memo.clear()
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            assert payloads("swapped") == cold
        assert [r.getMessage() for r in caplog.records] == ["cache char-6 is malformed; rebuilding"]
        assert path.read_bytes() == true_file

    @pytest.mark.parametrize(
        "edits",
        [
            # (3,2,1) is self-conjugate and (3,1,1,1) even, so the dimension
            # column, the transposition column and the twist all hold; read
            # warm, verify-flag passed with another payload and unimodal
            # found (3,2,1) not unimodal
            [((3, 2, 1), (3, 1, 1, 1), 18)],
            # (4,1,1) is odd, so the matching edit of the conjugate row keeps
            # the twist; read warm, it gave a log-concavity violation
            [((5, 1), (4, 1, 1), 8), ((2, 1, 1, 1, 1), (4, 1, 1), -8)],
        ],
        ids=["self-conjugate-row", "conjugate-rows"],
    )
    def test_forged_char_entries_rebuild(self, tmp_path, fresh_memo, caplog, capsys, edits):
        # a digest-valid char-6 with entries moved by n!/|C_rho|, so every
        # class sum stays integral: only the rows the build computes tell
        commands = [["verify-flag", "--n", "6", "--degrees", "all"], ["unimodal", "--n", "6"],
                    ["springer-scan", "--n-max", "6"]]

        def payloads(tag):
            found = []
            for k, argv in enumerate(commands):
                out = tmp_path / f"{tag}-{k}.json"
                assert run_cli(tmp_path, *argv, "--out", str(out)) == 0
                printed = capsys.readouterr()
                assert "status=pass" in printed.out and "error" not in printed.err, argv
                found.append(payload_bytes(json.loads(out.read_bytes())))
            return found

        cold = payloads("cold")
        path = tmp_path / "cache" / "char-6.json"
        true_file = path.read_bytes()
        _, body = digest_and_body(path)
        doc = json.loads(body)
        index = {lam: doc["partitions"].index(format_partition(lam)) for lam in partitions_of(6)}
        for lam, rho, delta in edits:
            doc["values"][index[lam]][index[rho]] += delta
        body = json.dumps(doc, separators=(",", ":")).encode()
        write_table_file(path, sha256(body), body)
        fresh_memo.clear()
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            assert payloads("forged") == cold
        assert [r.getMessage() for r in caplog.records] == ["cache char-6 is malformed; rebuilding"]
        assert path.read_bytes() == true_file

    @pytest.mark.parametrize(
        "lam, other",
        [((5, 1), (4, 2)), ((5, 1), (2, 1, 1, 1, 1))],
        ids=["rows-of-two-dimensions", "conjugate-rows"],
    )
    def test_swapped_graded_rows_rebuild(self, tmp_path, fresh_memo, caplog, capsys, lam, other):
        # a digest-valid graded-6 of true rows in the wrong places, with
        # springer-6 gone so that the sweep builds it against the graded
        # table: the row sums tell (5,1) from (4,2), and only the lowest
        # degree n(lam) tells (5,1) from its conjugate, since that swap
        # keeps the row sums, duality and the Betti columns
        def scan():
            out = tmp_path / "scan.json"
            assert run_cli(tmp_path, "springer-scan", "--n-max", "6", "--out", str(out)) == 0
            assert "error" not in capsys.readouterr().err
            return payload_bytes(json.loads(out.read_bytes()))

        def selftest():
            assert run_cli(tmp_path, "selftest", "--n-max", "6") == 0
            printed = capsys.readouterr()
            assert "error" not in printed.err
            return printed.out

        cold = [scan(), selftest()]
        path = tmp_path / "cache" / "graded-6.json"
        true_file = path.read_bytes()
        _, body = digest_and_body(path)
        doc = json.loads(body)
        swap(doc["b"], *(doc["partitions"].index(format_partition(p)) for p in (lam, other)))
        body = json.dumps(doc, separators=(",", ":")).encode()
        for run, expected in zip((scan, selftest), cold):
            write_table_file(path, sha256(body), body)
            (tmp_path / "cache" / "springer-6.json").unlink(missing_ok=True)
            fresh_memo.clear()
            caplog.clear()
            with caplog.at_level("WARNING", logger="coinvariant.store"):
                assert run() == expected
            messages = [r.getMessage() for r in caplog.records]
            assert messages == ["cache graded-6 is malformed; rebuilding"], run.__name__
            assert path.read_bytes() == true_file

    def test_unknown_kind(self, store):
        with pytest.raises(ValueError):
            store.get_or_build("bogus", 3)

    def test_build_refuses_an_unknown_kind_as_read_does(self, store):
        for route in (store.read, store.build):
            with pytest.raises(ValueError, match="^unknown cache kind 'bogus'$"):
                route("bogus", 3)
        assert not store.root.exists()

    def test_build_never_reads(self, store, fresh_memo, caplog):
        # a bad file is not read, so no warning: build writes over it
        reference = CacheStore(store.root.parent / "reference")
        reference.get_or_build("graded", 5)
        store.root.mkdir()
        path = store.root / "graded-5.json"
        path.write_bytes(b"not a table file\n")
        with caplog.at_level("WARNING", logger="coinvariant.store"):
            table = store.build("graded", 5)
        assert caplog.records == []
        assert fresh_memo[("graded", 5)] is table
        assert path.read_bytes() == (reference.root / "graded-5.json").read_bytes()
        assert store.digests() == reference.digests()

    def test_env_var_controls_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(tmp_path / "viaenv"))
        assert default_cache_dir() == tmp_path / "viaenv"


class TestSpringerCache:
    """The ``springer-n`` files the sweep reads before it forks and its
    workers write through ``CacheStore.build``, each as soon as its n is
    built."""

    def test_round_trip_every_type_up_to_8(self, tmp_path, fresh_memo):
        assert run_cli(tmp_path, "springer-scan", "--n-max", "8", "--jobs", "2") == 2
        store = CacheStore(tmp_path / "cache")
        built = CacheStore(tmp_path / "built")
        for n in range(1, 9):
            # read adopts its tables into the memo, so compare a fresh build
            assert fields(store.read("springer", n)) == fields(build_springer_tables(n)), n
            # the store's own build writes the entries the workers returned
            built.get_or_build("springer", n)
            name = f"springer-{n}.json"
            assert (built.root / name).read_bytes() == (store.root / name).read_bytes(), n

    def test_a_longer_sweep_writes_only_the_new_sizes(self, tmp_path, fresh_memo, monkeypatch):
        written = []
        write = CacheStore._write

        def recording_write(self, kind, n, body):
            written.append(f"{kind}-{n}")
            write(self, kind, n, body)

        monkeypatch.setattr(CacheStore, "_write", recording_write)
        # a forked worker's writes are not recorded here, so the cold sweep
        # maps inline, largest n first
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--jobs", "1") == 2
        assert [name for name in written if name.startswith("springer")] == [
            f"springer-{n}" for n in range(7, 0, -1)
        ]
        cache = tmp_path / "cache"
        files = {path.name: path.read_bytes() for path in cache.glob("springer-*.json")}
        written.clear()
        fresh_memo.clear()
        warm = tmp_path / "warm.json"
        assert run_cli(tmp_path, "springer-scan", "--n-max", "8", "--out", str(warm)) == 2
        assert written == ["char-8", "graded-8", "springer-8"]
        assert all((cache / name).read_bytes() == data for name, data in files.items())
        fresh_memo.clear()
        cold = tmp_path / "cold.json"
        assert cli.run([
            "springer-scan", "--n-max", "8", "--cache-dir", str(tmp_path / "other"),
            "--out", str(cold),
        ]) == 2
        assert payload_bytes(json.loads(warm.read_bytes())) == payload_bytes(
            json.loads(cold.read_bytes())
        )

    def test_reports_record_the_digest_of_every_file_the_workers_write(
        self, tmp_path, fresh_memo, pool_builds, monkeypatch
    ):
        # two CPUs, so --jobs 2 maps the cold sweep over a real pool
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for jobs, pools in (("1", 0), ("2", 1)):
            cache = tmp_path / jobs

            def recorded(run):
                fresh_memo.clear()
                out = tmp_path / f"{jobs}-{run}.json"
                argv = ["springer-scan", "--n-max", "7", "--jobs", jobs, "--out", str(out)]
                assert cli.run([*argv, "--cache-dir", str(cache)]) == 2
                return json.loads(out.read_bytes())["provenance"]["cache_digests"]

            cold = recorded("cold")
            assert len(pool_builds) == pools, jobs
            for n in range(1, 8):
                name = f"springer-{n}"
                assert cold[name] == digest_and_body(cache / f"{name}.json")[0], (jobs, name)
            assert recorded("warm") == cold, jobs

    def test_a_failure_in_the_pool_keeps_the_files_already_written(
        self, tmp_path, fresh_memo, pool_builds, capfd, monkeypatch
    ):
        calibrate = springer._calibrate

        def refuse_six(table, mu):
            if table.n == 6:
                raise AssertionError("calibration refused at n = 6")
            calibrate(table, mu)

        # the forked workers inherit both patches
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(springer, "_calibrate", refuse_six)
        cache = tmp_path / "cache"
        argv = ["springer-scan", "--n-max", "7", "--jobs", "2"]
        assert cli.run([*argv, "--cache-dir", str(cache)]) == 1
        assert len(pool_builds) == 1
        assert capfd.readouterr() == ("", "error [AssertionError]: calibration refused at n = 6\n")
        monkeypatch.undo()
        fresh_memo.clear()
        # the map yields n = 7 before the error of n = 6, so its file is
        # written; which smaller sizes ran before the pool stopped varies
        left = sorted(cache.glob("springer-*.json"))
        names = {path.name for path in left}
        assert "springer-7.json" in names and "springer-6.json" not in names
        store = CacheStore(cache)
        for path in left:
            n = int(path.stem.split("-")[1])
            assert fields(store.read("springer", n)) == fields(build_springer_tables(n)), path.name
        payloads = []
        for name in ("cache", "cold"):
            fresh_memo.clear()
            out = tmp_path / f"{name}.json"
            assert cli.run([*argv, "--cache-dir", str(tmp_path / name), "--out", str(out)]) == 2
            payloads.append(payload_bytes(json.loads(out.read_bytes())))
        assert payloads[0] == payloads[1]

    def test_memo_never_stands_in_for_a_missing_file(self, tmp_path, fresh_memo):
        def sweep(name):
            assert cli.run(["springer-scan", "--n-max", "7", "--cache-dir", str(tmp_path / name)]) == 2

        # the warm sweep on a leaves every springer table in the memo, where
        # the sweep on the empty b finds them, though not on its disk
        sweep("a")
        sweep("a")
        assert all(fresh_memo.get(("springer", n)) for n in range(1, 8))
        sweep("b")
        files = {
            name: {path.name: path.read_bytes() for path in (tmp_path / name).glob("springer-*.json")}
            for name in ("a", "b")
        }
        assert sorted(files["b"]) == sorted(f"springer-{n}.json" for n in range(1, 8))
        assert files["b"] == files["a"]

    def test_read_leaves_its_table_in_the_memo(self, tmp_path, fresh_memo):
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7") == 2
        fresh_memo.clear()
        store = CacheStore(tmp_path / "cache")
        for kind in ("char", "graded", "springer"):
            table = store.read(kind, 7)
            assert table is not None and fresh_memo.get((kind, 7)) is table, kind

    def test_cold_and_warm_payloads_identical_at_every_jobs(self, tmp_path, fresh_memo):
        payloads = set()
        for jobs in ("1", "2"):
            for run in ("cold", "warm"):
                fresh_memo.clear()
                out = tmp_path / f"{jobs}-{run}.json"
                argv = ["springer-scan", "--n-max", "8", "--jobs", jobs, "--out", str(out)]
                assert cli.run([*argv, "--cache-dir", str(tmp_path / jobs)]) == 2
                payloads.add(payload_bytes(json.loads(out.read_bytes())))
            files = sorted(path.name for path in (tmp_path / jobs).glob("springer-*.json"))
            assert files == sorted(f"springer-{n}.json" for n in range(1, 9))
        assert len(payloads) == 1

    def test_warm_workers_build_no_springer_table(self, tmp_path, fresh_memo, monkeypatch):
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--jobs", "1") == 2
        fresh_memo.clear()

        def refuse(key):
            raise AssertionError(f"built the table of {key} on a warm cache")

        monkeypatch.setattr(springer, "springer_graded_table", refuse)
        monkeypatch.setattr(springer, "build_springer_tables", refuse)
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--jobs", "1") == 2

    def test_warm_sweep_forks_nothing(self, tmp_path, fresh_memo, monkeypatch):
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--jobs", "2") == 2
        fresh_memo.clear()

        def refuse(*args, **kwargs):
            raise AssertionError("a warm sweep built a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--jobs", "2") == 2
        # with one file gone, only the types of that n are built, in the pool
        path = tmp_path / "cache" / "springer-7.json"
        data = path.read_bytes()
        path.unlink()
        fresh_memo.clear()
        mapped = []

        def inline_map(fn, items, jobs):
            mapped.append([n for n, _ in items])
            return [fn(item) for item in items]

        monkeypatch.setattr(springer, "parallel_map", inline_map)
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--jobs", "2") == 2
        assert mapped == [[7]]
        assert path.read_bytes() == data

    def test_library_search_writes_only_under_its_store(self, tmp_path, monkeypatch):
        work, env = tmp_path / "work", tmp_path / "env"
        work.mkdir()
        env.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(env))
        report = springer.springer_counterexample_search(7, CacheStore(tmp_path / "store"), jobs=1)
        assert [mu for mu, _ in report.counterexamples] == [(4, 1, 1, 1)]
        assert list(work.iterdir()) == [] and list(env.iterdir()) == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["env", "store", "work"]

    def test_library_sweep_writes_what_the_command_writes(self, tmp_path, fresh_memo):
        store = CacheStore(tmp_path / "a")
        springer.springer_counterexample_search(7, store=store)
        fresh_memo.clear()
        out = tmp_path / "scan.json"
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--out", str(out)) == 2
        files = {
            name: {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
            for name in ("a", "cache")
        }
        assert sorted(files["a"]) == sorted(
            [f"{kind}-{n}.json" for kind in ("char", "graded") for n in range(2, 8)]
            + [f"springer-{n}.json" for n in range(1, 8)]
        )
        assert files["a"] == files["cache"]
        assert store.digests() == json.loads(out.read_bytes())["provenance"]["cache_digests"]


class TestReportDocuments:
    def test_round_trip(self, store):
        doc = report_document("verify-flag", {"n": 4}, {"status": "pass"}, store)
        data = json.dumps(doc)
        assert json.loads(data) == doc

    def test_payload_bytes_exclude_provenance(self, store):
        a = report_document("x", {}, {"k": 1}, store)
        b = report_document("x", {}, {"k": 1}, store)
        b["provenance"]["generated_at"] = "someday"
        assert payload_bytes(a) == payload_bytes(b)


def run_cli(tmp_path, *args):
    return cli.run([*args, "--cache-dir", str(tmp_path / "cache")])


def json_reference(document: dict) -> bytes:
    """A JSON report as the generic encoder writes the whole document."""
    return (json.dumps(document, indent=2) + "\n").encode()


def csv_reference(entries: list[dict]) -> bytes:
    """A CSV report as csv.DictWriter writes the entry dicts, the columns
    in the order their keys first appear."""
    columns = list(dict.fromkeys(key for entry in entries for key in entry))
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    writer.writerows(entries)
    return buffer.getvalue().encode()


def negative_d(monkeypatch):
    """d_matrix with d[(n-1, 1)] at the lowest scanned degree set to -2."""
    compute = verify.d_matrix

    def skewed(n, degrees=None):
        matrix = compute(n, degrees)
        i = min(matrix)
        matrix[i] = (matrix[i][0], -2, *matrix[i][2:])
        return matrix

    monkeypatch.setattr(verify, "d_matrix", skewed)


def mirror_mismatch(monkeypatch):
    """d_matrix with d[(4, 1)][9] at n = 5 raised by one, so it no longer
    mirrors d[(4, 1)][1]."""
    compute = verify.d_matrix

    def skewed(n, degrees=None):
        matrix = compute(n, degrees)
        if n == 5:
            row = partitions_of(5).index((4, 1))
            matrix[9] = tuple(d + (k == row) for k, d in enumerate(matrix[9]))
        return matrix

    monkeypatch.setattr(verify, "d_matrix", skewed)


class TestReportWriter:
    """Report files are rendered row by row from each scan's own data; their
    bytes must be those of the generic encoders over the whole payload."""

    @pytest.mark.parametrize(
        "argv, report, skew, status",
        [
            (["verify-flag", "--n", "5", "--degrees", "all"],
             lambda: verify.verify_flag_log_concavity(5), None, "pass"),
            (["verify-flag", "--n", "6", "--degrees", "2,5"],
             lambda: verify.verify_flag_log_concavity(6, (2, 5)), None, "pass"),
            (["verify-flag", "--n", "5", "--degrees", "low:2"],
             lambda: verify.verify_flag_log_concavity(5, (1, 2, 8, 9)), negative_d, "fail"),
            (["unimodal", "--n", "5"], lambda: verify.verify_d_unimodality(5), None, "pass"),
            (["low-degree-harness", "--n-max", "6"],
             lambda: verify.low_degree_harness(6), None, "pass"),
            (["low-degree-harness", "--n-max", "6"],
             lambda: verify.low_degree_harness(6), mirror_mismatch, "fail"),
            (["springer-scan", "--n-max", "7"],
             lambda: springer.springer_counterexample_search(7, CacheStore()), None, "fail"),
        ],
        ids=["verify-flag-all", "verify-flag-subset", "verify-flag-violations", "unimodal",
             "low-degree-harness", "low-degree-harness-mirror", "springer-scan"],
    )
    def test_bytes_equal_the_reference_encoders(
        self, tmp_path, monkeypatch, argv, report, skew, status
    ):
        if skew is not None:
            skew(monkeypatch)
        # the sweep's default store writes beside the command's cache
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(tmp_path / "library"))
        report = report()
        assert report.status == status
        if status == "fail" and report.row_keys:
            assert report.payload()["violations"] or report.payload()["mirror_mismatches"]
        code = 0 if status == "pass" else 2
        out = tmp_path / "report.json"
        assert run_cli(tmp_path, *argv, "--out", str(out)) == code
        written = out.read_bytes()
        # the file's own provenance, the payload as payload() builds it
        assert written == json_reference({**json.loads(written), "payload": report.payload()})
        if report.row_keys:
            out = tmp_path / "report.csv"
            assert run_cli(tmp_path, *argv, "--out", str(out)) == code
            assert out.read_bytes() == csv_reference(report.payload()["entries"])

    def test_heads_needing_escapes_match_the_reference_encoders(self, tmp_path):
        # a head holding a JSON escape, a CSV quote and comma, and a literal %
        keys, rows = ("name", "i", "d"), [(('a%d,"b"\\',), [(1, -2), (3, 4)]), (("5",), [(6, 7)])]
        entries = [dict(zip(keys, (*head, *tail))) for head, tails in rows for tail in tails]
        document = report_document("x", {}, {"entries": [], "status": "pass"})
        write_report(tmp_path / "r.json", document, keys, rows)
        write_report(tmp_path / "r.csv", document, keys, rows)
        reference = {**document, "payload": {"entries": entries, "status": "pass"}}
        assert (tmp_path / "r.json").read_bytes() == json_reference(reference)
        assert (tmp_path / "r.csv").read_bytes() == csv_reference(entries)

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_files_follow_the_umask(self, tmp_path, umask, mode):
        outs = [tmp_path / "r.json", tmp_path / "r.csv"]
        old = os.umask(umask)
        try:
            for out in outs:
                assert run_cli(tmp_path, "verify-flag", "--n", "4", "--out", str(out)) == 0
        finally:
            os.umask(old)
        for path in [*outs, tmp_path / "cache" / "char-4.json"]:
            assert stat.S_IMODE(path.stat().st_mode) == mode, path

    @pytest.mark.parametrize(
        "error", [RuntimeError("stop"), OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))]
    )
    def test_a_write_that_fails_midway_keeps_the_old_file(self, tmp_path, error):
        # the chunks raise after the temp file has bytes in it: the target
        # keeps its old bytes, the temp file is gone, and an OS error names
        # the target
        path = tmp_path / "r.json"
        path.write_bytes(b"old")

        def chunks():
            yield b"new"
            raise error

        with pytest.raises(type(error)) as raised:
            _atomic_write(path, chunks())
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []
        if isinstance(error, OSError):
            assert raised.value.filename == str(path)


# the selftest suites that build the Springer tables of each n themselves,
# so that a failing build guard fails each of them
BUILDING_SUITES = (
    "Kostka-Foulkes calibration",
    "Kostka-Foulkes two-route agreement",
    "Springer d two-route agreement",
)


class TestCli:
    def test_fake_degrees_prints_polynomial(self, tmp_path, capsys):
        assert run_cli(tmp_path, "fake-degrees", "--n", "3", "--lambda", "2,1") == 0
        assert capsys.readouterr().out.strip() == "q + q^2"

    def test_fake_degrees_rejects_wrong_size(self, tmp_path, capsys):
        assert run_cli(tmp_path, "fake-degrees", "--n", "4", "--lambda", "2,1") == 1

    def test_fake_degrees_checks_the_char_cap_before_any_polynomial(
        self, tmp_path, capsys, monkeypatch
    ):
        def unformed(lam):
            raise AssertionError("fake degrees formed before the size cap")

        monkeypatch.setattr(graded, "fake_degree_hook", unformed)
        for n in ("400", "15", "0"):
            assert run_cli(tmp_path, "fake-degrees", "--n", n, "--lambda", n) == 1
            assert capsys.readouterr().err == (
                f"error [LimitExceeded]: char table size {n} outside [1, 14]\n"
            )
        monkeypatch.undo()
        argv = ["fake-degrees", "--n", "15", "--lambda", "15", "--max-n-override", "15"]
        assert run_cli(tmp_path, *argv) == 0
        assert capsys.readouterr().out == "1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fake-degrees", "--n", "3", "--lambda", "3,0"],
            ["fake-degrees", "--n", "4", "--lambda", "2,1"],
            ["kronecker", "--n", "3", "--lambda", "1,2", "--mu", "2,1", "--nu", "3"],
            ["kronecker", "--n", "3", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,2"],
        ],
    )
    def test_non_partition_is_one_error_line(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a partition" in err

    def test_kronecker_prints_integer(self, tmp_path, capsys):
        code = run_cli(
            tmp_path,
            "kronecker",
            "--n", "3",
            "--lambda", "2,1",
            "--mu", "2,1",
            "--nu", "2,1",
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_verify_flag_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(
            tmp_path, "verify-flag", "--n", "5", "--out", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "verify-flag"
        assert doc["payload"]["status"] == "pass"
        assert doc["payload"]["kind"] == "flag-lc"
        assert doc["provenance"]["cache_digests"]

    def test_springer_scan_violation_exit_code(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = run_cli(
            tmp_path, "springer-scan", "--n-max", "7", "--out", str(out)
        )
        assert code == 2
        payload = json.loads(out.read_text())["payload"]
        assert [c["mu"] for c in payload["counterexamples"]] == ["4,1,1,1"]

    def test_springer_scan_prints_every_witness(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        assert run_cli(tmp_path, "springer-scan", "--n-max", "8", "--out", str(out)) == 2
        witnesses = [
            f"    nu={w['nu']} i={w['i']} d={w['d']}"
            for c in json.loads(out.read_text())["payload"]["counterexamples"]
            for w in c["witnesses"]
        ]
        printed = [line for line in capsys.readouterr().out.splitlines() if "nu=" in line]
        assert len(witnesses) > 2
        assert printed == witnesses

    @pytest.mark.parametrize("target", ["missing/x.json", "a-directory"])
    def test_unwritable_out_names_the_path(self, tmp_path, capsys, target):
        # a missing parent directory, or a directory in the way of the file
        (tmp_path / "a-directory").mkdir()
        out = tmp_path / target
        assert run_cli(tmp_path, "verify-flag", "--n", "4", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert repr(str(out)) in err
        assert ".tmp" not in err

    def test_out_that_is_a_fifo_is_refused(self, tmp_path, capsys):
        # the report's rename would put a regular file where the FIFO was
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "report.fifo"
        os.mkfifo(out)
        assert run_cli(tmp_path, "verify-flag", "--n", "4", "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {str(out)!r} exists and is not a regular file\n"
        assert stat.S_ISFIFO(os.lstat(out).st_mode)
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, header, rows, report",
        [
            # five partitions of 4, five interior degrees
            (["verify-flag", "--n", "4"], "nu,i,d", 5 * 5,
             lambda: verify.verify_flag_log_concavity(4)),
            (["unimodal", "--n", "4"], "nu,i,d", 5 * 5, lambda: verify.verify_d_unimodality(4)),
            # the degree <= 3 and co-degree window is empty for n = 2, 1..2
            # for n = 3 (three partitions), 1..5 for n = 4 (five partitions)
            (["low-degree-harness", "--n-max", "4"], "n,nu,i,d", 31,
             lambda: verify.low_degree_harness(4)),
        ],
        ids=["verify-flag", "unimodal", "low-degree-harness"],
    )
    def test_csv_export(self, tmp_path, argv, header, rows, report):
        out = tmp_path / "report.csv"
        assert run_cli(tmp_path, *argv, "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
        assert out.read_bytes() == csv_reference(report().payload()["entries"])

    def test_csv_export_without_entries_is_refused(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "scan.csv"
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: this report has no entry rows to export as CSV; write JSON instead\n"
        )
        assert not out.exists()
        assert list(cache.iterdir()) == []

    @pytest.mark.parametrize("n_max", ["14", "20"])
    def test_springer_scan_above_cap(self, tmp_path, capsys, n_max):
        assert run_cli(tmp_path, "springer-scan", "--n-max", n_max) == 1
        err = capsys.readouterr().err
        assert err == f"error [LimitExceeded]: springer-scan n_max {n_max} above cap 13\n"

    def test_one_cap_governs_springer_scan(self, tmp_path, capsys, fresh_memo, monkeypatch):
        reference = tmp_path / "reference.json"
        argv = ["springer-scan", "--n-max", "7", "--cache-dir", str(tmp_path / "reference")]
        assert cli.run([*argv, "--out", str(reference)]) == 2
        # the sweep's char tables lie under the springer cap, not the char cap
        monkeypatch.setitem(cli.CAPS, "char", 5)
        monkeypatch.setitem(cli.CAPS, "springer", 7)
        fresh_memo.clear()
        out = tmp_path / "scan.json"
        assert run_cli(tmp_path, "springer-scan", "--n-max", "7", "--out", str(out)) == 2
        assert payload_bytes(json.loads(out.read_bytes())) == payload_bytes(
            json.loads(reference.read_bytes())
        )
        capsys.readouterr()
        assert run_cli(tmp_path, "verify-flag", "--n", "6") == 1
        assert capsys.readouterr().err == "error [LimitExceeded]: char table size 6 outside [1, 5]\n"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["springer-scan", "--n-max", "20"],
             "error [LimitExceeded]: springer-scan n_max 20 above cap 13"),
            (["low-degree-harness", "--n-max", "40"],
             "error [LimitExceeded]: low-degree-harness n_max 40 above cap 16"),
            (["selftest", "--n-max", "13"],
             "error [LimitExceeded]: kron table size 13 outside [1, 12]"),
            (["verify-flag", "--n", "6", "--degrees", "low:0"],
             "error: degree filter 'low:0' selects no interior degree of [1, 14]"),
            (["low-degree-harness", "--n-max", "3"], "error: n_max must be at least 4"),
            (["unimodal", "--n", "2"], "error: n must be at least 3"),
            *((["verify-flag", "--n", n], "error: n must be at least 3")
              for n in ("2", "1", "0", "-2")),
            *(
                ([*argv, "--out", "missing/r.json"],
                 "error: [Errno 2] No such file or directory: 'missing/r.json'")
                for argv in (
                    ["springer-scan", "--n-max", "8"],
                    ["verify-flag", "--n", "8"],
                    ["unimodal", "--n", "7"],
                    ["low-degree-harness", "--n-max", "9"],
                )
            ),
            *(
                ([*argv, "--out", "."], "error: [Errno 21] Is a directory: '.'")
                for argv in (["springer-scan", "--n-max", "6"], ["verify-flag", "--n", "6"])
            ),
            *(
                ([*argv, "--out", ""], "error: --out needs a file name")
                for argv in (["springer-scan", "--n-max", "6"], ["verify-flag", "--n", "5"])
            ),
        ],
        ids=["springer-scan", "low-degree-harness", "selftest", "verify-flag",
             "low-degree-harness-range", "unimodal-range", "verify-flag-n-2", "verify-flag-n-1",
             "verify-flag-n-0", "verify-flag-n-minus-2", "springer-scan-out",
             "verify-flag-out", "unimodal-out", "low-degree-harness-out",
             "springer-scan-out-dir", "verify-flag-out-dir",
             "springer-scan-out-empty", "verify-flag-out-empty"],
    )
    def test_refused_scan_leaves_no_table_file(
        self, tmp_path, capsys, monkeypatch, argv, error
    ):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        cache.mkdir()
        assert run_cli(tmp_path, *argv) == 1
        assert capsys.readouterr().err == error + "\n"
        assert list(cache.iterdir()) == []

    def test_max_n_override_raises_a_cap_and_a_warm_cache_keeps_it(self, tmp_path, capsys):
        argv = ["kronecker", "--n", "15", "--lambda", "15", "--mu", "15", "--nu", "15"]
        refusal = "error [LimitExceeded]: char table size 15 outside [1, 14]\n"
        assert run_cli(tmp_path, *argv) == 1
        assert capsys.readouterr().err == refusal
        assert run_cli(tmp_path, *argv, "--max-n-override", "15") == 0
        assert capsys.readouterr().out == "1\n"
        assert (tmp_path / "cache" / "char-15.json").exists()
        # the table is cached now, and the cap still holds without the flag
        assert run_cli(tmp_path, *argv) == 1
        assert capsys.readouterr() == ("", refusal)

    def test_harness_has_its_own_cap(self, tmp_path, capsys):
        # the harness builds no character table above n = 7, so the char
        # cap (14) does not bound it; its own cap does
        cache = tmp_path / "cache"
        assert run_cli(tmp_path, "low-degree-harness", "--n-max", "16") == 0
        assert "status=pass" in capsys.readouterr().out
        assert not cache.exists() or list(cache.iterdir()) == []
        assert run_cli(tmp_path, "low-degree-harness", "--n-max", "17") == 1
        assert capsys.readouterr().err == (
            "error [LimitExceeded]: low-degree-harness n_max 17 above cap 16\n"
        )

    def test_max_n_override_never_lowers_a_cap(self, tmp_path, capsys):
        assert run_cli(tmp_path, "verify-flag", "--n", "5", "--max-n-override", "3") == 0
        assert "status=pass" in capsys.readouterr().out

    def test_unimodal_above_kronecker_cap(self, tmp_path, capsys):
        assert run_cli(tmp_path, "unimodal", "--n", "13") == 0
        assert "status=pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-flag", "--n", "6"],
            ["unimodal", "--n", "5"],
            ["verify-flag", "--n", "6", "--degrees", "low:3"],
            ["springer-scan", "--n-max", "7"],
        ],
    )
    def test_scans_build_no_kronecker_table(self, tmp_path, argv):
        assert run_cli(tmp_path, *argv) in (0, 2)
        cache = tmp_path / "cache"
        assert list(cache.glob("char-*.json"))
        assert list(cache.glob("kron-*.json")) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-flag", "--n", "6"],
            ["unimodal", "--n", "5"],
            ["verify-flag", "--n", "6", "--degrees", "low:3"],
        ],
    )
    def test_flag_scans_read_and_write_no_graded_table(self, tmp_path, fresh_memo, argv):
        # graded characters come from their closed form: a cold cache gains
        # no graded file, and a cached one is not read
        n = argv[2]
        cache = tmp_path / "cache"
        out = tmp_path / "report.json"

        def digests():
            assert run_cli(tmp_path, *argv, "--out", str(out)) == 0
            return list(json.loads(out.read_text())["provenance"]["cache_digests"])

        assert digests() == [f"char-{n}"]
        assert list(cache.glob("graded-*.json")) == []
        # springer-scan still writes graded files
        assert run_cli(tmp_path, "springer-scan", "--n-max", "6") == 0
        assert (cache / f"graded-{n}.json").exists()
        fresh_memo.clear()
        assert digests() == [f"char-{n}"]

    @pytest.mark.parametrize("n", ["15", "6000", "99999999999999999999"])
    def test_verify_flag_checks_its_cap_before_the_degree_filter(
        self, tmp_path, capsys, monkeypatch, n
    ):
        def unparsed(text, top):
            raise AssertionError("degree filter parsed before the size cap")

        monkeypatch.setattr(verify, "parse_degree_filter", unparsed)
        assert run_cli(tmp_path, "verify-flag", "--n", n) == 1
        assert capsys.readouterr().err == (
            f"error [LimitExceeded]: char table size {n} outside [1, 14]\n"
        )
        assert not (tmp_path / "cache").exists() or list((tmp_path / "cache").iterdir()) == []

    def test_low_degree_harness_reads_and_writes_no_table_file(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "lowdeg.json"
        assert run_cli(tmp_path, "low-degree-harness", "--n-max", "6", "--out", str(out)) == 0
        assert list(cache.iterdir()) == []
        assert json.loads(out.read_text())["provenance"]["cache_digests"] == {}

    def test_low_degree_verify_flag_reads_and_writes_no_table_file(self, tmp_path, fresh_memo):
        # degrees 1 and 54 of n = 11 need only the rows with n - nu_1 <= 2,
        # so no char-11 is seeded; a warm char-11 gives the same payload
        argv = ["verify-flag", "--n", "11", "--degrees", "low:1"]
        cache = tmp_path / "cache"
        cache.mkdir()
        cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
        assert run_cli(tmp_path, *argv, "--out", str(cold)) == 0
        assert list(cache.iterdir()) == []
        document = json.loads(cold.read_text())
        assert document["provenance"]["cache_digests"] == {}
        CacheStore(cache).get_or_build("char", 11)
        fresh_memo.clear()
        assert run_cli(tmp_path, *argv, "--out", str(warm)) == 0
        assert payload_bytes(json.loads(warm.read_text())) == payload_bytes(document)

    def test_build_guard_is_one_error_line(self, tmp_path, capsys, monkeypatch, fresh_memo):
        # -E_mu of (3, 2) breaks only the diagonal of that column at n = 5
        weight = springer._hall_weight

        def negated(mu, phi):
            return -weight(mu, phi) if mu == (3, 2) else weight(mu, phi)

        monkeypatch.setattr(springer, "_hall_weight", negated)
        assert run_cli(tmp_path, "springer-scan", "--n-max", "5", "--jobs", "1") == 1
        assert capsys.readouterr() == (
            "", "error [AssertionError]: diagonal of mu=(3, 2) is not E_mu\n"
        )

    def test_empty_cache_dir_is_refused(self, tmp_path, capsys, monkeypatch):
        # the default directory is refused too, not read or written
        default = tmp_path / "default"
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(default))
        assert cli.run(["verify-flag", "--n", "5", "--cache-dir", ""]) == 1
        assert capsys.readouterr() == ("", "error: --cache-dir needs a directory name\n")
        assert not default.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fake-degrees", "--n", "5", "--lambda", ""],
            ["kronecker", "--n", "3", "--lambda", "", "--mu", "2,1", "--nu", "3"],
        ],
    )
    def test_empty_partition_is_named(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, *argv) == 1
        n = argv[2]
        assert capsys.readouterr() == (
            "", f"error: the empty partition is not a partition of {n}\n"
        )

    def test_unknown_flag_is_operational_error(self, tmp_path):
        assert cli.run(["verify-flag", "--n", "5", "--bogus"]) == 1

    def test_unknown_command(self):
        assert cli.run(["frobnicate"]) == 1

    def test_no_command_prints_help(self, capsys):
        assert cli.run([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_help_exits_zero(self):
        assert cli.run(["--help"]) == 0

    def test_selftest(self, tmp_path, capsys):
        assert run_cli(tmp_path, "selftest", "--n-max", "4") == 0
        out = capsys.readouterr().out
        assert "selftest Kostka-Foulkes two-route agreement: pass" in out.splitlines()
        assert "selftest Springer d two-route agreement: pass" in out.splitlines()
        assert "selftest Betti log-concavity: pass" in out.splitlines()
        assert "all suites pass" in out

    def test_selftest_reports_a_springer_d_disagreement(self, tmp_path, capsys, monkeypatch):
        # one d entry of the batch off by one, at the type (2, 1, 1) of n = 4
        batch = verify.d_matrices

        def skewed(tables):
            matrices = batch(tables)
            if tables and tables[0].n == 4:
                d = matrices[3][1]
                matrices[3][1] = (d[0] + 1, *d[1:])
            return matrices

        monkeypatch.setattr(verify, "d_matrices", skewed)
        assert run_cli(tmp_path, "selftest", "--n-max", "4") == 2
        lines = capsys.readouterr().out.splitlines()
        assert "selftest Springer d two-route agreement: FAIL" in lines
        assert lines[-1] == "selftest: 1 suite(s) FAILED"

    def test_selftest_reports_a_failing_build_guard(self, tmp_path, capsys, monkeypatch):
        calibrate = springer._calibrate

        def broken(table, mu):
            if table.n == 3:
                raise AssertionError(f"calibration broken for mu={mu}")
            calibrate(table, mu)

        monkeypatch.setattr(springer, "_calibrate", broken)
        assert run_cli(tmp_path, "selftest", "--n-max", "4") == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        # the three suites build the Springer tables themselves, so all three fail
        for suite in BUILDING_SUITES:
            assert f"selftest {suite}: FAIL" in lines
        assert lines[-1] == "selftest: 3 suite(s) FAILED"
        assert captured.err == "".join(
            f"selftest {suite}: calibration broken for mu=(3,)\n" for suite in BUILDING_SUITES
        )

    def test_selftest_reports_a_failing_kostka_foulkes_guard(self, tmp_path, capsys, monkeypatch):
        # -E_mu of (2, 1) breaks the diagonal of that column at n = 3
        weight = springer._hall_weight

        def negated(mu, phi):
            return -weight(mu, phi) if mu == (2, 1) else weight(mu, phi)

        monkeypatch.setattr(springer, "_hall_weight", negated)
        assert run_cli(tmp_path, "selftest", "--n-max", "4") == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        for suite in BUILDING_SUITES:
            assert f"selftest {suite}: FAIL" in lines
        assert lines[-1] == "selftest: 3 suite(s) FAILED"
        assert captured.err == "".join(
            f"selftest {suite}: diagonal of mu=(2, 1) is not E_mu\n" for suite in BUILDING_SUITES
        )

    def test_selftest_reports_a_route_disagreement(self, tmp_path, capsys, monkeypatch):
        charge_route = springer.kostka_foulkes_poly_by_charge

        def skewed(lam, mu):
            poly = charge_route(lam, mu)
            if (lam, mu) != ((3, 1), (2, 1, 1)):
                return poly
            # one more at q^1
            return IntPoly(c + (k == 1) for k, c in enumerate(poly.coeffs + (0, 0)))

        monkeypatch.setattr(springer, "kostka_foulkes_poly_by_charge", skewed)
        assert run_cli(tmp_path, "selftest", "--n-max", "4") == 2
        lines = capsys.readouterr().out.splitlines()
        assert "selftest Kostka-Foulkes two-route agreement: FAIL" in lines
        assert "selftest Kostka-Foulkes calibration: pass" in lines
        assert lines[-1] == "selftest: 1 suite(s) FAILED"

    def test_selftest_reports_a_calibration_disagreement(self, tmp_path, capsys, monkeypatch):
        # K(1) of every pair is the sum of its table row; one Kostka number
        # off by one fails the calibration suite alone
        count = audit.kostka_number

        def skewed(shape, content):
            return count(shape, content) + ((shape, content) == ((3, 1), (2, 1, 1)))

        monkeypatch.setattr(audit, "kostka_number", skewed)
        assert run_cli(tmp_path, "selftest", "--n-max", "4") == 2
        lines = capsys.readouterr().out.splitlines()
        assert "selftest Kostka-Foulkes calibration: FAIL" in lines
        assert "selftest Kostka-Foulkes two-route agreement: pass" in lines
        assert lines[-1] == "selftest: 1 suite(s) FAILED"

    def test_warm_and_cold_payloads_identical(self, tmp_path, fresh_memo):
        # one test over every scan command, each on its own cache directory;
        # the warm run uses only the tables it reads back
        for argv in (
            ["verify-flag", "--n", "5"],
            ["unimodal", "--n", "5"],
            ["low-degree-harness", "--n-max", "6"],
            ["springer-scan", "--n-max", "7"],
        ):
            cache = tmp_path / argv[0]
            payloads, codes = [], []
            for run in ("cold", "warm"):
                fresh_memo.clear()
                out = tmp_path / f"{argv[0]}-{run}.json"
                codes.append(cli.run([*argv, "--cache-dir", str(cache), "--out", str(out)]))
                payloads.append(payload_bytes(json.loads(out.read_text())))
            assert codes[0] == codes[1] in (0, 2), argv
            assert payloads[0] == payloads[1], argv

    def test_jobs_payloads_identical(self, tmp_path):
        out1 = tmp_path / "j1.json"
        out2 = tmp_path / "j2.json"
        assert (
            run_cli(
                tmp_path, "springer-scan", "--n-max", "7",
                "--jobs", "1", "--out", str(out1),
            )
            == 2
        )
        assert (
            run_cli(
                tmp_path, "springer-scan", "--n-max", "7",
                "--jobs", "2", "--out", str(out2),
            )
            == 2
        )
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert payload_bytes(a) == payload_bytes(b)

    def test_low_degree_harness_runs_in_one_process(self, tmp_path, pool_builds):
        out = tmp_path / "lowdeg.json"
        argv = ["low-degree-harness", "--n-max", "8", "--jobs", "2", "--out", str(out)]
        assert run_cli(tmp_path, *argv) == 0
        assert pool_builds == []
        document = json.loads(out.read_text())
        assert document["provenance"]["jobs"] == 2
        assert document["payload"]["status"] == "pass"

    def test_runs_that_never_fork_never_load_the_pool(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(coinvariant.__file__).parents[1])}
        script = (
            "import sys\n"
            "import coinvariant.cli\n"
            "status = coinvariant.cli.run(sys.argv[1:])\n"
            "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
            "print(status, sorted(loaded))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "verify-flag", "--n", "6", "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "0 []", done.stderr

    # the modules every scan's route runs; springer-scan adds its own two
    SCAN_ROUTE = {
        "cli", "store", "characters", "combinatorics", "polynomials",
        "verify", "memo", "errors", "parallel",
    }

    @pytest.mark.parametrize(
        "argv, route",
        [
            (["verify-flag", "--n", "5"], SCAN_ROUTE),
            (["unimodal", "--n", "5"], SCAN_ROUTE),
            (["low-degree-harness", "--n-max", "5"], SCAN_ROUTE),
            # one job: a cold sweep's pool imports concurrent.futures,
            # which loads logging itself
            (["springer-scan", "--n-max", "4", "--jobs", "1"], SCAN_ROUTE | {"springer", "graded"}),
        ],
        ids=["verify-flag", "unimodal", "low-degree-harness", "springer-scan"],
    )
    def test_each_command_loads_only_its_route(self, tmp_path, argv, route):
        """No Kronecker module on any scan, no graded or Springer module
        outside springer-scan, and neither dataclasses (with inspect) nor
        logging or csv, which only a table rebuild or a .csv report needs."""
        env = {**os.environ, "PYTHONPATH": str(Path(coinvariant.__file__).parents[1])}
        script = (
            "import sys\n"
            "import coinvariant.cli\n"
            "status = coinvariant.cli.run(sys.argv[1:])\n"
            "print(status, *sorted(sys.modules))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv, "--cache-dir", str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        status, *loaded = done.stdout.splitlines()[-1].split()
        assert status == "0", done.stderr
        package = {name.partition(".")[2] for name in loaded if name.startswith("coinvariant.")}
        assert package == route
        assert not {"dataclasses", "inspect", "logging", "csv"} & set(loaded)

    @pytest.mark.parametrize(
        "argv, status, loaded",
        [
            (["verify-flag", "--n", "6"], 0, False),
            (["unimodal", "--n", "5"], 0, False),
            (["low-degree-harness", "--n-max", "6"], 0, False),
            (["springer-scan", "--n-max", "7", "--jobs", "1"], 2, False),
            (["fake-degrees", "--n", "4", "--lambda", "2,1,1"], 0, False),
            (["kronecker", "--n", "4", "--lambda", "2,2", "--mu", "2,2", "--nu", "2,2"], 0, False),
            (["selftest", "--n-max", "3"], 0, True),
        ],
        ids=["verify-flag", "unimodal", "low-degree-harness", "springer-scan",
             "fake-degrees", "kronecker", "selftest"],
    )
    def test_only_selftest_loads_the_audit_module(self, tmp_path, argv, status, loaded):
        env = {**os.environ, "PYTHONPATH": str(Path(coinvariant.__file__).parents[1])}
        script = (
            "import sys\n"
            "import coinvariant.cli\n"
            "status = coinvariant.cli.run(sys.argv[1:])\n"
            "print(status, 'coinvariant.audit' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *argv, "--cache-dir", str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == f"{status} {loaded}", done.stderr

    def test_no_production_module_imports_the_audit_module(self):
        """The audit routes are reached from ``cli.cmd_selftest`` alone, by a
        function-level import; no other module imports ``audit`` anywhere."""

        def audit_imports(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.Import):
                    names = [alias.name for alias in child.names]
                elif isinstance(child, ast.ImportFrom):
                    names = [f"{child.module or ''}.{alias.name}" for alias in child.names]
                else:
                    names = []
                if any("audit" in name.split(".") for name in names):
                    yield scope
                inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                yield from audit_imports(child, f"{scope}.{child.name}" if inner else scope)

        package = Path(coinvariant.__file__).parent
        found = [
            scope
            for path in sorted(package.glob("*.py"))
            if path.name != "audit.py"
            for scope in audit_imports(ast.parse(path.read_text(), str(path)), path.stem)
        ]
        assert found == ["cli.cmd_selftest"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-flag", "--n", "6", "--degrees", "low:0"],
            ["verify-flag", "--n", "6", "--degrees", "low:-5"],
            ["springer-scan", "--n-max", "0"],
            ["selftest", "--n-max", "0"],
            ["selftest", "--n-max", "-1"],
            ["verify-flag", "--n", "5", "--jobs", "0"],
            ["verify-flag", "--n", "5", "--jobs", "-3"],
        ],
    )
    def test_scan_that_checks_nothing_is_rejected(self, tmp_path, capsys, argv):
        assert run_cli(tmp_path, *argv) == 1
        captured = capsys.readouterr()
        assert "status=pass" not in captured.out
        assert captured.err.startswith("error") and captured.err.count("\n") == 1

    def test_env_cache_dir_used_when_flag_absent(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COINVARIANT_CACHE_DIR", str(tmp_path / "envcache"))
        assert cli.run(["kronecker", "--n", "2", "--lambda", "2", "--mu", "2", "--nu", "2"]) == 0
        assert (tmp_path / "envcache" / "char-2.json").exists()


class TestConcurrentRuns:
    def test_cold_runs_share_one_cache_dir(self, tmp_path):
        """Several cold processes fill one cache directory at once."""
        env = {**os.environ, "PYTHONPATH": str(Path(coinvariant.__file__).parents[1])}
        for round_ in range(4):
            cache = tmp_path / f"cache-{round_}"
            outs = [tmp_path / f"flag-{round_}-{k}.json" for k in range(3)]
            commands = [["verify-flag", "--n", "7", "--out", str(out)] for out in outs]
            commands += [["selftest", "--n-max", "7"]] * 2
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "coinvariant", *command,
                     "--jobs", "1", "--cache-dir", str(cache)],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
                for command in commands
            ]
            errors = [proc.communicate(timeout=120)[1].decode() for proc in procs]
            assert [proc.returncode for proc in procs] == [0] * len(procs), errors
            payloads = {payload_bytes(json.loads(out.read_bytes())) for out in outs}
            assert len(payloads) == 1
            assert list(tmp_path.rglob("*.tmp")) == []

    def test_cold_springer_scans_share_one_cache_dir(self, tmp_path, caplog):
        """Several cold sweeps write the same springer-n files at once."""
        env = {**os.environ, "PYTHONPATH": str(Path(coinvariant.__file__).parents[1])}
        for round_ in range(3):
            cache = tmp_path / f"cache-{round_}"
            outs = [tmp_path / f"springer-{round_}-{k}.json" for k in range(4)]
            procs = [
                subprocess.Popen(
                    [sys.executable, "-m", "coinvariant", "springer-scan", "--n-max", "7",
                     "--out", str(out), "--jobs", "12"[k % 2], "--cache-dir", str(cache)],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
                for k, out in enumerate(outs)
            ]
            errors = [proc.communicate(timeout=120)[1].decode() for proc in procs]
            assert [proc.returncode for proc in procs] == [2] * len(procs), errors
            payloads = {payload_bytes(json.loads(out.read_bytes())) for out in outs}
            assert len(payloads) == 1
            assert list(tmp_path.rglob("*.tmp")) == []
            store = CacheStore(cache)
            with caplog.at_level("WARNING", logger="coinvariant.store"):
                assert all(store.read("springer", n) for n in range(1, 8))
            assert caplog.text == ""
