"""Fuzzed command lines: every argv of the grammar below exits 0, 1 or 2
with no traceback, and a run that exits 1 leaves its cache directory as
it found it."""

import contextlib
import io
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, event, given, settings, strategies as st

from coinvariant import cli
from coinvariant.combinatorics import format_partition, partitions_of

# each subcommand with its size flag and the cap that bounds that size:
# selftest's n-max is bounded by the Kronecker-table cap
COMMANDS = {
    "fake-degrees": ("--n", cli.CAPS["char"]),
    "kronecker": ("--n", cli.CAPS["char"]),
    "verify-flag": ("--n", cli.CAPS["char"]),
    "unimodal": ("--n", cli.CAPS["char"]),
    "low-degree-harness": ("--n-max", cli.CAPS["harness"]),
    "springer-scan": ("--n-max", cli.CAPS["springer"]),
    "selftest": ("--n-max", cli.CAPS["kron"]),
}
PARTITION_FLAGS = {"fake-degrees": ("--lambda",), "kronecker": ("--lambda", "--mu", "--nu")}
REPORTING = {"verify-flag", "unimodal", "low-degree-harness", "springer-scan"}

# partition texts: empty, negative, zero, non-digit and unordered parts
partition_texts = st.lists(
    st.sampled_from(["-1", "0", "1", "2", "3", "4", "x", ""]), max_size=4
).map(",".join)
degree_filters = st.sampled_from(
    ["all", "low:-1", "low:0", "low:1", "low:3", "1", "1,2", "0", "2,1,2", "1,99", "x", ""]
)
maybe = st.booleans()
# a required flag is left out one time in eight: argparse then refuses it.
# Below, each list of choices starts with valid ones, which hypothesis
# tries first.
mostly = st.integers(0, 7).map(lambda k: k < 7)


def sizes(cap: int):
    """-3 .. 7, the cap plus one and 10^6, never the cap itself, so no
    example runs long."""
    return st.sampled_from([*range(3, 8), *range(-3, 3), cap + 1, 10**6])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(list(COMMANDS)))
    flag, cap = COMMANDS[command]
    argv = [command]
    n = draw(sizes(cap))
    if draw(mostly):
        argv += [flag, str(n)]
    # a partition of a small n, or a fuzzed text
    texts = partition_texts
    if 1 <= n <= 7:
        texts = st.one_of(st.sampled_from(list(map(format_partition, partitions_of(n)))), texts)
    for name in PARTITION_FLAGS.get(command, ()):
        if draw(mostly):
            argv += [name, draw(texts)]
    if command == "verify-flag" and draw(maybe):
        argv += ["--degrees", draw(degree_filters)]
    out = draw(st.sampled_from(["new", "new-csv", "file", "missing", "dir", "under-file", "empty"]))
    cache = draw(st.sampled_from(["dir", "missing", "file", "empty"]))
    if draw(maybe):
        argv += ["--jobs", str(draw(st.sampled_from([1, 2, -1, 0])))]
    if draw(maybe):
        # below every cap, so it never raises one
        argv += ["--max-n-override", str(draw(st.integers(-3, 7)))]
    return argv, out if command in REPORTING and draw(maybe) else None, cache


def out_path(root: Path, kind: str) -> str:
    """A report path of ``kind`` under ``root``: a new JSON or CSV file, one
    in a directory that does not exist or under a file, an existing
    directory or file, or ""."""
    (root / "out-dir").mkdir()
    (root / "out-file").write_text("an old report\n")
    return {
        "new": str(root / "report.json"),
        "new-csv": str(root / "report.csv"),
        "missing": str(root / "missing" / "report.json"),
        "dir": str(root / "out-dir"),
        "file": str(root / "out-file"),
        "under-file": str(root / "out-file" / "report.json"),
        "empty": "",
    }[kind]


def cache_path(root: Path, kind: str) -> Path | None:
    """A cache directory of ``kind`` under ``root``: missing, an empty
    directory, a file, or None for an empty ``--cache-dir``."""
    if kind == "empty":
        return None
    path = root / "cache"
    if kind == "dir":
        path.mkdir()
    elif kind == "file":
        path.write_text("not a directory\n")
    return path


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_argv_exits_cleanly(case):
    argv, out, cache = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = cache_path(root, cache)
        argv = [*argv, "--cache-dir", "" if path is None else str(path)]
        if out is not None:
            argv += ["--out", out_path(root, out)]
        # an empty --cache-dir is refused, so the default directory, here
        # under root, must be left as it was
        default = root / "default-cache"
        watched = default if path is None else path
        err = io.StringIO()
        with mock.patch.dict(os.environ, {"COINVARIANT_CACHE_DIR": str(default)}), \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        event(f"{argv[0]} exit {code}")
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue(), argv
        if code == 1:
            # a refused or failed run wrote no table file
            if watched.is_dir():
                assert not any(watched.iterdir()), argv
            elif cache == "file":
                assert watched.read_text() == "not a directory\n", argv
            else:
                assert not watched.exists(), argv
