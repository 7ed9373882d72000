"""Production is what the commands run.

One subprocess runs the command lines of ``COMMANDS`` through ``cli.run``,
each cold and then warm on one cache, plus a rerun on a corrupted
``char-7`` file, a bad-input run and a run that takes its cache directory
from the environment, all under ``sys.setprofile``, which is set before
the package is imported so that import-time calls count.  Every function
that ``ast`` finds in a production module (every module but ``audit.py``)
and that no run called must be in ``ALLOWLIST`` with its reason, and
every entry there must be such a function: a new function that no command
runs fails the test, and so does one that a command starts running until
its entry goes.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import coinvariant

PACKAGE = Path(coinvariant.__file__).parent

GUARD = "guard: immutability"
ENTRY = "entry point"
PINNED = "pinned by perfbench/traced.py (ROADMAP item 1)"

ALLOWLIST = {
    # guards
    "characters.CharacterTable.__setattr__": GUARD,
    "graded.GradedMultiplicityTable.__setattr__": GUARD,
    "polynomials.IntPoly.__setattr__": GUARD,
    "verify.ScanReport.__setattr__": GUARD,
    # entry points
    "cli.main": ENTRY + ": the console script and python -m coinvariant",
    "cli.cmd_selftest": ENTRY + ": selftest, which reaches the audit module",
    "cli.cmd_selftest.check": ENTRY + ": one selftest suite",
    # pinned by perfbench/traced.py
    "characters.CharacterTable.decompose": PINNED,
    "combinatorics.charge": PINNED,
    "combinatorics.enumerate_ssyt": PINNED,
    "combinatorics.enumerate_ssyt.place": PINNED,
    "combinatorics.reading_word": PINNED,
    "kronecker.KroneckerTable.coefficient": PINNED,
    "kronecker.KroneckerTable.index": PINNED,
    "kronecker.KroneckerTable.pair_vector": PINNED,
    "kronecker.KroneckerTable.partitions": PINNED,
    "kronecker.OnDemandKronecker.coefficient": PINNED,
    "kronecker.OnDemandKronecker.pair_vector": PINNED,
    "kronecker.build_kronecker_table": PINNED,
    "kronecker.kronecker_table": PINNED,
    "kronecker.verify_kronecker_identities": PINNED,
    "springer.kostka_foulkes_poly": PINNED,
    "springer.kostka_foulkes_poly_by_charge": PINNED,
    "springer.springer_graded_table": PINNED,
    "springer.springer_tables": PINNED,
    "springer.verify_springer_log_concavity": PINNED,
    "store._kron_doc": PINNED,
    "store._kron_from_doc": PINNED,
    "verify.tensor_multiplicity_vector": PINNED,
    # contracts
    "polynomials.IntPoly.__eq__": "contract: the audits compare polynomials with ==",
    "polynomials.IntPoly.__repr__": "contract: the printed form of a polynomial in a failure",
    "store.payload_bytes": "contract: CI's same_payload compares reports with it",
}

# (argv, exit status), each run cold and then warm on one cache
COMMANDS = [
    (["fake-degrees", "--n", "4", "--lambda", "2,1,1"], 0),
    (["kronecker", "--n", "4", "--lambda", "2,2", "--mu", "3,1", "--nu", "2,1,1"], 0),
    (["verify-flag", "--n", "7", "--degrees", "all", "--out", "{out}/flag-7.json"], 0),
    (["verify-flag", "--n", "9", "--degrees", "low:1", "--out", "{out}/flag-9.csv"], 0),
    (["unimodal", "--n", "7", "--out", "{out}/unimodal-7.json"], 0),
    (["low-degree-harness", "--n-max", "8", "--out", "{out}/low-degree-8.csv"], 0),
    # one job: the sweep's workers run in this process, where the profile sees them
    (["springer-scan", "--n-max", "8", "--jobs", "1", "--out", "{out}/springer-8.json"], 2),
]

SCRIPT = """
import json, sys

calls = set()

def profile(frame, event, arg):
    if event == "call":
        calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import os
from pathlib import Path
from coinvariant import cli

plan = json.loads(sys.argv[1])
work = Path(sys.argv[2])
cache = str(work / "cache")
statuses = []
for argv, _ in plan + plan:
    argv = [arg.replace("{out}", str(work)) for arg in argv]
    statuses.append(cli.run([*argv, "--cache-dir", cache]))
# a corrupted char-7 file: the warning, then the rebuild
path = work / "cache" / "char-7.json"
path.write_bytes(path.read_bytes()[:-2])
statuses.append(cli.run(["verify-flag", "--n", "7", "--cache-dir", cache]))
# bad input
statuses.append(cli.run(["verify-flag", "--n", "2", "--cache-dir", cache]))
# the cache directory from the environment
os.environ["COINVARIANT_CACHE_DIR"] = cache
statuses.append(cli.run(["unimodal", "--n", "5"]))
sys.setprofile(None)
package = str(Path(cli.__file__).parent)
reached = sorted(c for c in calls if c[0].startswith(package))
print(json.dumps({"statuses": statuses, "reached": reached}))
"""


def production_functions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every function defined in a
    production module, nested ones included; a decorated function starts
    at its first decorator line, as its code object does."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), line)] = name
                visit(child, path, name)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "audit.py":
            visit(ast.parse(path.read_text()), path, path.stem)
    return found


def test_every_production_function_runs_or_is_allowlisted(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("COINVARIANT_CACHE_DIR", None)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(COMMANDS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    expected = [status for _, status in COMMANDS] * 2 + [0, 1, 0]
    assert result["statuses"] == expected, done.stderr
    # the corrupted char-7 file was reported once and rebuilt
    assert done.stderr.count("cache char-7 failed its digest; rebuilding") == 1, done.stderr
    functions = production_functions()
    reached = {tuple(call) for call in result["reached"]}
    unreached = {name for key, name in functions.items() if key not in reached}
    assert unreached == set(ALLOWLIST), (
        f"run by no command, not allowlisted: {sorted(unreached - set(ALLOWLIST))}; "
        f"allowlisted, but now run: {sorted(set(ALLOWLIST) - unreached)}"
    )


def test_every_allowlist_entry_has_a_reason():
    assert all(isinstance(reason, str) and reason.strip() for reason in ALLOWLIST.values())
