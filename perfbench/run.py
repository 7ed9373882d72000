"""End-to-end benchmark of the coinvariant CLI.

    python3 perfbench/run.py --workload flag_n13 --seed 1 --seconds 30 --trace 0

Run from the repository root.  ``--workload all`` runs every workload named
in BENCHMARK.json, in an order drawn from the seed.

Each workload is a fixed CLI scan (see workloads.json).  One client runs it
as a closed loop: a CLI process starts only after the previous one exited.
A sample is a pair of runs on one fresh cache directory: a cold run on the
empty directory, then a warm run on the tables it wrote.  At least three
pairs run, then more until the next one would overrun ``--seconds``.  Inputs are fixed problem
sizes; the seed only permutes the order of runs and workloads.

Every run's report is checked: exit code, no traceback, the sha256 of its
payload equal to the reference recorded in workloads.json, and a semantic
check.  A failed run counts in ``fail_ratio``; it is never retried.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pair at ``--jobs 2``, one at ``--jobs 1`` and one traced pair at
``--jobs 1`` (perfbench/traced.py), and reports the per-layer metrics as
totals over the traced cold and warm run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
JOBS = 2
MIN_PAIRS = 3
PERCENTILES = (99.9, 99, 90, 50)


@dataclass
class Run:
    """One CLI process: its cost as wait4 saw it, and its check."""

    label: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    digest: str | None
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def check_run(spec: dict, exit_code: int, stderr: str, report: Path) -> tuple[str | None, list[str]]:
    """Output gate applied to every run: its payload digest and problems."""
    from coinvariant.store import payload_bytes

    problems = []
    if exit_code != spec["exit_code"]:
        problems.append(f"exit code {exit_code}, expected {spec['exit_code']}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        document = json.loads(report.read_bytes())
    except (OSError, ValueError) as exc:
        return None, problems + [f"unreadable report: {exc}"]
    digest = "sha256:" + hashlib.sha256(payload_bytes(document)).hexdigest()
    if digest != spec["digest"]:
        problems.append(f"payload digest {digest} != reference {spec['digest']}")
    problems += semantic_problems(spec["check"], document["payload"])
    return digest, problems


def semantic_problems(check: dict, payload: dict) -> list[str]:
    problems = []
    if "status" in check and payload.get("status") != check["status"]:
        problems.append(f"status {payload.get('status')!r}, expected {check['status']!r}")
    if "entries" in check and len(payload.get("entries", ())) != check["entries"]:
        problems.append(f"{len(payload.get('entries', ()))} entries, expected {check['entries']}")
    if "min_d" in check:
        min_d = min((e["d"] for e in payload.get("entries", ())), default=None)
        if min_d != check["min_d"]:
            problems.append(f"min_d {min_d}, expected {check['min_d']}")
    if "springer_types_up_to" in check:
        # the acceptance suite pins the counterexample types up to S_10
        n_max = min(check["springer_types_up_to"], payload["n_range"][1])
        expected = [mu for mu in known_springer_types() if sum(map(int, mu.split(","))) <= n_max]
        found = [c["mu"] for c in payload.get("counterexamples", ()) if c["n"] <= n_max]
        if found != expected:
            problems.append(f"counterexamples up to n={n_max} are {found}, expected {expected}")
    return problems


def known_springer_types() -> list[str]:
    source = (ROOT / "tests" / "test_acceptance.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "SPRINGER_COUNTEREXAMPLES" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("SPRINGER_COUNTEREXAMPLES not found in tests/test_acceptance.py")


def spawn(argv: list[str], env: dict, directory: Path) -> tuple[int, float, float, float, str]:
    """Run argv to exit; wall time from spawn to exit, CPU and max RSS from
    wait4 on this child (its reaped workers included)."""
    with open(directory / "stdout", "wb") as out, open(directory / "stderr", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (directory / "stderr").read_text(errors="replace")
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024, stderr


def child_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["COINVARIANT_CACHE_DIR"] = str(cache_dir)
    return env


def run_pair(name: str, spec: dict, jobs: int = JOBS, traced: bool = False) -> list[Run]:
    """Cold run on a fresh cache directory, then a warm run on its tables."""
    pair_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        cache_dir = pair_dir / "cache"
        env = child_env(cache_dir)
        runs = []
        for label in ("cold", "warm"):
            report = pair_dir / f"{label}.json"
            args = [*spec["argv"], "--jobs", str(jobs), "--cache-dir", str(cache_dir), "--out", str(report)]
            if traced:
                command = [sys.executable, str(BENCH / "traced.py"), str(WORK / f"{name}.{label}.spans.json"), *args]
            else:
                command = [sys.executable, "-m", "coinvariant", *args]
            code, wall, cpu, rss, stderr = spawn(command, env, pair_dir)
            digest, problems = check_run(spec, code, stderr, report)
            tag = f"{label} --jobs {jobs}{' traced' if traced else ''}"
            runs.append(Run(tag, wall, cpu, rss, digest, problems))
        return runs
    finally:
        shutil.rmtree(pair_dir, ignore_errors=True)


def percentile_note(values: list[float]) -> str:
    """The highest listed percentile with at least ten samples beyond it."""
    for p in PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p:g}={statistics.quantiles(values, n=1000)[int(p * 10) - 1]:.4f}"
    return "no percentile has ten samples beyond it"


def measure(name: str, spec: dict, seconds: float) -> tuple[dict, dict, list[Run]]:
    """Closed loop of cold/warm pairs; medians over pairs."""
    pairs = []
    started = time.perf_counter()
    while True:
        pair_started = time.perf_counter()
        pairs.append(run_pair(name, spec))
        now = time.perf_counter()
        if len(pairs) >= MIN_PAIRS and now - started + (now - pair_started) > seconds:
            break
    runs = [run for pair in pairs for run in pair]
    series = {
        "wall_s": [warm.wall_s for _, warm in pairs],
        "setup_s": [cold.wall_s for cold, _ in pairs],
        "cpu_s": [warm.cpu_s for _, warm in pairs],
        "peak_rss_mb": [max(cold.maxrss_mb, warm.maxrss_mb) for cold, warm in pairs],
    }
    metrics = {key: statistics.median(values) for key, values in series.items()}
    notes = {
        key: f"median of {len(values)} pairs; {percentile_note(values)}"
        for key, values in series.items()
    }
    failed = sum(run.failed for run in runs)
    metrics["fail_ratio"] = failed / len(runs)
    notes["fail_ratio"] = f"{failed} of {len(runs)} runs failed"
    return metrics, notes, runs


def layer_metrics(name: str, spec: dict, rng: random.Random) -> tuple[dict, dict, list[Run]]:
    """Per-layer totals over one traced pair at --jobs 1, plus the scaling
    and tracing-overhead figures from untraced pairs."""
    plan = [("jobs2", JOBS, False), ("jobs1", 1, False), ("traced", 1, True)]
    rng.shuffle(plan)
    pairs = {label: run_pair(name, spec, jobs, traced) for label, jobs, traced in plan}
    runs = [run for pair in pairs.values() for run in pair]
    for run in pairs["traced"]:
        untraced = {r.digest for label in ("jobs1", "jobs2") for r in pairs[label]}
        if {run.digest} != untraced:
            run.problems.append("traced payload digest differs from the untraced runs")

    traces = [json.loads((WORK / f"{name}.{label}.spans.json").read_text()) for label in ("cold", "warm")]

    def total(section: str, key: str) -> float:
        return sum(trace[section].get(key, 0) for trace in traces)

    pair_calls = total("calls", "kronecker.pair")
    metrics = {
        "characters.build_s": total("self_s", "characters.build"),
        "characters.validate_s": total("self_s", "characters.validate"),
        "characters.tables": total("calls", "characters.build"),
        "graded.build_s": total("self_s", "graded.build"),
        "graded.tables": total("calls", "graded.build"),
        "kronecker.build_s": total("self_s", "kronecker.build"),
        "kronecker.identities_s": total("self_s", "kronecker.identities"),
        "kronecker.entries": total("counts", "kronecker.entries"),
        "kronecker.pair_s": total("self_s", "kronecker.pair"),
        "kronecker.pair_calls": pair_calls,
        "kronecker.pair_computed": total("counts", "kronecker.pair_computed"),
        "kronecker.pair_hit_ratio": (
            1 - total("counts", "kronecker.pair_computed") / pair_calls if pair_calls else 0.0
        ),
        "verify.d_matrix_s": total("self_s", "verify.d_matrix"),
        "verify.tensor_vectors": total("counts", "verify.tensor_vectors"),
        "verify.d_entries": total("counts", "verify.d_entries"),
        "springer.table_s": total("self_s", "springer.table"),
        "springer.kf_s": total("self_s", "springer.kf"),
        "springer.kf_polys": total("counts", "springer.kf_polys"),
        "springer.types": total("counts", "springer.types"),
        "combinatorics.ssyt_s": total("self_s", "combinatorics.ssyt"),
        "combinatorics.ssyt_count": total("counts", "combinatorics.ssyt_count"),
        "combinatorics.charge_s": total("self_s", "combinatorics.charge"),
        "store.read_s": total("self_s", "store.read"),
        "store.bytes_read": total("counts", "store.bytes_read"),
        "store.hits": total("calls", "store.read"),
        "store.write_s": total("self_s", "store.write"),
        "store.bytes_written": total("counts", "store.bytes_written"),
        "store.builds": total("calls", "store.write"),
        "parallel.map_s": total("self_s", "parallel.map"),
        "parallel.tasks": total("counts", "parallel.tasks"),
        "parallel.arg_bytes": total("counts", "parallel.arg_bytes"),
        "parallel.speedup": pairs["jobs1"][1].wall_s / pairs["jobs2"][1].wall_s,
        "cli.import_s": sum(trace["import_s"] for trace in traces),
        "cli.report_s": total("self_s", "cli.report"),
        "cli.report_bytes": total("counts", "cli.report_bytes"),
        "trace.overhead_s": sum(r.wall_s for r in pairs["traced"]) - sum(r.wall_s for r in pairs["jobs1"]),
    }
    notes = {key: "should move: " + (", ".join(spec.get("moves", {}).get(key, ())) or "-") for key in metrics}
    return metrics, notes, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coinvariant" / "__init__.py").is_file():
        print(f"error: no coinvariant sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH / "workloads.json").read_text())
    if args.workload == "all":
        names = [w["name"] for w in config["workloads"]]
    elif args.workload in workloads:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)} or all")
    rng = random.Random(args.seed)
    rng.shuffle(names)
    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    units["fail_ratio"] = "ratio"
    reported = [m["name"] for m in config["per_layer" if args.trace else "end_to_end"]]

    WORK.mkdir(exist_ok=True)
    # compile the package once, so no timed run pays for bytecode
    subprocess.run([sys.executable, "-m", "coinvariant", "--help"], env=child_env(WORK / "cache"),
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    print(f"argv {sys.argv}")
    print(f"python {sys.version.split()[0]} nproc {os.cpu_count()} jobs {JOBS} seed {args.seed} "
          f"workloads {names}")

    metrics: dict = {}
    runs: list[Run] = []
    for name in names:
        spec = workloads[name]
        print(f"workload {name}: coinvariant {' '.join(spec['argv'])} --jobs N --cache-dir D --out R")
        if args.trace:
            values, notes, done = layer_metrics(name, spec, rng)
        else:
            values, notes, done = measure(name, spec, args.seconds)
        for key, value in values.items():
            print(f"  {key:<26} {value:>18.6f} {units[key]:<6} {notes[key]}")
        for run in done:
            print(f"  run {run.label}: wall {run.wall_s:.4f} s, cpu {run.cpu_s:.4f} s, "
                  f"max rss {run.maxrss_mb:.1f} MB{'' if run.failed else ', ok'}")
            for problem in run.problems:
                print(f"  FAILED {run.label} run: {problem}")
        runs += done
        prefix = f"{name}." if len(names) > 1 else ""
        for key in reported:
            metrics[prefix + key] = {"value": values[key], "unit": units[key]}
    failed = sum(run.failed for run in runs)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
