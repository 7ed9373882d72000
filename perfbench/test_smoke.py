"""Smoke test of the benchmark itself, at tiny problem sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SMOKE = ("flag_n6", "springer_n7", "lowdeg_n6")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), done.stdout


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", SMOKE)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, stdout = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    names = [metric["name"] for metric in config[section]]
    assert sorted(result["metrics"]) == sorted(names)
    lines = stdout.splitlines()
    for metric in config[section]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[2] == metric["unit"]
            for line in lines
        ), metric["name"]
    if trace == 0:
        assert any(line.split()[:3] == ["fail_ratio", "0.000000", "ratio"] for line in lines)


def test_wrong_reference_digest_fails_every_run():
    sys.path.insert(0, str(ROOT / "src"))
    run.WORK.mkdir(exist_ok=True)
    spec = copy.deepcopy(json.loads((BENCH / "workloads.json").read_text())["flag_n6"])
    spec["digest"] = "sha256:" + "0" * 64
    metrics, _, runs = run.measure("flag_n6", spec, seconds=0.1)
    assert metrics["fail_ratio"] == 1.0
    assert all("payload digest" in r.problems[0] for r in runs)
