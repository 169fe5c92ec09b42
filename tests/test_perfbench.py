"""The benchmark's own calls: a divtim change that breaks ``perfbench`` fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _bench(*argv: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), *argv,
                           "--seed", "1", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["failed"] == 0, lines[-1]
    return lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_without_failures(workload):
    _bench("--workload", workload)


def test_traced_benchmark_run_finds_what_the_tracer_wraps():
    lines = _bench("--workload", "select-hamming", "--trace", "1")
    info = json.loads(next(line for line in lines if line.startswith("info: "))[len("info: "):])
    # the three names of functions that the one RR stream replaced, and the two
    # TIM+ stages that OPIM-C's stopping rule replaced
    assert info["absent"] == ["divtim.estimator.generate_rr_set",
                              "divtim.estimator.kpt_estimation", "divtim.estimator.refine_kpt",
                              "divtim.estimator.stream", "divtim.sampler.generate_rr_set"]
