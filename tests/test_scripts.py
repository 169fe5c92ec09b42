"""Smoke tests: each experiment script runs end to end at a tiny size."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, output", [
    ("make_dataset.py", ["--nodes", "120", "--out", "{tmp}"], "edges.txt"),
    ("make_dataset.py", ["--nodes", "120", "--score-mode", "ones", "--out", "{tmp}"],
     "node_weights.txt"),
    ("alpha_sweep.py", ["--nodes", "120", "--k", "3", "--epsilon", "0.5", "--out", "{tmp}"],
     "curve.csv"),
    # the alpha-1 greedy stops early, at 3 of 10 seeds
    ("alpha_sweep.py", ["--nodes", "12", "--k", "10", "--epsilon", "0.5", "--out", "{tmp}"],
     "curve.csv"),
    ("capital_fidelity.py", ["--nodes", "120", "--ks", "3", "--epsilon", "0.5", "--runs", "200",
                             "--out", "{tmp}/fidelity.csv"], "fidelity.csv"),
], ids=["make_dataset", "make_dataset_ones", "alpha_sweep", "alpha_sweep_early_stop",
       "capital_fidelity"])
def test_script_runs(tmp_path, script, args, output):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args]
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *argv],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / output).stat().st_size > 0
