"""Smoke tests of the scripts under scripts/: each runs in a fresh process
in a temporary directory, and its exit code and output rows are checked."""

import csv
import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _run(name, *args, cwd):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args], cwd=cwd,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_analytic_vs_sim_script(tmp_path):
    out = _run("analytic_vs_sim.py", "--slots", "20000", "--out", "cmp.csv", cwd=tmp_path)
    rows = _rows(tmp_path / "cmp.csv")
    assert len(rows) == 11
    assert all(r["error"] == "" for r in rows)
    assert out.startswith("11/11 points -> cmp.csv")


def test_reproduce_figures_script(tmp_path):
    out = _run("reproduce_figures.py", "--outdir", "results", cwd=tmp_path)
    for name, n in (("fig2", 84), ("fig3", 30), ("fig4", 63), ("fig5", 84)):
        rows = _rows(tmp_path / "results" / f"{name}.csv")
        assert len(rows) == n and all(r["error"] == "" for r in rows)
        assert f"{name}: {n} rows" in out
