"""Tests of the benchmark's output checker.

A real run passes; a 1e-6 relative change to one cell and a nonzero exit each
count as a failed run.  Run from the repository root:

    python3 -m pytest perfbench/test_checker.py
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import pytest

import checker
import oracle
import run
import workloads


def _small_qfi():
    """qfi-ch10 cut to 6 sites, so the qfi table check runs in a test."""
    wl = workloads.make("qfi-ch10", 3)
    argv = tuple("6" if a == "10" else a for a in wl.full.argv)
    return dataclasses.replace(wl, full=workloads.Command(argv, wl.full.temps),
                               params={**wl.params, "sites": 6})


WORKLOAD_CASES = {
    "fig2-ch8": lambda: workloads.make("fig2-ch8", 0),
    "fig1-2q": lambda: workloads.make("fig1-2q", 5),
    "qfi-6": _small_qfi,
}
# (workload, command, table, column) cells to perturb.
CELLS = [
    ("fig2-ch8", "setup", "out/qfi_vs_t.csv", 1),
    ("fig2-ch8", "setup", "out/qfi_vs_t.csv", 3),
    ("fig2-ch8", "setup", "out/comb.csv", 1),
    ("fig2-ch8", "setup", "out/comb.csv", 2),
    ("fig2-ch8", "setup", "out/decomposition.csv", 1),
    ("fig1-2q", "setup", "out/curve_low.csv", 1),
    ("fig1-2q", "setup", "out/curve_high.csv", 1),
    ("fig1-2q", "setup", "out/heatmap_fq.csv", 2),
    ("qfi-6", "full", "stdout.csv", 1),
    ("qfi-6", "full", "stdout.csv", 3),
]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real CLI run per (workload, command) used by the cases."""
    done = {}
    for name, kind in {(c[0], c[1]) for c in CELLS}:
        wl = WORKLOAD_CASES[name]()
        run_dir = tmp_path_factory.mktemp(name)
        argv = (wl.full if kind == "full" else wl.setup).argv
        rc, *_ = run.spawn([sys.executable, "-m", "qfidyn.cli", *argv], run_dir,
                           run.child_env(), timeout=120)
        done[name, kind] = (wl, oracle.expected(wl), run_dir, rc)
    return done


def _perturb(path, column, rel=1e-6):
    """Scale the largest cell of a column by 1 + rel, keeping the CLI's format."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    i = max(range(len(rows)), key=lambda r: abs(float(rows[r][column])))
    rows[i][column] = "%.12e" % (float(rows[i][column]) * (1 + rel))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


@pytest.mark.parametrize("name,kind", sorted({(c[0], c[1]) for c in CELLS}))
def test_real_run_passes(outputs, name, kind):
    wl, expected, run_dir, rc = outputs[name, kind]
    assert rc == 0
    assert checker.Checker(wl, expected).check(kind, run_dir, rc) is None


@pytest.mark.parametrize("name,kind,table,column", CELLS)
def test_perturbed_cell_fails(outputs, tmp_path, name, kind, table, column):
    wl, expected, run_dir, rc = outputs[name, kind]
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    _perturb(copy / table, column)
    assert checker.Checker(wl, expected).check(kind, copy, rc) is not None


def test_later_run_must_repeat_tables(outputs, tmp_path):
    wl, expected, run_dir, rc = outputs["fig2-ch8", "setup"]
    check = checker.Checker(wl, expected)
    assert check.check("setup", run_dir, rc) is None
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    _perturb(copy / "out/comb.csv", 1, rel=1e-11)
    assert "differs from an earlier run" in check.check("setup", copy, rc)


def test_nonzero_exit_fails(outputs):
    wl, expected, run_dir, _ = outputs["fig1-2q", "setup"]
    assert checker.Checker(wl, expected).check("setup", run_dir, 1) == "exit code 1"


def test_failing_command_is_a_failed_sample(tmp_path):
    wl = _small_qfi()
    bad = dataclasses.replace(wl, full=workloads.Command(wl.full.argv + ("--beta", "-1"),
                                                         wl.full.temps))
    bench = run.Bench(bad, run.time.perf_counter() + 120, tmp_path)
    sample = bench.sample("full")
    assert sample.problem is not None and sample.problem.startswith("exit code 2")
    _, lines = run.end_to_end(bad, [sample, bench.sample("full")])
    assert any("failed_frac" in line and "value=1.0000" in line for line in lines)
