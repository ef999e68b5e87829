"""``tools/interleave.py``: the in-process A/B timing of two source trees.

It must time a tree against itself, refuse two trees whose outputs differ
before it times anything, and time what ``perfbench`` times.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import zonewton

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"
SRC = Path(zonewton.__file__).resolve().parent.parent


@pytest.fixture
def modules(monkeypatch):
    """The tool and perfbench's workloads, imported without leaving
    bytecode in either directory."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import interleave
    import workloads
    return interleave, workloads


def _interleave(a, b, *args, cpus=None):
    """Run the tool; with ``cpus``, from a child that sets its affinity set
    to ``cpus`` and then execs it."""
    command = [sys.executable, "-B", str(TOOL), str(a), str(b), *args]
    if cpus is not None:
        command = [sys.executable, "-c",
                   "import os, sys; "
                   f"os.sched_setaffinity(0, {sorted(cpus)}); "
                   "os.execv(sys.argv[1], sys.argv[1:])", *command]
    return subprocess.run(command, capture_output=True, text=True)


def test_a_tree_times_against_itself():
    proc = _interleave(SRC, SRC, "--gates", "linear", "--d", "3",
                       "--seed", "1", "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == ["A", "B", "median",
                                                      "B"]
    assert lines[3].endswith(" of 2 pairs")
    proc = _interleave(SRC, SRC, "--workload", "quadratic", "--d", "5",
                       "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    proc = _interleave(SRC, SRC, "--workload", "fed", "--seed", "1",
                       "--pairs", "2")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload, args", [
    ("gates", ["--gates", "linear", "--d", "3", "--seed", "1"]),
    ("quadratic", ["--d", "5", "--seed", "0"])])
@pytest.mark.parametrize("count", [None, 1, 2])
def test_an_unpinned_run_warns(workload, args, count):
    # a child inherits this process's affinity set unless given ``count``
    # of its CPUs: one CPU suits the gates, two a workload with a helper
    cpus = os.sched_getaffinity(0)
    if count is not None:
        cpus = set(sorted(cpus)[:count])
    proc = _interleave(SRC, SRC, "--workload", workload, *args, "--pairs",
                       "1", cpus=None if count is None else cpus)
    assert proc.returncode == 0, proc.stderr
    warnings = [line for line in proc.stderr.splitlines()
                if line.startswith("warning: ")]
    if workload == "gates":
        assert len(warnings) == (len(cpus) > 1)
        assert all(line.startswith("warning: unpinned") for line in warnings)
    else:
        assert len(warnings) == (len(cpus) != 2)
        assert all("taskset -c 0,1" in line for line in warnings)
    assert len(proc.stdout.splitlines()) == 4


def test_trees_with_different_outputs_are_refused(tmp_path):
    shutil.copytree(SRC / "zonewton", tmp_path / "zonewton",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "zonewton" / "solver.py"
    text = solver.read_text()
    step = "x_new = x - alpha * direction"
    assert step in text
    solver.write_text(text.replace(step, "x_new = x - 0.95 * alpha * direction"))
    proc = _interleave(SRC, tmp_path, "--gates", "linear", "--d", "3",
                       "--seed", "1", "--pairs", "2")
    assert proc.returncode == 1
    assert "different outputs at seed 1" in proc.stderr
    assert proc.stdout == ""


def test_the_gates_are_perfbenchs_verify_gates(modules, monkeypatch):
    interleave, workloads = modules
    calls = []
    for function, _ in interleave.GATES.values():
        def record(function=function, **kwargs):
            calls.append((function, kwargs))
            return function
        monkeypatch.setattr(workloads.experiments, function, record)
    out = workloads.VerifyGates(7).solve(
        None, None, 7, lambda fn, *args, **kwargs: fn(*args, **kwargs))
    # every gate perfbench runs is one of the tool's, at the same arguments
    assert out.reports == [function for function, _ in calls]
    assert calls == [(function, dict(kwargs, seed=7))
                     for function, kwargs in interleave.GATES.values()]


def test_the_quadratic_solve_is_perfbenchs(modules):
    interleave, workloads = modules
    bench = workloads.Quadratic(0)
    built = bench._build()
    want = bench._solve(built, bench.reference(built), 3).records
    got = interleave.quadratic_workload(zonewton, bench.d)(3)
    assert len(want) > 1
    assert interleave._pin(got) == interleave._pin(want)


def test_the_logistic_solve_is_perfbenchs(modules):
    interleave, workloads = modules
    bench = workloads.Logistic(0)
    want = bench.solve(bench._build(), None, 1,
                       lambda fn, *args: fn(*args)).trace.records
    got = interleave.logistic_workload(zonewton)(1)
    assert len(want) > 1
    assert interleave._pin(got) == interleave._pin(want)


def test_the_federated_solve_is_perfbenchs(modules):
    interleave, workloads = modules
    bench = workloads.FedLogistic(0)
    want = bench.solve(bench._build(), None, 1,
                       lambda fn, *args: fn(*args)).trace.records
    got = interleave.fed_workload(zonewton)(1)
    assert len(want) > 1
    assert interleave._pin(got) == interleave._pin(want)
