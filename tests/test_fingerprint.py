"""``tools/fingerprint.py``: the byte-identity check of seeded outputs.

A tree must fingerprint equal to itself, so that a difference between two
trees means their outputs differ, not that the tool is unstable.
"""

import json
import sys
from pathlib import Path

import pytest

import zonewton

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = Path(zonewton.__file__).resolve().parent.parent


@pytest.fixture
def fingerprint(monkeypatch):
    # Import without leaving bytecode in the tools directory.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(TOOLS))
    import fingerprint
    return fingerprint


def test_a_tree_fingerprints_equal_to_itself(fingerprint):
    subset = dict(runs=["run-d10-r10", "run-budget5", "fedrun-budget5"],
                  run_seeds=[0], gates=["lemma1", "stopping"],
                  gate_seeds=[1])
    first = fingerprint.fingerprint(SRC, **subset)
    assert sorted(first) == sorted(
        [f"run/{name}/seed0/{part}" for name in subset["runs"]
         for part in ("csv", "stdout", "stderr", "exit")]
        + ["gate/lemma1/seed1", "gate/stopping/seed1"])
    assert len(set(first.values())) > 1
    assert fingerprint.compare(first, fingerprint.fingerprint(SRC, **subset)) \
        == []


def test_compare_lists_each_key_that_differs(fingerprint, tmp_path, capsys):
    a = {"gate/rate/seed0": "1", "run/run-default/seed0/csv": "2",
         "run/run-default/seed0/exit": "3"}
    b = {"gate/rate/seed0": "9", "run/run-default/seed0/exit": "3",
         "run/run-r25/seed0/exit": "4"}
    assert fingerprint.compare(a, b) == [
        "differs: gate/rate/seed0", "only in A: run/run-default/seed0/csv",
        "only in B: run/run-r25/seed0/exit"]
    paths = []
    for name, prints in (("a.json", a), ("b.json", b)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(prints))
    assert fingerprint.main(["--compare", *map(str, paths)]) == 1
    assert fingerprint.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 3 keys differ"
