"""Fingerprint the seeded outputs of a zonewton source tree.

    python tools/fingerprint.py SRC OUT
    python tools/fingerprint.py --compare A B

The first form runs the package under SRC (the directory that holds
``zonewton``) in a child process with ``PYTHONPATH=SRC`` and
``OPENBLAS_NUM_THREADS=1``, and writes OUT: a JSON object from output key to
SHA-256 digest. The keys are

- ``run/<flag set>/seed<k>/{csv,stdout,stderr,exit}``: the CSV trace, the
  stdout (output path masked), the stderr and the exit code of one
  ``zonewton run`` or ``fedrun`` call, made in-process through
  ``zonewton.cli.main`` with ``--seed k``;
- ``gate/<gate>/seed<k>``: the fields of one gate report, floats by hex and
  arrays by dtype, shape and bytes, or the exception the gate raised.

It covers the 18 flag sets of ``RUNS`` at seeds 0-2, and all six gates at
gate seeds 0-39 and 1, 101, ..., 1901; ``fingerprint()`` takes a subset of
these as keyword arguments. The second form prints each key whose digest
differs or that only one file holds, and exits 1 if there is any. Two trees
give equal files exactly when these outputs are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

# Flag set -> CLI arguments (without --seed and --out).
RUNS = {
    "run-default": ["run"],
    "run-r25": ["run", "--r", "25"],
    "run-d10-r10": ["run", "--d", "10", "--r", "10"],
    "run-d10-r100": ["run", "--d", "10", "--r", "100"],
    "run-d7-r17": ["run", "--d", "7", "--r", "17"],
    "run-d1": ["run", "--d", "1"],
    "run-d100": ["run", "--d", "100"],
    "run-adaptive": ["run", "--r-policy", "adaptive"],
    "run-budget300": ["run", "--r", "12", "--budget", "300"],
    "run-logistic": ["run", "--problem", "logistic"],
    "run-cubic": ["run", "--problem", "cubic"],
    "fedrun-default": ["fedrun"],
    "fedrun-logistic5": ["fedrun", "--problem", "logistic",
                         "--n-clients", "5"],
    # the benchmark's client shape: 50 one-block client batches per round
    "fedrun-logistic50": ["fedrun", "--problem", "logistic",
                          "--n-clients", "50"],
    "fedrun-r25": ["fedrun", "--r", "25"],
    # budget stops before the first record
    "run-budget5": ["run", "--budget", "5"],
    "fedrun-budget5": ["fedrun", "--budget", "5"],
    # a step that overflows: stopped_numerical, exit 3
    "run-overflow": ["run", "--alpha", "1e300"],
}

# Gate -> report function in zonewton.experiments, called with seed only.
GATES = {
    "rate": "rate_verification",
    "lemma1": "gradient_bound_verification",
    "linear": "linear_rate_verification",
    "quadratic": "quadratic_rate_verification",
    "sampling": "sampling_comparison",
    "stopping": "stopping_criterion_check",
}

RUN_SEEDS = [0, 1, 2]
GATE_SEEDS = sorted(set(range(40)) | set(range(1, 2000, 100)))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode(value) -> bytes:
    """Bytes that pin ``value`` exactly: floats by hex, arrays by dtype,
    shape and contents, sequences element by element."""
    import numpy as np

    if isinstance(value, np.ndarray):
        head = f"ndarray:{value.dtype.str}:{value.shape}:".encode()
        return head + np.ascontiguousarray(value).tobytes()
    if isinstance(value, (float, np.floating)):
        return b"float:" + float(value).hex().encode()
    if isinstance(value, (tuple, list)):
        return b"seq[" + b",".join(_encode(v) for v in value) + b"]"
    return f"{type(value).__name__}:{value!r}".encode()


def _run_outputs(argv, seed: int, workdir: str) -> dict:
    from zonewton.cli import main

    out_path = os.path.join(workdir, "trace.csv")
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            code = main(argv + ["--seed", str(seed), "--out", out_path])
        except SystemExit as exc:
            code = exc.code
    csv = (Path(out_path).read_bytes() if os.path.exists(out_path)
           else b"<no file>")
    return {
        "csv": _digest(csv),
        "stdout": _digest(stdout.getvalue().replace(out_path, "OUT")
                          .encode()),
        "stderr": _digest(stderr.getvalue().encode()),
        "exit": _digest(repr(code).encode()),
    }


def _gate_output(name: str, seed: int) -> str:
    from zonewton import experiments

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        try:
            report = getattr(experiments, GATES[name])(seed=seed)
        except Exception as exc:  # the raised error is the output
            return _digest(f"raised {type(exc).__name__}: {exc}".encode())
    return _digest(b"|".join(
        f.name.encode() + b"=" + _encode(getattr(report, f.name))
        for f in dataclasses.fields(report)))


def _child(spec: dict) -> dict:
    """Fingerprint the outputs ``spec`` names with the zonewton on
    sys.path, which must be the one under ``spec["src"]``."""
    import zonewton

    src = Path(spec["src"]).resolve()
    if src not in Path(zonewton.__file__).resolve().parents:
        raise SystemExit(f"imported {zonewton.__file__}, not the tree {src}")
    prints = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in spec["runs"]:
            for seed in spec["run_seeds"]:
                outputs = _run_outputs(RUNS[name], seed, workdir)
                for part, digest in outputs.items():
                    prints[f"run/{name}/seed{seed}/{part}"] = digest
    for name in spec["gates"]:
        for seed in spec["gate_seeds"]:
            prints[f"gate/{name}/seed{seed}"] = _gate_output(name, seed)
    return prints


def fingerprint(src, runs=tuple(RUNS), run_seeds=tuple(RUN_SEEDS),
                gates=tuple(GATES), gate_seeds=tuple(GATE_SEEDS)) -> dict:
    """Key -> digest of the named outputs of the tree under ``src``,
    computed in a child process with one BLAS thread."""
    unknown = sorted(set(runs) - set(RUNS)) + sorted(set(gates) - set(GATES))
    if unknown:
        raise ValueError(f"unknown flag sets or gates: {unknown}")
    spec = {"src": str(src), "runs": list(runs),
            "run_seeds": list(run_seeds), "gates": list(gates),
            "gate_seeds": list(gate_seeds)}
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child"],
        input=json.dumps(spec), env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"fingerprint child failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(a: dict, b: dict) -> list:
    """Lines naming every key whose digest differs or that one side lacks."""
    lines = []
    for key in sorted(set(a) | set(b)):
        if key not in b:
            lines.append(f"only in A: {key}")
        elif key not in a:
            lines.append(f"only in B: {key}")
        elif a[key] != b[key]:
            lines.append(f"differs: {key}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys that differ between two files")
    parser.add_argument("src", nargs="?", help="directory holding zonewton")
    parser.add_argument("out", nargs="?", help="JSON file to write")
    args = parser.parse_args(argv)
    if args.child:
        json.dump(_child(json.load(sys.stdin)), sys.stdout)
        return 0
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(set(a) | set(b))} keys differ")
        return 1 if lines else 0
    if args.src is None or args.out is None:
        parser.error("give SRC and OUT, or --compare A B")
    prints = fingerprint(args.src)
    Path(args.out).write_text(json.dumps(prints, indent=1, sort_keys=True)
                              + "\n")
    print(f"{len(prints)} outputs fingerprinted into {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
