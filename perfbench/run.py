"""Benchmark command: one workload, one process, one solve at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. BLAS and OpenMP are pinned to one thread
before numpy loads. A run starts with one set-up, plus an untimed warm-up
solve where a solve is short enough to afford it, then repeats rounds of
set-ups and solves, one solve per direction seed, while another round fits
in S seconds. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, with the end-to-end
metrics of BENCHMARK.json when untraced and its per-layer metrics when
traced. The line before it records the environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")


def _blas_threads():
    """Thread count reported by each OpenBLAS library mapped into this
    process."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[os.path.basename(path)] = getattr(lib, symbol)()
                break
    return found


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


# Host speed. On the 2-CPU VM these figures were measured on, the speed
# drifts by 20-40 % over tens of seconds, for interpreted and BLAS work
# alike: the medians of 20-solve windows of one repeated solve spanned 31-45 %
# of their median. Every timed step is therefore run between two probes of a
# fixed computation that uses no zonewton code, and its wall time is rescaled
# to a host on which the probe takes PROBE_REF_S. Rescaled, the windows
# spanned 13-15 %.
PROBE_REF_S = 0.014


class HostProbe:
    """Times a fixed mix of small matrix-vector products, small
    eigendecompositions and an interpreted loop (about 14 ms on a 2-CPU
    VM)."""

    def __init__(self):
        m = np.random.default_rng(0).standard_normal((60, 60))
        self.matrix = m @ m.T / 60

    def __call__(self):
        start = time.perf_counter()
        v = np.ones(60)
        for _ in range(400):
            v = self.matrix @ v
            v = v / np.linalg.norm(v)
        for _ in range(12):
            np.linalg.eigh(self.matrix)
        x = 0
        for i in range(25000):
            x += (i * i) % 7
        return time.perf_counter() - start


# HostProbe tracks poorly how fast a fresh interpreter imports. `import
# zonewton` in a child, timed 137 times over 150 s on a 2-CPU VM, spread
# (q3 - q1) / median 0.34 raw and 0.30 rescaled by HostProbe, but 0.10
# rescaled by a child that imports a fixed set of standard-library modules.
# Set-ups that start an interpreter are rescaled by that child instead, to a
# host on which it takes INTERPRETER_PROBE_REF_S.
INTERPRETER_PROBE_REF_S = 0.16


class InterpreterProbe:
    """Times a fresh interpreter importing a fixed set of standard-library
    modules (about 0.16 s on that VM)."""

    CODE = ("import argparse, asyncio, csv, decimal, email.mime.multipart, "
            "http.server, json, logging, sqlite3, unittest, xml.dom.minidom")

    def __call__(self):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", self.CODE],
                       env=workloads.child_env(), cwd=ROOT, check=True)
        return time.perf_counter() - start


class Runner:
    def __init__(self, workload, seed, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.dir_seeds = [seed * 100 + 1 + j
                          for j in range(workload.dir_seeds)]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.evals = {}
        self.first = None
        self.ref = None
        self.probes = {"host": (HostProbe(), PROBE_REF_S),
                       "interpreter": (InterpreterProbe(),
                                       INTERPRETER_PROBE_REF_S)}
        self._probe = None
        self._op_times = None

    def _timed(self, fn, *args, **kwargs):
        """Run one timed step of an operation between two probes and add
        its wall and rescaled seconds to the operation's totals."""
        probe, ref_s = self._probe
        before = probe()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        speed = 0.5 * (before + probe())
        self._op_times[0] += wall
        self._op_times[1] += wall * ref_s / speed
        return result

    def _attempt(self, fn, *args, probe="host"):
        """Run one operation, rescaling its timed steps by the named probe;
        returns (result, (wall seconds, rescaled seconds)) over its timed
        steps, or None if it raised."""
        self.attempted += 1
        self._probe = self.probes[probe]
        self._op_times = [0.0, 0.0]
        try:
            result = fn(*args, timed=self._timed)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        return result, tuple(self._op_times)

    def _checking(self, fn, *args):
        if self.tracer is not None:
            self.tracer.phase = "check"
        try:
            return fn(*args)
        except workloads.Mismatch as exc:
            self.errors.append(str(exc))
            return None

    def setup(self):
        done = self._attempt(self.workload.setup,
                             probe=self.workload.setup_probe)
        if done is None:
            return None
        built, seconds = done
        if self.first is None:
            self.first = built
            self.ref = self._checking(self.workload.reference, built)
        elif built.problem is not None and not np.array_equal(
                built.problem.known.x_star, self.first.problem.known.x_star):
            self.errors.append("a repeated set-up built a different problem")
        return built, seconds

    def solve(self, built, dir_seed):
        done = self._attempt(self.workload.solve, built, self.ref, dir_seed)
        if done is None:
            return None
        out, seconds = done
        checked = self._checking(self.workload.check, built, self.ref, out)
        if checked is None:
            return None
        evals, counts = checked
        if self.evals.setdefault(dir_seed, evals) != evals:
            self.errors.append(f"direction seed {dir_seed} gave {evals} "
                               f"evaluations, earlier {self.evals[dir_seed]}")
        if self.tracer is not None and self.tracer.installed:
            self.tracer.add_counts(counts)
        return seconds

    def mean_evals(self):
        return statistics.fmean(self.evals[s] for s in self.dir_seeds)


def _traced(tracer, phase):
    tracer.phase = phase
    tracer.ops[phase] += 1


def measure(name, seed, seconds, trace):
    """Run one workload for about ``seconds``; returns (correct, attempted,
    failed, metrics by name)."""
    deadline = time.perf_counter() + seconds
    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    runner = Runner(workload, seed, tracer)
    setup_s, solve_s, plain_solve_s = [], [], []

    # The first set-up is timed too: a fresh process pays its first-call
    # costs, and they were within the spread of the repeats.
    warm = runner.setup()
    plain = warm[0] if warm is not None else None
    if warm is not None:
        setup_s.append(warm[1])
    if plain is not None and workload.warm_solve:
        runner.solve(plain, runner.dir_seeds[0])
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        built = None
        for _ in range(workload.setups_per_round):
            if tracer is not None:
                _traced(tracer, "setup")
            done = runner.setup()
            if done is not None:
                built = done[0]
                setup_s.append(done[1])
        for dir_seed in runner.dir_seeds:
            if built is None:
                break
            if tracer is not None:
                _traced(tracer, "solve")
            seconds_taken = runner.solve(built, dir_seed)
            if seconds_taken is not None:
                solve_s.append(seconds_taken)
        if tracer is not None:
            tracer.remove()
            # Objects built under tracing keep timed objectives, so the
            # untraced solves use the warm-up's problem.
            for dir_seed in runner.dir_seeds:
                if plain is None:
                    break
                seconds_taken = runner.solve(plain, dir_seed)
                if seconds_taken is not None:
                    plain_solve_s.append(seconds_taken)
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break

    correct = (not runner.errors and bool(solve_s) and bool(setup_s)
               and len(runner.evals) == len(runner.dir_seeds))
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    if not correct:
        return False, runner.attempted, runner.failed, {}, {}

    def median(times, which):
        return statistics.median(t[which] for t in times)

    wall = {"solve_s": median(solve_s, 0), "setup_s": median(setup_s, 0)}
    if tracer is None:
        metrics = {
            "solve_s": median(solve_s, 1),
            "setup_s": median(setup_s, 1),
            "evals": runner.mean_evals(),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    else:
        metrics = {"trace.overhead_s":
                   median(solve_s, 1) - median(plain_solve_s, 1)}
        metrics.update((m, tracer.metric(m)) for m in PER_LAYER
                       if m not in metrics)
    return True, runner.attempted, runner.failed, metrics, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wanted = END_TO_END if args.trace == 0 else PER_LAYER
    correct, attempted, failed, values, wall = measure(
        args.workload, args.seed, args.seconds, args.trace == 1)
    missing = sorted(set(wanted) - set(values)) if correct else []
    if missing:
        sys.exit(f"error: no value for metrics {missing}")
    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "wall_medians_s": wall}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": values[m], "unit": wanted[m]}
                    for m in wanted if m in values},
    }))


def _load_manifest():
    if not os.path.isfile(os.path.join(SRC, "zonewton", "__init__.py")):
        sys.exit(f"error: no zonewton sources under {SRC}; "
                 "run from a checkout of the repository")
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    return ({m["name"]: m["unit"] for m in manifest["end_to_end"]},
            {m["name"]: m["unit"] for m in manifest["per_layer"]})


if __name__ == "__main__":
    END_TO_END, PER_LAYER = _load_manifest()
    sys.path.insert(0, SRC)
    import numpy as np

    import tracing
    import workloads

    main()
