"""Steadiness check: repeated sets of benchmark runs of one commit.

    python3 perfbench/steady.py

Run from the repository root. It makes SETS sets of RUNS runs of every
workload in BENCHMARK.json, each run as long as the manifest's run_seconds.
Set k runs on the seeds k * RUNS ... k * RUNS + RUNS - 1, one run at a time,
workloads interleaved so that a slow spell of the host falls on all of them.
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (q3 - q1) / median, and the change of the median from
the first set, next to the metric's bound in BENCHMARK.json. The raw results
go to perfbench/results/.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed} exited {proc.returncode} with "
                 f"{result or 'no result'}:\n{proc.stderr}")
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    names = [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SETS):
        for seed in range(k * RUNS, (k + 1) * RUNS):
            for w in names:
                result = run_once(w, seed, seconds)
                results[w][k].append({"seed": seed, **result})
                print(f"set {k} seed {seed} {w}: " + " ".join(
                    f"{m}={v['value']:.6g}"
                    for m, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(HERE, "results", f"steady-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1)

    print(f"{SETS} sets x {RUNS} seeds, {seconds} s runs; "
          f"raw results in {os.path.relpath(path, ROOT)}\n")
    print("| workload | metric | bound | set | median | q1 | q3 | spread "
          "| change | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in names:
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            first = None
            for k, runs in enumerate(results[w]):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                first = med if first is None else first
                failed = sum(r["failed"] for r in runs)
                attempted = sum(r["attempted"] for r in runs)
                print(f"| {w} | {name} | {metric['bound']} | {k} "
                      f"| {med:.6g} | {q1:.6g} | {q3:.6g} "
                      f"| {(q3 - q1) / med:.4f} | {med / first - 1:+.4f} "
                      f"| {failed}/{attempted} |")


if __name__ == "__main__":
    main()
