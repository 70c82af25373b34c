#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per seed (one after another, so runs never
share the machine) and prints, for each end_to_end metric of
BENCHMARK.json, the median, the quartile spread (Q3 - Q1, from
statistics.quantiles(n=4), as a share of the median) and that spread
against the metric's bound. A benchmark is steady when every spread but
setup_s is below a third of its bound. Exit status 1 when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run failed ({proc.returncode})", file=sys.stderr)
            sys.exit(1)
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {len(seed_list(args.seeds))} runs of {seconds} s")
    steady = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < m["bound"] / 3 or m["name"] == "setup_s"
        steady = steady and ok
        print(f"  {m['name']:<26} median {med:<14.6g} spread {spread:7.4f}"
              f"  bound {m['bound']:<5} {'ok' if ok else 'WIDE'}")
    print("steady" if steady else "not steady")


if __name__ == "__main__":
    main()
