#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which
compiles ../src) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the harness unit tests, then the workload.
The workload's output is relayed unchanged: "# ..." report lines, then
one JSON result line. The result is checked against BENCHMARK.json: its
metrics must be exactly the end_to_end (--trace 0) or per_layer
(--trace 1) metrics, with the same units. Build and test output goes to
stderr. Exit status: the workload's (0 when every output check passed),
or non-zero without a result line when the sources, the build, the unit
tests or the result format fail.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            fail("configure failed", 3)
    jobs = str(os.cpu_count() or 1)
    if not run_quiet(["cmake", "--build", str(out), "-j", jobs]):
        fail("build failed", 3)
    if not run_quiet([str(out / "perfbench_tests")]):
        fail("harness unit tests failed", 4)


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            return "commit:" + head.stdout.strip()
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha1:" + digest.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON ({e})"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit mismatch {units}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sources under {ROOT / 'src'}; run from a full checkout", 2)
    out = build_dir()
    build(out)

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id(),
           "--out-dir", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s", 6)
    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace) if lines[-1] else "no output"
    if error is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(error, 5)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
