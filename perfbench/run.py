#!/usr/bin/env python3
"""Build (on first use) and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload trip_sweep --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a CMake package over the library in src/) into
.bench_build/ (or $CARGO_TARGET_DIR when set), runs one workload, and
passes the benchmark's output through.  The last line of standard output
is the result JSON; it is checked against BENCHMARK.json's metric lists
before it is printed.  Scratch files (the server socket, JIT scratch,
spans of traced runs) stay under the build directory.

Exit status: that of the benchmark binary, or 2 when the sources or build
are missing or broken, or 4 when the result line does not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One run, set-up and teardown included, must end within 180 s.
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd), 2)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metrics differ from BENCHMARK.json (missing {missing}, extra {extra})"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(build_dir)
    run_dir = build_dir / "run"
    tmp_dir = build_dir / "tmp"
    spans_dir = build_dir / "spans"
    for d in (run_dir, tmp_dir, spans_dir):
        d.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           # Relative: a Unix socket path must fit in sun_path.
           "--run-dir", os.path.relpath(run_dir, ROOT)]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(spans_dir / f"{args.workload}-seed{args.seed}.tsv")]
    env = dict(os.environ, TMPDIR=str(tmp_dir))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run has already killed and reaped the child.
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        fail("benchmark timed out", 3)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)
    problem = check_result(lines[-1], args.trace == "1")
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem, 4)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
