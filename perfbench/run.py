#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the simulator libraries
from src/ plus the benchmark program) into .bench_build/perfbench; later
calls rebuild only what changed. The program's output is passed through; its
last line is the JSON result. This script then checks that the result carries exactly the
metrics BENCHMARK.json declares for the chosen --trace mode, and fails
otherwise.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    # CARGO_TARGET_DIR names the benchmark build area when it is set.
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / base / "perfbench"


def run_checked(cmd, timeout, **kwargs) -> int:
    """Runs cmd to completion (killing it on timeout); returns its exit code."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out: {' '.join(map(str, cmd))}", file=sys.stderr)
        return 124


def build() -> bool:
    bdir = build_dir()
    src = ROOT / "perfbench"
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: simulator sources (src/) not found", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(src), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", str(bdir), "-j", jobs]
    return run_checked(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line: str, trace: bool) -> str:
    """Returns an error message, or '' when the result line is well formed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last output line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit mismatch {units}"
    return ""


def self_test() -> int:
    if not build():
        return 1
    bdir = build_dir()
    return run_checked([str(bdir / "perfbench_selftest")], RUN_TIMEOUT_S, cwd=bdir)


def main(argv) -> int:
    if argv == ["--self-test"]:
        return self_test()
    trace = False
    if "--trace" in argv:
        i = argv.index("--trace")
        trace = i + 1 < len(argv) and argv[i + 1] == "1"
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    bdir = build_dir()
    cmd = [str(bdir / "perfbench"), *argv, "--spans-dir", str(bdir.parent / "spans")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n")
    error = check_result(lines[-1], trace) if proc.returncode in (0, 1) else ""
    if error:
        # Keep the malformed line off the last line of stdout.
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
