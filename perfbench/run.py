#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
library and the benchmark driver from source into .bench_build/ (CMake,
Release); later calls rebuild only what changed. Build output goes to
stderr. The driver's output is passed through; its last line is the JSON
result. The exit code is the driver's (0 only when every correctness check
passed), or 2 when the sources or the build are missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources next to {HERE.name}/ (expected the "
             f"repository root at {ROOT})")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release", *gen],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("configure failed")
    b = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0 or not BINARY.is_file():
        fail("build failed")


def check_catalogue(result, trace):
    """The driver's metrics must be exactly BENCHMARK.json's list."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return True
    spec = json.loads(spec_path.read_text())
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if want != got:
        print(f"perfbench: metrics {sorted(set(got) ^ set(want))} differ "
              f"from BENCHMARK.json", file=sys.stderr)
        return False
    return True


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    build()
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run([str(BINARY), *args], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=1)
    out = proc.stdout.rstrip("\n")
    lines = out.split("\n") if out else []
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode == 0 and result is not None:
        trace = args[args.index("--trace") + 1] == "1"
        if not check_catalogue(result, trace):
            result["correct"] = False
            lines[-1] = json.dumps(result)
            print("\n".join(lines))
            sys.exit(1)
    if lines:
        print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
