#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the libraries in ../src and the e2e_bench binary into
.bench_build/ at the repository root (CMake, Release), then runs one
workload in its own process. The binary's last stdout line is the JSON
result; build output goes to stderr. `--workload all` runs every
workload in turn, for reading by a person.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "e2e_bench"
WORKLOADS = ["server_resnet", "offline_resnet", "tokenstream_gnmt",
             "offline_gnmt"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def source_revision():
    """Git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src", "e2ebench"],
            cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
        return head + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        digest = hashlib.sha256()
        for base in (ROOT / "src", HERE):
            for path in sorted(p for p in base.rglob("*") if p.is_file()):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
        return "tree-" + digest.hexdigest()[:12]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            fail("build failed: " + " ".join(step))


def run(workload, seed, seconds, trace, revision):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, E2E_SOURCE_REVISION=revision)
    # The system under test runs its shipped intra-op pool size.
    env.pop("MLPERF_INTRAOP_THREADS", None)
    sys.stdout.flush()
    with subprocess.Popen(command, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    build()
    revision = source_revision()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        code = run(workload, args.seed, args.seconds, args.trace, revision)
        status = status or code
    sys.exit(status)


if __name__ == "__main__":
    main()
