#!/usr/bin/env python3
"""Build and run the time-to-verdict benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The checker is built from ../src into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) with CMake. The last line of stdout is the run's
JSON result; build output goes to stderr. Exits non-zero without a result
when the build fails, and with the benchmark binary's exit code otherwise.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def cmake(args):
    return subprocess.run(["cmake", *args], stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def build(out):
    configure = ["-S", HERE, "-B", out, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
    if not cmake(configure):
        # A cache left by another source tree cannot be reused.
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            return False
        shutil.rmtree(out)
        if not cmake(configure):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return cmake(["--build", out, "--target", "perfbench", "-j", jobs])


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest():
    """SHA-256 over the checker's sources (paths and contents)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["sweep", "deep", "mutants", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true",
                   help="path-equivalence test against the checker's drivers")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    exe = os.path.join(out, "perfbench")
    if a.selftest:
        cmd = [exe, "--selftest"]
    else:
        cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--trace", a.trace,
               "--commit", git_commit(), "--src-digest", src_digest()]
    timeout = RUN_TIMEOUT_S
    if a.workload == "all":
        timeout += 3 * a.seconds
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {timeout:.0f} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
