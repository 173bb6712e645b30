#!/usr/bin/env python3
"""Builds and runs the perf ledger benchmark.

Usage, from the root of the repository:

    python3 ledger/run.py --workload serve_mixed|compile_churn \
        --seed N --seconds S --trace 0|1

Builds ledger/ (the library sources under src/ plus the benchmark program)
into $CARGO_TARGET_DIR/ledger, or .bench_build/ledger when that variable is
unset, then runs one measurement. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
carries the environment stamp and sample counts. Build output goes to
standard error. Exits non-zero when any KF_* execution knob is set, when
the build fails, or when any operation failed or mismatched the reference.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
KNOBS = ("KF_VM", "KF_TILING", "KF_OPT", "KF_TILE", "KF_THREADS")
WORKLOADS = ("serve_mixed", "compile_churn")
RUN_TIMEOUT_S = 175


def source_revision():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "ledger"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    revision = "tree-sha256:" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            revision = "git:" + git.stdout.strip() + " " + revision
    return revision


def build(build_dir):
    """Configures once and builds kf_ledger; output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "kf_ledger",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    knobs = [k for k in KNOBS if k in os.environ]
    if knobs:
        print("error: %s set; the ledger measures the defaults, so unset "
              "every KF_* knob (%s) and run again"
              % (", ".join(knobs), ", ".join(KNOBS)), file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no library sources at %s; run from a full checkout"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 1

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "ledger")
    if not build(build_dir):
        print("error: building the ledger failed", file=sys.stderr)
        return 1

    command = [os.path.join(build_dir, "kf_ledger"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--revision", source_revision()]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("error: the run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
