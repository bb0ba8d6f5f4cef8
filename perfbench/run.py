#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The release build goes to
.bench_build/ at the root; the last line of standard output is the
benchmark's JSON result (see perfbench/bench.ml).  Exits non-zero,
without printing a result, when the tree holds no simulator sources or
the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("perfbench: no simulator sources (dune-project, lib/) under %s\n" % ROOT)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release", "--build-dir", BUILD_DIR,
             "./perfbench/bench.exe", "./perfbench/calib.exe"],
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    rev = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
            rev = git.stdout.strip() if git.returncode == 0 else rev
        except FileNotFoundError:
            pass
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    argv = [exe] + sys.argv[1:] + ["--workdir", os.path.join(BUILD_DIR, "perfbench-run"), "--rev", rev]
    sys.stdout.flush()
    os.execv(exe, argv)


if __name__ == "__main__":
    sys.exit(main())
