#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 eipbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds eipbench/ (a CMake package on top of ../src) in
Release mode under $CARGO_TARGET_DIR (default .bench_build), then runs
the eipbench binary with the same arguments. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "eipbench")
    # A configure that failed half-way leaves a cache but no build files.
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "eipbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "eipbench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"eipbench: build failed: {error}", file=sys.stderr)
        return 1
    # Daemon sockets live in the build directory; a relative path keeps
    # them under the 108-byte AF_UNIX limit wherever the checkout is.
    env = dict(os.environ, EIPBENCH_SCRATCH=os.path.relpath(build_root))
    result = subprocess.run([binary] + sys.argv[1:], env=env)
    return 1 if result.returncode != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
