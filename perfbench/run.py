#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inject-heavy --seed 42 --seconds 20 --trace 0

Every argument is passed on to the benchmark program (perfbench/*.go),
which prints its result as the last line of standard output. The program
is a main package of the root Go module, because it imports the
simulator's internal/ packages, which Go only allows from inside the
module; this script is its build step. The Go build cache, the binary,
scratch bundles, run reports and traces all stay under .bench_build/ in
the checkout.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    for d in ("gocache", "gopath", "tmp", "config", "bin"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "bin", "perfbench")
    # Build output goes to stderr so the result stays the last stdout line.
    built = subprocess.run(
        ["go", "build", "-o", binary, "./perfbench"],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
