#!/usr/bin/env python3
"""Entry point of the commx benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

It builds `ccmx` and the benchmark program from source with dune (into
`_build/`), then runs one workload; see perfbench/README.md.  Build
output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Run-time files (daemon socket and log, span dumps) go to
`.perfbench/` in the checkout.

The run is pinned to one CPU, daemon included: the figures are
single-core latency and throughput, and on a small VM the wake-ups
between the client, the acceptor and the worker cost far more, and far
less predictably, when they cross CPUs.
"""

import os
import subprocess
import sys

BENCH = "perfbench/src/main.exe"
CCMX = "bin/ccmx.exe"


def main():
    root = os.getcwd()
    # A private build: no shared dune cache outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./" + CCMX, "./" + BENCH],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = subprocess.run(
        [os.path.join(root, "_build", "default", BENCH), *sys.argv[1:],
         "--ccmx", os.path.join(root, "_build", "default", CCMX),
         "--corpus", os.path.join(root, "perfbench", "data", "engine_corpus.txt"),
         "--out", ".perfbench"],
        cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
