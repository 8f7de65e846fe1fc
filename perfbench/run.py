#!/usr/bin/env python3
"""Build and run the rsbt benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own that depends on the
repository's crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs it with the same
arguments. Build output goes to standard error; the benchmark's standard
output, whose last line is the JSON result, is passed through. Exits
non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary] + sys.argv[1:], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
