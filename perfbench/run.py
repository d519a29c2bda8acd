#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode from
the source tree around this file, then runs it with the same arguments. The
binary's standard output is passed through; its last line is the JSON
result. Cargo's own output goes to standard error. Exits non-zero, without a
result line, if the build or the run fails.
"""

import os
import subprocess
import sys

# The benchmark's own limit is 180 s per invocation; leave room for cargo's
# up-to-date check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    manifest = os.path.join(bench_dir, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(bench_dir, "target")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [exe, *sys.argv[1:]],
            cwd=root,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        # Keep the partial output for diagnosis, but never as a result.
        sys.stderr.write(run.stdout)
        print(f"perfbench: benchmark exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
