#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload soc_runs --seed 1 --seconds 25 --trace 0

Workloads: soc_runs, warm_sweep, served_sweeps, sharded_e12. The binary is
built in release mode with cargo into $CARGO_TARGET_DIR (default:
.bench_build at the repository root). Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. When the build fails, for
instance because the repository's crates are missing, this exits non-zero
without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(bench_dir, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            stdout=sys.stderr,
            env=env,
        )
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
