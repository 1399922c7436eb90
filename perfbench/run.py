#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <phased|tenants|retune|crash_recover> \
        --seed N --seconds S --trace <0|1>

Builds the `smdb-perfbench` package (a workspace of its own that depends
on the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, then runs it
with the given arguments. Stores and span dumps go to
`<target dir>/perfbench`. The last line on stdout is the run's JSON
result; the exit code is the benchmark's (non-zero on a failed build, a
failed correctness check or a timeout).
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run must end within 180 s; leave headroom for the build check.
RUN_TIMEOUT_S = 170


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(HERE / "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = target / "release" / "smdb-perfbench"
    command = [str(binary), *sys.argv[1:], "--out", str(target / "perfbench")]
    try:
        return subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
