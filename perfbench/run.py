#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary and the `mtp` CLI from source in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), then runs one
measurement. Every argument is passed through to the benchmark binary,
whose last line of standard output is the JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def cargo_build(args, env):
    """Runs one quiet release build; compiler output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--quiet"] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` exited with {done.returncode}")


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cargo_build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    cargo_build(["--bin", "mtp"], env)
    release = os.path.join(target, "release")
    # Keep freed heap memory in the process instead of returning it to
    # the kernel: on a virtual machine, re-faulting fresh pages costs a
    # host-dependent amount that drifted run times by up to 50%.
    run_env = dict(env)
    for knob in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        run_env.setdefault(knob, str(256 << 20))
    run_env.setdefault("MALLOC_TOP_PAD_", str(64 << 20))
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--out",
        os.path.join(ROOT, ".bench_out"),
        "--mtp",
        os.path.join(release, "mtp"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=run_env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: run failed: {e}")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
