#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is its own cargo package
(perfbench/Cargo.toml) built against the repository's crates by path,
into $CARGO_TARGET_DIR (default .bench_build). --trace 0 uses the plain
build; --trace 1 and --selftest use the `traced` build, which installs
the counting allocator. The last line of standard output is the
benchmark's JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(traced):
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "traced"]
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    # Cargo links the binary of the feature set just built to this path,
    # so it is the variant asked for until the next build.
    return os.path.join(target, "release", "perfbench")


def main(argv):
    if not os.path.exists(MANIFEST) or not os.path.isdir("crates"):
        print("perfbench: run from the root of a full checkout", file=sys.stderr)
        return 2
    traced = "--selftest" in argv
    if "--trace" in argv:
        i = argv.index("--trace")
        traced = traced or (i + 1 < len(argv) and argv[i + 1] == "1")
    try:
        binary = build(traced)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
