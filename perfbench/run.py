#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs it.

Run from the root of the repository:

    python3 perfbench/run.py --workload bank-transfer --seed 1 --seconds 20 --trace 0

Every argument is passed to the benchmark binary (see perfbench/main.go).
The Go build cache, the binary and everything a run leaves behind live in
.bench_build/ under the working directory, so nothing is written elsewhere.
The last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1

    proc = subprocess.Popen([binary] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
