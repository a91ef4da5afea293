#!/usr/bin/env python3
"""Builds and runs the ParMAC benchmark from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `parmac-machined` worker from the program's own workspace and the
benchmark package in this directory, both into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark binary with the given arguments.
Its last line of output is the result; the exit status is the benchmark's.
Worker sockets and span files stay inside the build directory.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["--manifest-path", str(root / "Cargo.toml"), "-p", "parmac-cluster",
         "--bin", "parmac-machined"],
        ["--manifest-path", str(bench_dir / "Cargo.toml")],
    ]
    for args in builds:
        built = subprocess.run(
            ["cargo", "build", "--release", "--quiet", "--offline", *args],
            cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return built.returncode or 1

    machined = target / "release" / "parmac-machined"
    # Unix socket paths are short-limited, so workers get a path relative to
    # the root of the tree rather than an absolute one.
    tmp = target / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        tmp = tmp.relative_to(root)
    except ValueError:
        pass
    env.update(PARMAC_MACHINED=str(machined), TMPDIR=str(tmp))
    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--spans-dir", str(target / "spans")]
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # The benchmark and any worker it left behind share one session:
        # stop them all and wait, bounded, until the group is gone.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


if __name__ == "__main__":
    sys.exit(main())
