#!/usr/bin/env python3
"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The benchmark program is built from source with dune into .bench_build/
(release profile, dune's shared cache off so nothing is written outside
the checkout), then run with the same arguments. Its last line of
standard output is the result object; see perfbench/README.md.
"""

import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"
TIMEOUT_S = 175


def workload():
    args = sys.argv[1:]
    return args[args.index("--workload") + 1] if "--workload" in args[:-1] else None


def pin_to_one_cpu():
    """net-stream's client and server processes hand every request to each
    other. On one CPU each hand-off is a context switch; across two it
    wakes the other CPU, whose wake-up time on a shared virtual machine
    varies with the host's load."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a checkout (no dune-project or lib/ here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release", TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", TARGET)
    # its own process group, so a run that overstays is stopped together
    # with the server process it started
    proc = subprocess.Popen(
        [exe] + sys.argv[1:],
        start_new_session=True,
        preexec_fn=pin_to_one_cpu if workload() == "net-stream" else None,
    )
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
