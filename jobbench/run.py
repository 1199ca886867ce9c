#!/usr/bin/env python3
"""Builds the discovery-job benchmark from the repository's sources and runs
one workload.

    python3 jobbench/run.py --workload default_path --seed 1 --seconds 25 \
        --trace 0 [--rate 4.0] [--slo-ms 1000]

Run from the repository root. The build goes to .bench_build/jobbench; the
first run configures and compiles (about a minute and a half on 4 cores),
later runs only check that the build is current. The last line of standard
output is the JSON result of the run; see jobbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "jobbench")
RUN_TIMEOUT_S = 170


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures and builds the benchmark binary and discoverd; False on failure."""
    if not os.path.isfile(os.path.join(REPO, "src", "core", "pipeline.h")):
        print("jobbench: the multiclust sources are not next to jobbench/",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(REPO, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "jobbench",
                  "-j", str(min(cpus(), 4))])
    for step in steps:
        done = subprocess.run(step, cwd=REPO, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("jobbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["default_path", "fixed_k_mix",
                                 "spectral_views", "daemon_open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rate", type=float, default=4.0,
                        help="daemon_open arrivals per second")
    parser.add_argument("--slo-ms", type=float, default=1000.0,
                        help="latency limit of slo_share")
    args = parser.parse_args()

    if not build():
        return 1
    command = [
        os.path.join(BUILD, "jobbench"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%r" % args.seconds,
        "--trace=%d" % args.trace,
        "--rate=%r" % args.rate,
        "--slo-ms=%r" % args.slo_ms,
        "--discoverd=" + os.path.join(BUILD, "multiclust", "tools",
                                      "discoverd"),
    ]
    sys.stdout.flush()
    # Own process group, so a timeout or a signal also stops the discoverd
    # child.
    child = subprocess.Popen(command, cwd=REPO, start_new_session=True)

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("jobbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        # Whatever the benchmark binary left running in its group goes too.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()


if __name__ == "__main__":
    sys.exit(main())
