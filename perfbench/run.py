#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

Run from the root of a checkout:

    python3 perfbench/run.py --workload refactor --seed 1 --seconds 10 --trace 0

It builds perfbench/e2e.exe with dune into .bench_build/, then runs it in a
fresh process with a run-private native object cache and temp directory
under .bench_build/runs/ (removed afterwards). The last line of standard
output is the result object; the line before it records the environment
(compiler identity, nproc, OCaml version, cache sizes).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("refactor", "pcg", "churn")
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "e2e.exe")
RUN_TIMEOUT_S = 170
# Library switches left at their defaults, whatever the caller's shell set.
CLEARED_ENV = ("SYMPILER_METRICS", "SYMPILER_CC", "SYMPILER_NDOMAINS",
               "SYMPILER_NATIVE_CACHE", "OCAMLRUNPARAM")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a sympiler checkout "
                 "(dune-project and lib/ not found)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/e2e.exe"]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", type=int, default=0,
                    help="corrupt every K-th answer before its check")
    args = ap.parse_args()

    build()
    run_dir = os.path.join(BUILD_DIR, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["SYMPILER_NATIVE_CACHE"] = os.path.abspath(os.path.join(run_dir, "native"))
    env["TMPDIR"] = os.path.abspath(os.path.join(run_dir, "tmp"))
    os.makedirs(env["SYMPILER_NATIVE_CACHE"])
    os.makedirs(env["TMPDIR"])
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inject-wrong", str(args.inject_wrong)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: e2e.exe exited with {proc.returncode}")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
