#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/perfbench.ml).

Run from the repository root:

    python3 perfbench/run.py --workload solve|halo|serve_hit|serve_cold \
        --seed N --seconds S --trace 0|1

The benchmark is built from source with dune (only the targets it needs),
then run as three processes; the last stdout line is the JSON result.
Exits non-zero without a result when the sources or the build are missing
or broken.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

TARGET = "./perfbench/perfbench.exe"
RUN_TIMEOUT_S = 170
PROCESSES = 3


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    # A default opam install keeps its switches under ~/.opam.
    opam = os.path.expanduser("~/.opam")
    if os.path.isdir(opam):
        for switch in sorted(os.listdir(opam)):
            candidate = os.path.join(opam, switch, "bin", "dune")
            if os.access(candidate, os.X_OK):
                return candidate
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the repository root (dune-project, lib/ missing)")
    dune = find_dune()
    if dune is None:
        sys.exit("perfbench: dune not found")

    env = dict(os.environ)
    # The toolchain sits next to dune; keep dune's shared cache out of $HOME.
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2", TARGET],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    # The run is split over fresh processes, each with its own address
    # space and heap history, and every metric is the median over them:
    # one process's figures can be off by several percent as a whole.
    exe = os.path.join("_build", "default", TARGET)
    results = []
    for _ in range(PROCESSES):
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / PROCESSES),
               "--trace", str(args.trace)]
        try:
            run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                 timeout=RUN_TIMEOUT_S / PROCESSES, text=True)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: run timed out")
        if run.returncode != 0:
            sys.exit("perfbench: run failed (exit %d)" % run.returncode)
        lines = run.stdout.strip().splitlines()
        if not lines:
            sys.exit("perfbench: run printed no result")
        results.append(json.loads(lines[-1]))

    metrics = {}
    for name, first in results[0]["metrics"].items():
        value = statistics.median(r["metrics"][name]["value"] for r in results)
        metrics[name] = {"value": value, "unit": first["unit"]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
