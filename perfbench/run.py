#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  perfbench/main.exe is built with dune into
.bench_build (release profile, no shared cache), then run with the
same arguments; its output is passed through unchanged, so the last
line of standard output is the JSON result.  Exits non-zero, without a
result, when the build fails, and with the program's own code otherwise.
`--workload all` runs ingest, audit and service in turn and exits
non-zero if any of them did.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
RUN_TIMEOUT_S = 170


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ".", "--profile", "release",
                "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        i = args.index("--workload") + 1
        if args[i:i + 1] == ["all"]:
            runs = [args[:i] + [w] + args[i + 1:]
                    for w in ("ingest", "audit", "service")]
    return max(run(exe, a) for a in runs)


def run(exe, args):
    proc = subprocess.Popen([exe] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
