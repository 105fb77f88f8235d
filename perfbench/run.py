#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is serve-ycsb, kv-write-big or crash-sweep, or "all" to run the
three in turn.  The last line of a workload's standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
exit code is nonzero when the build fails, the arguments are wrong or an
output of the program is wrong.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["serve-ycsb", "kv-write-big", "crash-sweep"]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    # dune's progress and errors go to stderr, keeping stdout for results;
    # its shared cache stays off so the build writes only under _build
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                           stdout=sys.stderr, env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        at = args.index("--workload") + 1
        status = 0
        for name in WORKLOADS:
            status = max(status, subprocess.run([EXE] + args[:at] + [name] + args[at + 1:]).returncode)
        return status
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
