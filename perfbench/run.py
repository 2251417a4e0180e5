#!/usr/bin/env python3
"""Build the benchmark and the demo server from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Build output goes to stderr; the
benchmark's report goes to stdout, ending in one JSON line. The
workloads are defined in perfbench/workloads.json; see
perfbench/README.md for what each metric measures.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {root} is not a checkout of the repository "
                  f"(no {needed})", file=sys.stderr)
            return 2
    # the build writes only inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "./perfbench/bench.exe", "./bin/extract_cli.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    bench = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    server = os.path.join(root, "_build", "default", "bin", "extract_cli.exe")
    return subprocess.run(
        [bench, "--server", server,
         "--record", os.path.join(here, "workloads.json"),
         "--work", os.path.join(root, ".perfbench")] + sys.argv[1:],
        cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
