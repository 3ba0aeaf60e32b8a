#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sfs|bulk|storm --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune from the checkout this file sits in
(the shared dune cache is disabled, so the build writes only under
_build/), then runs it with the given arguments. The benchmark's last
line of standard output is its JSON result. Exits non-zero without a
result when the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")
    exe = ROOT / "_build" / "default" / "perfbench" / "main.exe"
    sys.stdout.flush()
    rc = subprocess.run([str(exe)] + sys.argv[1:], cwd=ROOT, env=env).returncode
    sys.exit(rc)


if __name__ == "__main__":
    main()
