"""Regenerate the stored reference outputs from the program in this checkout.

    python3 perfbench/make_reference.py

It rewrites the reference of every workload at every size.

Use it only in a change that alters what the program computes on purpose:
the reference is what turns a wrong answer into a failed operation, so
regenerating it alongside a speed change would hide an error.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time

import reference
from run import WORK_ROOT, Runner
from workloads import SIZES, WORKLOADS

REFERENCE_SEED = 9001


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
    try:
        for size in SIZES:
            for name in sorted(WORKLOADS):
                runner = Runner(name, REFERENCE_SEED, size, work_dir, time.monotonic() + 600)
                result = runner.spawn("run")
                bad = [k for k, v in (result or {}).get("ops", {}).items() if isinstance(v, str)]
                if result is None or result["error"] or bad or not result["ops"]:
                    print(f"{name} ({size}) failed: {runner.problems or bad}", file=sys.stderr)
                    return 1
                reference.write(name, size, REFERENCE_SEED, result["ops"])
                print(f"{name} ({size}): {len(result['ops'])} operations, "
                      f"wall {result['wall_s']:.2f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
