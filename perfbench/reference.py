"""Stored reference outputs and the Monte Carlo tolerance check against them.

Each reference holds, per operation, the value and standard error of every
checked cell as produced by the program at the commit that defined the
benchmark. A new value passes when it is finite and within
`K_SE * hypot(se_ref, se_new)` of the reference (plus a tiny absolute slack
for exact zeros), so another seed, another seeding scheme or a closed form
with se = 0 passes, while a wrong answer fails. Nothing is compared bit for
bit.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
K_SE = 6.0
ATOL = 1e-9


def path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}.{size}.json"


def load(workload: str, size: str) -> dict:
    with open(path(workload, size)) as fh:
        return json.load(fh)["ops"]


def write(workload: str, size: str, seed: int, ops: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "size": size, "seed": seed, "ops": ops}
    with open(path(workload, size), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare(ref_ops: dict, ops: dict) -> dict[str, str]:
    """Failure reason for every operation that is missing, off, or unreferenced."""
    failures = {}
    for key, ref_cells in ref_ops.items():
        got = ops.get(key)
        if got is None:
            failures[key] = "missing"
        elif isinstance(got, str):
            failures[key] = got
        else:
            for cell, (ref_value, ref_se) in ref_cells.items():
                value, se = got.get(cell, (math.nan, math.nan))
                tol = K_SE * math.hypot(ref_se, se) + ATOL
                if not (math.isfinite(value) and abs(value - ref_value) <= tol):
                    failures[key] = f"{cell}={value!r}, reference {ref_value!r} +- {tol:.3g}"
                    break
    for key in ops.keys() - ref_ops.keys():
        failures[key] = "not in reference"
    return failures
