"""Self-tests of the benchmark; about a minute on two cores.

    python3 perfbench/selftest.py

- the tracer patches re-exported and imported-by-name copies, survives an
  exception, reports a predicate that matches nothing as absent, and leaves
  every module attribute as it found it;
- the reference check passes a value within Monte Carlo error (also with
  se = 0) and fails one outside it;
- every workload at smoke size runs untraced and traced with no failed
  operation and prints exactly the metrics BENCHMARK.json names; the traced
  run itself checks that the exact counters repeat, that layer self times
  sum to no more than the traced wall time, and that attributes are restored;
- in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import reference
import tracer as tracing
from run import WORK_ROOT
from worker import ROOT
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def tracer_tests() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import misfdr

    before = tracing.snapshot(misfdr)
    original_stream = misfdr.rng.stream
    never = tracing.Group("never", "fdr", lambda t: False)
    tracer = tracing.Tracer(misfdr, layers.GROUPS + (never,))
    with tracer:
        check(misfdr.simulation.stream is not original_stream
              and misfdr.simulation.stream is misfdr.rng.stream,
              "tracer rebinds a name imported into another module")
        check(not tracing.unchanged(before, tracing.snapshot(misfdr)),
              "a snapshot taken while installed differs")
        misfdr.rng.streams(7, 3)
        misfdr.step_up([0.01, 0.5, 0.02], 0.05)
        try:
            misfdr.step_up([0.5], 2.0)
        except misfdr.ParameterError:
            pass
        check(not tracer._stack, "tracer stack is empty after an exception")
    check(tracer.counters["rng.streams"] == 3, "rng.streams counts new generators once")
    check(tracer.group_calls("fdr.step_up") == 2, "step_up calls are counted")
    check("never" in tracer.absent_groups(), "a group matching nothing is reported absent")
    check(tracing.unchanged(before, tracing.snapshot(misfdr)),
          "tracer restores every module attribute")


def reference_tests() -> None:
    ref = {"p": {"x": [0.5, 0.01]}}
    check(not reference.compare(ref, {"p": {"x": (0.53, 0.01)}}), "value within MC error passes")
    check(not reference.compare(ref, {"p": {"x": (0.52, 0.0)}}), "closed form with se 0 passes")
    check(bool(reference.compare(ref, {"p": {"x": (0.7, 0.01)}})), "value outside MC error fails")
    check(bool(reference.compare(ref, {"p": "ValueError: boom"})), "a failed operation fails")
    check(bool(reference.compare(ref, {})), "a missing operation fails")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=175)


def workload_tests() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names every workload")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                        "--trace", str(trace), "--size", "smoke")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            detail = proc.stdout.strip().splitlines()[0] if proc.stdout.strip() else proc.stderr
            ok = (proc.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0 and list(result["metrics"]) == names[trace])
            check(ok, f"{workload} smoke, trace {trace}" + ("" if ok else f": {detail[-1500:]}"))


def bare_directory_test() -> None:
    WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "grid-g-full", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without the source tree run.py fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tracer_tests()
    reference_tests()
    bare_directory_test()
    workload_tests()
    print(f"{len(FAILED)} failed" if FAILED else "all passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
