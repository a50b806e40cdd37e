"""misfdr benchmark: one workload, closed loop, one process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `src/misfdr`, nothing
installed). Every measurement is taken in a fresh interpreter started by
`worker.py` with every BLAS/OpenMP thread variable set to 1.

--trace 0 repeats the workload, one process per repetition, until S seconds
have passed (at least once), with set-up probes (interpreter start until
`misfdr.cli` is imported and the inputs are built) before and after the
repetitions, so that the set-up median spans the same stretch of time. It reports the
medians of setup_s, wall_s (call into the program until the result exists),
cpu_s (user+sys over the same interval) and peak_rss_mb, and ok_frac, the
share of operations that neither failed nor left the reference tolerance.

--trace 1 runs the workload twice untraced and twice with the per-module
tracer, alternating, and reports the layer metrics of `layers.py` (medians
of the two traced runs), the traced wall time and its overhead over the
median untraced wall time.
The exact counters must repeat between the two traced runs, layer self
times must not add up to more than the traced wall time, and the tracer
must leave every module attribute as it found it.

Output: one JSON line with the environment and every sample, then the
result line {"correct", "attempted", "failed", "metrics"}. Exits 2 without
a result when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import EXACT_COUNTERS, METRICS, unit
from worker import ROOT, SOURCE, THREAD_VARS
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 10
# Every run must end within 180 s; leave room for the last process and output.
BUDGET_S = 165.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "fraction"}


def _env() -> dict:
    env = dict(os.environ, MISFDR_THREADS="1", PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Runner:
    def __init__(self, workload: str, seed: int, size: str, work_dir: str, deadline: float):
        self.workload, self.seed, self.size = workload, seed, size
        self.work_dir, self.deadline = work_dir, deadline
        self.env = _env()
        self.problems: list[str] = []

    def spawn(self, mode: str) -> dict | None:
        """One worker process; its result, or None (with a problem noted)."""
        work_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=self.work_dir)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--size", self.size, "--mode", mode,
               "--work-dir", work_dir]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} worker timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or not isinstance(result, dict):
            self.problems.append(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        result["setup_s"] = result["t_ready"] - t_spawn
        if mode != "setup":
            result["elapsed_s"] = time.monotonic() - t_spawn
            if result["error"]:
                self.problems.append(result["error"])
            if not result["environment"]["blas_pinned_to_1"]:
                self.problems.append("BLAS threads were not pinned to 1")
        return result


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _tally(results: list[dict | None], expected_ops: int) -> tuple[int, int]:
    attempted = failed = 0
    for result in results:
        if result is None:
            attempted += expected_ops
            failed += expected_ops
        else:
            attempted += result["attempted"]
            failed += len(result["failures"])
    return attempted, failed


def measure(runner: Runner, seconds: float) -> tuple[dict, list, dict]:
    setups = [runner.spawn("setup") for _ in range(SETUP_PROBES // 2)]
    reps: list[dict | None] = []
    start = time.monotonic()
    while True:
        reps.append(runner.spawn("run"))
        now = time.monotonic()
        longest = max((r["elapsed_s"] for r in reps if r), default=now - start)
        if now - start >= seconds or now + 1.5 * longest > runner.deadline:
            break
    setups += [runner.spawn("setup") for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    done = [r for r in reps if r]
    samples = {
        "setup_s": [r["setup_s"] for r in setups + done if r],
        "wall_s": [r["wall_s"] for r in done],
        "cpu_s": [r["cpu_s"] for r in done],
        "peak_rss_mb": [r["peak_rss_mb"] for r in done],
    }
    metrics = {name: _median(values) for name, values in samples.items()}
    return metrics, reps, samples


def trace(runner: Runner) -> tuple[dict, list, dict]:
    reps = [runner.spawn(mode) for mode in ("run", "trace", "run", "trace")]
    base = [r["wall_s"] for r in reps[0::2] if r]
    done = [r for r in reps[1::2] if r]
    metrics: dict[str, float] = {}
    if done:
        for name in done[0]["layers"]:
            metrics[name] = _median([r["layers"][name] for r in done])
        metrics["trace.wall_s"] = _median([r["wall_s"] for r in done])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(base)
    for r in done:
        if not r["restored"]:
            runner.problems.append("tracer left a module attribute changed")
        self_sum = sum(v for k, v in r["layers"].items() if k.endswith(".self_s"))
        if self_sum > r["wall_s"]:
            runner.problems.append(f"layer self times {self_sum:.6f} s exceed wall {r['wall_s']:.6f} s")
    if len(done) == 2:
        for name in EXACT_COUNTERS:
            a, b = (r["layers"][name] for r in done)
            if a != b:
                runner.problems.append(f"counter {name} did not repeat: {a} then {b}")
    samples = {
        "trace.wall_s": [r["wall_s"] for r in done],
        "untraced_wall_s": base,
        "absent": done[0]["absent"] if done else [],
    }
    return metrics, reps, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", choices=SIZES,
                        help="smoke: a seconds-long version for self-tests")
    args = parser.parse_args(argv)
    if not (SOURCE / "__init__.py").is_file():
        print(f"no misfdr source tree at {SOURCE}", file=sys.stderr)
        return 2
    import reference

    expected_ops = len(reference.load(args.workload, args.size))
    deadline = time.monotonic() + BUDGET_S
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        runner = Runner(args.workload, args.seed, args.size, work_dir, deadline)
        if args.trace:
            values, reps, samples = trace(runner)
            names = list(METRICS)
        else:
            values, reps, samples = measure(runner, args.seconds)
            names = list(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    attempted, failed = _tally(reps, expected_ops)
    attempted = max(attempted, 1)
    values["ok_frac"] = (attempted - failed) / attempted
    units = {**END_TO_END, **{name: unit(name) for name in METRICS}}
    first = next((r for r in reps if r), None)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "environment": first["environment"] if first else None,
        "samples": samples,
        "failures": [r["failures"] for r in reps if r and r["failures"]],
        "problems": runner.problems,
    }))
    print(json.dumps({
        "correct": failed == 0 and not runner.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
