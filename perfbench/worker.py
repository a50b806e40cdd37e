"""Run one workload in a fresh interpreter and print one JSON line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --size full|smoke \
        --mode setup|run|trace --work-dir DIR

`setup` stops once `misfdr.cli` is imported and the inputs are built and
reports that moment (`t_ready`, on the system-wide monotonic clock, so the
parent can subtract its spawn time). `run` then makes the timed call and
checks the outputs against the stored reference; `trace` does the same with
the per-module tracer installed, and reports the layer metrics and whether
every patched attribute was restored. The parent (`run.py`) sets the thread
environment; this process records what it saw.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "misfdr"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib_path in sorted(paths):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(lib_path)] = int(fn())
                break
    return found


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    blas_threads = _blas_threads()
    thread_env = {v: os.environ.get(v) for v in THREAD_VARS}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": thread_env,
        "blas_threads": blas_threads,
        "blas_pinned_to_1": all(v == "1" for v in thread_env.values())
        and all(n == 1 for n in blas_threads.values()),
        "misfdr_threads": os.environ.get("MISFDR_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _parse(argv):
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--mode", default="run", choices=("setup", "run", "trace"))
    parser.add_argument("--work-dir", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import misfdr
    import misfdr.cli  # noqa: F401 - set-up ends once the CLI is importable

    if Path(misfdr.__file__).resolve().parent != SOURCE.resolve():
        print(f"imported misfdr from {misfdr.__file__}, not {SOURCE}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed, args.size, args.work_dir)
    t_ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready}))
        return 0

    import layers
    import reference
    import tracer as tracing

    tracer = before = None
    if args.mode == "trace":
        before = tracing.snapshot(misfdr)
        tracer = tracing.Tracer(misfdr, layers.GROUPS)
        tracer.install()
    error = raw = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        raw = workload.call(misfdr, inputs)
    except Exception:  # noqa: BLE001 - a crash is reported as failed operations
        error = traceback.format_exc(limit=-3)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = {}
    if error is None:
        try:
            ops = workload.outputs(raw, inputs)
        except (OSError, KeyError, ValueError):
            error = traceback.format_exc(limit=-3)
    ref_file = reference.path(args.workload, args.size)
    ref_ops = reference.load(args.workload, args.size) if ref_file.is_file() else {}
    result = {
        "t_ready": t_ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ref_ops.keys() | ops.keys()),
        "failures": reference.compare(ref_ops, ops),
        "error": error,
        "ops": ops,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = layers.layer_metrics(tracer)
        result["absent"] = layers.absent(tracer)
        result["restored"] = tracing.unchanged(before, tracing.snapshot(misfdr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
