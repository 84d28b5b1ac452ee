"""One workload run in its own process; prints one JSON line with its raw figures.

Started by ``run.py``.  BLAS and OpenMP are pinned to one thread before
numpy is imported: every window matrix here is at most about 100 wide, so
more threads add only scheduler noise.  Set-up is timed from ``--t0``, the
launcher's ``time.monotonic()`` just before it started this process (the
clock is system-wide), to the first program call.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import freepd.cli

from tracer import Tracer, per_layer_metrics
from workloads import WORKLOADS, Ops


def blas_info() -> dict:
    """OpenBLAS version and the thread count it runs with, read from the loaded library."""
    info = {"library": None, "threads": None}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return {"library": get_config().decode(), "threads": get_threads()}
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the first traced round's spans (.npz)")
    args = parser.parse_args(argv)

    outroot = ROOT / "perfbench" / "out"
    outroot.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=outroot))
    try:
        indir, outdir = work / "in", work / "out"
        indir.mkdir()
        rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
        workload = WORKLOADS[args.workload](rng, indir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        ops = Ops(freepd.cli.main)

        def one_round(tracer=None) -> float:
            shutil.rmtree(outdir, ignore_errors=True)
            outdir.mkdir()
            ops.tracer = tracer
            ops.program_s = 0.0
            workload.round(ops, outdir)
            return ops.program_s

        warmup_s = one_round()
        tracer = Tracer() if args.trace else None
        # an untraced median needs at least two rounds; a traced run pairs each with a traced one
        min_rounds = 1 if tracer else 2
        rounds, traced_rounds, summaries = [], [], []
        start = time.perf_counter()
        while True:
            rounds.append(one_round())
            if tracer is not None:
                traced_rounds.append(one_round(tracer))
                if args.spans and len(summaries) == 0:
                    np.savez_compressed(args.spans, names=np.array(tracer.names), **tracer.spans())
                summaries.append(tracer.round_summary())
            if len(rounds) >= min_rounds and time.perf_counter() - start >= args.seconds:
                break

        blas = blas_info()
        per_layer = per_layer_metrics(summaries, rounds, traced_rounds) if summaries else None
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "setup_s": setup_s,
            "warmup_s": warmup_s,
            "round_s": rounds,
            "traced_round_s": traced_rounds,
            "trace_overhead_s": per_layer["trace.overhead_s"] if per_layer else None,
            "ops": {kind: {"attempted": a, "failed": f} for kind, (a, f) in sorted(ops.counts.items())},
            "failures": ops.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "per_layer": per_layer,
            "blas_threads": blas["threads"],
            "blas": blas["library"],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
        }
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
