"""The freepd benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py [--workload central|replay|sos|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout; freepd is imported from ``src/``.
Each workload runs in its own process (``worker.py``): set-up, one
untimed warm-up round, then the same round of ``freepd.cli.main`` calls
repeated, at least twice, until ``--seconds`` have passed.  With ``--trace 0`` it reports
the end-to-end metrics ``setup_s`` (median over five processes that each
set up from a cold start), ``solve_s`` (median round time inside program
calls) and ``peak_rss_mb``; with ``--trace 1`` it alternates untraced and
traced rounds and reports the per-module metrics instead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of each run is written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("central", "replay", "sos")
#: Set-up-only processes per untraced run; with the measuring process, five samples.
SETUP_PROBES = 4
#: A run must end within 180 s; the measuring process gets what the probes leave of this.
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    """A workload process exited without a result."""


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(t0)],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload; write its full record and return the result object."""
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(_worker([*common, "--seconds", "0", "--setup-only"], 20.0)["setup_s"])
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    extra = ["--spans", str(out / f"{workload}-seed{seed}.spans.npz")] if trace else []
    budget = DEADLINE_S - (time.monotonic() - started)
    report = _worker([*common, "--seconds", str(seconds), "--trace", str(trace), *extra], budget)
    setups.append(report["setup_s"])
    if trace:
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in report["per_layer"].items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(report["round_s"]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    attempted = sum(c["attempted"] for c in report["ops"].values())
    failed = sum(c["failed"] for c in report["ops"].values())
    record = dict(report, seconds=seconds, trace=trace, setup_s_samples=setups, metrics=metrics)
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in report["failures"]:
        print(f"FAILED {workload}: {failure}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.startswith("jsonio.bytes"):
        return "B"
    if name.endswith(".per_step"):
        return "1/step"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "freepd" / "cli.py").is_file():
        print(f"no freepd sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in selected:
            results[workload] = result = run_workload(workload, args.seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                print(f"{workload:8s} {name:44s} {metric['value']:14.6g} {metric['unit']}")
            print(f"{workload:8s} operations attempted {result['attempted']}, failed {result['failed']}")
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(selected) == 1:
        final = results[selected[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items() for n, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
