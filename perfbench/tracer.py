"""Spans around the calls into freepd's modules, recorded from outside the package.

While a traced program call runs, each function in :data:`TARGETS` is
replaced, wherever a module of freepd (or ``numpy.linalg``, for the LAPACK
layer) holds it, by a wrapper that records a span: name, start, end and
the enclosing span.  The originals are put back after the call, so
untraced calls and the benchmark's own checks run unwrapped.  Spans stay
in memory as flat arrays; :meth:`Tracer.round_summary` folds them into
calls, total time and self time (the span minus the time its child spans
cover) per name, plus the counters the hooks gather from arguments and
results.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from array import array

import numpy as np


def _ball_size(m: int, n: int) -> int:
    return 1 + sum(2 * m * (2 * m - 1) ** (j - 1) for j in range(1, n + 1))


def _extension(counts, args, kwargs, result):
    steps = result[1].steps
    counts["extend.steps"] += len(steps)
    counts["extend.determinate_steps"] += sum(1 for s in steps if s.gamma.size == 0)
    counts["extend.defect_rank_sum"] += sum(s.gamma.shape[0] + s.gamma.shape[1] for s in steps)


def _extraction(counts, args, kwargs, result):
    counts["extend.extract_params.steps"] += len(result)


def _window(counts, args, kwargs, result):
    counts["completion.window_blocks"] += args[0].p ** 2


def _clique(counts, args, kwargs, result):
    nu = args[0]
    counts["cayley.clique_C.words_scanned"] += _ball_size(nu.ctx.m, len(nu.rep))
    counts["cayley.clique_C.members"] += len(result)


def _constructor(counts, args, kwargs, result):
    values = args[4] if len(args) > 4 else kwargs["values"]
    counts["pdfun.PdFunction.values_validated"] += len(values)


def _factor(counts, args, kwargs, result):
    counts["ncpoly.factor_sos.iterations"] += result.iterations


def _written(counts, args, kwargs, result):
    counts["jsonio.bytes_written"] += os.path.getsize(args[0])


def _read(counts, args, kwargs, result):
    counts["jsonio.bytes_read"] += os.path.getsize(args[0])


def _cube(key):
    def hook(counts, args, kwargs, result):
        m, n = np.shape(args[0])[-2:]
        counts[key] += m * n * min(m, n)

    return hook


def _lstsq(counts, args, kwargs, result):
    m, n = np.shape(args[0])[-2:]
    counts["lapack.lstsq.mn2_sum"] += m * n * n


#: Span name -> (defining module, attribute path, hook on the call's result).
TARGETS = {
    "jsonio.load_path": ("freepd.jsonio", "load_path", _read),
    "jsonio.dump_path": ("freepd.jsonio", "dump_path", _written),
    "extend.extend_to_ball": ("freepd.extend", "extend_to_ball", _extension),
    "extend.extract_params": ("freepd.extend", "extract_params", _extraction),
    "extend.check_max_orthogonal": ("freepd.extend", "check_max_orthogonal", None),
    "extend.params_from_json": ("freepd.extend", "params_from_json", None),
    "extend.params_to_json": ("freepd.extend", "params_to_json", None),
    "extend.ExtensionTrace.to_json_dict": ("freepd.extend", "ExtensionTrace.to_json_dict", None),
    "completion.analyze": ("freepd.completion", "analyze", _window),
    "completion.complete": ("freepd.completion", "complete", None),
    "completion.extract_gamma": ("freepd.completion", "extract_gamma", None),
    "cayley.clique_C": ("freepd.cayley", "clique_C", _clique),
    "cayley.sigma_set": ("freepd.cayley", "sigma_set", None),
    "pdfun.PdFunction": ("freepd.pdfun", "PdFunction.__init__", _constructor),
    "pdfun.PdFunction.with_class_value": ("freepd.pdfun", "PdFunction.with_class_value", None),
    "pdfun.PdFunction.to_json_dict": ("freepd.pdfun", "PdFunction.to_json_dict", None),
    "pdfun.pdfunction_from_json": ("freepd.pdfun", "pdfunction_from_json", None),
    "pdfun.gram": ("freepd.pdfun", "gram", None),
    "pdfun.verify_pd": ("freepd.pdfun", "verify_pd", None),
    "words.ball": ("freepd.words", "ball", None),
    "words.ClassCursor.successor": ("freepd.words", "ClassCursor.successor", None),
    "linalg.gram_factor": ("freepd.linalg", "gram_factor", None),
    "linalg.pinv": ("freepd.linalg", "pinv", None),
    "linalg.is_psd": ("freepd.linalg", "is_psd", None),
    "ncpoly.factor_sos": ("freepd.ncpoly", "factor_sos", _factor),
    "ncpoly.sample_positivity": ("freepd.ncpoly", "sample_positivity", None),
    "ncpoly.ncpolynomial_from_json": ("freepd.ncpoly", "ncpolynomial_from_json", None),
    "ncpoly.certificate_to_json": ("freepd.ncpoly", "certificate_to_json", None),
    "sampling.haar_unitary": ("freepd.sampling", "haar_unitary", None),
    "lapack.eigh": ("numpy.linalg", "eigh", _cube("lapack.eigh.n3_sum")),
    "lapack.eigvalsh": ("numpy.linalg", "eigvalsh", None),
    "lapack.pinv": ("numpy.linalg", "pinv", _cube("lapack.pinv.n3_sum")),
    "lapack.lstsq": ("numpy.linalg", "lstsq", _lstsq),
    "lapack.norm": ("numpy.linalg", "norm", None),
}

#: One span per ``freepd.cli.main`` call, named by its command.
COMMANDS = ("extend", "params", "verify", "check-ortho", "factor", "sample")

#: Counters reported per round, besides calls and times.
COUNTERS = (
    "extend.steps",
    "extend.determinate_steps",
    "extend.defect_rank_sum",
    "completion.window_blocks",
    "cayley.clique_C.words_scanned",
    "cayley.clique_C.members",
    "pdfun.PdFunction.values_validated",
    "ncpoly.factor_sos.iterations",
    "jsonio.bytes_written",
    "jsonio.bytes_read",
    "lapack.eigh.n3_sum",
    "lapack.pinv.n3_sum",
    "lapack.lstsq.mn2_sum",
)


def metric_names() -> list[str]:
    """Every per-module metric a traced run reports, in a fixed order."""
    names = []
    for cmd in COMMANDS:
        names += [f"cli.{cmd}.calls", f"cli.{cmd}.self_s", f"cli.{cmd}.s"]
    for name in TARGETS:
        names += [f"{name}.calls", f"{name}.self_s"]
    return names + list(COUNTERS) + ["completion.analyze.per_step", "trace.overhead_s"]


class Tracer:
    """Installs the span wrappers around program calls and summarizes each round."""

    def __init__(self):
        self.names = [f"cli.{cmd}" for cmd in COMMANDS] + list(TARGETS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, (module, path, hook) in TARGETS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(self._ids[name], original, hook)
            if outer or module == "numpy.linalg":
                self._patches.append((owner, attr, original, wrapper))
                continue
            # a module-level function: replace it in every freepd module that holds it
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "freepd" or mod_name.startswith("freepd."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original, wrapper))
        self._reset()

    def _reset(self):
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counts = {key: 0 for key in COUNTERS}
        self.counts["extend.extract_params.steps"] = 0

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id, fn, hook):
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, command: str, fn, *args):
        """Run one program call under a ``cli.<command>`` span with every wrapper installed."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        idx = self._open(self._ids[f"cli.{command}"])
        try:
            return fn(*args)
        finally:
            self._close(idx)
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def spans(self) -> dict[str, np.ndarray]:
        """The round's spans as columns: name index, start, end, parent index (-1 at a root)."""
        return {
            "name": np.array(self.span_name, dtype=np.int64),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
            "parent": np.array(self.span_parent, dtype=np.int64),
        }

    def round_summary(self) -> dict:
        """Calls, total and self seconds per span name, and the counters; then start afresh."""
        cols = self.spans()
        dur = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        child = np.bincount(cols["parent"][nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(cols["name"], minlength=n)
        total = np.bincount(cols["name"], weights=dur, minlength=n)
        self_s = np.bincount(cols["name"], weights=dur - child, minlength=n)
        summary = {
            "spans": {
                name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)
            },
            "counts": dict(self.counts),
        }
        self._reset()
        return summary


def _analyze_per_step(summary: dict) -> float:
    """``analyze`` calls per extension or extraction step of one round (0 without steps)."""
    counts = summary["counts"]
    steps = counts["extend.steps"] + counts["extend.extract_params.steps"]
    return summary["spans"]["completion.analyze"]["calls"] / steps if steps else 0.0


def per_layer_metrics(summaries: list[dict], rounds: list[float], traced_rounds: list[float]) -> dict:
    """Per-round medians over the traced rounds of every name in :func:`metric_names`."""
    median = statistics.median
    spans = {name: [s["spans"][name] for s in summaries] for name in summaries[0]["spans"]}
    out = {}
    for name, per_round in spans.items():
        out[f"{name}.calls"] = median([r["calls"] for r in per_round])
        out[f"{name}.self_s"] = median([r["self_s"] for r in per_round])
        if name.startswith("cli."):
            out[f"{name}.s"] = median([r["s"] for r in per_round])
    for key in COUNTERS:
        out[key] = median([s["counts"][key] for s in summaries])
    out["completion.analyze.per_step"] = median([_analyze_per_step(s) for s in summaries])
    out["trace.overhead_s"] = median(traced_rounds) - median(rounds)
    return {name: out[name] for name in metric_names()}

