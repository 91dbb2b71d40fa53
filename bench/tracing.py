"""Per-layer tracing from outside the package.

The tracer replaces module-level functions of ``stereosr`` with timing
wrappers for the length of a ``with`` block.  Modules import each other's
functions by name (``from .tensor import conv2d``), so every module
attribute bound to a traced function is replaced, not only the defining
one.  Spans record name, start, end, parent span and the operation they
ran in; they stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

# (module, function); the span and metric name is "<module>.<function>"
TRACED_FUNCTIONS = (
    ("images", "decode_png"),
    ("images", "encode_png"),
    ("images", "bicubic_downsample"),
    ("metrics", "ssim"),
    ("metrics", "psnr"),
    ("model", "load_weights"),
    ("model", "forward"),
    ("blocks", "mscam"),
    ("blocks", "sffn"),
    ("tensor", "conv2d"),
    ("transport", "deam_forward"),
    ("transport", "cost_matrix"),
    ("transport", "sinkhorn"),
    ("tensor", "logsumexp"),
    ("train", "loss_total"),
    ("train", "lion_step"),
)
# GradTape.gradients is a method; its span is named after its module
TAPE_GRADIENTS = "tensor.gradients"

# Traced functions that call other traced functions; they also get a
# self-time metric (their time minus that of their traced children).
WITH_CHILDREN = ("model.forward", "blocks.mscam", "blocks.sffn",
                 "transport.deam_forward", "transport.sinkhorn")

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident set size of this process now, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in TRACED_FUNCTIONS] + [TAPE_GRADIENTS]


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out.append((f"{name}_s", "s"))
        if name in WITH_CHILDREN:
            out.append((f"{name}_self_s", "s"))
        out.append((f"{name}_calls", "count"))
    out += [("tensor.tape_records", "count"), ("tensor.tape_rss_mb", "MB")]
    return out


class Tracer:
    """Collects spans while installed; ``op`` is the index of the operation
    the benchmark is running, set by its timing loop."""

    def __init__(self):
        self.spans: list[list] = []      # [id, name, start, end, parent, op]
        self.tapes: list[tuple[int, int, float]] = []   # (op, records, rss growth MB)
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, name, time.perf_counter(), None, stack[-1] if stack else None, self.op]
            spans.append(span)
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every traced function for the body of the block, and put
        the originals back on exit, also when the body raises."""
        from stereosr import tensor

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "stereosr" or n.startswith("stereosr."))]
        try:
            for mod_name, fn_name in TRACED_FUNCTIONS:
                original = getattr(sys.modules[f"stereosr.{mod_name}"], fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
            tape_cls = tensor.GradTape
            self._patch(tape_cls, "gradients", self._wrap(TAPE_GRADIENTS, tape_cls.gradients))
            self._patch_tape_scope(tape_cls)
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    def _patch_tape_scope(self, tape_cls) -> None:
        # records held and resident-set growth across the taped forward + loss
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__
        start_rss = []

        def traced_enter(tape):
            start_rss.append(rss_mb())
            return enter(tape)

        def traced_exit(tape, *exc):
            self.tapes.append((self.op, len(tape), rss_mb() - start_rss.pop()))
            return exit_(tape, *exc)

        self._patch(tape_cls, "__enter__", traced_enter)
        self._patch(tape_cls, "__exit__", traced_exit)

    # -- reduction ----------------------------------------------------------

    def per_op(self, ops: range) -> dict[str, list[float]]:
        """Per-layer totals for each operation index in ``ops``."""
        index = {op: i for i, op in enumerate(ops)}
        totals = {name: [0.0] * len(index) for name, _ in layer_metric_names()}

        def add(key: str, op: int, value: float) -> None:
            totals[key][index[op]] += value

        for sid, name, start, end, parent, op in self.spans:
            if op not in index:
                continue
            dur = end - start
            add(f"{name}_s", op, dur)
            add(f"{name}_calls", op, 1)
            if name in WITH_CHILDREN:
                add(f"{name}_self_s", op, dur)
            if parent is not None:
                pname = self.spans[parent][1]
                if pname in WITH_CHILDREN:
                    add(f"{pname}_self_s", op, -dur)
        for op, records, _ in self.tapes:
            if op in index:
                add("tensor.tape_records", op, records)
        return totals

    def layer_metrics(self, ops: range) -> dict[str, float]:
        """Median over ``ops`` of each per-layer metric.

        ``tensor.tape_rss_mb`` is the exception: it is the growth across
        the first taped scope of the run.  In later steps the previous
        step's tape is still referenced when the new one is entered and is
        freed just after, so the new tape reuses its pages and the growth
        reads about zero.
        """
        out = {k: statistics.median(v) for k, v in self.per_op(ops).items()}
        out["tensor.tape_rss_mb"] = self.tapes[0][2] if self.tapes else 0.0
        return out

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump({
                "spans": [dict(zip(keys, s)) for s in self.spans],
                "tapes": [{"op": o, "records": r, "rss_growth_mb": g} for o, r, g in self.tapes],
            }, fh)
