"""In-memory span tracer for the decode benchmark.

Spans are recorded from outside the program: public marscache functions are
wrapped at every module binding the package calls them through, and the
engine's ``step`` is wrapped by a thin session proxy handed to ``decode``.
Each span is ``[name, start_ns, end_ns, parent_index, decode_id, work]``;
``work`` is a per-call count taken from the arguments (elements, scores).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

# Modules whose global bindings are patched. A function is wrapped in every
# one of them that binds the same object, so calls made through
# ``from .model import gelu`` in engines.py are caught as well.
PATCHED_MODULES = (
    "marscache.core",
    "marscache.model",
    "marscache.diffusion",
    "marscache.mars",
    "marscache.engines",
    "marscache.workload",
    "marscache.analysis",
)


def _elements(x, *args, **kwargs):
    return int(x.size)


def _scores(q, k, *args, **kwargs):
    # q: (H, Tq, d_k), k: (H, Tk, d_k) -> H * Tq * Tk score entries computed.
    return int(q.shape[0] * q.shape[1] * k.shape[1])


# (span name, defining module, attribute, work counter or None)
TRACED_FUNCTIONS = (
    ("model.init_weights", "marscache.model", "init_weights", None),
    ("workload.make_workload", "marscache.workload", "make_workload", None),
    ("engines.make_engine", "marscache.engines", "make_engine", None),
    ("diffusion.decode", "marscache.diffusion", "decode", None),
    ("model.forward", "marscache.model", "forward", None),
    ("model.gelu", "marscache.model", "gelu", _elements),
    ("model.multi_head_attention", "marscache.model", "multi_head_attention", _scores),
    ("model.rms_norm", "marscache.model", "rms_norm", None),
    ("model.apply_rotary", "marscache.model", "apply_rotary", None),
    ("core.softmax_rows", "marscache.core", "softmax_rows", None),
    ("diffusion.assemble_embeddings", "marscache.diffusion", "assemble_embeddings", None),
    ("diffusion.select_unmask", "marscache.diffusion", "select_unmask", None),
    ("mars.proxy_scores", "marscache.mars", "proxy_scores", None),
    ("mars.select_anchors", "marscache.mars", "select_anchors", None),
    ("mars.visual_key_visibility", "marscache.mars", "visual_key_visibility", None),
)


class Tracer:
    """Collects spans in memory; ``decode_id`` labels every span opened
    while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.decode_id = "setup"

    def _open(self, name: str, work: int) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0, 0, parent, self.decode_id, work]
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            rec = self._open(name, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of TRACED_FUNCTIONS; restore them on exit."""
        modules = [importlib.import_module(m) for m in PATCHED_MODULES]
        saved = []
        try:
            for name, home, attr, work in TRACED_FUNCTIONS:
                original = getattr(importlib.import_module(home), attr)
                wrapper = self.wrap(name, original, work)
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


class StepSpan:
    """Engine session proxy that records an ``engines.step`` span per step."""

    def __init__(self, engine, tracer: Tracer):
        self.engine = engine
        self.name = engine.name
        self._step = tracer.wrap("engines.step", engine.step)

    def step(self, t, state):
        return self._step(t, state)


def summarize(spans: list[list], decode_id: str) -> dict[str, dict]:
    """Per span name, for one decode id: total seconds, self seconds (total
    minus the time covered by direct child spans), calls and summed work."""
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for i, (name, start, end, _, did, work) in enumerate(spans):
        if did != decode_id:
            continue
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "work": 0})
        agg["s"] += (end - start) / 1e9
        agg["self_s"] += (end - start - child_ns[i]) / 1e9
        agg["calls"] += 1
        agg["work"] += work
    return out
