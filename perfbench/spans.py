"""Spans around the public entry points of each ballet layer.

The tracer wraps functions from the outside: every ``ballet.*`` module
attribute that holds a traced function object is rebound to one wrapper, so
calls through ``from .risk import search`` style imports are caught too, and
``SubPartition.__init__`` is wrapped on the class. Spans (op, id, parent,
function, start, end) stay in memory until the run ends. A function that is
missing from the program is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> (module, attribute path) of each traced entry point
TRACED = {
    "density": [("ballet.density", "build_ensemble")],
    "levelset": [
        ("ballet.levelset", "surrogate_cluster"),
        ("ballet.levelset", "dbscan_star"),
        ("ballet.levelset", "adaptive_delta"),
    ],
    "risk": [
        ("ballet.risk", "ballet_estimate"),
        ("ballet.risk", "draw_clusterings"),
        ("ballet.risk", "plugin_estimate"),
        ("ballet.risk", "precompute_stats"),
        ("ballet.risk", "search"),
        ("ballet.risk", "empirical_risk"),
    ],
    "credible": [
        ("ballet.credible", "compute_credible_ball"),
        ("ballet.credible", "credible_radius"),
        ("ballet.credible", "greedy_lower_bound"),
        ("ballet.credible", "greedy_upper_bound"),
    ],
    "subpartition": [
        ("ballet.subpartition", "SubPartition.__init__"),
        ("ballet.subpartition", "ia_binder_loss"),
    ],
    "levels": [
        ("ballet.levels", "build_cluster_tree"),
        ("ballet.levels", "persistent_clusters"),
        ("ballet.levels", "resolve_level"),
    ],
    "bench": [("ballet.bench", "evaluate"), ("ballet.bench", "dbscan_parameters")],
    "cli": [("ballet.cli", "main")],
}


def fn_key(layer: str, attr: str) -> str:
    """Metric prefix of a traced function, e.g. ``subpartition.SubPartition``."""
    return f"{layer}.{attr.split('.')[0]}"


class Tracer:
    """Installs the wrappers and collects spans while ``op`` is set."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.absent: list[str] = []
        self.op: int | None = None  # spans are recorded only inside an op
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((self.op, span_id, parent, key, t0, t1))

        return wrapper

    def install(self) -> None:
        self.absent = []
        for layer, entries in TRACED.items():
            for module_name, attr in entries:
                key = fn_key(layer, attr)
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.append(key)
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    orig = None if cls is None else cls.__dict__.get(meth)
                    if orig is None:
                        self.absent.append(key)
                        continue
                    self._rebind(cls, meth, orig, self._wrap(orig, key))
                    continue
                orig = getattr(module, attr, None)
                if not callable(orig):
                    self.absent.append(key)
                    continue
                wrapper = self._wrap(orig, key)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "ballet" and not name.startswith("ballet."):
                        continue
                    for a, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, a, orig, wrapper)

    def _rebind(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def summarize(spans, n_ops: int, traced_wall: float) -> dict:
    """Per-op means of inclusive time and calls per function, self time per
    layer, and the traced time no span covers (``untraced_s``).

    A span's self time is its duration minus that of its direct children, so
    the layer self times plus ``untraced_s`` add up to ``traced_wall``
    (the summed wall time of the traced ops).
    """
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for op, sid, parent, key, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    root_time = 0.0
    for op, sid, parent, key, t0, t1 in spans:
        dur = t1 - t0
        calls[key] += 1
        layer_self[key.split(".")[0]] += dur - child_time[sid]
        if parent < 0:
            root_time += dur
        # inclusive time counts only the outermost span of a function
        p = parent
        while p >= 0 and by_id[p][3] != key:
            p = by_id[p][2]
        if p < 0:
            inclusive[key] += dur
    out: dict[str, float] = {}
    for layer, entries in TRACED.items():
        for _, attr in entries:
            key = fn_key(layer, attr)
            out[f"{key}.s"] = inclusive[key] / n_ops
            out[f"{key}.calls"] = calls[key] / n_ops
        out[f"{layer}.self_s"] = layer_self[layer] / n_ops
    out["untraced_s"] = (traced_wall - root_time) / n_ops
    return out
