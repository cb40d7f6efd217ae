"""Span tracer that wraps rotenc's public functions from outside the package.

A traced run swaps selected functions in every ``rotenc`` module namespace
for timing wrappers, so calls made between modules (``model`` calling
``encoder3d.encode``, ``trainer`` calling ``ad.backward``) are seen without
editing the library. Each wrapped call records a span (name, start, end,
parent span, tag); spans stay in memory and are written out when the run
ends. Self time is a span's duration minus the part of it covered by its
child spans.

Backward time is attributed to a layer by wrapping the backward closures of
the tape nodes created while that layer's forward span was open: when a
layer returns, every node it created gets a closure that times itself and
adds the time to the layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute path, attributes backward time to this layer)
TRACED = (
    ("rotenc.encoder3d", "encode", True),
    ("rotenc.gnn", "gnn_forward", True),
    ("rotenc.model", "predict_head", True),
    ("rotenc.model", "Model.predict", False),
    ("rotenc.data", "build_graph", False),
    ("rotenc.geometry", "sample_rotations", False),
    ("rotenc.alignment", "canonical_align", False),
    ("rotenc.trainer", "adamw_step", False),
    ("rotenc.trainer", "evaluate_model", False),
    ("rotenc.autodiff", "backward", False),
    ("rotenc.autodiff", "matmul", False),
    ("rotenc.autodiff", "batchnorm", False),
    ("rotenc.autodiff", "mean_pool", False),
    ("rotenc.autodiff", "scatter_add_rows", False),
    ("rotenc.autodiff", "gather_rows", False),
)


def span_name(module: str, attr: str) -> str:
    """``rotenc.model`` + ``Model.predict`` -> ``model.predict``."""
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}"


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    ``spans`` holds (name, start, end, parent, tag) tuples where ``parent``
    is the index of the enclosing span or -1. A span's self time is its
    duration minus the union of its children's intervals, clipped to the
    span, so overlapping or overhanging children are not counted twice.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        entry = out[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return dict(out)


def _matmul_flops(a, b) -> int:
    a_shape, b_shape = np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b))
    rows = a_shape[0] if len(a_shape) == 2 else 1
    return 2 * rows * b_shape[0] * b_shape[1]


class Tracer:
    """Records spans, counters and attributed backward time for one run.

    ``clock`` is injectable so the arithmetic can be tested with a fake
    clock. ``tag`` is set by the caller to the id of the molecule, batch or
    call being processed; every span opened meanwhile carries it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.graph_ids: set[str] = set()
        self.tag = None
        self._stack: list[int] = []
        self._bwd_layers: list[tuple[str, list]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.tag])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, bwd_layer: bool = False):
        """Timing wrapper around ``fn`` that opens a span per call."""
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bwd_layer:
                self._bwd_layers.append((name, []))
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if bwd_layer:
                    self._attribute_backward()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- backward attribution -----------------------------------------------

    def node_created(self, node) -> None:
        if self._bwd_layers:
            self._bwd_layers[-1][1].append(node)

    def _attribute_backward(self) -> None:
        layers = tuple(name for name, _ in self._bwd_layers)
        _, nodes = self._bwd_layers.pop()
        clock, bwd_s = self.clock, self.bwd_s
        for node in nodes:
            fn = node._backward_fn
            if fn is None:
                continue

            def timed(g, fn=fn):
                start = clock()
                fn(g)
                elapsed = clock() - start
                for layer in layers:
                    bwd_s[layer] += elapsed

            node._backward_fn = timed

    # -- installing into rotenc ---------------------------------------------

    def install(self) -> None:
        """Swap every traced function for its wrapper in all rotenc modules."""
        from rotenc import autodiff

        modules = [m for n, m in list(sys.modules.items()) if n == "rotenc" or n.startswith("rotenc.")]
        for module_name, attr, bwd_layer in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(span_name(module_name, attr), getattr(cls, meth), bwd_layer))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name(module_name, attr), original, bwd_layer)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        original_init = autodiff.Value.__init__

        def init(node, *args, **kwargs):
            original_init(node, *args, **kwargs)
            self.node_created(node)

        self._patch(autodiff.Value, "__init__", init)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output -------------------------------------------------------------

    def write_spans(self, fh, unit: int) -> None:
        """Append this tracer's spans to an open text file, one JSON object a line."""
        for name, start, end, parent, tag in self.spans:
            fh.write(json.dumps({"unit": unit, "name": name, "start": start, "end": end,
                                 "parent": parent, "tag": tag}) + "\n")

    def metrics(self, trained_mols: int, train_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of one traced unit of work, as (value, unit) pairs.

        ``trained_mols`` is molecules x epochs trained in the unit and
        ``train_wall_s`` the wall time of its ``train`` call (both 0 when the
        unit does not train).
        """
        times = self_times(self.spans)

        def get(name, key):
            return times.get(name, {}).get(key, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in ("encoder3d.encode", "gnn.gnn_forward"):
            out[f"{layer}.calls"] = (get(layer, "calls"), "count")
            out[f"{layer}.fwd_s"] = (get(layer, "total_s"), "s")
            out[f"{layer}.bwd_s"] = (self.bwd_s.get(layer, 0.0), "s")
        out["encoder3d.views"] = (self.counts["encoder3d.views"], "count")
        out["autodiff.backward.s"] = (get("autodiff.backward", "total_s"), "s")
        out["autodiff.tape_nodes_per_mol"] = (ratio(self.counts["autodiff.tape_nodes"], trained_mols), "count")
        out["autodiff.const_leaf_grad_frac"] = (
            ratio(self.counts["autodiff.const_leaves_with_grad"], self.counts["autodiff.leaves_with_grad"]),
            "fraction",
        )
        for op in ("matmul", "batchnorm", "mean_pool", "scatter_add_rows", "gather_rows"):
            out[f"autodiff.{op}.calls"] = (get(f"autodiff.{op}", "calls"), "count")
            out[f"autodiff.{op}.self_s"] = (get(f"autodiff.{op}", "self_s"), "s")
        out["autodiff.matmul.flops"] = (self.counts["autodiff.matmul.flops"], "flop_computed")
        graphs = get("data.build_graph", "calls")
        out["data.build_graph.calls"] = (graphs, "count")
        out["data.build_graph.self_s"] = (get("data.build_graph", "self_s"), "s")
        out["data.build_graph.edges_per_mol"] = (ratio(self.counts["data.build_graph.edges"], graphs), "count")
        out["data.build_graph.calls_per_mol"] = (ratio(graphs, len(self.graph_ids)), "count")
        for layer in ("geometry.sample_rotations", "alignment.canonical_align"):
            out[f"{layer}.calls"] = (get(layer, "calls"), "count")
            out[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
        out["alignment.canonical_align.degenerate"] = (
            self.counts["alignment.canonical_align.degenerate"], "count")
        out["model.predict_head.fwd_s"] = (get("model.predict_head", "total_s"), "s")
        out["model.predict_head.bwd_s"] = (self.bwd_s.get("model.predict_head", 0.0), "s")
        for layer in ("model.predict", "trainer.adamw_step"):
            out[f"{layer}.calls"] = (get(layer, "calls"), "count")
            out[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
        out["trainer.evaluate_model.s"] = (get("trainer.evaluate_model", "total_s"), "s")
        out["trainer.val_share"] = (ratio(get("trainer.evaluate_model", "total_s"), train_wall_s), "fraction")
        return out


# counts that are exact for a fixed seed; later changes may rest claims on them
EXACT_COUNTS = (
    "autodiff.tape_nodes_per_mol",
    "autodiff.const_leaf_grad_frac",
    "autodiff.matmul.flops",
    "data.build_graph.calls_per_mol",
    "encoder3d.views",
    "alignment.canonical_align.degenerate",
)


# -- per-call observers: counts taken where the work happens -----------------


def _observe_encode(tracer, args, kwargs, result):
    # encode(cloud, table, store, cfg, bn_states, *, rotations=None, ...)
    rotations = kwargs.get("rotations")
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    tracer.counts["encoder3d.views"] += cfg.k if rotations is None else len(rotations)


def _observe_build_graph(tracer, args, kwargs, result):
    tracer.counts["data.build_graph.edges"] += result.n_edges
    tracer.graph_ids.add(args[0].id)


def _observe_align(tracer, args, kwargs, result):
    tracer.counts["alignment.canonical_align.degenerate"] += int(result.degenerate)


def _observe_matmul(tracer, args, kwargs, result):
    tracer.counts["autodiff.matmul.flops"] += _matmul_flops(*args[:2])


def _observe_backward(tracer, args, kwargs, result):
    """Tape size and constant leaves that received a gradient, per backward."""
    seen, stack = set(), [args[0]]
    nodes = const_with_grad = leaves_with_grad = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        stack.extend(node._parents)
        if not node._parents and node._grad is not None:
            leaves_with_grad += 1
            const_with_grad += not node.requires_grad
    tracer.counts["autodiff.tape_nodes"] += nodes
    tracer.counts["autodiff.leaves_with_grad"] += leaves_with_grad
    tracer.counts["autodiff.const_leaves_with_grad"] += const_with_grad


OBSERVERS = {
    "encoder3d.encode": _observe_encode,
    "data.build_graph": _observe_build_graph,
    "alignment.canonical_align": _observe_align,
    "autodiff.matmul": _observe_matmul,
    "autodiff.backward": _observe_backward,
}
