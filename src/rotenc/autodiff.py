"""Minimal reverse-mode automatic differentiation over dense float64 or float32 arrays.

Every operation returns a new ``Value`` carrying the result and a closure
that knows how to push an upstream gradient to its inputs. Calling
``backward`` on a scalar root sweeps the graph once in reverse topological
order. The primitive set is exactly what the encoder, the message-passing
layers, and the regression head need. Shapes are explicit: the broadcasts
allowed are ``broadcast_to``, a stacked left operand of ``matmul`` and
``dense`` (k views as one ``(k, n, d)`` operand) sharing a 2-d weight, an
input part of ``dense`` with fewer leading axes than its result, the bias
of ``dense`` and the per-channel statistics of ``batchnorm``. A broadcast
operand's gradient is summed back over the axes it was repeated along.
Relus exist only fused into ``dense``, ``batchnorm`` and ``message_layer``.

An op computes in the dtype of its inputs, and every gradient takes the
dtype of its node: float32 inputs give a float32 tape, anything else is
float64. The inputs of one op share one dtype (a float32 @ float64
product is not a BLAS GEMM); only ``batchnorm``'s running statistics stay
float64 whatever the input.

A result needs a gradient (``requires_grad``) when any of its inputs does;
a result that needs none is a constant: it records no parents and no
backward closure, and a closure pushes gradient only into the inputs that
need one. Inside ``with no_grad():`` nothing needs a gradient, so a
forward-only pass keeps no tape alive. Work that only the backward sweep
uses (a fused relu's sign pattern, the argmax of ``max_pool``, the
``x − μ`` of ``batchnorm``) runs inside the backward closure, from the
arrays the closure already holds, so no forward pass pays for it and no
node stores it.

A reduction's summation order is numpy's, not always row order (one
``np.add.reduceat`` adds a segment's first row last); what every
reduction guarantees is that a segment reduces to the same bits wherever
it sits. Exactness under atom permutation comes from the one canonical
atom order of ``Model.prepare``, not from the reductions. Given
``offsets``, the pooling ops treat their row axis as segments stored back
to back (one molecule of a packed batch each, segment b in rows
``offsets[b]:offsets[b+1]``) and reduce every segment on its own, to the
bits of the same rows reduced alone. Training ``batchnorm`` is the one
reduction that spans the whole batch: one statistic per channel over
every row of its input.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import pairwise
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import NotScalar, ShapeError


_grad_enabled = True


@contextmanager
def no_grad():
    """Build no tape inside the block; the previous setting returns on exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """Whether operations on inputs that need a gradient record a tape (False inside ``no_grad``)."""
    return _grad_enabled


_FLOAT32 = np.dtype(np.float32)


class Value:
    """Node in the autodiff graph: float32 or float64 data plus gradient plumbing.

    A float32 array or scalar stays float32; anything else becomes float64.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad=False, _op="leaf"):
        self.data = np.asarray(data, dtype=_FLOAT32 if getattr(data, "dtype", None) is _FLOAT32 else np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = _op

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g, owned: bool = False):
        """Add ``g`` to this node's gradient.

        ``owned`` says ``g`` is a fresh array nobody else holds, which the
        first gradient then keeps as it is when it is C-ordered.
        """
        if self._grad is not None:
            self._grad += g
        elif owned and g.flags.c_contiguous and g.shape == self.data.shape:
            self._grad = g
        else:
            # a C-ordered copy: a broadcast view's layout must not decide the
            # order in which a later reduction of this gradient sums
            self._grad = np.array(np.broadcast_to(g, self.data.shape), dtype=self.data.dtype, order="C")

    def __repr__(self):
        return f"Value(shape={self.data.shape}, op={self._op})"


def _wrap(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _node(data, op: str, parents: tuple, backward) -> Value:
    """Result of an operation; linked into the tape when it needs a gradient."""
    out = Value(data, _op=op)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward
    return out


def _push(v: Value, grad, owned: bool = False) -> None:
    """Accumulate ``grad()`` into ``v`` when ``v`` needs a gradient (computed lazily).

    ``owned``: ``grad()`` returns a fresh array (see ``Value._accumulate``).
    """
    if v.requires_grad:
        v._accumulate(grad(), owned)


def _rows_matmul(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``x @ W`` for a 2-d ``W``, with every leading axis of ``x`` folded into one GEMM."""
    if x.ndim <= 2:
        return x @ W
    return (x.reshape(-1, x.shape[-1]) @ W).reshape(x.shape[:-1] + W.shape[1:])


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of a 2-d weight shared by every row of ``x``: one GEMM over all rows."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _sum_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` over the leading axes along which an operand of ``shape`` was repeated."""
    lead = g.ndim - len(shape)
    return g.sum(axis=tuple(range(lead))) if lead else g


def add(a: Value, b: Value) -> Value:
    """Elementwise add of two values of one shape."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")

    def _back(g):
        _push(a, lambda: g)
        _push(b, lambda: g)

    return _node(a.data + b.data, "add", (a, b), _back)


def scale(a: Value, s: float) -> Value:
    return _node(a.data * s, "scale", (a,), lambda g: _push(a, lambda: g * s, owned=True))


def matmul(a: Value, b: Value) -> Value:
    """Matrix product (..., n, m) @ (m, p): k views share one weight matrix.

    All rows of a stacked ``a`` are multiplied in one GEMM, and the
    gradient of ``b`` is one GEMM over all rows too.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: need (..., n, m) @ (m, p), got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")

    def _back(g):
        _push(a, lambda: _rows_matmul(g, b.data.T), owned=True)
        _push(b, lambda: _weight_grad(a.data, g), owned=True)

    return _node(_rows_matmul(a.data, b.data), "matmul", (a, b), _back)


_size = attrgetter("size")
_ndim = attrgetter("ndim")


def dense(x, W: Value, b: Value | None = None, relu: bool = False) -> Value:
    """``relu(x @ W + b)`` as one tape node; the bias and the relu are optional.

    ``x`` is one row (m,), a matrix (n, m) or a stack (..., n, m) sharing
    the (m, p) weight; the (p,) bias is added to every row. The bias add
    and the relu run in place on the fresh product, so the forward result
    and every gradient are bit-identical to the matmul -> add -> relu chain.
    A node with the relu is a ``"dense_relu"`` op; its backward reads the
    relu's sign pattern off the output.

    ``x`` may also be a plain tuple of parts standing for their
    concatenation along the last axis; part i multiplies the next rows of
    ``W``, as many as it has columns. Every part is projected on its own
    and the projections are summed, so the concatenated input is never
    built. A part with fewer leading axes than the result is projected once
    and broadcast over the axes it lacks (one embedding row shared by k
    views). The bias joins the smallest projection, before it is
    broadcast. The backward sums a broadcast part's gradient over the axes
    it was repeated along before the input and weight products, which
    therefore run on the part's own rows too.
    """
    W = _wrap(W)
    weight = W.data
    if weight.ndim != 2:
        raise ShapeError(f"dense: need a 2-d weight, got {weight.shape}")
    if b is not None:
        b = _wrap(b)
        if b.data.shape != weight.shape[1:]:
            raise ShapeError(f"dense: bias {b.data.shape} does not match weight {weight.shape}")
    sources = [_wrap(part) for part in (x if type(x) is tuple else (x,))]
    blocks, projections = [], []
    stop = 0
    for source in sources:
        width = source.data.shape[-1] if source.data.ndim else -1
        block = weight[stop:stop + width]
        if block.shape[0] != width:
            raise ShapeError(f"dense: cannot multiply {source.data.shape} by rows {stop}: of {weight.shape}")
        stop += width
        blocks.append(block)
        projections.append(_rows_matmul(source.data, block))
    if stop != weight.shape[0]:
        raise ShapeError(f"dense: parts of {stop} columns cannot multiply {weight.shape}")
    if b is not None:
        smallest = min(projections, key=_size) if len(sources) > 1 else projections[0]
        smallest += b.data  # before any broadcast
    # every projection is a fresh array: the one of the result's shape takes the others in place
    data = projections[0] if len(sources) == 1 else max(projections, key=_ndim)
    lead = data.shape[:-1]
    for projected in projections:
        if projected is not data:
            if projected.shape[:-1] != lead[len(lead) - projected.ndim + 1:]:
                raise ShapeError(f"dense: parts of rows {[p.shape[:-1] for p in projections]} do not broadcast")
            data += projected
    if relu:
        np.maximum(data, 0.0, out=data)

    def _back(g):
        if relu:
            g = g * (data > 0.0)
        if b is not None:
            _push(b, lambda: _sum_to(g, b.data.shape))
        w_grads = []
        for source, block in zip(sources, blocks):
            gp = _sum_to(g, source.data.shape)
            if source.data.ndim == 1:
                _push(source, lambda: block @ gp, owned=True)
                w_grads.append(np.outer(source.data, gp) if W.requires_grad else None)
            else:
                _push(source, lambda: _rows_matmul(gp, block.T), owned=True)
                w_grads.append(_weight_grad(source.data, gp) if W.requires_grad else None)
        _push(W, lambda: w_grads[0] if len(w_grads) == 1 else np.concatenate(w_grads), owned=True)

    return _node(data, "dense_relu" if relu else "dense", (*sources, W) if b is None else (*sources, W, b), _back)


def broadcast_to(a: Value, shape) -> Value:
    """Repeat ``a`` along new leading axes, e.g. (n, d) -> (k, n, d)."""
    a, shape = _wrap(a), tuple(shape)
    if a.data.shape == shape:
        return a
    if len(shape) < a.data.ndim or shape[len(shape) - a.data.ndim:] != a.data.shape:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.data.shape} to {shape}")
    return _node(np.broadcast_to(a.data, shape), "broadcast_to", (a,),
                 lambda g: _push(a, lambda: _sum_to(g, a.data.shape)))


def _segments(offsets, n: int) -> np.ndarray:
    """Validated segment boundaries: 0 = offsets[0] < offsets[1] < ... < offsets[-1] = n."""
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 2 or not (
            offsets[0] == 0 and offsets[-1] == n and (offsets[1:] > offsets[:-1]).all()):
        raise ShapeError(f"offsets {offsets.tolist()} do not cut {n} rows into non-empty segments")
    return offsets


def _pool(a: Value, axis: int, offsets, op: str, mean: bool) -> Value:
    """Sum, or average for a ``mean``, one axis of ``a``, whole or per segment.

    Without offsets the axis is dropped; with offsets it keeps one entry per
    segment. One ``reduceat`` sums every segment on its own, so a segment
    sums to the bits it sums to alone (in numpy's order, which adds its
    first row last, not in row order). The backward spreads each entry's
    gradient over its rows, divided by the row count for a ``mean``.
    """
    axis = axis % a.data.ndim
    n = a.data.shape[axis]
    bounds = _segments([0, n] if offsets is None else offsets, n)
    lengths = bounds[1:] - bounds[:-1]
    per_row = [1] * a.data.ndim
    per_row[axis] = -1
    data = np.add.reduceat(a.data, bounds[:-1], axis=axis)
    if mean:
        data /= lengths.reshape(per_row)

    def _back(g):
        grad = np.repeat(g if offsets is not None else np.expand_dims(g, axis), lengths, axis=axis)
        if mean:
            grad /= np.repeat(lengths, lengths).reshape(per_row)
        a._accumulate(grad, owned=True)

    return _node(data if offsets is not None else data.squeeze(axis), op, (a,), _back)


def sum_pool(a: Value, axis: int = 0, offsets=None) -> Value:
    """Column-wise sum over one axis (or each segment of it), each segment to its lone bits."""
    return _pool(a, axis, offsets, "sum_pool", mean=False)


def mean_pool(a: Value, axis: int = 0, offsets=None) -> Value:
    """Column-wise mean over one axis (or each segment of it), each segment to its lone bits."""
    return _pool(a, axis, offsets, "mean_pool", mean=True)


def mean(a: Value, axis: int = 0) -> Value:
    """Mean over one axis, summed in index order in one pass; the gradient is ``g / k`` on every row.

    Each entry of the result is the sum of its own k values in index order,
    the same way wherever it sits, so reordering the other axes reorders
    the result exactly. numpy adds along a leading axis one slice at a
    time, except that it sums a stack of single-entry slices pairwise; that
    shape is accumulated slice by slice instead.
    """
    a = _wrap(a)
    axis = axis % a.data.ndim
    k = a.data.shape[axis]
    if k > 1 and a.data.size == k:
        total = np.add.accumulate(a.data, axis=axis).take(-1, axis=axis)
    else:
        total = np.sum(a.data, axis=axis)
    return _node(total / k, "mean", (a,),
                 lambda g: _push(a, lambda: np.broadcast_to(np.expand_dims(g / k, axis), a.data.shape)))


def max_pool(a: Value, axis: int = 0, offsets=None) -> Value:
    """Column-wise max over one axis (or each segment of it); the gradient goes to the first maximum."""
    axis = axis % a.data.ndim
    n = a.data.shape[axis]
    bounds = _segments([0, n] if offsets is None else offsets, n)
    data = np.maximum.reduceat(a.data, bounds[:-1], axis=axis)

    def _back(g):
        # index of each segment's first maximum, along the whole axis
        rows = np.arange(n).reshape((-1,) + (1,) * (a.data.ndim - axis - 1))
        at_max = a.data == np.repeat(data, bounds[1:] - bounds[:-1], axis=axis)
        argmax = np.minimum.reduceat(np.where(at_max, rows, n), bounds[:-1], axis=axis)
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, argmax, g if offsets is not None else np.expand_dims(g, axis), axis)
        a._accumulate(buf, owned=True)

    return _node(data if offsets is not None else data.squeeze(axis), "max_pool", (a,), _back)


def segment_matmul(a: Value, b: Value, offsets) -> Value:
    """Each segment of the rows of ``a`` times its own matrix stack.

    ``a`` is (N, m) with segment s in rows offsets[s]:offsets[s+1]; ``b`` is
    (S, ..., m, p), one stack per segment. The result is (..., N, p): rows
    of segment s are ``a[rows] @ b[s]``, so one molecule of a packed batch
    gets exactly the product it gets on its own.
    """
    a, b = _wrap(a), _wrap(b)
    offsets = _segments(offsets, a.data.shape[0])
    if a.data.ndim != 2 or b.data.ndim < 3 or b.data.shape[0] != offsets.size - 1 \
            or b.data.shape[-2] != a.data.shape[1]:
        raise ShapeError(f"segment_matmul: cannot multiply {a.data.shape} by {b.data.shape} "
                         f"in {offsets.size - 1} segments")
    bounds = list(pairwise(offsets.tolist()))
    if len(bounds) == 1:  # one stack for every row: the product needs no assembling copy
        data = a.data @ b.data[0]
    else:
        data = np.empty(b.data.shape[1:-2] + (a.data.shape[0], b.data.shape[-1]), dtype=a.data.dtype)
        for s, (start, stop) in enumerate(bounds):
            data[..., start:stop, :] = a.data[start:stop] @ b.data[s]

    def _back(g):
        if a.requires_grad:
            ga = np.empty_like(a.data)
            for s, (start, stop) in enumerate(bounds):
                ga[start:stop] = _sum_to(g[..., start:stop, :] @ np.swapaxes(b.data[s], -1, -2),
                                         (stop - start, a.data.shape[1]))
            a._accumulate(ga, owned=True)
        if b.requires_grad:
            b._accumulate(np.stack([a.data[start:stop].T @ g[..., start:stop, :] for start, stop in bounds]))

    return _node(data, "segment_matmul", (a, b), _back)


def concat(parts, axis: int = 0) -> Value:
    parts = [_wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]

    def _back(g):
        start = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _push(p, lambda: g[tuple(sl)])
            start += size

    return _node(np.concatenate([p.data for p in parts], axis=axis), "concat", tuple(parts), _back)


def gather_rows(a: Value, indices, *, plan: ScatterPlan | None = None) -> Value:
    """Select rows of a 2-d array (duplicates allowed); a shared ``scatter_plan(indices, len(a))`` serves the backward."""
    indices = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: need 2-d input, got {a.data.shape}")
    if plan is not None:
        _check_plan(plan, indices.shape[0], a.data.shape[0])

    def _back(g):
        _push(a, lambda: _scatter_sum(g, plan or scatter_plan(indices, a.data.shape[0])), owned=True)

    return _node(a.data[indices], "gather_rows", (a,), _back)


class ScatterPlan(NamedTuple):
    """Where the rows of a scatter go, from ``scatter_plan``; reusable for every call with the same indices."""

    indices: np.ndarray  # destination of each input row
    counts: np.ndarray  # rows per destination (its in-degree)
    order: np.ndarray | None  # stable argsort of ``indices``; None when they are grouped already (``grouped_plan``)
    filled: np.ndarray  # the destinations that get at least one row, ascending
    starts: np.ndarray  # where each filled destination's rows begin, once grouped


def scatter_plan(indices, n_rows: int) -> ScatterPlan:
    """Validate ``indices`` (one destination row in [0, n_rows) per input row) and plan their scatter."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1:
        raise ShapeError(f"scatter_add_rows: need 1-d indices, got shape {indices.shape}")
    if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
        raise ShapeError(f"scatter_add_rows: indices out of range for {n_rows} rows")
    return _plan(indices, n_rows, np.argsort(indices, kind="stable"))


def grouped_plan(indices: np.ndarray, n_rows: int) -> ScatterPlan:
    """The plan of int64 indices in [0, n_rows) that are already grouped (non-decreasing); not checked.

    Its scatter sums consecutive rows and needs no sort (``order`` is None).
    """
    return _plan(indices, n_rows, None)


def _plan(indices: np.ndarray, n_rows: int, order: np.ndarray | None) -> ScatterPlan:
    counts = np.bincount(indices, minlength=n_rows)
    filled = np.flatnonzero(counts)
    return ScatterPlan(indices, counts, order, filled, (np.cumsum(counts) - counts)[filled])


def _check_plan(plan: ScatterPlan, n_in: int, n_rows: int) -> None:
    if plan.indices.shape != (n_in,) or plan.counts.size != n_rows:
        raise ShapeError(f"scatter plan of {plan.indices.shape[0]} rows into {plan.counts.size} "
                         f"does not fit {n_in} rows into {n_rows}")


def _scatter_sum(x: np.ndarray, plan: ScatterPlan) -> np.ndarray:
    """Row i sums the rows of ``x`` planned for destination i and no other row.

    One ``reduceat`` over the grouped rows sums each destination's rows on
    their own, so a destination gets the same bits whatever else is
    scattered (the order within a destination is numpy's, not index order).
    """
    grouped = x if plan.order is None else x.take(plan.order, axis=0)
    if 0 < plan.filled.size == plan.counts.size:  # every destination gets a row
        return np.add.reduceat(grouped, plan.starts, axis=0)
    out = np.zeros((plan.counts.size,) + x.shape[1:], dtype=x.dtype)
    if plan.filled.size:
        out[plan.filled] = np.add.reduceat(grouped, plan.starts, axis=0)
    return out


def scatter_add_rows(a: Value, indices, n_rows: int, *, plan: ScatterPlan | None = None) -> Value:
    """Accumulate rows of ``a`` into ``n_rows`` destination rows.

    Row i of the output is the sum of all rows j with indices[j] == i,
    summed on their own as ``_scatter_sum`` does (zero when there are
    none). This is the neighbor-sum aggregation for message passing.
    ``plan`` is ``scatter_plan(indices, n_rows)`` built once by a caller
    that scatters along the same indices several times (every layer of
    ``gnn.gnn_forward``); without it the call builds its own.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"scatter_add_rows: need 2-d input, got {a.data.shape}")
    if plan is None:
        plan = scatter_plan(indices, n_rows)
    _check_plan(plan, a.data.shape[0], n_rows)
    return _node(_scatter_sum(a.data, plan), "scatter_add_rows", (a,),
                 lambda g: _push(a, lambda: g[plan.indices], owned=True))


def in_degree_scale(destinations: ScatterPlan) -> np.ndarray:
    """1/in-degree of every node of a destination plan, 0 for a node without incoming edges."""
    scale = np.zeros(destinations.counts.size)
    scale[destinations.filled] = 1.0 / destinations.counts[destinations.filled]
    return scale


def message_layer(h: Value, src, destinations: ScatterPlan, inv_degree, edge_feats, weights, sources) -> Value:
    """One message-passing round over edges grouped by destination, as one tape node.

    Edge j runs from node ``src[j]`` to node ``destinations.indices[j]``.
    ``destinations`` is the ``grouped_plan`` of the destinations, so each
    node's incoming edges are consecutive rows, and ``inv_degree`` its
    ``in_degree_scale``. ``h`` holds the (N, d) node states and
    ``edge_feats`` the (E, d_e) edge features. ``weights`` is (W1, b1, W2,
    b2, W_upd, b_upd), where W1's rows take ``[h_dst | h_src | e]`` in that
    order. The result is

        hid_j = relu(h_dst W1_dst + h_src W1_src + e_j W1_edge + b1)
        m_v   = mean_{j into v} (hid_j W2 + b2) = (Σ_{j into v} hid_j / deg(v)) W2 + b2
        h'_v  = relu([h_v | m_v] W_upd + b_upd)

    so a node without incoming edges gets a zero message (no b2 either),
    and a message keeps its scale whatever a node's degree. W1_dst (with
    b1) and W1_src project node rows before the per-edge gathers; W2
    multiplies each destination's mean, whose sum is one ``reduceat`` over
    consecutive rows. The backward scatters the edge gradient onto the
    destinations the same way and onto the sources through ``sources()``,
    a callable giving ``scatter_plan(src, N)``, called only by the
    backward (a graph's ``source_plan`` plans once for all its layers); the
    weight and input products then run on node rows. ``gradient_check``
    reads the two relu outputs off the backward closure's ``relu_outputs``.
    """
    W1, b1, W2, b2, W_upd, b_upd = (_wrap(w) for w in weights)
    x, src, dst = h.data, np.asarray(src), destinations.indices
    e = np.asarray(edge_feats, dtype=x.dtype)
    n, width = x.shape if x.ndim == 2 else (-1, -1)
    if destinations.order is not None or destinations.counts.size != n or np.shape(inv_degree) != (n,) \
            or src.shape != dst.shape or e.shape[:1] != dst.shape or e.ndim != 2:
        raise ShapeError(f"message_layer: {src.shape} sources, {e.shape} edge features and a plan of "
                         f"{dst.shape} grouped destinations with {np.shape(inv_degree)} degree scales "
                         f"do not fit node states {x.shape}")
    shapes = [w.data.shape for w in (W1, b1, W2, b2, W_upd, b_upd)]
    hid, msg, out_width = shapes[0][-1], shapes[2][-1], shapes[4][-1]
    if shapes != [(2 * width + e.shape[1], hid), (hid,), (hid, msg), (msg,), (width + msg, out_width), (out_width,)]:
        raise ShapeError(f"message_layer: weights {shapes} do not fit node width {width} and edge width {e.shape[1]}")
    filled = destinations.filled
    w1 = W1.data
    blocks = (w1[:width], w1[width:2 * width], w1[2 * width:])
    to_dst = _rows_matmul(x, blocks[0])
    to_dst += b1.data  # on node rows, before the gather
    hidden = to_dst.take(dst, axis=0)
    hidden += _rows_matmul(x, blocks[1]).take(src, axis=0)
    hidden += _rows_matmul(e, blocks[2])
    np.maximum(hidden, 0.0, out=hidden)
    averaged = _scatter_sum(hidden, destinations)  # a fresh array
    averaged *= inv_degree[:, None]
    message = _rows_matmul(averaged, W2.data)
    message[filled] += b2.data
    joint = np.concatenate([x, message], axis=1)
    out = _rows_matmul(joint, W_upd.data)
    out += b_upd.data
    np.maximum(out, 0.0, out=out)

    def _back(g):
        g = g * (out > 0.0)
        _push(b_upd, lambda: _sum_to(g, b_upd.data.shape))
        _push(W_upd, lambda: _weight_grad(joint, g), owned=True)
        if not (h.requires_grad or W1.requires_grad or b1.requires_grad or W2.requires_grad or b2.requires_grad):
            return
        g_joint = _rows_matmul(g, W_upd.data.T)
        g_message = np.ascontiguousarray(g_joint[:, width:])
        _push(b2, lambda: g_message[filled].sum(axis=0), owned=True)
        _push(W2, lambda: _weight_grad(averaged, g_message), owned=True)
        g_averaged = _rows_matmul(g_message, W2.data.T)
        g_averaged *= inv_degree[:, None]
        g_hidden = g_averaged.take(dst, axis=0)
        g_hidden *= hidden > 0.0
        _push(b1, lambda: _sum_to(g_hidden, b1.data.shape))
        if not (h.requires_grad or W1.requires_grad):
            return
        g_dst = _scatter_sum(g_hidden, destinations)
        g_src = _scatter_sum(g_hidden, sources())
        _push(W1, lambda: np.concatenate([_weight_grad(x, g_dst), _weight_grad(x, g_src),
                                          _weight_grad(e, g_hidden)]), owned=True)
        if h.requires_grad:
            # one fixed summation order: the update's share, then the destinations', then the sources'
            g_h = np.array(g_joint[:, :width], order="C")
            g_h += _rows_matmul(g_dst, blocks[0].T)
            g_h += _rows_matmul(g_src, blocks[1].T)
            h._accumulate(g_h, owned=True)

    _back.relu_outputs = (hidden, out)
    return _node(out, "message_layer", (h, W1, b1, W2, b2, W_upd, b_upd), _back)


BN_MOMENTUM = 0.1  # weight of a new batch statistic in the running estimate
BN_EPS = 1e-5  # added to the variance before the square root


@dataclass
class BatchNormState:
    """Running statistics for one batchnorm site (not trainable)."""

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def for_width(cls, width: int):
        return cls(np.zeros(width), np.ones(width))


def _fold_running(state: BatchNormState, mu: np.ndarray, var: np.ndarray) -> None:
    """Fold one batch's per-channel statistics into the running estimates."""
    m = BN_MOMENTUM
    state.mean = (1 - m) * state.mean + m * mu
    state.var = (1 - m) * state.var + m * var


def batchnorm(x: Value, gamma: Value, beta: Value, state: BatchNormState, relu: bool = False) -> Value:
    """Training-mode batch normalization over every row of a 2-d or stacked input, optionally then relu.

    Each channel (last axis) is normalized with one mean and one population
    variance taken over all its rows: all k views of all molecules of a
    packed ``(k, N, d)`` batch together, as PointNet shares one statistic
    over every point of a batch. ``x − μ`` is written into the output, its
    column-wise dot with itself gives the variance, and it is scaled in
    place by ``a = γ/√(σ² + ε)``; subtracting μ first keeps the digits of a
    channel whose mean dwarfs its spread. β and the relu then run in place.
    The statistics are folded into the running estimates once per call.
    ``relu`` makes the node a ``"batchnorm_relu"`` op whose backward reads
    the sign pattern off the output, as ``dense`` does.

    The node keeps only its output and the per-channel μ, 1/σ and a; the
    backward recomputes ``x − μ`` from the input rather than storing the
    normalized ``x̂`` and writes the input gradient once. (Inference folds
    the running statistics into the preceding weights instead; see
    ``encoder3d.pointwise_stack``.)
    """
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm: need 2-d or stacked input, got {x.data.shape}")
    width = x.data.shape[-1]
    if gamma.data.shape != (width,) or beta.data.shape != (width,):
        raise ShapeError(
            f"batchnorm: gamma/beta {gamma.data.shape}/{beta.data.shape} do not match width {width}"
        )
    rows = x.data.size // width
    mu = x.data.reshape(-1, width).sum(axis=0) / rows
    out = np.subtract(x.data, mu)
    flat = out.reshape(-1, width)
    var = np.einsum("nd,nd->d", flat, flat) / rows  # column-wise dots
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    a = gamma.data * inv_std
    out *= a
    out += beta.data
    if relu:
        np.maximum(out, 0.0, out=out)
    _fold_running(state, mu, var)

    def _back(g):
        if relu:
            g = g * (out > 0.0)  # g', masked once
        centered = np.subtract(x.data, mu)
        g_rows = g.reshape(-1, width)
        g_sum = g_rows.sum(axis=0)
        g_xhat_sum = np.einsum("nd,nd->d", g_rows, centered.reshape(-1, width)) * inv_std  # Σ g'·x̂
        _push(gamma, lambda: g_xhat_sum, owned=True)
        _push(beta, lambda: g_sum, owned=True)
        if x.requires_grad:
            # gx = a·g' − (a/n)·Σg' − (a/(σn))·Σg'x̂·(x − μ), as a·(g' − Σg'/n − (Σg'x̂/(σn))·(x − μ)),
            # built in the one temporary and handed over as the input gradient
            centered *= inv_std * g_xhat_sum / rows
            centered += g_sum / rows
            np.subtract(g, centered, out=centered)
            centered *= a
            x._accumulate(centered, owned=True)

    return _node(out, "batchnorm_relu" if relu else "batchnorm", (x, gamma, beta), _back)


def mse(pred: Value, target) -> Value:
    """Mean squared error over all elements; returns a scalar."""
    target = _wrap(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: incompatible shapes {pred.data.shape} and {target.data.shape}")
    diff = pred.data - target.data
    n = diff.size

    def _back(g):
        _push(pred, lambda: g * 2.0 * diff / n, owned=True)
        _push(target, lambda: g * (-2.0) * diff / n, owned=True)

    return _node(np.mean(diff**2), "mse", (pred, target), _back)


def l1_norm(a: Value) -> Value:
    """Sum of absolute values; subgradient at 0 is 0."""
    return _node(np.sum(np.abs(a.data)), "l1_norm", (a,), lambda g: _push(a, lambda: g * np.sign(a.data), owned=True))


def pick(a: Value, index) -> Value:
    """The one entry of ``a`` that ``index`` selects, e.g. ``i`` of a vector or ``(b, j)`` of a matrix."""
    data = a.data[index]
    if np.ndim(data) != 0:
        raise ShapeError(f"pick: index {index!r} selects {np.shape(data)} entries of {a.data.shape}, not one")

    def _back(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        a._accumulate(buf, owned=True)

    return _node(data, "pick", (a,), _back)


def _topo_order(root: Value) -> list[Value]:
    order = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            stack.append((parent, False))
    return order


def backward(root: Value) -> None:
    """Populate gradients of everything reachable from a scalar root."""
    if root.data.size != 1:
        raise NotScalar(f"backward needs a scalar root, got shape {root.data.shape}")
    order = _topo_order(root)
    root._grad = np.ones_like(root.data)
    for node in reversed(order):
        if node._backward_fn is not None and node._grad is not None:
            node._backward_fn(node._grad)


def _activation_pattern(root: Value) -> list[np.ndarray]:
    """Sign pattern (output > 0) of every fused relu, in deterministic graph order."""
    patterns = []
    for node in _topo_order(root):
        if node._op in ("dense_relu", "batchnorm_relu"):
            patterns.append(node.data > 0.0)
        elif node._op == "message_layer":
            patterns.extend(r > 0.0 for r in getattr(node._backward_fn, "relu_outputs", ()))
    return patterns


def _patterns_differ(a, b) -> bool:
    return len(a) != len(b) or any(not np.array_equal(x, y) for x, y in zip(a, b))


class ParameterStore:
    """Named map of trainable parameters; names are unique paths."""

    def __init__(self):
        self._params: dict[str, Value] = {}

    def add(self, name: str, data) -> Value:
        if name in self._params:
            raise KeyError(f"duplicate parameter name {name!r}")
        v = Value(data, requires_grad=True)
        self._params[name] = v
        return v

    def __getitem__(self, name: str) -> Value:
        return self._params[name]

    def items(self):
        """(name, Value) pairs in sorted name order (deterministic)."""
        return [(k, self._params[k]) for k in sorted(self._params)]

    def names(self):
        return sorted(self._params)

    def zero_grad(self):
        for v in self._params.values():
            v._grad = None

    @contextmanager
    def float32(self):
        """Inside the block every parameter holds a float32 copy of its data.

        Ops on the parameters then build a float32 tape, and ``backward``
        leaves float32 gradients. On exit, also when the block raises, each
        parameter gets its own data array back, untouched.
        """
        masters = [(v, v.data) for v in self._params.values()]
        try:
            for v, data in masters:
                v.data = data.astype(np.float32)
            yield
        finally:
            for v, data in masters:
                v.data = data

    def state_dict(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self.items()}

    def load_state_dict(self, arrays: dict[str, np.ndarray]):
        for name, value in self.items():
            if name not in arrays:
                raise KeyError(f"missing parameter {name!r} in state dict")
            if arrays[name].shape != value.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: stored shape {arrays[name].shape} "
                    f"!= expected {value.data.shape}"
                )
            value.data = np.asarray(arrays[name], dtype=np.float64).copy()


def gradient_check(f, store: ParameterStore, h: float = 1e-5, n_probe: int = 50,
                   seed: int = 0) -> float:
    """Compare backward gradients against central differences.

    ``f(store)`` must build and return a scalar Value and be a pure
    function of the stored parameters. A probe is skipped when the central
    difference is not valid at that point: the stencil moved a relu onto or
    across its kink (the sign pattern of a fused relu differs between the
    three evaluations). A relu input that sits exactly on 0 and stays there
    is no reason to skip: the relu is flat along that probe. Returns the
    max relative error max|a - n| / max(|a|, |n|, 1e-8) over the evaluated
    probes, 0.0 if every probe was skipped.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    names = store.names()
    sizes = [store[n].data.size for n in names]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=min(n_probe, total), replace=False)
    flat.sort()

    store.zero_grad()
    root = f(store)
    backward(root)
    base_pattern = _activation_pattern(root)
    analytic = {}
    for idx in flat:
        name, offset = _locate(names, sizes, int(idx))
        g = store[name]._grad
        analytic[int(idx)] = 0.0 if g is None else float(g.flat[offset])

    worst = 0.0
    for idx in flat:
        name, offset = _locate(names, sizes, int(idx))
        data = store[name].data
        orig = data.flat[offset]
        data.flat[offset] = orig + h
        plus = f(store)
        data.flat[offset] = orig - h
        minus = f(store)
        data.flat[offset] = orig
        if _patterns_differ(base_pattern, _activation_pattern(plus)) or _patterns_differ(
            base_pattern, _activation_pattern(minus)
        ):
            continue
        numeric = float((plus.data - minus.data) / (2.0 * h))
        a = analytic[int(idx)]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def _locate(names, sizes, flat_index):
    for name, size in zip(names, sizes):
        if flat_index < size:
            return name, flat_index
        flat_index -= size
    raise IndexError("probe index out of range")
