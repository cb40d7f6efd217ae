"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation returns a new ``Value`` carrying the result and a closure
that knows how to push an upstream gradient to its inputs. Calling
``backward`` on a scalar root sweeps the graph once in reverse topological
order. The primitive set is exactly what the encoder, the message-passing
layers, and the regression head need. Shapes are explicit: the broadcasts
allowed are ``broadcast_to``, numpy-style stacking in ``matmul`` and
``dense`` (k views as one ``(k, n, d)`` operand), the bias of ``dense`` and
per-stack statistics in ``batchnorm``. A broadcast operand's gradient is
summed back over the axes it was repeated along.

Inside ``with no_grad():`` operations record no parents and no backward
closure, and skip work only a backward sweep needs (the relu sign mask and
its kink scan), so a forward-only pass keeps no tape alive.

Pooling-style reductions (``sum_pool``, ``mean_pool``, ``scatter_add_rows``
and the batch statistics inside ``batchnorm``) sum each column in ascending
value order, so their forward results are bit-identical under any
permutation of the reduced rows.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NotScalar, ShapeError


def _psum(arr: np.ndarray, axis: int = 0) -> np.ndarray:
    """Permutation-exact sum: sort along the axis, then add."""
    return np.sum(np.sort(arr, axis=axis), axis=axis)


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


class Value:
    """Node in the autodiff graph: float64 data plus gradient plumbing.

    ``_mask`` holds the sign pattern (input > 0) of a relu, fused or not,
    and ``_kink`` says whether any of its inputs sat exactly on 0.
    """

    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_backward_fn", "_op", "_kink", "_mask")

    def __init__(self, data, requires_grad=False, _op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = _op
        self._kink = False
        self._mask = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g):
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        self._grad += g

    def __repr__(self):
        return f"Value(shape={self.data.shape}, op={self._op})"


def _wrap(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _node(data, op: str, parents: tuple, backward) -> Value:
    """Result of an operation; linked into the tape unless grad is off."""
    out = Value(data, _op=op)
    if _grad_enabled:
        out._parents = parents
        out._backward_fn = backward
    return out


def _sum_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    shape = tuple(shape)
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, n in enumerate(shape) if n == 1 and g.shape[lead + i] != 1
    )
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def add(a: Value, b: Value) -> Value:
    """Elementwise add of two values of one shape."""
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")

    def _back(g):
        a._accumulate(g)
        b._accumulate(g)

    return _node(a.data + b.data, "add", (a, b), _back)


def multiply(a: Value, b: Value) -> Value:
    a, b = _wrap(a), _wrap(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"multiply: incompatible shapes {a.data.shape} and {b.data.shape}")

    def _back(g):
        a._accumulate(g * b.data)
        b._accumulate(g * a.data)

    return _node(a.data * b.data, "mul", (a, b), _back)


def scale(a: Value, s: float) -> Value:
    return _node(a.data * s, "scale", (a,), lambda g: a._accumulate(g * s))


def matmul(a: Value, b: Value) -> Value:
    """Matrix product (..., n, m) @ (..., m, p).

    Leading (stack) axes broadcast as in numpy, so k views can share one
    weight matrix; an operand's gradient is summed over the axes it was
    broadcast along.
    """
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: unsupported operand ranks, {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeError(f"matmul: stack dims do not broadcast, {a.data.shape} @ {b.data.shape}") from exc

    def _back(g):
        a._accumulate(_sum_to(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        b._accumulate(_sum_to(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _node(data, "matmul", (a, b), _back)


def dense(x: Value, W: Value, b: Value | None = None, relu: bool = False) -> Value:
    """``relu(x @ W + b)`` as one tape node; the bias and the relu are optional.

    ``x`` is one row (m,), a matrix (n, m) or a stack (..., n, m) sharing
    the (m, p) weight; the (p,) bias is added to every row. The bias add
    and the relu run in place on the fresh product, so the forward result
    and every gradient are bit-identical to the matmul -> add -> relu chain.
    """
    x, W = _wrap(x), _wrap(W)
    if x.data.ndim == 0 or W.data.ndim != 2 or x.data.shape[-1] != W.data.shape[0]:
        raise ShapeError(f"dense: cannot multiply {x.data.shape} @ {W.data.shape}")
    if b is not None:
        b = _wrap(b)
        if b.data.shape != W.data.shape[1:]:
            raise ShapeError(f"dense: bias {b.data.shape} does not match weight {W.data.shape}")
    data = x.data @ W.data
    if b is not None:
        data += b.data
    kink = relu and _grad_enabled and bool(np.any(data == 0.0))
    if relu:
        np.maximum(data, 0.0, out=data)
    mask = data > 0.0 if relu and _grad_enabled else None

    def _back(g):
        if mask is not None:
            g = g * mask
        if b is not None:
            b._accumulate(_sum_to(g, b.data.shape))
        if x.data.ndim == 1:
            x._accumulate(W.data @ g)
            W._accumulate(np.outer(x.data, g))
        else:
            x._accumulate(g @ W.data.T)
            W._accumulate(_sum_to(np.swapaxes(x.data, -1, -2) @ g, W.data.shape))

    out = _node(data, "dense", (x, W) if b is None else (x, W, b), _back)
    out._kink, out._mask = kink, mask
    return out


def broadcast_to(a: Value, shape) -> Value:
    """Repeat ``a`` along new leading axes, e.g. (n, d) -> (k, n, d)."""
    a, shape = _wrap(a), tuple(shape)
    if a.data.shape == shape:
        return a
    if len(shape) < a.data.ndim or shape[len(shape) - a.data.ndim:] != a.data.shape:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.data.shape} to {shape}")
    return _node(np.broadcast_to(a.data, shape), "broadcast_to", (a,),
                 lambda g: a._accumulate(_sum_to(g, a.data.shape)))


def relu(a: Value) -> Value:
    if not _grad_enabled:
        return Value(np.maximum(a.data, 0.0), _op="relu")
    mask = a.data > 0.0
    out = _node(np.maximum(a.data, 0.0), "relu", (a,), lambda g: a._accumulate(g * mask))
    out._kink = bool(np.any(a.data == 0.0))  # gradient at exactly 0 defined as 0
    out._mask = mask
    return out


def sum_pool(a: Value, axis: int = 0) -> Value:
    """Column-wise sum over one axis, permutation-exact in the reduced rows."""

    def _back(g):
        a._accumulate(np.expand_dims(g, axis=axis) * np.ones_like(a.data))

    return _node(_psum(a.data, axis=axis), "sum_pool", (a,), _back)


def mean_pool(a: Value, axis: int = 0) -> Value:
    n = a.data.shape[axis]

    def _back(g):
        a._accumulate(np.expand_dims(g, axis=axis) * np.ones_like(a.data) / n)

    return _node(_psum(a.data, axis=axis) / n, "mean_pool", (a,), _back)


def max_pool(a: Value, axis: int = 0) -> Value:
    argmax = np.expand_dims(np.argmax(a.data, axis=axis), axis)

    def _back(g):
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, argmax, np.expand_dims(g, axis), axis)
        a._accumulate(buf)

    return _node(np.max(a.data, axis=axis), "max_pool", (a,), _back)


def concat(parts, axis: int = 0) -> Value:
    parts = [_wrap(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]

    def _back(g):
        start = 0
        for p, size in zip(parts, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            p._accumulate(g[tuple(sl)])
            start += size

    return _node(np.concatenate([p.data for p in parts], axis=axis), "concat", tuple(parts), _back)


def gather_rows(a: Value, indices) -> Value:
    """Select rows of a 2-d array; duplicate indices are allowed."""
    indices = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: need 2-d input, got {a.data.shape}")

    def _back(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, indices, g)
        a._accumulate(buf)

    return _node(a.data[indices], "gather_rows", (a,), _back)


def scatter_add_rows(a: Value, indices, n_rows: int) -> Value:
    """Accumulate rows of ``a`` into ``n_rows`` destination rows.

    Row i of the output is the sum of all rows j with indices[j] == i
    (zero when there are none). This is the neighbor-sum aggregation for
    message passing; each destination is summed permutation-exactly.

    The rows go into one zero-padded ``(n_rows, max_in_degree, d)`` buffer,
    destination by destination, which is sorted and summed along its middle
    axis. numpy adds along a strided axis one slice at a time, starting
    from +0.0, so the padding zeros change no partial sum and each output
    row equals ``_psum`` of that destination's rows bit for bit. A single
    column is summed along a contiguous axis, where numpy sums pairwise and
    the grouping depends on the row count; one-column inputs are therefore
    summed one in-degree class at a time, without padding.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"scatter_add_rows: need 2-d input, got {a.data.shape}")
    if indices.shape != (a.data.shape[0],):
        raise ShapeError(
            f"scatter_add_rows: index shape {indices.shape} does not match rows {a.data.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= n_rows):
        raise ShapeError(f"scatter_add_rows: indices out of range for {n_rows} rows")
    counts = np.bincount(indices, minlength=n_rows)
    order = np.argsort(indices, kind="stable")
    dest = indices[order]
    slot = np.arange(dest.size) - (np.cumsum(counts) - counts)[dest]
    width = a.data.shape[1]
    buf = np.zeros((n_rows, int(counts.max(initial=0)), width))
    buf[dest, slot] = a.data[order]
    if width > 1:
        result = np.sum(np.sort(buf, axis=1), axis=1)
    else:
        result = np.zeros((n_rows, 1))
        for c in np.unique(counts[counts > 0]):
            rows = counts == c
            result[rows] = np.sum(np.sort(buf[rows, :c], axis=1), axis=1)
    return _node(result, "scatter_add_rows", (a,), lambda g: a._accumulate(g[indices]))


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


def batchnorm(x: Value, gamma: Value, beta: Value, state: BatchNormState, training: bool) -> Value:
    """Batch normalization over the rows (axis -2) of a 2-d or stacked input.

    Training mode normalizes with the batch statistics (population
    variance); a stacked ``(k, n, d)`` input keeps separate statistics for
    each of its k matrices. The statistics are folded into the running
    estimates one matrix at a time, in stack order. Eval mode is a pure
    affine map using the stored running statistics.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm: need 2-d or stacked input, got {x.data.shape}")
    width = x.data.shape[-1]
    if gamma.data.shape != (width,) or beta.data.shape != (width,):
        raise ShapeError(
            f"batchnorm: gamma/beta {gamma.data.shape}/{beta.data.shape} do not match width {width}"
        )
    n = x.data.shape[-2]
    if training:
        mu = np.expand_dims(_psum(x.data, axis=-2) / n, -2)
        var = np.expand_dims(_psum((x.data - mu) ** 2, axis=-2) / n, -2)
        m = BN_MOMENTUM
        for mu_i, var_i in zip(mu.reshape(-1, width), var.reshape(-1, width)):
            state.mean = (1 - m) * state.mean + m * mu_i
            state.var = (1 - m) * state.var + m * var_i
    else:
        mu, var = state.mean, state.var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu) * inv_std
    def _affine_back(g):
        gamma._accumulate(_sum_to(g * xhat, (width,)))
        beta._accumulate(_sum_to(g, (width,)))

    if training:

        def _back(g):
            _affine_back(g)
            g_sum = g.sum(axis=-2, keepdims=True)
            gx_sum = (g * xhat).sum(axis=-2, keepdims=True)
            x._accumulate(gamma.data * inv_std / n * (n * g - g_sum - xhat * gx_sum))

    else:

        def _back(g):
            _affine_back(g)
            x._accumulate(g * gamma.data * inv_std)

    return _node(gamma.data * xhat + beta.data, "batchnorm", (x, gamma, beta), _back)


def mse(pred: Value, target) -> Value:
    """Mean squared error over all elements; returns a scalar."""
    target = _wrap(target)
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: incompatible shapes {pred.data.shape} and {target.data.shape}")
    diff = pred.data - target.data
    n = diff.size

    def _back(g):
        pred._accumulate(g * 2.0 * diff / n)
        target._accumulate(g * (-2.0) * diff / n)

    return _node(np.mean(diff**2), "mse", (pred, target), _back)


def l1_norm(a: Value) -> Value:
    """Sum of absolute values; subgradient at 0 is 0."""
    return _node(np.sum(np.abs(a.data)), "l1_norm", (a,), lambda g: a._accumulate(g * np.sign(a.data)))


def pick(a: Value, index: int) -> Value:
    """Scalar entry of a 1-d value."""
    if a.data.ndim != 1:
        raise ShapeError(f"pick: need 1-d input, got {a.data.shape}")

    def _back(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        a._accumulate(buf)

    return _node(a.data[index], "pick", (a,), _back)


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


def graph_has_kink(root: Value) -> bool:
    """True when any activation in the graph sat exactly on a kink."""
    return any(node._kink for node in _topo_order(root))


def _activation_pattern(root: Value) -> list[np.ndarray]:
    """Sign pattern of every relu input, fused or not, in deterministic graph order."""
    return [node._mask for node in _topo_order(root) if node._mask is not None]


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

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        """(name, Value) pairs in sorted name order (deterministic)."""
        return [(k, self._params[k]) for k in sorted(self._params)]

    def names(self):
        return sorted(self._params)

    def zero_grad(self):
        for v in self._params.values():
            v._grad = None

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
    difference is not valid at that point: an activation input sat exactly
    on a kink, or the stencil crossed one (the sign pattern of a relu or
    of a ``dense`` relu differs between the three evaluations). Returns the max relative error
    max|a - n| / max(|a|, |n|, 1e-8) over the evaluated probes, 0.0 if
    every probe was skipped.
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
    base_kink = graph_has_kink(root)
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
        if base_kink or graph_has_kink(plus) or graph_has_kink(minus):
            continue
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
