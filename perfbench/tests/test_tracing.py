"""Self-time and backward-attribution arithmetic of the span tracer."""

import itertools

import numpy as np
import pytest

import rotenc
from rotenc import autodiff as ad

import tracing


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    # and an overhanging child d [8.5, 12] that is clipped to b
    spans = [
        ("root", 0.0, 10.0, -1, "m0"),
        ("a", 1.0, 4.0, 0, "m0"),
        ("b", 5.0, 9.0, 0, "m0"),
        ("c", 6.0, 7.0, 2, "m0"),
        ("d", 8.5, 12.0, 2, "m0"),
        ("a", 20.0, 22.0, -1, "m1"),
    ]
    times = tracing.self_times(spans)
    assert times["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert times["a"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert times["b"]["self_s"] == pytest.approx(4.0 - 1.0 - 0.5)
    assert times["c"]["self_s"] == 1.0


def test_overlapping_children_are_counted_once():
    spans = [("p", 0.0, 10.0, -1, None), ("x", 2.0, 6.0, 0, None), ("y", 4.0, 8.0, 0, None)]
    assert tracing.self_times(spans)["p"]["self_s"] == 4.0


def test_backward_time_is_attributed_to_the_creating_layer():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def layer(x, w):
        # three tape nodes with backward closures: matmul, relu, sum_pool
        return ad.sum_pool(ad.relu(ad.matmul(x, w)), axis=0)

    traced_layer = tracer.wrap("gnn.gnn_forward", layer, bwd_layer=True)
    w = ad.Value(np.ones((3, 2)), requires_grad=True)
    x = ad.Value(np.arange(12.0).reshape(4, 3))
    with tracer:
        out = traced_layer(x, w)
        loss = ad.scale(ad.sum_pool(out, axis=0), 0.5)  # two nodes outside the layer
        ad.backward(loss)
    # each wrapped closure reads the clock twice in a row, so it lasts one tick
    assert tracer.bwd_s == {"gnn.gnn_forward": 3.0}
    assert np.array_equal(w.grad, np.repeat(0.5 * x.data.sum(axis=0)[:, None], 2, axis=1))
    counts = tracer.counts
    assert counts["autodiff.tape_nodes"] == 7  # x, w, matmul, relu, 2 x sum_pool, scale
    assert counts["autodiff.leaves_with_grad"] == 2
    assert counts["autodiff.const_leaves_with_grad"] == 1


def test_uninstall_restores_every_function():
    before = (rotenc.model.Model.predict, rotenc.encoder3d.encode, rotenc.autodiff.matmul,
              rotenc.model.build_graph, rotenc.Value.__init__)
    with tracing.Tracer():
        assert rotenc.model.build_graph is rotenc.data.build_graph
        assert rotenc.model.build_graph is not before[3]
    after = (rotenc.model.Model.predict, rotenc.encoder3d.encode, rotenc.autodiff.matmul,
             rotenc.model.build_graph, rotenc.Value.__init__)
    assert after == before
