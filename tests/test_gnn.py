import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gradient_check
from rotenc import autodiff as ad
from rotenc.autodiff import ParameterStore, Value
from rotenc.errors import InvalidConfig, ShapeError
from rotenc.gnn import (
    GnnConfig,
    MolecularGraph,
    gnn_forward,
    init_gnn_params,
    initial_states,
    message_pass,
)


def ring_graph(n=5, d0=3, d_e=2, seed=0):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        j = (i + 1) % n
        edges += [(i, j), (j, i)]
    return MolecularGraph(
        node_feats=rng.normal(size=(n, d0)),
        edges=np.array(edges),
        edge_feats=rng.normal(size=(len(edges), d_e)),
    )


def setup_gnn(graph, cfg, seed=0):
    store = ParameterStore()
    init_gnn_params(store, cfg, graph.node_feats.shape[1], graph.edge_feats.shape[1],
                    np.random.default_rng(seed))
    return store


def forward_alone(graph, store, cfg):
    """``gnn_forward`` of one molecule: its graph's own node features, every node in one segment."""
    return gnn_forward(graph, Value(graph.node_feats), store, cfg, [0, graph.n_nodes])


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InvalidConfig):
            MolecularGraph(np.zeros((2, 1)), [[0, 0]], np.zeros((1, 1)))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(InvalidConfig):
            MolecularGraph(np.zeros((2, 1)), [[0, 5]], np.zeros((1, 1)))

    def test_edge_feature_count_must_match(self):
        with pytest.raises(InvalidConfig):
            MolecularGraph(np.zeros((3, 1)), [[0, 1], [1, 0]], np.zeros((1, 4)))


@pytest.mark.parametrize("field", ["layers", "hidden", "message_width"])
@pytest.mark.parametrize("value", [0, -28])
def test_config_sizes_must_be_positive(field, value):
    with pytest.raises(InvalidConfig, match=field):
        GnnConfig(**{field: value})


class TestMessagePass:
    def test_no_edges_means_zero_messages(self):
        cfg = GnnConfig(layers=1, hidden=4, message_width=4)
        rng = np.random.default_rng(1)
        graph = MolecularGraph(rng.normal(size=(3, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
        store = setup_gnn(graph, cfg)
        h = Value(rng.normal(size=(3, cfg.hidden)))
        out = message_pass(h, graph, store, cfg, layer=0)
        # with m = 0 the update only sees h: recompute by hand
        act_in = np.concatenate([h.data, np.zeros((3, cfg.message_width))], axis=1)
        expected = np.maximum(act_in @ store["gnn.l0.upd.W"].data + store["gnn.l0.upd.b"].data, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_equals_the_per_edge_perceptron(self):
        # the message formula written per edge, with nonzero biases, as the
        # oracle of the projected and averaged-first layers; node 6 is isolated
        cfg = GnnConfig(layers=1, hidden=4, message_width=3)
        ring = ring_graph(n=6, d0=2, d_e=2, seed=18)
        graph = MolecularGraph(np.vstack([ring.node_feats, np.zeros((1, 2))]), np.vstack([ring.edges, [[0, 2]]]),
                               np.vstack([ring.edge_feats, [[0.5, -1.0]]]))
        store = setup_gnn(graph, cfg, seed=19)
        rng = np.random.default_rng(20)
        for name in ("msg1", "msg2", "upd"):
            store[f"gnn.l0.{name}.b"].data = rng.normal(size=store[f"gnn.l0.{name}.b"].data.shape)
        h = rng.normal(size=(graph.n_nodes, cfg.hidden))
        src, dst = graph.edges[:, 0], graph.edges[:, 1]
        w = {name: (store[f"gnn.l0.{name}.W"].data, store[f"gnn.l0.{name}.b"].data) for name in ("msg1", "msg2", "upd")}
        hidden = np.maximum(np.hstack([h[dst], h[src], graph.edge_feats]) @ w["msg1"][0] + w["msg1"][1], 0.0)
        messages = hidden @ w["msg2"][0] + w["msg2"][1]
        m = np.zeros((graph.n_nodes, cfg.message_width))
        np.add.at(m, dst, messages)
        m /= np.maximum(np.bincount(dst, minlength=graph.n_nodes), 1)[:, None]  # the mean of each node's messages
        expected = np.maximum(np.hstack([h, m]) @ w["upd"][0] + w["upd"][1], 0.0)
        out = message_pass(Value(h), graph, store, cfg, 0).data
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out[6], np.maximum(h[6] @ w["upd"][0][:4] + w["upd"][1], 0.0), rtol=1e-12)

    def test_permutation_equivariance_exact(self):
        cfg = GnnConfig(layers=2, hidden=6, message_width=5)
        graph = ring_graph(n=6, d0=3, d_e=2, seed=2)
        store = setup_gnn(graph, cfg, seed=3)
        perm = np.random.default_rng(4).permutation(6)
        inv = np.argsort(perm)
        relabeled = MolecularGraph(
            node_feats=graph.node_feats[perm],
            edges=np.stack([inv[graph.edges[:, 0]], inv[graph.edges[:, 1]]], axis=1),
            edge_feats=graph.edge_feats,
        )
        h0 = np.random.default_rng(5).normal(size=(6, cfg.hidden))
        a = message_pass(Value(h0), graph, store, cfg, 0).data
        b = message_pass(Value(h0[perm]), relabeled, store, cfg, 0).data
        assert np.array_equal(a[perm], b)

    def test_identical_nodes_get_identical_updates(self):
        cfg = GnnConfig(layers=1, hidden=4, message_width=4)
        # two nodes with the same features, symmetric edges both ways
        feats = np.tile(np.array([[0.3, -0.2, 0.9]]), (2, 1))
        graph = MolecularGraph(feats, [[0, 1], [1, 0]], np.ones((2, 2)))
        store = setup_gnn(graph, cfg, seed=6)
        h = Value(np.tile(np.array([[0.1, 0.2, 0.3, 0.4]]), (2, 1)))
        out = message_pass(h, graph, store, cfg, 0).data
        np.testing.assert_array_equal(out[0], out[1])

    def test_width_mismatch_rejected(self):
        cfg = GnnConfig(layers=1, hidden=4, message_width=4)
        graph = ring_graph(n=4, seed=7)
        store = setup_gnn(graph, cfg, seed=7)
        with pytest.raises(ShapeError):
            message_pass(Value(np.zeros((4, 9))), graph, store, cfg, 0)


class TestReadout:
    """The readout is ``ad.mean_pool`` over each molecule's node states."""

    def test_single_node_passthrough(self):
        h = np.array([[0.5, -1.5], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(ad.mean_pool(Value(h), [0, 1, 3]).data[0], h[0])

    def test_mean_arithmetic(self):
        out = ad.mean_pool(Value(np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])), [0, 2, 3])
        np.testing.assert_array_equal(out.data, [[0.5, 0.5], [3.0, 3.0]])


class TestEndToEnd:
    def test_duplicated_component_keeps_the_mean_readout(self):
        cfg = GnnConfig(layers=2, hidden=5, message_width=4)
        graph = ring_graph(n=4, d0=3, d_e=2, seed=9)
        store = setup_gnn(graph, cfg, seed=10)
        single = forward_alone(graph, store, cfg).data
        doubled = MolecularGraph(
            node_feats=np.vstack([graph.node_feats, graph.node_feats]),
            edges=np.vstack([graph.edges, graph.edges + 4]),
            edge_feats=np.vstack([graph.edge_feats, graph.edge_feats]),
        )
        np.testing.assert_allclose(forward_alone(doubled, store, cfg).data, single, rtol=1e-12)

    def test_one_destination_plan_per_forward(self, monkeypatch):
        # the graph plans its destinations when it is made, and its sources
        # when a backward first scatters onto them; a forward plans nothing
        cfg = GnnConfig(layers=3, hidden=5, message_width=4)
        graph = ring_graph(n=6, d0=3, d_e=2, seed=13)
        store = setup_gnn(graph, cfg, seed=14)
        h = initial_states(Value(graph.node_feats), store)
        for layer in range(cfg.layers):
            h = message_pass(h, graph, store, cfg, layer)
        per_layer = ad.mean_pool(h, [0, graph.n_nodes]).data
        plans = []
        real_plan = ad.scatter_plan

        def counting(indices, n_rows):
            plans.append(n_rows)
            return real_plan(indices, n_rows)

        monkeypatch.setattr(ad, "scatter_plan", counting)
        with ad.no_grad():
            untaped = forward_alone(graph, store, cfg).data
        taped = forward_alone(graph, store, cfg)
        assert plans == []
        for _ in range(2):  # every layer of both backwards shares the graph's one source plan
            ad.backward(ad.mse(forward_alone(graph, store, cfg), np.zeros((1, cfg.hidden))))
        assert plans == [graph.n_nodes]
        assert taped.data.tobytes() == per_layer.tobytes() == untaped.tobytes()

    def test_three_layer_gradients_match_finite_differences(self):
        cfg = GnnConfig(layers=3, hidden=5, message_width=4)
        graph = ring_graph(n=5, d0=3, d_e=2, seed=11)
        store = setup_gnn(graph, cfg, seed=12)

        def f(s):
            return ad.mse(forward_alone(graph, s, cfg), np.linspace(-1, 1, cfg.hidden)[None])

        assert gradient_check(f, store, h=1e-5, n_probe=50, seed=2) <= 1e-4

    def test_three_layer_gradients_with_an_isolated_node(self):
        # node 5 has no edge: a zero message, and gradients only through its own update
        cfg = GnnConfig(layers=3, hidden=5, message_width=4)
        ring = ring_graph(n=5, d0=3, d_e=2, seed=15)
        graph = MolecularGraph(np.vstack([ring.node_feats, np.random.default_rng(16).normal(size=(1, 3))]),
                               ring.edges, ring.edge_feats)
        store = setup_gnn(graph, cfg, seed=17)

        def f(s):
            return ad.mse(forward_alone(graph, s, cfg), np.linspace(-1, 1, cfg.hidden)[None])

        assert gradient_check(f, store, h=1e-5, n_probe=50, seed=3) <= 1e-4


@st.composite
def shuffled_graphs(draw):
    """A directed graph (parallel edges and isolated nodes allowed) and one arrival order of its edges."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    perm = draw(st.permutations(range(len(edges))))
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2)[list(perm)], draw(st.integers(0, 2**32 - 1))


class TestEdgeGrouping:
    @given(shuffled_graphs())
    @settings(max_examples=60, deadline=None)
    def test_any_edge_order_comes_out_grouped_and_sums_in_arrival_order(self, drawn):
        n, edges, seed = drawn
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(len(edges), 2))
        node_feats = rng.normal(size=(n, 3))
        graph = MolecularGraph(node_feats, edges, feats)
        # grouped by destination, each destination's edges in the order they came in
        order = sorted(range(len(edges)), key=lambda k: edges[k, 1])
        assert graph.edges.tobytes() == edges[order].tobytes()
        assert graph.edge_feats.tobytes() == feats[order].tobytes()
        np.testing.assert_array_equal(graph.destinations.counts, np.bincount(edges[:, 1], minlength=n))
        assert graph.destinations.order is None
        # another arrival order that keeps each destination's own order: the same graph, bit for bit
        queues = {d: [k for k in order if edges[k, 1] == d] for d in range(n)}
        interleaved = [queues[d].pop(0) for d in rng.permutation(edges[:, 1])]
        again = MolecularGraph(node_feats, edges[interleaved], feats[interleaved])
        cfg = GnnConfig(layers=2, hidden=5, message_width=4)
        store = setup_gnn(graph, cfg, seed=seed % 1000)
        out = forward_alone(graph, store, cfg).data
        assert forward_alone(again, store, cfg).data.tobytes() == out.tobytes()
        # any other arrival order sums each destination in another order: equal up to rounding
        unshuffled = np.lexsort((edges[:, 0], edges[:, 1]))
        other = MolecularGraph(node_feats, edges[unshuffled], feats[unshuffled])
        np.testing.assert_allclose(forward_alone(other, store, cfg).data, out, rtol=1e-12, atol=1e-12)
