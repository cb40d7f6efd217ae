import numpy as np
import pytest

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
    readout,
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
        targets=np.array([1.0]),
    )


def setup_gnn(graph, cfg, seed=0):
    store = ParameterStore()
    init_gnn_params(store, cfg, graph.node_feats.shape[1], graph.edge_feats.shape[1],
                    np.random.default_rng(seed))
    return store


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(InvalidConfig):
            MolecularGraph(np.zeros((2, 1)), [[0, 0]], np.zeros((1, 1)), [0.0])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(InvalidConfig):
            MolecularGraph(np.zeros((2, 1)), [[0, 5]], np.zeros((1, 1)), [0.0])

    def test_edge_feature_count_must_match(self):
        with pytest.raises(InvalidConfig):
            MolecularGraph(np.zeros((3, 1)), [[0, 1], [1, 0]], np.zeros((1, 4)), [0.0])


@pytest.mark.parametrize("field", ["layers", "hidden", "message_width"])
@pytest.mark.parametrize("value", [0, -28])
def test_config_sizes_must_be_positive(field, value):
    with pytest.raises(InvalidConfig, match=field):
        GnnConfig(**{field: value})


class TestMessagePass:
    def test_no_edges_means_zero_messages(self):
        cfg = GnnConfig(layers=1, hidden=4, message_width=4)
        rng = np.random.default_rng(1)
        graph = MolecularGraph(rng.normal(size=(3, 2)), np.zeros((0, 2)), np.zeros((0, 2)),
                               np.array([0.0]))
        store = setup_gnn(graph, cfg)
        h = Value(rng.normal(size=(3, cfg.hidden)))
        out = message_pass(h, graph, store, cfg, layer=0)
        # with m = 0 the update only sees h: recompute by hand
        act_in = np.concatenate([h.data, np.zeros((3, cfg.message_width))], axis=1)
        expected = np.maximum(act_in @ store["gnn.l0.upd.W"].data + store["gnn.l0.upd.b"].data, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-15)

    def test_equals_the_per_edge_perceptron(self):
        # the message formula written per edge, with nonzero biases, as the
        # oracle of the projected and summed-first layers; node 6 is isolated
        cfg = GnnConfig(layers=1, hidden=4, message_width=3)
        ring = ring_graph(n=6, d0=2, d_e=2, seed=18)
        graph = MolecularGraph(np.vstack([ring.node_feats, np.zeros((1, 2))]), np.vstack([ring.edges, [[0, 2]]]),
                               np.vstack([ring.edge_feats, [[0.5, -1.0]]]), ring.targets)
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
            targets=graph.targets,
        )
        h0 = np.random.default_rng(5).normal(size=(6, cfg.hidden))
        a = message_pass(Value(h0), graph, store, cfg, 0).data
        b = message_pass(Value(h0[perm]), relabeled, store, cfg, 0).data
        assert np.array_equal(a[perm], b)

    def test_identical_nodes_get_identical_updates(self):
        cfg = GnnConfig(layers=1, hidden=4, message_width=4)
        # two nodes with the same features, symmetric edges both ways
        feats = np.tile(np.array([[0.3, -0.2, 0.9]]), (2, 1))
        graph = MolecularGraph(feats, [[0, 1], [1, 0]], np.ones((2, 2)), np.array([0.0]))
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
    def test_single_node_passthrough(self):
        h = np.array([[0.5, -1.5]])
        np.testing.assert_array_equal(readout(Value(h), "sum").data, h[0])

    def test_sum_arithmetic(self):
        out = readout(Value(np.array([[1.0, 0.0], [0.0, 1.0]])), "sum")
        np.testing.assert_array_equal(out.data, [1.0, 1.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidConfig):
            readout(Value(np.zeros((2, 2))), "attention")


class TestEndToEnd:
    def test_duplicated_component_doubles_sum_readout(self):
        cfg = GnnConfig(layers=2, hidden=5, message_width=4, readout="sum")
        graph = ring_graph(n=4, d0=3, d_e=2, seed=9)
        store = setup_gnn(graph, cfg, seed=10)
        single = gnn_forward(graph, store, cfg).data
        doubled = MolecularGraph(
            node_feats=np.vstack([graph.node_feats, graph.node_feats]),
            edges=np.vstack([graph.edges, graph.edges + 4]),
            edge_feats=np.vstack([graph.edge_feats, graph.edge_feats]),
            targets=graph.targets,
        )
        np.testing.assert_allclose(gnn_forward(doubled, store, cfg).data, 2 * single, rtol=1e-12)

    def test_one_destination_plan_per_forward(self, monkeypatch):
        cfg = GnnConfig(layers=3, hidden=5, message_width=4, readout="sum")
        graph = ring_graph(n=6, d0=3, d_e=2, seed=13)
        store = setup_gnn(graph, cfg, seed=14)
        h = initial_states(graph, store, cfg)
        for layer in range(cfg.layers):  # each layer plans its own gathers and scatter
            h = message_pass(h, graph, store, cfg, layer)
        per_layer = readout(h, cfg.readout).data
        plans = []
        real_plan = ad.scatter_plan

        def counting(indices, n_rows):
            plans.append(n_rows)
            return real_plan(indices, n_rows)

        monkeypatch.setattr(ad, "scatter_plan", counting)
        with ad.no_grad():  # only the backward scatters onto the edge sources
            untaped = gnn_forward(graph, store, cfg).data
        assert plans == [graph.n_nodes]
        plans.clear()
        shared = gnn_forward(graph, store, cfg).data
        assert plans == [graph.n_nodes, graph.n_nodes]  # the edge sources', then the destinations'
        assert shared.tobytes() == per_layer.tobytes() == untaped.tobytes()

    def test_three_layer_gradients_match_finite_differences(self):
        cfg = GnnConfig(layers=3, hidden=5, message_width=4, readout="mean")
        graph = ring_graph(n=5, d0=3, d_e=2, seed=11)
        store = setup_gnn(graph, cfg, seed=12)

        def f(s):
            g = gnn_forward(graph, s, cfg)
            return ad.mse(g, np.linspace(-1, 1, cfg.hidden))

        assert ad.gradient_check(f, store, h=1e-5, n_probe=50, seed=2) <= 1e-4

    def test_three_layer_gradients_with_an_isolated_node(self):
        # node 5 has no edge: a zero message, and gradients only through its own update
        cfg = GnnConfig(layers=3, hidden=5, message_width=4, readout="mean")
        ring = ring_graph(n=5, d0=3, d_e=2, seed=15)
        graph = MolecularGraph(np.vstack([ring.node_feats, np.random.default_rng(16).normal(size=(1, 3))]),
                               ring.edges, ring.edge_feats, ring.targets)
        store = setup_gnn(graph, cfg, seed=17)

        def f(s):
            return ad.mse(gnn_forward(graph, s, cfg), np.linspace(-1, 1, cfg.hidden))

        assert ad.gradient_check(f, store, h=1e-5, n_probe=50, seed=3) <= 1e-4
