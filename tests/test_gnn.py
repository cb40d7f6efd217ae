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
        shared = gnn_forward(graph, store, cfg).data
        assert plans == [graph.n_nodes, graph.n_nodes]  # the edge sources', then the destinations'
        assert shared.tobytes() == per_layer.tobytes()

    def test_three_layer_gradients_match_finite_differences(self):
        cfg = GnnConfig(layers=3, hidden=5, message_width=4, readout="mean")
        graph = ring_graph(n=5, d0=3, d_e=2, seed=11)
        store = setup_gnn(graph, cfg, seed=12)

        def f(s):
            g = gnn_forward(graph, s, cfg)
            return ad.mse(g, np.linspace(-1, 1, cfg.hidden))

        assert ad.gradient_check(f, store, h=1e-5, n_probe=50, seed=2) <= 1e-4
