"""Message-passing backbone over molecular graphs.

Each layer sends a learned message along every directed edge, averages the
incoming messages per node, and applies a learned update to the pair
(state, aggregated message). The readout averages the final node states
into one graph vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Value
from .errors import InvalidConfig, ShapeError


@dataclass
class MolecularGraph:
    """Graph view of a molecule.

    ``edges`` holds directed (source, destination) pairs; an undirected
    bond contributes both directions. ``node_feats`` are the initial node
    features (one-hot atom identity by default), ``edge_feats`` one row per
    directed edge, ``targets`` the regression targets.

    The edges are stored grouped by destination: construction sorts them
    stably by destination, feature rows along, so the edges into one node
    keep the order they came in. ``destinations`` is their
    ``ad.grouped_plan``: each node's in-degree and where its edges start;
    ``inv_degree`` is 1/in-degree per node (0 without incoming edges), the
    scale of mean aggregation, in the dtype of ``node_feats``. A graph is
    not changed after it is made.
    """

    node_feats: np.ndarray
    edges: np.ndarray
    edge_feats: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.node_feats = np.asarray(self.node_feats, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.edge_feats = np.asarray(self.edge_feats, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        n = self.node_feats.shape[0]
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise InvalidConfig("edge endpoint out of range")
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise InvalidConfig("self-loops are not allowed")
        if self.edge_feats.shape[0] != self.edges.shape[0]:
            raise InvalidConfig(
                f"edge_feats rows {self.edge_feats.shape[0]} != edge count {self.edges.shape[0]}"
            )
        dst = self.edges[:, 1]
        if np.any(dst[1:] < dst[:-1]):
            order = np.argsort(dst, kind="stable")
            self.edges, self.edge_feats = self.edges[order], self.edge_feats[order]
        self._index()

    @classmethod
    def trusted(cls, node_feats: np.ndarray, edges: np.ndarray, edge_feats: np.ndarray,
                targets: np.ndarray) -> MolecularGraph:
        """A graph of arrays that already satisfy every check, edges grouped by destination; not checked again.

        ``node_feats`` and ``edge_feats`` are float64 arrays, or both float32
        (a training copy, see ``packing.lowered``), ``targets`` a float64
        array, ``edges`` an int64 (E, 2) array of in-range, loop-free pairs
        with non-decreasing destinations, one feature row each.
        """
        graph = cls.__new__(cls)
        graph.node_feats, graph.edges, graph.edge_feats, graph.targets = node_feats, edges, edge_feats, targets
        graph._index()
        return graph

    def _index(self) -> None:
        self.destinations = ad.grouped_plan(self.edges[:, 1], self.n_nodes)
        self.inv_degree = ad.in_degree_scale(self.destinations).astype(self.node_feats.dtype, copy=False)
        self._sources = None

    def source_plan(self) -> ad.ScatterPlan:
        """``ad.scatter_plan`` of the edge sources, built on first use (only a backward scatters onto them)."""
        if self._sources is None:
            self._sources = ad.scatter_plan(self.edges[:, 0], self.n_nodes)
        return self._sources

    @property
    def n_nodes(self) -> int:
        return self.node_feats.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


@dataclass
class GnnConfig:
    layers: int = 3
    hidden: int = 32
    message_width: int = 32

    def __post_init__(self):
        if min(self.layers, self.hidden, self.message_width) < 1:
            raise InvalidConfig(f"layers, hidden and message_width must be >= 1, got "
                                f"{self.layers}, {self.hidden}, {self.message_width}")


def init_gnn_params(store: ParameterStore, cfg: GnnConfig, d0: int, d_edge: int,
                    rng: np.random.Generator) -> None:
    """Create embedding, message, and update parameters in the store."""

    def dense(name, fan_in, fan_out):
        store.add(f"gnn.{name}.W", rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        store.add(f"gnn.{name}.b", np.zeros(fan_out))

    dense("embed", d0, cfg.hidden)
    for layer in range(cfg.layers):
        dense(f"l{layer}.msg1", 2 * cfg.hidden + d_edge, cfg.message_width)
        dense(f"l{layer}.msg2", cfg.message_width, cfg.message_width)
        dense(f"l{layer}.upd", cfg.hidden + cfg.message_width, cfg.hidden)


def initial_states(graph: MolecularGraph, store: ParameterStore, cfg: GnnConfig,
                   node_feats: Value | None = None) -> Value:
    """h^0 = node_feats @ W_embed + b (a learned per-atom embedding)."""
    feats = node_feats if node_feats is not None else Value(graph.node_feats)
    return ad.dense(feats, store["gnn.embed.W"], store["gnn.embed.b"])


def message_pass(h: Value, graph: MolecularGraph, store: ParameterStore, cfg: GnnConfig, layer: int) -> Value:
    """One round of message passing and node update, one tape node (``ad.message_layer``).

    Messages go along directed edges: the destination node v receives
    M(h_v, h_src, e) from each incoming edge, where M is a one-hidden-layer
    perceptron; incoming messages are averaged per node, so a message does
    not grow with a node's degree (nodes without incoming edges, every node
    of an edgeless graph included, get a zero message, and the message
    weights a zero gradient). The update is h' = relu(affine(concat(h, m))).
    The per-edge ``[h_dst | h_src | e]`` input is never built: the first
    message layer projects node states before gathering them per edge, and
    the second runs on each node's mean of hidden rows, its bias added once
    per node with an incoming edge.
    """
    if h.data.shape != (graph.n_nodes, cfg.hidden):
        raise ShapeError(f"node states {h.data.shape} != ({graph.n_nodes}, {cfg.hidden})")
    name = f"gnn.l{layer}"
    weights = [store[f"{name}.{part}"] for part in ("msg1.W", "msg1.b", "msg2.W", "msg2.b", "upd.W", "upd.b")]
    return ad.message_layer(h, graph.edges[:, 0], graph.destinations, graph.inv_degree, graph.edge_feats,
                            weights, graph.source_plan)


def readout(node_states: Value, offsets=None) -> Value:
    """Pool node states into a graph vector, their column-wise mean.

    With ``offsets`` the nodes are a packed batch (molecule b owns nodes
    offsets[b]:offsets[b+1]) and every molecule is pooled on its own,
    giving one row per molecule, each bit-equal to pooling that molecule
    alone.
    """
    return ad.mean_pool(node_states, axis=0, offsets=offsets)


def gnn_forward(graph: MolecularGraph, store: ParameterStore, cfg: GnnConfig,
                node_feats: Value | None = None, offsets=None) -> Value:
    """Full backbone: embed, L message-passing rounds, readout.

    One molecule gives a (hidden,) vector. Given ``offsets``, ``graph`` is
    the disjoint union of a packed batch's molecules and the result is
    (B, hidden).
    """
    h = initial_states(graph, store, cfg, node_feats=node_feats)
    for layer in range(cfg.layers):
        h = message_pass(h, graph, store, cfg, layer)
    return readout(h, offsets)
