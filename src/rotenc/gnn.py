"""Message-passing backbone over molecular graphs.

Each layer sends a learned message along every directed edge, sums the
incoming messages per node, and applies a learned update to the pair
(state, aggregated message). A permutation-invariant readout pools the
final node states into one graph vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore, Value
from .errors import InvalidConfig, ShapeError

READOUTS = ("sum", "mean")


@dataclass
class MolecularGraph:
    """Graph view of a molecule.

    ``edges`` holds directed (source, destination) pairs; an undirected
    bond contributes both directions. ``node_feats`` are the initial node
    features (one-hot atom identity by default), ``edge_feats`` one row per
    directed edge, ``targets`` the regression targets.
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
    readout: str = "sum"

    def __post_init__(self):
        if min(self.layers, self.hidden, self.message_width) < 1:
            raise InvalidConfig(f"layers, hidden and message_width must be >= 1, got "
                                f"{self.layers}, {self.hidden}, {self.message_width}")
        if self.readout not in READOUTS:
            raise InvalidConfig(f"readout must be one of {READOUTS}, got {self.readout!r}")


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


def message_pass(h: Value, graph: MolecularGraph, store: ParameterStore, cfg: GnnConfig,
                 layer: int, plans: tuple[ad.ScatterPlan | None, ad.ScatterPlan] | None = None) -> Value:
    """One round of message passing and node update.

    Messages go along directed edges: the destination node v receives
    M(h_v, h_src, e) from each incoming edge, where M is a one-hidden-layer
    perceptron; incoming messages are summed per node (nodes without
    incoming edges, every node of an edgeless graph included, get a zero
    message, and the message weights a zero gradient). The update is
    h' = relu(affine(concat(h, m))). ``plans`` is ``edge_plans(graph)``,
    passed in when several layers share the graph.

    Every affine map runs on the smaller side of its gather or scatter:
    the first message layer projects the node states once per node and
    gathers the projections for both edge ends (``ad.Gather``), and the
    second, being linear, runs on each destination's sum of hidden rows,
    its bias counted once per incoming edge. The per-edge
    ``[h_dst | h_src | e]`` input is never built.
    """
    if h.data.shape != (graph.n_nodes, cfg.hidden):
        raise ShapeError(f"node states {h.data.shape} != ({graph.n_nodes}, {cfg.hidden})")
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    src_plan, dst_plan = plans if plans is not None else edge_plans(graph)
    name = f"gnn.l{layer}"
    edge_input = (ad.Gather(h, dst, dst_plan), ad.Gather(h, src, src_plan), Value(graph.edge_feats))
    hidden = ad.dense(edge_input, store[f"{name}.msg1.W"], store[f"{name}.msg1.b"], relu=True)
    summed = ad.scatter_add_rows(hidden, dst, graph.n_nodes, plan=dst_plan)
    m = ad.dense(summed, store[f"{name}.msg2.W"], store[f"{name}.msg2.b"], bias_counts=dst_plan.counts)
    joint = ad.concat([h, m], axis=1)
    return ad.dense(joint, store[f"{name}.upd.W"], store[f"{name}.upd.b"], relu=True)


def edge_plans(graph: MolecularGraph) -> tuple[ad.ScatterPlan | None, ad.ScatterPlan]:
    """``ad.scatter_plan`` of the edge sources and of the edge destinations.

    Only the backward scatters onto the edge sources, so without a tape
    (inside ``ad.no_grad``) the sources' plan is None and not built.
    """
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    return (ad.scatter_plan(src, graph.n_nodes) if ad.grad_enabled() else None,
            ad.scatter_plan(dst, graph.n_nodes))


def readout(node_states: Value, mode: str = "sum", offsets=None) -> Value:
    """Pool node states into a graph vector (column-wise sum or mean).

    With ``offsets`` the nodes are a packed batch (molecule b owns nodes
    offsets[b]:offsets[b+1]) and every molecule is pooled on its own,
    giving one row per molecule, each bit-equal to pooling that molecule
    alone.
    """
    if mode not in READOUTS:
        raise InvalidConfig(f"readout must be one of {READOUTS}, got {mode!r}")
    if mode == "sum":
        return ad.sum_pool(node_states, axis=0, offsets=offsets)
    return ad.mean_pool(node_states, axis=0, offsets=offsets)


def gnn_forward(graph: MolecularGraph, store: ParameterStore, cfg: GnnConfig,
                node_feats: Value | None = None, offsets=None) -> Value:
    """Full backbone: embed, L message-passing rounds, readout.

    One molecule gives a (hidden,) vector. Given ``offsets``, ``graph`` is
    the disjoint union of a packed batch's molecules and the result is
    (B, hidden). The edges' scatter plans are built once and shared by
    every layer.
    """
    h = initial_states(graph, store, cfg, node_feats=node_feats)
    plans = edge_plans(graph)
    for layer in range(cfg.layers):
        h = message_pass(h, graph, store, cfg, layer, plans)
    return readout(h, cfg.readout, offsets)
