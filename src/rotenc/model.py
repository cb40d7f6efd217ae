"""Full regression model: graph backbone + geometric encoder + fused head.

The graph vector g (projected to a fixed width) is concatenated with the
view-averaged geometric fingerprint p; a two-layer perceptron maps the
fused vector to the targets. The training loss is MSE plus an L1 penalty
on the fused vector. Training under the average-loss objective skips the
view average and applies the head and loss to every view row instead.
The model runs on packed batches (``packing``); one molecule is a batch of
one. Also provides the rotation-invariance measurement harness and
gradient-based atom importance.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import encoder3d, gnn
from .autodiff import ParameterStore, Value
from .data import MoleculeRecord, build_graph, reorder_atoms
from .encoder3d import EncoderConfig
from .errors import DegenerateCloud, InvalidConfig, NoData, TooFewPoints
from .geometry import PointCloud
from .gnn import GnnConfig
from .packing import Batch, Molecule, pack

OBJECTIVES = ("average_output", "average_loss")


@dataclass
class ModelConfig:
    encoder: EncoderConfig
    gnn: GnnConfig
    g_dim: int = 128
    head_hidden: int = 256
    cutoff: float = 5.0
    objective: str = "average_output"
    ablate_3d: bool = False
    ablate_features: bool = False
    ablate_pointwise: bool = False

    def __post_init__(self):
        if self.g_dim < 1 or self.head_hidden < 1:
            raise InvalidConfig("g_dim and head_hidden must be positive")
        if self.objective not in OBJECTIVES:
            raise InvalidConfig(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")

    @property
    def d_p_effective(self) -> int:
        if self.ablate_3d:
            return 0
        if self.ablate_pointwise:
            return self.encoder.input_width
        return self.encoder.d_p

    @property
    def d_u(self) -> int:
        return self.g_dim + self.d_p_effective


@dataclass
class InvarianceReport:
    """Prediction deviation under random rigid rotations of the input."""

    mean_dev: float
    max_dev: float
    n_molecules: int
    n_rotations: int
    align_mode: str


def fuse(g: Value, p: Value) -> Value:
    """u = [g || p], graph part first.

    g and p are one molecule's vectors, or one row per molecule of a
    batch. With per-view fingerprints p of shape (k, ..., d_p), g is
    repeated for every view row and u has shape (k, ..., d_g + d_p).
    """
    g = ad.broadcast_to(g, p.shape[:-1] + g.shape[-1:])
    return ad.concat([g, p], axis=-1)


def predict_head(u: Value, store: ParameterStore) -> Value:
    """Two-layer relu perceptron from the fused vector to the task outputs."""
    hidden = ad.dense(u, store["head.W1"], store["head.b1"], relu=True)
    return ad.dense(hidden, store["head.W2"], store["head.b2"])


def loss(y_hat: Value, y, u: Value, lambda_l1: float) -> Value:
    """MSE(y_hat, y) + lambda * ||u||_1, averaged over samples and view rows.

    y_hat is one sample's (n_tasks,) prediction or a batch's (B, n_tasks).
    When y_hat and u carry one row per view in front (the average-loss
    objective, (k, n_tasks) or (k, B, n_tasks)), the target y is compared
    with every view row. The result is the mean of the per-row losses, so
    a batch's loss is the mean of its samples' losses.
    """
    rows = y_hat.data.size // y_hat.shape[-1]
    task = ad.mse(y_hat, ad.broadcast_to(y, y_hat.shape))
    if lambda_l1 == 0.0:
        return task
    return ad.add(task, ad.scale(ad.l1_norm(u), lambda_l1 / rows))


@contextmanager
def for_molecule(record: MoleculeRecord):
    """Re-raise a molecule that cannot be aligned with its id in the message."""
    try:
        yield
    except (DegenerateCloud, TooFewPoints) as exc:
        raise type(exc)(f"molecule {record.id}: {exc}") from exc


def canonical_order(record: MoleculeRecord, cloud: PointCloud) -> np.ndarray:
    """The atoms sorted by element, then (x, y, z) of the prepared ``cloud``, then the record's (x, y, z).

    Atoms still tied coincide: interchangeable in a cutoff graph, while a
    bonded record cannot tell their bonds apart and raises InvalidConfig.
    """
    keys = np.vstack([record.coords.T[::-1], cloud.coords.T[::-1], cloud.atomic_numbers])
    order = np.lexsort(keys)
    if record.bonds is not None:
        tied = np.flatnonzero(np.all(np.diff(keys[:, order]) == 0, axis=0))
        if tied.size:
            raise InvalidConfig(f"molecule {record.id}: bonded atoms {order[tied[0]]} and {order[tied[0] + 1]} "
                                "are one element at one position")
    return order


class Model:
    """Assembled network with its parameters and batchnorm states.

    ``bonded`` declares whether the dataset carries explicit bonds (edge
    features are bond-order one-hots) or uses cutoff graphs (RBF distance
    features); the edge width of the message layers depends on it.
    """

    def __init__(self, cfg: ModelConfig, vocab, task_names, seed: int = 0, bonded: bool = False):
        self.cfg = cfg
        self.vocab = tuple(vocab)
        self.task_names = tuple(task_names)
        self.bonded = bonded
        self.store = ParameterStore()
        self.bn_states = {}
        self.enc_table = None
        rng = np.random.default_rng(seed)

        if not cfg.ablate_3d:
            if cfg.ablate_pointwise:
                self.enc_table = encoder3d.init_embedding_table(self.store, cfg.encoder, self.vocab, rng)
            else:
                self.enc_table, self.bn_states = encoder3d.init_encoder_params(
                    self.store, cfg.encoder, self.vocab, rng
                )
        gnn.init_gnn_params(self.store, cfg.gnn, len(self.vocab), self.d_edge, rng)
        self.store.add("gproj.W", rng.normal(0.0, np.sqrt(2.0 / cfg.gnn.hidden), (cfg.gnn.hidden, cfg.g_dim)))
        self.store.add("gproj.b", np.zeros(cfg.g_dim))
        self.store.add("head.W1", rng.normal(0.0, np.sqrt(2.0 / cfg.d_u), (cfg.d_u, cfg.head_hidden)))
        self.store.add("head.b1", np.zeros(cfg.head_hidden))
        self.store.add("head.W2", rng.normal(0.0, np.sqrt(2.0 / cfg.head_hidden), (cfg.head_hidden, len(self.task_names))))
        self.store.add("head.b2", np.zeros(len(self.task_names)))

    @property
    def d_edge(self) -> int:
        from .data import BOND_ORDERS, RBF_N_CENTERS

        if self.cfg.ablate_features:
            return 1
        return len(BOND_ORDERS) + 1 if self.bonded else RBF_N_CENTERS

    def _graph_vector(self, batch: Batch, node_feats: Value | None = None) -> Value:
        g = gnn.gnn_forward(batch.graph, self.store, self.cfg.gnn, node_feats=node_feats, offsets=batch.offsets)
        return ad.dense(g, self.store["gproj.W"], self.store["gproj.b"])

    def prepare(self, record: MoleculeRecord, training: bool = False) -> Molecule:
        """The record's graph and its cloud, centered and aligned as the policy asks, ready to pack.

        This is the one place a record becomes model input and the one place
        the align policy is read: training aligns only under ``pre``,
        inference under ``pre`` and ``post``. A molecule that cannot be
        aligned raises DegenerateCloud or TooFewPoints naming its id.

        Graph and cloud then take ``canonical_order``, so any atom order of
        a record that prepares to the same cloud gives the same arrays (exact
        centering does; PCA alignment, which reads atoms by index, need not).

        The record's coordinates and atomic numbers are checked once, as
        they enter the first cloud; the centered and the reordered cloud
        and the reordered record are made from checked arrays and are not
        checked again.
        """
        cloud = PointCloud(record.coords, np.asarray(record.atomic_numbers))
        if not self.cfg.ablate_3d:
            mode = self.cfg.encoder.align_mode
            with for_molecule(record):
                cloud = encoder3d.prepare_cloud(cloud, mode == "pre" or (mode == "post" and not training))
        order = canonical_order(record, cloud)
        graph = build_graph(reorder_atoms(record, order), self.cfg.cutoff, vocab=self.vocab,
                            task_names=self.task_names,
                            edge_features="constant" if self.cfg.ablate_features else "auto")
        # + 0.0 turns -0.0 into +0.0: the sort ties the two, the arrays must not differ
        cloud = PointCloud.trusted(cloud.coords[order] + 0.0, cloud.atomic_numbers[order])
        return Molecule(record.id, graph, cloud, order)

    def forward(self, batch: Batch, *, training: bool = False, rotations=None,
                node_feats: Value | None = None, coords_value=None,
                emb_value=None) -> tuple[Value, Value]:
        """One forward pass over a packed batch; returns (y_hat, u) as graph nodes.

        y_hat is (B, n_tasks) and u is (B, d_u). Training under the
        average-loss objective keeps one row per view: y_hat is
        (k, B, n_tasks) and u is (k, B, d_u), each molecule's graph vector
        repeated for its k rows. ``rotations`` is None (the inference
        views), one (k, 3, 3) stack for every molecule, or (B, k, 3, 3).
        ``node_feats``, ``coords_value`` and ``emb_value`` feed the batch's
        node features, coordinates and embedding rows in as graph leaves.
        """
        g = self._graph_vector(batch, node_feats=node_feats)
        if self.cfg.ablate_3d:
            u = g
        else:
            p = encoder3d.encode(
                batch.cloud,
                self.enc_table,
                self.store,
                self.cfg.encoder,
                self.bn_states,
                training=training,
                rotations=rotations,
                offsets=batch.offsets,
                use_stack=not self.cfg.ablate_pointwise,
                per_view=training and self.cfg.objective == "average_loss",
                coords_value=coords_value,
                emb_value=emb_value,
            )
            u = fuse(g, p)
        y_hat = predict_head(u, self.store)
        return y_hat, u

    def predict_batch(self, batch: Batch) -> np.ndarray:
        """Deterministic inference for a packed batch, (B, n_tasks), built without a tape."""
        with ad.no_grad():
            y_hat, _ = self.forward(batch)
        return y_hat.data

    def predict(self, record: MoleculeRecord) -> np.ndarray:
        """Deterministic inference (normalized-target units) for one molecule, a batch of one.

        Under an aligning policy, a molecule with a degenerate spectrum or a
        single atom raises DegenerateCloud or TooFewPoints naming its id.
        """
        return self.predict_batch(pack([self.prepare(record)]))[0]


def measure_invariance(model: Model, records, n_rotations: int, seed: int = 0) -> InvarianceReport:
    """Prediction deviation of each molecule under random rotations.

    Per molecule the deviation is max over rotations and tasks of
    |y_hat(R X) - y_hat(X)|; the report carries the mean and max over
    molecules. Every inference call uses the same view set, drawn once from
    the model's seed, so post-align models are exactly invariant here. The
    probe rotations are drawn once per (n_rotations, seed) as well (the
    cached ``encoder3d.inference_views``). Each molecule and its rotated
    copies are predicted as one packed batch.
    """
    if not records:
        raise NoData("no molecules given")
    if n_rotations < 2:
        raise InvalidConfig(f"n_rotations must be >= 2, got {n_rotations}")
    rotations = encoder3d.inference_views(n_rotations, seed)
    deviations = []
    for record in records:
        copies = [record]
        for rotation in rotations:  # a rotated copy is checked as it is prepared, not before
            copies.append(copy.copy(record))
            copies[-1].coords = record.coords @ rotation.T
        preds = model.predict_batch(pack([model.prepare(each) for each in copies]))
        deviations.append(float(np.max(np.abs(preds[1:] - preds[0]))))
    return InvarianceReport(
        mean_dev=float(np.mean(deviations)),
        max_dev=float(np.max(deviations)),
        n_molecules=len(records),
        n_rotations=n_rotations,
        align_mode=model.cfg.encoder.align_mode,
    )


def atom_importance(model: Model, record: MoleculeRecord, task_index: int,
                    return_components: bool = False):
    """Gradient-based per-atom contribution scores for one task.

    Backpropagates the selected output to the input coordinates, the atom
    embedding rows, and the graph node features, feeding each in as a
    shared leaf; the coordinate gradient therefore already carries the
    average over the k sampled views. The per-atom score is the Euclidean
    norm of the concatenated per-atom input gradient, normalized so the
    largest score is 1, and the scores come in the record's atom order.
    Coordinate gradients are reported with the centering projection
    applied (a uniform shift of all atoms is not a real input direction);
    for aligned models the canonical frame is held fixed, so the score is a
    linearization around it.
    """
    if not (0 <= task_index < len(model.task_names)):
        raise InvalidConfig(f"task_index {task_index} out of range for {model.task_names}")
    molecule = model.prepare(record)
    node_leaf = Value(molecule.graph.node_feats, requires_grad=True)
    coords_leaf = emb_leaf = None
    if not model.cfg.ablate_3d:
        coords_leaf = Value(molecule.cloud.coords, requires_grad=True)
        if model.enc_table is not None and model.cfg.encoder.use_atom_embedding:
            rows = model.enc_table.indices(molecule.cloud.atomic_numbers)
            emb_leaf = Value(model.enc_table.values.data[rows], requires_grad=True)

    y_hat, _ = model.forward(pack([molecule]), node_feats=node_leaf, coords_value=coords_leaf,
                             emb_value=emb_leaf)
    ad.backward(ad.pick(y_hat, (0, task_index)))

    parts = [node_leaf.grad]
    if coords_leaf is not None:
        coord_grad = coords_leaf.grad - coords_leaf.grad.mean(axis=0)
        parts.insert(0, coord_grad)
        coord_component = np.sqrt(np.sum(coord_grad**2, axis=1))
    else:
        coord_component = np.zeros(record.n_atoms)
    if emb_leaf is not None:
        parts.append(emb_leaf.grad)
    scores = np.sqrt(sum(np.sum(p**2, axis=1) for p in parts))
    peak = float(scores.max())
    if peak > 0:
        scores = scores / peak
    rank = np.argsort(molecule.order)
    if return_components:
        return scores[rank], coord_component[rank]
    return scores[rank]
