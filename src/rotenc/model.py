"""Full regression model: graph backbone + geometric encoder + fused head.

The graph vector g (projected to a fixed width) is concatenated with the
view-averaged geometric fingerprint p; a two-layer perceptron maps the
fused vector to the targets. The training loss is MSE plus an L1 penalty
on the fused vector. Training and inference use the same estimator: the
head sees the fingerprint averaged over the views. The model runs on
packed batches (``packing``); one molecule is a batch of one. Also
provides the rotation-invariance measurement harness and gradient-based
atom importance.
"""

from __future__ import annotations

import copy
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import encoder3d, gnn
from .autodiff import ParameterStore, Value
from .data import DEFAULT_CUTOFF, MoleculeRecord, build_graph, edge_width, reorder_atoms, vocab_rows
from .encoder3d import EncoderConfig
from .errors import InputError, InvalidConfig, NoData, TaskMismatch
from .geometry import PointCloud
from .gnn import GnnConfig
from .packing import Batch, pack

# molecules per inference forward, whatever the training batch: 256 of 8-29 atoms scored 1,541 mol/s at an 11 MB traced
# peak in packs of 16, 1,000 mol/s at 84 MB in packs of 128 (paper default; 2-core Xeon box, one BLAS thread)
SCORING_PACK = 16


@dataclass
class ModelConfig:
    encoder: EncoderConfig
    gnn: GnnConfig
    g_dim: int = 128
    head_hidden: int = 256
    cutoff: float = DEFAULT_CUTOFF
    ablate_3d: bool = False
    ablate_features: bool = False
    ablate_pointwise: bool = False

    def __post_init__(self):
        if self.g_dim < 1 or self.head_hidden < 1:
            raise InvalidConfig("g_dim and head_hidden must be positive")
        if not 0 < self.cutoff < math.inf:
            raise InvalidConfig(f"cutoff must be finite and positive, got {self.cutoff}")

    @property
    def reads_coords(self) -> bool:
        """Whether the model reads coordinates: only the full encoder does."""
        return not (self.ablate_3d or self.ablate_pointwise)

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


class Inputs(NamedTuple):
    """A packed batch as graph nodes, the inputs every layer reads.

    ``node_feats`` are the (N, d0) node features, ``coords`` the (N, 3)
    prepared coordinates and ``emb`` each atom's (N, embed_dim) ``enc.embed``
    row. ``coords`` is None unless the model ``reads_coords``, and ``emb``
    is None too without the encoder (``ablate_3d``).
    """

    node_feats: Value
    coords: Value | None
    emb: Value | None


def fuse(g: Value, p: Value) -> Value:
    """u = [g || p], graph part first.

    g and p hold one row per molecule of a batch.
    """
    return ad.concat([g, p])


def predict_head(u: Value, store: ParameterStore) -> Value:
    """Two-layer relu perceptron from the fused vector to the task outputs."""
    hidden = ad.dense(u, store["head.W1"], store["head.b1"], relu=True)
    return ad.dense(hidden, store["head.W2"], store["head.b2"])


def loss(y_hat: Value, y, u: Value, lambda_l1: float) -> Value:
    """MSE(y_hat, y) + lambda * ||u||_1, averaged over samples.

    y_hat is a batch's (B, n_tasks) prediction and y an array of its shape.
    The result is the mean of the per-sample losses.
    """
    rows = y_hat.shape[0]
    task = ad.mse(y_hat, y)
    if lambda_l1 == 0.0:
        return task
    return ad.add(task, ad.scale(ad.l1_norm(u), lambda_l1 / rows))


@contextmanager
def for_molecule(record: MoleculeRecord):
    """Re-raise an input error of the molecule with its id in the message."""
    try:
        yield
    except InputError as exc:
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
            raise InvalidConfig(f"bonded atoms {order[tied[0]]} and {order[tied[0] + 1]} "
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
        if self.task_names != tuple(sorted(set(self.task_names))):  # the order of the target and normalizer columns
            raise InvalidConfig(f"task names must be sorted and distinct, got {self.task_names}")
        self.bonded = bonded
        self.store = ParameterStore()
        self.bn_states = {}
        rng = np.random.default_rng(seed)

        if not cfg.ablate_3d:
            # one N(0, 1) row per element of the vocabulary
            self.store.add("enc.embed", rng.normal(0.0, 1.0, (len(self.vocab), cfg.encoder.embed_dim)))
            if not cfg.ablate_pointwise:
                self.bn_states = encoder3d.init_encoder_params(self.store, cfg.encoder, rng)
        gnn.init_gnn_params(self.store, cfg.gnn, len(self.vocab), self.d_edge, rng)
        self.store.add("gproj.W", rng.normal(0.0, np.sqrt(2.0 / cfg.gnn.hidden), (cfg.gnn.hidden, cfg.g_dim)))
        self.store.add("gproj.b", np.zeros(cfg.g_dim))
        self.store.add("head.W1", rng.normal(0.0, np.sqrt(2.0 / cfg.d_u), (cfg.d_u, cfg.head_hidden)))
        self.store.add("head.b1", np.zeros(cfg.head_hidden))
        self.store.add("head.W2", rng.normal(0.0, np.sqrt(2.0 / cfg.head_hidden), (cfg.head_hidden, len(self.task_names))))
        self.store.add("head.b2", np.zeros(len(self.task_names)))

    @property
    def edge_features(self) -> str:
        """``build_graph``'s edge featurization: one constant column under ``ablate_features``."""
        return "constant" if self.cfg.ablate_features else "auto"

    @property
    def d_edge(self) -> int:
        return edge_width(self.bonded, self.edge_features)

    def prepare(self, record: MoleculeRecord, training: bool = False) -> Batch:
        """The record as a batch of one: its graph and its cloud, centered and aligned as the policy asks.

        This is the one place a record becomes model input and the one place
        the align policy is read: inference aligns under ``post`` when the
        model ``reads_coords``, training never does. A record the model
        cannot take (coordinates out of range, an unknown element, task
        names other than the model's, bonds of a cutoff model or none of a
        bonded one, a molecule that cannot be aligned) raises its
        InputError with the molecule's id in the message.

        Graph and cloud then take ``canonical_order``, so any atom order of
        a record that prepares to the same cloud gives the same arrays (exact
        centering does; PCA alignment, which reads atoms by index, need not).

        The record's coordinates and atomic numbers are checked once, as
        they enter the first cloud; the centered and the reordered cloud
        and the reordered record are made from checked arrays and are not
        checked again.
        """
        with for_molecule(record):
            if tuple(sorted(record.targets)) != self.task_names:
                raise TaskMismatch(f"tasks do not match {self.task_names}, got {tuple(sorted(record.targets))}")
            if (record.bonds is not None) != self.bonded:
                raise InvalidConfig("has bonds, the model reads cutoff graphs" if record.bonds is not None
                                    else "has no bonds, the model reads bonded graphs")
            cloud = PointCloud(record.coords, np.asarray(record.atomic_numbers))
            if not self.cfg.ablate_3d:
                align = self.cfg.reads_coords and self.cfg.encoder.align_mode == "post" and not training
                cloud = encoder3d.prepare_cloud(cloud, align)
            order = canonical_order(record, cloud)
            graph = build_graph(reorder_atoms(record, order), self.cfg.cutoff, vocab=self.vocab,
                                edge_features=self.edge_features)
            # + 0.0 turns -0.0 into +0.0: the sort ties the two, the arrays must not differ
            cloud = PointCloud.trusted(cloud.coords[order] + 0.0, cloud.atomic_numbers[order])
            return Batch(graph, cloud, np.array([0, graph.n_nodes]), order)

    def inputs(self, batch: Batch) -> Inputs:
        """The batch's node features, coordinates and embedding rows as graph nodes.

        This is the one place the element vocabulary meets the encoder: each
        atom's ``enc.embed`` row is gathered here, and every layer below
        takes the rows it reads.
        """
        node_feats = Value(batch.graph.node_feats)
        if self.cfg.ablate_3d:
            return Inputs(node_feats, None, None)
        emb = ad.gather_rows(self.store["enc.embed"], vocab_rows(self.vocab, batch.cloud.atomic_numbers))
        return Inputs(node_feats, Value(batch.cloud.coords) if self.cfg.reads_coords else None, emb)

    def forward(self, batch: Batch, *, training: bool = False, rotations=None,
                inputs: Inputs | None = None) -> tuple[Value, Value]:
        """One forward pass over a packed batch; returns (y_hat, u) as graph nodes.

        y_hat is (B, n_tasks) and u is (B, d_u). ``rotations`` is None (the
        inference views), one (k, 3, 3) stack for every molecule, or
        (B, k, 3, 3); a model without the pointwise stack reads none.
        ``inputs`` replaces the batch's ``self.inputs(batch)``, for instance
        with leaves that take a gradient (``atom_importance``).
        """
        x = self.inputs(batch) if inputs is None else inputs
        g = gnn.gnn_forward(batch.graph, x.node_feats, self.store, self.cfg.gnn, batch.offsets)
        g = ad.dense(g, self.store["gproj.W"], self.store["gproj.b"])
        if self.cfg.ablate_3d:
            u = g
        elif self.cfg.ablate_pointwise:
            u = fuse(g, encoder3d.mean_embedding(x.emb, batch.offsets))
        else:
            u = fuse(g, encoder3d.encode(x.coords, x.emb, self.store, self.cfg.encoder, self.bn_states,
                                         training=training, rotations=rotations, offsets=batch.offsets))
        y_hat = predict_head(u, self.store)
        return y_hat, u

    def predict_batch(self, batch: Batch) -> np.ndarray:
        """Deterministic inference for a packed batch, (B, n_tasks), built without a tape."""
        with ad.no_grad():
            y_hat, _ = self.forward(batch)
        return y_hat.data

    def predict_prepared(self, molecules) -> np.ndarray:
        """Deterministic inference for prepared molecules (``prepare``'s batches of one), (n, n_tasks).

        ``SCORING_PACK`` molecules are packed and predicted at a time. Each
        pack is drawn from ``molecules`` only as it is built, so of a
        generator no more than one pack is held at once. A row matches the
        molecule's alone to rounding only: a GEMM row's bits depend on the
        row count (so a lone last molecule may move).
        """
        molecules = iter(molecules)
        rows = []
        while members := list(itertools.islice(molecules, SCORING_PACK)):
            rows.append(self.predict_batch(pack(members)))
        if not rows:
            raise NoData("no molecules to predict")
        return np.concatenate(rows)

    def predict(self, record: MoleculeRecord) -> np.ndarray:
        """Deterministic inference (normalized-target units) for one molecule, a batch of one.

        A model that aligns raises DegenerateCloud or TooFewPoints naming the
        molecule's id for a molecule with a degenerate spectrum or a single atom.
        """
        return self.predict_batch(self.prepare(record))[0]


def _with_rotated_copies(record: MoleculeRecord, rotations):
    """The record, then one copy of it per rotation, each made only when it is drawn."""
    yield record
    for rotation in rotations:  # a rotated copy is checked as it is prepared, not before
        rotated = copy.copy(record)
        rotated.coords = record.coords @ rotation.T
        yield rotated


def measure_invariance(model: Model, records, n_rotations: int, seed: int = 0) -> InvarianceReport:
    """Prediction deviation of each molecule under random rotations.

    Per molecule the deviation is max over rotations and tasks of
    |y_hat(R X) - y_hat(X)|; the report carries the mean and max over
    molecules. Every inference call uses the same view set, drawn once from
    the model's seed, so post-align models are exactly invariant here. The
    probe rotations are drawn once per (n_rotations, seed) as well (the
    cached ``encoder3d.inference_views``). Each molecule and its rotated
    copies are predicted by ``Model.predict_prepared``, ``SCORING_PACK`` to a
    forward: a copy is made and prepared only as its pack is built, so a
    probe holds at most ``SCORING_PACK`` prepared copies whatever
    ``n_rotations`` is.
    """
    if not records:
        raise NoData("no molecules given")
    if n_rotations < 2:
        raise InvalidConfig(f"n_rotations must be >= 2, got {n_rotations}")
    rotations = encoder3d.inference_views(n_rotations, seed)
    deviations = []
    for record in records:
        preds = model.predict_prepared(model.prepare(each) for each in _with_rotated_copies(record, rotations))
        deviations.append(float(np.max(np.abs(preds[1:] - preds[0]))))
    return InvarianceReport(
        mean_dev=float(np.mean(deviations)),
        max_dev=float(np.max(deviations)),
        n_molecules=len(records),
        n_rotations=n_rotations,
        align_mode=model.cfg.encoder.align_mode,
    )


def atom_importance(model: Model, record: MoleculeRecord, task_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-based per-atom contribution scores for one task, with their coordinate components.

    Backpropagates the selected output to the input coordinates, the atom
    embedding rows, and the graph node features, feeding each in as a
    shared leaf; the coordinate gradient therefore already carries the
    average over the k sampled views. The per-atom score is the Euclidean
    norm of the concatenated per-atom input gradient, normalized so the
    largest score is 1. Returns ``(scores, coord_component)``, both in the
    record's atom order: the coordinate component is the norm of each
    atom's coordinate gradient alone, unnormalized (zeros when the model
    reads no coordinates). Coordinate gradients are reported with the
    centering projection applied (a uniform shift of all atoms is not a
    real input direction); for aligned models the canonical frame is held
    fixed, so the score is a linearization around it.
    """
    if not (0 <= task_index < len(model.task_names)):
        raise InvalidConfig(f"task_index {task_index} out of range for {model.task_names}")
    batch = model.prepare(record)
    leaves = Inputs(*(None if v is None else Value(v.data, requires_grad=True) for v in model.inputs(batch)))
    y_hat, _ = model.forward(batch, inputs=leaves)
    ad.backward(ad.pick(y_hat, (0, task_index)))

    parts = [leaves.node_feats.grad]
    if leaves.coords is not None:
        coord_grad = leaves.coords.grad - leaves.coords.grad.mean(axis=0)
        parts.insert(0, coord_grad)
        coord_component = np.sqrt(np.sum(coord_grad**2, axis=1))
    else:
        coord_component = np.zeros(record.n_atoms)
    if leaves.emb is not None:
        parts.append(leaves.emb.grad)
    scores = np.sqrt(sum(np.sum(p**2, axis=1) for p in parts))
    peak = float(scores.max())
    if peak > 0:
        scores = scores / peak
    rank = np.argsort(batch.order)
    return scores[rank], coord_component[rank]
