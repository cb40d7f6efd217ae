"""3D geometric encoder: rotate, per-atom convolve, average over views, pool.

A molecule's centered coordinates are rotated into k sampled views. Each
view runs through a stack of shared per-atom affine maps (1x1 convolutions)
with batchnorm (folded into the map in eval mode) and relu. With mean
pooling the fingerprint is mean_i mean_v f(R_v x_i): each atom's k view
rows are averaged first, then the atoms are pooled; max pooling pools each
view over atoms and averages the k fingerprints. The average is a
Monte-Carlo estimate of the rotation-group expectation of the single-view
encoder, so the result is approximately rotation invariant, with the
residual shrinking as 1/sqrt(k). Canonical pre-alignment of the input
makes it exactly invariant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .alignment import canonical_align
from .autodiff import BatchNormState, ParameterStore, Value
from .data import vocab_rows
from .errors import DegenerateCloud, InvalidConfig, ShapeError
from .geometry import PointCloud, center_cloud, sample_rotations

POOL_MODES = ("mean", "max")
ALIGN_MODES = ("none", "pre", "post")


@dataclass
class EncoderConfig:
    """Widths and sampling policy of the geometric encoder.

    ``widths`` has one output width per stack layer; the last one is the
    fingerprint length ``d_p``. ``align_mode`` selects when canonical
    alignment is applied: never, before training ("pre"), or only at
    inference on a model trained without it ("post").
    """

    widths: tuple[int, ...] = (64, 128, 128)
    pool: str = "mean"
    use_atom_embedding: bool = True
    embed_dim: int = 32
    k: int = 16
    seed: int = 0
    align_mode: str = "none"

    def __post_init__(self):
        self.widths = tuple(self.widths)
        if not self.widths or min(self.widths) < 1:
            raise InvalidConfig(f"widths must be non-empty and positive, got {self.widths}")
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.embed_dim < 1:
            raise InvalidConfig(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.pool not in POOL_MODES:
            raise InvalidConfig(f"pool must be one of {POOL_MODES}, got {self.pool!r}")
        if self.align_mode not in ALIGN_MODES:
            raise InvalidConfig(f"align_mode must be one of {ALIGN_MODES}, got {self.align_mode!r}")

    @property
    def d_p(self) -> int:
        return self.widths[-1]

    @property
    def input_width(self) -> int:
        return 3 + (self.embed_dim if self.use_atom_embedding else 0)


class AtomEmbeddingTable:
    """Learnable per-element feature vectors, indexed by atomic number."""

    def __init__(self, vocab, values: Value):
        self.vocab = tuple(vocab)
        self.values = values
        if values.data.shape[0] != len(self.vocab):
            raise ShapeError(
                f"embedding rows {values.data.shape[0]} != vocabulary size {len(self.vocab)}"
            )

    @property
    def embed_dim(self) -> int:
        return self.values.data.shape[1]

    def indices(self, atomic_numbers) -> np.ndarray:
        return vocab_rows(self.vocab, atomic_numbers)


def init_embedding_table(store: ParameterStore, cfg: EncoderConfig, vocab,
                         rng: np.random.Generator) -> AtomEmbeddingTable | None:
    """The ``enc.embed`` table, one N(0, 1) row per element; None without atom embeddings."""
    if not cfg.use_atom_embedding:
        return None
    return AtomEmbeddingTable(vocab, store.add("enc.embed", rng.normal(0.0, 1.0, (len(vocab), cfg.embed_dim))))


def init_encoder_params(store: ParameterStore, cfg: EncoderConfig, vocab,
                        rng: np.random.Generator):
    """Create stack weights, batchnorm parameters/states, and the embedding table.

    Returns (table, bn_states) where bn_states maps state names to
    BatchNormState objects (running statistics live outside the store).
    """
    table = init_embedding_table(store, cfg, vocab, rng)
    bn_states = {}
    fan_in = cfg.input_width
    for layer, width in enumerate(cfg.widths):
        # no conv bias: the batchnorm beta that follows would absorb it,
        # leaving the bias with an identically-zero gradient
        store.add(f"enc.conv{layer}.W", rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, width)))
        store.add(f"enc.bn{layer}.gamma", np.ones(width))
        store.add(f"enc.bn{layer}.beta", np.zeros(width))
        bn_states[f"enc.bn{layer}"] = BatchNormState.for_width(width)
        fan_in = width
    return table, bn_states


def view_parts(cloud: PointCloud, rotations: np.ndarray, table: AtomEmbeddingTable | None,
               cfg: EncoderConfig, coords: Value | None = None,
               emb: Value | None = None, offsets=None) -> tuple[Value, ...]:
    """The view input as parts: the rotated coordinates, then, with atom embeddings, the Emb(z) rows.

    ``rotations`` is one (3, 3) matrix, giving (n, 3) coordinates, or a
    (k, 3, 3) stack, giving (k, n, 3) with one view per matrix; either is
    shared by every atom of the cloud. For a packed cloud (molecule b in
    rows offsets[b]:offsets[b+1]) a (B, k, 3, 3) array gives every molecule
    its own stack. The (n, embed_dim) embedding rows are the same in every
    view and are not repeated: the first stack layer projects them once
    and broadcasts the projection (``ad.dense`` with parts). ``cloud`` must
    already be prepared (``prepare_cloud``). ``coords`` can supply the
    coordinates as a graph node and ``emb`` pre-gathered embedding rows
    (both used for gradients w.r.t. the inputs); they default to the cloud
    coordinates and a fresh table lookup.
    """
    base = coords if coords is not None else Value(cloud.coords)
    rotations = np.asarray(rotations)
    if rotations.ndim < 4:  # one stack shared by the whole cloud: a single segment
        rotations, offsets = rotations[None], None
    transposed = Value(np.ascontiguousarray(np.swapaxes(rotations, -1, -2)))
    rotated = ad.segment_matmul(base, transposed, [0, cloud.n_atoms] if offsets is None else offsets)
    if not cfg.use_atom_embedding:
        return (rotated,)
    if emb is None:
        if table is None:
            raise InvalidConfig("use_atom_embedding=True but no embedding table given")
        emb = ad.gather_rows(table.values, table.indices(cloud.atomic_numbers))
    return rotated, emb


def build_view_input(cloud: PointCloud, rotations: np.ndarray, table: AtomEmbeddingTable | None,
                     cfg: EncoderConfig, coords: Value | None = None,
                     emb: Value | None = None, offsets=None) -> Value:
    """The ``view_parts`` joined into one input: rotated coordinates, optionally || Emb(z).

    The embedding rows are repeated for every view, giving (n, d) for one
    rotation and (k, n, d) for a stack. Only the ``ablate_pointwise``
    fingerprint, which is this input itself, needs it joined.
    """
    parts = view_parts(cloud, rotations, table, cfg, coords=coords, emb=emb, offsets=offsets)
    if len(parts) == 1:
        return parts[0]
    rotated, emb = parts
    return ad.concat([rotated, ad.broadcast_to(emb, rotated.shape[:-1] + emb.shape[-1:])], axis=-1)


def pointwise_stack(features: Value | tuple[Value, ...], store: ParameterStore, cfg: EncoderConfig,
                    bn_states: dict, training: bool = False, offsets=None) -> Value:
    """Stack of per-atom affine maps with batchnorm and relu.

    Atoms never mix: every layer applies the same dense map to each row
    independently, so duplicating an input row duplicates the output row.
    A stacked (k, n, d) input runs every view through the shared maps,
    with separate batchnorm statistics per view in training mode, and per
    molecule too when ``offsets`` cuts the rows into a packed batch.
    ``features`` is the view input whole or as its ``view_parts``, which
    the first layer projects part by part (``ad.dense``), each embedding
    row once for all views.

    In eval mode batchnorm is an affine map of the running statistics, so
    each layer folds it into its conv, ``W' = W·s`` and ``b' = β − μ·s`` with
    ``s = γ/√(σ² + ε)``, and runs one fused ``dense`` node. The fold is
    recomputed from the current parameters and statistics on every call.
    Its weights are constants, so an eval-mode pass carries gradients to
    its inputs but not to the stack's parameters.
    """
    x = features
    for layer in range(len(cfg.widths)):
        W = store[f"enc.conv{layer}.W"]
        gamma, beta = store[f"enc.bn{layer}.gamma"], store[f"enc.bn{layer}.beta"]
        state = bn_states[f"enc.bn{layer}"]
        if training:
            # view parts are projected part by part; a whole input is one product
            pre = ad.dense(x, W) if isinstance(x, tuple) else ad.matmul(x, W)
            x = ad.batchnorm(pre, gamma, beta, state, offsets=offsets, relu=True)
        else:
            s = gamma.data / np.sqrt(state.var + ad.BN_EPS)
            x = ad.dense(x, Value(W.data * s), Value(beta.data - state.mean * s), relu=True)
    return x


def pool_view(features: Value, mode: str = "mean", offsets=None) -> Value:
    """Column-wise mean or max over atoms (axis -2), summed in atom order.

    A (k, N, d) stack gives one fingerprint per view; ``encode`` hands the
    mean mode an (N, d) array of per-atom view averages instead. With
    ``offsets`` every molecule of a packed batch is pooled on its own: a
    (k, N, d) input gives (k, B, d) and an (N, d) input (B, d).
    """
    if mode not in POOL_MODES:
        raise InvalidConfig(f"pool must be one of {POOL_MODES}, got {mode!r}")
    if mode == "mean":
        return ad.mean_pool(features, axis=-2, offsets=offsets)
    return ad.max_pool(features, axis=-2, offsets=offsets)


def prepare_cloud(cloud: PointCloud, align: bool) -> PointCloud:
    """Center the cloud and, when ``align`` is set, rotate it into its canonical frame.

    Raises DegenerateCloud when alignment is asked for but the covariance
    spectrum is degenerate, so no unique canonical frame exists.
    """
    centered, _ = center_cloud(cloud)
    if not align:
        return centered
    result = canonical_align(centered)
    if result.degenerate:
        raise DegenerateCloud("covariance spectrum is degenerate; no unique canonical frame")
    return result.aligned


@functools.lru_cache(maxsize=64)
def inference_views(k: int, seed: int) -> np.ndarray:
    """The (k, 3, 3) view stack drawn from ``seed``, sampled once per (k, seed).

    The cache is keyed on the values, not on a model, so a model whose
    config is replaced after construction gets the views of its new k. The
    returned array is shared and read-only.
    """
    views = sample_rotations(k, seed)
    views.flags.writeable = False
    return views


def encode(cloud: PointCloud, table: AtomEmbeddingTable | None, store: ParameterStore,
           cfg: EncoderConfig, bn_states: dict, *, training: bool = False,
           rotations=None, offsets=None, use_stack: bool = True, per_view: bool = False,
           coords_value: Value | None = None, emb_value: Value | None = None) -> Value:
    """Full encoder: rotate a prepared cloud into k views, convolve, average the views and pool.

    ``cloud`` is already centered and, under an aligning policy, aligned
    (``prepare_cloud``; ``Model.prepare`` applies the model's policy).
    Without ``offsets`` it is one molecule and the result is its (d_p,)
    fingerprint; given ``offsets`` it is a packed batch (molecule b in rows
    offsets[b]:offsets[b+1]) and the result has one row per molecule,
    (B, d_p).

    ``rotations`` overrides the view set (otherwise it is the k rotations
    drawn from cfg.seed, see ``inference_views``); a (B, k, 3, 3) array
    gives each molecule of a batch its own views. All views run as one
    stacked (k, N, d) tensor; the first layer projects the embedding rows
    once and adds the projection to every view. Under mean pooling each atom's k rows are
    averaged in view order (``ad.mean``), and the (N, d) averages are then
    pooled over atoms, in index order (``Model.prepare``'s canonical atom
    order makes that exact under atom permutation): k times fewer rows than
    pooling every view. Under max pooling every view is
    pooled over atoms and the k fingerprints are averaged. ``per_view``
    pools every view and returns one fingerprint row per view, (k, d_p) or
    (k, B, d_p). ``coords_value``/``emb_value`` feed the cloud's
    coordinates and embedding rows in as shared graph leaves for
    input-gradient attribution.
    """
    if rotations is None:
        rotations = inference_views(cfg.k, cfg.seed)
    if use_stack:
        parts = view_parts(cloud, rotations, table, cfg, coords=coords_value, emb=emb_value, offsets=offsets)
        views = pointwise_stack(parts, store, cfg, bn_states, training, offsets)
    else:  # the ablation's fingerprint is the joined view input itself
        views = build_view_input(cloud, rotations, table, cfg, coords=coords_value, emb=emb_value,
                                 offsets=offsets)
    if cfg.pool == "mean" and not per_view:
        return pool_view(ad.mean(views, axis=0), cfg.pool, offsets)
    fingerprints = pool_view(views, cfg.pool, offsets)
    return fingerprints if per_view else ad.mean_pool(fingerprints, axis=0)
