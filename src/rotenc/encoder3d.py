"""3D geometric encoder: rotate, per-atom convolve, average over views, pool.

A molecule's centered coordinates are rotated into k sampled views. Each
view runs through a stack of shared per-atom affine maps (1x1 convolutions)
with batchnorm (folded into the map in eval mode) and relu. The
fingerprint is mean_i mean_v f(R_v x_i): each atom's k view rows are
averaged first, then the atoms are pooled. The average is a Monte-Carlo
estimate of the rotation-group expectation of the single-view encoder, so
the result is approximately rotation invariant, with the residual
shrinking as 1/sqrt(k). Canonical alignment of the input at inference
(``align_mode="post"``) makes it exactly invariant. The ``no-pointnet``
ablation has no stack; its fingerprint, the view input averaged over views
and atoms, is computed directly (``mean_embedding``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .alignment import canonical_align
from .autodiff import BatchNormState, ParameterStore, Value
from .errors import DegenerateCloud, InvalidConfig, ShapeError
from .geometry import PointCloud, center_cloud, sample_rotations

ALIGN_MODES = ("none", "post")


@dataclass
class EncoderConfig:
    """Widths and sampling policy of the geometric encoder.

    ``widths`` has one output width per stack layer; the last one is the
    fingerprint length ``d_p``. Each atom's view input is its rotated
    coordinates and its ``embed_dim``-wide element embedding.
    ``align_mode`` is the serving policy: "none" never aligns, "post"
    aligns every cloud into its canonical frame at inference. Training
    never aligns: its k Haar views of a molecule are drawn alike in any
    fixed frame.
    """

    widths: tuple[int, ...] = (64, 128, 128)
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
        if self.seed < 0:
            raise InvalidConfig(f"encoder seed must be >= 0, got {self.seed}")
        if self.align_mode not in ALIGN_MODES:
            raise InvalidConfig(f"align_mode must be one of {ALIGN_MODES}, got {self.align_mode!r}")

    @property
    def d_p(self) -> int:
        return self.widths[-1]

    @property
    def input_width(self) -> int:
        return 3 + self.embed_dim


def init_encoder_params(store: ParameterStore, cfg: EncoderConfig, rng: np.random.Generator) -> dict:
    """Create the stack weights and batchnorm parameters; returns the batchnorm states.

    The states map names to BatchNormState objects (running statistics live
    outside the store). The ``enc.embed`` rows the view input reads are the
    model's (``Model.inputs``), not the encoder's.
    """
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
    return bn_states


def mean_embedding(emb: Value, offsets) -> Value:
    """The ``ablate_pointwise`` fingerprint, ``[0, 0, 0 || mean over atoms of Emb(z)]``.

    Without the pointwise stack the fingerprint is the view input averaged
    over views and atoms. Its coordinate columns are then the rotated
    centroid of a prepared (centered) cloud, which is 0 in every view, so
    they are written as 0; its embedding columns are the same in every view
    and are mean-pooled over the atoms. ``emb`` and ``offsets`` are as in
    ``encode``; the result is (B, d), with ``d = 3 + embed_dim``.
    """
    pooled = ad.mean_pool(emb, offsets)
    return ad.concat([np.zeros(pooled.shape[:-1] + (3,), dtype=pooled.data.dtype), pooled])


def pointwise_stack(features: Value | tuple[Value, ...], store: ParameterStore, cfg: EncoderConfig,
                    bn_states: dict, training: bool = False) -> Value:
    """Stack of per-atom affine maps with batchnorm and relu.

    The dense maps never mix atoms: every layer applies the same map to
    each row independently. A stacked (k, n, d) input runs every view
    through the shared maps. In training mode each batchnorm takes one
    statistic per channel over all rows of all views, every molecule of a
    packed batch included, so a training output depends on the batch it
    is in; in eval mode every row is mapped on its own, so duplicating an
    input row duplicates the output row.
    ``features`` is the view input whole or as its parts, the rotated
    coordinates and the embedding rows, which the first layer projects part
    by part (``ad.dense``), each embedding row once for all views.

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
            x = ad.batchnorm(pre, gamma, beta, state)
        else:
            s = gamma.data / np.sqrt(state.var + ad.BN_EPS)
            x = ad.dense(x, Value(W.data * s), Value(beta.data - state.mean * s), relu=True)
    return x


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


def encode(coords: Value, emb: Value, store: ParameterStore, cfg: EncoderConfig, bn_states: dict, *,
           offsets, training: bool = False, rotations=None) -> Value:
    """Full encoder: rotate a prepared cloud into k views, convolve, average the views and pool.

    ``coords`` holds the (N, 3) coordinates of a cloud that is already
    centered and, under an aligning policy, aligned (``prepare_cloud``;
    ``Model.prepare`` applies the model's policy), and ``emb`` each atom's
    (N, embed_dim) element embedding row (``Model.inputs`` gathers them).
    The rows are a packed batch, molecule b in rows offsets[b]:offsets[b+1]
    (``[0, N]`` for a lone molecule), and the result has one fingerprint
    row per molecule, (B, d_p).

    ``rotations`` overrides the view set (otherwise it is the k rotations
    drawn from cfg.seed, see ``inference_views``) with a (k, 3, 3) stack
    shared by every molecule; a (B, k, 3, 3) array gives each molecule of a
    batch its own views. All views run as one stacked (k, N, d) tensor. The
    embedding rows are the same in every view and are not repeated: the
    first layer projects them once and adds the projection to every view
    (``ad.dense`` with parts). Each atom's k rows are averaged in view order
    (``ad.mean``), and the (N, d) averages are then mean-pooled over atoms
    (``Model.prepare``'s canonical atom order makes that exact under atom
    permutation): k times fewer rows than pooling every view.
    """
    if rotations is None:
        rotations = inference_views(cfg.k, cfg.seed)
    elif np.ndim(rotations) not in (3, 4) or np.shape(rotations)[-2:] != (3, 3):
        raise ShapeError(f"encode: rotations must be (k, 3, 3) or (B, k, 3, 3), got {np.shape(rotations)}")
    rotations, segments = np.asarray(rotations), offsets
    if rotations.ndim == 3:  # one stack shared by the whole cloud: a single segment
        rotations, segments = rotations[None], [0, coords.shape[0]]
    transposed = np.ascontiguousarray(np.swapaxes(rotations, -1, -2))
    rotated = ad.segment_matmul(coords, transposed, segments)
    views = pointwise_stack((rotated, emb), store, cfg, bn_states, training)
    return ad.mean_pool(ad.mean(views), offsets)
