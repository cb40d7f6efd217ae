"""Rotation-invariant 3D molecular encoding and property regression.

The geometric encoder averages a learned per-view fingerprint over sampled
3D rotations, which approximates the rotation-group expectation of the
single-view network and makes the representation approximately rotation
invariant (error ~ 1/sqrt(k) in the number of views). Canonical PCA
alignment provides a strictly invariant alternative. A small message-passing
backbone supplies the graph representation; everything trains end to end on
a from-scratch reverse-mode autodiff tape.
"""

from typing import NamedTuple

from . import geometry
from .alignment import AlignmentResult, canonical_align, invariance_residual, pca_frame
from .autodiff import ParameterStore, Value, backward
from .data import (
    MoleculeRecord,
    Normalizer,
    SplitSpec,
    build_graph,
    convert_xyz,
    load_dataset,
    normalize_targets,
    rbf_expand,
    split,
    write_dataset,
)
from .encoder3d import EncoderConfig, encode
from .errors import RotencError
from .geometry import (
    PointCloud,
    apply_rotation,
    center_cloud,
    quaternion_to_matrix,
)
from .gnn import GnnConfig, MolecularGraph, message_pass
from .model import (
    InvarianceReport,
    Model,
    ModelConfig,
    atom_importance,
    fuse,
    loss,
    measure_invariance,
    predict_head,
)
from .trainer import (
    Checkpoint,
    Metrics,
    TrainConfig,
    adamw_step,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"


class SamplingConfig(NamedTuple):
    """The old one-argument form of ``sample_rotations``: ``sample_rotations(SamplingConfig(k, seed))``.

    Kept only for the benchmark harness (``perfbench/workloads.py``), which
    still makes that call; new code passes ``k`` and ``seed`` directly.
    """

    k: int
    seed: int = 0


def sample_rotations(k, seed: int = 0):
    """``geometry.sample_rotations(k, seed)``; ``k`` may also be a ``SamplingConfig``."""
    if isinstance(k, SamplingConfig):
        k, seed = k
    return geometry.sample_rotations(k, seed)
