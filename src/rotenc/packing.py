"""Packed batches: B molecules as one disjoint-union graph and one point cloud.

A batch stores its molecules back to back. ``offsets`` (length B+1) says
molecule b owns atoms ``offsets[b]:offsets[b+1]`` of both the graph and the
cloud; each molecule's edge indices are shifted by its offset, so no edge
joins two molecules. The model runs every layer once per batch: message
passing aggregates each destination on its own, and the readout and the
pooling reduce each molecule on its own, in its canonical atom order
(``Model.prepare``). At inference a molecule's values therefore match its
values alone, to rounding only: a GEMM row's bits depend on the row count
(``TestPackedInference`` checks rtol 1e-12); inference packs 16 molecules
(``Model.predict_prepared``). Training batchnorm normalizes each channel over
the whole batch. A batch is model input only, without labels. One molecule is
``offsets = [0, n]``, which ``Model.prepare`` returns; ``pack`` joins batches,
keeping their dtype: the float32 copies of ``lowered`` pack into float32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoData
from .geometry import PointCloud
from .gnn import MolecularGraph


@dataclass(frozen=True)
class Batch:
    """Packed molecules: the disjoint-union graph, the joined clouds, the offsets and the atom order.

    The clouds are centered and, under an aligning policy, in their
    canonical frames (``Model.prepare``); packing does not touch
    coordinates. Atom i of graph and cloud is atom ``order[i]`` of its
    molecule's record.
    """

    graph: MolecularGraph
    cloud: PointCloud
    offsets: np.ndarray
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1


def pack(batches) -> Batch:
    """Join batches into one, in the order given; a lone batch is returned unchanged."""
    batches = list(batches)
    if not batches:
        raise NoData("cannot pack an empty batch")
    if len(batches) == 1:
        return batches[0]
    starts = np.cumsum([0] + [b.graph.n_nodes for b in batches])
    # shifting each batch's checked, destination-grouped edges past the atoms
    # before it keeps them checked and grouped: the union is not checked or sorted again
    graph = MolecularGraph.trusted(
        node_feats=np.concatenate([b.graph.node_feats for b in batches]),
        edges=np.concatenate([b.graph.edges + start for b, start in zip(batches, starts)]),
        edge_feats=np.concatenate([b.graph.edge_feats for b in batches]),
    )
    cloud = PointCloud.trusted(np.concatenate([b.cloud.coords for b in batches]),
                               np.concatenate([b.cloud.atomic_numbers for b in batches]))
    offsets = np.concatenate([[0]] + [b.offsets[1:] + start for b, start in zip(batches, starts)])
    return Batch(graph, cloud, offsets, np.concatenate([b.order for b in batches]))


_FLOAT32_TINY = np.finfo(np.float32).tiny  # the smallest normal float32


def _float32(a: np.ndarray) -> np.ndarray:
    """``a`` cast to float32, with every entry below the smallest normal float32 in magnitude flushed to 0."""
    out = a.astype(np.float32)
    out[np.abs(out) < _FLOAT32_TINY] = 0.0
    return out


def lowered(batch: Batch) -> Batch:
    """The float32 training copy of a batch: its coordinates, node features and edge features.

    Entries too small for a normal float32 become 0, not subnormals: an
    RBF edge feature reaches 1e-138, and a subnormal operand slows a GEMM
    several times over. Edges, offsets and the atom order are shared with
    ``batch``, which is not changed.
    """
    graph = batch.graph
    return replace(batch,
                   graph=MolecularGraph.trusted(_float32(graph.node_feats), graph.edges, _float32(graph.edge_feats)),
                   cloud=PointCloud.trusted(_float32(batch.cloud.coords), batch.cloud.atomic_numbers))
