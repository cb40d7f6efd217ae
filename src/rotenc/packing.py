"""Packed batches: B molecules as one disjoint-union graph and one point cloud.

A batch stores its molecules back to back. ``offsets`` (length B+1) says
molecule b owns atoms ``offsets[b]:offsets[b+1]`` of both the graph and the
cloud; each molecule's edge indices are shifted by its offset, so no edge
joins two molecules. The model runs every layer once per batch: message
passing aggregates each destination on its own, and the readout and the
pooling reduce each molecule on its own, in its canonical atom order
(``Model.prepare``). At inference a molecule's values therefore do not
depend on its batch companions. Training batchnorm is the exception: it
normalizes each channel over the whole batch. One molecule is
``offsets = [0, n]``. A batch keeps its molecules' dtype: the float32
copies of ``lowered`` pack into a float32 batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoData, ShapeError
from .geometry import PointCloud
from .gnn import MolecularGraph


@dataclass(frozen=True)
class Molecule:
    """One molecule ready to pack: its graph, its prepared cloud and their atom order.

    The cloud is centered and, under an aligning policy, in its canonical
    frame (``Model.prepare``); packing does not touch coordinates. Atom i
    of graph and cloud is atom ``order[i]`` of the record.
    """

    id: str
    graph: MolecularGraph
    cloud: PointCloud
    order: np.ndarray


@dataclass(frozen=True)
class Batch:
    """Packed molecules: the disjoint-union graph, the joined clouds and the offsets."""

    ids: tuple[str, ...]
    graph: MolecularGraph
    cloud: PointCloud
    offsets: np.ndarray

    @property
    def targets(self) -> np.ndarray:
        """One row of targets per molecule, (B, n_tasks)."""
        return self.graph.targets.reshape(len(self.ids), -1)

    def __len__(self) -> int:
        return len(self.ids)


def pack(molecules) -> Batch:
    """Join molecules into one batch, in the order given; a batch of one keeps its graph and cloud."""
    molecules = list(molecules)
    if not molecules:
        raise NoData("cannot pack an empty batch")
    for m in molecules:
        if m.cloud.n_atoms != m.graph.n_nodes:
            raise ShapeError(f"molecule {m.id}: cloud has {m.cloud.n_atoms} atoms, graph {m.graph.n_nodes} nodes")
    offsets = np.cumsum([0] + [m.graph.n_nodes for m in molecules])
    ids = tuple(m.id for m in molecules)
    if len(molecules) == 1:
        return Batch(ids, molecules[0].graph, molecules[0].cloud, offsets)
    graphs = [m.graph for m in molecules]
    # shifting each molecule's checked, destination-grouped edges past the atoms
    # before it keeps them checked and grouped: the union is not checked or sorted again
    graph = MolecularGraph.trusted(
        node_feats=np.concatenate([g.node_feats for g in graphs]),
        edges=np.concatenate([g.edges + start for g, start in zip(graphs, offsets)]),
        edge_feats=np.concatenate([g.edge_feats for g in graphs]),
        targets=np.stack([g.targets for g in graphs]),
    )
    cloud = PointCloud.trusted(np.concatenate([m.cloud.coords for m in molecules]),
                               np.concatenate([m.cloud.atomic_numbers for m in molecules]))
    return Batch(ids, graph, cloud, offsets)


_FLOAT32_TINY = np.finfo(np.float32).tiny  # the smallest normal float32


def _float32(a: np.ndarray) -> np.ndarray:
    """``a`` cast to float32, with every entry below the smallest normal float32 in magnitude flushed to 0."""
    out = a.astype(np.float32)
    out[np.abs(out) < _FLOAT32_TINY] = 0.0
    return out


def lowered(molecule: Molecule) -> Molecule:
    """The float32 training copy of a molecule: its coordinates, node features and edge features.

    Entries too small for a normal float32 become 0, not subnormals: an
    RBF edge feature reaches 1e-138, and a subnormal operand slows a GEMM
    several times over. Edges, targets and the atom order are shared with
    ``molecule``, which is not changed.
    """
    graph = molecule.graph
    return replace(molecule,
                   graph=MolecularGraph.trusted(_float32(graph.node_feats), graph.edges,
                                                _float32(graph.edge_feats), graph.targets),
                   cloud=PointCloud.trusted(_float32(molecule.cloud.coords), molecule.cloud.atomic_numbers))
