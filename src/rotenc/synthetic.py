"""Synthetic molecule generators for tests, demos, and smoke training.

Clouds are anisotropic Gaussian point sets, which generically have
well-separated covariance eigenvalues (a unique canonical frame) and no
improper symmetry (mirror images are genuinely different shapes). The
synthetic regression target is the radius of gyration: rotation- and
permutation-invariant, fully determined by the geometry, so any working
pipeline can learn it.
"""

from __future__ import annotations

import numpy as np

from .alignment import canonical_align
from .data import MoleculeRecord
from .errors import TooFewPoints
from .geometry import PointCloud

ELEMENT_POOL = (1, 6, 7, 8)
DEFAULT_SPREAD = (3.0, 2.0, 1.0)


def radius_of_gyration(coords: np.ndarray) -> float:
    """Root-mean-square distance of the atoms from their centroid."""
    coords = np.asarray(coords, dtype=np.float64)
    centered = coords - coords.mean(axis=0)
    return float(np.sqrt(np.mean(np.sum(centered**2, axis=1))))


def random_cloud(n_atoms: int, rng: np.random.Generator,
                 spread=DEFAULT_SPREAD, require_generic: bool = True) -> PointCloud:
    """Random anisotropic cloud; resamples until the spectrum is non-degenerate (needs 3 atoms)."""
    if require_generic and n_atoms < 3:
        raise TooFewPoints(f"a cloud with a non-degenerate spectrum needs >= 3 atoms, got {n_atoms}")
    for _ in range(100):
        coords = rng.normal(size=(n_atoms, 3)) * np.asarray(spread)
        z = rng.choice(ELEMENT_POOL, size=n_atoms)
        cloud = PointCloud(coords, z)
        if not require_generic or not canonical_align(cloud).degenerate:
            return cloud
    raise RuntimeError("could not generate a non-degenerate cloud")


def mirror_cloud(cloud: PointCloud) -> PointCloud:
    """Reflect through the yz-plane: the enantiomer of the input."""
    coords = cloud.coords.copy()
    coords[:, 0] = -coords[:, 0]
    return PointCloud(coords, cloud.atomic_numbers)


def make_records(n_molecules: int, seed: int = 0, n_atoms_range=(4, 12),
                 target: str = "rg") -> list[MoleculeRecord]:
    """Synthetic dataset with radius-of-gyration targets and no bonds."""
    rng = np.random.default_rng(seed)
    records = []
    for m in range(n_molecules):
        n = int(rng.integers(n_atoms_range[0], n_atoms_range[1] + 1))
        cloud = random_cloud(n, rng)
        records.append(
            MoleculeRecord(
                id=f"syn{m:05d}",
                atomic_numbers=[int(z) for z in cloud.atomic_numbers],
                coords=cloud.coords,
                bonds=None,
                targets={target: radius_of_gyration(cloud.coords)},
            )
        )
    return records
