"""Sampling of 3D rotations and rigid transforms of molecular point clouds.

Rotations are plain (3, 3) float64 arrays with R @ R.T = I and det(R) = +1.
Uniform sampling draws unit quaternions via the standard three-uniform
construction, which is exact for the rotation-group's invariant (Haar)
measure.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidQuaternion

@dataclass
class PointCloud:
    """Per-atom 3D coordinates (angstrom) plus atomic numbers."""

    coords: np.ndarray
    atomic_numbers: np.ndarray

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        self.atomic_numbers = np.asarray(self.atomic_numbers, dtype=np.int64)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise InvalidConfig(f"coords must be (n, 3), got {self.coords.shape}")
        if self.coords.shape[0] < 1:
            raise InvalidConfig("point cloud needs at least one atom")
        if not np.all(np.isfinite(self.coords)):
            raise InvalidConfig("coordinates must be finite")
        if self.atomic_numbers.shape != (self.coords.shape[0],):
            raise InvalidConfig("atomic_numbers must match coords row count")
        if np.any(self.atomic_numbers < 1):
            raise InvalidConfig("atomic numbers must be positive")

    @classmethod
    def trusted(cls, coords: np.ndarray, atomic_numbers: np.ndarray) -> PointCloud:
        """A cloud of arrays taken from a validated cloud (centered, reordered), not checked again.

        ``coords`` is a finite float64 (n, 3) array, or its float32 training
        copy (``packing.lowered``), and ``atomic_numbers`` the matching int64
        array of positive entries.
        """
        cloud = cls.__new__(cls)
        cloud.coords, cloud.atomic_numbers = coords, atomic_numbers
        return cloud

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[0]


def rotation_defect(m: np.ndarray) -> tuple[float, float]:
    """Max-abs orthogonality residual and determinant deviation of a 3x3 matrix."""
    m = np.asarray(m, dtype=np.float64)
    ortho = float(np.max(np.abs(m @ m.T - np.eye(3))))
    det = abs(float(np.linalg.det(m)) - 1.0)
    return ortho, det


def quaternion_to_matrix(q: np.ndarray) -> np.ndarray:
    """Convert unit quaternions (w, x, y, z) of shape (..., 4) to rotations (..., 3, 3).

    Each quaternion's norm must be within 1e-9 of one; it is renormalized
    before conversion so the output satisfies the rotation invariants to
    machine precision.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.ndim < 1 or q.shape[-1] != 4:
        raise InvalidQuaternion(f"expected (..., 4) quaternions, got shape {q.shape}")
    # the stacked dot sums each row exactly as the 1-d np.linalg.norm does
    norm = np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    bad = norm[~(np.abs(norm - 1.0) <= 1e-9)]
    if bad.size:
        raise InvalidQuaternion(f"quaternion norm {bad[0]} not within 1e-9 of 1")
    w, x, y, z = np.moveaxis(q / norm, -1, 0)
    rows = (
        (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
        (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
        (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def _uniform_quaternions(u: np.ndarray) -> np.ndarray:
    """Map (m, 3) unit-cube samples to unit quaternions, uniformly on S^3.

    Standard construction: for u1, u2, u3 in [0, 1),
      q = (sqrt(u1) cos(2 pi u3), sqrt(1-u1) sin(2 pi u2),
           sqrt(1-u1) cos(2 pi u2), sqrt(u1) sin(2 pi u3))
    which is uniform on the unit 3-sphere, hence Haar on rotations.
    """
    u1, u2, u3 = u[:, 0], u[:, 1], u[:, 2]
    a = np.sqrt(1.0 - u1)
    b = np.sqrt(u1)
    t2 = 2.0 * np.pi * u2
    t3 = 2.0 * np.pi * u3
    # (w, x, y, z); any fixed component order of a uniform S^3 point is uniform
    return np.stack([b * np.cos(t3), a * np.sin(t2), a * np.cos(t2), b * np.sin(t3)], axis=1)


def sample_rotations(k: int, seed: int | Sequence[int] = 0) -> np.ndarray:
    """k Haar-random rotations as one (k, 3, 3) array, deterministic in (k, seed).

    The unit-cube variates come from a seeded PCG64 stream. ``seed`` may
    also be a non-empty 1-d sequence of B non-negative integer seeds: the
    result is then (B, k, 3, 3), stack b byte-equal to
    ``sample_rotations(k, seeds[b])``, from one conversion over all B·k
    draws.
    """
    if k < 1:
        raise InvalidConfig(f"k must be >= 1, got {k}")
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else _seed_list(seed)
    u = np.concatenate([np.random.default_rng(s).random((k, 3)) for s in seeds])
    rotations = quaternion_to_matrix(_uniform_quaternions(u))
    return rotations if single else rotations.reshape(len(seeds), k, 3, 3)


def _seed_list(seeds) -> list[int]:
    """The seeds of a non-empty 1-d sequence of non-negative integers, as Python ints."""
    array = np.asarray(seeds)
    if array.ndim != 1 or array.size == 0 or array.dtype.kind not in "iu" or (array < 0).any():
        raise InvalidConfig(f"seed must be an integer or a non-empty 1-d sequence of non-negative "
                            f"integers, got {seeds!r}")
    return array.tolist()


def apply_rotation(cloud: PointCloud, rotation: np.ndarray) -> PointCloud:
    """Rotate a point cloud: coords' = coords @ R.T, atomic numbers unchanged."""
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise InvalidConfig(f"rotation must be 3x3, got {rotation.shape}")
    return PointCloud(cloud.coords @ rotation.T, cloud.atomic_numbers)


def _column_mean_exact(coords: np.ndarray) -> np.ndarray:
    # summing each column in ascending value order makes the mean
    # bit-identical under any row permutation
    return np.sum(np.sort(coords, axis=0), axis=0) / coords.shape[0]


def center_cloud(cloud: PointCloud) -> tuple[PointCloud, np.ndarray]:
    """Shift coordinates to zero column means; returns (centered, centroid).

    Two-pass centering keeps the residual mean below 1e-12 even for clouds
    far from the origin; the mean is computed permutation-exactly so that
    reordered atoms yield bit-identical centered coordinates.
    """
    first = _column_mean_exact(cloud.coords)
    shifted = cloud.coords - first
    second = _column_mean_exact(shifted)
    centered = shifted - second
    if not np.isfinite(centered).all():  # coordinates near the float range overflow the shift
        raise InvalidConfig("coordinates must be finite")
    return PointCloud.trusted(centered, cloud.atomic_numbers), first + second
