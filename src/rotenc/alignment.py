"""Canonical alignment of point clouds onto their principal axes.

A cloud is centered, projected onto the eigenvectors of its coordinate
covariance (largest variance first), and then sign-normalized so that every
rotated copy of the same cloud lands on the same coordinates. Handedness is
preserved throughout: mirror images of chiral clouds stay distinguishable.

Clouds with (near-)repeated covariance eigenvalues have no unique principal
frame; results for those are flagged ``degenerate`` rather than silently
returned, and the caller decides the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NotCentered, TooFewPoints
from .geometry import PointCloud, apply_rotation, center_cloud, sample_rotations

# |entry| <= ZERO_TOL_REL * max|aligned entry| counts as zero in the sign rules
ZERO_TOL_REL = 1e-8
# eigenvalue gap below DEGENERATE_REL_TOL * largest eigenvalue flags degeneracy
DEGENERATE_REL_TOL = 1e-6

CENTERING_TOL = 1e-9


@dataclass
class AlignmentResult:
    """Canonically aligned cloud plus the frame that produced it.

    ``frame`` rows are the principal axes after all sign corrections, so
    ``aligned.coords == centered_coords @ frame.T`` exactly. ``eigenvalues``
    are the covariance eigenvalues in descending order. ``flips`` records
    which projected columns were negated for sign consistency.
    """

    aligned: PointCloud
    frame: np.ndarray
    eigenvalues: np.ndarray
    flips: tuple[bool, bool, bool]
    degenerate: bool


def pca_frame(cloud: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Principal-axis frame of a centered cloud.

    Returns (frame, eigenvalues): frame rows are unit eigenvectors of the
    3x3 coordinate covariance ordered by descending eigenvalue; the third
    row is negated if needed so det(frame) = +1 (right-handed frame).

    Raises NotCentered if the centroid norm exceeds 1e-9.
    """
    coords = cloud.coords
    centroid = coords.mean(axis=0)
    if float(np.linalg.norm(centroid)) > CENTERING_TOL:
        raise NotCentered(f"centroid norm {np.linalg.norm(centroid):.3e} exceeds {CENTERING_TOL}")
    cov = coords.T @ coords / coords.shape[0]
    evals, evecs = np.linalg.eigh(cov)
    evals = np.maximum(evals[::-1], 0.0)
    frame = evecs[:, ::-1].T.copy()
    if np.linalg.det(frame) < 0:
        frame[2] = -frame[2]
    return frame, evals


def _spectrum_degenerate(evals: np.ndarray) -> bool:
    scale = float(evals[0])
    gaps = evals[:-1] - evals[1:]
    return bool(np.any(gaps <= DEGENERATE_REL_TOL * scale))


def canonical_align(cloud: PointCloud) -> AlignmentResult:
    """Map a cloud to its canonical orientation.

    Centers the cloud, projects onto the principal frame, then normalizes
    signs: every column whose reference-row entry is negative is negated,
    and if that used an odd number of negations (a reflection) one more
    column is negated to restore right-handedness -- a zero column of the
    reference row when one exists, otherwise the third column. The
    reference row is the projected point with the most non-zero entries
    (lowest index on ties), which makes the canonical form identical for
    every rotated copy of the cloud when the covariance spectrum is
    non-degenerate.
    """
    if cloud.n_atoms < 2:
        raise TooFewPoints(f"canonical alignment needs >= 2 points, got {cloud.n_atoms}")
    centered, _ = center_cloud(cloud)
    frame, evals = pca_frame(centered)
    aligned = centered.coords @ frame.T
    degenerate = _spectrum_degenerate(evals)

    zero_tol = ZERO_TOL_REL * float(np.max(np.abs(aligned)))
    nonzero = np.abs(aligned) > zero_tol
    ref_idx = int(np.argmax(nonzero.sum(axis=1)))  # argmax takes the lowest index on ties
    ref_row = aligned[ref_idx].copy()
    ref_nonzero = nonzero[ref_idx]

    flips = [False, False, False]
    n_neg = 0
    for axis in range(3):
        if ref_nonzero[axis] and ref_row[axis] < 0:
            aligned[:, axis] = -aligned[:, axis]
            flips[axis] = True
            n_neg += 1
    if n_neg % 2 == 1:
        if int(ref_nonzero.sum()) < 3:
            axis = int(np.flatnonzero(~ref_nonzero)[0])  # smallest zero index
        else:
            axis = 2
        aligned[:, axis] = -aligned[:, axis]
        flips[axis] = not flips[axis]

    for axis in range(3):
        if flips[axis]:
            frame[axis] = -frame[axis]

    return AlignmentResult(
        aligned=PointCloud.trusted(aligned, centered.atomic_numbers),  # a rotation of the centered cloud
        frame=frame,
        eigenvalues=evals,
        flips=tuple(flips),
        degenerate=degenerate,
    )


def invariance_residual(cloud: PointCloud, trials: int, seed: int = 0) -> float:
    """Worst-case max-abs deviation of the canonical form over random rotations.

    Aligns the cloud once, then aligns ``trials`` randomly rotated copies
    and returns the largest entrywise deviation from the base form. Small
    residuals (<= 1e-6) certify rotation invariance for this cloud.
    """
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    base = canonical_align(cloud).aligned.coords
    worst = 0.0
    for rotation in sample_rotations(trials, seed):
        rotated = apply_rotation(cloud, rotation)
        deviation = float(np.max(np.abs(canonical_align(rotated).aligned.coords - base)))
        worst = max(worst, deviation)
    return worst
