import numpy as np
import pytest

from rotenc.alignment import canonical_align, invariance_residual, pca_frame
from rotenc.errors import InvalidConfig, NotCentered, TooFewPoints
from rotenc.geometry import PointCloud, apply_rotation, center_cloud, sample_rotations
from rotenc.synthetic import mirror_cloud, random_cloud


def octahedron():
    """All covariance eigenvalues equal: fully degenerate spectrum."""
    pts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    return PointCloud(pts, [6] * 6)


class TestPcaFrame:
    def test_line_cloud_eigenvalues(self):
        cloud = PointCloud(np.array([[1.0, 0, 0], [-1, 0, 0], [2, 0, 0], [-2, 0, 0]]), [1] * 4)
        frame, evals = pca_frame(cloud)
        np.testing.assert_allclose(evals, [2.5, 0.0, 0.0], atol=1e-12)
        assert abs(abs(frame[0, 0]) - 1.0) <= 1e-12

    def test_recovers_constructed_spectrum(self):
        # cloud with exact population covariance Q diag(4, 1, 0.25) Q^T:
        # axis-aligned 6-point set with the right magnitudes, then mixed by
        # an orthogonal Q; the eigenvalues are forced by the construction
        target = np.array([4.0, 1.0, 0.25])
        axis_pts = np.zeros((6, 3))
        for i in range(3):
            m = np.sqrt(3.0 * target[i])
            axis_pts[2 * i, i] = m
            axis_pts[2 * i + 1, i] = -m
        (q,) = sample_rotations(1, 99)
        cloud = PointCloud(axis_pts @ q.T, [1] * 6)
        _, evals = pca_frame(cloud)
        np.testing.assert_allclose(evals, target, atol=1e-10)

    def test_frame_is_right_handed(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            cloud, _ = center_cloud(random_cloud(7, rng))
            frame, _ = pca_frame(cloud)
            assert abs(np.linalg.det(frame) - 1.0) <= 1e-9

    def test_rejects_uncentered(self):
        with pytest.raises(NotCentered):
            pca_frame(PointCloud(np.array([[1.0, 1, 1], [2, 2, 2]]), [1, 1]))


class TestCanonicalAlign:
    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            cloud = random_cloud(8, rng)
            first = canonical_align(cloud)
            second = canonical_align(first.aligned)
            assert np.max(np.abs(second.aligned.coords - first.aligned.coords)) <= 1e-9

    def test_rotation_invariance_100_rotations(self):
        rng = np.random.default_rng(2)
        cloud = random_cloud(9, rng)
        base = canonical_align(cloud).aligned.coords
        for rot in sample_rotations(100, 5):
            aligned = canonical_align(apply_rotation(cloud, rot)).aligned.coords
            assert np.max(np.abs(aligned - base)) <= 1e-6

    def test_chiral_pair_maps_apart(self):
        cloud = PointCloud(
            np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0], [0, 0, 3]]), [1, 6, 7, 8]
        )
        a = canonical_align(cloud).aligned.coords
        b = canonical_align(mirror_cloud(cloud)).aligned.coords
        assert np.max(np.abs(a - b)) > 1e-3

    def test_covariance_diagonal_descending(self):
        rng = np.random.default_rng(3)
        cloud = random_cloud(12, rng)
        res = canonical_align(cloud)
        coords = res.aligned.coords
        cov = coords.T @ coords / coords.shape[0]
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 1e-8 * max(np.max(np.abs(cov)), 1.0)
        diag = np.diag(cov)
        assert diag[0] >= diag[1] >= diag[2]
        np.testing.assert_allclose(diag, res.eigenvalues, rtol=1e-8, atol=1e-12)

    def test_frame_reconstructs_aligned(self):
        rng = np.random.default_rng(4)
        cloud = random_cloud(6, rng)
        res = canonical_align(cloud)
        centered, _ = center_cloud(cloud)
        np.testing.assert_allclose(res.aligned.coords, centered.coords @ res.frame.T, atol=1e-12)
        assert abs(np.linalg.det(res.frame) - 1.0) <= 1e-9

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            canonical_align(PointCloud(np.array([[1.0, 2, 3]]), [6]))

    def test_degenerate_flagged(self):
        assert canonical_align(octahedron()).degenerate

    def test_translation_ignored(self):
        rng = np.random.default_rng(5)
        cloud = random_cloud(7, rng)
        shifted = PointCloud(cloud.coords + np.array([3.0, -8.0, 1.5]), cloud.atomic_numbers)
        a = canonical_align(cloud).aligned.coords
        b = canonical_align(shifted).aligned.coords
        assert np.max(np.abs(a - b)) <= 1e-9


class TestInvarianceResidual:
    def test_small_for_generic_cloud(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(8, rng)
        assert invariance_residual(cloud, trials=100, seed=0) <= 1e-6

    def test_zero_trials_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(InvalidConfig):
            invariance_residual(random_cloud(5, rng), trials=0)

    def test_degenerate_cloud_flagged_on_every_trial(self):
        cloud = octahedron()
        for rot in sample_rotations(10, 8):
            assert canonical_align(apply_rotation(cloud, rot)).degenerate
