import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rotenc
from rotenc.errors import InvalidConfig, InvalidQuaternion
from rotenc.geometry import (
    MAX_RADIUS,
    PointCloud,
    _uniform_quaternions,
    apply_rotation,
    center_cloud,
    quaternion_to_matrix,
    rotation_defect,
    sample_rotations,
)


def random_cloud(n, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.normal(size=(n, 3)) * 2.0, rng.integers(1, 9, size=n))


def _per_row_rotations(k, seed):
    """The sampler's earlier per-quaternion path, kept as the oracle for the batched one."""
    out = []
    for q in _uniform_quaternions(np.random.default_rng(seed).random((k, 3))):
        w, x, y, z = q / float(np.linalg.norm(q))
        out.append(np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]))
    return np.asarray(out)


class TestQuaternionToMatrix:
    def test_identity_quaternion(self):
        np.testing.assert_allclose(quaternion_to_matrix(np.array([1.0, 0, 0, 0])), np.eye(3))

    def test_pi_about_x(self):
        # half-turn about x: (0, 1, 0, 0)
        np.testing.assert_allclose(
            quaternion_to_matrix(np.array([0.0, 1, 0, 0])), np.diag([1.0, -1.0, -1.0]), atol=1e-15
        )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_unit_quaternion_is_proper_rotation(self, seed):
        q = np.random.default_rng(seed).normal(size=4)
        q /= np.linalg.norm(q)
        ortho, det = rotation_defect(quaternion_to_matrix(q))
        assert ortho <= 1e-12
        assert det <= 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidQuaternion):
            quaternion_to_matrix(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidQuaternion):
            quaternion_to_matrix(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(), (2, 3), (4, 5)])
    def test_last_axis_must_be_4(self, shape):
        with pytest.raises(InvalidQuaternion):
            quaternion_to_matrix(np.ones(shape))

    def test_stacked_input_keeps_leading_shape(self):
        q = np.random.default_rng(3).normal(size=(2, 5, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        out = quaternion_to_matrix(q)
        assert out.shape == (2, 5, 3, 3) and out.dtype == np.float64
        for index in np.ndindex(2, 5):
            np.testing.assert_allclose(out[index], quaternion_to_matrix(q[index]), rtol=0, atol=1e-15)

    def test_one_non_unit_row_rejects_the_stack(self):
        q = np.tile([1.0, 0.0, 0.0, 0.0], (4, 1))
        q[2] = [1.0, 1e-4, 0.0, 0.0]
        with pytest.raises(InvalidQuaternion, match="not within 1e-9"):
            quaternion_to_matrix(q)


class TestSampleRotations:
    def test_single_rotation_is_orthogonal(self):
        (rot,) = sample_rotations(1, 123)
        ortho, det = rotation_defect(rot)
        assert ortho <= 1e-12 and det <= 1e-12

    def test_deterministic_bit_for_bit(self):
        a = sample_rotations(16, 7)
        b = sample_rotations(16, 7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seed_changes_output(self):
        a = sample_rotations(4, 1)
        b = sample_rotations(4, 2)
        assert not np.allclose(a[0], b[0])

    def test_k_zero_rejected(self):
        with pytest.raises(InvalidConfig):
            sample_rotations(0, 0)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidConfig):
            sample_rotations(-3, 0)

    def test_one_float64_array(self):
        rots = sample_rotations(6)
        assert isinstance(rots, np.ndarray)
        assert rots.shape == (6, 3, 3) and rots.dtype == np.float64
        assert rots.tobytes() == sample_rotations(6, 0).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 16, 64])
    def test_byte_equal_to_per_row_path(self, k):
        for seed in range(300):
            assert sample_rotations(k, seed).tobytes() == _per_row_rotations(k, seed).tobytes(), seed

    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_seed_sequence_byte_equal_to_per_seed_calls(self, k):
        from rotenc.trainer import _rotation_seed

        # the trainer's seeds: one per (run seed, epoch, molecule)
        seeds = [_rotation_seed(base, epoch, i) for base in (0, 5) for epoch in range(3) for i in range(20)]
        batch = sample_rotations(k, seeds)
        assert batch.shape == (len(seeds), k, 3, 3) and batch.dtype == np.float64
        for stack, seed in zip(batch, seeds):
            assert stack.tobytes() == sample_rotations(k, seed).tobytes(), seed
        assert sample_rotations(k, np.asarray(seeds[:4])).tobytes() == batch[:4].tobytes()
        assert sample_rotations(k, (7,)).tobytes() == sample_rotations(k, 7)[None].tobytes()

    @pytest.mark.parametrize("seeds", [[], (), np.array([], dtype=np.int64), [1.5, 2], [1, 2.0], ["a"],
                                       [[1, 2]], [3, -1], [True], 1.5, "7", -1])
    def test_bad_seeds_rejected(self, seeds):
        with pytest.raises(InvalidConfig, match="seed must be an integer or a non-empty 1-d sequence"):
            sample_rotations(4, seeds)

    def test_legacy_config_argument(self):
        # the package-level entry point still takes the old one-argument form
        legacy = rotenc.sample_rotations(rotenc.SamplingConfig(k=5, seed=9))
        assert legacy.tobytes() == sample_rotations(5, 9).tobytes()
        assert rotenc.sample_rotations(5, 9).tobytes() == legacy.tobytes()

    def test_haar_mean_near_zero(self):
        # the rotation-group average of the matrix entries is exactly 0;
        # 4096 Monte-Carlo samples put every entry well inside +-0.05
        rots = sample_rotations(4096, 42)
        mean = np.mean(rots, axis=0)
        assert np.max(np.abs(mean)) <= 0.05


class TestApplyRotation:
    def test_identity_leaves_cloud(self):
        cloud = random_cloud(6, seed=1)
        out = apply_rotation(cloud, np.eye(3))
        np.testing.assert_array_equal(out.coords, cloud.coords)
        np.testing.assert_array_equal(out.atomic_numbers, cloud.atomic_numbers)

    def test_quarter_turn_about_z(self):
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]), [6])
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        out = apply_rotation(cloud, rot)
        np.testing.assert_allclose(out.coords[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_distances_and_centroid_norm_preserved(self):
        cloud, _ = center_cloud(random_cloud(10, seed=2))
        for seed in range(5):
            (rot,) = sample_rotations(1, seed)
            out = apply_rotation(cloud, rot)
            d0 = np.linalg.norm(cloud.coords[:, None] - cloud.coords[None], axis=-1)
            d1 = np.linalg.norm(out.coords[:, None] - out.coords[None], axis=-1)
            assert np.max(np.abs(d0 - d1)) <= 1e-10
            assert abs(np.linalg.norm(out.coords.mean(axis=0))
                       - np.linalg.norm(cloud.coords.mean(axis=0))) <= 1e-10


class TestCenterCloud:
    def test_single_point(self):
        centered, centroid = center_cloud(PointCloud(np.array([[5.0, 5.0, 5.0]]), [1]))
        np.testing.assert_allclose(centered.coords, [[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(centroid, [5.0, 5.0, 5.0])

    def test_already_centered_unchanged(self):
        cloud = PointCloud(np.array([[-1.0, 0, 0], [1.0, 0, 0]]), [1, 1])
        centered, centroid = center_cloud(cloud)
        np.testing.assert_allclose(centered.coords, cloud.coords, atol=1e-12)
        np.testing.assert_allclose(centroid, [0.0, 0.0, 0.0], atol=1e-12)

    def test_two_points(self):
        centered, _ = center_cloud(PointCloud(np.array([[0.0, 0, 0], [2.0, 0, 0]]), [1, 1]))
        np.testing.assert_allclose(centered.coords, [[-1.0, 0, 0], [1.0, 0, 0]])

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_column_means_vanish(self, seed):
        rng = np.random.default_rng(seed)
        cloud = PointCloud(rng.normal(size=(5, 3)) * 3 + rng.normal(size=3) * 50, [1] * 5)
        centered, _ = center_cloud(cloud)
        assert np.max(np.abs(centered.coords.mean(axis=0))) <= 1e-12


class TestPointCloudValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidConfig):
            PointCloud(np.array([[np.nan, 0, 0]]), [1])

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfig):
            PointCloud(np.zeros((0, 3)), [])

    def test_nonpositive_z_rejected(self):
        with pytest.raises(InvalidConfig):
            PointCloud(np.zeros((1, 3)), [0])

    def test_every_atom_within_max_radius_of_the_origin(self):
        # a distance bound, not a per-axis one: a rotated copy of a cloud inside it stays inside
        PointCloud(np.array([[MAX_RADIUS, 0, 0], [0, -MAX_RADIUS, 0]]), [1, 1])
        for coords in ([np.nextafter(MAX_RADIUS, np.inf), 0, 0], [0.6 * MAX_RADIUS] * 3, [1.7e308, 0, 0],
                       [np.inf, 0, 0]):
            with pytest.raises(InvalidConfig, match="^coordinates must be finite and within 1e[+]06 angstrom"):
                PointCloud(np.array([coords, [0.0, 0.0, 0.0]]), [1, 1])
