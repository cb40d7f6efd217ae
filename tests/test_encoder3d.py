from dataclasses import replace

import numpy as np
import pytest

from rotenc import autodiff as ad
from rotenc import encoder3d
from rotenc.autodiff import BatchNormState, ParameterStore, Value
from rotenc.encoder3d import (
    AtomEmbeddingTable,
    EncoderConfig,
    build_view_input,
    encode,
    inference_views,
    init_encoder_params,
    pointwise_stack,
    pool_view,
    prepare_cloud,
    view_parts,
)
from rotenc.errors import DegenerateCloud, InvalidConfig, UnknownElement
from rotenc.geometry import PointCloud, center_cloud, sample_rotations
from rotenc.packing import pack
from rotenc.synthetic import mirror_cloud, random_cloud


def small_cfg(**overrides):
    defaults = dict(widths=(8, 6), embed_dim=4, k=3, seed=0, align_mode="none")
    defaults.update(overrides)
    return EncoderConfig(**defaults)


def make_encoder(cfg, vocab=(1, 6, 7, 8), seed=0):
    store = ParameterStore()
    table, states = init_encoder_params(store, cfg, vocab, np.random.default_rng(seed))
    return store, table, states


def centered_cloud(n=7, seed=0):
    cloud = random_cloud(n, np.random.default_rng(seed))
    return center_cloud(cloud)[0]


def packed_clouds():
    clouds = [centered_cloud(n, seed) for n, seed in ((5, 1), (9, 2), (7, 3))]
    packed = PointCloud(np.concatenate([c.coords for c in clouds]),
                        np.concatenate([c.atomic_numbers for c in clouds]))
    return clouds, packed, np.cumsum([0] + [c.n_atoms for c in clouds])


class TestConfigValidation:
    @pytest.mark.parametrize("widths", [(), (8, 0)])
    def test_widths_must_be_non_empty_and_positive(self, widths):
        with pytest.raises(InvalidConfig):
            EncoderConfig(widths=widths)

    def test_fingerprint_length_is_the_last_width(self):
        assert small_cfg(widths=(8, 3)).d_p == 3

    def test_k_positive(self):
        with pytest.raises(InvalidConfig):
            small_cfg(k=0)

    @pytest.mark.parametrize("embed_dim", [0, -2])
    def test_embed_dim_positive(self, embed_dim):
        with pytest.raises(InvalidConfig):
            small_cfg(embed_dim=embed_dim)

    def test_defaults_follow_reported_setup(self):
        cfg = EncoderConfig()
        assert cfg.widths == (64, 128, 128) and cfg.d_p == 128
        assert cfg.embed_dim == 32 and cfg.k == 16 and cfg.pool == "mean"


class TestBuildViewInput:
    def test_identity_rotation_copies_coords(self):
        cfg = small_cfg(use_atom_embedding=False)
        cloud = centered_cloud()
        out = build_view_input(cloud, np.eye(3), None, cfg)
        np.testing.assert_array_equal(out.data, cloud.coords)

    def test_embedding_columns_appended(self):
        cfg = small_cfg()
        store, table, _ = make_encoder(cfg)
        cloud = PointCloud(np.array([[0.5, -0.5, 0.0]]), [1])
        centered, _ = center_cloud(cloud)
        out = build_view_input(centered, np.eye(3), table, cfg)
        assert out.data.shape == (1, 3 + cfg.embed_dim)
        row = table.values.data[table.indices([1])[0]]
        np.testing.assert_array_equal(out.data[0, 3:], row)

    def test_rotation_changes_only_coordinate_columns(self):
        cfg = small_cfg()
        store, table, _ = make_encoder(cfg)
        cloud = centered_cloud()
        r1, r2 = sample_rotations(2, 4)
        a = build_view_input(cloud, r1, table, cfg).data
        b = build_view_input(cloud, r2, table, cfg).data
        assert np.array_equal(a[:, 3:], b[:, 3:])
        assert not np.allclose(a[:, :3], b[:, :3])

    def test_unknown_element(self):
        cfg = small_cfg()
        store, table, _ = make_encoder(cfg, vocab=(1, 6))
        cloud = PointCloud(np.zeros((2, 3)), [1, 79])
        with pytest.raises(UnknownElement):
            build_view_input(cloud, np.eye(3), table, cfg)


class TestPointwiseStack:
    def test_identity_composition(self):
        # one layer, identity weights, eval-mode batchnorm tuned to the
        # identity map, positive inputs: the stack is a no-op
        cfg = small_cfg(widths=(3,), use_atom_embedding=False)
        store = ParameterStore()
        store.add("enc.conv0.W", np.eye(3))
        store.add("enc.bn0.gamma", np.full(3, np.sqrt(1.0 + 1e-5)))
        store.add("enc.bn0.beta", np.zeros(3))
        states = {"enc.bn0": BatchNormState.for_width(3)}
        x = Value(np.array([[0.3, 0.7, 1.1]]))
        out = pointwise_stack(x, store, cfg, states, training=False)
        np.testing.assert_allclose(out.data, x.data, rtol=1e-12)

    def test_eval_fold_matches_batchnorm_formulation(self):
        cfg = small_cfg(widths=(8, 6))
        store, _, states = make_encoder(cfg)
        rng = np.random.default_rng(12)
        for layer, width in enumerate(cfg.widths):
            store[f"enc.bn{layer}.gamma"].data = rng.uniform(0.5, 2.0, width)
            store[f"enc.bn{layer}.beta"].data = rng.normal(size=width)
            states[f"enc.bn{layer}"] = BatchNormState(rng.normal(size=width), rng.uniform(0.1, 3.0, width))
        x = Value(rng.normal(size=(4, 9, cfg.input_width)))

        def unfolded():
            # eval-mode batchnorm as its own step: normalize with the running
            # statistics, scale and shift, then relu
            h = x.data
            for layer in range(len(cfg.widths)):
                state = states[f"enc.bn{layer}"]
                h = h @ store[f"enc.conv{layer}.W"].data
                xhat = (h - state.mean) * (1.0 / np.sqrt(state.var + ad.BN_EPS))
                h = np.maximum(store[f"enc.bn{layer}.gamma"].data * xhat + store[f"enc.bn{layer}.beta"].data, 0.0)
            return h

        folded = pointwise_stack(x, store, cfg, states, training=False).data
        np.testing.assert_allclose(folded, unfolded(), rtol=1e-12, atol=0)
        # the fold is taken afresh from the running statistics a training pass moved
        pointwise_stack(Value(rng.normal(size=(2, 5, cfg.input_width)) * 3.0), store, cfg, states,
                        training=True)
        refolded = pointwise_stack(x, store, cfg, states, training=False).data
        assert not np.allclose(refolded, folded)
        np.testing.assert_allclose(refolded, unfolded(), rtol=1e-12, atol=0)

    def test_duplicated_row_duplicates_output(self):
        cfg = small_cfg(use_atom_embedding=False, widths=(8, 6))
        store, _, states = make_encoder(cfg)
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, 3))
        doubled = np.vstack([base, base[1]])
        out = pointwise_stack(Value(doubled), store, cfg, states, training=False).data
        np.testing.assert_array_equal(out[4], out[1])

    def test_weight_gradients_match_finite_differences(self):
        cfg = small_cfg(use_atom_embedding=False)
        store, _, states = make_encoder(cfg)
        x = np.random.default_rng(6).normal(size=(5, 3))

        def f(s):
            out = pointwise_stack(Value(x), s, cfg, states, training=True)
            return ad.pick(ad.mean_pool(out, axis=0), 0)

        assert ad.gradient_check(f, store, h=1e-5, n_probe=30, seed=1) <= 1e-5


class TestPoolView:
    def test_single_atom_passthrough(self):
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(pool_view(Value(x), "mean").data, x[0])
        np.testing.assert_array_equal(pool_view(Value(x), "max").data, x[0])

    def test_mean_arithmetic(self):
        out = pool_view(Value(np.array([[1.0, 3.0], [3.0, 1.0]])), "mean")
        np.testing.assert_array_equal(out.data, [2.0, 2.0])


class TestEncode:
    def test_single_identity_view_equals_pipeline(self):
        cfg = small_cfg(k=1)
        store, table, states = make_encoder(cfg)
        cloud = centered_cloud()
        fp = encode(cloud, table, store, cfg, states, rotations=[np.eye(3)])
        view = view_parts(cloud, np.eye(3), table, cfg)
        manual = pool_view(pointwise_stack(view, store, cfg, states, training=False), cfg.pool)
        np.testing.assert_array_equal(fp.data, manual.data)

    def test_translation_invariance(self):
        cfg = small_cfg(k=4)
        store, table, states = make_encoder(cfg)
        cloud = random_cloud(7, np.random.default_rng(8))
        shifted = PointCloud(cloud.coords + np.array([100.0, -40.0, 7.0]), cloud.atomic_numbers)
        a = encode(prepare_cloud(cloud, False), table, store, cfg, states).data
        b = encode(prepare_cloud(shifted, False), table, store, cfg, states).data
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_post_align_strict_invariance(self):
        cfg = small_cfg(k=4)
        store, table, states = make_encoder(cfg)
        cloud = random_cloud(8, np.random.default_rng(9))
        base = encode(prepare_cloud(cloud, True), table, store, cfg, states).data
        from rotenc.geometry import apply_rotation

        for rot in sample_rotations(100, 10):
            rotated = prepare_cloud(apply_rotation(cloud, rot), True)
            dev = np.max(np.abs(encode(rotated, table, store, cfg, states).data - base))
            assert dev <= 1e-9

    def test_degenerate_cloud_rejected_when_aligning(self):
        cfg = small_cfg(k=2)
        store, table, states = make_encoder(cfg)
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                       dtype=float)
        with pytest.raises(DegenerateCloud):
            encode(prepare_cloud(PointCloud(pts, [6] * 6), True), table, store, cfg, states)

    def test_chirality_sensitivity_with_rbf_blindness_oracle(self):
        # a handedness-aware encoder separates enantiomers; any function of
        # pairwise distances (the RBF featurization) cannot
        from rotenc.data import rbf_expand

        cfg = small_cfg(k=4)
        store, table, states = make_encoder(cfg)
        cloud = random_cloud(6, np.random.default_rng(11))
        mirrored = mirror_cloud(cloud)
        a = encode(prepare_cloud(cloud, False), table, store, cfg, states).data
        b = encode(prepare_cloud(mirrored, False), table, store, cfg, states).data
        assert np.linalg.norm(a - b) > 1e-3

        d0 = np.linalg.norm(cloud.coords[:, None] - cloud.coords[None], axis=-1)
        d1 = np.linalg.norm(mirrored.coords[:, None] - mirrored.coords[None], axis=-1)
        for i in range(cloud.n_atoms):
            for j in range(i + 1, cloud.n_atoms):
                assert np.max(np.abs(rbf_expand(d0[i, j]) - rbf_expand(d1[i, j]))) <= 1e-12

    def test_view_averaging_tightens_with_k(self):
        # Monte-Carlo rotation averaging: deviation scales ~ 1/sqrt(k), so
        # k=64 should show at most 0.6x the mean deviation of k=4
        from rotenc.geometry import apply_rotation

        cfg4 = small_cfg(k=4)
        store, table, states = make_encoder(cfg4)
        cfg64 = small_cfg(k=64)
        probes = sample_rotations(12, 13)
        devs = {4: [], 64: []}
        for seed in range(6):
            cloud = random_cloud(7, np.random.default_rng(100 + seed))
            for cfg in (cfg4, cfg64):
                base = encode(prepare_cloud(cloud, False), table, store, cfg, states).data
                for rot in probes:
                    rotated = prepare_cloud(apply_rotation(cloud, rot), False)
                    dev = np.linalg.norm(encode(rotated, table, store, cfg, states).data - base)
                    devs[cfg.k].append(dev)
        assert np.mean(devs[64]) <= 0.6 * np.mean(devs[4])

    def test_max_pool_mode_runs(self):
        cfg = small_cfg(pool="max")
        store, table, states = make_encoder(cfg)
        fp = encode(centered_cloud(), table, store, cfg, states)
        assert fp.data.shape == (cfg.d_p,)
        assert np.all(np.isfinite(fp.data))

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_shared_stack_equals_it_broadcast_per_molecule(self, training):
        # a (k, 3, 3) stack shared by a packed batch runs as one segment over
        # the whole cloud; each molecule given its own copy runs per segment
        cfg = small_cfg(k=4)
        store, table, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        stack = sample_rotations(cfg.k, 21)
        shared, per_molecule = (
            encode(packed, table, store, cfg, states, training=training, rotations=r, offsets=offsets).data
            for r in (stack, np.broadcast_to(stack, (3,) + stack.shape)))
        assert shared.shape == (3, cfg.d_p)
        assert shared.tobytes() == per_molecule.tobytes()


@pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
class TestViewsFirstMeanPool:
    """Mean pooling averages each atom's views first, then pools the atoms."""

    def test_matches_the_mean_over_atoms_and_views(self, training):
        cfg = small_cfg(k=5)
        store, table, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        rotations = sample_rotations(cfg.k, 3)
        fp = encode(packed, table, store, cfg, states, training=training, rotations=rotations,
                    offsets=offsets).data
        stack = pointwise_stack(build_view_input(packed, rotations, table, cfg), store, cfg, states,
                                training=training, offsets=offsets).data
        reference = np.stack([stack[:, start:stop].mean(axis=(0, 1))
                              for start, stop in zip(offsets[:-1], offsets[1:])])
        np.testing.assert_allclose(fp, reference, rtol=1e-12, atol=0)

    def test_independent_of_batch_companions(self, training):
        # companions change the GEMM's row count, so allow BLAS rounding
        cfg = small_cfg(k=4)
        store, table, states = make_encoder(cfg)
        clouds, packed, offsets = packed_clouds()
        rotations = sample_rotations(cfg.k, 6)
        together = encode(packed, table, store, cfg, states, training=training, rotations=rotations,
                          offsets=offsets).data
        for b, cloud in enumerate(clouds):
            alone = encode(cloud, table, store, cfg, states, training=training, rotations=rotations,
                           offsets=[0, cloud.n_atoms]).data
            np.testing.assert_allclose(together[b], alone[0], rtol=1e-12, atol=0)

    def test_pools_one_row_per_atom(self, training, monkeypatch):
        cfg = small_cfg(k=4)
        store, table, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        shapes = []
        real_pool = ad.mean_pool

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_pool(a, *args, **kwargs)

        monkeypatch.setattr(ad, "mean_pool", recording)
        encode(packed, table, store, cfg, states, training=training, offsets=offsets)
        assert shapes == [(packed.n_atoms, cfg.d_p)]

    @pytest.mark.parametrize("pool,per_view", [("max", False), ("max", True), ("mean", True)])
    def test_max_and_per_view_pool_every_view(self, training, pool, per_view):
        # the formula these modes had before views were averaged first, bit for bit
        cfg = small_cfg(k=4, pool=pool)
        store, table, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        rotations = sample_rotations(cfg.k, 7)
        got = encode(packed, table, store, cfg, states, training=training, rotations=rotations,
                     offsets=offsets, per_view=per_view).data
        stack = pointwise_stack(view_parts(packed, rotations, table, cfg), store, cfg, states,
                                training=training, offsets=offsets)
        fingerprints = pool_view(stack, pool, offsets)
        expected = fingerprints if per_view else ad.mean_pool(fingerprints, axis=0)
        assert got.tobytes() == expected.data.tobytes()


class TestInferenceViews:
    def test_equal_to_a_fresh_draw_and_read_only(self):
        views = inference_views(5, 11)
        assert views.shape == (5, 3, 3)
        assert views.tobytes() == sample_rotations(5, 11).tobytes()
        assert not views.flags.writeable
        with pytest.raises(ValueError):
            views[0, 0, 0] = 1.0
        assert inference_views(5, 11) is views

    def test_predict_draws_views_once(self, tiny_model, small_records, monkeypatch):
        calls = []

        def counting(k, seed):
            calls.append((k, seed))
            return sample_rotations(k, seed)

        monkeypatch.setattr(encoder3d, "sample_rotations", counting)
        inference_views.cache_clear()
        first = tiny_model.predict(small_records[0])
        for _ in range(9):
            assert tiny_model.predict(small_records[0]).tobytes() == first.tobytes()
        cfg = tiny_model.cfg.encoder
        assert calls == [(cfg.k, cfg.seed)]

    def test_replaced_k_encodes_with_the_new_k(self, tiny_model, small_records):
        record = small_records[1]
        batch = pack([tiny_model.prepare(record)])
        before = tiny_model.predict(record)
        enc = replace(tiny_model.cfg.encoder, k=7)
        tiny_model.cfg = replace(tiny_model.cfg, encoder=enc)
        after = tiny_model.predict(record)
        explicit, _ = tiny_model.forward(batch, rotations=sample_rotations(7, enc.seed))
        assert after.tobytes() == explicit.data[0].tobytes()
        assert not np.array_equal(after, before)
