from dataclasses import replace

import numpy as np
import pytest

from helpers import gradient_check
from rotenc import autodiff as ad
from rotenc import encoder3d
from rotenc.autodiff import BatchNormState, ParameterStore, Value
from rotenc.data import vocab_rows
from rotenc.encoder3d import (
    EncoderConfig,
    encode,
    inference_views,
    init_encoder_params,
    mean_embedding,
    pointwise_stack,
    prepare_cloud,
)
from rotenc.errors import DegenerateCloud, InvalidConfig, ShapeError
from rotenc.geometry import PointCloud, center_cloud, sample_rotations
from rotenc.synthetic import mirror_cloud, random_cloud


def small_cfg(**overrides):
    defaults = dict(widths=(8, 6), embed_dim=4, k=3, seed=0, align_mode="none")
    defaults.update(overrides)
    return EncoderConfig(**defaults)


VOCAB = (1, 6, 7, 8)


def make_encoder(cfg, seed=0, stack=True):
    """A store with an ``enc.embed`` table, drawn first as ``Model`` draws it, then the stack's parameters."""
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    store.add("enc.embed", rng.normal(0.0, 1.0, (len(VOCAB), cfg.embed_dim)))
    return store, init_encoder_params(store, cfg, rng) if stack else {}


def embedding(store, cloud):
    """Each atom's ``enc.embed`` row, gathered as ``Model.inputs`` gathers it."""
    return ad.gather_rows(store["enc.embed"], vocab_rows(VOCAB, cloud.atomic_numbers))


def encode_cloud(cloud, store, cfg, states, **kwargs):
    """``encode`` of ``cloud``'s rows: one molecule, unless ``offsets`` cuts them into a packed batch."""
    kwargs.setdefault("offsets", [0, cloud.n_atoms])
    return encode(Value(cloud.coords), embedding(store, cloud), store, cfg, states, **kwargs)


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

    def test_align_modes_are_none_and_post(self):
        # training never aligns, so a mode that aligned training clouds would train as "post" does
        assert encoder3d.ALIGN_MODES == ("none", "post")
        with pytest.raises(InvalidConfig, match=r"\('none', 'post'\), got 'pre'"):
            small_cfg(align_mode="pre")

    def test_defaults_follow_reported_setup(self):
        cfg = EncoderConfig()
        assert cfg.widths == (64, 128, 128) and cfg.d_p == 128
        assert cfg.embed_dim == 32 and cfg.k == 16


class TestMeanEmbedding:
    """The ``ablate_pointwise`` fingerprint, computed without the view stack."""

    def test_zero_coordinates_then_the_pooled_embedding_rows(self):
        # the rotated centroid of a centered cloud is 0 in every view; the joined (k, N, 3 + d_e) view
        # input averaged over views and atoms left it at ~1e-16 instead
        cfg = small_cfg()
        store, _ = make_encoder(cfg, seed=0, stack=False)
        _, packed, offsets = packed_clouds()
        rows = embedding(store, packed)
        fp = mean_embedding(rows, offsets)
        assert fp.shape == (3, cfg.input_width)
        assert fp.data[:, :3].tobytes() == np.zeros((3, 3)).tobytes()  # +0.0 exactly
        assert fp.data[:, 3:].tobytes() == ad.mean_pool(rows, offsets=offsets).data.tobytes()

    def test_gradient_reaches_only_the_embedding_rows(self):
        cfg = small_cfg()
        store, _ = make_encoder(cfg, seed=1, stack=False)
        cloud = centered_cloud()
        ad.backward(ad.pick(mean_embedding(embedding(store, cloud), [0, cloud.n_atoms]), (0, 3)))
        rows = vocab_rows(VOCAB, cloud.atomic_numbers)
        expected = np.zeros_like(store["enc.embed"].data)
        np.add.at(expected[:, 0], rows, 1.0 / cloud.n_atoms)
        np.testing.assert_allclose(store["enc.embed"].grad, expected, rtol=1e-15, atol=0)


class TestPointwiseStack:
    def test_identity_composition(self):
        # one layer, identity weights, eval-mode batchnorm tuned to the
        # identity map, positive inputs: the stack is a no-op (its weights
        # are set by hand, so the input is 3 wide)
        cfg = small_cfg(widths=(3,))
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
        store, states = make_encoder(cfg)
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
        cfg = small_cfg(widths=(8, 6))
        store, states = make_encoder(cfg)
        rng = np.random.default_rng(5)
        base = rng.normal(size=(4, cfg.input_width))
        doubled = np.vstack([base, base[1]])
        out = pointwise_stack(Value(doubled), store, cfg, states, training=False).data
        np.testing.assert_array_equal(out[4], out[1])

    def test_weight_gradients_match_finite_differences(self):
        cfg = small_cfg()
        store, states = make_encoder(cfg)
        x = np.random.default_rng(6).normal(size=(5, cfg.input_width))

        def f(s):
            out = pointwise_stack(Value(x), s, cfg, states, training=True)
            return ad.pick(ad.mean_pool(out, [0, len(x)]), (0, 0))

        assert gradient_check(f, store, h=1e-5, n_probe=30, seed=1) <= 1e-5


class TestEncode:
    def test_single_identity_view_equals_pipeline(self):
        cfg = small_cfg(k=1)
        store, states = make_encoder(cfg)
        cloud = centered_cloud()
        fp = encode_cloud(cloud, store, cfg, states, rotations=[np.eye(3)])
        view = (Value(cloud.coords), embedding(store, cloud))  # the identity view keeps the coordinates
        manual = ad.mean_pool(pointwise_stack(view, store, cfg, states, training=False), [0, cloud.n_atoms])
        np.testing.assert_array_equal(fp.data, manual.data)

    def test_a_lone_rotation_matrix_is_rejected(self):
        # a (3, 3) matrix is not a view stack: averaging over axis 0 would average the atoms
        cfg = small_cfg(k=1)
        store, states = make_encoder(cfg)
        cloud = centered_cloud()
        with pytest.raises(ShapeError, match=r"\(3, 3\)"):
            encode_cloud(cloud, store, cfg, states, rotations=np.eye(3))
        with pytest.raises(ShapeError):
            encode_cloud(cloud, store, cfg, states, rotations=np.ones((1, 2, 3)))
        assert encode_cloud(cloud, store, cfg, states, rotations=np.eye(3)[None]).shape == (1, cfg.d_p)

    def test_translation_invariance(self):
        cfg = small_cfg(k=4)
        store, states = make_encoder(cfg)
        cloud = random_cloud(7, np.random.default_rng(8))
        shifted = PointCloud(cloud.coords + np.array([100.0, -40.0, 7.0]), cloud.atomic_numbers)
        a = encode_cloud(prepare_cloud(cloud, False), store, cfg, states).data
        b = encode_cloud(prepare_cloud(shifted, False), store, cfg, states).data
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_post_align_strict_invariance(self):
        cfg = small_cfg(k=4)
        store, states = make_encoder(cfg)
        cloud = random_cloud(8, np.random.default_rng(9))
        base = encode_cloud(prepare_cloud(cloud, True), store, cfg, states).data
        from rotenc.geometry import apply_rotation

        for rot in sample_rotations(100, 10):
            rotated = prepare_cloud(apply_rotation(cloud, rot), True)
            dev = np.max(np.abs(encode_cloud(rotated, store, cfg, states).data - base))
            assert dev <= 1e-9

    def test_degenerate_cloud_rejected_when_aligning(self):
        cfg = small_cfg(k=2)
        store, states = make_encoder(cfg)
        pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
                       dtype=float)
        with pytest.raises(DegenerateCloud):
            encode_cloud(prepare_cloud(PointCloud(pts, [6] * 6), True), store, cfg, states)

    def test_chirality_sensitivity_with_rbf_blindness_oracle(self):
        # a handedness-aware encoder separates enantiomers; any function of
        # pairwise distances (the RBF featurization) cannot
        from rotenc.data import rbf_expand

        cfg = small_cfg(k=4)
        store, states = make_encoder(cfg)
        cloud = random_cloud(6, np.random.default_rng(11))
        mirrored = mirror_cloud(cloud)
        a = encode_cloud(prepare_cloud(cloud, False), store, cfg, states).data
        b = encode_cloud(prepare_cloud(mirrored, False), store, cfg, states).data
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
        store, states = make_encoder(cfg4)
        cfg64 = small_cfg(k=64)
        probes = sample_rotations(12, 13)
        devs = {4: [], 64: []}
        for seed in range(6):
            cloud = random_cloud(7, np.random.default_rng(100 + seed))
            for cfg in (cfg4, cfg64):
                base = encode_cloud(prepare_cloud(cloud, False), store, cfg, states).data
                for rot in probes:
                    rotated = prepare_cloud(apply_rotation(cloud, rot), False)
                    dev = np.linalg.norm(encode_cloud(rotated, store, cfg, states).data - base)
                    devs[cfg.k].append(dev)
        assert np.mean(devs[64]) <= 0.6 * np.mean(devs[4])

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_shared_stack_equals_it_broadcast_per_molecule(self, training):
        # a (k, 3, 3) stack shared by a packed batch runs as one segment over
        # the whole cloud; each molecule given its own copy runs per segment
        cfg = small_cfg(k=4)
        store, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        stack = sample_rotations(cfg.k, 21)
        shared, per_molecule = (
            encode_cloud(packed, store, cfg, states, training=training, rotations=r, offsets=offsets).data
            for r in (stack, np.broadcast_to(stack, (3,) + stack.shape)))
        assert shared.shape == (3, cfg.d_p)
        assert shared.tobytes() == per_molecule.tobytes()


class TestViewsFirstMeanPool:
    """Mean pooling averages each atom's views first, then pools the atoms."""

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_matches_the_mean_over_atoms_and_views(self, training):
        cfg = small_cfg(k=5)
        store, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        rotations = sample_rotations(cfg.k, 3)
        fp = encode_cloud(packed, store, cfg, states, training=training, rotations=rotations,
                          offsets=offsets).data
        # the (k, N, 3 + d_e) input the view parts stand for, joined in numpy
        rotated, emb = packed.coords @ np.swapaxes(rotations, -1, -2), embedding(store, packed).data
        joined = np.concatenate([rotated, np.broadcast_to(emb, rotated.shape[:-1] + emb.shape[-1:])], axis=-1)
        stack = pointwise_stack(Value(joined), store, cfg, states, training=training).data
        reference = np.stack([stack[:, start:stop].mean(axis=(0, 1))
                              for start, stop in zip(offsets[:-1], offsets[1:])])
        np.testing.assert_allclose(fp, reference, rtol=1e-12, atol=0)

    # eval only: training batchnorm normalizes over the whole batch, companions included
    @pytest.mark.parametrize("training", [False], ids=["eval"])
    def test_independent_of_batch_companions(self, training):
        # companions change the GEMM's row count, so allow BLAS rounding
        cfg = small_cfg(k=4)
        store, states = make_encoder(cfg)
        clouds, packed, offsets = packed_clouds()
        rotations = sample_rotations(cfg.k, 6)
        together = encode_cloud(packed, store, cfg, states, training=training, rotations=rotations,
                                offsets=offsets).data
        for b, cloud in enumerate(clouds):
            alone = encode_cloud(cloud, store, cfg, states, training=training, rotations=rotations,
                                 offsets=[0, cloud.n_atoms]).data
            np.testing.assert_allclose(together[b], alone[0], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("training", [False, True], ids=["eval", "train"])
    def test_pools_one_row_per_atom(self, training, monkeypatch):
        cfg = small_cfg(k=4)
        store, states = make_encoder(cfg)
        _, packed, offsets = packed_clouds()
        shapes = []
        real_pool = ad.mean_pool

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_pool(a, *args, **kwargs)

        monkeypatch.setattr(ad, "mean_pool", recording)
        encode_cloud(packed, store, cfg, states, training=training, offsets=offsets)
        assert shapes == [(packed.n_atoms, cfg.d_p)]


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
        batch = tiny_model.prepare(record)
        before = tiny_model.predict(record)
        enc = replace(tiny_model.cfg.encoder, k=7)
        tiny_model.cfg = replace(tiny_model.cfg, encoder=enc)
        after = tiny_model.predict(record)
        explicit, _ = tiny_model.forward(batch, rotations=sample_rotations(7, enc.seed))
        assert after.tobytes() == explicit.data[0].tobytes()
        assert not np.array_equal(after, before)
