"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Each criterion also carries a wall-clock budget that is
asserted alongside the numeric tolerance.
"""

import time
from contextlib import contextmanager

import numpy as np

from helpers import bonded_record, gradient_check, tiny_model_config
from rotenc import autodiff as ad
from rotenc.alignment import canonical_align
from rotenc.data import MoleculeRecord, SplitSpec, dataset_targets, rbf_expand, split as split_records, vocab_rows
from rotenc.encoder3d import EncoderConfig, encode, init_encoder_params, prepare_cloud
from rotenc.geometry import apply_rotation, rotation_defect, sample_rotations
from rotenc.model import Model, loss as sample_loss, measure_invariance
from rotenc.synthetic import make_records, mirror_cloud, random_cloud
from rotenc.trainer import (
    TrainConfig,
    evaluate_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
)


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {title} ({time.time() - start:.1f}s)")
        raise
    elapsed = time.time() - start
    print(f"[PASS] criterion {number}: {title} ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_01_strict_invariance_after_alignment():
    with criterion(1, "post-align invariance: mean = max = 0 within 1e-9", 120):
        cfg = tiny_model_config(
            encoder=EncoderConfig(widths=(16, 8), embed_dim=4, k=4, seed=0, align_mode="post")
        )
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=3)
        molecules = make_records(50, seed=101, n_atoms_range=(4, 10))
        report = measure_invariance(model, molecules, n_rotations=100, seed=7)
        assert report.n_molecules == 50 and report.n_rotations == 100
        assert report.mean_dev <= 1e-9, report
        assert report.max_dev <= 1e-9, report


def test_02_inverse_sqrt_k_deviation_scaling():
    with criterion(2, "deviation ratio k=64 / k=4 in [0.125, 0.5]", 300):
        molecules = make_records(20, seed=102, n_atoms_range=(5, 10))
        devs = {}
        for k in (4, 64):
            cfg = tiny_model_config(
                encoder=EncoderConfig(widths=(16, 8), embed_dim=4, k=k, seed=0, align_mode="none")
            )
            model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=3)
            devs[k] = measure_invariance(model, molecules, n_rotations=30, seed=77).mean_dev
        ratio = devs[64] / devs[4]
        assert 0.125 <= ratio <= 0.5, f"ratio {ratio:.4f}, devs {devs}"


def test_03_haar_sampler_soundness():
    with criterion(3, "Haar sampler: 4096 valid rotations, mean entry <= 0.05", 10):
        rotations = sample_rotations(4096, 42)
        for rotation in rotations:
            ortho, det = rotation_defect(rotation)
            assert ortho <= 1e-12
            assert det <= 1e-12
        mean = np.mean(rotations, axis=0)
        assert np.max(np.abs(mean)) <= 0.05, mean


def test_04_alignment_invariance_and_idempotence():
    with criterion(4, "200 clouds: align(RX) = align(X) @ 1e-6, idempotent @ 1e-9", 60):
        rng = np.random.default_rng(104)
        rotations = sample_rotations(100, 11)
        for i in range(200):
            cloud = random_cloud(int(rng.integers(4, 12)), rng)
            base = canonical_align(cloud)
            assert not base.degenerate
            again = canonical_align(base.aligned)
            assert np.max(np.abs(again.aligned.coords - base.aligned.coords)) <= 1e-9
            for rotation in rotations:
                rotated = canonical_align(apply_rotation(cloud, rotation))
                assert np.max(np.abs(rotated.aligned.coords - base.aligned.coords)) <= 1e-6


def test_05_chirality_separation():
    with criterion(5, "20 chiral clouds: fingerprints split > 1e-3, RBF blind @ 1e-12", 60):
        cfg = EncoderConfig(widths=(16, 8), embed_dim=4, k=4, seed=0, align_mode="none")
        store = ad.ParameterStore()
        rng = np.random.default_rng(5)
        embed = store.add("enc.embed", rng.normal(0.0, 1.0, (4, cfg.embed_dim)))
        states = init_encoder_params(store, cfg, rng)
        rng = np.random.default_rng(105)
        for i in range(20):
            cloud = random_cloud(int(rng.integers(4, 9)), rng)
            mirrored = mirror_cloud(cloud)
            emb = ad.gather_rows(embed, vocab_rows((1, 6, 7, 8), cloud.atomic_numbers))
            lone = [0, cloud.n_atoms]
            fp_a = encode(ad.Value(prepare_cloud(cloud, False).coords), emb, store, cfg, states, offsets=lone).data
            fp_b = encode(ad.Value(prepare_cloud(mirrored, False).coords), emb, store, cfg, states, offsets=lone).data
            assert np.linalg.norm(fp_a - fp_b) > 1e-3, f"cloud {i} not separated"
            dist_a = np.linalg.norm(cloud.coords[:, None] - cloud.coords[None], axis=-1)
            dist_b = np.linalg.norm(mirrored.coords[:, None] - mirrored.coords[None], axis=-1)
            for r in range(cloud.n_atoms):
                for c in range(r + 1, cloud.n_atoms):
                    gap = np.max(np.abs(rbf_expand(dist_a[r, c]) - rbf_expand(dist_b[r, c])))
                    assert gap <= 1e-12


def test_06_gradient_correctness():
    with criterion(6, "full-model gradient check: 50 probes @ h=1e-5 <= 1e-4", 60):
        record = bonded_record(seed=11)
        model = Model(tiny_model_config(), vocab=(1, 6, 7, 8), task_names=("y",), seed=0,
                      bonded=True)
        batch = model.prepare(record, training=True)
        rotations = sample_rotations(3, 7)
        base, _ = model.forward(batch, training=True, rotations=rotations)
        target = base.data + 0.7

        def f(store):
            y_hat, u = model.forward(batch, training=True, rotations=rotations)
            return sample_loss(y_hat, target, u, 1e-3)

        err = gradient_check(f, model.store, h=1e-5, n_probe=50, seed=0)
        assert err <= 1e-4, f"max relative error {err:.3e}"


def test_07_exact_symmetries():
    with criterion(7, "20 molecules: permutation exact, translation <= 1e-10", 60):
        model = Model(tiny_model_config(), vocab=(1, 6, 7, 8), task_names=("rg",), seed=2)
        molecules = make_records(20, seed=107, n_atoms_range=(4, 10))
        rng = np.random.default_rng(9)
        for record in molecules:
            base = model.predict(record)
            perm = rng.permutation(record.n_atoms)
            permuted = MoleculeRecord(
                id=record.id + "p",
                atomic_numbers=[record.atomic_numbers[i] for i in perm],
                coords=record.coords[perm],
                bonds=None,
                targets=dict(record.targets),
            )
            assert np.array_equal(model.predict(permuted), base), record.id
            shifted = MoleculeRecord(
                id=record.id + "t",
                atomic_numbers=list(record.atomic_numbers),
                coords=record.coords + rng.normal(size=3) * 40.0,
                bonds=None,
                targets=dict(record.targets),
            )
            assert np.max(np.abs(model.predict(shifted) - base)) <= 1e-10, record.id


def test_08_learning_smoke():
    with criterion(8, "50 epochs on 200 molecules: MSE halves, held-out R2 > 0.3", 600):
        records = make_records(250, seed=108)
        cfg = TrainConfig(
            model=tiny_model_config(
                encoder=EncoderConfig(widths=(32, 32), embed_dim=8, k=4, seed=0, align_mode="none"),
                gnn=__import__("rotenc.gnn", fromlist=["GnnConfig"]).GnnConfig(
                    layers=2, hidden=16, message_width=16),
                g_dim=16, head_hidden=64, cutoff=8.0,
            ),
            split=SplitSpec(mode="holdout", train_fraction=0.8, seed=1),
            epochs=50,
            batch_size=16,
            lr=5e-3,
            seed=7,
            lambda_l1=0.0,  # train loss is then pure MSE
        )
        ckpt, history = train(cfg, records)
        first, last = history[0]["train_loss"], history[-1]["train_loss"]
        assert last <= 0.5 * first, f"MSE {first:.4f} -> {last:.4f}"
        train_idx, test_idx = split_records(records, cfg.split)
        assert len(test_idx) == 50
        model, normalizer = model_from_checkpoint(ckpt)
        test_records = [records[i] for i in test_idx]
        metrics = evaluate_model(model, normalizer, [model.prepare(r) for r in test_records],
                                 dataset_targets(test_records)[1])
        assert metrics.r2["rg"] > 0.3, metrics


def test_09_ablation_machinery():
    with criterion(9, "three ablation toggles train and give distinct d_u", 300):
        records = make_records(12, seed=109)
        d_us = {}
        for name, overrides in {
            "no_features": {"ablate_features": True},
            "no_3d": {"ablate_3d": True},
            "no_pointnet": {"ablate_pointwise": True},
        }.items():
            cfg = TrainConfig(
                model=tiny_model_config(**overrides),
                split=SplitSpec(mode="holdout", train_fraction=0.75, seed=1),
                epochs=1, batch_size=8, lr=3e-3, seed=5,
            )
            ckpt, history = train(cfg, records)
            assert np.isfinite(history[-1]["train_loss"]), name
            model, _ = model_from_checkpoint(ckpt)
            d_us[name] = model.cfg.d_u
            _, u = model.forward(model.prepare(records[0]))
            assert u.data.shape == (1, model.cfg.d_u), name
        assert len(set(d_us.values())) == 3, d_us
        assert d_us["no_features"] == tiny_model_config().d_u  # edge width changes instead
        assert d_us["no_3d"] < d_us["no_pointnet"] < d_us["no_features"]


def test_10_determinism_and_persistence(tmp_path):
    with criterion(10, "bit-identical reruns; checkpoint round-trip exact", 300):
        records = make_records(20, seed=110)
        cfg = TrainConfig(
            model=tiny_model_config(),
            split=SplitSpec(mode="holdout", train_fraction=0.75, seed=2),
            epochs=3, batch_size=8, lr=3e-3, seed=13,
        )
        ckpt_a, hist_a = train(cfg, records)
        ckpt_b, hist_b = train(cfg, records)
        assert [e["train_loss"] for e in hist_a] == [e["train_loss"] for e in hist_b]
        for name in ckpt_a.params:
            assert np.array_equal(ckpt_a.params[name], ckpt_b.params[name]), name

        path = tmp_path / "ck.rotenc"
        save_checkpoint(ckpt_a, path)
        loaded = load_checkpoint(path)
        model_mem, _ = model_from_checkpoint(ckpt_a)
        model_disk, _ = model_from_checkpoint(loaded)
        for record in records[:10]:
            assert np.array_equal(model_mem.predict(record), model_disk.predict(record))
