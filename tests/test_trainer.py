import copy
import errno
import hashlib
import json
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import tiny_model_config
from rotenc import autodiff as ad
from rotenc.autodiff import ParameterStore
from rotenc.data import MoleculeRecord, Normalizer, SplitSpec, dataset_targets, dataset_vocab, split as split_records
from rotenc.encoder3d import EncoderConfig
from rotenc.errors import DegenerateCloud, Diverged, InvalidConfig, InvalidSplit, StaleGradient, TaskMismatch
from rotenc.gnn import GnnConfig
from rotenc.model import Model, ModelConfig, measure_invariance
from rotenc.synthetic import make_records
from rotenc.trainer import (
    AdamWState,
    Checkpoint,
    TrainConfig,
    adamw_step,
    checkpoint_from_model,
    config_from_dict,
    config_to_dict,
    evaluate_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
    train_epochs,
)


def smoke_config(records_seed=5, **overrides) -> TrainConfig:
    defaults = dict(
        model=tiny_model_config(),
        split=SplitSpec(mode="holdout", train_fraction=0.75, seed=1),
        epochs=2,
        batch_size=8,
        lr=3e-3,
        seed=11,
        lambda_l1=1e-4,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestAdamW:
    def test_zero_gradient_is_pure_decay(self):
        store = ParameterStore()
        theta = np.array([1.0, -2.0, 0.5])
        p = store.add("w", theta.copy())
        p._grad = np.zeros(3)
        cfg = smoke_config(lr=1e-3, weight_decay=0.01)
        adamw_step(store, AdamWState(), cfg)
        np.testing.assert_array_equal(p.data, theta * (1.0 - 1e-5))

    def test_single_step_matches_hand_recurrence(self):
        # f = theta^2 at theta = 1: gradient 2; replay the update by hand
        store = ParameterStore()
        p = store.add("w", np.array([1.0]))
        p._grad = np.array([2.0])
        cfg = smoke_config(lr=1e-3, weight_decay=0.01, betas=(0.9, 0.999), eps=1e-8)
        adamw_step(store, AdamWState(), cfg)
        theta = 1.0 * (1.0 - 1e-3 * 0.01)
        m = 0.1 * 2.0
        v = 0.001 * 4.0
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = theta - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, [expected], atol=1e-12)

    @given(st.floats(0.1, 50.0))
    @settings(max_examples=20, deadline=None)
    def test_first_step_magnitude_is_lr(self, g):
        # bias-corrected Adam with wd=0: first update is lr * g/(|g| + eps)
        store = ParameterStore()
        p = store.add("w", np.array([3.0]))
        p._grad = np.array([g])
        cfg = smoke_config(lr=1e-3, weight_decay=0.0)
        adamw_step(store, AdamWState(), cfg)
        assert abs(abs(3.0 - p.data[0]) - 1e-3) <= 1e-9

    def test_stale_gradient_rejected(self):
        store = ParameterStore()
        store.add("w", np.ones(2))
        with pytest.raises(StaleGradient):
            adamw_step(store, AdamWState(), smoke_config())

    def test_deterministic_across_runs(self):
        def run():
            store = ParameterStore()
            p = store.add("w", np.linspace(-1, 1, 6))
            state = AdamWState()
            cfg = smoke_config(lr=2e-3)
            for step in range(5):
                p._grad = np.sin(np.arange(6.0) + step)
                adamw_step(store, state, cfg)
            return p.data.copy()

        assert np.array_equal(run(), run())

    def test_a_second_step_makes_no_new_moment_array(self, monkeypatch):
        store = ParameterStore()
        for name in ("a", "b"):
            store.add(name, np.ones(4))._grad = np.full(4, 0.5)
        state, cfg = AdamWState(), smoke_config()
        adamw_step(store, state, cfg)
        moments = {name: (state.m[name], state.v[name]) for name in ("a", "b")}
        made, zeros_like = [], np.zeros_like

        def counted_zeros_like(a, *args, **kwargs):
            made.append(a.shape)
            return zeros_like(a, *args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counted_zeros_like)
        adamw_step(store, state, cfg)
        assert made == []
        for name, (m, v) in moments.items():
            assert state.m[name] is m and state.v[name] is v


def _metrics(preds, targets):
    """``evaluate_model``'s metrics of a model that predicts ``preds`` for molecules whose targets are ``targets``."""
    records = [replace(r, targets={"e": float(t)}) for r, t in zip(make_records(len(targets), seed=1), targets[:, 0])]
    model = Model(tiny_model_config(), dataset_vocab(records), ("e",))
    molecules = [model.prepare(r) for r in records]
    model.predict_batch = lambda batch: preds  # at most 12 molecules: they fit one pack
    return evaluate_model(model, Normalizer(("e",), np.zeros(1), np.ones(1)), molecules, targets)


class TestMetrics:
    def test_perfect_predictions(self):
        preds = np.array([[1.0], [2.0], [3.0]])
        m = _metrics(preds, preds.copy())
        assert m.mae["e"] == 0.0 and m.rmse["e"] == 0.0 and m.r2["e"] == 1.0

    def test_predicting_the_mean_gives_zero_r2(self):
        targets = np.array([[1.0], [2.0], [3.0], [6.0]])
        preds = np.full_like(targets, targets.mean())
        m = _metrics(preds, targets)
        assert abs(m.r2["e"]) <= 1e-12

    def test_mae_arithmetic(self):
        preds = np.array([[1.0], [3.0]])
        targets = np.array([[2.0], [2.0]])
        m = _metrics(preds, targets)
        assert m.mae["e"] == 1.0
        assert m.rmse["e"] >= m.mae["e"] >= 0.0

    def test_metric_ordering_and_r2_bound(self):
        rng = np.random.default_rng(3)
        targets = rng.normal(size=(12, 1))
        preds = targets + rng.normal(size=(12, 1)) * 0.3
        m = _metrics(preds, targets)
        assert m.rmse["e"] >= m.mae["e"] >= 0.0
        assert m.r2["e"] <= 1.0


class TestTraining:
    def test_smoke_reduces_loss(self):
        # from epoch 1 on: epoch 0's mean loss is mostly the untrained model's
        records = make_records(40, seed=5)
        cfg = smoke_config(epochs=8)
        ckpt, history = train(cfg, records)
        assert history[7]["train_loss"] <= 0.5 * history[1]["train_loss"]
        assert isinstance(ckpt, Checkpoint)

    def test_bit_identical_reruns(self):
        records = make_records(20, seed=6)
        cfg = smoke_config(epochs=2)
        _, h1 = train(cfg, records)
        _, h2 = train(cfg, records)
        assert [e["train_loss"] for e in h1] == [e["train_loss"] for e in h2]
        assert h1 == h2

    def test_atom_permuted_dataset_trains_bit_identically(self):
        # training batchnorm, pooling and message sums reduce in index order;
        # Model.prepare's canonical atom order makes that order the same
        records = make_records(20, seed=6)
        rng = np.random.default_rng(12)
        permuted = []
        for record in records:
            perm = rng.permutation(record.n_atoms)
            permuted.append(MoleculeRecord(id=record.id, atomic_numbers=[record.atomic_numbers[i] for i in perm],
                                           coords=record.coords[perm], bonds=None, targets=dict(record.targets)))
        cfg = smoke_config(epochs=2)
        ckpt1, h1 = train(cfg, records)
        ckpt2, h2 = train(cfg, permuted)
        assert h1 == h2
        assert ckpt1.params.keys() == ckpt2.params.keys()
        for name in ckpt1.params:
            assert ckpt1.params[name].tobytes() == ckpt2.params[name].tobytes(), name
        for name, (mean, var) in ckpt1.bn_stats.items():
            assert (mean.tobytes(), var.tobytes()) == tuple(a.tobytes() for a in ckpt2.bn_stats[name]), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_reported_with_location(self):
        records = make_records(12, seed=7)
        cfg = smoke_config(epochs=2, lr=1e80, weight_decay=0.0)
        with pytest.raises(Diverged) as exc:
            train(cfg, records)
        assert exc.value.epoch >= 0 and exc.value.batch >= 0

    def test_kfold_driver(self):
        records = make_records(12, seed=8)
        cfg = smoke_config(split=SplitSpec(mode="kfold", k_folds=3, seed=2), epochs=1)
        ckpt, history = train(cfg, records)
        assert {e["fold"] for e in history} == {0, 1, 2}
        assert isinstance(ckpt, Checkpoint)

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_seeded_run_reproduces_its_recorded_history_and_checkpoint(self, tmp_path, mode):
        # fold_runs.json was recorded when holdout and k-fold training still took separate paths
        # through train(); the shared fold loop must give the same bytes (numpy 2.4 on OpenBLAS,
        # like float64_trained.json). Its checkpoint hashes were re-recorded for the format-5
        # header; the array bytes after it are the ones first recorded
        split, epochs = {"holdout": (SplitSpec(mode="holdout", train_fraction=0.75, seed=1), 2),
                         "kfold": (SplitSpec(mode="kfold", k_folds=3, seed=2), 1)}[mode]
        ckpt, history = train(smoke_config(split=split, epochs=epochs), make_records(12, seed=8))
        save_checkpoint(ckpt, tmp_path / "run.rotenc")
        recorded = json.loads((Path(__file__).parent / "data" / "fold_runs.json").read_text())[mode]
        assert history == recorded["history"]
        assert hashlib.sha256((tmp_path / "run.rotenc").read_bytes()).hexdigest() == recorded["checkpoint_sha256"]

    def test_mixed_bondedness_rejected(self):
        records = make_records(4, seed=9)
        from rotenc.data import MoleculeRecord

        bonded = MoleculeRecord(id="b", atomic_numbers=[1, 1],
                                coords=np.array([[0.0, 0, 0], [1.0, 0, 0]]),
                                bonds=[(0, 1, 1)], targets={"rg": 0.5})
        with pytest.raises(InvalidConfig):
            train(smoke_config(epochs=1), records + [bonded])

    def test_huge_l1_collapses_fused_vector(self):
        # penalty domination is directional: the Adam step size caps how far
        # u can shrink in a few epochs, but it must shrink, with finite loss.
        # |u| is read from the model as the last epoch leaves it, not from the
        # best-validation checkpoint, which can be an early, barely trained epoch
        records = make_records(16, seed=10)
        base = smoke_config(epochs=10, lr=0.1, lambda_l1=0.0)
        heavy = smoke_config(epochs=10, lr=0.1, lambda_l1=1e6)
        norms = {}
        for name, cfg in (("base", base), ("heavy", heavy)):
            for state, _ in train_epochs(cfg, records):
                pass
            model, history = state.model, state.history
            u_norms = []
            for record in records[:6]:
                _, u = model.forward(model.prepare(record))
                u_norms.append(np.sum(np.abs(u.data)))
            norms[name] = np.mean(u_norms)
            assert np.isfinite(history[-1]["train_loss"])
        assert norms["heavy"] < 0.7 * norms["base"]

    def test_l1_pressure_is_directional(self):
        records = make_records(24, seed=11)
        norms = {}
        for lam in (0.0, 1e-2):
            ckpt, _ = train(smoke_config(epochs=3, lambda_l1=lam), records)
            model, _ = model_from_checkpoint(ckpt)
            held_out = make_records(6, seed=999)
            u_norms = []
            for record in held_out:
                _, u = model.forward(model.prepare(record))
                u_norms.append(np.sum(np.abs(u.data)))
            norms[lam] = np.mean(u_norms)
        assert norms[1e-2] < norms[0.0]

    def test_molecules_are_prepared_once_per_fold(self, monkeypatch):
        import rotenc.model as model_module

        built = []
        real = model_module.build_graph

        def counting(record, *args, **kwargs):
            built.append(record.id)
            return real(record, *args, **kwargs)

        monkeypatch.setattr(model_module, "build_graph", counting)
        records = make_records(10, seed=21)
        cfg = smoke_config(epochs=3)
        ckpt, history = train(cfg, records)
        assert sorted(built) == sorted(record.id for record in records)
        # the fold's validation pass is evaluate_model's: the retained
        # checkpoint scores what the history says its epoch scored
        best = min(history, key=lambda entry: np.mean(list(entry["val_rmse"].values())))
        model, normalizer = model_from_checkpoint(ckpt)
        _, val_idx = split_records(records, cfg.split)
        val = evaluate_model(model, normalizer, [model.prepare(records[i]) for i in val_idx],
                             dataset_targets([records[i] for i in val_idx])[1])
        assert (val.mae, val.rmse, val.r2) == (best["val_mae"], best["val_rmse"], best["val_r2"])

    def test_edgeless_batches_train(self):
        # a batch of one one-atom molecule has no edge: its message weights
        # must get a zero gradient, not none
        carbons = [MoleculeRecord(id=f"c{i}", atomic_numbers=[6], coords=np.array([[0.1 * i, 0.0, 0.0]]),
                                  bonds=None, targets={"rg": 0.0}) for i in range(6)]
        records = make_records(4, seed=4, n_atoms_range=(4, 7)) + carbons
        cfg = TrainConfig(model=tiny_model_config(), split=SplitSpec(mode="holdout", train_fraction=0.7, seed=1),
                          epochs=2, batch_size=1)
        train_idx, _ = split_records(records, cfg.split)
        assert any(records[i].n_atoms == 1 for i in train_idx)
        ckpt, history = train(cfg, records)
        assert len(history) == 2 and all(np.isfinite(entry["train_loss"]) for entry in history)
        assert all(np.all(np.isfinite(value)) for value in ckpt.params.values())

    def test_post_align_trains_on_a_degenerate_molecule_and_inference_names_it(self):
        # training never aligns, so a molecule without a canonical frame trains; serving it cannot
        co = MoleculeRecord(id="co", atomic_numbers=[6, 8],
                            coords=np.array([[0.0, 0.0, 0.0], [1.13, 0.0, 0.0]]), bonds=None,
                            targets={"rg": 0.6})
        enc = EncoderConfig(widths=(16, 8), embed_dim=4, k=3, seed=1, align_mode="post")
        cfg = smoke_config(epochs=1, model=tiny_model_config(encoder=enc))
        records = [co] + make_records(7, seed=12)
        assert 0 in split_records(records, cfg.split)[0]
        ckpt, history = train(cfg, records)
        assert len(history) == 1
        model, _ = model_from_checkpoint(ckpt)
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            model.prepare(co)


class TestTrainEpochs:
    """``train_epochs`` yields its run state after every epoch, and one best-so-far spans every fold."""

    SPLITS = {"holdout": (SplitSpec(mode="holdout", train_fraction=0.75, seed=1), 3),
              "kfold": (SplitSpec(mode="kfold", k_folds=3, seed=2), 2)}

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_train_is_the_drained_generator(self, tmp_path, mode):
        split, epochs = self.SPLITS[mode]
        cfg, records = smoke_config(split=split, epochs=epochs), make_records(12, seed=8)
        ckpt, history = train(cfg, records)
        for state, _ in train_epochs(cfg, records):
            pass
        assert state.history == history
        save_checkpoint(ckpt, tmp_path / "train.rotenc")
        save_checkpoint(state.best, tmp_path / "drained.rotenc")
        assert (hashlib.sha256((tmp_path / "train.rotenc").read_bytes()).digest()
                == hashlib.sha256((tmp_path / "drained.rotenc").read_bytes()).digest())

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_each_yield_shows_the_epoch_just_run_and_the_best_so_far(self, mode):
        split, epochs = self.SPLITS[mode]
        yields, previous = 0, None
        for state, entry in train_epochs(smoke_config(split=split, epochs=epochs), make_records(12, seed=8)):
            yields += 1
            assert state.epoch == entry["epoch"] + 1 and state.fold == entry["fold"]
            assert state.history[-1] is entry and len(state.history) == yields
            assert state.best_score == min(np.mean(list(e["val_rmse"].values())) for e in state.history)
            if previous is not None and previous is not state:  # a finished fold holds no molecules
                assert previous.fold == state.fold - 1 and (previous.train_molecules, previous.val_molecules) == ({}, [])
            previous = state
        assert yields == epochs * (1 if mode == "holdout" else 3)

    def test_kfold_snapshots_only_run_wide_improvements(self, monkeypatch):
        import rotenc.trainer as trainer_module

        snapshots = []

        def counting(*args):
            snapshots.append(args)
            return checkpoint_from_model(*args)

        def improvements(scores):  # the scores below every earlier one
            return sum(score < min(scores[:i], default=np.inf) for i, score in enumerate(scores))

        monkeypatch.setattr(trainer_module, "checkpoint_from_model", counting)
        split, epochs = self.SPLITS["kfold"]
        _, history = train(smoke_config(split=split, epochs=epochs), make_records(12, seed=8))
        scores = [(entry["fold"], np.mean(list(entry["val_rmse"].values()))) for entry in history]
        run_wide = improvements([score for _, score in scores])
        fold_local = sum(improvements([score for f, score in scores if f == fold]) for fold in range(3))
        assert len(snapshots) == run_wide < fold_local

    def test_an_empty_dataset_is_rejected(self):
        with pytest.raises(InvalidConfig, match="dataset is empty"):
            train(smoke_config(epochs=1), [])


class TestPaperDefaultLearns:
    """The paper-default model fits the synthetic radius of gyration, and its 3D path adds to the graph.

    80 molecules of 8-20 atoms, 64 to train and 16 to validate, batch 16,
    lr 1e-3 and every other setting at its default, 20 epochs. One data
    seed costs ~5 s: ~4.5 s with the 3D encoder, ~0.7 s without.
    """

    @staticmethod
    def best_val_r2(records, **model_overrides) -> float:
        cfg = TrainConfig(model=ModelConfig(encoder=EncoderConfig(), gnn=GnnConfig(), **model_overrides),
                          split=SplitSpec(mode="holdout", train_fraction=0.8, seed=1),
                          epochs=20, batch_size=16, lr=1e-3)
        _, history = train(cfg, records)
        return max(entry["val_r2"]["rg"] for entry in history)

    @pytest.mark.parametrize("data_seed", [3, 4, 5])
    def test_fits_the_target_and_3d_beats_the_graph_alone(self, data_seed):
        records = make_records(80, seed=data_seed, n_atoms_range=(8, 20))
        with_3d = self.best_val_r2(records)
        graph_only = self.best_val_r2(records, ablate_3d=True)
        assert with_3d >= 0.7
        assert with_3d > graph_only


class TestTrainingMemory:
    def test_learning_run_peak_stays_near_one_steps_tape(self):
        # The learning run's 2-epoch train() peaks at ~22 MB of traced allocations when backward frees
        # each interior gradient once consumed and a step's tape dies with the step; keeping every
        # gradient and the previous step's tape through the next forward peaked at ~38.7 MB. The bound
        # leaves ~6 MB (~27%) above the first and sits ~10 MB below the second.
        records = make_records(80, seed=3, n_atoms_range=(8, 20))
        cfg = TrainConfig(model=ModelConfig(encoder=EncoderConfig(), gnn=GnnConfig()),
                          split=SplitSpec(mode="holdout", train_fraction=0.8, seed=1),
                          epochs=2, batch_size=16, lr=1e-3)
        tracemalloc.start()
        try:
            train(cfg, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28e6, f"traced peak {peak / 1e6:.1f} MB"


class TestTrainingPrecision:
    """Training computes in float32; master weights, optimizer state, statistics, eval and checkpoints are float64."""

    def test_training_tape_is_float32_and_everything_kept_is_float64(self, monkeypatch, tmp_path):
        import rotenc.trainer as trainer_module

        nodes, steps, models = [], [], []
        real_node, real_step = ad._node, trainer_module.adamw_step

        def node(data, op, parents, backward):
            out = real_node(data, op, parents, backward)
            nodes.append((op, out.data.dtype, ad._grad_enabled))
            return out

        def step(store, state, cfg):
            steps.append(state)
            for name, p in store.items():
                assert p.data.dtype == np.float64 and p._grad.dtype == np.float32, name
            real_step(store, state, cfg)

        def snapshot(model, *args):
            models.append(model)
            return checkpoint_from_model(model, *args)

        monkeypatch.setattr(ad, "_node", node)
        monkeypatch.setattr(trainer_module, "adamw_step", step)
        monkeypatch.setattr(trainer_module, "checkpoint_from_model", snapshot)
        cfg = smoke_config(epochs=2)
        ckpt, _ = train(cfg, make_records(16, seed=6))
        # a training step records a tape; validation predicts under no_grad
        training = {(op, dtype) for op, dtype, taped in nodes if taped}
        evaluation = {(op, dtype) for op, dtype, taped in nodes if not taped}
        assert {dtype for _, dtype in training} == {np.dtype(np.float32)}
        assert {dtype for _, dtype in evaluation} == {np.dtype(np.float64)}
        assert {"batchnorm_relu", "message_layer", "segment_matmul", "mse"} <= {op for op, _ in training}

        state, model = steps[-1], models[-1]
        assert len(set(map(id, steps))) == 1 and len(set(map(id, models))) == 1
        arrays = [p.data for _, p in model.store.items()] + list(state.m.values()) + list(state.v.values())
        arrays += [a for s in model.bn_states.values() for a in (s.mean, s.var)]
        arrays += list(ckpt.params.values()) + [a for pair in ckpt.bn_stats.values() for a in pair]
        assert all(a.dtype == np.float64 for a in arrays)
        assert len(state.m) == len(model.store.items())

        path = tmp_path / "model.rotenc"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        assert json.loads(blob[12 : 12 + header_len])["format_version"] == 5
        loaded = load_checkpoint(path)
        for name, value in ckpt.params.items():
            assert loaded.params[name].tobytes() == value.tobytes(), name

    def test_reruns_give_bit_identical_checkpoints(self, tmp_path):
        records = make_records(12, seed=6)
        blobs, histories = [], []
        for run in range(2):
            ckpt, history = train(smoke_config(epochs=2), records)
            save_checkpoint(ckpt, tmp_path / f"run{run}.rotenc")
            blobs.append((tmp_path / f"run{run}.rotenc").read_bytes())
            histories.append(history)
        assert histories[0] == histories[1]
        assert blobs[0] == blobs[1]

    def test_a_float64_trained_checkpoint_predicts_its_recorded_outputs(self):
        # float64_trained.rotenc was written by the trainer before training computed in float32 (its
        # header since rewritten to format 5, its arrays untouched), and
        # float64_trained.json holds its predictions and invariance deviations then, which every
        # float64 inference path must still reproduce to the bit (recorded with numpy 2.4 on
        # OpenBLAS; a BLAS that rounds its products differently needs the file recorded again)
        data = Path(__file__).parent / "data"
        model, _ = model_from_checkpoint(load_checkpoint(data / "float64_trained.rotenc"))
        recorded = json.loads((data / "float64_trained.json").read_text())
        records = make_records(4, seed=40)
        for mode in ("none", "post"):
            key = "" if mode == "none" else "post_"
            model.cfg = replace(model.cfg, encoder=replace(model.cfg.encoder, align_mode=mode))
            assert [model.predict(r).tolist() for r in records] == recorded[key + "predict"]
            deviations = [measure_invariance(model, [r], 3, seed=2).max_dev for r in records]
            assert deviations == recorded[key + "invariance"]
        assert max(deviations) <= 1e-9  # post-align: exact to rounding


class TestCheckpoint:
    def test_roundtrip_bit_identical_predictions(self, tmp_path):
        records = make_records(10, seed=13)
        ckpt, _ = train(smoke_config(epochs=1), records)
        path = tmp_path / "model.rotenc"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        m1, _ = model_from_checkpoint(ckpt)
        m2, _ = model_from_checkpoint(loaded)
        for record in records[:4]:
            assert np.array_equal(m1.predict(record), m2.predict(record))

    def test_magic_header(self, tmp_path):
        records = make_records(6, seed=14)
        ckpt, _ = train(smoke_config(epochs=1), records)
        path = tmp_path / "model.rotenc"
        save_checkpoint(ckpt, path)
        assert path.read_bytes()[:7] == b"ROTENC1"
        with pytest.raises(InvalidConfig):
            bad = tmp_path / "junk.rotenc"
            bad.write_bytes(b"NOTACKP" + b"\x00" * 16)
            load_checkpoint(bad)

    @staticmethod
    def small_checkpoint_bytes(tmp_path) -> bytes:
        ckpt = Checkpoint(
            params={"b": np.array([0.5]), "w": np.arange(6.0).reshape(2, 3)},
            bn_stats={"bn": (np.zeros(2), np.ones(2))},
            normalizer=Normalizer(("y",), np.array([1.0]), np.array([2.0])),
            train_config=smoke_config(), vocab=(1, 6), task_names=("y",),
            bonded=False,
        )
        path = tmp_path / "small.rotenc"
        save_checkpoint(ckpt, path)
        load_checkpoint(path)  # the untouched file is valid
        return path.read_bytes()

    def test_a_save_that_fails_midway_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        # the disk fills up after the magic bytes: the old file stays whole and loadable, and no part is left over
        before = self.small_checkpoint_bytes(tmp_path)
        path = tmp_path / "small.rotenc"
        ckpt = load_checkpoint(path)
        ckpt.params["b"] = np.array([9.0])

        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(struct, "pack", disk_full)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(ckpt, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        load_checkpoint(path)
        assert [p.name for p in tmp_path.iterdir()] == ["small.rotenc"]

    def test_every_truncation_and_trailing_bytes_rejected(self, tmp_path):
        blob = self.small_checkpoint_bytes(tmp_path)
        bad = tmp_path / "bad.rotenc"
        for cut in range(len(blob)):
            bad.write_bytes(blob[:cut])
            with pytest.raises(InvalidConfig):
                load_checkpoint(bad)
        bad.write_bytes(blob + b"\x00")
        with pytest.raises(InvalidConfig, match="trailing"):
            load_checkpoint(bad)

    def test_corrupt_header_rejected(self, tmp_path):
        blob = self.small_checkpoint_bytes(tmp_path)
        (header_len,) = struct.unpack("<I", blob[8:12])
        header, body = json.loads(blob[12 : 12 + header_len]), blob[12 + header_len :]
        del header["params"]
        no_params = json.dumps(header).encode()
        bad = tmp_path / "bad.rotenc"
        for new_header, reason in ((b"\xff{" * 3, "not JSON"), (b"[1, 2]", "lacks"),
                                   (no_params, "lacks")):
            bad.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + body)
            with pytest.raises(InvalidConfig, match=reason):
                load_checkpoint(bad)

    def test_header_without_config_sections_rejected(self, tmp_path):
        blob = self.small_checkpoint_bytes(tmp_path)
        (header_len,) = struct.unpack("<I", blob[8:12])
        header, body = json.loads(blob[12 : 12 + header_len]), blob[12 + header_len :]
        header["train_config"] = {}
        new_header = json.dumps(header).encode()
        bad = tmp_path / "bad.rotenc"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + body)
        with pytest.raises(InvalidConfig, match="config lacks model"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("field, value", [
        ("vocab", "CHNO"), ("vocab", []), ("vocab", [1, 0]), ("task_names", [1]), ("bonded", "no"),
        ("normalizer", {"task_names": ["y"], "mean": [1.0, 2.0], "std": [2.0]}),
        ("params", [["b", [1]]]), ("params", [{"name": "b", "shape": [-1]}]),
        ("bn_states", [{"name": "bn", "width": 2.5}]),
        ("normalizer", {"task_names": ["y"], "mean": [1.0], "std": [True]}),
        ("normalizer", {"task_names": ["y"], "mean": [1.0], "std": [0.0]}),
        ("normalizer", {"task_names": ["y"], "mean": [1.0], "std": [-2.0]}),
    ])
    def test_header_field_of_wrong_type_rejected(self, tmp_path, field, value):
        blob = self.small_checkpoint_bytes(tmp_path)
        (header_len,) = struct.unpack("<I", blob[8:12])
        header, body = json.loads(blob[12 : 12 + header_len]), blob[12 + header_len :]
        header[field] = value
        new_header = json.dumps(header).encode()
        bad = tmp_path / "bad.rotenc"
        bad.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + body)
        with pytest.raises(InvalidConfig, match=f"malformed header fields \\['{field}'\\]"):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit, named", [
        (lambda c: c.params.pop("head.b2"), "missing ['head.b2']"),
        (lambda c: c.params.update(extra=np.zeros(1)), "unknown ['extra']"),
        (lambda c: c.params.update({"head.W2": c.params["head.W2"].T}), "'head.W2' has shape"),
        (lambda c: c.bn_stats.pop("enc.bn1"), "missing ['enc.bn1']"),
        (lambda c: c.bn_stats.update({"enc.bn0": (np.zeros(16), np.ones(3))}), "'enc.bn0' has shape"),
    ], ids=["missing-param", "unknown-param", "misshaped-param", "missing-bn", "misshaped-bn"])
    def test_arrays_must_match_the_config(self, edit, named):
        cfg = smoke_config()
        model = Model(cfg.model, vocab=(1, 6, 7, 8), task_names=("rg",), seed=0)
        ckpt = checkpoint_from_model(model, Normalizer(("rg",), np.zeros(1), np.ones(1)), cfg)
        edit(ckpt)
        with pytest.raises(InvalidConfig) as exc:
            model_from_checkpoint(ckpt)
        assert named in str(exc.value)

    def test_config_dict_roundtrip(self):
        cfg = smoke_config()
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_evaluate_from_checkpoint(self, tmp_path):
        records = make_records(12, seed=15)
        cfg = smoke_config(epochs=1)
        ckpt, _ = train(cfg, records)
        model, normalizer = model_from_checkpoint(ckpt)
        metrics = evaluate_model(model, normalizer, [model.prepare(r) for r in records], dataset_targets(records)[1])
        assert set(metrics.mae) == {"rg"}
        assert metrics.rmse["rg"] >= metrics.mae["rg"] >= 0.0
        assert metrics.r2["rg"] <= 1.0

    def test_task_mismatch_detected(self):
        # a record is refused as it is prepared, whether it lacks the model's task or carries another
        records = make_records(8, seed=16)
        ckpt, _ = train(smoke_config(epochs=1), records)
        model, _ = model_from_checkpoint(ckpt)
        for targets in ({"other": 1.0}, {"rg": 1.0, "other": 1.0}):
            alien = MoleculeRecord(id="alien", atomic_numbers=[1, 6],
                                   coords=np.array([[0.0, 0, 0], [1.0, 0, 0]]), bonds=None, targets=targets)
            with pytest.raises(TaskMismatch, match="molecule alien: .*tasks do not match"):
                model.prepare(alien)

    def test_normalizer_tasks_must_match_the_checkpoints(self):
        cfg = smoke_config()
        model = Model(cfg.model, vocab=(1, 6, 7, 8), task_names=("rg",), seed=0)
        ckpt = checkpoint_from_model(model, Normalizer(("y",), np.zeros(1), np.ones(1)), cfg)
        with pytest.raises(InvalidConfig, match="normalizer tasks .* do not match"):
            model_from_checkpoint(ckpt)


def _owner(d: dict, path: str) -> tuple[dict, str]:
    """The dict holding a dotted config key, and the key's last part."""
    *parents, leaf = path.split(".")
    for key in parents:
        d = d[key]
    return d, leaf


def _numeric_leaves(d: dict, path: str = ""):
    """Dotted paths of every number in a config dict; a tuple's entries are named by their index."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{path}{key}.")
        elif isinstance(value, tuple):
            yield from (f"{path}{key}.{i}" for i in range(len(value)))
        elif type(value) in (int, float):
            yield path + key


DEFAULT_CONFIG = config_to_dict(TrainConfig(ModelConfig(EncoderConfig(), GnnConfig()), SplitSpec()))


class TestStrictConfig:
    @pytest.mark.parametrize("path, value", [
        ("model.encoder.bogus", 1),
        ("model.encoder.tau", 3),
        ("model.encoder.k", "16"),
        ("model.encoder.widths", [8, "8"]),
        ("model.ablate_3d", 1),
        ("betas", [0.9]),
        ("split.k_folds", 2.5),
        ("lr", True),
        ("model.gnn", [3]),
    ])
    def test_bad_key_raises_invalid_config_naming_it(self, path, value):
        d = config_to_dict(smoke_config())
        owner, leaf = _owner(d, path)
        owner[leaf] = value
        with pytest.raises(InvalidConfig, match=re.escape(path)):
            config_from_dict(d)

    @pytest.mark.parametrize("path", ["model", "split", "model.encoder", "model.gnn"])
    def test_missing_section_raises_invalid_config_naming_it(self, path):
        d = config_to_dict(smoke_config())
        owner, leaf = _owner(d, path)
        del owner[leaf]
        with pytest.raises(InvalidConfig, match=f"lacks {re.escape(path)}$"):
            config_from_dict(d)

    def test_missing_field_with_default_takes_the_default(self):
        d = config_to_dict(smoke_config())
        del d["model"]["encoder"]["align_mode"]
        assert config_from_dict(d) == smoke_config()

    def test_lr_times_weight_decay_must_stay_below_one(self):
        # at lr·wd >= 1 the decay factor 1 - lr·wd would flip or zero every weight on every step
        with pytest.raises(InvalidConfig, match=re.escape("lr * weight_decay must be < 1")):
            smoke_config(lr=1e-3, weight_decay=1000)
        assert smoke_config(lr=1e-3, weight_decay=999).weight_decay == 999

    def test_ints_pass_as_floats(self):
        d = config_to_dict(smoke_config())
        d["lr"], d["model"]["cutoff"] = 1, 8
        cfg = config_from_dict(d)
        assert cfg.lr == 1 and cfg.model.cutoff == 8

    # every number of the default config: none of these values is legal for any of them (the split's
    # k_folds is None under holdout, so it is no leaf here)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1],
                             ids=["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("path", list(_numeric_leaves(DEFAULT_CONFIG)))
    def test_a_non_finite_or_negative_number_is_an_input_error(self, path, value):
        d = copy.deepcopy(DEFAULT_CONFIG)
        owner, leaf = _owner(d, path)
        if leaf.isdigit():  # an entry of a tuple field
            owner, field = _owner(d, path.rpartition(".")[0])
            owner[field] = list(owner[field])
            owner, leaf = owner[field], int(leaf)
        owner[leaf] = value
        with pytest.raises((InvalidConfig, InvalidSplit)):
            config_from_dict(d)

    @pytest.mark.parametrize("path, value, shown", [
        ("lr", float("nan"), "nan"),
        ("lr", float("inf"), "inf"),
        ("betas", [float("inf"), 0.9], "[inf, 0.9]"),
        ("betas", [0.9, float("nan")], "[0.9, nan]"),
    ])
    def test_a_non_finite_number_is_reported_as_not_finite(self, path, value, shown):
        d = copy.deepcopy(DEFAULT_CONFIG)
        d[path] = value
        with pytest.raises(InvalidConfig, match=re.escape(f"config key {path} must be finite, got {shown}")):
            config_from_dict(d)


class TestAblations:
    def test_toggles_produce_distinct_d_u(self):
        records = make_records(10, seed=17)
        d_us = {}
        for name, overrides in {
            "full": {},
            "no_3d": {"ablate_3d": True},
            "no_features": {"ablate_features": True},
            "no_pointnet": {"ablate_pointwise": True},
        }.items():
            cfg = smoke_config(epochs=1, model=tiny_model_config(**overrides))
            ckpt, history = train(cfg, records)
            assert np.isfinite(history[-1]["train_loss"]), name
            model, _ = model_from_checkpoint(ckpt)
            d_us[name] = model.cfg.d_u
            _, u = model.forward(model.prepare(records[0]))
            assert u.data.shape == (1, model.cfg.d_u), name
        # the three ablations have pairwise-distinct fused widths
        assert len({d_us["no_3d"], d_us["no_features"], d_us["no_pointnet"]}) == 3
        assert d_us["no_3d"] == tiny_model_config().g_dim
        assert d_us["no_pointnet"] == tiny_model_config().g_dim + 3 + tiny_model_config().encoder.embed_dim

    def test_features_ablation_narrows_edge_width(self):
        records = make_records(6, seed=18)
        cfg = smoke_config(epochs=1, model=tiny_model_config(ablate_features=True))
        ckpt, _ = train(cfg, records)
        model, _ = model_from_checkpoint(ckpt)
        assert model.d_edge == 1
        assert model.prepare(records[0]).graph.edge_feats.shape[1] == 1


class TestNormalizerIsolation:
    def test_no_test_leakage(self):
        # recompute the normalizer from the train split and compare with the
        # checkpoint's: statistics must not involve held-out records
        from rotenc.data import normalize_targets

        records = make_records(20, seed=19)
        cfg = smoke_config(epochs=1)
        ckpt, _ = train(cfg, records)
        train_idx, _ = split_records(records, cfg.split)
        expected = normalize_targets(records, train_idx)
        np.testing.assert_array_equal(ckpt.normalizer.mean, expected.mean)
        np.testing.assert_array_equal(ckpt.normalizer.std, expected.std)
