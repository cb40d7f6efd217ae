"""Packed disjoint-union batches against the per-molecule path they replace."""

import copy
import itertools
from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_close_to_scale, bonded_record, gradient_check, tiny_model_config
from rotenc import autodiff as ad, encoder3d
from rotenc.data import MoleculeRecord, dataset_targets
from rotenc.encoder3d import EncoderConfig
from rotenc.errors import DegenerateCloud, NoData, ShapeError
from rotenc.geometry import PointCloud, sample_rotations
from rotenc.model import Model, loss, measure_invariance
from rotenc.packing import lowered, pack
from rotenc.synthetic import make_records
from rotenc.trainer import evaluate_model, normalize_targets

VOCAB = (1, 6, 7, 8)


def _records(bonded: bool, n: int = 5):
    if bonded:
        return [bonded_record(seed=20 + i, n=5 + i) for i in range(n)]
    return make_records(n, seed=31, n_atoms_range=(4, 9), target="y")


def _variant(name):
    cfg = tiny_model_config()
    return {
        "default": cfg,
        "ablate_3d": replace(cfg, ablate_3d=True),
        "ablate_pointwise": replace(cfg, ablate_pointwise=True),
    }[name]


def _oracle_step(model, records, rotations, targets, lambda_l1):
    """The per-molecule training step: one tape per molecule (a batch of one), losses chained with ``add``."""
    terms = []
    for record, r, y in zip(records, rotations, targets):
        y_hat, u = model.forward(model.prepare(record, training=True), training=True, rotations=r)
        terms.append(loss(y_hat, y[None], u, lambda_l1))
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return ad.scale(total, 1.0 / len(terms))


def _packed_step(model, records, rotations, targets, lambda_l1):
    batch = pack(model.prepare(record, training=True) for record in records)
    y_hat, u = model.forward(batch, training=True, rotations=np.stack(rotations))
    return loss(y_hat, targets, u, lambda_l1)


def _gradients(model, step, *args):
    """Loss value, every parameter gradient and every running statistic after one step."""
    model.store.zero_grad()
    root = step(model, *args)
    ad.backward(root)
    grads = {name: value.grad.copy() for name, value in model.store.items()}
    stats = {name: (s.mean.copy(), s.var.copy()) for name, s in model.bn_states.items()}
    return float(root.data), grads, stats


class TestPackedTrainingStep:
    # Without a training batchnorm (ablate_3d, ablate_pointwise) a molecule's loss does not depend on
    # its companions, so the batch holds distinct molecules. With one, the statistics are taken over the
    # whole batch and equal a lone molecule's only when every molecule of the batch is the same one seen
    # through the same views: those variants pack copies of one molecule, each with its own target.
    # The oracle then folds that statistic once per copy and the packed step once, so the running
    # statistics are compared with one lone step.
    @pytest.mark.parametrize("bonded", [False, True], ids=["cutoff", "bonded"])
    @pytest.mark.parametrize("variant", ["default", "ablate_3d", "ablate_pointwise"])
    def test_gradients_match_per_molecule_oracle(self, variant, bonded):
        records = _records(bonded)
        task = "y"
        model = Model(_variant(variant), VOCAB, (task,), seed=4, bonded=bonded)
        k = model.cfg.encoder.k
        batchnorm = variant not in ("ablate_3d", "ablate_pointwise")
        if batchnorm:
            records = records[2:3] * len(records)
            rotations = [sample_rotations(k, 50)] * len(records)
        else:
            rotations = [sample_rotations(k, 50 + i) for i in range(len(records))]
        targets = np.array([[0.3 * i - 0.5] for i in range(len(records))])
        fresh = copy.deepcopy(model.bn_states)
        want = _gradients(model, _oracle_step, records, rotations, targets, 1e-3)
        if batchnorm:
            model.bn_states = copy.deepcopy(fresh)
            want = want[:2] + _gradients(model, _oracle_step, records[:1], rotations[:1], targets[:1], 1e-3)[2:]
        model.bn_states = fresh
        got = _gradients(model, _packed_step, records, rotations, targets, 1e-3)
        np.testing.assert_allclose(got[0], want[0], rtol=1e-12)
        assert got[1].keys() == want[1].keys()
        assert all(np.any(want[1][name] != 0.0) for name in want[1] if name.startswith("head."))
        for name in want[1]:
            assert_close_to_scale(got[1][name], want[1][name], 1e-10)
        assert got[2].keys() == want[2].keys()
        for name, (mean, var) in want[2].items():
            assert_close_to_scale(got[2][name][0], mean, 1e-10)
            assert_close_to_scale(got[2][name][1], var, 1e-10)

    # training batchnorm normalizes over the whole batch, so the default's packed step over distinct
    # molecules has no per-molecule oracle; its backward is checked against central differences instead.
    # The molecules are bonded: a near-zero RBF feature of a cutoff graph gives a weight a ~1e-15
    # gradient that the differences cannot resolve (the oracle above covers cutoff graphs)
    def test_gradients_match_finite_differences(self):
        records = _records(True)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=4, bonded=True)
        rotations = [sample_rotations(model.cfg.encoder.k, 50 + i) for i in range(len(records))]
        targets = np.array([[0.3 * i - 0.5] for i in range(len(records))])
        error = gradient_check(lambda store: _packed_step(model, records, rotations, targets, 1e-3),
                               model.store, h=1e-5, n_probe=50, seed=0)
        assert error <= 1e-4

    def test_tape_size_does_not_grow_with_the_batch(self):
        records = _records(False, n=6)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=1)
        sizes = []
        for b in (2, 6):
            rotations = [sample_rotations(model.cfg.encoder.k, i) for i in range(b)]
            root = _packed_step(model, records[:b], rotations, np.zeros((b, 1)), 1e-3)
            sizes.append(len(ad._topo_order(root)))
        assert sizes[0] == sizes[1]

    def test_constant_leaves_receive_no_gradient(self):
        records = _records(False, n=3)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=1)
        rotations = [sample_rotations(model.cfg.encoder.k, i) for i in range(3)]
        root = _packed_step(model, records, rotations, np.zeros((3, 1)), 1e-3)
        ad.backward(root)
        leaves = [node for node in ad._topo_order(root) if not node._parents]
        assert all(node._grad is None for node in leaves if not node.requires_grad)
        assert {id(node) for node in leaves if node.requires_grad} <= {id(v) for _, v in model.store.items()}


class TestPackedInference:
    def test_prediction_does_not_depend_on_batch_companions(self):
        records = _records(False, n=6)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=2)
        molecules = [model.prepare(record) for record in records]
        alone = np.stack([model.predict(record) for record in records])
        together = model.predict_batch(pack(molecules))
        reversed_order = model.predict_batch(pack(molecules[::-1]))[::-1]
        np.testing.assert_allclose(together, alone, rtol=1e-12, atol=0)
        np.testing.assert_allclose(reversed_order, alone, rtol=1e-12, atol=0)

    def test_evaluation_matches_per_molecule_predictions(self, monkeypatch):
        # 20 molecules score as one full pack and then a pack of 4, to rounding as if predicted one at a time
        records = make_records(20, seed=5)
        model = Model(tiny_model_config(), VOCAB, ("rg",), seed=2)
        normalizer = normalize_targets(records, np.arange(20))
        _, targets = dataset_targets(records)
        err = normalizer.invert(np.stack([model.predict(record) for record in records]))[:, 0] - targets[:, 0]
        expected = {"mae": np.mean(np.abs(err)), "rmse": np.sqrt(np.mean(err**2)),
                    "r2": 1.0 - np.sum(err**2) / np.sum((targets[:, 0] - targets[:, 0].mean()) ** 2)}
        packs = []
        real = Model.predict_batch
        monkeypatch.setattr(Model, "predict_batch", lambda self, batch: packs.append(len(batch)) or real(self, batch))
        metrics = evaluate_model(model, normalizer, [model.prepare(record) for record in records], targets)
        assert packs == [16, 4]
        for metric, value in expected.items():
            np.testing.assert_allclose(getattr(metrics, metric)["rg"], value, rtol=1e-12)


class TestInferencePacks:
    """``Model.predict_prepared`` is the one inference packer: 16 prepared molecules to a forward."""

    @staticmethod
    def _model(align_mode="post"):
        cfg = tiny_model_config()
        return Model(replace(cfg, encoder=replace(cfg.encoder, align_mode=align_mode)), VOCAB, ("rg",), seed=2)

    def test_invariance_probe_packs_16_copies_to_a_forward(self, monkeypatch):
        # 40 rotated copies and the molecule itself, drawn and prepared one pack at a time
        model, records = self._model(), make_records(2, seed=5)
        events = []
        real_prepare, real_predict = Model.prepare, Model.predict_batch
        monkeypatch.setattr(Model, "prepare", lambda self, record, training=False:
                            events.append("prepare") or real_prepare(self, record, training))
        monkeypatch.setattr(Model, "predict_batch", lambda self, batch:
                            events.append(len(batch)) or real_predict(self, batch))
        measure_invariance(model, records, n_rotations=40)
        packs = [event for event in events if event != "prepare"]
        assert packs == [16, 16, 9] * 2
        # each pack's copies are prepared just before its forward, so no more than 16 are held
        prepared = [len(list(run)) for is_prepare, run in itertools.groupby(events, lambda e: e == "prepare")
                    if is_prepare]
        assert prepared == packs

    @pytest.mark.parametrize("n_rotations", [2, 4, 15])
    @pytest.mark.parametrize("align_mode", ["none", "post"])
    def test_probes_in_one_pack_match_predicting_every_copy_together(self, n_rotations, align_mode):
        model, records = self._model(align_mode), make_records(3, seed=5)
        deviations = []
        for record in records:
            copies = [record] + [replace(record, coords=record.coords @ rotation.T)
                                 for rotation in encoder3d.inference_views(n_rotations, 6)]
            preds = model.predict_batch(pack([model.prepare(each) for each in copies]))
            deviations.append(float(np.max(np.abs(preds[1:] - preds[0]))))
        report = measure_invariance(model, records, n_rotations=n_rotations, seed=6)
        assert report.mean_dev.hex() == float(np.mean(deviations)).hex()
        assert report.max_dev.hex() == float(np.max(deviations)).hex()

    def test_no_molecules_to_predict(self):
        with pytest.raises(NoData):
            self._model().predict_prepared(iter([]))


class TestDegenerateMoleculeInABatch:
    @staticmethod
    def _co():
        return MoleculeRecord(id="co", atomic_numbers=[6, 8], coords=np.array([[0.0, 0, 0], [1.13, 0, 0]]),
                              bonds=None, targets={"rg": 0.6})

    def test_prepare_names_the_molecule(self):
        # training never aligns, so only an inference prepare needs the canonical frame
        cfg = tiny_model_config(encoder=EncoderConfig(widths=(8,), embed_dim=2, k=2, align_mode="post"))
        model = Model(cfg, VOCAB, ("rg",), seed=0)
        assert model.prepare(self._co(), training=True).cloud.n_atoms == 2
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            model.prepare(self._co())

    def test_evaluation_and_invariance_name_the_molecule(self):
        cfg = tiny_model_config(encoder=EncoderConfig(widths=(8,), embed_dim=2, k=2, align_mode="post"))
        model = Model(cfg, VOCAB, ("rg",), seed=0)
        records = make_records(4, seed=6) + [self._co()]
        normalizer = normalize_targets(records, np.arange(4))
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            evaluate_model(model, normalizer, [model.prepare(record) for record in records],
                           dataset_targets(records)[1])
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            measure_invariance(model, records[3:], n_rotations=3)


class TestPack:
    def test_union_layout(self):
        records = _records(True, n=3)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0, bonded=True)
        molecules = [model.prepare(record) for record in records]
        batch = pack(molecules)
        sizes = [m.graph.n_nodes for m in molecules]
        assert len(batch) == 3
        np.testing.assert_array_equal(batch.offsets, np.concatenate([[0], np.cumsum(sizes)]))
        for m, start in zip(molecules, batch.offsets):
            rows = slice(start, start + m.graph.n_nodes)
            np.testing.assert_array_equal(batch.cloud.coords[rows], m.cloud.coords)
            np.testing.assert_array_equal(batch.graph.node_feats[rows], m.graph.node_feats)
            own = (batch.graph.edges[:, 0] >= start) & (batch.graph.edges[:, 0] < start + m.graph.n_nodes)
            np.testing.assert_array_equal(batch.graph.edges[own] - start, m.graph.edges)
        np.testing.assert_array_equal(batch.order, np.concatenate([m.order for m in molecules]))

    def test_joined_batches_equal_one_pack_of_their_molecules(self):
        records = _records(True, n=5)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0, bonded=True)
        molecules = [model.prepare(record) for record in records]
        joined = pack([pack(molecules[:2]), molecules[2], pack(molecules[3:])])
        flat = pack(molecules)
        for a, b in ((joined.graph.node_feats, flat.graph.node_feats), (joined.graph.edges, flat.graph.edges),
                     (joined.graph.edge_feats, flat.graph.edge_feats),
                     (joined.cloud.coords, flat.cloud.coords), (joined.offsets, flat.offsets),
                     (joined.order, flat.order)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert model.predict_batch(joined).tobytes() == model.predict_batch(flat).tobytes()

    @pytest.mark.parametrize("bonded", [False, True], ids=["cutoff", "bonded"])
    def test_union_keeps_the_edges_grouped_without_sorting(self, bonded, monkeypatch):
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0, bonded=bonded)
        molecules = [model.prepare(record) for record in _records(bonded, n=3)]
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
        graph = pack(molecules).graph
        assert sorts == []
        assert np.all(np.diff(graph.edges[:, 1]) >= 0) and graph.destinations.order is None
        np.testing.assert_array_equal(graph.destinations.counts,
                                      np.concatenate([m.graph.destinations.counts for m in molecules]))
        np.testing.assert_array_equal(graph.edge_feats, np.concatenate([m.graph.edge_feats for m in molecules]))

    def test_empty_batch_rejected(self):
        with pytest.raises(NoData):
            pack([])

    def test_prepare_gives_a_batch_of_one_that_packs_to_itself(self):
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0)
        record = _records(False, n=1)[0]
        batch = model.prepare(record)
        assert pack([batch]) is batch and len(batch) == 1
        np.testing.assert_array_equal(batch.offsets, [0, record.n_atoms])
        np.testing.assert_array_equal(np.sort(batch.order), np.arange(record.n_atoms))

    def test_offsets_must_cut_the_rows_into_molecules(self):
        records = _records(False, n=2)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0)
        batch = pack(model.prepare(record) for record in records)
        with pytest.raises(ShapeError, match="offsets"):
            model.forward(replace(batch, offsets=batch.offsets[::-1]))

    @pytest.mark.parametrize("variant", ["default", "ablate_pointwise"])
    def test_a_cloud_that_does_not_match_the_graph_stops_the_forward(self, variant):
        # pack does not compare the atom counts of graph and cloud; the encoder's offsets checks do
        records = _records(False, n=2)
        model = Model(_variant(variant), VOCAB, ("y",), seed=0)
        batch = pack(model.prepare(record) for record in records)
        short = PointCloud.trusted(batch.cloud.coords[:-1], batch.cloud.atomic_numbers[:-1])
        with pytest.raises(ShapeError, match="offsets"):
            model.forward(replace(batch, cloud=short))


class TestLowered:
    def test_a_float32_training_batch_holds_no_subnormal(self):
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0)  # cutoff graphs: RBF edge features
        molecules = [model.prepare(record, training=True)
                     for record in make_records(16, seed=3, n_atoms_range=(8, 20), target="y")]
        arrays = [(m.graph.node_feats, m.graph.edge_feats, m.cloud.coords) for m in molecules]
        kept = [tuple(a.copy() for a in each) for each in arrays]
        tiny = np.finfo(np.float32).tiny
        feats = np.concatenate([m.graph.edge_feats for m in molecules])
        assert np.any((feats != 0.0) & (np.abs(feats) < tiny))  # RBF tails that float32 cannot hold as normals

        batch = pack(lowered(m) for m in molecules)
        for a, full in ((batch.graph.node_feats, np.concatenate([m.graph.node_feats for m in molecules])),
                        (batch.graph.edge_feats, feats),
                        (batch.cloud.coords, np.concatenate([m.cloud.coords for m in molecules]))):
            assert a.dtype == np.float32
            assert not np.any((a != 0.0) & (np.abs(a) < tiny))
            normal = np.abs(full) >= tiny
            np.testing.assert_array_equal(a[normal], full[normal].astype(np.float32))
            assert not np.any(a[~normal])
        assert batch.graph.inv_degree.dtype == np.float32
        for m, each, copies in zip(molecules, arrays, kept):  # the float64 molecule eval reads is untouched
            for a, before, copy in zip((m.graph.node_feats, m.graph.edge_feats, m.cloud.coords), each, copies):
                assert a is before and a.dtype == np.float64 and a.tobytes() == copy.tobytes()
