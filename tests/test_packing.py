"""Packed disjoint-union batches against the per-molecule path they replace."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from helpers import assert_close_to_scale, bonded_record, tiny_model_config
from rotenc import autodiff as ad
from rotenc.data import MoleculeRecord
from rotenc.encoder3d import EncoderConfig
from rotenc.errors import DegenerateCloud, NoData, ShapeError
from rotenc.geometry import sample_rotations
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
    enc = cfg.encoder
    return {
        "default": cfg,
        "average_loss": replace(cfg, objective="average_loss"),
        "max_pool": replace(cfg, encoder=replace(enc, pool="max")),
        "pre_align": replace(cfg, encoder=replace(enc, align_mode="pre")),
        "ablate_3d": replace(cfg, ablate_3d=True),
        "ablate_pointwise": replace(cfg, ablate_pointwise=True),
    }[name]


def _oracle_step(model, records, rotations, targets, lambda_l1):
    """The per-molecule training step: one tape per molecule (a batch of one), losses chained with ``add``."""
    terms = []
    for record, r, y in zip(records, rotations, targets):
        y_hat, u = model.forward(pack([model.prepare(record, training=True)]), training=True, rotations=r)
        terms.append(loss(y_hat, y, u, lambda_l1))
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
    @pytest.mark.parametrize("variant", ["default", "average_loss", "max_pool", "pre_align",
                                         "ablate_3d", "ablate_pointwise"])
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

    # training batchnorm normalizes over the whole batch, so these variants' packed step over distinct
    # molecules has no per-molecule oracle; its backward is checked against central differences instead.
    # The molecules are bonded: a near-zero RBF feature of a cutoff graph gives a weight a ~1e-15
    # gradient that the differences cannot resolve (the oracle above covers cutoff graphs)
    @pytest.mark.parametrize("variant", ["default", "average_loss", "max_pool", "pre_align"])
    def test_gradients_match_finite_differences(self, variant):
        records = _records(True)
        model = Model(_variant(variant), VOCAB, ("y",), seed=4, bonded=True)
        rotations = [sample_rotations(model.cfg.encoder.k, 50 + i) for i in range(len(records))]
        targets = np.array([[0.3 * i - 0.5] for i in range(len(records))])
        error = ad.gradient_check(lambda store: _packed_step(model, records, rotations, targets, 1e-3),
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

    def test_evaluation_does_not_depend_on_the_batch_size(self):
        records = make_records(7, seed=5)
        model = Model(tiny_model_config(), VOCAB, ("rg",), seed=2)
        normalizer = normalize_targets(records, np.arange(7))
        one = evaluate_model(model, normalizer, records, batch_size=1)
        three = evaluate_model(model, normalizer, records, batch_size=3)
        for metric in ("mae", "rmse", "r2"):
            np.testing.assert_allclose(getattr(three, metric)["rg"], getattr(one, metric)["rg"], rtol=1e-12)

    def test_max_pool_under_no_grad_keeps_no_closure_and_predictions(self, monkeypatch):
        cfg = _variant("max_pool")
        model = Model(cfg, VOCAB, ("y",), seed=3)
        record = _records(False, n=1)[0]
        x = ad.Value(np.random.default_rng(0).normal(size=(3, 5, 4)), requires_grad=True)

        def no_argmax(*args, **kwargs):
            raise AssertionError("argmax computed for a node without a backward")

        with ad.no_grad(), monkeypatch.context() as patch:
            patch.setattr(np, "argmax", no_argmax)
            node = ad.max_pool(x, axis=-2, offsets=[0, 2, 5])
            whole = ad.max_pool(x, axis=-2)
        assert node._backward_fn is None and node._parents == () and whole._backward_fn is None
        assert np.array_equal(node.data, ad.max_pool(x, axis=-2, offsets=[0, 2, 5]).data)
        taped, _ = model.forward(pack([model.prepare(record)]))
        assert taped._parents
        assert model.predict(record).tobytes() == taped.data[0].tobytes()


class TestDegenerateMoleculeInABatch:
    @staticmethod
    def _co():
        return MoleculeRecord(id="co", atomic_numbers=[6, 8], coords=np.array([[0.0, 0, 0], [1.13, 0, 0]]),
                              bonds=None, targets={"rg": 0.6})

    def test_prepare_names_the_molecule(self):
        cfg = tiny_model_config(encoder=EncoderConfig(widths=(8,), embed_dim=2, k=2, align_mode="pre"))
        model = Model(cfg, VOCAB, ("rg",), seed=0)
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            model.prepare(self._co(), training=True)

    def test_evaluation_and_invariance_name_the_molecule(self):
        cfg = tiny_model_config(encoder=EncoderConfig(widths=(8,), embed_dim=2, k=2, align_mode="post"))
        model = Model(cfg, VOCAB, ("rg",), seed=0)
        records = make_records(4, seed=6) + [self._co()]
        normalizer = normalize_targets(records, np.arange(4))
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            evaluate_model(model, normalizer, records, batch_size=3)
        with pytest.raises(DegenerateCloud, match="molecule co:"):
            measure_invariance(model, records[3:], n_rotations=3)


class TestPack:
    def test_union_layout(self):
        records = _records(True, n=3)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0, bonded=True)
        molecules = [model.prepare(record) for record in records]
        batch = pack(molecules)
        sizes = [m.graph.n_nodes for m in molecules]
        assert batch.ids == tuple(r.id for r in records) and len(batch) == 3
        np.testing.assert_array_equal(batch.offsets, np.concatenate([[0], np.cumsum(sizes)]))
        for m, start in zip(molecules, batch.offsets):
            rows = slice(start, start + m.graph.n_nodes)
            np.testing.assert_array_equal(batch.cloud.coords[rows], m.cloud.coords)
            np.testing.assert_array_equal(batch.graph.node_feats[rows], m.graph.node_feats)
            own = (batch.graph.edges[:, 0] >= start) & (batch.graph.edges[:, 0] < start + m.graph.n_nodes)
            np.testing.assert_array_equal(batch.graph.edges[own] - start, m.graph.edges)
        assert batch.graph.targets.shape == (3, 1)

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

    def test_batch_of_one_keeps_the_molecule(self):
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0)
        molecule = model.prepare(_records(False, n=1)[0])
        batch = pack([molecule])
        assert batch.graph is molecule.graph and batch.cloud is molecule.cloud
        np.testing.assert_array_equal(batch.offsets, [0, molecule.graph.n_nodes])
        np.testing.assert_array_equal(batch.targets, molecule.graph.targets[None])

    def test_offsets_must_cut_the_rows_into_molecules(self):
        records = _records(False, n=2)
        model = Model(tiny_model_config(), VOCAB, ("y",), seed=0)
        batch = pack(model.prepare(record) for record in records)
        with pytest.raises(ShapeError, match="offsets"):
            model.forward(replace(batch, offsets=batch.offsets[::-1]))


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
