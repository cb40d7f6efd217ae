import copy
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import bonded_record, gradient_check, tiny_model_config
from rotenc import autodiff as ad
from rotenc import encoder3d
from rotenc.autodiff import ParameterStore, Value
from rotenc.cli import ABLATIONS
from rotenc.data import MoleculeRecord, SplitSpec
from rotenc.encoder3d import EncoderConfig
from rotenc.errors import InputError, InvalidConfig, NoData, ShapeError, TooFewPoints, UnknownElement
from rotenc.geometry import MAX_RADIUS, sample_rotations
from rotenc.gnn import GnnConfig
from rotenc.model import (
    Model,
    ModelConfig,
    atom_importance,
    fuse,
    loss,
    measure_invariance,
    predict_head,
)
from rotenc.packing import lowered, pack
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig


def permuted_record(record, perm, rng=None):
    """Atom perm[i] of the record becomes atom i.

    Bonds follow their atoms; ``rng`` reverses about half of them and
    shuffles the bond list. A bond-free record stays bond-free.
    """
    bonds = None
    if record.bonds is not None:
        rank = np.argsort(perm).tolist()
        rng = rng or np.random.default_rng(0)
        bonds = [(rank[v], rank[u], o) if flip else (rank[u], rank[v], o)
                 for (u, v, o), flip in zip(record.bonds, rng.random(len(record.bonds)) < 0.5)]
        bonds = [bonds[i] for i in rng.permutation(len(bonds))]
    return MoleculeRecord(
        id=record.id + "_perm",
        atomic_numbers=[record.atomic_numbers[i] for i in perm],
        coords=record.coords[perm],
        bonds=bonds,
        targets=dict(record.targets),
    )


@st.composite
def grid_records(draw):
    """Small records on a coarse grid: repeated elements, shared coordinates,
    zeros of either sign and coincident atoms are all common; bonds optional."""
    n = draw(st.integers(1, 9))
    grid = draw(arrays(np.int8, (n, 3), elements=st.integers(-2, 2)))
    coords = grid * 0.75
    coords[(grid == 0) & draw(arrays(np.bool_, (n, 3)))] = -0.0
    bonds = None
    if draw(st.booleans()):
        ends = st.integers(0, n - 1)
        bonds = draw(st.lists(st.tuples(ends, ends, st.sampled_from([1, 2, 3, 5])).filter(lambda b: b[0] != b[1]),
                              max_size=2 * n))
    record = MoleculeRecord(id="grid", atomic_numbers=draw(st.lists(st.sampled_from([1, 6]), min_size=n, max_size=n)),
                            coords=coords, bonds=bonds, targets={"y": 0.5})
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    return record, perm, np.random.default_rng(draw(st.integers(0, 2**16)))


def molecule_arrays(molecule):
    graph, cloud = molecule.graph, molecule.cloud
    return [a.tobytes() for a in (graph.node_feats, graph.edges, graph.edge_feats,
                                  cloud.coords, cloud.atomic_numbers)]


class TestFuse:
    def test_concat_order(self):
        u = fuse(Value(np.array([[1.0, 2.0]])), Value(np.array([[3.0]])))
        np.testing.assert_array_equal(u.data, [[1.0, 2.0, 3.0]])

    def test_zero_fingerprint_keeps_graph_prefix(self):
        g = np.array([[0.5, -0.5, 2.0]])
        u = fuse(Value(g), Value(np.zeros((1, 2))))
        np.testing.assert_array_equal(u.data[:, :3], g)

    def test_default_widths_give_256(self):
        from rotenc.gnn import GnnConfig

        cfg = ModelConfig(encoder=EncoderConfig(), gnn=GnnConfig())
        assert cfg.d_u == 128 + 128 == 256


class TestPredictHead:
    def test_zero_weights_give_zero(self):
        store = ParameterStore()
        store.add("head.W1", np.zeros((4, 8)))
        store.add("head.b1", np.zeros(8))
        store.add("head.W2", np.zeros((8, 2)))
        store.add("head.b2", np.zeros(2))
        out = predict_head(Value(np.ones((1, 4))), store)
        np.testing.assert_array_equal(out.data[0], [0.0, 0.0])

    def test_linear_map_exact(self):
        # single input, hidden wide enough to carry +x and -x through relu:
        # output = w*x + b for any sign of x
        store = ParameterStore()
        store.add("head.W1", np.array([[1.0, -1.0]]))
        store.add("head.b1", np.zeros(2))
        w, b = 2.5, -0.75
        store.add("head.W2", np.array([[w], [-w]]))
        store.add("head.b2", np.array([b]))
        for x in (1.3, -0.4):
            out = predict_head(Value(np.array([[x]])), store)
            np.testing.assert_allclose(out.data[0], [w * x + b])

    def test_gradients_through_head(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.add("head.W1", rng.normal(size=(5, 8)))
        store.add("head.b1", rng.normal(size=8))
        store.add("head.W2", rng.normal(size=(8, 1)))
        store.add("head.b2", rng.normal(size=1))
        u = rng.normal(size=(1, 5))

        def f(s):
            return ad.mse(predict_head(Value(u), s), np.array([[0.3]]))

        assert gradient_check(f, store, h=1e-5, n_probe=30, seed=1) <= 1e-5


class TestLoss:
    def test_lambda_zero_is_pure_mse(self):
        out = loss(Value(np.array([[0.0]])), np.array([[2.0]]), Value(np.ones((1, 3))), 0.0)
        assert out.data == 4.0

    def test_penalty_arithmetic(self):
        out = loss(Value(np.array([[1.0, 2.0]])), np.array([[1.0, 2.0]]),
                   Value(np.array([[1.0, -2.0, 0.5]])), 0.1)
        np.testing.assert_allclose(out.data, 0.35)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss(Value(np.zeros((1, 2))), np.zeros((1, 3)), Value(np.zeros((1, 2))), 0.0)

    def test_one_target_row_is_not_repeated_over_the_rows(self):
        # a batch's target has one row per prediction row
        with pytest.raises(ShapeError):
            loss(Value(np.zeros((4, 2))), np.zeros(2), Value(np.zeros((4, 5))), 0.1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_decomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        y_hat, y = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        u = rng.normal(size=(1, 5))
        lam = float(rng.uniform(0, 0.5))
        with_pen = loss(Value(y_hat), y, Value(u), lam).data
        without = loss(Value(y_hat), y, Value(u), 0.0).data
        np.testing.assert_allclose(with_pen - without, lam * np.sum(np.abs(u)), rtol=1e-12,
                                   atol=1e-14)

    def test_view_rows_average_the_per_row_losses(self):
        rng = np.random.default_rng(3)
        y_hat, y, u = rng.normal(size=(4, 2)), rng.normal(size=2), rng.normal(size=(4, 5))
        per_row = [loss(Value(y_hat[v : v + 1]), y[None], Value(u[v : v + 1]), 0.1).data for v in range(4)]
        np.testing.assert_allclose(loss(Value(y_hat), np.tile(y, (4, 1)), Value(u), 0.1).data, np.mean(per_row),
                                   rtol=1e-12)

    def test_negative_lambda_rejected(self):
        # the loss takes its L1 weight from TrainConfig, which validates it
        with pytest.raises(InvalidConfig):
            TrainConfig(tiny_model_config(), SplitSpec(), lambda_l1=-0.1)


class TestEndToEndSymmetries:
    def test_permutation_invariance_exact(self, tiny_model, small_records):
        for record in small_records[:4]:
            perm = np.random.default_rng(1).permutation(record.n_atoms)
            a = tiny_model.predict(record)
            b = tiny_model.predict(permuted_record(record, perm))
            assert np.array_equal(a, b)

    def test_translation_invariance(self, tiny_model, small_records):
        record = small_records[0]
        shifted = MoleculeRecord(
            id="shifted",
            atomic_numbers=list(record.atomic_numbers),
            coords=record.coords + np.array([250.0, -30.0, 4.0]),
            bonds=None,
            targets=dict(record.targets),
        )
        dev = np.max(np.abs(tiny_model.predict(shifted) - tiny_model.predict(record)))
        assert dev <= 1e-10

    def test_identity_rotation_gives_zero_deviation(self, tiny_model, small_records):
        record = small_records[0]
        rotated = MoleculeRecord(
            id="idrot",
            atomic_numbers=list(record.atomic_numbers),
            coords=record.coords @ np.eye(3).T,
            bonds=None,
            targets=dict(record.targets),
        )
        assert np.array_equal(tiny_model.predict(rotated), tiny_model.predict(record))


class TestCanonicalAtomOrder:
    """``Model.prepare`` puts the atoms in one order, so every layer sees the same arrays for any atom order."""

    @given(grid_records(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_prepare_is_exact_under_atom_permutation(self, case, ablate_3d):
        record, perm, rng = case
        model = Model(tiny_model_config(ablate_3d=ablate_3d), vocab=(1, 6), task_names=("y",),
                      bonded=record.bonds is not None)
        permuted = permuted_record(record, perm, rng)
        try:
            base = model.prepare(record)
        except InvalidConfig:  # coincident bonded atoms
            with pytest.raises(InvalidConfig, match="are one element at one position$"):
                model.prepare(permuted)
            return
        moved = model.prepare(permuted)
        assert molecule_arrays(base) == molecule_arrays(moved)
        # both orders name the same record atoms, up to atoms that coincide
        np.testing.assert_array_equal(record.coords[base.order], permuted.coords[moved.order])

    def test_bonded_predict_bit_identical_under_permutation(self):
        model = Model(tiny_model_config(), vocab=(1, 6, 7, 8), task_names=("y",), seed=0, bonded=True)
        rng = np.random.default_rng(5)
        for seed in range(20):
            record = bonded_record(seed=seed)
            permuted = permuted_record(record, rng.permutation(record.n_atoms), rng)
            assert model.predict(record).tobytes() == model.predict(permuted).tobytes(), record.id

    def test_coincident_bonded_atoms_rejected_naming_the_id(self, tiny_cfg):
        # two carbons at one place: which one carries which bond cannot be
        # told from the values, so no order of a bonded record is canonical
        record = bonded_record(seed=4)
        z = list(record.atomic_numbers)
        z[2] = z[6] = 6
        coords = record.coords.copy()
        coords[6] = coords[2]
        record = replace(record, atomic_numbers=z, coords=coords)
        model = Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=("y",), bonded=True)
        with pytest.raises(InvalidConfig, match=r"^molecule bonded4: bonded atoms [26] and [26] are one element"):
            model.prepare(record)
        # without bonds the two atoms are interchangeable
        free = Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=("y",))
        record = replace(record, bonds=None)
        for perm in np.random.default_rng(6).permutation(np.tile(np.arange(record.n_atoms), (5, 1)), axis=1):
            assert free.predict(record).tobytes() == free.predict(permuted_record(record, perm)).tobytes()


class TestNoPointnetReadsNoCoordinates:
    """A ``no-pointnet`` model reads no coordinates, so ``post`` neither aligns its clouds nor refuses a molecule."""

    @staticmethod
    def _records():
        angles = np.arange(6) * np.pi / 3
        ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
        benzene = MoleculeRecord(id="benzene", atomic_numbers=[6] * 6 + [1] * 6,
                                 coords=np.concatenate([1.39 * ring, 2.47 * ring]), bonds=None, targets={"rg": 1.9})
        co = MoleculeRecord(id="co", atomic_numbers=[6, 8], coords=np.array([[0.0, 0, 0], [1.13, 0, 0]]),
                            bonds=None, targets={"rg": 0.6})
        lone = MoleculeRecord(id="lone", atomic_numbers=[6], coords=np.zeros((1, 3)), bonds=None,
                              targets={"rg": 0.0})
        return [benzene, co, lone] + make_records(4, seed=9)

    def test_post_predicts_what_none_predicts(self):
        models = {mode: Model(tiny_model_config(ablate_pointwise=True,
                                                encoder=EncoderConfig(widths=(4,), embed_dim=2, k=2, align_mode=mode)),
                              vocab=(1, 6, 7, 8), task_names=("rg",), seed=3)
                  for mode in ("none", "post")}
        for record in self._records():
            y = {mode: model.predict(record) for mode, model in models.items()}
            assert np.all(np.isfinite(y["post"])), record.id
            assert y["post"].tobytes() == y["none"].tobytes(), record.id


class TestTapeFreePredict:
    def test_predict_leaves_no_parents_on_its_output(self, tiny_model, small_records, monkeypatch):
        import rotenc.model as model_module

        heads = []

        def recording_head(u, store):
            heads.append(predict_head(u, store))
            return heads[-1]

        monkeypatch.setattr(model_module, "predict_head", recording_head)
        record = small_records[0]
        y = tiny_model.predict(record)
        taped, _ = tiny_model.forward(tiny_model.prepare(record))
        tape_free, with_tape = heads
        assert tape_free._parents == () and tape_free._backward_fn is None
        assert with_tape._parents and ad._grad_enabled
        assert y.tobytes() == taped.data[0].tobytes()

    def test_grad_mode_restored_when_predict_raises(self, small_records):
        cfg = tiny_model_config(encoder=EncoderConfig(widths=(4,), embed_dim=2, k=2, align_mode="post"))
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=0)
        one_atom = MoleculeRecord(id="lone", atomic_numbers=[6], coords=np.zeros((1, 3)), bonds=None,
                                  targets={"rg": 0.0})
        with pytest.raises(TooFewPoints, match="lone"):
            model.predict(one_atom)
        assert ad._grad_enabled


class TestMeasureInvariance:
    def test_post_align_is_exact(self, small_records):
        cfg = tiny_model_config(
            encoder=EncoderConfig(widths=(16, 8), embed_dim=4, k=4, seed=1, align_mode="post")
        )
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=2)
        report = measure_invariance(model, small_records[:5], n_rotations=20, seed=3)
        assert report.max_dev <= 1e-9
        assert report.mean_dev <= 1e-9
        assert report.align_mode == "post"

    def test_deviation_shrinks_with_k(self, small_records):
        devs = {}
        for k in (4, 16):
            cfg = tiny_model_config(
                encoder=EncoderConfig(widths=(16, 8), embed_dim=4, k=k, seed=1, align_mode="none")
            )
            model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=2)
            devs[k] = measure_invariance(model, small_records, n_rotations=25, seed=4).mean_dev
        # quadrupling k should halve the deviation (1/sqrt(k)), noise allowed
        assert 1.4 <= devs[4] / devs[16] <= 2.8

    def test_probe_rotations_drawn_once(self, tiny_model, small_records, monkeypatch):
        calls = []

        def counting(k, seed):
            calls.append((k, seed))
            return sample_rotations(k, seed)

        monkeypatch.setattr(encoder3d, "sample_rotations", counting)
        encoder3d.inference_views.cache_clear()
        first = measure_invariance(tiny_model, small_records[:3], n_rotations=6, seed=9)
        second = measure_invariance(tiny_model, small_records[:3], n_rotations=6, seed=9)
        assert second == first
        assert calls.count((6, 9)) == 1

    def test_requires_molecules_and_rotations(self, tiny_model, small_records):
        with pytest.raises(NoData):
            measure_invariance(tiny_model, [], n_rotations=5)
        with pytest.raises(InvalidConfig):
            measure_invariance(tiny_model, small_records, n_rotations=1)


class TestAtomImportance:
    def test_scores_normalized(self, tiny_model, small_records):
        scores, _ = atom_importance(tiny_model, small_records[0], 0)
        assert scores.shape == (small_records[0].n_atoms,)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        assert scores.max() == 1.0

    def test_zero_3d_path_kills_coordinate_gradients(self, tiny_cfg, small_records):
        model = Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=2)
        # zero the head columns that read the fingerprint: no gradient can
        # reach the encoder inputs
        w1 = model.store["head.W1"]
        w1.data[model.cfg.g_dim :, :] = 0.0
        _, coord_part = atom_importance(model, small_records[0], 0)
        np.testing.assert_array_equal(coord_part, np.zeros_like(coord_part))

    def test_reorder_consistency(self, tiny_model, small_records):
        record = small_records[1]
        perm = np.random.default_rng(2).permutation(record.n_atoms)
        a, _ = atom_importance(tiny_model, record, 0)
        b, _ = atom_importance(tiny_model, permuted_record(record, perm), 0)
        np.testing.assert_allclose(a[perm], b, atol=1e-12)

    @staticmethod
    def _fd_coordinate_sensitivity(model, record, h=1e-4):
        # oracle: perturb each coordinate, hold the graph fixed, and take
        # per-atom norms of the output differences
        graph = model.prepare(record).graph
        sensitivity = np.zeros(record.n_atoms)
        for atom in range(record.n_atoms):
            sq = 0.0
            for axis in range(3):
                plus = None
                for sign in (+1, -1):
                    coords = record.coords.copy()
                    coords[atom, axis] += sign * h
                    moved = model.prepare(replace(record, coords=coords))
                    y, _ = model.forward(replace(moved, graph=graph))
                    if sign > 0:
                        plus = y.data[0, 0]
                    else:
                        sq += ((plus - y.data[0, 0]) / (2 * h)) ** 2
            sensitivity[atom] = np.sqrt(sq)
        return sensitivity

    def test_matches_finite_difference_sensitivity(self, small_records):
        # geometry-driven model (the encoder's first layer ignores the atom
        # embedding rows, so they get an exactly-zero share and gradient, and
        # the head reads only the fingerprint): the score is pure coordinate
        # sensitivity, which the finite-difference oracle measures directly
        from scipy.stats import spearmanr

        cfg = tiny_model_config(encoder=EncoderConfig(widths=(16, 8), embed_dim=4, k=3, seed=1, align_mode="none"))
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=5)
        model.store["enc.conv0.W"].data[3:] = 0.0
        model.store["head.W1"].data[: cfg.g_dim, :] = 0.0
        for record in small_records[:3]:
            scores, _ = atom_importance(model, record, 0)
            sensitivity = self._fd_coordinate_sensitivity(model, record)
            rho = spearmanr(scores, sensitivity).statistic
            assert rho >= 0.9

    def test_coordinate_component_equals_fd_sensitivity(self, small_records):
        # with every path live, the coordinate slice of the input gradient
        # still matches the fixed-graph finite-difference oracle
        cfg = tiny_model_config()
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=6)
        model.store["head.W1"].data[: cfg.g_dim, :] = 0.0
        record = small_records[4]
        _, coord_part = atom_importance(model, record, 0)
        sensitivity = self._fd_coordinate_sensitivity(model, record)
        np.testing.assert_allclose(coord_part, sensitivity, rtol=1e-5)

    def test_bad_task_index(self, tiny_model, small_records):
        with pytest.raises(InvalidConfig):
            atom_importance(tiny_model, small_records[0], 5)

    @pytest.mark.parametrize("ablation", ["ablate_3d", "ablate_pointwise"], ids=["no-3d", "no-pointnet"])
    def test_ablated_model_scores_without_a_coordinate_share(self, small_records, ablation):
        # neither model reads the coordinates: no-3d has no encoder, no-pointnet pools the embedding rows only
        model = Model(tiny_model_config(**{ablation: True}), vocab=(1, 6, 7, 8), task_names=("rg",), seed=3)
        for record in small_records[:3]:
            scores, coord_part = atom_importance(model, record, 0)
            assert scores.shape == coord_part.shape == (record.n_atoms,)
            assert np.all(np.isfinite(scores)) and np.all((scores >= 0) & (scores <= 1))
            assert scores.max() == 1.0
            assert coord_part.tobytes() == np.zeros(record.n_atoms).tobytes()


class TestModelInputs:
    """``Model.inputs`` turns a packed batch into the graph nodes every layer reads."""

    def test_the_batch_arrays_and_the_table_rows_of_their_elements(self, tiny_model, small_records):
        batch = pack([tiny_model.prepare(record) for record in small_records[:3]])
        inputs = tiny_model.inputs(batch)
        assert inputs.node_feats.data.tobytes() == batch.graph.node_feats.tobytes()
        assert inputs.coords.data.tobytes() == batch.cloud.coords.tobytes()
        table = tiny_model.store["enc.embed"].data
        rows = [table[tiny_model.vocab.index(z)] for z in batch.cloud.atomic_numbers]
        assert inputs.emb.data.tobytes() == np.stack(rows).tobytes()

    def test_a_model_without_the_encoder_reads_only_node_features(self, small_records):
        model = Model(tiny_model_config(ablate_3d=True), vocab=(1, 6, 7, 8), task_names=("rg",))
        inputs = model.inputs(model.prepare(small_records[0]))
        assert inputs.coords is None and inputs.emb is None
        assert "enc.embed" not in dict(model.store.items())

    def test_a_model_without_the_pointwise_stack_reads_no_coordinates(self, small_records):
        model = Model(tiny_model_config(ablate_pointwise=True), vocab=(1, 6, 7, 8), task_names=("rg",))
        inputs = model.inputs(model.prepare(small_records[0]))
        assert inputs.coords is None and inputs.emb is not None

    def test_given_inputs_replace_the_batch_arrays(self, tiny_model, small_records):
        batch = tiny_model.prepare(small_records[2])
        default, _ = tiny_model.forward(batch)
        given_inputs, _ = tiny_model.forward(batch, inputs=tiny_model.inputs(batch))
        assert given_inputs.data.tobytes() == default.data.tobytes()
        moved = tiny_model.inputs(batch)._replace(coords=Value(batch.cloud.coords * 2.0))
        assert not np.array_equal(tiny_model.forward(batch, inputs=moved)[0].data, default.data)

    @pytest.mark.parametrize("bonded", [False, True], ids=["cutoff", "bonded"])
    def test_labels_are_not_model_input(self, tiny_cfg, bonded):
        # two records that differ only in their target values prepare to the same bytes, to train on or to serve
        record = bonded_record(seed=3) if bonded else make_records(1, seed=9, n_atoms_range=(7, 9))[0]
        relabeled = replace(record, targets={task: 17.5 - 3.0 * value for task, value in record.targets.items()})
        model = Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=tuple(record.targets), bonded=bonded)

        def arrays(batch):
            held = {f"{part}.{name}": value for part in ("graph", "cloud")
                    for name, value in vars(getattr(batch, part)).items() if isinstance(value, np.ndarray)}
            held.update(offsets=batch.offsets, order=batch.order)
            return {name: value.tobytes() for name, value in held.items()}

        for training in (False, True):
            got = arrays(model.prepare(relabeled, training))
            assert got == arrays(model.prepare(record, training))
            assert {"graph.node_feats", "graph.edges", "graph.edge_feats", "cloud.coords"} <= set(got)

    def test_an_unknown_element_names_the_molecule(self, tiny_cfg, small_records):
        model = Model(tiny_cfg, vocab=(1, 6), task_names=("rg",))
        record = next(r for r in small_records if not set(r.atomic_numbers) <= {1, 6})
        with pytest.raises(UnknownElement, match=rf"^molecule {record.id}: atomic number \d+ not in vocabulary"):
            model.prepare(record)


    @pytest.mark.parametrize("tasks", [("u0", "gap"), ("gap", "gap")], ids=["unsorted", "repeated"])
    def test_task_names_are_sorted_and_distinct(self, tiny_cfg, tasks):
        # the target rows and the normalizer hold their columns in sorted task order and the head's columns
        # pair with them by position: a model whose tasks were in another order would score u0 against gap
        with pytest.raises(InvalidConfig, match=re.escape(f"task names must be sorted and distinct, got {tasks}")):
            Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=tasks)
        record = replace(make_records(1, seed=1)[0], targets={"u0": 1.0, "gap": 2.0})
        assert Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=("gap", "u0")).prepare(record).graph.n_nodes > 0

class TestProjectBeforeGather:
    def test_no_edge_or_view_input_is_built(self, monkeypatch):
        # paper widths on a cutoff molecule: every affine map takes node, edge
        # or view rows of its own, never the joined per-edge or per-view input.
        # Every product of dense, matmul and message_layer goes through
        # _rows_matmul, so the fused message layer's operands are seen too
        cfg = ModelConfig(encoder=EncoderConfig(k=4), gnn=GnnConfig())
        record = make_records(1, seed=3, n_atoms_range=(12, 12))[0]
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=sorted(record.targets))
        batch = model.prepare(record)
        n_edges, n_atoms = batch.graph.n_edges, batch.graph.n_nodes
        shapes = []

        def recording(x, W, real=ad._rows_matmul):
            shapes.append(x.shape)
            return real(x, W)

        monkeypatch.setattr(ad, "_rows_matmul", recording)
        model.predict(record)
        model.forward(batch, training=True)
        assert n_edges > 0
        assert (n_edges, 2 * cfg.gnn.hidden + model.d_edge) not in shapes
        assert (cfg.encoder.k, n_atoms, 3 + cfg.encoder.embed_dim) not in shapes
        # the parts that replace them: edge features, node states, rotated views, embedding rows
        for part in [(n_edges, model.d_edge), (n_atoms, cfg.gnn.hidden), (cfg.encoder.k, n_atoms, 3),
                     (n_atoms, cfg.encoder.embed_dim)]:
            assert part in shapes, part
        # the message layer's own operands: node states, summed hidden rows and [h | m] rows
        for part in [(n_atoms, cfg.gnn.message_width), (n_atoms, cfg.gnn.hidden + cfg.gnn.message_width)]:
            assert part in shapes, part


class TestPrepareChecksOnce:
    def test_record_arrays_are_checked_once(self, tiny_model, small_records, monkeypatch):
        from rotenc.geometry import PointCloud

        checked = []
        for cls in (PointCloud, MoleculeRecord):
            def counting(self, real=cls.__post_init__, name=cls.__name__):
                checked.append(name)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        tiny_model.prepare(small_records[0])
        assert checked == ["PointCloud"]

    def test_built_graph_is_not_checked_again(self, tiny_model, small_records, monkeypatch):
        # build_graph and pack make their graphs from checked arrays; a graph of outside arrays is checked
        from rotenc.gnn import MolecularGraph

        checked = []

        def counting(self, real=MolecularGraph.__post_init__):
            checked.append(self.n_edges)
            real(self)

        monkeypatch.setattr(MolecularGraph, "__post_init__", counting)
        molecules = [tiny_model.prepare(record) for record in small_records[:3]]
        pack(molecules)
        assert checked == []
        graph = molecules[0].graph
        MolecularGraph(graph.node_feats, graph.edges, graph.edge_feats)
        assert checked == [graph.n_edges]

    @pytest.mark.parametrize("edit,message", [
        (lambda r: r.coords.__setitem__((2, 1), np.nan), "coordinates must be finite"),
        (lambda r: r.atomic_numbers.__setitem__(3, 0), "atomic numbers must be positive"),
        (lambda r: r.coords.__setitem__((slice(None), 0), 1.7e308), "coordinates must be finite"),
    ], ids=["nan-after-construction", "zero-atomic-number", "centering-overflows"])
    def test_malformed_record_raises_where_it_did(self, tiny_model, edit, message):
        record = copy.deepcopy(make_records(1, seed=5, n_atoms_range=(6, 6))[0])
        edit(record)
        with pytest.raises(InvalidConfig, match=message):
            tiny_model.prepare(record)

    @pytest.mark.parametrize("align_mode", ["none", "post"])
    def test_a_molecule_at_the_coordinate_bound_trains_and_predicts(self, tiny_cfg, align_mode):
        # within MAX_RADIUS nothing overflows: centering, distances, the PCA frame, the float32 training copy
        coords = np.array([[MAX_RADIUS, 0, 0], [-MAX_RADIUS, 0, 0], [0, 0.5 * MAX_RADIUS, 0],
                           [0, 0, 0.25 * MAX_RADIUS]])
        record = MoleculeRecord(id="wide", atomic_numbers=[6, 6, 8, 1], coords=coords, bonds=None,
                                targets={"rg": 1.0})
        cfg = replace(tiny_cfg, encoder=replace(tiny_cfg.encoder, align_mode=align_mode))
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",))
        assert np.all(np.isfinite(model.predict(record)))
        with model.store.float32():
            y_hat, u = model.forward(lowered(model.prepare(record, training=True)), training=True)
            ad.backward(loss(y_hat, np.ones((1, 1), dtype=np.float32), u, 0.1))
        assert all(np.all(np.isfinite(param.grad)) for _, param in model.store.items())


# the paper model and each --ablate variant, as ModelConfig overrides
VARIANTS = {"default": {}} | {flag: {field: True} for flag, field in ABLATIONS.items()}


@st.composite
def gate_records(draw):
    """1-12 atoms at a scale from 1e-8 to past MAX_RADIUS, some coincident or flat, bonded or not,
    from a pool with one element (9) outside the gate models' vocabulary."""
    n = draw(st.integers(1, 12))
    coords = draw(arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0))) * 10.0 ** draw(st.floats(-8.0, 6.5))
    shape = draw(st.sampled_from(["generic", "coincident", "zero-axis"]))
    if shape == "coincident":
        coords[draw(st.integers(0, n - 1))] = coords[0]
    elif shape == "zero-axis":
        coords[:, draw(st.integers(0, 2))] = 0.0
    z = draw(st.lists(st.sampled_from([1, 6, 7, 8]), min_size=n, max_size=n))
    if draw(st.integers(0, 9)) == 0:
        z[draw(st.integers(0, n - 1))] = 9
    bonds = None
    if draw(st.booleans()):
        bonds = [(i, i + 1, 1) for i in range(n - 1)]
        if n > 1:  # more bonds, each from an atom u to another atom u + step
            extra = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from([1, 2, 3]))
            bonds += [(u, (u + step) % n, order) for u, step, order in draw(st.lists(extra, max_size=n))]
    return MoleculeRecord(id=f"gate{n}", atomic_numbers=z, coords=coords, bonds=bonds, targets={"y": 0.5})


class TestPrepareIsTheGate:
    """``Model.prepare`` decides whether a record fits a model: it refuses it with an InputError naming
    the molecule, or every inference entry point returns finite values."""

    @pytest.mark.parametrize("bonded", [False, True], ids=["cutoff-model", "bonded-model"])
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_a_record_of_the_other_graph_kind_is_refused_by_id(self, variant, bonded):
        model = Model(tiny_model_config(**VARIANTS[variant]), vocab=(1, 6, 7, 8), task_names=("y",), bonded=bonded)
        record = bonded_record(seed=3)
        if bonded:
            record = replace(record, id="free", bonds=None)
        message = ("molecule free: has no bonds, the model reads bonded graphs" if bonded
                   else "molecule bonded3: has bonds, the model reads cutoff graphs")
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            model.prepare(record)
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            model.prepare(record, training=True)

    @given(gate_records(), st.booleans(), st.sampled_from(list(VARIANTS)), st.sampled_from(["none", "post"]))
    @settings(max_examples=150, deadline=None)
    def test_refused_by_id_or_finite_everywhere(self, record, bonded, variant, align_mode):
        encoder = EncoderConfig(widths=(16, 8), embed_dim=4, k=3, seed=1, align_mode=align_mode)
        model = Model(tiny_model_config(encoder=encoder, **VARIANTS[variant]), vocab=(1, 6, 7, 8),
                      task_names=("y",), bonded=bonded)
        try:
            model.prepare(record)
        except InputError as exc:
            assert str(exc).startswith(f"molecule {record.id}: ")
            return
        assert (record.bonds is not None) == bonded
        assert np.all(np.isfinite(model.predict(record)))
        scores, coord_part = atom_importance(model, record, 0)
        assert np.all(np.isfinite(scores)) and np.all(np.isfinite(coord_part))
        try:
            report = measure_invariance(model, [record], 2)
        except InvalidConfig as exc:
            # each rotated copy is prepared as a record of its own, and rounding in the rotation can put two
            # bonded atoms of one element that lie an ulp apart (x = 0 and x = 3e-308 at y = z = 1) at one position
            assert bonded and re.fullmatch(f"molecule {record.id}: bonded atoms .* are one element at one position",
                                           str(exc))
            return
        assert np.isfinite(report.mean_dev) and np.isfinite(report.max_dev)
