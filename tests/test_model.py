import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import bonded_record, tiny_model_config
from rotenc import autodiff as ad
from rotenc import encoder3d
from rotenc.autodiff import ParameterStore, Value
from rotenc.data import MoleculeRecord, SplitSpec
from rotenc.encoder3d import EncoderConfig
from rotenc.errors import InvalidConfig, NoData, ShapeError, TooFewPoints
from rotenc.geometry import sample_rotations
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
from rotenc.packing import pack
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
    return [a.tobytes() for a in (graph.node_feats, graph.edges, graph.edge_feats, graph.targets,
                                  cloud.coords, cloud.atomic_numbers)]


class TestFuse:
    def test_concat_order(self):
        u = fuse(Value(np.array([1.0, 2.0])), Value(np.array([3.0])))
        np.testing.assert_array_equal(u.data, [1.0, 2.0, 3.0])

    def test_zero_fingerprint_keeps_graph_prefix(self):
        g = np.array([0.5, -0.5, 2.0])
        u = fuse(Value(g), Value(np.zeros(2)))
        np.testing.assert_array_equal(u.data[:3], g)

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
        out = predict_head(Value(np.ones(4)), store)
        np.testing.assert_array_equal(out.data, [0.0, 0.0])

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
            out = predict_head(Value(np.array([x])), store)
            np.testing.assert_allclose(out.data, [w * x + b])

    def test_gradients_through_head(self):
        store = ParameterStore()
        rng = np.random.default_rng(0)
        store.add("head.W1", rng.normal(size=(5, 8)))
        store.add("head.b1", rng.normal(size=8))
        store.add("head.W2", rng.normal(size=(8, 1)))
        store.add("head.b2", rng.normal(size=1))
        u = rng.normal(size=5)

        def f(s):
            return ad.mse(predict_head(Value(u), s), np.array([0.3]))

        assert ad.gradient_check(f, store, h=1e-5, n_probe=30, seed=1) <= 1e-5


class TestLoss:
    def test_lambda_zero_is_pure_mse(self):
        out = loss(Value(np.array([0.0])), np.array([2.0]), Value(np.ones(3)), 0.0)
        assert out.data == 4.0

    def test_penalty_arithmetic(self):
        out = loss(Value(np.array([1.0, 2.0])), np.array([1.0, 2.0]),
                   Value(np.array([1.0, -2.0, 0.5])), 0.1)
        np.testing.assert_allclose(out.data, 0.35)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss(Value(np.zeros(2)), np.zeros(3), Value(np.zeros(2)), 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_decomposition_identity(self, seed):
        rng = np.random.default_rng(seed)
        y_hat, y = rng.normal(size=3), rng.normal(size=3)
        u = rng.normal(size=5)
        lam = float(rng.uniform(0, 0.5))
        with_pen = loss(Value(y_hat), y, Value(u), lam).data
        without = loss(Value(y_hat), y, Value(u), 0.0).data
        np.testing.assert_allclose(with_pen - without, lam * np.sum(np.abs(u)), rtol=1e-12,
                                   atol=1e-14)

    def test_view_rows_average_the_per_row_losses(self):
        rng = np.random.default_rng(3)
        y_hat, y, u = rng.normal(size=(4, 2)), rng.normal(size=2), rng.normal(size=(4, 5))
        per_row = [loss(Value(y_hat[v]), y, Value(u[v]), 0.1).data for v in range(4)]
        np.testing.assert_allclose(loss(Value(y_hat), y, Value(u), 0.1).data, np.mean(per_row),
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
        model = Model(tiny_model_config(ablate_3d=ablate_3d), vocab=(1, 6), task_names=("y",))
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
        taped, _ = tiny_model.forward(pack([tiny_model.prepare(record)]))
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
        scores = atom_importance(tiny_model, small_records[0], 0)
        assert scores.shape == (small_records[0].n_atoms,)
        assert np.all(scores >= 0) and np.all(scores <= 1)
        assert scores.max() == 1.0

    def test_zero_3d_path_kills_coordinate_gradients(self, tiny_cfg, small_records):
        model = Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=2)
        # zero the head columns that read the fingerprint: no gradient can
        # reach the encoder inputs
        w1 = model.store["head.W1"]
        w1.data[model.cfg.g_dim :, :] = 0.0
        _, coord_part = atom_importance(model, small_records[0], 0, return_components=True)
        np.testing.assert_array_equal(coord_part, np.zeros_like(coord_part))

    def test_reorder_consistency(self, tiny_model, small_records):
        record = small_records[1]
        perm = np.random.default_rng(2).permutation(record.n_atoms)
        a = atom_importance(tiny_model, record, 0)
        b = atom_importance(tiny_model, permuted_record(record, perm), 0)
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
                    y, _ = model.forward(pack([replace(moved, graph=graph)]))
                    if sign > 0:
                        plus = y.data[0, 0]
                    else:
                        sq += ((plus - y.data[0, 0]) / (2 * h)) ** 2
            sensitivity[atom] = np.sqrt(sq)
        return sensitivity

    def test_matches_finite_difference_sensitivity(self, small_records):
        # geometry-driven model (no atom-feature inputs to the encoder, head
        # reads only the fingerprint): the score is pure coordinate
        # sensitivity, which the finite-difference oracle measures directly
        from scipy.stats import spearmanr

        cfg = tiny_model_config(
            encoder=EncoderConfig(widths=(16, 8), use_atom_embedding=False,
                                  k=3, seed=1, align_mode="none")
        )
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=5)
        model.store["head.W1"].data[: cfg.g_dim, :] = 0.0
        for record in small_records[:3]:
            scores = atom_importance(model, record, 0)
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
        _, coord_part = atom_importance(model, record, 0, return_components=True)
        sensitivity = self._fd_coordinate_sensitivity(model, record)
        np.testing.assert_allclose(coord_part, sensitivity, rtol=1e-5)

    def test_bad_task_index(self, tiny_model, small_records):
        with pytest.raises(InvalidConfig):
            atom_importance(tiny_model, small_records[0], 5)


class TestObjectiveVariants:
    def test_per_view_objective_runs_and_differs(self, small_records):
        cfg = tiny_model_config(objective="average_loss")
        k = cfg.encoder.k
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=3)
        record = small_records[0]
        batch = pack([model.prepare(record, training=True)])
        rotations = sample_rotations(k, 5)
        # training passes fold batch statistics into the running estimates;
        # the eval pass at the end gets the fresh model's state back
        bn_snapshot = copy.deepcopy(model.bn_states)
        y_views, u_views = model.forward(batch, training=True, rotations=rotations)
        assert y_views.shape == (k, 1, 1) and u_views.shape == (k, 1, cfg.d_u)
        # one graph vector, repeated for every view row
        g_rows = u_views.data[:, 0, : cfg.g_dim]
        np.testing.assert_array_equal(g_rows, np.broadcast_to(g_rows[0], g_rows.shape))
        # row v is the single-view pass of rotation v (up to the summation
        # order BLAS picks for a k-row versus a 1-row product)
        for v, rotation in enumerate(rotations):
            y_one, _ = model.forward(batch, training=True, rotations=[rotation])
            np.testing.assert_allclose(y_views.data[v], y_one.data[0], rtol=1e-12, atol=0)
        # inference fuses the view-averaged fingerprint first: one prediction
        model.bn_states = bn_snapshot
        fused, _ = model.forward(pack([model.prepare(record)]), training=False)
        assert fused.shape == (1, 1)


class TestProjectBeforeGather:
    def test_no_edge_or_view_input_is_built(self, monkeypatch):
        # paper widths on a cutoff molecule: every affine map takes node, edge
        # or view rows of its own, never the joined per-edge or per-view input
        cfg = ModelConfig(encoder=EncoderConfig(k=4), gnn=GnnConfig())
        record = make_records(1, seed=3, n_atoms_range=(12, 12))[0]
        model = Model(cfg, vocab=(1, 6, 7, 8), task_names=sorted(record.targets))
        batch = pack([model.prepare(record)])
        n_edges, n_atoms = batch.graph.n_edges, batch.graph.n_nodes
        shapes = []
        for name in ("dense", "matmul"):
            def recording(x, *args, real=getattr(ad, name), **kwargs):
                for part in x if isinstance(x, tuple) else (x,):
                    shapes.append((len(part.indices), part.source.shape[-1]) if isinstance(part, ad.Gather)
                                  else np.shape(getattr(part, "data", part)))
                return real(x, *args, **kwargs)

            monkeypatch.setattr(ad, name, recording)
        model.predict(record)
        model.forward(batch, training=True)
        assert n_edges > 0
        assert (n_edges, 2 * cfg.gnn.hidden + model.d_edge) not in shapes
        assert (cfg.encoder.k, n_atoms, 3 + cfg.encoder.embed_dim) not in shapes
        # the parts that replace them: edge features, gathered node states, rotated views, embedding rows
        for part in [(n_edges, model.d_edge), (n_edges, cfg.gnn.hidden), (cfg.encoder.k, n_atoms, 3),
                     (n_atoms, cfg.encoder.embed_dim)]:
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow of the far record
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
