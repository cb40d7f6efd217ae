import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rotenc.data import (
    BOND_ORDERS,
    RBF_CENTERS,
    RBF_GAMMA,
    RBF_N_CENTERS,
    MoleculeRecord,
    SplitSpec,
    atomic_write,
    build_graph,
    convert_xyz,
    dataset_targets,
    dataset_vocab,
    edge_width,
    load_dataset,
    normalize_targets,
    parse_xyz,
    rbf_expand,
    reorder_atoms,
    split,
    vocab_rows,
    write_dataset,
)
from rotenc.errors import (
    ConstantTarget,
    DuplicateId,
    InvalidConfig,
    InvalidSplit,
    NoData,
    ParseError,
    TooFewPoints,
    UnknownElement,
)

GOLDEN = Path(__file__).parent / "data"


def water_record(with_bonds=True):
    return MoleculeRecord(
        id="water",
        atomic_numbers=[8, 1, 1],
        coords=np.array([[0.0, 0.0, 0.1173], [0.0, 0.7572, -0.4692], [0.0, -0.7572, -0.4692]]),
        bonds=[(0, 1, 1), (0, 2, 1)] if with_bonds else None,
        targets={"u0": -76.4045},
    )


def own(record) -> dict:
    """``build_graph``'s vocabulary: the record's own elements."""
    return {"vocab": dataset_vocab([record])}


class TestAtomicWrite:
    def test_a_finished_write_replaces_the_file_and_leaves_nothing_else(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"  # the target changes only once the block ends
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_a_failed_first_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="writer failed"):
            with atomic_write(tmp_path / "out.bin", "wb") as fh:
                fh.write(b"part")
                raise RuntimeError("writer failed")
        assert list(tmp_path.iterdir()) == []


class TestLoadDataset:
    def test_golden_file(self):
        records = load_dataset(GOLDEN / "golden.jsonl")
        assert [r.id for r in records] == ["ethanol", "methane", "water"]  # sorted by id
        water = records[-1]
        assert water.n_atoms == 3
        assert water.bonds == [(0, 1, 1), (0, 2, 1)]
        assert water.targets == {"u0": -76.4045, "gap": 0.3812}

    def test_single_molecule_file(self, tmp_path):
        path = tmp_path / "one.jsonl"
        path.write_text(
            json.dumps({"id": "m", "z": [1, 1, 8], "xyz": [0.0] * 9, "targets": {"e": 1.0}}) + "\n"
        )
        records = load_dataset(path)
        assert len(records) == 1 and records[0].n_atoms == 3

    def test_nan_coordinate_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            json.dumps({"id": "a", "z": [1], "xyz": [0.0, 0.0, 0.0], "targets": {"e": 1.0}}),
            '{"id": "b", "z": [1], "xyz": [NaN, 0.0, 0.0], "targets": {"e": 1.0}}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line_number == 2

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "z": [1], "xyz": [0,0,0], "targets": {"e": 1}}\n{oops\n')
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line_number == 2

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        line = json.dumps({"id": "x", "z": [1], "xyz": [0.0, 0.0, 0.0], "targets": {"e": 1.0}})
        path.write_text(line + "\n" + line + "\n")
        with pytest.raises(DuplicateId):
            load_dataset(path)

    def test_roundtrip_identity(self, tmp_path):
        from rotenc.synthetic import make_records

        records = make_records(5, seed=1)
        path = tmp_path / "rt.jsonl"
        write_dataset(records, path)
        back = load_dataset(path)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.id == b.id
            assert a.atomic_numbers == b.atomic_numbers
            assert np.array_equal(a.coords, b.coords)  # bit-exact float round-trip
            assert a.targets == b.targets
            assert a.bonds == b.bonds

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"id": "a", "z": [1], "targets": {"e": 1}}\n')
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert "xyz" in str(exc.value)

    @pytest.mark.parametrize("line, message", [
        (b"3", "JSON object"),
        (b"[" * 100_000, "invalid JSON"),  # nested deeper than the decoder's recursion limit
        (b'{"id": "a", "z": [1], "xyz": [1' + b"0" * 400 + b', 0, 0], "targets": {"e": 1}}', "xyz"),
        (b'{"id": "a", "z": [1], "xyz": [0, 0, 0], "targets": {"e": 1' + b"0" * 400 + b"}}", "target"),
        (b'{"id": "a", "z": [1, 1], "xyz": [0, 0, 0, 1, 0, 0], "bonds": [[1e999, 0, 1]], '
         b'"targets": {"e": 1}}', "bonds"),
        (b'{"id": "caf\xe9", "z": [1], "xyz": [0, 0, 0], "targets": {"e": 1}}', "UTF-8"),
        (b'{"id": "empty", "z": [], "xyz": [], "targets": {"e": 1}}', "record empty: a molecule needs at least one"),
        (b'{"id": "a", "z": [true], "xyz": [0, 0, 0], "targets": {"e": 1}}', "z must be"),
        (b'{"id": "a", "z": [1], "xyz": [false, 0, 0], "targets": {"e": 1}}', "xyz"),
        (b'{"id": "a", "z": [1], "xyz": [0, 0, 0], "targets": {"e": true}}', "target 'e'"),
        (b'{"id": "a", "z": [1, 1], "xyz": [0, 0, 0, 1, 0, 0], "bonds": [[0, "1", 1.9]], "targets": {"e": 1}}',
         "bonds"),
        (b'{"id": "a", "z": [1, 1], "xyz": [0, 0, 0, 1, 0, 0], "bonds": [[0, 1.7, 1]], "targets": {"e": 1}}',
         "bonds"),
        (b'{"id": "a", "z": [1, 1], "xyz": [0, 0, 0, 1, 0, 0], "bonds": [[0, 1, true]], "targets": {"e": 1}}',
         "bonds"),
    ], ids=["not-object", "deep-nesting", "huge-int-coordinate", "huge-int-target", "infinite-bond",
            "not-utf8", "no-atoms", "bool-atomic-number", "bool-coordinate", "bool-target", "string-and-float-bond",
            "float-bond-endpoint", "bool-bond-order"])
    def test_malformed_line_named(self, tmp_path, line, message):
        path = tmp_path / "m.jsonl"
        path.write_bytes(GOLDEN.joinpath("golden.jsonl").read_bytes() + line + b"\n")
        with pytest.raises(ParseError, match=message) as exc:
            load_dataset(path)
        assert exc.value.line_number == 4
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError):
            return
        if isinstance(obj, dict) and {"id", "z", "xyz", "targets"} <= obj.keys():
            # the constructor every record goes through refuses what the reader refuses, in the same words
            with pytest.raises(InvalidConfig, match=message):
                MoleculeRecord(id=obj["id"], atomic_numbers=obj["z"], coords=obj["xyz"], bonds=obj.get("bonds"),
                               targets=obj["targets"])


WATER = {"id": "w", "atomic_numbers": [8, 1, 1], "coords": [0, 0, 0.1, 0, 0.8, -0.5, 0, -0.8, -0.5], "bonds": None,
         "targets": {"e": 1.0}}


class TestMoleculeRecord:
    @pytest.mark.parametrize("field, value, message", [
        ("id", 5, "^record 5: id must be a non-empty string$"),
        ("id", "", "^record '': id must be a non-empty string$"),
        ("atomic_numbers", "CC", "^record w: z must be"),
        ("atomic_numbers", [8, 1.0, 1], "^record w: z must be"),
        ("atomic_numbers", np.array([8.0, 1.0, 1.0]), "^record w: z must be"),
        ("atomic_numbers", [8, 0, 1], "^record w: z must be"),
        ("coords", [0.0] * 4, "^record w: xyz must be 9 finite numbers"),
        ("coords", [0.0] * 8 + ["0"], "^record w: xyz must be"),
        ("coords", [[0.0] * 3] * 3, "^record w: xyz must be"),
        ("coords", np.zeros((3, 3), dtype=bool), "^record w: xyz must be"),
        ("coords", np.zeros((1, 9)), "^record w: xyz must be"),
        ("bonds", [(0, 1)], "^record w: bonds must be"),
        ("bonds", [(0, np.float64(1.0), 1)], "^record w: bonds must be"),
        ("bonds", [(0, 3, 1)], r"^record w: bond \(0, 3\) references invalid atoms$"),
        ("targets", {"e": "1"}, "^record w: target 'e' needs a string name and a finite number$"),
        ("targets", {"e": np.bool_(True)}, "^record w: target 'e' needs a string name and a finite number$"),
        ("targets", {}, "^record w: targets must be a non-empty dict$"),
    ], ids=["int-id", "empty-id", "string-z", "float-in-z", "float-array-z", "zero-z", "four-coordinates",
            "string-coordinate", "nested-list-coordinates", "bool-array-coordinates", "one-by-nine-coordinates",
            "two-field-bond", "numpy-float-endpoint", "endpoint-out-of-range", "string-target", "numpy-bool-target",
            "no-targets"])
    def test_a_broken_rule_is_an_invalid_config_naming_the_record(self, field, value, message):
        with pytest.raises(InvalidConfig, match=message):
            MoleculeRecord(**{**WATER, field: value})

    def test_numpy_input_is_stored_as_python_values(self):
        record = MoleculeRecord(id="w", atomic_numbers=np.array([8, 1, 1], dtype=np.uint8),
                                coords=np.arange(9, dtype=np.float32).reshape(3, 3),
                                bonds=[np.array([0, 1, 1]), (np.int64(0), np.int32(2), 1)],
                                targets={"e": np.float32(0.5), "f": np.int64(2)})
        assert record.atomic_numbers == [8, 1, 1] and all(type(z) is int for z in record.atomic_numbers)
        assert record.coords.dtype == np.float64 and record.coords.shape == (3, 3)
        assert record.bonds == [(0, 1, 1), (0, 2, 1)] and all(type(x) is int for b in record.bonds for x in b)
        assert record.targets == {"e": 0.5, "f": 2.0} and all(type(v) is float for v in record.targets.values())


@st.composite
def record_lists(draw):
    """1-5 records of 1-12 atoms, bonded or not, with Python or numpy integers, flat or (n, 3) coordinates,
    1-3 targets, and ids drawn from a pool small enough to repeat."""
    records = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 12))
        z = draw(st.lists(st.integers(1, 53), min_size=n, max_size=n))
        z = draw(st.sampled_from([z, [np.int64(x) for x in z], np.array(z, dtype=np.int32)]))
        coords = draw(arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False)))
        coords = coords if draw(st.booleans()) else coords.ravel().tolist()
        bonds = None
        if draw(st.booleans()):
            pairs = st.tuples(st.integers(0, n - 1), st.integers(1, max(n - 1, 1)), st.integers(1, 4))
            bonds = [(u, (u + step) % n, order) for u, step, order in draw(st.lists(pairs, max_size=n)) if n > 1]
        names = draw(st.lists(st.sampled_from(["gap", "mu", "u0"]), min_size=1, max_size=3, unique=True))
        targets = {t: draw(st.floats(allow_nan=False, allow_infinity=False)) for t in names}
        records.append(MoleculeRecord(id=draw(st.sampled_from(["m0", "m1", "m2", "m3", "m4", "m5"])),
                                      atomic_numbers=z, coords=coords, bonds=bonds, targets=targets))
    return records


class TestWriteThenLoad:
    @given(record_lists())
    @settings(max_examples=100, deadline=None)
    def test_records_come_back_sorted_and_equal_or_a_repeated_id_writes_nothing(self, records):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            ids = [r.id for r in records]
            repeated = [rid for k, rid in enumerate(ids) if rid in ids[:k]]
            if repeated:
                with pytest.raises(DuplicateId, match=f"^duplicate id '{repeated[0]}'$"):
                    write_dataset(records, path)
                assert not path.exists() and not os.listdir(tmp)
                return
            write_dataset(records, path)
            back = load_dataset(path)
        assert [r.id for r in back] == sorted(ids)
        for a, b in zip(sorted(records, key=lambda r: r.id), back):
            assert a.atomic_numbers == b.atomic_numbers
            assert a.coords.tobytes() == b.coords.tobytes()
            assert a.bonds == b.bonds
            assert a.targets == b.targets


def _per_pair_graph(record, cutoff, edge_features="auto"):
    """The per-pair loop ``build_graph`` once ran, kept as its oracle: (edges, edge_feats)."""
    pairs, feats = [], []
    if record.bonds is not None:
        for u, v, order in record.bonds:
            f = np.zeros(len(BOND_ORDERS) + 1)
            f[BOND_ORDERS.index(order) if order in BOND_ORDERS else len(BOND_ORDERS)] = 1.0
            pairs.extend([(u, v), (v, u)])
            feats.extend([f, f])
    else:
        centers = np.linspace(0.0, 6.0, 32)
        for i in range(record.n_atoms):
            for j in range(i + 1, record.n_atoms):
                dist = float(np.linalg.norm(record.coords[i] - record.coords[j]))
                if dist < cutoff:
                    f = np.exp(-10.0 * (dist - centers) ** 2)
                    pairs.extend([(i, j), (j, i)])
                    feats.extend([f, f])
    if edge_features == "constant":
        feats = [np.ones(1) for _ in pairs]
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if feats:
        return edges, np.stack(feats)
    width = 1 if edge_features == "constant" else (
        len(BOND_ORDERS) + 1 if record.bonds is not None else RBF_N_CENTERS)
    return edges, np.zeros((0, width))


def assert_graph_matches_oracle(record, cutoff, edge_features="auto"):
    """``build_graph`` gives the oracle's edges stably sorted by destination, feature rows along."""
    graph = build_graph(record, cutoff, **own(record), edge_features=edge_features)
    edges, feats = _per_pair_graph(record, cutoff, edge_features)
    order = sorted(range(len(edges)), key=lambda k: edges[k, 1])  # Python's sort is stable
    edges, feats = edges[order].reshape(-1, 2), feats[order]
    assert graph.edges.dtype == edges.dtype and np.array_equal(graph.edges, edges)
    assert graph.edge_feats.shape == feats.shape and graph.edge_feats.dtype == feats.dtype
    assert graph.edge_feats.tobytes() == feats.tobytes()


def cloud_record(coords, bonds=None):
    return MoleculeRecord(id="c", atomic_numbers=[6] * len(coords), coords=coords, bonds=bonds,
                          targets={"e": 0.0})


class TestBuildGraphMatchesPerPairLoop:
    @given(st.integers(1, 24).flatmap(lambda n: arrays(
        np.float64, (n, 3), elements=st.floats(-6.0, 6.0, allow_nan=False))),
        st.sampled_from([0.5, 1.7, 3.0, 5.0, 12.0]),
        st.sampled_from(["auto", "constant"]))
    @settings(max_examples=150, deadline=None)
    def test_random_clouds(self, coords, cutoff, edge_features):
        assert_graph_matches_oracle(cloud_record(coords), cutoff, edge_features)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_clouds(self, seed, n):
        coords = np.random.default_rng(seed).normal(size=(n, 3)) * 2.0
        assert_graph_matches_oracle(cloud_record(coords), 5.0)

    @pytest.mark.parametrize("edge_features", ["auto", "constant"])
    def test_one_atom(self, edge_features):
        assert_graph_matches_oracle(cloud_record(np.zeros((1, 3))), 5.0, edge_features)

    @pytest.mark.parametrize("edge_features", ["auto", "constant"])
    def test_no_pair_inside_cutoff(self, edge_features):
        coords = np.arange(12.0).reshape(4, 3) * 10.0
        graph = build_graph(cloud_record(coords), 5.0, **own(cloud_record(coords)), edge_features=edge_features)
        assert graph.n_edges == 0
        assert_graph_matches_oracle(cloud_record(coords), 5.0, edge_features)

    @pytest.mark.parametrize("edge_features", ["auto", "constant"])
    def test_bonds(self, edge_features):
        coords = np.random.default_rng(5).normal(size=(5, 3))
        bonds = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 5), (4, 0, 1)]
        assert_graph_matches_oracle(cloud_record(coords, bonds), 5.0, edge_features)
        assert_graph_matches_oracle(cloud_record(coords, []), 5.0, edge_features)


class TestBuildGraph:
    def test_cutoff_graph_two_atoms(self):
        rec = MoleculeRecord(id="a", atomic_numbers=[1, 1],
                             coords=np.array([[0.0, 0, 0], [1.0, 0, 0]]), bonds=None,
                             targets={"e": 0.0})
        graph = build_graph(rec, cutoff=1.5, **own(rec))
        assert graph.n_edges == 2
        graph_empty = build_graph(rec, cutoff=0.5, **own(rec))
        assert graph_empty.n_edges == 0

    def test_bonded_water_ignores_cutoff(self):
        graph = build_graph(water_record(), cutoff=0.001, **own(water_record()))
        assert graph.n_edges == 4  # two bonds, both directions

    def test_edge_symmetry_with_equal_features(self):
        from rotenc.synthetic import make_records

        rec = make_records(1, seed=3)[0]
        graph = build_graph(rec, cutoff=8.0, **own(rec))
        pairs = {tuple(e) for e in graph.edges.tolist()}
        feature_of = {tuple(e): f for e, f in zip(graph.edges.tolist(), graph.edge_feats)}
        for u, v in pairs:
            assert (v, u) in pairs
            assert np.array_equal(feature_of[(u, v)], feature_of[(v, u)])

    def test_zero_atoms_rejected(self):
        # refused as the record is made, so no graph is ever built without atoms
        with pytest.raises(InvalidConfig, match="^record none: a molecule needs at least one atom$"):
            MoleculeRecord(id="none", atomic_numbers=[], coords=np.zeros((0, 3)), bonds=None, targets={"e": 0.0})

    def test_vocab_one_hot_node_features(self):
        graph = build_graph(water_record(), vocab=(1, 8))
        np.testing.assert_array_equal(graph.node_feats, [[0, 1], [1, 0], [1, 0]])

    def test_unknown_element_with_vocab(self):
        with pytest.raises(UnknownElement):
            build_graph(water_record(), vocab=(1, 6))

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_vocab_rows_name_the_first_unknown_element(self, as_array):
        convert = np.array if as_array else list
        np.testing.assert_array_equal(vocab_rows((1, 6, 8), convert([8, 1, 6, 6])), [2, 0, 1, 1])
        assert vocab_rows((1, 6), convert([])).shape == (0,)
        for _ in range(2):  # the second call reuses the vocabulary's lookup and still checks every atom
            with pytest.raises(UnknownElement, match=r"^atomic number 7 not in vocabulary \[1, 6, 8\]$"):
                vocab_rows((1, 6, 8), convert([1, 7, 9]))

    def test_constant_edge_features(self):
        graph = build_graph(water_record(), **own(water_record()), edge_features="constant")
        assert graph.edge_feats.shape == (4, 1)
        assert np.all(graph.edge_feats == 1.0)

    @pytest.mark.parametrize("edge_features", ["auto", "constant"])
    @pytest.mark.parametrize("with_bonds", [True, False], ids=["bonded", "cutoff"])
    def test_edge_width_is_the_width_of_the_edge_features(self, with_bonds, edge_features):
        record = water_record(with_bonds)
        graph = build_graph(record, **own(record), edge_features=edge_features)
        assert graph.n_edges > 0
        assert graph.edge_feats.shape[1] == edge_width(with_bonds, edge_features)

    def test_bad_cutoff(self):
        rec = water_record(with_bonds=False)
        for cutoff in (0.0, float("nan"), float("inf")):
            with pytest.raises(InvalidConfig):
                build_graph(rec, cutoff=cutoff, **own(rec))


class TestRbfExpand:
    def test_peak_at_center(self):
        v = rbf_expand(float(RBF_CENTERS[5]))
        assert v[5] == 1.0

    def test_analytic_decay(self):
        v = rbf_expand(float(RBF_CENTERS[10]) + 1.0 / np.sqrt(RBF_GAMMA))
        np.testing.assert_allclose(v[10], np.exp(-1.0), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_depends_only_on_distance(self, seed):
        # reflections and rotations of the parent coordinates leave every
        # pairwise distance, hence every RBF feature, unchanged
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=3), rng.normal(size=3)
        d = float(np.linalg.norm(a - b))
        mirrored = float(np.linalg.norm(a * [-1, 1, 1] - b * [-1, 1, 1]))
        np.testing.assert_allclose(rbf_expand(d), rbf_expand(mirrored), atol=1e-12)

    @given(arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.floats(0.0, 50.0), st.sampled_from([0.0, 3.0, 6.0]))))
    @settings(max_examples=100, deadline=None)
    def test_array_equals_stacked_scalars(self, dists):
        out = rbf_expand(dists)
        assert out.shape == (dists.size, RBF_N_CENTERS)
        expected = np.array([rbf_expand(float(d)) for d in dists]).reshape(-1, RBF_N_CENTERS)
        assert out.tobytes() == expected.tobytes()

    def test_default_centers_are_a_read_only_constant(self):
        np.testing.assert_array_equal(RBF_CENTERS, np.linspace(0.0, 6.0, RBF_N_CENTERS))
        assert not RBF_CENTERS.flags.writeable


class TestNormalizer:
    def test_population_statistics(self):
        recs = [
            MoleculeRecord(id=f"r{i}", atomic_numbers=[1], coords=np.zeros((1, 3)), bonds=None,
                           targets={"e": float(v)})
            for i, v in enumerate([0.0, 2.0])
        ]
        norm = normalize_targets(recs, [0, 1])
        np.testing.assert_allclose(norm.mean, [1.0])
        np.testing.assert_allclose(norm.std, [1.0])

    def test_apply_invert_roundtrip(self):
        from rotenc.synthetic import make_records

        recs = make_records(10, seed=4)
        norm = normalize_targets(recs, list(range(10)))
        y = np.array([recs[3].targets["rg"]])
        np.testing.assert_allclose(norm.invert(norm.apply(y)), y, atol=1e-12)

    def test_constant_target_rejected(self):
        recs = [
            MoleculeRecord(id=f"r{i}", atomic_numbers=[1], coords=np.zeros((1, 3)), bonds=None,
                           targets={"e": 5.0})
            for i in range(3)
        ]
        with pytest.raises(ConstantTarget):
            normalize_targets(recs, [0, 1, 2])

    def test_statistics_use_training_split_only(self):
        from rotenc.synthetic import make_records

        recs = make_records(20, seed=5)
        train_idx = list(range(10))
        norm = normalize_targets(recs, train_idx)
        values = np.array([recs[i].targets["rg"] for i in train_idx])
        np.testing.assert_allclose(norm.mean, [values.mean()])
        np.testing.assert_allclose(norm.std, [values.std()])


class TestSplit:
    def test_five_folds_of_ten(self):
        recs = list(range(10))
        folds = split(recs, SplitSpec(mode="kfold", k_folds=5, seed=0))
        assert [len(f) for f in folds] == [2] * 5
        combined = np.concatenate(folds)
        assert sorted(combined.tolist()) == list(range(10))

    def test_same_seed_identical(self):
        recs = list(range(17))
        spec = SplitSpec(mode="kfold", k_folds=4, seed=9)
        a = split(recs, spec)
        b = split(recs, spec)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_holdout_fraction(self):
        train, test = split(list(range(10)), SplitSpec(mode="holdout", train_fraction=0.7, seed=1))
        assert len(train) == 7 and len(test) == 3
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_too_many_folds(self):
        with pytest.raises(InvalidSplit):
            split(list(range(3)), SplitSpec(mode="kfold", k_folds=5, seed=0))

    def test_bad_fraction(self):
        with pytest.raises(InvalidSplit):
            SplitSpec(mode="holdout", train_fraction=1.5)


class TestConvertXyz:
    def test_golden_conversion(self):
        records = convert_xyz(GOLDEN / "golden.xyz", GOLDEN / "golden_targets.csv")
        assert [r.id for r in records] == ["w01", "w02"]
        assert records[0].atomic_numbers == [8, 1, 1]
        assert records[1].atomic_numbers == [6, 1, 1, 1, 1]
        assert records[0].targets == {"u0": -76.4045, "gap": 0.3812}

    def test_parse_xyz_ids(self):
        mols = parse_xyz(GOLDEN / "golden.xyz")
        assert mols[0][0] == "w01" and mols[1][0] == "w02"

    def test_roundtrip_through_dataset_file(self, tmp_path):
        records = convert_xyz(GOLDEN / "golden.xyz", GOLDEN / "golden_targets.csv")
        path = tmp_path / "conv.jsonl"
        write_dataset(records, path)
        back = load_dataset(path)
        assert [r.id for r in back] == ["w01", "w02"]
        np.testing.assert_allclose(back[0].coords, records[0].coords)

    @pytest.mark.parametrize("text, line_number", [
        ("1\nm\nC 0 0 zero\n", 3),
        ("1\nm\nC 0 0 0\n-2\nm\n", 4),  # a negative count once looped forever
        ("1\nm\n" + "9" * 5000 + " 0 0 0\n", 3),  # too many digits for int()
    ], ids=["coordinate", "negative-count", "long-atomic-number"])
    def test_malformed_xyz_names_line(self, tmp_path, text, line_number):
        path = tmp_path / "m.xyz"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            parse_xyz(path)
        assert exc.value.line_number == line_number

    def test_non_decimal_digit_is_unknown_element(self, tmp_path):
        path = tmp_path / "m.xyz"
        path.write_text("1\nm\n\u00b2 0 0 0\n", encoding="utf-8")
        with pytest.raises(UnknownElement):
            parse_xyz(path)

    @pytest.mark.parametrize("table, line_number", [
        ("id,u0,gap\nw01,-76.4,0.38\nw02,-40.5\n", 3),
        ("id,u0,gap\nw01,-76.4,n/a\nw02,-40.5,0.5\n", 2),
    ], ids=["short-row", "non-numeric"])
    def test_malformed_target_row_named(self, tmp_path, table, line_number):
        targets = tmp_path / "t.csv"
        targets.write_text(table)
        with pytest.raises(ParseError) as exc:
            convert_xyz(GOLDEN / "golden.xyz", targets)
        assert exc.value.line_number == line_number

    def test_missing_target_row(self, tmp_path):
        targets = tmp_path / "t.csv"
        targets.write_text("id,u0\nw01,-76.4\n")
        with pytest.raises(InvalidConfig):
            convert_xyz(GOLDEN / "golden.xyz", targets)

    def test_block_without_atoms_named(self, tmp_path):
        xyz, targets = tmp_path / "m.xyz", tmp_path / "t.csv"
        xyz.write_text("1\nw01\nO 0 0 0\n0\nempty\n")
        targets.write_text("id,u0\nw01,-76.4\nempty,0.0\n")
        with pytest.raises(InvalidConfig, match="^record empty: a molecule needs at least one atom$"):
            convert_xyz(xyz, targets)


class TestDatasetHelpers:
    def test_vocab_sorted_unique(self):
        recs = [water_record()]
        assert dataset_vocab(recs) == (1, 8)

    def test_task_names_consistent(self, tmp_path):
        recs = load_dataset(GOLDEN / "golden.jsonl")
        names, values = dataset_targets(recs)
        assert names == ("gap", "u0")
        assert values.dtype == np.float64
        np.testing.assert_array_equal(values, [[r.targets["gap"], r.targets["u0"]] for r in recs])

    def test_targets_of_a_record_with_other_tasks_are_refused_by_id(self):
        other = MoleculeRecord(id="other", atomic_numbers=[1], coords=np.zeros((1, 3)), bonds=None,
                               targets={"gap": 0.4})
        with pytest.raises(InvalidConfig, match="^record other: task names differ from \\('u0',\\)$"):
            dataset_targets([water_record(), other])

    def test_targets_of_no_records_are_refused(self):
        with pytest.raises(NoData):
            dataset_targets([])


class TestReorderAtoms:
    def test_atoms_move_and_bonds_follow_them_sorted(self):
        record = MoleculeRecord(id="m", atomic_numbers=[6, 8, 1, 7], coords=np.arange(12.0).reshape(4, 3),
                                bonds=[(3, 0, 2), (1, 2, 1), (0, 1, 1)], targets={"y": 1.0})
        moved = reorder_atoms(record, [2, 0, 3, 1])
        assert moved.atomic_numbers == [1, 6, 7, 8]
        np.testing.assert_array_equal(moved.coords, record.coords[[2, 0, 3, 1]])
        # old atom 0 is new 1, 1 -> 3, 2 -> 0, 3 -> 2
        assert moved.bonds == [(0, 3, 1), (1, 2, 2), (1, 3, 1)]
        assert reorder_atoms(water_record(with_bonds=False), [1, 2, 0]).bonds is None


class TestSyntheticRecords:
    @pytest.mark.parametrize("n_atoms_range", [(1, 2), (2, 2)])
    def test_too_small_generic_cloud_is_a_typed_error_naming_the_size(self, n_atoms_range):
        from rotenc.synthetic import make_records

        with pytest.raises(TooFewPoints, match=r"needs >= 3 atoms, got [12]$"):
            make_records(2, seed=1, n_atoms_range=n_atoms_range)

    def test_small_clouds_allowed_when_not_generic(self):
        from rotenc.synthetic import random_cloud

        cloud = random_cloud(2, np.random.default_rng(0), require_generic=False)
        assert cloud.n_atoms == 2
