import argparse
import csv
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rotenc.cli import main, resolve_config
from rotenc.data import MoleculeRecord, SplitSpec, load_dataset, write_dataset
from rotenc.encoder3d import EncoderConfig
from rotenc.gnn import GnnConfig
from rotenc.model import ModelConfig, measure_invariance
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig, evaluate_model, load_checkpoint, model_from_checkpoint

GOLDEN = Path(__file__).parent / "data"

TOY_CONFIG = {
    "epochs": 2,
    "batch_size": 8,
    "lr": 3e-3,
    "seed": 1,
    "model": {
        "g_dim": 8,
        "head_hidden": 16,
        "cutoff": 8.0,
        "encoder": {"widths": [8], "embed_dim": 4, "k": 2},
        "gnn": {"layers": 1, "hidden": 8, "message_width": 8, "readout": "mean"},
    },
    "split": {"mode": "holdout", "train_fraction": 0.8, "seed": 3},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    write_dataset(make_records(24, seed=2), data)
    config = root / "config.json"
    config.write_text(json.dumps(TOY_CONFIG))
    return root, data, config


@pytest.fixture(scope="module")
def trained(workspace):
    root, data, config = workspace
    out = root / "train"
    code = main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
    assert code == 0
    return out / "checkpoint.rotenc"


def test_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is for the test suite alone
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, rotenc, rotenc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConvert:
    def test_golden_conversion(self, tmp_path):
        out = tmp_path / "conv"
        code = main([
            "convert", "--xyz", str(GOLDEN / "golden.xyz"),
            "--targets", str(GOLDEN / "golden_targets.csv"), "--out", str(out),
        ])
        assert code == 0
        records = load_dataset(out / "dataset.jsonl")
        assert [r.id for r in records] == ["w01", "w02"]
        assert (out / "manifest.json").exists()

    @staticmethod
    def convert_with(tmp_path, capsys, xyz: bytes, targets: bytes):
        """Exit code and stderr of converting the given XYZ and targets bytes."""
        (tmp_path / "in.xyz").write_bytes(xyz)
        (tmp_path / "in.csv").write_bytes(targets)
        code = main(["convert", "--xyz", str(tmp_path / "in.xyz"), "--targets", str(tmp_path / "in.csv"),
                     "--out", str(tmp_path / "conv")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("xyz, targets, where", [
        (b"1\nm1\nC 0.0 zero 0.0\n", b"id,y\nm1,1.0\n", "line 3"),  # non-numeric coordinate
        (b"1\nm1\nC 0 0 0\n", b"id,y\nm1,high\n", "line 2"),  # non-numeric target cell
        (b"1\nm1\nC 0 0 0\n", b"id,y,z\nm1,1.0\n", "line 2"),  # short targets row
        (b"1\nm1\nC 0 0 0\n\xff\n", b"id,y\nm1,1.0\n", "line 4"),  # XYZ file not UTF-8
        (b"1\nm1\nC 0 0 0\n", b"id,y\nm1,1.0\n\xe9\n", "line 3"),  # targets table not UTF-8
    ], ids=["coordinate", "target-cell", "short-row", "xyz-not-utf8", "targets-not-utf8"])
    def test_malformed_input_exits_2_naming_the_line(self, tmp_path, capsys, xyz, targets, where):
        code, err = self.convert_with(tmp_path, capsys, xyz, targets)
        assert code == 2
        assert where in err and "Traceback" not in err


    def test_duplicate_target_id_exits_2_naming_both_lines(self, tmp_path, capsys):
        code, err = self.convert_with(tmp_path, capsys, b"1\nm1\nC 0 0 0\n", b"id,y\nm1,1.0\nm2,0.5\nm1,2.0\n")
        assert code == 2
        assert "line 4" in err and "line 2" in err and "'m1'" in err and "Traceback" not in err


class TestInputPathIsADirectory:
    """Every input-file flag given a directory exits 2 with a typed message."""

    @pytest.mark.parametrize("command, flag", [
        ("convert", "--xyz"), ("convert", "--targets"), ("train", "--data"), ("train", "--config"),
        ("eval", "--checkpoint"), ("eval", "--data"), ("invariance", "--checkpoint"),
        ("invariance", "--data"), ("sweep-k", "--data"), ("sweep-k", "--checkpoint"),
        ("align", "--data"), ("importance", "--checkpoint"), ("importance", "--data"),
    ])
    def test_directory_exits_2(self, workspace, trained, tmp_path, capsys, command, flag):
        root, data, config = workspace
        paths = {"--xyz": GOLDEN / "golden.xyz", "--targets": GOLDEN / "golden_targets.csv",
                 "--data": data, "--config": config, "--checkpoint": trained}
        extra = {"sweep-k": ["--k-values", "2"], "importance": ["--id", "x"]}.get(command, [])
        flags = {"convert": ["--xyz", "--targets"], "train": ["--data", "--config"],
                 "sweep-k": ["--data", "--checkpoint"], "align": ["--data"]}.get(command, ["--checkpoint", "--data"])
        folder = tmp_path / "a-folder"
        folder.mkdir()
        argv = [command]
        for f in flags:
            argv += [f, str(folder if f == flag else paths[f])]
        code = main(argv + extra + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "is not a file" in err and "a-folder" in err and "Traceback" not in err


class TestTrain:
    def test_writes_three_artifacts(self, workspace, trained):
        out = trained.parent
        assert trained.exists()
        assert (out / "metrics.csv").exists()
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 2 and "val_mae_rg" in rows[0]

    def test_missing_dataset_exits_2_and_names_path(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_ablate_no_3d_shrinks_fused_width(self, workspace, tmp_path):
        root, data, config = workspace
        out = tmp_path / "ablated"
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--ablate", "no-3d", "--out", str(out)])
        assert code == 0
        ckpt = load_checkpoint(out / "checkpoint.rotenc")
        assert ckpt.train_config.model.ablate_3d
        assert ckpt.train_config.model.d_u == TOY_CONFIG["model"]["g_dim"]

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        root, data, config = workspace
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--data", str(data), "--config", str(config),
                         "--out", str(out)]) == 0
            outs.append((out / "checkpoint.rotenc").read_bytes())
        assert outs[0] == outs[1]


class TestInvariance:
    def test_post_align_reports_zero(self, workspace, trained, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "inv"
        code = main(["invariance", "--checkpoint", str(trained), "--data", str(data),
                     "--rotations", "10", "--align-modes", "none,post",
                     "--max-molecules", "5", "--out", str(out)])
        assert code == 0
        rows = {r["align_mode"]: r for r in read_csv(out / "invariance.csv")}
        assert float(rows["post"]["mean_dev"]) <= 1e-9
        assert float(rows["post"]["max_dev"]) <= 1e-9
        assert float(rows["none"]["mean_dev"]) > float(rows["post"]["mean_dev"])

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_max_molecules_below_one_rejected(self, workspace, trained, tmp_path, capsys, count):
        root, data, _ = workspace
        code = main(["invariance", "--checkpoint", str(trained), "--data", str(data),
                     "--max-molecules", count, "--out", str(tmp_path / "inv0")])
        assert code == 2
        assert "--max-molecules" in capsys.readouterr().err

    def test_single_rotation_rejected(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        code = main(["invariance", "--checkpoint", str(trained), "--data", str(data),
                     "--rotations", "1", "--out", str(tmp_path / "inv1")])
        assert code == 2
        assert "rotations" in capsys.readouterr().err


class TestSweepK:
    def test_train_mode_sweep(self, workspace, tmp_path):
        root, data, config = workspace
        out = tmp_path / "sweeptrain"
        code = main(["sweep-k", "--data", str(data), "--config", str(config),
                     "--k-values", "1,2", "--rotations", "4", "--max-molecules", "3",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert [int(r["k"]) for r in rows] == [1, 2]
        assert float(rows[0]["relative_mae"]) == 1.0  # first k is the reference

    def test_eval_only_sweep(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        out = tmp_path / "sweep"
        code = main(["sweep-k", "--data", str(data), "--checkpoint", str(trained),
                     "--k-values", "2,16,2", "--rotations", "6", "--max-molecules", "4",
                     "--out", str(out)])
        assert code == 0
        assert "duplicate k=2" in capsys.readouterr().err
        rows = read_csv(out / "sweep.csv")
        assert [int(r["k"]) for r in rows] == [2, 16]
        runtimes = [float(r["runtime_seconds"]) for r in rows]
        assert runtimes[1] < 8 * runtimes[0]  # views are cheap relative to overheads
        devs = [float(r["mean_dev"]) for r in rows]
        assert devs[1] <= 1.5 * devs[0]  # non-increasing in k within noise


    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_max_molecules_below_one_rejected(self, workspace, trained, tmp_path, capsys, count):
        root, data, _ = workspace
        code = main(["sweep-k", "--data", str(data), "--checkpoint", str(trained), "--k-values", "2",
                     "--max-molecules", count, "--out", str(tmp_path / "sweep0")])
        assert code == 2
        assert "--max-molecules" in capsys.readouterr().err

    @pytest.mark.parametrize("k_values, token", [("2,x", "'x'"), ("2,", "''"), ("1.5", "'1.5'")])
    def test_bad_k_value_exits_2_naming_it(self, workspace, trained, tmp_path, capsys, k_values, token):
        root, data, _ = workspace
        code = main(["sweep-k", "--data", str(data), "--checkpoint", str(trained),
                     "--k-values", k_values, "--out", str(tmp_path / "badk")])
        assert code == 2
        err = capsys.readouterr().err
        assert token in err and "Traceback" not in err

    def test_eval_only_rows_match_a_fresh_load_per_k(self, workspace, trained, tmp_path):
        # the checkpoint is loaded once for the whole sweep; every row must
        # equal evaluating a freshly loaded model at that k
        root, data, _ = workspace
        out = tmp_path / "sweep_once"
        code = main(["sweep-k", "--data", str(data), "--checkpoint", str(trained),
                     "--k-values", "3,1,5", "--rotations", "3", "--max-molecules", "4",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        records = load_dataset(data)
        for row in rows:
            model, normalizer = model_from_checkpoint(load_checkpoint(trained))
            model.cfg = replace(model.cfg, encoder=replace(model.cfg.encoder, k=int(row["k"])))
            metrics = evaluate_model(model, normalizer, records, split_name="fresh")
            report = measure_invariance(model, records[:4], n_rotations=3, seed=0)
            assert row["mae"] == f"{float(np.mean(list(metrics.mae.values()))):.8g}"
            assert row["mean_dev"] == f"{report.mean_dev:.10g}"


class TestAlign:
    def test_dataset_not_utf8_exits_2(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        bad = tmp_path / "latin1.jsonl"
        bad.write_bytes(data.read_bytes() + b'{"id": "caf\xe9"}\n')
        code = main(["align", "--data", str(bad), "--out", str(tmp_path / "al")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line {len(data.read_bytes().splitlines()) + 1}" in err and "UTF-8" in err

    def test_idempotent_and_flags_degenerate(self, tmp_path):
        records = make_records(6, seed=4)
        octa = MoleculeRecord(
            id="octa",
            atomic_numbers=[6] * 6,
            coords=np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                             [0, 0, -1]], dtype=float),
            bonds=None,
            targets={"rg": 1.0},
        )
        data = tmp_path / "in.jsonl"
        write_dataset(records + [octa], data)

        out1 = tmp_path / "a1"
        assert main(["align", "--data", str(data), "--out", str(out1)]) == 0
        sidecar = read_csv(out1 / "degenerate.csv")
        assert [row["id"] for row in sidecar] == ["octa"]

        out2 = tmp_path / "a2"
        assert main(["align", "--data", str(out1 / "aligned.jsonl"), "--out", str(out2)]) == 0
        first = load_dataset(out1 / "aligned.jsonl")
        second = load_dataset(out2 / "aligned.jsonl")
        for a, b in zip(first, second):
            if a.id == "octa":
                continue  # no unique canonical form for the degenerate dummy
            np.testing.assert_allclose(a.coords, b.coords, atol=1e-9)

    def test_rotated_dataset_aligns_to_same(self, tmp_path):
        from rotenc.geometry import sample_rotations

        records = make_records(5, seed=6)
        (rot,) = sample_rotations(1, 3)
        rotated = [
            MoleculeRecord(id=r.id, atomic_numbers=list(r.atomic_numbers),
                           coords=r.coords @ rot.T, bonds=None, targets=dict(r.targets))
            for r in records
        ]
        d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        write_dataset(records, d1)
        write_dataset(rotated, d2)
        o1, o2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["align", "--data", str(d1), "--out", str(o1)]) == 0
        assert main(["align", "--data", str(d2), "--out", str(o2)]) == 0
        for a, b in zip(load_dataset(o1 / "aligned.jsonl"), load_dataset(o2 / "aligned.jsonl")):
            np.testing.assert_allclose(a.coords, b.coords, atol=1e-6)


class TestImportance:
    def test_scores_normalized_and_stable(self, workspace, trained, tmp_path):
        root, data, _ = workspace
        records = load_dataset(data)
        outputs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            code = main(["importance", "--checkpoint", str(trained), "--data", str(data),
                         "--id", records[0].id, "--task", "0", "--out", str(out)])
            assert code == 0
            outputs.append((out / "importance.csv").read_bytes())
        assert outputs[0] == outputs[1]
        rows = read_csv(tmp_path / "i1" / "importance.csv")
        scores = [float(r["score"]) for r in rows]
        assert max(scores) == 1.0
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_unknown_id_exits_2(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        code = main(["importance", "--checkpoint", str(trained), "--data", str(data),
                     "--id", "missing-id", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "missing-id" in capsys.readouterr().err

    def test_ablated_3d_has_zero_coordinate_gradients(self, workspace, tmp_path):
        root, data, config = workspace
        train_out = tmp_path / "t"
        assert main(["train", "--data", str(data), "--config", str(config),
                     "--ablate", "no-3d", "--out", str(train_out)]) == 0
        records = load_dataset(data)
        imp_out = tmp_path / "imp"
        assert main(["importance", "--checkpoint", str(train_out / "checkpoint.rotenc"),
                     "--data", str(data), "--id", records[0].id, "--out", str(imp_out)]) == 0
        rows = read_csv(imp_out / "importance.csv")
        assert all(float(r["coord_grad_norm"]) == 0.0 for r in rows)


class TestManifest:
    def test_every_command_writes_manifest(self, workspace, trained, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(trained), "--data", str(data),
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "eval"
        assert len(manifest["inputs"]) == 2  # checkpoint + dataset hashes
        for digest in manifest["inputs"].values():
            assert len(digest) == 64
        assert str(out / "metrics.csv") in manifest["outputs"]


class TestConfigLayers:
    def test_flag_free_config_is_the_documented_default(self):
        expected = TrainConfig(
            model=ModelConfig(
                encoder=EncoderConfig(widths=(64, 128, 128), pool="mean",
                                      use_atom_embedding=True, embed_dim=32, k=16, seed=0,
                                      align_mode="none"),
                gnn=GnnConfig(layers=3, hidden=32, message_width=32, readout="sum"),
                g_dim=128, head_hidden=256, cutoff=5.0,
                objective="average_output", ablate_3d=False, ablate_features=False,
                ablate_pointwise=False,
            ),
            split=SplitSpec(mode="holdout", k_folds=None, train_fraction=0.8, seed=0),
            epochs=800, batch_size=128, lr=1e-3, weight_decay=0.01, betas=(0.9, 0.999),
            eps=1e-8, seed=0, lambda_l1=1e-4,
        )
        assert resolve_config(argparse.Namespace()) == expected

    @pytest.mark.parametrize("encoder, key", [({"tau": 3}, "model.encoder.tau"),
                                              ({"k": "16"}, "model.encoder.k")])
    def test_bad_config_key_exits_2_naming_it(self, workspace, tmp_path, capsys, encoder, key):
        root, data, _ = workspace
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**TOY_CONFIG, "model": {**TOY_CONFIG["model"], "encoder": {
            **TOY_CONFIG["model"]["encoder"], **encoder}}}))
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_non_json_config_exits_2(self, workspace, tmp_path, capsys):
        root, data, _ = workspace
        config = tmp_path / "bad.json"
        config.write_text("{epochs: 2")
        code = main(["train", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not JSON" in capsys.readouterr().err

    def test_manifest_reports_the_encoder_seed(self, workspace, trained, tmp_path):
        root, data, _ = workspace
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(trained), "--data", str(data),
                     "--out", str(out)]) == 0
        seeds = json.loads((out / "manifest.json").read_text())["seeds"]
        assert seeds == {"inference": load_checkpoint(trained).train_config.model.encoder.seed}


class TestBadCheckpoint:
    def test_truncated_checkpoint_exits_2(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        cut = tmp_path / "cut.rotenc"
        blob = trained.read_bytes()
        cut.write_bytes(blob[: len(blob) - 5])
        code = main(["eval", "--checkpoint", str(cut), "--data", str(data),
                     "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "corrupt checkpoint" in capsys.readouterr().err

    def test_version_1_checkpoint_exits_2(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        blob = trained.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header.update(format_version=1, inference_seed=0)
        new_header = json.dumps(header).encode()
        old = tmp_path / "v1.rotenc"
        old.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header
                        + blob[12 + header_len :])
        code = main(["eval", "--checkpoint", str(old), "--data", str(data),
                     "--out", str(tmp_path / "ev")])
        assert code == 2
        assert "unsupported checkpoint version 1" in capsys.readouterr().err


    @staticmethod
    def eval_with_header(workspace, trained, tmp_path, capsys, edit):
        """Exit code and stderr of ``rotenc eval`` on the checkpoint with ``edit`` applied to its header."""
        root, data, _ = workspace
        blob = trained.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        edit(header)
        new_header = json.dumps(header).encode()
        path = tmp_path / "edited.rotenc"
        path.write_bytes(blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :])
        code = main(["eval", "--checkpoint", str(path), "--data", str(data), "--out", str(tmp_path / "ev")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["params", "bn_states"])
    def test_renamed_entry_exits_2(self, workspace, trained, tmp_path, capsys, entry):
        def rename(header):
            header[entry][0]["name"] += "x"

        code, err = self.eval_with_header(workspace, trained, tmp_path, capsys, rename)
        assert code == 2
        assert "do not match its config" in err and "internal error" not in err

    def test_misshaped_parameter_exits_2(self, workspace, trained, tmp_path, capsys):
        def reshape(header):
            # same element count, so the array data still lines up
            meta = next(m for m in header["params"] if m["shape"] == [8, 8])
            meta["shape"] = [4, 16]

        code, err = self.eval_with_header(workspace, trained, tmp_path, capsys, reshape)
        assert code == 2
        assert "(4, 16)" in err and "internal error" not in err


def _with_record(tmp_path, record) -> Path:
    """Three ordinary molecules followed by ``record``, written as a dataset."""
    path = tmp_path / f"{record.id}.jsonl"
    write_dataset(make_records(3, seed=9) + [record], path)
    return path


class TestMoleculeThatCannotBeAligned:
    def test_eval_of_degenerate_molecule_under_post_exits_2(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        out = tmp_path / "post"
        assert main(["train", "--data", str(data), "--config", str(config),
                     "--align-mode", "post", "--out", str(out)]) == 0
        co = MoleculeRecord(id="carbon-monoxide", atomic_numbers=[6, 8],
                            coords=np.array([[0.0, 0.0, 0.0], [1.13, 0.0, 0.0]]), bonds=None,
                            targets={"rg": 0.6})
        code = main(["eval", "--checkpoint", str(out / "checkpoint.rotenc"),
                     "--data", str(_with_record(tmp_path, co)), "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err
        assert code == 2
        assert "carbon-monoxide" in err and "degenerate" in err
        assert "internal error" not in err

    def test_invariance_of_one_atom_molecule_under_post_exits_2(self, workspace, trained,
                                                                 tmp_path, capsys):
        lone = MoleculeRecord(id="lone-carbon", atomic_numbers=[6],
                              coords=np.zeros((1, 3)), bonds=None, targets={"rg": 0.0})
        code = main(["invariance", "--checkpoint", str(trained),
                     "--data", str(_with_record(tmp_path, lone)), "--align-modes", "post",
                     "--rotations", "2", "--out", str(tmp_path / "inv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "lone-carbon" in err and "internal error" not in err


class TestMalformedMolecule:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_eval_of_coordinates_that_overflow_centering_exits_2(self, workspace, trained, tmp_path, capsys):
        # finite coordinates whose centering overflows: the record loads, prepare rejects it
        far = MoleculeRecord(id="far", atomic_numbers=[6, 6, 8],
                             coords=np.array([[1.7e308, 0.0, 0.0], [1.7e308, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                             bonds=None, targets={"rg": 1.0})
        code = main(["eval", "--checkpoint", str(trained), "--data", str(_with_record(tmp_path, far)),
                     "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err
        assert code == 2
        assert "coordinates must be finite" in err and "internal error" not in err
