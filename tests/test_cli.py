import argparse
import csv
import errno
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rotenc import cli, trainer
from rotenc.cli import build_parser, main, resolve_config
from rotenc.data import MoleculeRecord, SplitSpec, dataset_targets, load_dataset, write_dataset
from rotenc.encoder3d import EncoderConfig
from rotenc.gnn import GnnConfig
from rotenc.model import Model, ModelConfig, measure_invariance
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig, config_to_dict, evaluate_model, load_checkpoint, model_from_checkpoint

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
        "gnn": {"layers": 1, "hidden": 8, "message_width": 8},
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
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("flags, words", [
        (["--k-values", "2", "--rotations", "1"], "--rotations must be >= 2, got 1"),
        (["--k-values", "2,0"], "--k-values: k must be >= 1, got 0"),
        (["--k-values", "2,-3"], "--k-values: k must be >= 1, got -3"),
    ], ids=["one-rotation", "zero-k", "negative-k"])
    def test_bad_value_exits_2_before_training(self, workspace, tmp_path, capsys, monkeypatch, flags, words):
        root, data, config = workspace
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("sweep-k trained before checking its values"))
        code = main(["sweep-k", "--data", str(data), "--config", str(config), *flags, "--out", str(tmp_path / "sw")])
        err = capsys.readouterr().err
        assert code == 2 and words in err and "Traceback" not in err
        assert not (tmp_path / "sw").exists()

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
        records = load_dataset(data)
        models = []
        for k in (3, 1, 5):
            model, normalizer = model_from_checkpoint(load_checkpoint(trained))
            model.cfg = replace(model.cfg, encoder=replace(model.cfg.encoder, k=k))
            models.append((model, normalizer))
        self._assert_rows_match(read_csv(out / "sweep.csv"), models, records)

    def test_train_mode_rows_match_a_fresh_run_per_k(self, workspace, tmp_path):
        # every row trains its own model; scoring it on the records prepared by the first row's model
        # must equal preparing them with the row's own
        root, data, config = workspace
        argv = ["sweep-k", "--data", str(data), "--config", str(config), "--k-values", "1,3",
                "--rotations", "3", "--max-molecules", "4", "--out", str(tmp_path / "sweep_train_rows")]
        assert main(argv) == 0
        records = load_dataset(data)
        cfg = resolve_config(build_parser().parse_args(argv))
        models = []
        for k in (1, 3):
            ckpt, _ = cli.train(replace(cfg, model=replace(cfg.model, encoder=replace(cfg.model.encoder, k=k))),
                                records)
            models.append(model_from_checkpoint(ckpt))
        self._assert_rows_match(read_csv(tmp_path / "sweep_train_rows" / "sweep.csv"), models, records)

    @staticmethod
    def _assert_rows_match(rows, models, records):
        """Each row's mae, relative_mae and mean_dev equal its model scored on records prepared for that row."""
        assert len(rows) == len(models)
        maes = []
        _, targets = dataset_targets(records)
        for row, (model, normalizer) in zip(rows, models):
            assert int(row["k"]) == model.cfg.encoder.k
            metrics = evaluate_model(model, normalizer, [model.prepare(record) for record in records], targets)
            report = measure_invariance(model, records[:4], n_rotations=3, seed=0)
            maes.append(float(np.mean(list(metrics.mae.values()))))
            assert row["mae"] == f"{maes[-1]:.8g}"
            assert row["relative_mae"] == f"{maes[-1] / maes[0]:.6g}"
            assert row["mean_dev"] == f"{report.mean_dev:.10g}"

    @pytest.mark.parametrize("command", ["eval", "sweep-k", "train"])
    def test_scoring_packs_16_molecules(self, workspace, trained, tmp_path, monkeypatch, command):
        # whatever the training batch (8 here): every scoring call packs 16 molecules but its last pack
        root, data, config = workspace
        calls, scoring = [], []
        real_score, real_predict = trainer.evaluate_model, Model.predict_batch

        def score(*args):
            calls.append([])
            scoring.append(True)
            try:
                return real_score(*args)
            finally:
                scoring.pop()

        def predict(self, batch):
            if scoring:  # the invariance probe packs a molecule with its rotated copies instead
                calls[-1].append(len(batch))
            return real_predict(self, batch)

        monkeypatch.setattr(cli, "evaluate_model", score)
        monkeypatch.setattr(trainer, "evaluate_model", score)
        monkeypatch.setattr(Model, "predict_batch", predict)
        argv = {"eval": ["--checkpoint", str(trained)],
                "sweep-k": ["--checkpoint", str(trained), "--k-values", "1,2", "--rotations", "2",
                            "--max-molecules", "2"],
                "train": ["--config", str(config)]}[command]
        assert main([command, "--data", str(data), *argv, "--out", str(tmp_path / "scored")]) == 0
        expected = {"eval": [[16, 8]], "sweep-k": [[16, 8]] * 2, "train": [[5]] * TOY_CONFIG["epochs"]}[command]
        assert calls == expected
        assert all(max(packs) <= 16 and set(packs[:-1]) <= {16} for packs in calls)

    @pytest.mark.parametrize("mode", ["checkpoint", "train"])
    def test_scoring_prepares_each_record_once_per_sweep(self, workspace, trained, tmp_path, monkeypatch, mode):
        # training and the invariance probe prepare their own copies; the calls outside them are the scoring's
        root, data, config = workspace
        scoring, inside = [], []
        real_prepare = Model.prepare

        def counting(self, record, training=False):
            if not inside:
                scoring.append(record.id)
            return real_prepare(self, record, training)

        def aside(fn):
            def wrapped(*args, **kwargs):
                inside.append(fn)
                try:
                    return fn(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapped

        monkeypatch.setattr(Model, "prepare", counting)
        monkeypatch.setattr(cli, "train", aside(cli.train))
        monkeypatch.setattr(cli, "measure_invariance", aside(cli.measure_invariance))
        model_flag = ["--checkpoint", str(trained)] if mode == "checkpoint" else ["--config", str(config)]
        code = main(["sweep-k", "--data", str(data), *model_flag, "--k-values", "1,2,3", "--rotations", "2",
                     "--max-molecules", "2", "--out", str(tmp_path / "sweep_once")])
        assert code == 0
        assert sorted(scoring) == sorted(record.id for record in load_dataset(data))


class TestFlagsEachCommandReads:
    REQUIRED = {"convert": ["--xyz", "a.xyz", "--targets", "t.csv"], "eval": ["--checkpoint", "c", "--data", "d"],
                "invariance": ["--checkpoint", "c", "--data", "d"], "align": ["--data", "d"],
                "importance": ["--checkpoint", "c", "--data", "d", "--id", "m"]}

    @pytest.mark.parametrize("command, flag", [
        ("convert", "--config"), ("convert", "--seed"), ("eval", "--config"), ("eval", "--seed"),
        ("align", "--config"), ("align", "--seed"), ("importance", "--config"), ("importance", "--seed"),
        ("invariance", "--config"),
    ])
    def test_a_flag_the_command_would_ignore_is_rejected(self, tmp_path, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert flag not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main([command, *self.REQUIRED[command], flag, "1", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--config", None), ("--epochs", "3"), ("--align-mode", "post"),
                                             ("--ablate", "no-3d")])
    def test_checkpoint_sweep_rejects_a_training_flag_by_name(self, workspace, trained, tmp_path, capsys,
                                                              flag, value):
        root, data, config = workspace
        code = main(["sweep-k", "--data", str(data), "--checkpoint", str(trained), "--k-values", "2",
                     flag, value or str(config), "--out", str(tmp_path / "sweep")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"cannot be combined with {flag}" in err and "Traceback" not in err

    def test_empty_align_mode_list_exits_2(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        code = main(["invariance", "--checkpoint", str(trained), "--data", str(data), "--align-modes", ",",
                     "--out", str(tmp_path / "inv")])
        err = capsys.readouterr().err
        assert code == 2
        assert "no align modes given" in err and "Traceback" not in err
        assert not (tmp_path / "inv" / "invariance.csv").exists()


class TestInputFaultsExit2:
    """Faults in what the caller supplied exit 2 with one line, never a traceback or an internal error."""

    @staticmethod
    def assert_input_error(code, err, *words):
        assert code == 2
        assert err.startswith("error: ") and "internal error" not in err and "Traceback" not in err
        assert len(err.splitlines()) == 1
        for word in words:
            assert word in err

    @pytest.mark.parametrize("command", ["train", "eval", "invariance", "importance", "align"])
    def test_record_without_atoms_exits_2_naming_its_line(self, trained, tmp_path, capsys, command):
        data = tmp_path / "empty.jsonl"
        write_dataset(make_records(3, seed=9), data)
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "empty", "z": [], "xyz": [], "targets": {"rg": 1.0}}) + "\n")
        checkpoint = ["--checkpoint", str(trained)]
        flags = {"train": [], "eval": checkpoint, "invariance": checkpoint,
                 "importance": [*checkpoint, "--id", "empty"], "align": []}[command]
        code = main([command, "--data", str(data), *flags, "--out", str(tmp_path / "out")])
        self.assert_input_error(code, capsys.readouterr().err,
                                "line 4: record empty: a molecule needs at least one atom")

    def test_constant_target_train(self, workspace, tmp_path, capsys):
        root, _, config = workspace
        flat = tmp_path / "flat.jsonl"
        write_dataset([replace(r, targets={"y": 1.0}) for r in make_records(12, seed=2)], flat)
        code = main(["train", "--data", str(flat), "--config", str(config), "--out", str(tmp_path / "t")])
        self.assert_input_error(code, capsys.readouterr().err, "'y' is constant")

    @pytest.mark.parametrize("command, flags, molecule", [
        ("eval", [], "syn00000"),
        ("invariance", ["--rotations", "2"], "syn00000"),
        ("importance", ["--id", "syn00002"], "syn00002"),
        ("sweep-k", ["--k-values", "2", "--rotations", "2"], "syn00000"),
    ], ids=["eval", "invariance", "importance", "sweep-k-checkpoint"])
    def test_eval_of_a_dataset_with_other_tasks(self, trained, tmp_path, capsys, command, flags, molecule):
        other = tmp_path / "other.jsonl"
        write_dataset(make_records(4, seed=3, target="y"), other)
        code = main([command, "--checkpoint", str(trained), "--data", str(other), *flags,
                     "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err
        self.assert_input_error(code, err, "tasks do not match")
        assert err.startswith(f"error: molecule {molecule}: ")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("command, flags, words, out", [
        ("invariance", ["--checkpoint", "DATA"], "not a checkpoint file", "new/out"),
        ("invariance", ["--checkpoint", "CKPT", "--rotations", "2", "--align-modes", "none,pre"], "got 'pre'",
         "new/out"),
        ("importance", ["--checkpoint", "CKPT", "--id", "nope"], "'nope' not found", "new/out"),
        ("importance", ["--checkpoint", "CKPT", "--id", "syn00000", "--task", "5"], "--task 5 out of range",
         "new/out"),
        ("sweep-k", ["--config", "CONFIG", "--k-values", "2", "--seed", "-1"], "-1", "new/out"),
        ("importance", ["--checkpoint", "CKPT", "--id", "nope"], "'nope' not found", "existed"),
    ], ids=["invariance-of-a-dataset", "invariance-pre", "importance-id", "importance-task", "sweep-k-seed",
            "out-existed"])
    def test_a_failed_command_leaves_no_out(self, workspace, trained, tmp_path, capsys, command, flags, words, out):
        # --out is made before the work starts; a failure removes every directory made for it, and only those
        root, data, config = workspace
        paths = {"DATA": str(data), "CKPT": str(trained), "CONFIG": str(config)}
        (tmp_path / "existed").mkdir()
        code = main([command, "--data", str(data), *(paths.get(f, f) for f in flags), "--out", str(tmp_path / out)])
        self.assert_input_error(code, capsys.readouterr().err, words)
        assert [p.name for p in tmp_path.iterdir()] == ["existed"] and list((tmp_path / "existed").iterdir()) == []

    def test_a_failed_command_keeps_an_out_that_holds_a_file(self, tmp_path):
        out = tmp_path / "new" / "out"
        with pytest.raises(RuntimeError):
            with cli.CommandRun(argparse.Namespace(command="align", out=str(out))) as run:
                (run.out / "partial.csv").write_text("written before the fault\n")
                raise RuntimeError("fault after the first output")
        assert [p.name for p in out.iterdir()] == ["partial.csv"]

    @pytest.mark.parametrize("out", ["a-file", "a-file/below"])
    def test_out_path_that_cannot_be_a_directory(self, workspace, tmp_path, capsys, out):
        root, data, _ = workspace
        (tmp_path / "a-file").write_text("taken\n")
        code = main(["align", "--data", str(data), "--out", str(tmp_path / out)])
        self.assert_input_error(code, capsys.readouterr().err, "a-file")

    @pytest.mark.parametrize("command", ["train", "invariance", "sweep-k"])
    def test_negative_seed_flag(self, workspace, trained, tmp_path, capsys, command):
        root, data, config = workspace
        given = {"train": ["--config", str(config)],
                 "invariance": ["--checkpoint", str(trained), "--rotations", "2"],
                 "sweep-k": ["--checkpoint", str(trained), "--k-values", "2", "--rotations", "2"]}[command]
        code = main([command, "--data", str(data), *given, "--seed", "-1", "--out", str(tmp_path / "o")])
        self.assert_input_error(code, capsys.readouterr().err, "seed", "-1")

    @pytest.mark.parametrize("path, value, words", [
        ("split.seed", -1, ["split seed", "-1"]),
        ("model.encoder.seed", -1, ["encoder seed", "-1"]),
        ("lr", float("nan"), ["config key lr ", "nan"]),
        ("lr", float("inf"), ["config key lr ", "inf"]),
        ("lambda_l1", float("nan"), ["config key lambda_l1 ", "nan"]),
        ("model.cutoff", float("nan"), ["config key model.cutoff ", "nan"]),
        ("betas", [float("nan"), 0.999], ["config key betas ", "nan"]),
        ("split.train_fraction", float("-inf"), ["config key split.train_fraction ", "-inf"]),
        ("weight_decay", -5, ["weight_decay", "-5"]),
        ("weight_decay", 1000, ["lr * weight_decay must be < 1"]),
        ("betas", [1.5, 0.999], ["betas", "1.5"]),
        ("eps", -1, ["eps", "-1"]),
        ("model.objective", "average_output", ["unknown config key model.objective"]),
        ("model.encoder.pool", "mean", ["unknown config key model.encoder.pool"]),
        ("model.encoder.use_atom_embedding", True, ["unknown config key model.encoder.use_atom_embedding"]),
        ("model.encoder.align_mode", "pre", ["align_mode must be one of ('none', 'post'), got 'pre'"]),
    ], ids=["split.seed", "encoder.seed", "lr-nan", "lr-inf", "lambda_l1-nan", "cutoff-nan", "betas-nan",
            "train_fraction-inf", "weight_decay", "lr-weight_decay", "betas", "eps", "objective", "pool",
            "use_atom_embedding", "align_mode-pre"])
    def test_config_value_out_of_range(self, workspace, tmp_path, capsys, path, value, words):
        # NaN and Infinity are written as the bare literals Python's json emits for them; the
        # file parses, and the error names the key that holds one
        root, data, _ = workspace
        d = json.loads(json.dumps(TOY_CONFIG))
        *parents, leaf = path.split(".")
        owner = d
        for key in parents:
            owner = owner[key]
        owner[leaf] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(d))
        code = main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "o")])
        self.assert_input_error(code, capsys.readouterr().err, *words)

    def test_train_align_mode_pre(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(data), "--config", str(config), "--align-mode", "pre",
                  "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert line.startswith("rotenc train: error: argument --align-mode: invalid choice: 'pre'")

    def test_invariance_align_mode_pre(self, workspace, trained, tmp_path, capsys):
        root, data, _ = workspace
        code = main(["invariance", "--checkpoint", str(trained), "--data", str(data), "--rotations", "2",
                     "--align-modes", "none,pre", "--out", str(tmp_path / "inv")])
        self.assert_input_error(code, capsys.readouterr().err, "('none', 'post'), got 'pre'")
        assert not (tmp_path / "inv" / "invariance.csv").exists()


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

    def test_one_atom_molecule_is_listed_and_written_centered(self, tmp_path):
        lone = MoleculeRecord(id="helium", atomic_numbers=[2], coords=np.array([[1.5, -2.0, 0.25]]), bonds=None,
                              targets={"u0": -2.9, "gap": 0.9})
        data = tmp_path / "in.jsonl"
        write_dataset(load_dataset(GOLDEN / "golden.jsonl") + [lone], data)
        assert main(["align", "--data", str(data), "--out", str(tmp_path / "with")]) == 0
        assert main(["align", "--data", str(GOLDEN / "golden.jsonl"), "--out", str(tmp_path / "without")]) == 0
        listed = {row["id"]: row["reason"] for row in read_csv(tmp_path / "with" / "degenerate.csv")}
        alone = {row["id"]: row["reason"] for row in read_csv(tmp_path / "without" / "degenerate.csv")}
        assert listed == {**alone, "helium": "fewer than 2 atoms"}
        aligned = {r.id: r for r in load_dataset(tmp_path / "with" / "aligned.jsonl")}
        assert aligned["helium"].coords.tobytes() == np.zeros((1, 3)).tobytes()
        others = load_dataset(tmp_path / "without" / "aligned.jsonl")
        assert sorted(aligned) == sorted([r.id for r in others] + ["helium"])
        for r in others:  # the lone atom changes nothing else
            assert aligned[r.id].coords.tobytes() == r.coords.tobytes()

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
    # command -> (input flags, other flags, the outputs in write order, the seeds recorded)
    CASES = {
        "convert": (["--xyz", "--targets"], [], ["dataset.jsonl"], []),
        "train": (["--data", "--config"], [], ["checkpoint.rotenc", "metrics.csv"], ["train", "inference", "split"]),
        "eval": (["--checkpoint", "--data"], [], ["metrics.csv"], ["inference"]),
        "invariance": (["--checkpoint", "--data"], ["--rotations", "2", "--max-molecules", "2"], ["invariance.csv"],
                       ["inference", "rotations"]),
        "sweep-k": (["--data", "--config"], ["--k-values", "1", "--rotations", "2", "--max-molecules", "2"],
                    ["sweep.csv"], ["train", "inference", "split", "rotations"]),
        "sweep-k --checkpoint": (["--data", "--checkpoint"], ["--k-values", "1", "--rotations", "2",
                                                              "--max-molecules", "2"],
                                 ["sweep.csv"], ["inference", "rotations"]),
        "align": (["--data"], [], ["aligned.jsonl", "degenerate.csv"], []),
        "importance": (["--checkpoint", "--data"], ["--id", "syn00000"], ["importance.csv"], ["inference"]),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_command_writes_manifest(self, workspace, trained, tmp_path, case):
        """The manifest lists exactly the files read, with their sha256, and the files written, in order;
        a command that trains or loads a model records its config and seeds."""
        root, data, config = workspace
        paths = {"--xyz": GOLDEN / "golden.xyz", "--targets": GOLDEN / "golden_targets.csv",
                 "--data": data, "--config": config, "--checkpoint": trained}
        input_flags, other_flags, outputs, seeds = self.CASES[case]
        argv = [case.split()[0]]
        for flag in input_flags:
            argv += [flag, str(paths[flag])]
        out = tmp_path / "out"
        assert main(argv + other_flags + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["inputs"] == {
            str(paths[flag]): hashlib.sha256(paths[flag].read_bytes()).hexdigest() for flag in input_flags
        }
        assert manifest["outputs"] == [str(out / name) for name in outputs]
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])
        cfg = load_checkpoint(trained).train_config  # every model here is trained from TOY_CONFIG
        known = {"train": cfg.seed, "inference": cfg.model.encoder.seed, "split": cfg.split.seed, "rotations": 0}
        assert manifest["seeds"] == {name: known[name] for name in seeds}
        expected_config = json.loads(json.dumps(config_to_dict(cfg))) if seeds else None
        assert manifest["config"] == expected_config


def _fails_after_the_first(items):
    """The first item, then a full disk."""
    yield items[0]
    raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicWrites:
    """A writer that fails midway leaves the file it replaces as it was, and no part file beside it."""

    def write_dataset(self, path, whole):
        records = make_records(3, seed=1 if whole else 2)
        write_dataset(records if whole else _fails_after_the_first(records), path)

    @staticmethod
    def command_run(path):
        """A frame for ``eval`` whose --out holds ``path``."""
        return cli.CommandRun(argparse.Namespace(command="eval", out=str(path.parent)))

    def write_csv(self, path, whole):
        rows = [[1, 2.5], [2, 3.5]]
        self.command_run(path).write_csv(path.name, ["id", "value"], rows if whole else _fails_after_the_first(rows))

    def write_manifest(self, path, whole):
        with self.command_run(path) as run:
            run.manifest["outputs"].append(str(path.parent / "metrics.csv"))
            if not whole:
                run.manifest["outputs"].append(object())  # json.dump stops at it, past the keys before it

    @pytest.mark.parametrize("writer, name", [("write_dataset", "dataset.jsonl"), ("write_csv", "metrics.csv"),
                                              ("write_manifest", "manifest.json")],
                             ids=["dataset", "csv", "manifest"])
    def test_a_writer_that_fails_midway_keeps_the_previous_file(self, tmp_path, writer, name):
        path = tmp_path / name
        getattr(self, writer)(path, whole=True)
        before = path.read_bytes()
        with pytest.raises((OSError, TypeError)):
            getattr(self, writer)(path, whole=False)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]


class TestConfigLayers:
    def test_flag_free_config_is_the_documented_default(self):
        expected = TrainConfig(
            model=ModelConfig(
                encoder=EncoderConfig(widths=(64, 128, 128), embed_dim=32, k=16, seed=0, align_mode="none"),
                gnn=GnnConfig(layers=3, hidden=32, message_width=32),
                g_dim=128, head_hidden=256, cutoff=5.0,
                ablate_3d=False, ablate_features=False, ablate_pointwise=False,
            ),
            split=SplitSpec(mode="holdout", k_folds=None, train_fraction=0.8, seed=0),
            epochs=800, batch_size=128, lr=1e-3, weight_decay=0.01, betas=(0.9, 0.999),
            eps=1e-8, seed=0, lambda_l1=1e-4,
        )
        flag_free = build_parser().parse_args(["train", "--data", "d.jsonl", "--out", "o"])
        assert resolve_config(flag_free) == expected

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

    def test_readme_config_example_resolves_through_the_train_parser(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```json\n(.*?)```", readme, re.S)
        config = tmp_path / "config.json"
        config.write_text(example)
        args = build_parser().parse_args(["train", "--data", "d.jsonl", "--config", str(config), "--out", "o"])
        resolved = json.loads(json.dumps(config_to_dict(resolve_config(args))))

        def assert_taken(given, got, path):
            for key, value in given.items():
                if isinstance(value, dict):
                    assert_taken(value, got[key], f"{path}{key}.")
                else:
                    assert got[key] == value, path + key

        assert_taken(json.loads(example), resolved, "")

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

    def test_version_2_checkpoint_exits_2(self, workspace, trained, tmp_path, capsys):
        # a format-2 model summed its messages and named its readout; its outputs would differ
        def as_version_2(header):
            header["format_version"] = 2
            header["train_config"]["model"]["gnn"]["readout"] = "sum"

        code, err = self.eval_with_header(workspace, trained, tmp_path, capsys, as_version_2)
        assert code == 2
        assert "unsupported checkpoint version 2" in err

    def test_version_3_checkpoint_exits_2(self, workspace, trained, tmp_path, capsys):
        # a format-3 config named its training objective and its encoder pooling
        def as_version_3(header):
            header["format_version"] = 3
            header["train_config"]["model"]["objective"] = "average_output"
            header["train_config"]["model"]["encoder"]["pool"] = "mean"

        code, err = self.eval_with_header(workspace, trained, tmp_path, capsys, as_version_3)
        assert code == 2
        assert "unsupported checkpoint version 3" in err

    def test_version_4_checkpoint_exits_2(self, workspace, trained, tmp_path, capsys):
        # a format-4 encoder config carried use_atom_embedding and could name align_mode "pre"
        def as_version_4(header):
            header["format_version"] = 4
            header["train_config"]["model"]["encoder"]["use_atom_embedding"] = True

        code, err = self.eval_with_header(workspace, trained, tmp_path, capsys, as_version_4)
        TestInputFaultsExit2.assert_input_error(code, err, "unsupported checkpoint version 4")

    @pytest.mark.parametrize("path", ["lr", "model.cutoff"])
    def test_non_finite_header_config_value_names_its_key(self, workspace, trained, tmp_path, capsys, path):
        def poison(header):
            owner = header["train_config"]
            *parents, leaf = path.split(".")
            for key in parents:
                owner = owner[key]
            owner[leaf] = float("nan")

        code, err = self.eval_with_header(workspace, trained, tmp_path, capsys, poison)
        TestInputFaultsExit2.assert_input_error(code, err, f"config key {path} ", "nan")

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


def _chain_bonded(records):
    """The records with each atom bonded to the next."""
    return [replace(r, bonds=[(i, i + 1, 1) for i in range(r.n_atoms - 1)]) for r in records]


class TestRecordOfTheOtherGraphKind:
    """A record whose bondedness differs from the model's exits 2 naming the molecule, and writes nothing."""

    @pytest.fixture(scope="class")
    def bonded_data(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bonded") / "bonded.jsonl"
        write_dataset(_chain_bonded(make_records(3, seed=5)), path)
        return path

    @staticmethod
    def assert_refused(code, err, out, message):
        assert code == 2
        assert err == f"error: {message}\n"  # one line, no internal error, no traceback
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("eval", []),
        ("invariance", ["--rotations", "2"]),
        ("importance", ["--id", "syn00001"]),
        ("sweep-k", ["--k-values", "2", "--rotations", "2"]),
    ], ids=["eval", "invariance", "importance", "sweep-k-checkpoint"])
    def test_cutoff_checkpoint_on_bonded_records(self, trained, bonded_data, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        code = main([command, "--checkpoint", str(trained), "--data", str(bonded_data), *flags, "--out", str(out)])
        molecule = "syn00001" if command == "importance" else "syn00000"
        self.assert_refused(code, capsys.readouterr().err, out,
                            f"molecule {molecule}: has bonds, the model reads cutoff graphs")

    def test_no_features_checkpoint_on_bonded_records(self, workspace, bonded_data, tmp_path, capsys):
        # without engineered features both graph kinds have one edge column: only the gate tells them apart
        root, data, config = workspace
        ckpt = tmp_path / "train" / "checkpoint.rotenc"
        assert main(["train", "--data", str(data), "--config", str(config), "--ablate", "no-features",
                     "--out", str(ckpt.parent)]) == 0
        out = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(bonded_data), "--out", str(out)])
        self.assert_refused(code, capsys.readouterr().err, out,
                            "molecule syn00000: has bonds, the model reads cutoff graphs")

    def test_bonded_checkpoint_on_bond_free_records(self, workspace, tmp_path, capsys):
        root, data, config = workspace
        bonded = tmp_path / "bonded.jsonl"
        write_dataset(_chain_bonded(load_dataset(data)), bonded)
        ckpt = tmp_path / "train" / "checkpoint.rotenc"
        assert main(["train", "--data", str(bonded), "--config", str(config), "--out", str(ckpt.parent)]) == 0
        out = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)])
        self.assert_refused(code, capsys.readouterr().err, out,
                            "molecule syn00000: has no bonds, the model reads bonded graphs")

    def test_train_on_records_of_both_kinds(self, workspace, tmp_path, capsys):
        # golden: ethanol (the first record, so the model reads cutoff graphs) and methane are bond-free, water is bonded
        root, data, config = workspace
        out = tmp_path / "train"
        code = main(["train", "--data", str(GOLDEN / "golden.jsonl"), "--config", str(config), "--out", str(out)])
        self.assert_refused(code, capsys.readouterr().err, out,
                            "molecule water: has bonds, the model reads cutoff graphs")


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

    @pytest.mark.parametrize("coords", [
        [[1.7e308, 0.0, 0.0], [1.7e308, 1.0, 0.0]],  # centering overflows
        [[1.7e308, 0.0, 0.0], [-1.7e308, 0.0, 0.0]],  # centers exactly; distances and covariance overflow
    ], ids=["centering-overflows", "distances-overflow"])
    @pytest.mark.parametrize("command", ["train", "eval", "invariance", "importance", "align"])
    def test_coordinates_out_of_range_exit_2_naming_the_molecule(self, workspace, trained, tmp_path, capsys,
                                                                 coords, command):
        # the run treats a RuntimeWarning as an error, so an overflow anywhere fails the test
        root, data, config = workspace
        far = MoleculeRecord(id="far", atomic_numbers=[6, 8], coords=np.array(coords), bonds=None,
                             targets={"rg": 1.0})
        path = str(_with_record(tmp_path, far))
        argv = {
            "train": ["--data", path, "--config", str(config)],
            "eval": ["--checkpoint", str(trained), "--data", path],
            "invariance": ["--checkpoint", str(trained), "--data", path, "--rotations", "2"],
            "importance": ["--checkpoint", str(trained), "--data", path, "--id", "far"],
            "align": ["--data", path],
        }[command]
        code = main([command, *argv, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "molecule far: coordinates must be finite" in err and "internal error" not in err
