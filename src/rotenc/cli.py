"""Command-line pipeline: convert, train, eval, invariance, sweep-k, align, importance.

Every command runs in one ``CommandRun``. It checks each input file the
command was given (--xyz, --targets, --checkpoint, --data, --config)
before it makes the --out directory, writes each output whole, and writes
``manifest.json`` into --out last, once the command has succeeded. A
command that fails removes the --out directories it made while they are
still empty. The manifest holds ``tool``, ``command``, ``argv``,
``inputs`` (each input file's path and sha256), ``outputs`` (each file
written into --out but the manifest, in write order), ``runtime_seconds``,
``config`` and ``seeds``:

- ``convert``, ``align``: no model, so ``config`` is null and ``seeds`` empty.
- ``train``: the resolved config; seeds ``train``, ``inference``, ``split``.
- ``eval``, ``importance``: the checkpoint's config; seed ``inference``.
- ``invariance``: the checkpoint's config; seeds ``inference``, ``rotations``.
- ``sweep-k``: with --checkpoint, as ``invariance``; without, as ``train``
  plus ``rotations``, where the config is the one before each row sets its k.

Reruns with an identical manifest are reproducible. ``train`` and
``sweep-k`` layer their config: built-in defaults, then the --config JSON
file, then individual flags. The other commands take their config from a
checkpoint or need none.

Exit codes: 0 success, 2 for an ``InputError`` or an ``OSError`` (bad input
or an unusable path), 1 for any other ``RotencError`` (a program fault).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .alignment import canonical_align
from .data import (
    SplitSpec,
    atomic_write,
    convert_xyz,
    dataset_targets,
    load_dataset,
    write_dataset,
)
from .errors import InputError, InvalidConfig, RotencError
from .encoder3d import ALIGN_MODES, EncoderConfig
from .geometry import PointCloud, center_cloud
from .gnn import GnnConfig
from .model import ModelConfig, atom_importance, for_molecule, measure_invariance
from .trainer import (
    Checkpoint,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    evaluate_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
)

# --ablate value -> the ModelConfig flag it sets
ABLATIONS = {"no-3d": "ablate_3d", "no-features": "ablate_features", "no-pointnet": "ablate_pointwise"}

# each input-file flag's destination -> what an error calls it, in the order they are checked
INPUTS = {"xyz": "XYZ file", "targets": "targets table", "checkpoint": "checkpoint", "data": "dataset",
          "config": "config file"}


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if key in out and isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def resolve_config(args) -> TrainConfig:
    """Defaults, then the --config file, then the flags of ``train`` or ``sweep-k``."""
    cfg = config_to_dict(TrainConfig(ModelConfig(EncoderConfig(), GnnConfig()), SplitSpec()))
    if args.config:
        path = Path(args.config)
        try:
            override = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise InvalidConfig(f"config file {path} is not JSON ({exc})") from exc
        if not isinstance(override, dict):
            raise InvalidConfig(f"config file {path} must hold a JSON object")
        cfg = _deep_merge(cfg, override)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.epochs is not None:
        cfg["epochs"] = args.epochs
    if getattr(args, "k", None) is not None:  # sweep-k sets k per row instead
        cfg["model"]["encoder"]["k"] = args.k
    if args.align_mode is not None:
        cfg["model"]["encoder"]["align_mode"] = args.align_mode
    for ablate in args.ablate or []:
        cfg["model"][ABLATIONS[ablate]] = True
    return config_from_dict(cfg)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class CommandRun:
    """One command's input files, --out directory, outputs and manifest.json.

    Made once the command has checked its arguments: it checks and hashes
    every input file in ``args`` before it makes --out. ``inputs`` maps
    each input flag's destination to its path. Each output is written
    through a writer that replaces its file whole and is listed in write
    order. As a context manager it writes manifest.json when its block ends
    normally. When the block raises, it writes nothing and removes the
    directories it made for --out, deepest first, while they are empty.
    """

    def __init__(self, args):
        self.inputs = {name: Path(getattr(args, name)) for name in INPUTS if getattr(args, name, None) is not None}
        for name, path in self.inputs.items():
            if not path.exists():
                raise InputError(f"{INPUTS[name]} not found: {path}")
            if not path.is_file():
                raise InputError(f"{INPUTS[name]} is not a file: {path}")
        self.manifest = {
            "tool": f"rotenc {__version__}",
            "command": args.command,
            "argv": sys.argv[1:],
            "seeds": {},
            "inputs": {str(path): _sha256(path) for path in self.inputs.values()},
            "outputs": [],
            "config": None,
        }
        self.out = Path(args.out)
        self._made = [path for path in (self.out, *self.out.parents) if not path.exists()]  # deepest first
        self.out.mkdir(parents=True, exist_ok=True)
        self._start = time.time()

    def __enter__(self) -> CommandRun:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self._made:
                try:
                    path.rmdir()  # refused for the first directory that holds anything: it and its parents stay
                except OSError:
                    break
            return
        self.manifest["runtime_seconds"] = round(time.time() - self._start, 3)
        with atomic_write(self.out / "manifest.json", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def record_config(self, cfg: TrainConfig) -> None:
        """Record the config a command trains with, and its seeds."""
        self.manifest["config"] = config_to_dict(cfg)
        self.manifest["seeds"].update(train=cfg.seed, inference=cfg.model.encoder.seed, split=cfg.split.seed)

    def load_checkpoint(self, align_mode: str | None = None) -> Checkpoint:
        """The --checkpoint, with ``align_mode`` in place of its own when one is given.

        Records the checkpoint's own config and its encoder's inference seed.
        """
        ckpt = load_checkpoint(self.inputs["checkpoint"])
        self.manifest["config"] = config_to_dict(ckpt.train_config)
        self.manifest["seeds"]["inference"] = ckpt.train_config.model.encoder.seed
        if align_mode is None:
            return ckpt
        model_cfg = ckpt.train_config.model
        model_cfg = replace(model_cfg, encoder=replace(model_cfg.encoder, align_mode=align_mode))
        return replace(ckpt, train_config=replace(ckpt.train_config, model=model_cfg))

    def write(self, name: str, writer, *args) -> Path:
        """Call ``writer(*args, path)`` for ``name`` in --out and list the path as the next output."""
        path = self.out / name
        writer(*args, path)
        self.manifest["outputs"].append(str(path))
        return path

    def write_csv(self, name: str, header, rows) -> Path:
        """Write ``header`` and then ``rows`` as the CSV table ``name`` in --out, the next output."""

        def write_table(path):
            with atomic_write(path, newline="", encoding="utf-8") as fh:
                table = csv.writer(fh)
                table.writerow(header)
                table.writerows(rows)

        return self.write(name, write_table)


def cmd_convert(args) -> int:
    with CommandRun(args) as run:
        records = convert_xyz(run.inputs["xyz"], run.inputs["targets"])
        dataset_path = run.write("dataset.jsonl", write_dataset, records)
    print(f"wrote {len(records)} records to {dataset_path}")
    return 0


def cmd_train(args) -> int:
    with CommandRun(args) as run:
        cfg = resolve_config(args)
        run.record_config(cfg)
        ckpt, history = train(cfg, load_dataset(run.inputs["data"]))
        ckpt_path = run.write("checkpoint.rotenc", save_checkpoint, ckpt)
        tasks = list(ckpt.task_names)
        header = ["fold", "epoch", "train_loss"]
        for t in tasks:
            header += [f"val_mae_{t}", f"val_rmse_{t}", f"val_r2_{t}"]
        rows = []
        for entry in history:
            row = [entry["fold"], entry["epoch"], f"{entry['train_loss']:.8g}"]
            for t in tasks:
                row += [
                    f"{entry['val_mae'][t]:.8g}",
                    f"{entry['val_rmse'][t]:.8g}",
                    f"{entry['val_r2'][t]:.8g}",
                ]
            rows.append(row)
        run.write_csv("metrics.csv", header, rows)
    print(f"trained {len(history)} epochs; checkpoint at {ckpt_path} (d_u={cfg.model.d_u})")
    return 0


def cmd_eval(args) -> int:
    with CommandRun(args) as run:
        ckpt = run.load_checkpoint()
        model, normalizer = model_from_checkpoint(ckpt)
        records = load_dataset(run.inputs["data"])
        metrics = evaluate_model(model, normalizer, [model.prepare(record) for record in records],
                                 dataset_targets(records)[1])
        rows = [
            [t, f"{metrics.mae[t]:.8g}", f"{metrics.rmse[t]:.8g}", f"{metrics.r2[t]:.8g}"]
            for t in ckpt.task_names
        ]
        run.write_csv("metrics.csv", ["task", "mae", "rmse", "r2"], rows)
    for row in rows:
        print("  ".join(str(x) for x in row))
    return 0


def _check_probe(args) -> None:
    """The invariance probe of ``invariance`` and ``sweep-k`` needs 2 rotations and 1 molecule at least."""
    if args.rotations < 2:
        raise InputError(f"--rotations must be >= 2, got {args.rotations}")
    if args.max_molecules is not None and args.max_molecules < 1:
        raise InputError(f"--max-molecules must be >= 1, got {args.max_molecules}")


def cmd_invariance(args) -> int:
    _check_probe(args)
    modes = None  # the checkpoint's own
    if args.align_modes is not None:
        modes = [m.strip() for m in args.align_modes.split(",") if m.strip()]
        if not modes:
            raise InputError("no align modes given")
    with CommandRun(args) as run:
        run.manifest["seeds"]["rotations"] = args.seed
        checkpoints = [run.load_checkpoint(mode) for mode in modes or [None]]  # an unknown mode fails first
        records = load_dataset(run.inputs["data"])[: args.max_molecules]
        rows = []
        for ckpt in checkpoints:
            model, _ = model_from_checkpoint(ckpt)
            report = measure_invariance(model, records, n_rotations=args.rotations, seed=args.seed)
            rows.append(
                [model.cfg.encoder.align_mode, f"{report.mean_dev:.10g}", f"{report.max_dev:.10g}",
                 report.n_molecules, report.n_rotations]
            )
        run.write_csv("invariance.csv", ["align_mode", "mean_dev", "max_dev", "n_molecules", "n_rotations"], rows)
    for row in rows:
        print("  ".join(str(x) for x in row))
    return 0


def cmd_sweep_k(args) -> int:
    _check_probe(args)
    if args.checkpoint:
        given = {"--config": args.config, "--epochs": args.epochs, "--align-mode": args.align_mode,
                 "--ablate": args.ablate}
        for flag, value in given.items():
            if value is not None:
                raise InputError(f"--checkpoint fixes the model; it cannot be combined with {flag}")
    k_values = []
    for token in args.k_values.split(","):
        try:
            k = int(token)
        except ValueError:
            raise InputError(f"--k-values: {token.strip()!r} is not an integer") from None
        if k < 1:
            raise InputError(f"--k-values: k must be >= 1, got {k}")
        if k in k_values:
            print(f"warning: duplicate k={k} ignored", file=sys.stderr)
            continue
        k_values.append(k)
    if not k_values:
        raise InputError("no k values given")
    with CommandRun(args) as run:
        records = load_dataset(run.inputs["data"])
        seed = args.seed if args.seed is not None else 0
        # prepare does not read k: the records are prepared once, by the checkpoint's or the first row's model
        batches = None
        if args.checkpoint:
            ckpt = run.load_checkpoint()
            model, normalizer = model_from_checkpoint(ckpt)
            base_cfg = ckpt.train_config
            batches = [model.prepare(record) for record in records]
        else:
            base_cfg = resolve_config(args)
            run.record_config(base_cfg)
        _, targets = dataset_targets(records)
        run.manifest["seeds"]["rotations"] = seed
        rows = []
        baseline_mae = None
        for k in k_values:
            start = time.time()
            model_cfg = replace(base_cfg.model, encoder=replace(base_cfg.model.encoder, k=k))
            if args.checkpoint:
                model.cfg = model_cfg
            else:
                ckpt, _ = train(replace(base_cfg, model=model_cfg), records)
                model, normalizer = model_from_checkpoint(ckpt)
                batches = batches or [model.prepare(record) for record in records]
            metrics = evaluate_model(model, normalizer, batches, targets)
            report = measure_invariance(model, records[: args.max_molecules],
                                        n_rotations=args.rotations, seed=seed)
            runtime = time.time() - start
            mae = float(np.mean(list(metrics.mae.values())))
            if baseline_mae is None:
                baseline_mae = mae
            rows.append(
                [k, f"{mae:.8g}", f"{mae / baseline_mae:.6g}", f"{runtime:.3f}", f"{report.mean_dev:.10g}"]
            )
        run.write_csv("sweep.csv", ["k", "mae", "relative_mae", "runtime_seconds", "mean_dev"], rows)
    for row in rows:
        print("  ".join(str(x) for x in row))
    return 0


def cmd_align(args) -> int:
    with CommandRun(args) as run:
        aligned_records = []
        degenerate_rows = []
        for record in load_dataset(run.inputs["data"]):
            with for_molecule(record):
                cloud = PointCloud(record.coords, np.asarray(record.atomic_numbers))
                if cloud.n_atoms < 2:  # a lone atom has no axes; centered, it is its own canonical form
                    degenerate_rows.append([record.id, "fewer than 2 atoms"])
                    aligned = center_cloud(cloud)[0]
                else:
                    result = canonical_align(cloud)
                    if result.degenerate:
                        degenerate_rows.append([record.id, "repeated covariance eigenvalues"])
                    aligned = result.aligned
            aligned_records.append(replace(record, coords=aligned.coords))
        run.write("aligned.jsonl", write_dataset, aligned_records)
        run.write_csv("degenerate.csv", ["id", "reason"], degenerate_rows)
    print(f"aligned {len(aligned_records)} molecules ({len(degenerate_rows)} degenerate)")
    return 0


def cmd_importance(args) -> int:
    with CommandRun(args) as run:
        ckpt = run.load_checkpoint()
        data_path = run.inputs["data"]
        matches = [r for r in load_dataset(data_path) if r.id == args.id]
        if not matches:
            raise InputError(f"molecule id {args.id!r} not found in {data_path}")
        record = matches[0]
        model, _ = model_from_checkpoint(ckpt)
        if not (0 <= args.task < len(model.task_names)):
            raise InputError(f"--task {args.task} out of range; tasks: {list(model.task_names)}")
        scores, coord_part = atom_importance(model, record, args.task)
        rows = [
            [i, record.atomic_numbers[i],
             f"{record.coords[i, 0]:.8g}", f"{record.coords[i, 1]:.8g}", f"{record.coords[i, 2]:.8g}",
             f"{scores[i]:.8g}", f"{coord_part[i]:.8g}"]
            for i in range(record.n_atoms)
        ]
        path = run.write_csv("importance.csv", ["atom", "z", "x", "y", "z_coord", "score", "coord_grad_norm"], rows)
    print(f"wrote per-atom scores for {record.id} (task {model.task_names[args.task]}) to {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotenc",
        description="Rotation-invariant 3D molecular encoding: train, evaluate, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True)
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--checkpoint", required=True)
    training = argparse.ArgumentParser(add_help=False)  # the flags of the commands that train
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--align-mode", choices=ALIGN_MODES, default=None)
    training.add_argument("--ablate", action="append", choices=list(ABLATIONS), help="disable a component (repeatable)")
    training.add_argument("--config", help="JSON config file (layered under flag overrides)")
    training.add_argument("--seed", type=int, default=None, help="master seed override")

    p = sub.add_parser("convert", help="XYZ + targets table -> JSONL dataset")
    p.add_argument("--xyz", required=True)
    p.add_argument("--targets", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a model", parents=[data, training])
    p.add_argument("--k", type=int, default=None, help="view count override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset", parents=[checkpoint, data])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("invariance", help="measure prediction deviation under rotations", parents=[checkpoint, data])
    p.add_argument("--rotations", type=int, default=100)
    p.add_argument("--align-modes", default=None, help="comma list; default: checkpoint's mode")
    p.add_argument("--max-molecules", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="rotation seed")
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("sweep-k", help="metrics and runtime across view counts", parents=[data, training])
    p.add_argument("--k-values", required=True, help="comma-separated k values")
    p.add_argument("--checkpoint", default=None, help="eval-only sweep on this checkpoint")
    p.add_argument("--rotations", type=int, default=10)
    p.add_argument("--max-molecules", type=int, default=None)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("align", help="write a canonically aligned copy of a dataset", parents=[data])
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("importance", help="per-atom gradient importance scores", parents=[checkpoint, data])
    p.add_argument("--id", required=True, help="molecule id")
    p.add_argument("--task", type=int, default=0)
    p.set_defaults(func=cmd_importance)

    for p in sub.choices.values():
        p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RotencError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
