"""Command-line pipeline: convert, train, eval, invariance, sweep-k, align, importance.

Every command writes its outputs plus a ``manifest.json`` into the --out
directory: the exact command, the fully resolved config, seeds, sha256
hashes of the inputs, output paths, and wall-clock timing. Reruns with an
identical manifest are reproducible. ``train`` and ``sweep-k`` layer their
config: built-in defaults, then the --config JSON file, then individual
flags. The other commands take their config from a checkpoint or need none.

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
    load_dataset,
    split as split_records,
    write_dataset,
)
from .errors import InputError, InvalidConfig, RotencError
from .encoder3d import ALIGN_MODES, EncoderConfig
from .geometry import PointCloud, center_cloud
from .gnn import GnnConfig
from .model import ModelConfig, atom_importance, for_molecule, measure_invariance
from .trainer import (
    TrainConfig,
    config_from_dict,
    config_to_dict,
    evaluate,
    evaluate_model,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    train,
)

# --ablate value -> the ModelConfig flag it sets
ABLATIONS = {"no-3d": "ablate_3d", "no-features": "ablate_features", "no-pointnet": "ablate_pointwise"}


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
        path = _require(args.config, "config file")
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


class Manifest:
    """Collects command provenance and writes manifest.json at the end."""

    def __init__(self, command: str, out_dir: Path):
        self.data = {
            "tool": f"rotenc {__version__}",
            "command": command,
            "argv": sys.argv[1:],
            "seeds": {},
            "inputs": {},
            "outputs": [],
            "config": None,
        }
        self.out_dir = out_dir
        self._start = time.time()

    def add_input(self, path):
        self.data["inputs"][str(path)] = _sha256(path)

    def add_output(self, path):
        self.data["outputs"].append(str(path))

    def write(self):
        self.data["runtime_seconds"] = round(time.time() - self._start, 3)
        path = self.out_dir / "manifest.json"
        with atomic_write(path, encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path, what: str) -> Path:
    """The path of an input file; a missing path or a directory is an input error."""
    p = Path(path)
    if not p.exists():
        raise InputError(f"{what} not found: {p}")
    if not p.is_file():
        raise InputError(f"{what} is not a file: {p}")
    return p


def _write_csv(path, header, rows):
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_convert(args) -> int:
    xyz = _require(args.xyz, "XYZ file")
    targets = _require(args.targets, "targets table")
    out = _out_dir(args)
    manifest = Manifest("convert", out)
    manifest.add_input(xyz)
    manifest.add_input(targets)
    records = convert_xyz(xyz, targets)
    dataset_path = out / "dataset.jsonl"
    write_dataset(records, dataset_path)
    manifest.add_output(dataset_path)
    manifest.write()
    print(f"wrote {len(records)} records to {dataset_path}")
    return 0


def cmd_train(args) -> int:
    data_path = _require(args.data, "dataset")
    out = _out_dir(args)
    cfg = resolve_config(args)
    manifest = Manifest("train", out)
    manifest.add_input(data_path)
    manifest.data["config"] = config_to_dict(cfg)
    manifest.data["seeds"] = {"train": cfg.seed, "inference": cfg.model.encoder.seed, "split": cfg.split.seed}

    records = load_dataset(data_path)
    ckpt, history = train(cfg, records)

    ckpt_path = out / "checkpoint.rotenc"
    save_checkpoint(ckpt, ckpt_path)
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
    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, header, rows)
    manifest.add_output(ckpt_path)
    manifest.add_output(metrics_path)
    manifest.write()
    print(f"trained {len(history)} epochs; checkpoint at {ckpt_path} (d_u={cfg.model.d_u})")
    return 0


def cmd_eval(args) -> int:
    ckpt_path = _require(args.checkpoint, "checkpoint")
    data_path = _require(args.data, "dataset")
    out = _out_dir(args)
    manifest = Manifest("eval", out)
    manifest.add_input(ckpt_path)
    manifest.add_input(data_path)
    ckpt = load_checkpoint(ckpt_path)
    manifest.data["config"] = config_to_dict(ckpt.train_config)
    manifest.data["seeds"] = {"inference": ckpt.train_config.model.encoder.seed}
    metrics = evaluate(ckpt, load_dataset(data_path), split_name="eval")
    rows = [
        [t, f"{metrics.mae[t]:.8g}", f"{metrics.rmse[t]:.8g}", f"{metrics.r2[t]:.8g}"]
        for t in ckpt.task_names
    ]
    metrics_path = out / "metrics.csv"
    _write_csv(metrics_path, ["task", "mae", "rmse", "r2"], rows)
    manifest.add_output(metrics_path)
    manifest.write()
    for row in rows:
        print("  ".join(str(x) for x in row))
    return 0


def _model_with_align(ckpt, mode: str):
    model, normalizer = model_from_checkpoint(ckpt)
    enc = replace(model.cfg.encoder, align_mode=mode)
    model.cfg = replace(model.cfg, encoder=enc)
    return model, normalizer


def _check_max_molecules(args) -> None:
    if args.max_molecules is not None and args.max_molecules < 1:
        raise InputError(f"--max-molecules must be >= 1, got {args.max_molecules}")


def _check_rotations(args) -> None:
    if args.rotations < 2:
        raise InputError(f"--rotations must be >= 2, got {args.rotations}")


def cmd_invariance(args) -> int:
    ckpt_path = _require(args.checkpoint, "checkpoint")
    data_path = _require(args.data, "dataset")
    _check_rotations(args)
    _check_max_molecules(args)
    out = _out_dir(args)
    manifest = Manifest("invariance", out)
    manifest.add_input(ckpt_path)
    manifest.add_input(data_path)
    manifest.data["seeds"] = {"rotations": args.seed}
    ckpt = load_checkpoint(ckpt_path)
    records = load_dataset(data_path)[: args.max_molecules]
    requested = ckpt.train_config.model.encoder.align_mode if args.align_modes is None else args.align_modes
    modes = [m.strip() for m in requested.split(",") if m.strip()]
    if not modes:
        raise InputError("no align modes given")
    models = [_model_with_align(ckpt, mode)[0] for mode in modes]  # an unknown mode fails before any work
    rows = []
    for mode, model in zip(modes, models):
        report = measure_invariance(model, records, n_rotations=args.rotations, seed=args.seed)
        rows.append(
            [mode, f"{report.mean_dev:.10g}", f"{report.max_dev:.10g}",
             report.n_molecules, report.n_rotations]
        )
    report_path = out / "invariance.csv"
    _write_csv(report_path, ["align_mode", "mean_dev", "max_dev", "n_molecules", "n_rotations"], rows)
    manifest.add_output(report_path)
    manifest.write()
    for row in rows:
        print("  ".join(str(x) for x in row))
    return 0


def cmd_sweep_k(args) -> int:
    data_path = _require(args.data, "dataset")
    _check_rotations(args)
    _check_max_molecules(args)
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
    out = _out_dir(args)
    manifest = Manifest("sweep-k", out)
    manifest.add_input(data_path)
    records = load_dataset(data_path)
    seed = args.seed if args.seed is not None else 0
    manifest.data["seeds"] = {"rotations": seed}
    if args.checkpoint:
        model, normalizer = model_from_checkpoint(load_checkpoint(_require(args.checkpoint, "checkpoint")))
        base_cfg = model.cfg
    else:
        base_cfg = resolve_config(args)
    rows = []
    baseline_mae = None
    for k in k_values:
        start = time.time()
        if args.checkpoint:
            model.cfg = replace(base_cfg, encoder=replace(base_cfg.encoder, k=k))
        else:
            enc = replace(base_cfg.model.encoder, k=k)
            ckpt, _ = train(replace(base_cfg, model=replace(base_cfg.model, encoder=enc)), records)
            model, normalizer = model_from_checkpoint(ckpt)
        metrics = evaluate_model(model, normalizer, records, split_name=f"k={k}")
        report = measure_invariance(model, records[: args.max_molecules],
                                    n_rotations=args.rotations, seed=seed)
        runtime = time.time() - start
        mae = float(np.mean(list(metrics.mae.values())))
        if baseline_mae is None:
            baseline_mae = mae
        rows.append(
            [k, f"{mae:.8g}", f"{mae / baseline_mae:.6g}", f"{runtime:.3f}", f"{report.mean_dev:.10g}"]
        )
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path, ["k", "mae", "relative_mae", "runtime_seconds", "mean_dev"], rows)
    manifest.add_output(sweep_path)
    manifest.write()
    for row in rows:
        print("  ".join(str(x) for x in row))
    return 0


def cmd_align(args) -> int:
    data_path = _require(args.data, "dataset")
    out = _out_dir(args)
    manifest = Manifest("align", out)
    manifest.add_input(data_path)
    records = load_dataset(data_path)
    aligned_records = []
    degenerate_rows = []
    for record in records:
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
    aligned_path = out / "aligned.jsonl"
    write_dataset(aligned_records, aligned_path)
    sidecar_path = out / "degenerate.csv"
    _write_csv(sidecar_path, ["id", "reason"], degenerate_rows)
    manifest.add_output(aligned_path)
    manifest.add_output(sidecar_path)
    manifest.write()
    print(f"aligned {len(aligned_records)} molecules ({len(degenerate_rows)} degenerate)")
    return 0


def cmd_importance(args) -> int:
    ckpt_path = _require(args.checkpoint, "checkpoint")
    data_path = _require(args.data, "dataset")
    out = _out_dir(args)
    manifest = Manifest("importance", out)
    manifest.add_input(ckpt_path)
    manifest.add_input(data_path)
    ckpt = load_checkpoint(ckpt_path)
    manifest.data["seeds"] = {"inference": ckpt.train_config.model.encoder.seed}
    records = load_dataset(data_path)
    matches = [r for r in records if r.id == args.id]
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
    path = out / "importance.csv"
    _write_csv(path, ["atom", "z", "x", "y", "z_coord", "score", "coord_grad_norm"], rows)
    manifest.add_output(path)
    manifest.write()
    print(f"wrote per-atom scores for {record.id} (task {model.task_names[args.task]}) to {path}")
    return 0


def _add_common(parser):
    parser.add_argument("--out", required=True, help="output directory")


def _add_config(parser):
    parser.add_argument("--config", help="JSON config file (layered under flag overrides)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotenc",
        description="Rotation-invariant 3D molecular encoding: train, evaluate, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="XYZ + targets table -> JSONL dataset")
    p.add_argument("--xyz", required=True)
    p.add_argument("--targets", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="view count override")
    p.add_argument("--align-mode", choices=ALIGN_MODES, default=None)
    p.add_argument("--ablate", action="append", choices=list(ABLATIONS),
                   help="disable a component (repeatable)")
    _add_config(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("invariance", help="measure prediction deviation under rotations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--rotations", type=int, default=100)
    p.add_argument("--align-modes", default=None, help="comma list; default: checkpoint's mode")
    p.add_argument("--max-molecules", type=int, default=None)
    p.add_argument("--seed", type=int, default=0, help="rotation seed")
    _add_common(p)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("sweep-k", help="metrics and runtime across view counts")
    p.add_argument("--data", required=True)
    p.add_argument("--k-values", required=True, help="comma-separated k values")
    p.add_argument("--checkpoint", default=None, help="eval-only sweep on this checkpoint")
    p.add_argument("--rotations", type=int, default=10)
    p.add_argument("--max-molecules", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--align-mode", choices=ALIGN_MODES, default=None)
    p.add_argument("--ablate", action="append", choices=list(ABLATIONS))
    _add_config(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("align", help="write a canonically aligned copy of a dataset")
    p.add_argument("--data", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("importance", help="per-atom gradient importance scores")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--id", required=True, help="molecule id")
    p.add_argument("--task", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_importance)

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
