"""Training loop (AdamW), cross-validation driver, metrics, checkpoints.

A run is one loop over its folds and their epochs: ``train_epochs`` yields
its ``RunState`` after every epoch (``run_epoch``), and ``train`` drains it.
Training is single-threaded and fully deterministic for a fixed seed: epoch
shuffles, per-molecule view rotations, and parameter updates all derive
from the config seed, so two runs produce bit-identical loss curves. Each
training batch is one packed batch (``packing``): one forward pass, one
tape and one backward sweep per step, and the tape dies with its step.
Evaluation predicts in packed batches too, of ``model.SCORING_PACK`` molecules
(``Model.predict_prepared``).

A training step computes in float32 over float64 masters, as in
Micikevicius et al. 2018: the forward and backward run on float32 copies
of the molecules (made once per fold, ``packing.lowered``), of the
weights, the rotations and the normalized targets. The master weights,
the AdamW moments, the batchnorm running statistics, evaluation and the
checkpoint stay float64.

Checkpoints are self-describing binary files (magic ``ROTENC1``) holding
every parameter as little-endian float64, the batchnorm running statistics,
the target normalizer, and the fully resolved training config.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterStore
from .data import (
    Normalizer,
    SplitSpec,
    _finite_number,
    atomic_write,
    dataset_targets,
    dataset_vocab,
    normalize_targets,
    split,
)
from .errors import Diverged, InvalidConfig, ShapeError, StaleGradient
from .geometry import sample_rotations
from .model import Model, ModelConfig, loss
from .packing import Batch, lowered, pack

CHECKPOINT_MAGIC = b"ROTENC1\n"
CHECKPOINT_VERSION = 5


@dataclass
class TrainConfig:
    model: ModelConfig
    split: SplitSpec
    epochs: int = 800
    batch_size: int = 128
    lr: float = 1e-3
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 0
    lambda_l1: float = 1e-4

    def __post_init__(self):
        self.betas = tuple(self.betas)
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.lr < math.inf:
            raise InvalidConfig(f"lr must be finite and positive, got {self.lr}")
        if not 0 < self.eps < math.inf:
            raise InvalidConfig(f"eps must be finite and positive, got {self.eps}")
        for name in ("weight_decay", "lambda_l1"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidConfig(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.lr * self.weight_decay >= 1:  # the decay factor 1 - lr·wd would flip or zero every weight
            raise InvalidConfig(f"lr * weight_decay must be < 1, got {self.lr} * {self.weight_decay}")
        if not all(0 <= beta < 1 for beta in self.betas):
            raise InvalidConfig(f"betas must each be in [0, 1), got {self.betas}")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass
class Metrics:
    """Per-task MAE / RMSE / R^2 (original target units)."""

    mae: dict[str, float]
    rmse: dict[str, float]
    r2: dict[str, float]


class AdamWState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


def adamw_step(store: ParameterStore, state: AdamWState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update over all parameters.

    The decay theta <- theta * (1 - lr * wd) is applied before the Adam
    update; moments use bias correction. Parameters are visited in sorted
    name order. A float32 gradient is cast to float64 before it enters the
    moments. Raises StaleGradient when backward has not populated a
    parameter's gradient since the last zero_grad.
    """
    b1, b2 = cfg.betas
    state.step += 1
    t = state.step
    for name, p in store.items():
        if p._grad is None:
            raise StaleGradient(f"parameter {name!r} has no gradient; call backward first")
        g = np.asarray(p._grad, dtype=np.float64)
        p.data *= 1.0 - cfg.lr * cfg.weight_decay
        if name not in state.m:  # the moments start at zero, made once per parameter
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)


@dataclass
class Checkpoint:
    """Everything needed to reproduce predictions bit-for-bit."""

    params: dict[str, np.ndarray]
    bn_stats: dict[str, tuple[np.ndarray, np.ndarray]]
    normalizer: Normalizer
    train_config: TrainConfig
    vocab: tuple[int, ...]
    task_names: tuple[str, ...]
    bonded: bool


def config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def _matches(value, hint) -> bool:
    """True when a JSON value fits a config field's type hint; a float field takes any finite number."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        return len(value) == len(args) and all(_matches(v, a) for v, a in zip(value, args))
    if args:  # a union such as int | None
        return any(_matches(value, a) for a in args)
    return _finite_number(value) if hint is float else type(value) is hint  # a bool is no int, nor a number


def _non_finite(value) -> bool:
    """A number no finite float holds (NaN, an infinity, an int beyond float range), or a list holding one."""
    if isinstance(value, (list, tuple)):
        return any(_non_finite(v) for v in value)
    return isinstance(value, (int, float)) and not isinstance(value, bool) and not _finite_number(value)


def _build_config(cls, d, path: str = ""):
    """One config dataclass from a dict; an unknown, mistyped or missing key raises InvalidConfig."""
    if not isinstance(d, dict):
        raise InvalidConfig(f"config {path.rstrip('.') or 'root'} must be an object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise InvalidConfig(f"unknown config key {path}{unknown[0]}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, f in fields.items():
        key = path + name
        if name not in d:
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise InvalidConfig(f"config lacks {key}")
        elif dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _build_config(hints[name], d[name], key + ".")
        elif _matches(d[name], hints[name]):
            kwargs[name] = d[name]
        elif _non_finite(d[name]):
            raise InvalidConfig(f"config key {key} must be finite, got {d[name]!r}")
        else:
            raise InvalidConfig(f"config key {key} must be {f.type}, got {d[name]!r}")
    return cls(**kwargs)


def config_from_dict(d: dict) -> TrainConfig:
    return _build_config(TrainConfig, d)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    arrays = []
    param_meta = []
    for name in sorted(ckpt.params):
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
        param_meta.append({"name": name, "shape": list(arr.shape)})
        arrays.append(arr)
    bn_meta = []
    for name in sorted(ckpt.bn_stats):
        mean, var = ckpt.bn_stats[name]
        bn_meta.append({"name": name, "width": int(mean.shape[0])})
        arrays.append(np.ascontiguousarray(mean, dtype="<f8"))
        arrays.append(np.ascontiguousarray(var, dtype="<f8"))
    header = {
        "format_version": CHECKPOINT_VERSION,
        "train_config": config_to_dict(ckpt.train_config),
        "normalizer": {
            "task_names": list(ckpt.normalizer.task_names),
            "mean": ckpt.normalizer.mean.tolist(),
            "std": ckpt.normalizer.std.tolist(),
        },
        "vocab": list(ckpt.vocab),
        "task_names": list(ckpt.task_names),
        "bonded": bool(ckpt.bonded),
        "params": param_meta,
        "bn_states": bn_meta,
    }
    blob = json.dumps(header).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(arr.tobytes())


_HEADER_KEYS = ("format_version", "train_config", "normalizer", "vocab", "task_names",
                "bonded", "params", "bn_states")


def _count(x, low: int = 0) -> bool:
    return type(x) is int and x >= low


def _list_of(value, ok) -> bool:
    return isinstance(value, list) and all(ok(v) for v in value)


def _malformed_header_fields(header: dict) -> list[str]:
    """Names of the header fields whose JSON types are not what a checkpoint holds."""
    norm = header["normalizer"]
    checks = {
        "vocab": _list_of(header["vocab"], lambda z: _count(z, 1)) and bool(header["vocab"]),
        "task_names": _list_of(header["task_names"], lambda t: isinstance(t, str)) and bool(header["task_names"]),
        "bonded": isinstance(header["bonded"], bool),
        "normalizer": isinstance(norm, dict)
        and _list_of(norm.get("task_names"), lambda t: isinstance(t, str))
        and all(_list_of(norm.get(key), _finite_number) and len(norm[key]) == len(norm["task_names"])
                for key in ("mean", "std"))
        and all(s > 0 for s in norm["std"]),  # a zero std would map every prediction to the mean
        "params": _list_of(header["params"], lambda m: isinstance(m, dict) and isinstance(m.get("name"), str)
                           and _list_of(m.get("shape"), _count)),
        "bn_states": _list_of(header["bn_states"], lambda m: isinstance(m, dict)
                              and isinstance(m.get("name"), str) and _count(m.get("width"))),
    }
    return [key for key, ok in checks.items() if not ok]


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed or truncated file raises InvalidConfig."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise InvalidConfig(f"not a checkpoint file (bad magic {magic!r})")
    pos = len(CHECKPOINT_MAGIC)
    if len(blob) < pos + 4:
        raise InvalidConfig(f"corrupt checkpoint {path}: truncated header length")
    (header_len,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if len(blob) < pos + header_len:
        raise InvalidConfig(f"corrupt checkpoint {path}: truncated header")
    try:
        header = json.loads(blob[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"corrupt checkpoint {path}: header is not JSON ({exc})") from exc
    pos += header_len
    missing = [k for k in _HEADER_KEYS if not isinstance(header, dict) or k not in header]
    if missing:
        raise InvalidConfig(f"corrupt checkpoint {path}: header lacks {missing}")
    if header["format_version"] != CHECKPOINT_VERSION:
        raise InvalidConfig(f"unsupported checkpoint version {header['format_version']}")
    malformed = _malformed_header_fields(header)
    if malformed:
        raise InvalidConfig(f"corrupt checkpoint {path}: malformed header fields {malformed}")

    def read_array(shape):
        nonlocal pos
        count = math.prod(shape)
        if len(blob) < pos + 8 * count or max(shape, default=0) > len(blob):
            raise InvalidConfig(f"corrupt checkpoint {path}: array data truncated")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
        pos += 8 * count
        return arr

    params = {m["name"]: read_array(m["shape"]) for m in header["params"]}
    bn_stats = {m["name"]: (read_array([m["width"]]), read_array([m["width"]])) for m in header["bn_states"]}
    if pos != len(blob):
        raise InvalidConfig(f"corrupt checkpoint {path}: {len(blob) - pos} trailing bytes")
    norm = header["normalizer"]
    return Checkpoint(
        params=params,
        bn_stats=bn_stats,
        normalizer=Normalizer(
            tuple(norm["task_names"]), np.asarray(norm["mean"]), np.asarray(norm["std"])
        ),
        train_config=config_from_dict(header["train_config"]),
        vocab=tuple(header["vocab"]),
        task_names=tuple(header["task_names"]),
        bonded=bool(header["bonded"]),
    )


def checkpoint_from_model(model: Model, normalizer: Normalizer, cfg: TrainConfig) -> Checkpoint:
    return Checkpoint(
        params=model.store.state_dict(),
        bn_stats={name: (s.mean.copy(), s.var.copy()) for name, s in model.bn_states.items()},
        normalizer=normalizer,
        train_config=cfg,
        vocab=model.vocab,
        task_names=model.task_names,
        bonded=model.bonded,
    )


def _check_shapes(kind: str, saved: dict, expected: dict) -> None:
    """InvalidConfig unless the saved arrays have exactly the names and shapes the config builds."""
    missing = sorted(set(expected) - set(saved))
    unknown = sorted(set(saved) - set(expected))
    if missing or unknown:
        raise InvalidConfig(f"checkpoint {kind}s do not match its config: "
                            f"missing {missing}, unknown {unknown}")
    for name, shape in expected.items():
        if saved[name] != shape:
            raise InvalidConfig(f"checkpoint {kind} {name!r} has shape {saved[name]}, its config builds {shape}")


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[Model, Normalizer]:
    if tuple(ckpt.normalizer.task_names) != tuple(ckpt.task_names):
        raise InvalidConfig(f"checkpoint normalizer tasks {ckpt.normalizer.task_names} "
                            f"do not match its tasks {ckpt.task_names}")
    model = Model(
        ckpt.train_config.model,
        ckpt.vocab,
        ckpt.task_names,
        seed=ckpt.train_config.seed,
        bonded=ckpt.bonded,
    )
    _check_shapes("parameter", {name: np.shape(a) for name, a in ckpt.params.items()},
                  {name: value.data.shape for name, value in model.store.items()})
    _check_shapes("batchnorm state", {name: tuple(map(np.shape, s)) for name, s in ckpt.bn_stats.items()},
                  {name: (s.mean.shape, s.var.shape) for name, s in model.bn_states.items()})
    model.store.load_state_dict(ckpt.params)
    for name, (mean, var) in ckpt.bn_stats.items():
        model.bn_states[name].mean = mean.copy()
        model.bn_states[name].var = var.copy()
    return model, ckpt.normalizer


def _rotation_seed(base: int, epoch: int, index: int) -> int:
    return int(np.random.SeedSequence((base, epoch, index)).generate_state(1)[0])


def evaluate_model(model: Model, normalizer: Normalizer, batches, targets: np.ndarray) -> Metrics:
    """MAE / RMSE / R^2 per task of prepared molecules (``Model.prepare``'s batches of one), in original units.

    ``targets`` are the molecules' rows in original units, columns in ``model.task_names`` order, as
    ``data.dataset_targets`` reads them for a trained model. ``Model.predict_prepared`` predicts them,
    ``model.SCORING_PACK`` (16) to a forward; an empty ``batches`` raises NoData.
    """
    preds = normalizer.invert(model.predict_prepared(batches))
    if np.shape(targets) != preds.shape:
        raise ShapeError(f"targets {np.shape(targets)} != predictions {preds.shape}")
    mae, rmse, r2 = {}, {}, {}
    for j, task in enumerate(model.task_names):
        err = preds[:, j] - targets[:, j]
        mae[task] = float(np.mean(np.abs(err)))
        rmse[task] = float(np.sqrt(np.mean(err**2)))
        centered = targets[:, j] - targets[:, j].mean()
        ss_tot = float(np.sum(centered**2))
        ss_res = float(np.sum(err**2))
        r2[task] = 1.0 - ss_res / ss_tot if ss_tot > 0 else float("nan")
    return Metrics(mae=mae, rmse=rmse, r2=r2)


def _train_step(model: Model, opt: AdamWState, cfg: TrainConfig, batch, rotations, targets,
                epoch: int, step: int) -> float:
    """One AdamW step on a packed float32 batch; returns its loss.

    The step's tape (predictions, fused vectors, loss) dies when this
    returns, so the next step's forward never runs beside it.
    """
    model.store.zero_grad()
    with model.store.float32():
        y_hat, u = model.forward(batch, training=True, rotations=rotations)
        batch_loss = loss(y_hat, targets, u, cfg.lambda_l1)
        if not np.isfinite(batch_loss.data):
            raise Diverged(epoch, step)
        ad.backward(batch_loss)
    adamw_step(model.store, opt, cfg)
    return float(batch_loss.data)


@dataclass
class RunState:
    """A run between two epochs. ``epoch`` is the next one; the history and the best
    score and checkpoint so far span every fold, the other fields belong to ``fold``.
    The molecules are prepared batches of one, float32 to train on, keyed by record index like their normalized
    float32 target rows; the validation rows are in original units. All are emptied when the fold ends."""

    fold: int
    epoch: int
    model: Model
    opt: AdamWState
    normalizer: Normalizer
    train_molecules: dict[int, Batch]
    train_targets: dict[int, np.ndarray]
    val_molecules: list[Batch]
    val_targets: np.ndarray
    history: list[dict] = field(default_factory=list)
    best_score: float | None = None
    best: Checkpoint | None = None


def run_epoch(state: RunState, cfg: TrainConfig) -> dict:
    """Shuffle, train and validate ``state``'s next epoch, updating its history, best and epoch; returns the entry."""
    model, epoch = state.model, state.epoch
    shuffle_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7, state.fold, epoch)))
    order = np.asarray(list(state.train_molecules))[shuffle_rng.permutation(len(state.train_molecules))]
    epoch_losses = []
    for b_start in range(0, len(order), cfg.batch_size):
        members = [int(i) for i in order[b_start : b_start + cfg.batch_size]]
        batch = pack(state.train_molecules[i] for i in members)
        rotations = (sample_rotations(cfg.model.encoder.k, [_rotation_seed(cfg.seed, epoch, i) for i in members])
                     .astype(np.float32) if cfg.model.reads_coords else None)
        targets = np.stack([state.train_targets[i] for i in members])
        epoch_losses.append(_train_step(model, state.opt, cfg, batch, rotations, targets,
                                        epoch, b_start // cfg.batch_size))

    val = evaluate_model(model, state.normalizer, state.val_molecules, state.val_targets)
    score = float(np.mean(list(val.rmse.values())))
    entry = {
        "fold": state.fold,
        "epoch": epoch,
        "train_loss": float(np.mean(epoch_losses)),
        "val_mae": dict(val.mae),
        "val_rmse": dict(val.rmse),
        "val_r2": dict(val.r2),
    }
    state.history.append(entry)
    if state.best_score is None or score < state.best_score:
        state.best_score = score
        state.best = checkpoint_from_model(model, state.normalizer, cfg)
    state.epoch += 1
    return entry


def train_epochs(cfg: TrainConfig, records) -> typing.Iterator[tuple[RunState, dict]]:
    """Train per the config's split spec, yielding ``(state, entry)`` after every epoch.

    Holdout trains once; kfold trains every fold in turn from a fresh model. The best
    checkpoint is the run's first epoch, of any fold, with the lowest mean val RMSE."""
    if not records:
        raise InvalidConfig("dataset is empty")
    task_names, targets = dataset_targets(records)
    vocab = dataset_vocab(records)
    bonded = records[0].bonds is not None  # Model.prepare refuses a record of the other kind by its id

    if cfg.split.mode == "holdout":
        folds = [split(records, cfg.split)]
    else:
        parts = split(records, cfg.split)
        folds = [(np.sort(np.concatenate(parts[:i] + parts[i + 1:])), val_idx) for i, val_idx in enumerate(parts)]
    state = None
    for fold, (train_idx, val_idx) in enumerate(folds):
        normalizer = normalize_targets(records, train_idx)
        model = Model(cfg.model, vocab, task_names, seed=cfg.seed, bonded=bonded)
        # each molecule is prepared once per fold: a float32 copy to train on, the float64 one to validate
        fold_state = dict(fold=fold, epoch=0, model=model, opt=AdamWState(), normalizer=normalizer,
                          train_molecules={int(i): lowered(model.prepare(records[i], training=True)) for i in train_idx},
                          train_targets=dict(zip(train_idx.tolist(),
                                                 normalizer.apply(targets[train_idx]).astype(np.float32))),
                          val_molecules=[model.prepare(records[i]) for i in val_idx], val_targets=targets[val_idx])
        # the history and the best so far carry over from the last fold
        state = RunState(**fold_state) if state is None else dataclasses.replace(state, **fold_state)
        while state.epoch < cfg.epochs:
            yield state, run_epoch(state, cfg)
        # the caller still holds this state: drop its molecules before the next fold's are made
        state.train_molecules, state.train_targets, state.val_molecules, state.val_targets = {}, {}, [], targets[:0]


def train(cfg: TrainConfig, records) -> tuple[Checkpoint, list[dict]]:
    """Drain ``train_epochs``; returns the run's best checkpoint and its history, one entry per (fold, epoch)."""
    for state, _ in train_epochs(cfg, records):
        pass
    return state.best, state.history
