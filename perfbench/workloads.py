"""Workloads of the rotenc benchmark: inputs, set-up, timed rounds and gates.

Every workload is one closed-loop caller in one process on one thread: it
waits for each ``train``, ``Model.predict`` or ``measure_invariance`` call to
return before making the next. A run repeats rounds until ``--seconds`` have
passed and the sample minimums are met. A round is

* one ``train()`` call on the training set (train workloads only);
* ``PREDICT_PASSES`` passes of ``Model.predict`` over the serving set, one
  molecule a call;
* one sweep of ``measure_invariance``, one molecule and one align mode a
  call, over a fixed subset of the serving set.

Set-up generates the records from ``--seed``, passes them through
``write_dataset``/``load_dataset``, trains a short checkpoint and reloads it
through ``save_checkpoint``/``load_checkpoint``; the rounds serve that
checkpoint. Model and split seeds are part of a workload's definition; only
the molecules come from ``--seed``.
"""

from __future__ import annotations

import gzip
import json
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rotenc import (
    EncoderConfig,
    GnnConfig,
    ModelConfig,
    RotencError,
    SamplingConfig,
    SplitSpec,
    TrainConfig,
    canonical_align,
    load_checkpoint,
    load_dataset,
    measure_invariance,
    sample_rotations,
    save_checkpoint,
    split,
    train,
    write_dataset,
)
from rotenc.data import MoleculeRecord
from rotenc.errors import DegenerateCloud
from rotenc.geometry import PointCloud
from rotenc.synthetic import make_records, radius_of_gyration
from rotenc.trainer import model_from_checkpoint

import tracing

SETUP_REPS = 5
MIN_ROUNDS = 2  # at least two train calls and sweeps to compare for determinism
MIN_PREDICT_SAMPLES = 1000  # the recorded p99 then has at least ten samples beyond it
MIN_TRACED_UNITS = 2
SAMPLE_LISTS = ("setup_s", "setup_train_wall_s", "train_wall_s", "latencies_s", "sweep_s")
MAX_FAILED = 50  # stop early when the program under test keeps failing
PREDICT_PASSES = 2  # passes over the serving set per round
N_ROTATIONS = 4  # rotations per measure_invariance call
BATCH_SIZE = 16
TRAIN_FRACTION = 0.8  # holdout split
POST_TOL = 1e-9  # acceptance-suite tolerance for post-align invariance
PERMUTATION_PROBES = 3
TARGET = "rg"

# paper defaults: k=16, widths 64/128/128, d_p 128, embed 32, GNN 3x32, g_dim 128, head 256, 5 A
PAPER = ModelConfig(encoder=EncoderConfig(), gnn=GnnConfig())
LR = 1e-3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; sizes are inclusive atom-count ranges.

    Molecule sizes are stratified (``per_size`` molecules of every size in
    the range), so the amount of work barely depends on the seed. A
    forward-only workload (``trains`` False) reports ``train_mol_s`` from the
    set-up training of the checkpoint it serves.
    """

    name: str
    train_atoms: tuple[int, int]
    train_per_size: int
    epochs: int
    setup_epochs: int
    trains: bool  # False: the timed part is forward-only
    serve_atoms: tuple[int, int] | None = None  # None: serve the training set
    serve_per_size: int = 0
    degenerate: bool = False  # add molecules with a degenerate covariance spectrum
    inv_modes: tuple[str, ...] = ("none",)
    inv_stride: int = 4  # every n-th serving molecule enters the invariance sweep


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-paper", train_atoms=(8, 20), train_per_size=3, epochs=2,
                 setup_epochs=1, trains=True),
        Workload("infer", train_atoms=(8, 20), train_per_size=2, epochs=3,
                 setup_epochs=3, trains=False, serve_atoms=(8, 29),
                 serve_per_size=3, degenerate=True, inv_modes=("none", "post"), inv_stride=5),
    )
}


# -- inputs -------------------------------------------------------------------


def _stream_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence((seed, *key)).generate_state(1)[0])


def stratified_records(seed: int, stream: int, atoms: tuple[int, int], per_size: int,
                       prefix: str) -> list[MoleculeRecord]:
    """``per_size`` bond-free synthetic molecules of every size in ``atoms``."""
    out = []
    for n in range(atoms[0], atoms[1] + 1):
        for j, rec in enumerate(make_records(per_size, seed=_stream_seed(seed, stream, n),
                                             n_atoms_range=(n, n), target=TARGET)):
            out.append(replace(rec, id=f"{prefix}{n:02d}-{j}"))
    return out


def _methane():
    a = 1.09 / np.sqrt(3.0)
    h = [[a, a, a], [a, -a, -a], [-a, a, -a], [-a, -a, a]]
    return [6, 1, 1, 1, 1], np.array([[0.0, 0.0, 0.0]] + h)


def _benzene():
    angles = np.arange(6) * np.pi / 3
    ring = np.stack([np.cos(angles), np.sin(angles), np.zeros(6)], axis=1)
    return [6] * 6 + [1] * 6, np.concatenate([1.39 * ring, 2.48 * ring])


def _cubane():
    corners = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
    return [6] * 8 + [1] * 8, np.concatenate([0.78 * corners, 1.41 * corners])


DEGENERATE_SHAPES = {"ch4": _methane, "benzene": _benzene, "cubane": _cubane}


def degenerate_records(seed: int) -> list[MoleculeRecord]:
    """Symmetric molecules (tetrahedral, planar ring, cubic) in a seeded pose.

    Their covariance spectra have repeated eigenvalues, as real QM9-style
    data does, so canonical alignment has no unique frame for them.
    """
    rng = np.random.default_rng(_stream_seed(seed, 3))
    rotations = sample_rotations(SamplingConfig(k=len(DEGENERATE_SHAPES), seed=_stream_seed(seed, 4)))
    out = []
    for (name, shape), rotation in zip(DEGENERATE_SHAPES.items(), rotations):
        z, coords = shape()
        coords = coords @ rotation.T + rng.normal(size=3)
        if not canonical_align(PointCloud(coords, z)).degenerate:
            raise RuntimeError(f"planted molecule {name} is not degenerate")
        out.append(MoleculeRecord(id=f"deg-{name}", atomic_numbers=z, coords=coords, bonds=None,
                                  targets={TARGET: radius_of_gyration(coords)}))
    return out


# -- one run ------------------------------------------------------------------


@dataclass
class Served:
    """A set-up result: the records and the reloaded checkpoint's models."""

    train_records: list
    serve_records: list
    models: dict  # align mode -> Model
    params: dict


@dataclass
class Session:
    """Drives one workload run and collects its samples and outcomes."""

    workload: Workload
    seed: int
    out_dir: Path
    attempted: int = 0
    failed: int = 0
    rejected: int = 0  # documented DegenerateCloud rejections of planted molecules
    errors: list = field(default_factory=list)
    gates: dict = field(default_factory=dict)
    setup_s: list = field(default_factory=list)
    setup_train_wall_s: list = field(default_factory=list)
    train_wall_s: list = field(default_factory=list)
    histories: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    first_pass: dict = field(default_factory=dict)
    predict_stable: bool = True
    sweep_s: list = field(default_factory=list)
    first_sweep: dict = field(default_factory=dict)
    sweep_stable: bool = True
    served: Served | None = None
    post_max_dev: float | None = None

    def __post_init__(self):
        w = self.workload
        self.cfg = TrainConfig(
            model=PAPER,
            split=SplitSpec(mode="holdout", train_fraction=TRAIN_FRACTION, seed=1),
            epochs=w.epochs, batch_size=BATCH_SIZE, lr=LR, seed=7,
        )
        self.inv_seed = _stream_seed(self.seed, 5)

    # -- failure accounting ---------------------------------------------------

    def _attempt(self, label: str, fn, expect_degenerate: bool = False):
        """Run one operation; a RotencError or non-finite output counts as failed."""
        self.attempted += 1
        try:
            result = fn()
        except DegenerateCloud:
            if expect_degenerate:
                self.rejected += 1
                return None
            self._fail(label, "DegenerateCloud")
            return None
        except RotencError as exc:
            self._fail(label, f"{type(exc).__name__}: {exc}")
            return None
        if not _finite(result):
            self._fail(label, "non-finite output")
            return None
        return result

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {why}")

    # -- set-up -----------------------------------------------------------------

    def setup(self) -> None:
        """Build the inputs and the served checkpoint (the first set-up repetition)."""
        self.served = self._setup_once()

    def _setup_again(self, start: float, seconds: float) -> None:
        """Repeat set-up at evenly spaced points of the run.

        Set-up time is the median of ``SETUP_REPS`` repetitions; spacing them
        over the run lets them sample the same host conditions as the timed
        work. Every repetition must give a bit-identical checkpoint.
        """
        done = len(self.setup_s)
        if done < SETUP_REPS and _since(start) >= seconds * done / SETUP_REPS:
            params = self._setup_once().params
            first = self.served.params
            self.gates["setup_bit_identical"] = self.gates.get("setup_bit_identical", True) and (
                params.keys() == first.keys() and all(np.array_equal(params[k], first[k]) for k in params))

    def _setup_once(self) -> Served:
        start = time.perf_counter()
        w = self.workload
        train_records = stratified_records(self.seed, 1, w.train_atoms, w.train_per_size, "t")
        if w.serve_atoms is None:
            serve_records = train_records
        else:
            serve_records = stratified_records(self.seed, 2, w.serve_atoms, w.serve_per_size, "s")
        if w.degenerate:
            serve_records = serve_records + degenerate_records(self.seed)
        data_dir = self.out_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        write_dataset(train_records, data_dir / "train.jsonl")
        write_dataset(serve_records, data_dir / "serve.jsonl")
        train_records = load_dataset(data_dir / "train.jsonl")
        serve_records = load_dataset(data_dir / "serve.jsonl")

        cfg = replace(self.cfg, epochs=w.setup_epochs)
        start = time.perf_counter()
        ckpt, _ = train(cfg, train_records)
        wall = time.perf_counter() - start
        self.setup_train_wall_s.append(wall)
        save_checkpoint(ckpt, data_dir / "served.rotenc")
        ckpt = load_checkpoint(data_dir / "served.rotenc")
        models = {}
        for mode in ("none",) + tuple(m for m in w.inv_modes if m != "none"):
            model, _ = model_from_checkpoint(ckpt)
            model.cfg = replace(model.cfg, encoder=replace(model.cfg.encoder, align_mode=mode))
            models[mode] = model
        self.setup_s.append(time.perf_counter() - start)
        return Served(train_records, serve_records, models, ckpt.params)

    @staticmethod
    def _trained_mols(cfg: TrainConfig, records) -> int:
        train_idx, _ = split(records, cfg.split)
        return len(train_idx) * cfg.epochs

    # -- units of work ----------------------------------------------------------

    def train_once(self, tracer=None) -> tuple[int, float]:
        """One ``train`` call; returns (molecules x epochs, wall seconds)."""
        records = self.served.train_records
        if tracer is not None:
            tracer.tag = f"train#{len(self.train_wall_s)}"
        start = time.perf_counter()
        result = self._attempt("train", lambda: train(self.cfg, records))
        wall = time.perf_counter() - start
        if result is None:
            return 0, wall
        self.train_wall_s.append(wall)
        self.histories.append(result[1])
        return self._trained_mols(self.cfg, records), wall

    def predict_pass(self, tracer=None) -> None:
        model = self.served.models["none"]
        for record in self.served.serve_records:
            if tracer is not None:
                tracer.tag = f"predict:{record.id}"
            start = time.perf_counter()
            y = self._attempt(f"predict {record.id}", lambda: model.predict(record))
            elapsed = time.perf_counter() - start
            if y is None:
                continue
            self.latencies_s.append(elapsed)
            first = self.first_pass.setdefault(record.id, y)
            self.predict_stable &= np.array_equal(first, y)

    def sweep_records(self) -> list:
        records = self.served.serve_records
        planted = [r for r in records if r.id.startswith("deg-")]
        rest = [r for r in records if not r.id.startswith("deg-")]
        return planted + rest[:: self.workload.inv_stride]

    def sweep(self, tracer=None) -> float:
        """One ``measure_invariance`` call per molecule and align mode."""
        devs = {}
        start = time.perf_counter()
        for record in self.sweep_records():
            for mode in self.workload.inv_modes:
                if tracer is not None:
                    tracer.tag = f"invariance:{mode}:{record.id}"
                model = self.served.models[mode]
                report = self._attempt(
                    f"invariance {mode} {record.id}",
                    lambda: measure_invariance(model, [record], N_ROTATIONS, seed=self.inv_seed),
                    expect_degenerate=mode == "post" and record.id.startswith("deg-"),
                )
                if report is not None:
                    devs[(mode, record.id)] = report.max_dev
        wall = time.perf_counter() - start
        self.sweep_s.append(wall)
        if not self.first_sweep:
            self.first_sweep = devs
        self.sweep_stable &= devs == self.first_sweep
        return wall

    # -- timed runs ---------------------------------------------------------------

    def run_timed(self, seconds: float) -> None:
        """Rounds of (train call, predict passes, sweep) until time and sample minimums are met.

        Interleaving the phases spreads each metric's samples over the whole
        run, so a slow spell of a shared host does not land on one metric.
        """
        start = time.perf_counter()
        while (_since(start) < seconds or len(self.latencies_s) < MIN_PREDICT_SAMPLES
               or len(self.sweep_s) < MIN_ROUNDS or len(self.setup_s) < SETUP_REPS):
            self._setup_again(start, seconds)
            self._round()
            if self.failed > MAX_FAILED:
                break

    def run_traced(self, seconds: float, spans_path: Path) -> dict:
        """Alternate untraced and traced units of fixed work; per-unit metrics."""
        start = time.perf_counter()
        untraced, traced, per_unit = [], [], []
        with gzip.open(spans_path, "wt", encoding="utf-8") as spans:
            while (len(traced) < MIN_TRACED_UNITS or _since(start) < seconds
                   or len(self.setup_s) < SETUP_REPS):
                self._setup_again(start, seconds)
                untraced.append(self._round()[0])
                tracer = tracing.Tracer()
                with tracer:
                    wall, trained_mols, train_wall = self._round(tracer)
                traced.append(wall)
                per_unit.append(tracer.metrics(trained_mols, train_wall))
                tracer.write_spans(spans, len(per_unit) - 1)
        self.gates["trace_counts_repeat"] = all(
            unit[name] == per_unit[0][name] for unit in per_unit for name in tracing.EXACT_COUNTS
        )
        metrics = {
            name: (statistics.fmean(unit[name][0] for unit in per_unit), per_unit[0][name][1])
            for name in per_unit[0]
        }
        metrics["trace.overhead_frac"] = (sum(traced) / sum(untraced) - 1.0, "fraction")
        return metrics

    def _round(self, tracer=None) -> tuple[float, int, float]:
        """One round of work; returns (wall, molecules x epochs trained, train wall)."""
        start = time.perf_counter()
        trained_mols, train_wall = self.train_once(tracer) if self.workload.trains else (0, 0.0)
        for _ in range(PREDICT_PASSES):
            self.predict_pass(tracer)
        self.sweep(tracer)
        return time.perf_counter() - start, trained_mols, train_wall

    # -- gates ------------------------------------------------------------------------

    def check(self) -> dict:
        """Correctness gates; every value must be True for the run to pass."""
        served = self.served
        g = self.gates
        if self.histories:
            # repr of a float round-trips exactly, and NaN (an R^2 of a one-molecule split) compares equal
            first = json.dumps(self.histories[0])
            g["train_history_bit_identical"] = all(json.dumps(h) == first for h in self.histories)
        g["predict_bit_identical_across_passes"] = bool(self.predict_stable and self.first_pass)
        g["invariance_bit_identical_across_sweeps"] = bool(self.sweep_stable and self.first_sweep)

        model = served.models["none"]
        rng = np.random.default_rng(_stream_seed(self.seed, 6))
        probes = [r for r in served.serve_records if not r.id.startswith("deg-")][:PERMUTATION_PROBES]
        same = bool(probes)
        for record in probes:
            base = self._attempt(f"permutation {record.id}", lambda: model.predict(record))
            for _ in range(2):
                perm = rng.permutation(record.n_atoms)
                permuted = replace(record, atomic_numbers=[record.atomic_numbers[i] for i in perm],
                                   coords=record.coords[perm])
                y = self._attempt(f"permutation {record.id}", lambda: model.predict(permuted))
                same &= base is not None and y is not None and np.array_equal(y, base)
        g["predict_permutation_bit_identical"] = bool(same)

        if "post" in self.workload.inv_modes:
            worst = max((d for (mode, _), d in self.first_sweep.items() if mode == "post"), default=0.0)
            swept = {rid for _, rid in self.first_sweep}
            for record in served.serve_records:
                if record.id.startswith("deg-") or record.id in swept:
                    continue
                report = self._attempt(f"post check {record.id}",
                                       lambda: measure_invariance(served.models["post"], [record], 2,
                                                                  seed=self.inv_seed))
                worst = max(worst, report.max_dev if report is not None else np.inf)
            g["post_max_dev_within_1e-9"] = bool(worst <= POST_TOL)
            self.post_max_dev = worst
        return g

    # -- metrics ------------------------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """Throughputs are total work over total time; latencies are percentiles."""
        latencies = self.latencies_s
        lat_ms = np.asarray(latencies or [0.0]) * 1e3
        if self.train_wall_s:
            cfg, walls = self.cfg, self.train_wall_s
        else:  # a forward-only workload trains only in set-up
            cfg, walls = replace(self.cfg, epochs=self.workload.setup_epochs), self.setup_train_wall_s
        return {
            "train_mol_s": (_ratio(self._trained_mols(cfg, self.served.train_records) * len(walls), sum(walls)),
                            "mol/s"),
            "predict_mol_s": (_ratio(len(latencies), sum(latencies)), "mol/s"),
            "predict_ms_p50": (float(np.percentile(lat_ms, 50)), "ms"),
            "predict_ms_p95": (float(np.percentile(lat_ms, 95)), "ms"),
            "invariance_s": (statistics.fmean(self.sweep_s), "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    def samples(self) -> dict:
        """Raw timings behind the metrics, kept in the run record."""
        return {name: getattr(self, name) for name in SAMPLE_LISTS}

    def summary(self) -> dict:
        """Facts a reader needs to interpret the metrics: sample counts and outcomes."""
        none_devs = [d for (mode, _), d in self.first_sweep.items() if mode == "none"]
        out = {
            "train_calls": len(self.train_wall_s),
            "train_loss_final": self.histories[0][-1]["train_loss"] if self.histories else None,
            "inv_none_mean_dev": statistics.fmean(none_devs) if none_devs else None,
            "setup_train_calls": len(self.setup_train_wall_s),
            "predict_samples": len(self.latencies_s),
            # recorded, not bounded: about 1% of calls on a shared host land in
            # interference bursts at twice the latency, so p99 swings between runs
            "predict_ms_p99": float(np.percentile(self.latencies_s, 99)) * 1e3 if self.latencies_s else None,
            "invariance_sweeps": len(self.sweep_s),
            "invariance_calls_per_sweep": len(self.sweep_records()) * len(self.workload.inv_modes),
            "setup_reps": len(self.setup_s),
            "attempted": self.attempted,
            "failed": self.failed,
            "failed_frac": _ratio(self.failed, self.attempted),
            "rejected_degenerate": self.rejected,
            "errors": self.errors,
        }

        if self.post_max_dev is not None:
            out["post_max_dev"] = self.post_max_dev
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _since(start: float) -> float:
    return time.perf_counter() - start


def _finite(result) -> bool:
    if isinstance(result, np.ndarray):
        return bool(np.all(np.isfinite(result)))
    if isinstance(result, tuple):  # train: (checkpoint, history)
        return all(np.isfinite(e["train_loss"]) for e in result[1])
    if hasattr(result, "max_dev"):
        return bool(np.isfinite(result.max_dev) and np.isfinite(result.mean_dev))
    return True


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
