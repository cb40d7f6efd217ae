"""Dataset records, graph construction, engineered distance features, splits.

The dataset file format is JSON Lines: UTF-8, one molecule per line, each
line a JSON object with fields

    id       string, unique within the file
    z        non-empty list of positive JSON integers (atomic numbers)
    xyz      flat list of 3*len(z) finite floats (angstrom, row-major)
    bonds    optional list of [u, v, order] JSON integer triples, 0-based endpoints
    targets  non-empty object mapping task name -> finite float

Lines are parsed strictly (no NaN/Infinity literals, no bool as a number); parse failures carry
the 1-based line number. ``load_dataset`` returns records sorted by id.
"""

from __future__ import annotations

import copy
import csv
import functools
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConstantTarget,
    DuplicateId,
    InvalidConfig,
    InvalidSplit,
    NoData,
    ParseError,
    UnknownElement,
)
from .gnn import MolecularGraph

DEFAULT_CUTOFF = 5.0
RBF_N_CENTERS = 32
RBF_SPAN = (0.0, 6.0)
RBF_GAMMA = 10.0
RBF_CENTERS = np.linspace(RBF_SPAN[0], RBF_SPAN[1], RBF_N_CENTERS)
RBF_CENTERS.flags.writeable = False

# one-hot buckets for explicit bond orders; anything else lands in the last slot
BOND_ORDERS = (1, 2, 3)

ELEMENT_SYMBOLS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9,
    "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15, "S": 16,
    "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Br": 35, "I": 53,
}


@dataclass
class MoleculeRecord:
    """One molecule: coordinates, atomic numbers, optional bonds, targets."""

    id: str
    atomic_numbers: list[int]
    coords: np.ndarray
    bonds: list[tuple[int, int, int]] | None
    targets: dict[str, float]

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64).reshape(-1, 3)
        n = len(self.atomic_numbers)
        if n == 0:
            raise InvalidConfig(f"record {self.id}: a molecule needs at least one atom")
        if self.coords.shape != (n, 3):
            raise InvalidConfig(f"record {self.id}: coords shape {self.coords.shape} != ({n}, 3)")
        if not np.all(np.isfinite(self.coords)):
            raise InvalidConfig(f"record {self.id}: non-finite coordinates")
        if any(z < 1 for z in self.atomic_numbers):
            raise InvalidConfig(f"record {self.id}: atomic numbers must be positive")
        if self.bonds is not None:
            for u, v, _ in self.bonds:
                if not (0 <= u < n and 0 <= v < n) or u == v:
                    raise InvalidConfig(f"record {self.id}: bond ({u}, {v}) references invalid atoms")
        if not self.targets:
            raise InvalidConfig(f"record {self.id}: targets must be non-empty")
        for name, value in self.targets.items():
            if not math.isfinite(value):
                raise InvalidConfig(f"record {self.id}: target {name!r} is not finite")

    @property
    def n_atoms(self) -> int:
        return len(self.atomic_numbers)


def _reject_constant(token):
    raise ValueError(f"non-finite literal {token!r} not allowed")


def _finite_number(x) -> bool:
    """A JSON number that converts to a finite float (an int beyond float range does not, nor a bool)."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _not_utf8(path) -> ParseError:
    """The ParseError for a file that failed to decode, naming its first bad line."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError(raw.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text ({exc.reason})")
    return ParseError(1, "not UTF-8 text")


def _parse_record(obj, line_number: int) -> MoleculeRecord:
    if not isinstance(obj, dict):
        raise ParseError(line_number, "record must be a JSON object")
    for key in ("id", "z", "xyz", "targets"):
        if key not in obj:
            raise ParseError(line_number, f"missing field {key!r}")
    rid = obj["id"]
    if not isinstance(rid, str) or not rid:
        raise ParseError(line_number, "id must be a non-empty string")
    z = obj["z"]
    if not isinstance(z, list) or not all(type(x) is int and x >= 1 for x in z):
        raise ParseError(line_number, "z must be a list of positive integers")
    xyz = obj["xyz"]
    if not isinstance(xyz, list) or len(xyz) != 3 * len(z):
        raise ParseError(line_number, f"xyz must hold {3 * len(z)} floats")
    if not all(_finite_number(x) for x in xyz):
        raise ParseError(line_number, "xyz entries must be finite numbers")
    bonds = obj.get("bonds")
    if bonds is not None:
        if not isinstance(bonds, list) or not all(isinstance(b, list) and len(b) == 3
                                                  and all(type(x) is int for x in b) for b in bonds):
            raise ParseError(line_number, "bonds must be [u, v, order] triples of integers")
        bonds = [tuple(b) for b in bonds]
    targets = obj["targets"]
    if not isinstance(targets, dict) or not targets:
        raise ParseError(line_number, "targets must be a non-empty object")
    for name, value in targets.items():
        if not _finite_number(value):
            raise ParseError(line_number, f"target {name!r} must be a finite number")
    try:
        return MoleculeRecord(
            id=rid,
            atomic_numbers=list(z),
            coords=np.asarray(xyz, dtype=np.float64).reshape(-1, 3),
            bonds=bonds,
            targets={str(k): float(v) for k, v in targets.items()},
        )
    except InvalidConfig as exc:
        raise ParseError(line_number, str(exc)) from None


def load_dataset(path) -> list[MoleculeRecord]:
    """Read a JSONL dataset file; records come back sorted by id."""
    records = []
    seen = set()
    with open(path, encoding="utf-8") as fh:
        try:
            for line_number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line, parse_constant=_reject_constant)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(line_number, f"invalid JSON: {exc}") from None
                record = _parse_record(obj, line_number)
                if record.id in seen:
                    raise DuplicateId(f"duplicate id {record.id!r} at line {line_number}")
                seen.add(record.id)
                records.append(record)
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    records.sort(key=lambda r: r.id)
    return records


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Write ``path`` whole or not at all: a new file beside it, opened as ``open`` would, replaces it at the end.

    When the block raises (a full disk, a failed writer) the new file is
    removed and ``path`` keeps what it held. Nothing is fsynced: this
    guards against a writer that fails, not against a power cut.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_dataset(records, path) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        for r in records:
            obj = {"id": r.id, "z": list(r.atomic_numbers), "xyz": [float(x) for x in r.coords.ravel()]}
            if r.bonds is not None:
                obj["bonds"] = [[u, v, order] for u, v, order in r.bonds]
            obj["targets"] = dict(r.targets)
            fh.write(json.dumps(obj, allow_nan=False) + "\n")


def rbf_expand(d) -> np.ndarray:
    """Gaussian radial basis expansion of distances: v_i = exp(-RBF_GAMMA (d - c_i)^2) over ``RBF_CENTERS``.

    A scalar distance gives one ``(RBF_N_CENTERS,)`` vector; an ``(m,)``
    array gives an ``(m, RBF_N_CENTERS)`` matrix whose rows equal the
    scalar results.
    """
    d = np.asarray(d, dtype=np.float64)
    return np.exp(-RBF_GAMMA * (d[..., None] - RBF_CENTERS) ** 2)


def reorder_atoms(record: MoleculeRecord, order) -> MoleculeRecord:
    """Atom i of the result is atom ``order[i]``; bonds follow, (lower, higher) endpoint first, sorted.

    Reordering a valid record gives a valid record, so the copy is not
    validated again.
    """
    rank = np.argsort(order).tolist()
    reordered = copy.copy(record)
    reordered.atomic_numbers = [record.atomic_numbers[i] for i in order]
    reordered.coords = record.coords[order]
    reordered.bonds = None if record.bonds is None else sorted(
        (min(rank[u], rank[v]), max(rank[u], rank[v]), o) for u, v, o in record.bonds)
    return reordered


@functools.lru_cache(maxsize=32)
def _vocab_index(vocab: tuple[int, ...]) -> dict[int, int]:
    """Row of each atomic number in ``vocab``; shared by every call with this vocabulary, never changed."""
    return {int(z): i for i, z in enumerate(vocab)}


def vocab_rows(vocab, atomic_numbers) -> np.ndarray:
    """Row of each atomic number in ``vocab``; an element outside it raises UnknownElement.

    The lookup is built once per vocabulary.
    """
    index = _vocab_index(tuple(vocab))
    zs = atomic_numbers.tolist() if isinstance(atomic_numbers, np.ndarray) else atomic_numbers
    try:
        return np.fromiter(map(index.__getitem__, zs), dtype=np.int64, count=len(zs))
    except KeyError as exc:
        raise UnknownElement(f"atomic number {int(exc.args[0])} not in vocabulary {list(vocab)}") from None


def edge_width(bonded: bool, edge_features: str) -> int:
    """Columns of ``build_graph``'s edge features for a bonded or a cutoff record."""
    if edge_features == "constant":
        return 1
    return len(BOND_ORDERS) + 1 if bonded else RBF_N_CENTERS


def build_graph(record: MoleculeRecord, cutoff: float = DEFAULT_CUTOFF, *,
                vocab, edge_features: str = "auto") -> MolecularGraph:
    """Turn a record into a molecular graph.

    With explicit bonds, edges are the bonds in both directions with
    bond-order one-hots as edge features. Without bonds, every atom pair
    closer than ``cutoff`` becomes a directed edge pair featurized by an
    RBF expansion of the distance. ``edge_features="constant"`` replaces
    either featurization with a single constant column (the engineered
    feature ablation); ``edge_width`` gives the feature width. Node
    features are one-hot over ``vocab``. The record's targets are not read.
    """
    n = record.n_atoms
    # each pair becomes the directed edges (i, j) and (j, i), both with the pair's feature row;
    # the edges come out grouped by destination, as MolecularGraph stores them
    if record.bonds is not None:
        ends = np.asarray([(u, v) for u, v, _ in record.bonds], dtype=np.int64).reshape(-1, 2)
        slots = [BOND_ORDERS.index(o) if o in BOND_ORDERS else len(BOND_ORDERS)
                 for _, _, o in record.bonds]
        feats = np.eye(len(BOND_ORDERS) + 1)[slots]
        edges = np.stack([ends, ends[:, ::-1]], axis=1).reshape(-1, 2)
        order = np.argsort(edges[:, 1], kind="stable")  # the edges into a node keep the bond order
        edges, pair_of_edge = edges[order], order // 2
    else:
        if not 0 < cutoff < math.inf:  # a NaN cutoff would keep no pair
            raise InvalidConfig(f"cutoff must be finite and positive, got {cutoff}")
        rows = np.arange(n)
        i, j = np.nonzero(rows[:, None] < rows)  # np.triu_indices(n, 1) without its mask building
        diff = record.coords[i] - record.coords[j]
        # a (1, 3) @ (3, 1) product per pair is the same dot product np.linalg.norm
        # takes of one difference vector, so every distance keeps its bits
        dist = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
        keep = dist < cutoff
        pair = np.full((n, n), -1)
        pair[i[keep], j[keep]] = pair[j[keep], i[keep]] = np.arange(np.count_nonzero(keep))
        dst, src = np.nonzero(pair >= 0)  # read by destination: sources ascending within each
        edges = np.stack([src, dst], axis=1)
        pair_of_edge = pair[dst, src]
        feats = rbf_expand(dist[keep])
    if edge_features == "constant":
        edge_feats = np.ones((len(edges), 1))
    elif edge_features == "auto":
        edge_feats = feats.take(pair_of_edge, axis=0)
    else:
        raise InvalidConfig(f"edge_features must be 'auto' or 'constant', got {edge_features!r}")

    node_feats = np.zeros((n, len(vocab)))
    node_feats[np.arange(n), vocab_rows(vocab, record.atomic_numbers)] = 1.0
    # a record's atoms and bonds are checked as it is made, so the graph is not checked again
    return MolecularGraph.trusted(node_feats, edges, edge_feats)


@dataclass
class Normalizer:
    """Per-task z-score statistics fitted on the training split only."""

    task_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def apply(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=np.float64) - self.mean) / self.std

    def invert(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) * self.std + self.mean


def normalize_targets(records, train_indices) -> Normalizer:
    """Fit per-task mean/std (population) on the training indices."""
    task_names, values = dataset_targets([records[i] for i in train_indices])
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    for t, s in zip(task_names, std):
        if s == 0.0:
            raise ConstantTarget(f"task {t!r} is constant on the training split")
    return Normalizer(task_names, mean, std)


@dataclass
class SplitSpec:
    """kfold or holdout split; seeded shuffle makes assignments reproducible."""

    mode: str = "holdout"
    k_folds: int | None = None
    train_fraction: float | None = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidSplit(f"split seed must be >= 0, got {self.seed}")
        if self.mode == "kfold":
            if self.k_folds is None or self.k_folds < 2:
                raise InvalidSplit(f"kfold needs k_folds >= 2, got {self.k_folds}")
        elif self.mode == "holdout":
            if self.train_fraction is None or not (0.0 < self.train_fraction < 1.0):
                raise InvalidSplit(f"holdout needs train_fraction in (0, 1), got {self.train_fraction}")
        else:
            raise InvalidSplit(f"mode must be 'kfold' or 'holdout', got {self.mode!r}")


def split(records, spec: SplitSpec):
    """Assign record indices to folds.

    kfold returns a list of k disjoint index arrays covering everything;
    holdout returns a (train_indices, test_indices) pair.
    """
    n = len(records)
    perm = np.random.default_rng(spec.seed).permutation(n)
    if spec.mode == "kfold":
        if spec.k_folds > n:
            raise InvalidSplit(f"k_folds {spec.k_folds} exceeds record count {n}")
        return [np.sort(fold) for fold in np.array_split(perm, spec.k_folds)]
    n_train = int(round(n * spec.train_fraction))
    if not (1 <= n_train < n):
        raise InvalidSplit(f"holdout fraction {spec.train_fraction} leaves no data on one side")
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def parse_xyz(path) -> list[tuple[str, list[int], np.ndarray]]:
    """Parse a multi-molecule XYZ file into (id, atomic numbers, coords) triples.

    The comment line's first whitespace token is used as the molecule id
    when present, else ids are generated from the block index. Element
    columns may be symbols or atomic numbers.
    """
    out = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.read().splitlines()
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    pos = 0
    block = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        try:
            n = int(lines[pos].strip())
        except ValueError:
            n = -1
        if n < 0:
            raise ParseError(pos + 1, f"expected atom count, got {lines[pos]!r}")
        if pos + 2 + n > len(lines):
            raise ParseError(pos + 1, "truncated XYZ block")
        comment = lines[pos + 1].strip()
        rid = comment.split()[0] if comment.split() else f"mol{block:06d}"
        zs, coords = [], []
        for k in range(n):
            line = lines[pos + 2 + k]
            parts = line.split()
            if len(parts) < 4:
                raise ParseError(pos + 3 + k, f"bad atom line {line!r}")
            sym = parts[0]
            try:
                z = int(sym) if sym.isdecimal() else ELEMENT_SYMBOLS.get(sym.capitalize())
                coords.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise ParseError(pos + 3 + k, f"bad atom line {line!r}") from None
            if z is None:
                raise UnknownElement(f"line {pos + 3 + k}: unknown element {sym!r}")
            zs.append(z)
        out.append((rid, zs, np.asarray(coords, dtype=np.float64).reshape(-1, 3)))
        pos += 2 + n
        block += 1
    return out


def _read_targets(reader: csv.DictReader) -> dict[str, dict[str, float]]:
    """id -> {task: value} from a targets table.

    A malformed row raises ParseError naming its line; a repeated id names
    both lines.
    """
    try:
        if reader.fieldnames is None or "id" not in reader.fieldnames:
            raise ParseError(1, "targets table needs an 'id' column")
        tasks = [c for c in reader.fieldnames if c != "id"]
        if not tasks:
            raise ParseError(1, "targets table needs at least one task column")
        table, first_line = {}, {}
        for row in reader:
            rid = row["id"]
            if rid in first_line:
                raise ParseError(reader.line_num,
                                 f"duplicate id {rid!r}, first given on line {first_line[rid]}")
            first_line[rid] = reader.line_num
            values = {}
            for t in tasks:
                if row[t] is None:  # DictReader fills a short row with None
                    raise ParseError(reader.line_num, f"row has no value for target {t!r}")
                try:
                    values[t] = float(row[t])
                except ValueError:
                    raise ParseError(reader.line_num, f"target {t!r} is not a number: {row[t]!r}") from None
            table[rid] = values
    except csv.Error as exc:
        raise ParseError(reader.line_num, f"bad targets table: {exc}") from None
    return table


def convert_xyz(xyz_path, targets_path) -> list[MoleculeRecord]:
    """Join a multi-molecule XYZ file with a delimited targets table.

    The targets table is CSV with an ``id`` column plus one column per
    task; every molecule in the XYZ file must have a row.
    """
    molecules = parse_xyz(xyz_path)
    with open(targets_path, encoding="utf-8", newline="") as fh:
        try:
            table = _read_targets(csv.DictReader(fh))
        except UnicodeDecodeError:
            raise _not_utf8(targets_path) from None
    records = []
    for rid, zs, coords in molecules:
        if rid not in table:
            raise InvalidConfig(f"molecule {rid!r} has no row in the targets table")
        records.append(
            MoleculeRecord(id=rid, atomic_numbers=zs, coords=coords, bonds=None, targets=table[rid])
        )
    return records


def dataset_vocab(records) -> tuple[int, ...]:
    """Sorted unique atomic numbers across a record list."""
    zs = set()
    for r in records:
        zs.update(r.atomic_numbers)
    return tuple(sorted(zs))


def dataset_targets(records) -> tuple[tuple[str, ...], np.ndarray]:
    """The records' task names, sorted, and their (n, n_tasks) float64 target matrix in that order.

    A record whose task names differ from the first's raises InvalidConfig, and no records NoData."""
    if not records:
        raise NoData("no records to read targets from")
    names = tuple(sorted(records[0].targets))
    for r in records:
        if tuple(sorted(r.targets)) != names:
            raise InvalidConfig(f"record {r.id}: task names differ from {names}")
    return names, np.array([[r.targets[t] for t in names] for r in records], dtype=np.float64)
