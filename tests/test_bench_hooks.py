"""The benchmark harness still loads against the package, and its tracer still carries spans.

``perfbench/tracing.py`` patches rotenc functions by name from outside the
package, so a rename or a changed call shape in ``src/`` would silently
empty a per-layer metric; ``perfbench/workloads.py`` imports rotenc names
that a rename would break only at benchmark time. Both are loaded from
their files; nothing under ``perfbench/`` is changed.
"""

import ast
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import rotenc
from helpers import tiny_model_config
from rotenc.data import SplitSpec
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig, model_from_checkpoint, train

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("rotenc_bench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_suite_tests_the_checkouts_own_sources():
    # pyproject's pythonpath puts <repo>/src first, so an installed copy of rotenc is never the one tested
    assert Path(rotenc.__file__).resolve().is_relative_to(ROOT / "src")


def test_workloads_load_and_match_the_declared_benchmark(monkeypatch, tracing):
    # workloads.py imports its sibling as ``tracing``, and its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec = importlib.util.spec_from_file_location("rotenc_bench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)  # an ImportError here names the rotenc name that moved
    assert workloads.SamplingConfig is rotenc.SamplingConfig
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in declared)


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(tracing):
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def _names_used_from_autodiff(path: Path) -> set[str]:
    """The ``autodiff`` names a module reads: ``ad.x``/``autodiff.x`` attributes and ``from .autodiff`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in ("ad", "autodiff"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "autodiff":
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_autodiff_function_is_run_or_traced(tracing):
    # an op that no other module calls and the tracer does not name is test machinery or dead code;
    # a re-export from the package's __init__ is not a call
    public = {name for name, obj in vars(rotenc.autodiff).items()
              if inspect.isfunction(obj) and obj.__module__ == "rotenc.autodiff" and not name.startswith("_")}
    used = set().union(*(_names_used_from_autodiff(path) for path in (ROOT / "src" / "rotenc").glob("*.py")
                         if path.name not in ("autodiff.py", "__init__.py")))
    traced = {attr for module_name, attr, _ in tracing.TRACED if module_name == "rotenc.autodiff"}
    assert public and public - used - traced == set()


def test_encode_keeps_the_call_shape_the_tracer_reads(tracing):
    # the views observer reads encode(coords, emb, store, cfg, bn_states, *, rotations=...), and
    # Model.forward passes offsets by keyword
    params = inspect.signature(rotenc.encoder3d.encode).parameters
    cfg = list(params.values())[3]
    assert cfg.name == "cfg" and cfg.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert params["rotations"].kind is params["offsets"].kind is inspect.Parameter.KEYWORD_ONLY


def test_tracer_records_spans_around_train_and_predict_and_uninstalls(tracing):
    records = make_records(6, seed=40, n_atoms_range=(4, 7))
    cfg = TrainConfig(model=tiny_model_config(), split=SplitSpec(mode="holdout", train_fraction=0.5, seed=1),
                      epochs=1, batch_size=4, seed=2)
    before = {(m, a): _resolve(m, a) for m, a, _ in tracing.TRACED}
    value_init = rotenc.autodiff.Value.__init__
    tracer = tracing.Tracer()
    with tracer:
        ckpt, _ = train(cfg, records)
        model, _ = model_from_checkpoint(ckpt)
        assert np.all(np.isfinite(model.predict(records[0])))
    spans = tracing.self_times(tracer.spans)
    # message passing is one ad.message_layer node, so no model path calls scatter_add_rows;
    # test_every_traced_name_resolves keeps its name resolving. Validation is evaluate_model's,
    # so trainer.val_share reads the time of every epoch's validation pass
    for name in ("encoder3d.encode", "gnn.gnn_forward", "autodiff.matmul", "autodiff.batchnorm",
                 "autodiff.gather_rows", "autodiff.backward", "model.predict", "trainer.evaluate_model"):
        assert spans.get(name, {}).get("calls", 0) >= 1, name
    assert tracer.counts["encoder3d.views"] > 0
    # the relus' backward-only work runs inside the closures the tracer times
    for layer in ("encoder3d.encode", "gnn.gnn_forward", "model.predict_head"):
        assert tracer.bwd_s.get(layer, 0.0) > 0, layer
    assert {(m, a): _resolve(m, a) for m, a, _ in tracing.TRACED} == before
    assert rotenc.autodiff.Value.__init__ is value_init


def test_backward_observer_still_counts_the_tape_and_its_leaves(tracing):
    # backward releases interior gradients but keeps parents, closures and leaf gradients, which the
    # tracer walks after the sweep for autodiff.tape_nodes_per_mol and autodiff.const_leaf_grad_frac
    records = make_records(6, seed=40, n_atoms_range=(4, 7))
    cfg = TrainConfig(model=tiny_model_config(), split=SplitSpec(mode="holdout", train_fraction=0.5, seed=1),
                      epochs=1, batch_size=4, seed=2)
    tracer = tracing.Tracer()
    with tracer:
        train(cfg, records)
    assert tracer.counts["autodiff.tape_nodes"] > 0
    assert tracer.counts["autodiff.leaves_with_grad"] > 0
    assert tracer.counts["autodiff.const_leaves_with_grad"] == 0
