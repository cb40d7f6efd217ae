"""The names the benchmark's span tracer wraps still exist and still carry spans.

``perfbench/tracing.py`` patches rotenc functions by name from outside the
package, so a rename or a changed call shape in ``src/`` would silently
empty a per-layer metric. The tracer is loaded from its file; nothing under
``perfbench/`` is changed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import rotenc
from helpers import tiny_model_config
from rotenc.data import SplitSpec
from rotenc.synthetic import make_records
from rotenc.trainer import TrainConfig, model_from_checkpoint, train

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("rotenc_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves(tracing):
    assert tracing.TRACED
    for module_name, attr, _ in tracing.TRACED:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_encode_keeps_the_call_shape_the_tracer_reads(tracing):
    # the views observer reads encode(cloud, table, store, cfg, bn_states, *, rotations=...)
    params = list(inspect.signature(rotenc.encoder3d.encode).parameters.values())
    assert params[3].name == "cfg" and params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    rotations = inspect.signature(rotenc.encoder3d.encode).parameters["rotations"]
    assert rotations.kind is inspect.Parameter.KEYWORD_ONLY


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
    for name in ("encoder3d.encode", "gnn.gnn_forward", "autodiff.matmul", "autodiff.batchnorm",
                 "autodiff.scatter_add_rows", "autodiff.backward", "model.predict"):
        assert spans.get(name, {}).get("calls", 0) >= 1, name
    assert tracer.counts["encoder3d.views"] > 0
    # the relus' backward-only work runs inside the closures the tracer times
    for layer in ("encoder3d.encode", "gnn.gnn_forward", "model.predict_head"):
        assert tracer.bwd_s.get(layer, 0.0) > 0, layer
    assert {(m, a): _resolve(m, a) for m, a, _ in tracing.TRACED} == before
    assert rotenc.autodiff.Value.__init__ is value_init
