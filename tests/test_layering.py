"""The layers stand below the model: ``encoder3d`` and ``gnn`` take their inputs as arguments.

``Model.inputs`` is where a packed batch becomes graph nodes and the element
vocabulary meets the embedding table, so neither layer reads a record, a
vocabulary or a model. The op layer, ``autodiff``, stands below them all: it
reads a graph by attribute and imports no other module of the package but
``errors``. Every layer that pools takes the packed batch's ``offsets``,
so a pooled result always keeps one row per molecule. Checked on the
source and the signatures, as ``test_bench_hooks`` checks the benchmark
harness.
"""

import ast
import inspect
from pathlib import Path

import pytest

from rotenc import autodiff, encoder3d, gnn

SRC = Path(__file__).resolve().parent.parent / "src" / "rotenc"


def _imported_modules(path: Path) -> set[str]:
    """Every module a source file imports from, named absolutely (``rotenc.x``) where it is relative."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "rotenc" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            modules.add(module)
            if node.module is None:  # from . import x
                modules.update(f"rotenc.{alias.name}" for alias in node.names)
    return modules


@pytest.mark.parametrize("layer", ["encoder3d", "gnn"])
def test_layer_imports_nothing_from_data_or_model(layer):
    modules = _imported_modules(SRC / f"{layer}.py")
    assert "rotenc.autodiff" in modules  # the walk sees the layer's own imports
    assert modules.isdisjoint({"rotenc.data", "rotenc.model"}), sorted(modules)


def test_autodiff_imports_nothing_from_the_package_but_errors():
    modules = _imported_modules(SRC / "autodiff.py")
    assert "numpy" in modules  # the walk sees the module's own imports
    assert {m for m in modules if m.split(".")[0] == "rotenc"} == {"rotenc.errors"}, sorted(modules)


def test_every_pooling_layer_requires_offsets():
    # a model path always packs a batch, a lone molecule being a batch of one: no layer has a
    # second, one-molecule output shape
    for layer in (autodiff.mean_pool, encoder3d.encode, encoder3d.mean_embedding, gnn.gnn_forward):
        assert inspect.signature(layer).parameters["offsets"].default is inspect.Parameter.empty, layer.__name__
    assert not hasattr(gnn, "readout")
