"""The layers stand below the model: ``encoder3d`` and ``gnn`` take their inputs as arguments.

``Model.inputs`` is where a packed batch becomes graph nodes and the element
vocabulary meets the embedding table, so neither layer reads a record, a
vocabulary or a model. The op layer, ``autodiff``, stands below them all: it
reads a graph by attribute and imports no other module of the package but
``errors``. Every layer that pools takes the packed batch's ``offsets``,
so a pooled result always keeps one row per molecule. Checked on the
source and the signatures, as ``test_bench_hooks`` checks the benchmark
harness. The same source walk finds every imported name a module of the
package, the tests or the demos never reads.
"""

import ast
import inspect
from pathlib import Path

import pytest

from rotenc import autodiff, encoder3d, gnn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rotenc"


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


def _unread_imports(path: Path) -> list[str]:
    """The names a source file imports and never reads; ``from __future__`` binds none."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    # a package __init__ imports its public names to re-export them
    paths = [path for folder in (SRC, ROOT / "tests", ROOT / "demos") for path in sorted(folder.rglob("*.py"))
             if path.name != "__init__.py"]
    assert SRC / "model.py" in paths and ROOT / "demos" / "04_training_smoke.py" in paths
    unread = {str(path.relative_to(ROOT)): names for path in paths if (names := _unread_imports(path))}
    assert not unread, unread
