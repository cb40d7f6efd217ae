"""Builders and the gradient check shared by the test modules (imported by name; fixtures live in conftest.py)."""

import numpy as np

from rotenc import autodiff as ad
from rotenc.autodiff import ParameterStore, Value
from rotenc.data import MoleculeRecord
from rotenc.encoder3d import EncoderConfig
from rotenc.gnn import GnnConfig
from rotenc.model import ModelConfig


def tiny_model_config(**overrides) -> ModelConfig:
    """Small but real model: every component present, fast to run."""
    enc = overrides.pop("encoder", None) or EncoderConfig(
        widths=(16, 8), embed_dim=4, k=3, seed=1, align_mode="none"
    )
    gcf = overrides.pop("gnn", None) or GnnConfig(layers=2, hidden=8, message_width=8)
    defaults = dict(encoder=enc, gnn=gcf, g_dim=8, head_hidden=16, cutoff=8.0)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def bonded_record(seed: int = 11, n: int = 9) -> MoleculeRecord:
    """Chain-bonded molecule; one-hot edge features keep gradients exact."""
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(n, 3)) * np.array([3.0, 2.0, 1.0])
    bonds = [(i, i + 1, 1 + (i % 3)) for i in range(n - 1)] + [(0, n // 2, 1)]
    z = [int(rng.choice((1, 6, 7, 8))) for _ in range(n)]
    return MoleculeRecord(id=f"bonded{seed}", atomic_numbers=z, coords=coords, bonds=bonds,
                          targets={"y": 1.0})


def assert_close_to_scale(got, want, rtol):
    """``assert_allclose`` at ``rtol``, with an absolute tolerance of ``rtol`` times the largest |want|.

    Relative to the array's scale: an entry that cancels to ~0 has no
    meaningful relative error of its own.
    """
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * float(np.max(np.abs(want), initial=0.0)))


def activation_pattern(root: Value) -> list[np.ndarray]:
    """Sign pattern (output > 0) of every fused relu, in deterministic graph order."""
    patterns = []
    for node in ad._topo_order(root):
        if node._op in ("dense_relu", "batchnorm_relu"):
            patterns.append(node.data > 0.0)
        elif node._op == "message_layer":
            patterns.extend(r > 0.0 for r in getattr(node._backward_fn, "relu_outputs", ()))
    return patterns


def _patterns_differ(a, b) -> bool:
    return len(a) != len(b) or any(not np.array_equal(x, y) for x, y in zip(a, b))


def gradient_check(f, store: ParameterStore, h: float = 1e-5, n_probe: int = 50,
                   seed: int = 0) -> float:
    """Compare backward gradients against central differences.

    ``f(store)`` must build and return a scalar Value and be a pure
    function of the stored parameters. A probe is skipped when the central
    difference is not valid at that point: the stencil moved a relu onto or
    across its kink (the sign pattern of a fused relu differs between the
    three evaluations). A relu input that sits exactly on 0 and stays there
    is no reason to skip: the relu is flat along that probe. Returns the
    max relative error max|a - n| / max(|a|, |n|, 1e-8) over the evaluated
    probes, 0.0 if every probe was skipped.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    names = [name for name, _ in store.items()]
    sizes = [store[n].data.size for n in names]
    total = sum(sizes)
    rng = np.random.default_rng(seed)
    flat = rng.choice(total, size=min(n_probe, total), replace=False)
    flat.sort()

    store.zero_grad()
    root = f(store)
    ad.backward(root)
    base_pattern = activation_pattern(root)
    analytic = {}
    for idx in flat:
        name, offset = _locate(names, sizes, int(idx))
        g = store[name]._grad
        analytic[int(idx)] = 0.0 if g is None else float(g.flat[offset])

    worst = 0.0
    for idx in flat:
        name, offset = _locate(names, sizes, int(idx))
        data = store[name].data
        orig = data.flat[offset]
        data.flat[offset] = orig + h
        plus = f(store)
        data.flat[offset] = orig - h
        minus = f(store)
        data.flat[offset] = orig
        if _patterns_differ(base_pattern, activation_pattern(plus)) or _patterns_differ(
            base_pattern, activation_pattern(minus)
        ):
            continue
        numeric = float((plus.data - minus.data) / (2.0 * h))
        a = analytic[int(idx)]
        err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst


def _locate(names, sizes, flat_index):
    for name, size in zip(names, sizes):
        if flat_index < size:
            return name, flat_index
        flat_index -= size
    raise IndexError("probe index out of range")
