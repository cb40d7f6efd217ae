"""Builders shared by the test modules (imported by name; fixtures live in conftest.py)."""

import numpy as np

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
