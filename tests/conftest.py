import pytest

from helpers import tiny_model_config
from rotenc.data import MoleculeRecord
from rotenc.model import Model, ModelConfig
from rotenc.synthetic import make_records


@pytest.fixture
def tiny_cfg() -> ModelConfig:
    return tiny_model_config()


@pytest.fixture
def small_records() -> list[MoleculeRecord]:
    return make_records(8, seed=42, n_atoms_range=(4, 9))


@pytest.fixture
def tiny_model(tiny_cfg, small_records) -> Model:
    return Model(tiny_cfg, vocab=(1, 6, 7, 8), task_names=("rg",), seed=0)
