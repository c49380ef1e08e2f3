import logging

import numpy as np
import pytest

from sparsevolve.models import ModelConfig, build_transformer

logging.getLogger("sparsevolve").setLevel(logging.ERROR)


@pytest.fixture
def tiny_cfg():
    return ModelConfig(vocab=32, dim=64, heads=4, blocks=2, ff_mult=2, context=8, seed=3)


@pytest.fixture
def tiny_model(tiny_cfg):
    tree, forward = build_transformer(tiny_cfg, dtype=np.float64)
    return tiny_cfg, tree, forward

