from types import SimpleNamespace

import pytest

from lightinfer import (
    CompressionConfig,
    MergeSchedule,
    ModelConfig,
    PipelineConfig,
    build_input,
    init_model,
)


@pytest.fixture(scope="session")
def tiny_model():
    return init_model(ModelConfig(n_layers=4, n_heads=2, dim=32, vocab=64, seed=0))


@pytest.fixture
def tiny_seq():
    return build_input(4, 24, 6, redundancy=0.5, seed=1, dim=32)


def pipeline(merge_layers=(1, 2, 3), keep_ratio=0.5, beta=1.0, start_layer=1,
             merging=True, compression=True):
    return PipelineConfig(
        MergeSchedule(merge_layers, keep_ratio) if merging else None,
        CompressionConfig(beta, start_layer) if compression else None,
    )


def head(cache, layer, h):
    """Head h's live keys and values in a layer, as views into the layer's buffers."""
    n = cache.counts[layer, h]
    return SimpleNamespace(keys=cache.keys[layer][h, :n], values=cache.values[layer][h, :n])
