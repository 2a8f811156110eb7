"""The benchmark's tracer (perfbench/spans.py) and request path
(perfbench/workloads.py) against the current engine.

The tracer wraps names in `lightinfer.model` by looking them up in the
module's namespace, and the request path imports names from the package
root, so a renamed or deleted name breaks benchmark runs. These run one
request on the tiny model to catch that early.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import lightinfer.model as M
from lightinfer import (
    CompressionConfig,
    MergeSchedule,
    ModelConfig,
    PipelineConfig,
    generate,
    init_model,
    memory_estimate,
)

from conftest import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_prefill_and_decode_give_finite_module_metrics(tiny_model, tiny_seq):
    tracer = spans.Tracer(len(tiny_seq) - tiny_seq.n_image)
    tracer.request = 0
    with tracer.installed():
        pre = M.prefill(tiny_model, tiny_seq, pipeline())
        M.decode_step(tiny_model, pre.cache, int(np.argmax(pre.logits)))
    metrics = spans.module_metrics(tracer.spans, tiny_model.config.dim, {0})
    assert metrics and all(math.isfinite(v) for v in metrics.values())
    assert metrics["merge.calls"] == 3
    assert metrics["attention.decode_calls_per_token"] == tiny_model.config.n_layers


def test_benchmark_request_path_runs_on_the_engine(tiny_model, tiny_seq):
    reply = workloads.run_request(tiny_model, tiny_seq, workloads.DISABLED, 3)
    assert len(reply.ids) == 3
    assert all(0 <= t < tiny_model.config.vocab for t in reply.ids)
    # merging and compression off: every layer holds every input and generated token
    assert reply.cache.entries_per_layer() == [2 * (len(tiny_seq) + 2)] * 4


# `PipelineConfig` says off with None; `perfbench/workloads.py` still says it
# with the init-only `merging_enabled`/`compression_enabled` flags.

def test_flag_arguments_build_the_none_pipeline():
    assert PipelineConfig(merging_enabled=False, compression_enabled=False) == PipelineConfig(None, None)
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == ["merge_schedule", "compression"]


@pytest.fixture(scope="module")
def model_14_layers():
    # deep enough for the workloads' merge layers 5, 9 and 13
    return init_model(ModelConfig(n_layers=14, n_heads=2, dim=32, vocab=64, seed=0))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_pipeline_is_none_exactly_when_off(name, model_14_layers, tiny_seq):
    w = workloads.WORKLOADS[name]
    pipe = w.pipeline()
    assert pipe == PipelineConfig(
        MergeSchedule(w.merge_layers, w.keep_ratio) if w.merging else None,
        CompressionConfig(w.beta, w.start_layer) if w.compression else None,
    )
    assert (pipe.merge_schedule is None) == (not w.merging)
    assert (pipe.compression is None) == (not w.compression)
    reply = workloads.run_request(model_14_layers, tiny_seq, pipe, 3)
    assert len(reply.ids) == 3
    full = 2 * (len(tiny_seq) + 2) * 14
    assert (sum(reply.cache.entries_per_layer()) == full) == (not (w.merging or w.compression))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generate_runs_the_benchmark_request_loop(name, model_14_layers, tiny_seq):
    # both loops take max_new - 1 decode steps and end on the same cache
    pipe, max_new = workloads.WORKLOADS[name].pipeline(), 5
    ids, metrics = generate(model_14_layers, tiny_seq, pipe, max_new)
    reply = workloads.run_request(model_14_layers, tiny_seq, pipe, max_new)
    assert ids == reply.ids
    assert len(metrics.decode_ms_per_token) == len(reply.itl_s) == max_new - 1
    est = memory_estimate(reply.cache)
    assert (metrics.memory_bytes, metrics.allocated_bytes) == (est.total, est.allocated)


def test_keep_counts_of_no_image_tokens_is_empty():
    assert MergeSchedule((1, 2), 0.5).keep_counts(0) == {}
