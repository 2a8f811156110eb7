"""The benchmark's tracer (perfbench/spans.py) and request path
(perfbench/workloads.py) against the current engine.

The tracer wraps names in `lightinfer.model` by looking them up in the
module's namespace, and the request path imports names from the package
root, so a renamed or deleted name breaks benchmark runs. These run one
request on the tiny model to catch that early.
"""

import math
import sys
from pathlib import Path

import numpy as np

import lightinfer.model as M

from conftest import pipeline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_prefill_and_decode_give_finite_module_metrics(tiny_model, tiny_seq):
    tracer = spans.Tracer(tiny_seq.n_text)
    tracer.request = 0
    with tracer.installed():
        pre = M.prefill(tiny_model, tiny_seq, pipeline())
        M.decode_step(tiny_model, pre.cache, int(np.argmax(pre.logits)))
    metrics = spans.module_metrics(tracer.spans, tiny_model.config.dim, {0})
    assert metrics and all(math.isfinite(v) for v in metrics.values())
    assert metrics["merge.calls"] == 3
    assert metrics["attention.decode_calls_per_token"] == tiny_model.config.n_layers * tiny_model.config.n_heads


def test_benchmark_request_path_runs_on_the_engine(tiny_model, tiny_seq):
    reply = workloads.run_request(tiny_model, tiny_seq, workloads.DISABLED, 3)
    assert len(reply.ids) == 3
    assert all(0 <= t < tiny_model.config.vocab for t in reply.ids)
    # merging and compression off: every layer holds every input and generated token
    assert reply.cache.entries_per_layer() == [2 * (len(tiny_seq) + 2)] * 4
