"""Workload definitions, the single-request runner and the output checks.

Every workload uses the `configs/default.ini` model and input shape; only
the pipeline and the output length differ. Request i of a run with seed s
gets input seed s + i.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

import lightinfer.model as M
from lightinfer import CompressionConfig, MergeSchedule, ModelConfig, PipelineConfig, memory_estimate

MODEL = ModelConfig(n_layers=28, n_heads=4, dim=256, vocab=512, seed=0)
INPUT = {"n_system": 30, "n_image": 1476, "n_instruction": 50, "redundancy": 0.5}
N_TOKENS = INPUT["n_system"] + INPUT["n_image"] + INPUT["n_instruction"]
N_TEXT = INPUT["n_system"] + INPUT["n_instruction"]
WARMUP_TOKENS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    merging: bool
    compression: bool
    max_new: int
    beta: float = 1.0
    start_layer: int = 0
    merge_layers: tuple[int, ...] = ()
    keep_ratio: float = 1.0

    def pipeline(self) -> PipelineConfig:
        return PipelineConfig(
            merge_schedule=MergeSchedule(self.merge_layers, self.keep_ratio),
            compression=CompressionConfig(self.beta, self.start_layer),
            merging_enabled=self.merging,
            compression_enabled=self.compression,
        )

    def digest(self) -> str:
        spec = {"workload": asdict(self), "model": asdict(MODEL), "input": INPUT}
        return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:12]


WORKLOADS = {
    w.name: w
    for w in (
        # Prefill is ~85% of request time; merge stages shrink N from 1556 to ~600.
        Workload("merge-prefill", merging=True, compression=True, max_new=16, beta=0.995,
                 start_layer=5, merge_layers=(5, 9, 13), keep_ratio=0.35),
        # Decode is ~2/3 of request time over a cache holding <=10% of image entries.
        Workload("evict-decode", merging=False, compression=True, max_new=384, beta=0.08,
                 start_layer=0),
        # Both mechanisms bypassed: decode reads and appends to the full cache.
        Workload("vanilla-decode", merging=False, compression=False, max_new=128),
    )
}

DISABLED = PipelineConfig(merging_enabled=False, compression_enabled=False)


def make_input(seed: int):
    return M.build_input(seed=seed, dim=MODEL.dim, **INPUT)


@dataclass
class Reply:
    ids: list[int]
    ttft_s: float
    itl_s: list[float]
    total_s: float
    cache: object = field(repr=False)
    input_seed: int = -1


def run_request(model, seq, pipeline: PipelineConfig, max_new: int,
                on_prefill: Optional[Callable] = None) -> Reply:
    """Prefill, argmax, then one decode_step per further output token.

    Calls go through the `lightinfer.model` namespace so a tracer that
    replaces names there sees them. `on_prefill(result)` runs between
    prefill and the first decode step, inside the request's wall time.
    """
    clock = time.perf_counter
    t0 = clock()
    pre = M.prefill(model, seq, pipeline)
    tok = int(np.argmax(pre.logits))
    ttft = clock() - t0
    if on_prefill is not None:
        on_prefill(pre)
    ids = [tok]
    itl = []
    cache = pre.cache
    for _ in range(max_new - 1):
        t = clock()
        logits, cache = M.decode_step(model, cache, tok)
        tok = int(np.argmax(logits))
        itl.append(clock() - t)
        ids.append(tok)
    return Reply(ids, ttft, itl, clock() - t0, cache)


def check_reply(reply: Reply, max_new: int, full_cache: bool) -> list[str]:
    """Output and cache invariants a request must satisfy; empty when it passes.

    `full_cache` marks a pipeline with merging and compression both off,
    whose every layer must hold every input and generated token.
    """
    errors = []
    if len(reply.ids) != max_new:
        errors.append(f"{len(reply.ids)} ids for max_new={max_new}")
    if any(not 0 <= t < MODEL.vocab for t in reply.ids):
        errors.append("id outside vocab")
    cache = reply.cache
    entries = cache.entries_per_layer()
    ledger = sum(entries) * 2 * cache.head_dim * 4
    if memory_estimate(cache).total != ledger:
        errors.append(f"memory_estimate {memory_estimate(cache).total} != entry recount {ledger}")
    generated = max_new - 1
    h = MODEL.n_heads
    if min(entries) < h * (N_TEXT + generated):
        errors.append(f"text evicted: a layer holds {min(entries)} < {h * (N_TEXT + generated)} entries")
    if full_cache and set(entries) != {h * (N_TOKENS + generated)}:
        errors.append(f"full cache expected {h * (N_TOKENS + generated)} entries per layer, got {sorted(set(entries))}")
    return errors
