"""Executable correctness checks behind `lightinfer verify`.

Each check is self-contained, deterministic, takes no arguments, and
validates one headline property of the engine against an independent
oracle or an exact expectation. It returns `(passed, detail)`. Its name
is its key in `FAST_CHECKS` or `SLOW_CHECKS`, and `run_checks` pairs
name, outcome and elapsed time in a `CheckResult`. These two tables are
the only declaration of the battery: tier-1 (`tests/test_acceptance.py`)
runs every entry of both through `run_checks`, and `lightinfer verify`
runs them on demand without a test harness.

Fast checks run in seconds. The two timing checks take minutes; they sit
in `SLOW_CHECKS`, which runs only with include_slow or by name.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .attention import _BLOCK, AttentionWeights, multi_head_attention
from .kvcache import CompressionConfig, HeadCache, compress_layer, memory_estimate
from .merge import (
    MergeSchedule,
    Segment,
    is_image_segment,
    merge_tokens,
    partition_tokens,
    plan_keep_counts,
)
from .model import (
    Model,
    ModelConfig,
    PipelineConfig,
    build_input,
    generate,
    init_model,
    prefill,
)
from .oracle import full_attention, full_recompute_decode, naive_weighted_merge


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


Check = Callable[[], tuple[bool, str]]


def _pipeline(merge_layers=(5, 9, 13), keep_ratio=1.0, beta=1.0, start_layer=5,
              merging=True, compression=True) -> PipelineConfig:
    return PipelineConfig(
        merge_schedule=MergeSchedule(tuple(merge_layers), keep_ratio),
        compression=CompressionConfig(beta, start_layer),
        merging_enabled=merging,
        compression_enabled=compression,
    )


def _small_model(seed: int, n_layers: int) -> Model:
    return init_model(ModelConfig(n_layers=n_layers, n_heads=4, dim=64, vocab=128, seed=seed))


def check_identity_configuration() -> tuple[bool, str]:
    """keep_ratio=1.0 and beta=1.0 must generate bit-identical ids to the
    pipeline-disabled model."""
    identity = _pipeline((1, 3, 5), keep_ratio=1.0, beta=1.0, start_layer=1)
    disabled = _pipeline((1, 3, 5), merging=False, compression=False)
    for seed in range(20):
        model = _small_model(seed, 6)
        seq = build_input(8, 96, 12, redundancy=0.3, seed=1000 + seed, dim=64)
        ids_a, _ = generate(model, seq, identity, 64)
        ids_b, _ = generate(model, seq, disabled, 64)
        if ids_a != ids_b:
            return False, f"seed {seed}: identity ids diverge from disabled pipeline"
    return True, "20 seeds x 64 tokens, ids exactly equal"


def check_merge_oracle_equivalence() -> tuple[bool, str]:
    """merge_tokens vs the naive weighted-sum oracle (1e-6) and
    partition_tokens vs a plain sort oracle (exact, including ties)."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(0, 33))
        c = int(rng.integers(1, 65))
        rows = rng.uniform(-1, 1, size=(r + 1, c)).astype(np.float32)
        w = np.arange(r + 1, 0, -1, dtype=np.float32)
        got = merge_tokens(rows)
        ref = naive_weighted_merge(rows, w / w.sum())
        worst = max(worst, float(np.abs(got - ref).max()))
        if worst > 1e-6:
            return False, f"merge_tokens off by {worst:.3g} > 1e-6"
    for _ in range(100):
        n = int(rng.integers(2, 40))
        # coarse quantization forces importance ties
        imp = (rng.integers(0, 5, size=n) / 4.0).astype(np.float32)
        r = int(rng.integers(0, n))
        part = partition_tokens(imp, r)
        order = sorted(range(n), key=lambda i: (-float(imp[i]), i))
        exp_unmerged = sorted(order[: n - (r + 1)])
        exp_merged = order[n - (r + 1):]
        if part.unmerged.tolist() != exp_unmerged or part.merged.tolist() != exp_merged:
            return False, f"partition mismatch on n={n} r={r}"
    return True, f"100 merge instances (max |err| {worst:.2g}) and 100 partitions match oracles"


def check_cache_decode_equivalence() -> tuple[bool, str]:
    """Cached greedy decode equals the no-cache full-recompute oracle,
    with and without merging."""
    for seed in range(10):
        model = _small_model(seed, 5)
        seq = build_input(6, 48, 10, redundancy=0.5, seed=2000 + seed, dim=64)
        for merging in (False, True):
            cached = _pipeline((1, 2, 3), keep_ratio=0.4, beta=1.0, start_layer=1,
                               merging=merging, compression=True)
            uncached = _pipeline((1, 2, 3), keep_ratio=0.4, merging=merging, compression=False)
            ids_fast, _ = generate(model, seq, cached, 8)
            ids_ref = full_recompute_decode(model, seq, uncached, 8)
            if ids_fast != ids_ref:
                return False, f"seed {seed} merging={merging}: cached {ids_fast} != recompute {ids_ref}"
    return True, "10 seeds x 8 steps, merging on and off, ids exactly equal"


def _single_head_layer(scores: np.ndarray) -> list[HeadCache]:
    """One head holding an image entry per score, then two text entries."""
    n_img = scores.shape[0]
    hc = HeadCache(head_dim=4)
    for i in range(n_img + 2):
        seg = Segment.IMAGE if i < n_img else Segment.INSTRUCTION
        hc.append(np.zeros(4, np.float32), np.zeros(4, np.float32), i, seg)
    return [hc]


def _minimal_coverage_prefix(norm: np.ndarray, beta: float) -> set[int]:
    """Independent oracle: shortest descending-score prefix with mass >= beta."""
    order = sorted(range(norm.shape[0]), key=lambda i: (-float(norm[i]), i))
    acc = 0.0
    kept: set[int] = set()
    for i in order:
        kept.add(i)
        acc += float(norm[i])
        if acc >= beta:
            return kept
    return kept


def check_coverage_minimality() -> tuple[bool, str]:
    """Minimal-prefix retention and beta-monotonicity, exact set logic."""
    rng = np.random.default_rng(11)
    betas = (0.5, 0.9, 0.995, 1.0)
    for trial in range(200):
        n = int(rng.integers(3, 40))
        raw = rng.uniform(0.01, 1.0, size=n)
        norm = raw / raw.sum()
        retained_sets = []
        for beta in betas:
            layer = _single_head_layer(norm)
            compress_layer(layer, [np.concatenate([norm, np.zeros(2)])],
                           CompressionConfig(beta, 0))
            hc = layer[0]
            got = set(int(p) for p in hc.positions[is_image_segment(hc.segments)])
            expect = set(range(n)) if beta >= 1.0 else _minimal_coverage_prefix(norm, beta)
            if got != expect:
                return False, (f"trial {trial} beta={beta}: retained {sorted(got)} "
                               f"!= minimal prefix {sorted(expect)}")
            if int(is_image_segment(hc.segments).sum()) + 2 != hc.n:
                return False, f"trial {trial}: text entries were evicted"
            # dropping the lowest-scored retained entry must break coverage
            if beta < 1.0 and len(got) > 1:
                ranked = sorted(got, key=lambda p: (-float(norm[p]), p))
                acc = 0.0
                for p in ranked[:-1]:
                    acc += float(norm[p])
                if acc >= beta:
                    return False, f"trial {trial} beta={beta}: prefix not minimal"
            retained_sets.append(got)
        for small, big in zip(retained_sets, retained_sets[1:]):
            if not small <= big:
                return False, f"trial {trial}: retained sets not nested across betas"
    return True, f"200 score vectors satisfy minimal coverage and nesting over betas {betas}"


def check_token_ledger() -> tuple[bool, str]:
    """Staged image counts for 1000 tokens at ratio 0.03 over layers 5/9/13."""
    counts = plan_keep_counts(1000, 0.03, 3)
    if counts != [311, 97, 30]:
        return False, f"planned counts {counts} != [311, 97, 30]"
    model = init_model(ModelConfig(n_layers=28, n_heads=4, dim=64, vocab=128, seed=3))
    seq = build_input(30, 1000, 50, redundancy=0.5, seed=3, dim=64)
    pre = prefill(model, seq, _pipeline((5, 9, 13), keep_ratio=0.03, merging=True, compression=False))
    expect = [1000] * 5 + [311] * 4 + [97] * 4 + [30] * 15
    got = [r.image_tokens for r in pre.metrics.layers]
    if got != expect:
        return False, f"image counts per layer {got} != {expect}"
    text = {r.tokens - r.image_tokens for r in pre.metrics.layers}
    if text != {80}:
        return False, f"text counts vary: {text}"
    return True, "image counts 1000/311/97/30 at the scheduled layers, text constant at 80"


def check_prefill_speedup() -> tuple[bool, str]:
    """Merged prefill at keep_ratio 0.03 vs vanilla, 2048 image tokens."""
    model = init_model(ModelConfig(n_layers=28, n_heads=4, dim=256, vocab=512, seed=5))
    seq = build_input(30, 2048, 50, redundancy=0.5, seed=5, dim=256)
    merged = _pipeline((5, 9, 13), keep_ratio=0.03, merging=True, compression=False)
    vanilla = _pipeline(merging=False, compression=False)
    times = {"merged": [], "vanilla": []}
    prefill(model, seq, vanilla)  # warm-up discarded
    for _ in range(5):
        times["vanilla"].append(prefill(model, seq, vanilla).metrics.prefill_ms)
        times["merged"].append(prefill(model, seq, merged).metrics.prefill_ms)
    v = statistics.median(times["vanilla"])
    m = statistics.median(times["merged"])
    return m <= v / 1.5, (f"median prefill vanilla {v:.0f} ms vs merged {m:.0f} ms "
                          f"({v / m:.2f}x, need >= 1.5x)")


def _cache_image_entries(cache) -> int:
    return sum(int(is_image_segment(hc.segments).sum())
               for heads in cache.layers for hc in heads)


def check_long_decode_speedup() -> tuple[bool, str]:
    """Full pipeline vs vanilla when generating 256 and 2048 tokens after
    3072 image tokens.

    The pipeline config is chosen to hit the regime the check is about:
    compression from layer 0 with a coverage threshold that retains at
    most 10% of image cache entries (the toy model's attention is far
    flatter than a trained VLM's, so the threshold value itself is
    lower), and merging kept mild so the cache mechanism carries the
    long-sequence effect. Vanilla and full runs are interleaved within
    each of 3 repetitions so slow phases of the host hit both sides alike.

    Each total is the median prefill time plus the median decode sum at
    that length. Prefill does not depend on the output length, so each
    pipeline's prefill times are pooled over both lengths and all reps.
    """
    model = init_model(ModelConfig(n_layers=28, n_heads=4, dim=256, vocab=512, seed=9))
    seq = build_input(30, 3072, 50, redundancy=0.5, seed=9, dim=256)
    full = _pipeline((5, 9, 13), keep_ratio=0.95, beta=0.08, start_layer=0,
                     merging=True, compression=True)
    vanilla = _pipeline(merging=False, compression=False)

    pre = prefill(model, seq, full)
    frac = _cache_image_entries(pre.cache) / (28 * 4 * 3072)
    if frac > 0.10:
        return False, (f"retained image cache fraction {frac:.3f} > 0.10; "
                       f"coverage threshold not in the target regime")

    short, long_ = 256, 2048
    lengths = (short, long_)
    pipelines = (("vanilla", vanilla), ("full", full))
    prefills = {label: [] for label, _ in pipelines}
    decodes = {(label, length): [] for label, _ in pipelines for length in lengths}
    for label, pipeline in pipelines:
        generate(model, seq, pipeline, 8)  # warm-up discarded
    for _ in range(3):
        for length in lengths:
            for label, pipeline in pipelines:
                _, m = generate(model, seq, pipeline, length)
                prefills[label].append(m.prefill_ms)
                decodes[(label, length)].append(sum(m.decode_ms_per_token))

    def total(label: str, length: int) -> float:
        return statistics.median(prefills[label]) + statistics.median(decodes[(label, length)])

    speedups = {length: total("vanilla", length) / total("full", length) for length in lengths}
    ok = speedups[long_] >= 1.3 and speedups[long_] > speedups[short]
    return ok, (f"retained image fraction {frac:.3f}; speedup {speedups[short]:.2f}x at {short} "
                f"vs {speedups[long_]:.2f}x at {long_} (need >= 1.3x and increasing)")


def check_memory_ledger() -> tuple[bool, str]:
    """memory_estimate equals an entry recount exactly and compression
    cuts memory to <= 0.2x vanilla on an image-dominated input."""
    cfgm = ModelConfig(n_layers=12, n_heads=4, dim=128, vocab=256, seed=13)
    model = init_model(cfgm)
    seq = build_input(40, 2048, 40, redundancy=0.5, seed=13, dim=128)
    img_frac = 2048 / len(seq)
    compressed = _pipeline(merging=False, compression=True, beta=0.08, start_layer=0)
    vanilla = _pipeline(merging=False, compression=False)

    pre_c = prefill(model, seq, compressed)
    pre_v = prefill(model, seq, vanilla)
    est = memory_estimate(pre_c.cache)
    recount = sum(hc.n for heads in pre_c.cache.layers for hc in heads) * 2 * (128 // 4) * 4
    if est.total != recount:
        return False, f"memory_estimate {est.total} != recount {recount}"
    retained_frac = _cache_image_entries(pre_c.cache) / (12 * 4 * 2048)
    ratio = est.total / memory_estimate(pre_v.cache).total
    ok = retained_frac <= 0.10 and img_frac >= 0.95 and ratio <= 0.2
    return ok, (f"estimate == recount ({est.total} bytes); image share {img_frac:.3f}, "
                f"retained image fraction {retained_frac:.3f}, memory ratio {ratio:.3f}")


def check_drift_tiering() -> tuple[bool, str]:
    """Output drift vs vanilla is 0 at keep_ratio 1.0 and does not grow
    as more image tokens are kept (redundancy-0.9 inputs, seed-averaged)."""
    cfgm = ModelConfig(n_layers=8, n_heads=4, dim=64, vocab=256, seed=17)
    model = init_model(cfgm)
    disabled = _pipeline(merging=False, compression=False)
    keep_ratios = (0.03, 0.15, 0.35, 1.0)
    drifts = {kr: [] for kr in keep_ratios}
    for s in range(20):
        seq = build_input(8, 192, 16, redundancy=0.9, seed=4000 + s, dim=64)
        ref, _ = generate(model, seq, disabled, 32)
        for kr in keep_ratios:
            pipe = _pipeline((2, 4, 6), keep_ratio=kr, beta=1.0, start_layer=2)
            ids, _ = generate(model, seq, pipe, 32)
            drifts[kr].append(float(np.mean([a != b for a, b in zip(ids, ref)])))
    avg = {kr: statistics.mean(drifts[kr]) for kr in keep_ratios}
    monotone = all(avg[a] >= avg[b] - 1e-12 for a, b in zip(keep_ratios, keep_ratios[1:]))
    detail = ", ".join(f"keep {kr}: drift {avg[kr]:.3f}" for kr in keep_ratios)
    return avg[1.0] == 0.0 and monotone, detail + " over 20 seeds"


def check_attention_mode_equivalence() -> tuple[bool, str]:
    """Blockwise cumulative attention reproduces the full-matrix oracle's
    context and head-averaged cumulative scores on 50 inputs.

    Sizes straddle the query-block boundaries (one short of a block, one
    block, one past it, one past two blocks); the rest are drawn from
    [1, 3 blocks].
    """
    rng = np.random.default_rng(23)
    boundary = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]
    drawn = rng.integers(1, 3 * _BLOCK + 1, size=50 - len(boundary))
    sizes = boundary + [int(n) for n in drawn]
    tol = 1e-5
    worst_ctx = worst_cum = 0.0
    for n in sizes:
        dim, heads = 64, 4
        hidden = rng.standard_normal((n, dim)).astype(np.float32)
        w = AttentionWeights(heads, *(rng.uniform(-0.2, 0.2, (dim, dim)).astype(np.float32)
                                      for _ in range(4)))
        ref_context, ref_cum, _ = full_attention(hidden, w)
        got = multi_head_attention(hidden, w)
        worst_ctx = max(worst_ctx, float(np.abs(ref_context - got.context).max()))
        worst_cum = max(worst_cum,
                        float(np.abs(ref_cum.mean(axis=0) - got.cum_scores.mean(axis=0)).max()))
    ok = worst_ctx <= tol and worst_cum <= tol
    return ok, (f"{len(sizes)} inputs (N from {min(sizes)} to {max(sizes)}, block {_BLOCK}), "
                f"max context err {worst_ctx:.2g}, "
                f"max cumulative-score err {worst_cum:.2g} (tol {tol})")


FAST_CHECKS: dict[str, Check] = {
    "identity_configuration": check_identity_configuration,
    "merge_oracle_equivalence": check_merge_oracle_equivalence,
    "cache_decode_equivalence": check_cache_decode_equivalence,
    "coverage_minimality": check_coverage_minimality,
    "token_ledger": check_token_ledger,
    "memory_ledger": check_memory_ledger,
    "drift_tiering": check_drift_tiering,
    "attention_mode_equivalence": check_attention_mode_equivalence,
}

SLOW_CHECKS: dict[str, Check] = {
    "prefill_speedup": check_prefill_speedup,
    "long_decode_speedup": check_long_decode_speedup,
}


def select_checks(include_slow: bool = False,
                  names: Optional[list[str]] = None) -> dict[str, Check]:
    """The named checks, or the fast ones (plus the slow ones if asked);
    ValueError for an unknown name."""
    every = {**FAST_CHECKS, **SLOW_CHECKS}
    if names:
        unknown = [n for n in names if n not in every]
        if unknown:
            raise ValueError(f"unknown checks: {unknown}")
        return {n: every[n] for n in names}
    return every if include_slow else dict(FAST_CHECKS)


def run_checks(table: dict[str, Check]) -> list[CheckResult]:
    results = []
    for name, check in table.items():
        t0 = time.perf_counter()
        passed, detail = check()
        results.append(CheckResult(name, passed, detail, time.perf_counter() - t0))
    return results
