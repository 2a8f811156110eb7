"""Brute-force reference implementations.

Slow and obvious on purpose: these are the independent checks the fast
paths are tested against, and the `verify` CLI subcommand runs them on
demand. Nothing here shares code with the optimized paths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .attention import AttentionWeights
from .merge import Segment, TokenSequence, is_image_segment, pyramid_merge_layer
from .model import Model, PipelineConfig, _mlp
from .numerics import layer_norm


def naive_weighted_merge(rows: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Explicit accumulation of sum_i w_i * row_i, element by element."""
    rows = np.asarray(rows, dtype=np.float32)
    weights = np.asarray(weights, dtype=np.float32)
    if rows.ndim != 2 or weights.shape != (rows.shape[0],):
        raise ValueError(f"{weights.shape} weights for rows of shape {rows.shape}")
    if abs(float(weights.sum()) - 1.0) > 1e-6:
        raise ValueError(f"weights must sum to 1 within 1e-6, got {float(weights.sum())}")
    out = np.zeros(rows.shape[1], dtype=np.float32)
    for i in range(rows.shape[0]):
        w = weights[i]
        for c in range(rows.shape[1]):
            out[c] = np.float32(out[c] + w * rows[i, c])
    return out


def full_attention(hidden: np.ndarray, weights: AttentionWeights
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Causal multi-head attention with every score materialized.

    Returns (context (N, C), per-key cumulative scores (H, N), per-head
    score matrices (H, N, N)). The engine's blockwise path must match the
    first two up to float reordering.
    """
    hidden = np.asarray(hidden, dtype=np.float32)
    n, c = hidden.shape
    h = weights.n_heads
    hd = c // h

    def heads(w):
        return (hidden @ w).reshape(n, h, hd).transpose(1, 0, 2)

    q, k, v = heads(weights.wq), heads(weights.wk), heads(weights.wv)
    logits = (q @ k.transpose(0, 2, 1)) * np.float32(1.0 / np.sqrt(hd))
    future = np.triu(np.ones((n, n), dtype=bool), k=1)
    logits = np.where(future[None, :, :], np.float32(-np.inf), logits)
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    scores = e / e.sum(axis=2, keepdims=True)
    context = (scores @ v).transpose(1, 0, 2).reshape(n, c) @ weights.wo
    return context, scores.sum(axis=1), scores


def _forward_no_cache(model: Model, seq: TokenSequence, pipeline: PipelineConfig) -> np.ndarray:
    """Full forward over the whole sequence, merge decisions replayed.

    Merge importance is restricted to non-generated query rows, so a
    longer sequence reproduces exactly the decisions the engine made at
    prefill time (causal rows are unaffected by appended tokens).
    """
    do_merge = pipeline.merging_enabled and seq.n_image > 0
    schedule = pipeline.merge_schedule.resolve(seq.n_image) if do_merge else None
    stage_of = {layer: i for i, layer in enumerate(schedule.merge_layers)} if do_merge else {}

    hidden, segs, poss = seq.embeddings, seq.segments, seq.positions
    for li, lw in enumerate(model.layers):
        x = layer_norm(hidden, lw.ln1_g, lw.ln1_b)
        context, _, scores = full_attention(x, lw.attn)
        hidden = hidden + context
        hidden = hidden + _mlp(layer_norm(hidden, lw.ln2_g, lw.ln2_b), lw)
        if do_merge and li in stage_of:
            prefill_rows = segs != Segment.GENERATED
            col_sums = scores[:, prefill_rows, :].sum(axis=1)
            importance = col_sums.mean(axis=0)[is_image_segment(segs)]
            merged = pyramid_merge_layer(
                TokenSequence(hidden, segs, poss), importance,
                schedule.keep_counts[stage_of[li]],
            )
            hidden, segs, poss = merged.embeddings, merged.segments, merged.positions
    return (layer_norm(hidden, model.final_g, model.final_b) @ model.w_out)[-1]


def full_recompute_decode(model: Model, seq: TokenSequence, pipeline: PipelineConfig,
                          n_steps: int) -> list[int]:
    """Greedy decode with no KV cache: rerun the whole stack each step."""
    if pipeline.compression_enabled:
        raise ValueError("full_recompute_decode requires compression disabled")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    ids: list[int] = []
    cur = seq
    logits = _forward_no_cache(model, cur, pipeline)
    for step in range(n_steps):
        tok = int(np.argmax(logits))
        ids.append(tok)
        if step == n_steps - 1:
            break
        cur = TokenSequence(
            np.concatenate([cur.embeddings, model.embed[tok][None, :]], axis=0),
            np.concatenate([cur.segments, np.array([Segment.GENERATED], dtype=np.int8)]),
            np.concatenate([cur.positions, np.array([int(cur.positions.max()) + 1], dtype=np.int64)]),
        )
        logits = _forward_no_cache(model, cur, pipeline)
    return ids


def attention_mass_curve(scores: np.ndarray, thresholds: Sequence[float]) -> list[int]:
    """For each threshold t: the minimum k such that the top-k normalized
    scores sum to at least t."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size == 0 or s.min() < 0 or s.max() <= 0:
        raise ValueError("scores must be nonnegative and not all zero")
    cum = np.cumsum(np.sort(s)[::-1])
    total = cum[-1]
    out = []
    for t in thresholds:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {t}")
        # tiny relative slack so exact-fraction cases are not lost to rounding
        hit = np.flatnonzero(cum >= t * total * (1.0 - 1e-12))
        out.append(int(hit[0]) + 1 if hit.size else s.size)
    return out
