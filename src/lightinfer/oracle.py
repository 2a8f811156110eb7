"""Brute-force reference implementations.

Slow and obvious on purpose: the independent checks the fast paths are
tested against, run on demand by `lightinfer verify`. Shared with the engine:
the types, `is_image_segment`, `MergeSchedule.keep_counts` and `merge_tokens`,
and `CompressionConfig`'s fields, but not `retention` or `coverage_prefix`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .attention import AttentionWeights
from .merge import Segment, TokenSequence, is_image_segment, merge_tokens
from .model import LayerWeights, Model, PipelineConfig


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mean = x.mean(axis=1, keepdims=True)
    return (x - mean) / np.sqrt(x.var(axis=1, keepdims=True) + np.float32(1e-5))


def _mlp(x: np.ndarray, lw: LayerWeights) -> np.ndarray:
    a = x @ lw.w1 + lw.b1
    gelu = 0.5 * a * (1.0 + np.tanh(0.7978845608028654 * (a + 0.044715 * a * a * a)))  # sqrt(2/pi)
    return gelu @ lw.w2 + lw.b2


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


def literal_merge_stage(seq: TokenSequence, importance: np.ndarray, keep_count: int) -> TokenSequence:
    """Oracle for `pyramid_merge_layer`, built token by token with Python lists:
    the keep_count - 1 top-importance image tokens in stored order, then the rest
    collapsed by `merge_tokens` into one MERGED_IMAGE token at one past the last
    survivor's position, or in the first image token's slot if none survive."""
    emb, segs, poss = seq.embeddings, seq.segments.tolist(), seq.positions.tolist()
    image = [i for i, s in enumerate(segs) if is_image_segment(s)]
    if keep_count == len(image):
        return seq
    ranked = sorted(range(len(image)), key=lambda j: (-float(importance[j]), j))
    survivors = sorted(image[j] for j in ranked[:keep_count - 1])
    gone = [image[j] for j in ranked[keep_count - 1:]]
    merged_row = merge_tokens(emb[gone])
    out = []
    for i in range(len(segs)):
        if not survivors and i == image[0]:
            out.append((merged_row, Segment.MERGED_IMAGE, poss[i]))
        if i not in gone:
            out.append((emb[i], segs[i], poss[i]))
        if survivors and i == survivors[-1]:
            out.append((merged_row, Segment.MERGED_IMAGE, poss[i] + 1))
    rows, out_segs, out_poss = zip(*out)
    return TokenSequence(np.stack(rows), out_segs, out_poss)


def minimal_coverage_prefix(norm: np.ndarray, beta: float) -> set[int]:
    """Independent oracle for `coverage_prefix`: shortest descending-score prefix with mass >= beta."""
    order = sorted(range(norm.shape[0]), key=lambda i: (-float(norm[i]), i))
    acc = 0.0
    kept: set[int] = set()
    for i in order:
        kept.add(i)
        acc += float(norm[i])
        if acc >= beta:
            return kept
    return kept


def full_attention(hidden: np.ndarray, weights: AttentionWeights,
                   evicted: Optional[np.ndarray] = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Causal multi-head attention with every score materialized.

    Returns (context (N, C), per-key cumulative scores (H, N), per-head
    score matrices (H, N, N)). The engine's blockwise path must match the
    first two up to float reordering.

    `evicted` (H, P) marks, per head, keys among the first P rows (the
    prefill) that no later row may attend to: rows from P on are the
    generated tokens, which decode from a compressed cache.

    A NaN in any input row makes every context row NaN, the rows before it
    too: masked weights are 0 and `scores @ v` multiplies them by the NaN
    row's value. In the engine, rows of the query blocks before the NaN
    row's block stay finite (see the `attention` module docstring).
    """
    hidden = np.asarray(hidden, dtype=np.float32)
    n, c = hidden.shape
    h = weights.n_heads
    hd = c // h

    def heads(w):
        return (hidden @ w).reshape(n, h, hd).transpose(1, 0, 2)

    q, k, v = heads(weights.wq), heads(weights.wk), heads(weights.wv)
    logits = (q @ k.transpose(0, 2, 1)) * np.float32(1.0 / np.sqrt(hd))
    masked = np.triu(np.ones((n, n), dtype=bool), k=1)[None]
    if evicted is not None:
        p = evicted.shape[1]
        masked = masked.repeat(h, axis=0)
        masked[:, p:, :p] = evicted[:, None, :]
    logits = np.where(masked, np.float32(-np.inf), logits)
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    scores = e / e.sum(axis=2, keepdims=True)
    context = (scores @ v).transpose(1, 0, 2).reshape(n, c) @ weights.wo
    return context, scores.sum(axis=1), scores


def _forward_no_cache(model: Model, seq: TokenSequence, pipeline: PipelineConfig
                      ) -> tuple[np.ndarray, list[Optional[np.ndarray]]]:
    """Full forward over the whole sequence, merges and evictions decided anew.

    Each layer first attends over its P prefill rows (those not GENERATED)
    alone: the attention is causal, so their column sums are the engine's
    prefill scores. They give the merge importance and, on a layer compressed
    at beta < 1, the (H, P) mask of what each head keeps: every text entry and
    the `minimal_coverage_prefix` of its image scores, normalized in float64
    (uniform if their mass is 0). Generated rows attend to kept keys only.

    Returns the last row's logits and the masks, None where a layer keeps all.
    """
    schedule, compression = pipeline.merge_schedule, pipeline.compression
    keep_counts = schedule.keep_counts(seq.n_image) if schedule is not None else {}

    hidden, segs, poss = seq.embeddings, seq.segments, seq.positions
    masks: list[Optional[np.ndarray]] = []
    for li, lw in enumerate(model.layers):
        x = _layer_norm(hidden)
        p = int((segs != Segment.GENERATED).sum())
        col_sums = full_attention(x[:p], lw.attn)[1]
        img = np.flatnonzero(is_image_segment(segs[:p]))
        keep = None
        # at beta 1.0 the engine keeps all; a float64 sum can reach 1.0 early
        if compression is not None and li >= compression.start_layer and compression.beta < 1.0:
            keep = np.tile(~is_image_segment(segs[:p]), (lw.attn.n_heads, 1))
            for h, image in enumerate(col_sums[:, img].astype(np.float64)):
                norm = image / image.sum() if image.sum() > 0 else np.ones(img.size) / img.size
                keep[h, img[list(minimal_coverage_prefix(norm, compression.beta))]] = True
        masks.append(keep)
        hidden = hidden + full_attention(x, lw.attn, None if keep is None else ~keep)[0]
        hidden = hidden + _mlp(_layer_norm(hidden), lw)
        if li in keep_counts:
            merged = literal_merge_stage(TokenSequence(hidden, segs, poss),
                                         col_sums.mean(axis=0)[img], keep_counts[li])
            hidden, segs, poss = merged.embeddings, merged.segments, merged.positions
    return (_layer_norm(hidden) @ model.w_out)[-1], masks


def full_recompute_decode(model: Model, seq: TokenSequence, pipeline: PipelineConfig,
                          n_steps: int) -> tuple[list[int], list[Optional[np.ndarray]]]:
    """Greedy decode with no KV cache, rerunning the whole stack each step: the
    ids, and the retained masks `_forward_no_cache` decided over the input."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    logits, masks = _forward_no_cache(model, seq, pipeline)
    ids = [int(np.argmax(logits))]
    while len(ids) < n_steps:
        seq = TokenSequence(
            np.concatenate([seq.embeddings, model.embed[ids[-1]][None, :]], axis=0),
            np.concatenate([seq.segments, np.array([Segment.GENERATED], dtype=np.int8)]),
            np.concatenate([seq.positions, np.array([int(seq.positions.max()) + 1], dtype=np.int64)]),
        )
        ids.append(int(np.argmax(_forward_no_cache(model, seq, pipeline)[0])))
    return ids, masks
