"""Per-layer KV storage and coverage-threshold compression.

`KVCache` holds what decode reads and nothing else: each layer's keys
and values as `(H, cap, hd)` tensors, with every head's live count in
`counts` `(L, H)`. Head h of layer l holds its entries in rows
`[:counts[l, h]]`; the rows past its count are zeros, so a masked-out
row never carries NaN into a weighted sum. Positions and segments are
not stored: prefill records them in each layer's `model.LayerAudit` when asked.

Compression decides before a layer is written, and the cache stores
only what it keeps. `retention` maps a layer's per-head scores to one
`(H, n)` retained mask: per head, the shortest descending-score prefix
of image entries whose attention mass, normalized over the head's image
entries, reaches beta (`coverage_prefix`), and every text entry.
`KVCache.extend_layer` gathers each head's retained entries, in input
order, into buffers sized to the layer's largest head.

Appends grow a full layer by an eighth of its capacity (`_GROWTH_DIV`),
not by doubling, so a layer holds at most ~1/8 more rows than its
largest head. Every buffer is allocated in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .merge import is_image_segment

# A full buffer grows by capacity // _GROWTH_DIV rows (at least what is needed).
_GROWTH_DIV = 8


@dataclass(frozen=True)
class CompressionConfig:
    beta: float = 0.995
    start_layer: int = 5

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.start_layer < 0:
            raise ValueError(f"start_layer must be >= 0, got {self.start_layer}")


class KVCache:
    """Key/value entries, laid out as the module says.

    Layers start with no rows; prefill's `extend_layer` sizes each to
    exactly what it brings.
    """

    def __init__(self, n_layers: int, n_heads: int, head_dim: int):
        if n_layers < 1 or n_heads < 1 or head_dim < 1:
            raise ValueError("n_layers, n_heads and head_dim must all be >= 1")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.keys = [np.zeros((n_heads, 0, head_dim), np.float32) for _ in range(n_layers)]
        self.values = [np.zeros((n_heads, 0, head_dim), np.float32) for _ in range(n_layers)]
        self.counts = np.zeros((n_layers, n_heads), dtype=np.int64)
        self._heads = np.arange(n_heads)

    def _grow(self, layer: int) -> None:
        """Make room for one more row in every head of a layer."""
        top = int(self.counts[layer].max())
        cap = self.keys[layer].shape[1]
        if top < cap:
            return
        new_cap = max(cap + cap // _GROWTH_DIV, top + 1)
        for field in (self.keys, self.values):
            old = field[layer]
            buf = np.zeros((old.shape[0], new_cap, old.shape[2]), dtype=old.dtype)
            buf[:, :top] = old[:, :top]
            field[layer] = buf

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        """Append one entry to every head of a layer (decode path), each after
        its head's own entries; a rejected append changes nothing."""
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.n_layers})")
        keys = np.asarray(keys, dtype=np.float32).reshape(self.n_heads, self.head_dim)
        values = np.asarray(values, dtype=np.float32).reshape(self.n_heads, self.head_dim)
        self._grow(layer)
        n = self.counts[layer]
        self.keys[layer][self._heads, n] = keys
        self.values[layer][self._heads, n] = values
        n += 1

    def extend_layer(self, layer: int, keys: np.ndarray, values: np.ndarray,
                     retained: Optional[np.ndarray] = None) -> None:
        """Fill an empty layer during prefill from its n entries, keys and
        values (H, n, hd): every head holds all n, or with `retained` (H, n)
        only the entries its row marks, in row order.
        """
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.n_layers})")
        if self.counts[layer].any():
            raise ValueError(f"layer {layer} is already filled")
        keys = np.asarray(keys, np.float32).reshape(self.n_heads, -1, self.head_dim)
        sources = [keys, np.asarray(values, np.float32).reshape(keys.shape)]
        shape = keys.shape
        if retained is None:
            bufs = [np.array(src, order="C") for src in sources]
            counts = shape[1]
        else:
            if retained.shape != shape[:2]:
                raise ValueError(f"retained mask of shape {retained.shape} for (H, n) = {shape[:2]}")
            counts = retained.sum(axis=1)
            n = int(counts.max())
            rows = self._heads[:, None], np.argsort(~retained, axis=1, kind="stable")[:, :n]
            pad = np.arange(n) >= counts[:, None]
            bufs = [src[rows] for src in sources]
            for buf in bufs:
                buf[pad] = 0
        self.keys[layer], self.values[layer] = bufs
        self.counts[layer] = counts

    def entries_per_layer(self) -> list[int]:
        return self.counts.sum(axis=1).tolist()


def coverage_prefix(scores: np.ndarray, beta: float) -> np.ndarray:
    """Per row of `scores` (R, m), the shortest descending-score prefix whose
    scores sum to >= beta, as an (R, m) mask.

    `scores` are float64 and normalized per row, so beta reads as a
    fraction of the row's mass. Ties rank the lower index first. A row
    whose mass never reaches beta keeps all of its entries.
    """
    order = np.argsort(-scores, axis=1, kind="stable")
    cum = np.cumsum(np.take_along_axis(scores, order, axis=1), axis=1)
    k = (cum < beta).sum(axis=1, keepdims=True) + 1
    kept = np.zeros(scores.shape, dtype=bool)
    np.put_along_axis(kept, order, np.arange(scores.shape[1]) < k, axis=1)
    return kept


def retention(raw_scores: np.ndarray, segments: np.ndarray,
              config: CompressionConfig) -> tuple[np.ndarray, np.ndarray]:
    """Which of a layer's n entries each head keeps, decided from its raw scores.

    `raw_scores` (H, n) holds one nonnegative score per head and entry,
    and `segments` (n,) the entries' kinds. Each head's image-entry
    scores are normalized to sum to 1 (uniform if they sum to 0), so beta
    reads as a fraction of the head's image attention mass; the head then
    keeps its `coverage_prefix` of image entries and every other entry.

    Returns the (H, n) retained mask and the float64 scores, image scores
    normalized; the cache is not touched.
    """
    segments = np.asarray(segments)
    scores = np.array(raw_scores, dtype=np.float64)
    if scores.ndim != 2 or scores.shape[1] != segments.shape[0]:
        raise ValueError(f"scores of shape {scores.shape} for {segments.shape[0]} cache entries")
    if (scores < 0).any():
        raise ValueError("scores must be nonnegative")
    img = np.flatnonzero(is_image_segment(segments))
    image = scores[:, img]
    mass = image.sum(axis=1, keepdims=True)
    image = np.divide(image, mass, out=np.full_like(image, 1.0 / max(img.size, 1)), where=mass > 0)
    scores[:, img] = image
    retained = np.ones(scores.shape, dtype=bool)
    if config.beta < 1.0:
        retained[:, img] = coverage_prefix(image, config.beta)
    return retained, scores


def compress_all(cache: KVCache, scores: Sequence[Optional[np.ndarray]],
                 segments: Sequence[np.ndarray], config: CompressionConfig) -> KVCache:
    """A new cache keeping what compression of every layer >= start_layer
    keeps from an uncompressed `cache` (prefill's, with compression off).

    scores[layer] gives one raw score per head and entry, and segments[layer]
    the `(n,)` kinds of the layer's entries; see `retention`.
    """
    if len(scores) < cache.n_layers:
        raise ValueError(f"scores cover {len(scores)} layers, cache has {cache.n_layers}")
    out = KVCache(cache.n_layers, cache.n_heads, cache.head_dim)
    for layer in range(cache.n_layers):
        n = cache.counts[layer, 0]
        retained = None
        if layer >= config.start_layer:
            if scores[layer] is None:
                raise ValueError(f"missing scores for layer {layer} (start_layer {config.start_layer})")
            retained, _ = retention(scores[layer], segments[layer], config)
        out.extend_layer(layer, cache.keys[layer][:, :n], cache.values[layer][:, :n], retained)
    return out


@dataclass(frozen=True)
class MemoryEstimate:
    total: int        # logical: live entries x 2 vectors x head_dim x 4 bytes
    allocated: int    # buffer capacity held for keys and values, padding included


def memory_estimate(cache: KVCache) -> MemoryEstimate:
    """Logical bytes of the live entries, and the bytes actually allocated."""
    total = int(cache.counts.sum()) * 2 * cache.head_dim * 4
    allocated = sum(k.nbytes + v.nbytes for k, v in zip(cache.keys, cache.values))
    return MemoryEstimate(total, allocated)
