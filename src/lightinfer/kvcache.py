"""Per-layer, per-head KV storage and coverage-threshold compression.

Compression keeps, per head, the shortest descending-score prefix of
image entries whose attention mass, normalized over the head's image
entries, reaches beta (`coverage_prefix`); everything else image-kind is
evicted. Text entries are never evicted. Retained entries go back in
original-position order.

Eviction frees memory: the kept rows are copied into new buffers sized
to exactly the kept count, and the old buffers are released. Appends
grow a full buffer by an eighth of its capacity (`_GROWTH_DIV`), not by
doubling, so a cache holds at most ~1/8 more rows than live entries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .merge import Segment, is_image_segment

# A full buffer grows by capacity // _GROWTH_DIV rows (at least what is needed).
_GROWTH_DIV = 8

# One head's eviction audit over the entries present before eviction:
# (positions, segments, retained flags, scores).
HeadAudit = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CompressionConfig:
    beta: float = 0.995
    start_layer: int = 5

    def __post_init__(self):
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.start_layer < 0:
            raise ValueError(f"start_layer must be >= 0, got {self.start_layer}")


class HeadCache:
    """K/V store for one head: `append` and `extend` add entries in
    amortized-growth buffers, and `replace` evicts all but the kept ones.

    Buffers start with no rows; the first write sizes them to exactly
    what it brings (prefill's `extend` brings the whole layer).
    """

    __slots__ = ("n", "_keys", "_values", "_positions", "_segments")

    def __init__(self, head_dim: int):
        self.n = 0
        self._keys = np.empty((0, head_dim), dtype=np.float32)
        self._values = np.empty((0, head_dim), dtype=np.float32)
        self._positions = np.empty(0, dtype=np.int64)
        self._segments = np.empty(0, dtype=np.int8)

    def _grow(self, need: int) -> None:
        cap = self._keys.shape[0]
        if self.n + need <= cap:
            return
        new_cap = max(cap + cap // _GROWTH_DIV, self.n + need)
        for name in ("_keys", "_values", "_positions", "_segments"):
            old = getattr(self, name)
            buf = np.empty((new_cap,) + old.shape[1:], dtype=old.dtype)
            buf[: self.n] = old[: self.n]
            setattr(self, name, buf)

    def append(self, key: np.ndarray, value: np.ndarray, position: int, segment: int) -> None:
        self._grow(1)
        i = self.n
        self._keys[i] = key
        self._values[i] = value
        self._positions[i] = position
        self._segments[i] = segment
        self.n = i + 1

    def extend(self, keys, values, positions, segments) -> None:
        m = keys.shape[0]
        self._grow(m)
        self._keys[self.n : self.n + m] = keys
        self._values[self.n : self.n + m] = values
        self._positions[self.n : self.n + m] = positions
        self._segments[self.n : self.n + m] = segments
        self.n += m

    @property
    def keys(self) -> np.ndarray:
        return self._keys[: self.n]

    @property
    def values(self) -> np.ndarray:
        return self._values[: self.n]

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self.n]

    @property
    def segments(self) -> np.ndarray:
        return self._segments[: self.n]

    @property
    def capacity(self) -> int:
        return self._keys.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes allocated for keys, values, positions and segments."""
        return sum(b.nbytes for b in (self._keys, self._values, self._positions, self._segments))

    def replace(self, keep_idx: np.ndarray) -> None:
        """Keep only the given (ascending) entry indices, in new right-sized buffers."""
        self._keys = self._keys[keep_idx]
        self._values = self._values[keep_idx]
        self._positions = self._positions[keep_idx]
        self._segments = self._segments[keep_idx]
        self.n = keep_idx.shape[0]


class KVCache:
    """Per-layer, per-head key/value entries with segment tags.

    `layers[layer]` is that layer's list of `HeadCache`, one per head.
    """

    def __init__(self, n_layers: int, n_heads: int, head_dim: int):
        if n_layers < 1 or n_heads < 1 or head_dim < 1:
            raise ValueError("n_layers, n_heads and head_dim must all be >= 1")
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.layers = [[HeadCache(head_dim) for _ in range(n_heads)] for _ in range(n_layers)]
        self._max_position = -1

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray, position: int, segment: int) -> None:
        """Append one entry to every head of a layer (decode path)."""
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.n_layers})")
        keys = np.asarray(keys, dtype=np.float32).reshape(self.n_heads, self.head_dim)
        values = np.asarray(values, dtype=np.float32).reshape(self.n_heads, self.head_dim)
        for h, hc in enumerate(self.layers[layer]):
            if hc.n and position <= hc.positions[-1]:
                raise ValueError(
                    f"out-of-order append: position {position} <= last {int(hc.positions[-1])} "
                    f"(layer {layer}, head {h})"
                )
            hc.append(keys[h], values[h], position, segment)
        self._max_position = max(self._max_position, position)

    def extend_layer(self, layer: int, keys: np.ndarray, values: np.ndarray,
                     positions: np.ndarray, segments: np.ndarray) -> None:
        """Bulk-populate a layer during prefill.

        Positions must be non-decreasing: merged tokens may share a
        position slot with the token after them, so strict ordering is
        only enforced on the single-entry decode path.
        """
        positions = np.asarray(positions, dtype=np.int64)
        segments = np.asarray(segments, dtype=np.int8)
        if np.any(np.diff(positions) < 0):
            raise ValueError(f"prefill positions must be non-decreasing (layer {layer})")
        for h, hc in enumerate(self.layers[layer]):
            if hc.n and positions.size and positions[0] < hc.positions[-1]:
                raise ValueError(f"prefill block precedes existing entries (layer {layer})")
            hc.extend(keys[h], values[h], positions, segments)
        if positions.size:
            self._max_position = max(self._max_position, int(positions[-1]))

    def next_position(self) -> int:
        return self._max_position + 1

    def entries_per_layer(self) -> list[int]:
        return [sum(hc.n for hc in heads) for heads in self.layers]


def coverage_prefix(scores: np.ndarray, candidates: np.ndarray, beta: float) -> np.ndarray:
    """Shortest descending-score prefix of `candidates` whose scores sum to >= beta.

    `scores` are float64 and normalized over the candidates, so beta reads
    as a fraction of their mass. Ties rank the lower index first. The
    kept indices come back in ascending order; all of them if the
    candidates' mass never reaches beta.
    """
    s = scores[candidates]
    order = np.lexsort((candidates, -s))
    cum = np.cumsum(s[order])
    hit = np.flatnonzero(cum >= beta)
    k = int(hit[0]) + 1 if hit.size else order.shape[0]
    return candidates[np.sort(order[:k])]


def compress_layer(heads: list[HeadCache], raw_scores: Sequence[np.ndarray],
                   config: CompressionConfig, audit: bool = False) -> Optional[list[HeadAudit]]:
    """Compress one layer's heads in place, each independently.

    `raw_scores[h]` holds one nonnegative score per entry of head h. Each
    head's image-entry scores are normalized to sum to 1 (uniform if they
    sum to 0), so beta reads as a fraction of the head's image attention
    mass; the head then keeps its `coverage_prefix` of image entries and
    every other entry.

    With `audit`, returns each head's positions, segments, retained flags
    and normalized scores over the entries present before eviction;
    otherwise None.
    """
    if len(raw_scores) != len(heads):
        raise ValueError(f"{len(raw_scores)} score vectors for {len(heads)} heads")
    records = [] if audit else None
    for h, hc in enumerate(heads):
        scores = np.array(raw_scores[h], dtype=np.float64).reshape(-1)
        if scores.shape[0] != hc.n:
            raise ValueError(
                f"head {h}: {scores.shape[0]} scores for {hc.n} cache entries"
            )
        if scores.size and scores.min() < 0:
            raise ValueError(f"head {h}: scores must be nonnegative")
        img = np.flatnonzero(is_image_segment(hc.segments))
        mass = scores[img].sum()
        if img.size and mass > 0:
            scores[img] /= mass
        elif img.size:
            scores[img] = 1.0 / img.size
        if config.beta >= 1.0 or img.size == 0:
            keep_img = img
        else:
            keep_img = coverage_prefix(scores, img, config.beta)
        retained = np.ones(hc.n, dtype=bool)
        retained[img] = False
        retained[keep_img] = True
        if audit:
            records.append((hc.positions.copy(), hc.segments.copy(), retained, scores))
        if retained.all():
            continue
        hc.replace(np.flatnonzero(retained))
    return records


def compress_all(cache: KVCache, scores: Sequence[Optional[Sequence[np.ndarray]]],
                 config: CompressionConfig) -> KVCache:
    """Compress every layer >= start_layer with one shared beta.

    scores[layer][head] gives one raw score per cache entry; see
    `compress_layer`.
    """
    if len(scores) < cache.n_layers:
        raise ValueError(f"scores cover {len(scores)} layers, cache has {cache.n_layers}")
    for layer in range(config.start_layer, cache.n_layers):
        if scores[layer] is None:
            raise ValueError(f"missing scores for layer {layer} (start_layer {config.start_layer})")
        compress_layer(cache.layers[layer], scores[layer], config)
    return cache


@dataclass(frozen=True)
class MemoryEstimate:
    total: int        # logical: live entries x 2 vectors x head_dim x 4 bytes
    allocated: int    # buffer capacity held for keys, values, positions and segments


def memory_estimate(cache: KVCache) -> MemoryEstimate:
    """Logical bytes of the live entries, and the bytes actually allocated."""
    total = sum(cache.entries_per_layer()) * 2 * cache.head_dim * 4
    allocated = sum(hc.nbytes for heads in cache.layers for hc in heads)
    return MemoryEstimate(total, allocated)


def dump_snapshot(cache: KVCache, audits: Sequence[Optional[list[HeadAudit]]], path) -> None:
    """Debug CSV: one row per layer/head/entry with retention info.

    `audits[layer]` is the per-head audit that compression returned for
    that layer, or None. A layer with an audit reports every entry it
    held before eviction; a layer without one reports its live entries
    as retained with an empty score field.
    """
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "head", "position", "segment", "retained", "score"])
        for li, (heads, audit) in enumerate(zip(cache.layers, audits, strict=True)):
            if audit is not None:
                for h, (pos, seg, ret, sc) in enumerate(audit):
                    for p, s, r, v in zip(pos, seg, ret, sc):
                        w.writerow([li, h, int(p), Segment(int(s)).name.lower(), int(r), f"{v:.8g}"])
            else:
                for h, hc in enumerate(heads):
                    for p, s in zip(hc.positions, hc.segments):
                        w.writerow([li, h, int(p), Segment(int(s)).name.lower(), 1, ""])
