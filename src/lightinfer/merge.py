"""Token sequences and staged image-token merging.

Image tokens are reduced at scheduled layers: the highest-importance
tokens survive untouched, the low-importance tail collapses into a
single weighted-sum token. Text tokens (system prompt, instruction,
generated) are never touched. The IMAGE tokens a stage leaves are its
survivors, all of them on a stage that keeps every image token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Segment(IntEnum):
    SYSTEM_PROMPT = 0
    IMAGE = 1
    INSTRUCTION = 2
    GENERATED = 3
    MERGED_IMAGE = 4


# Merged tokens stay image-kind: later merge stages and cache compression
# treat them like any other image token.
def is_image_segment(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    return (codes == Segment.IMAGE) | (codes == Segment.MERGED_IMAGE)


@dataclass
class TokenSequence:
    """Embeddings plus per-token segment labels and original position ids."""

    embeddings: np.ndarray        # (N, C) float32
    segments: np.ndarray          # (N,) int8 Segment codes
    positions: np.ndarray         # (N,) int64 original position ids

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float32)
        self.segments = np.asarray(self.segments, dtype=np.int8)
        self.positions = np.asarray(self.positions, dtype=np.int64)
        n = self.embeddings.shape[0]
        if self.segments.shape != (n,) or self.positions.shape != (n,):
            raise ValueError(
                f"field lengths disagree: {n} embeddings, "
                f"{self.segments.shape[0]} segments, {self.positions.shape[0]} positions"
            )

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def n_image(self) -> int:
        return int(is_image_segment(self.segments).sum())


def plan_keep_counts(n_image: int, target_ratio: float, n_stages: int) -> list[int]:
    """Per-stage retained image-token counts for a staged reduction.

    Each stage keeps a target_ratio**(1/n_stages) fraction of the
    previous stage's count, rounded half-up, floored at 1 token.
    """
    if not (0.0 < target_ratio <= 1.0):
        raise ValueError(f"target_ratio must be in (0, 1], got {target_ratio}")
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    if n_image < 1:
        raise ValueError(f"n_image must be >= 1, got {n_image}")
    stage_ratio = target_ratio ** (1.0 / n_stages)
    counts = [n_image]
    for _ in range(n_stages):
        counts.append(max(1, int(math.floor(counts[-1] * stage_ratio + 0.5))))
    return counts[1:]


@dataclass(frozen=True)
class MergeSchedule:
    """Which layers merge, and the fraction of image tokens left after the last."""

    merge_layers: tuple[int, ...] = (5, 9, 13)
    target_ratio: float = 0.35

    def __post_init__(self):
        layers = tuple(self.merge_layers)
        object.__setattr__(self, "merge_layers", layers)
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise ValueError(f"merge_layers must be strictly increasing, got {layers}")
        if layers and layers[0] < 0:
            raise ValueError(f"merge_layers must be >= 0, got {layers}")
        if not (0.0 < self.target_ratio <= 1.0):
            raise ValueError(f"target_ratio must be in (0, 1], got {self.target_ratio}")

    def keep_counts(self, n_image: int) -> dict[int, int]:
        """Merge layer -> image tokens that stage keeps, for n_image input
        tokens; empty when there are no merge layers or no image tokens."""
        if not self.merge_layers or n_image == 0:
            return {}
        counts = plan_keep_counts(n_image, self.target_ratio, len(self.merge_layers))
        if abs(counts[-1] - n_image * self.target_ratio) > 1.0 + 1e-9:
            raise ValueError(
                f"staged counts {counts} land {counts[-1]} tokens, more than 1 away "
                f"from target {n_image * self.target_ratio:.2f}"
            )
        return dict(zip(self.merge_layers, counts))


def partition_tokens(importance: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Split n image tokens into (unmerged, merged): the n - (r + 1) to keep
    and the r + 1 to collapse.

    Indices are into the image-token list (stored order), not the full
    sequence. unmerged is ascending; merged is sorted by descending
    importance (ties broken by lower index, i.e. earlier position).
    """
    imp = np.asarray(importance, dtype=np.float32)
    n = imp.shape[0]
    if not 0 <= r <= n - 1:
        raise ValueError(f"r must be in [0, {n - 1}] for {n} image tokens, got {r}")
    # descending importance, ties to the lower index: the ranking `coverage_prefix` uses
    order = np.argsort(-imp, kind="stable")
    n_keep = n - (r + 1)
    return np.sort(order[:n_keep]), order[n_keep:]


def merge_weights(r: int) -> np.ndarray:
    """Descending weights {r+1, r, ..., 1}, normalized to sum to 1.

    The raw list would inflate the merged embedding's norm by O(r^2);
    normalizing keeps the result a convex combination.
    """
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    raw = np.arange(r + 1, 0, -1, dtype=np.float32)
    return raw / raw.sum()


def merge_tokens(merged_rows: np.ndarray) -> np.ndarray:
    """Collapse rows (descending-importance order) into one weighted sum."""
    rows = np.asarray(merged_rows, dtype=np.float32)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise ValueError(f"merged_rows must be a nonempty 2-D matrix, got shape {rows.shape}")
    return merge_weights(rows.shape[0] - 1) @ rows


def pyramid_merge_layer(seq: TokenSequence, importance: np.ndarray, keep_count: int) -> TokenSequence:
    """One merge stage: keep keep_count image tokens, collapse the rest.

    importance[i] scores the i-th image token (IMAGE or MERGED_IMAGE) in
    stored order. Output keeps the keep_count-1 top-importance image
    tokens in their stored order, followed by one MERGED_IMAGE token whose
    position id is one past the last survivor's (or the first image
    token's, if none survive). Non-image tokens pass through
    bit-identical. A stage that keeps every image token returns seq
    itself: merging one token would relabel it MERGED_IMAGE.
    """
    img_idx = np.flatnonzero(is_image_segment(seq.segments))
    n_img = img_idx.shape[0]
    if len(importance) != n_img:
        raise ValueError(f"{len(importance)} importance scores for {n_img} image tokens")
    if not 1 <= keep_count <= n_img:
        raise ValueError(f"keep_count {keep_count} is below 1 or exceeds image-token count {n_img}")
    if keep_count == n_img:
        return seq

    unmerged, merged = partition_tokens(importance, n_img - keep_count)
    gone = img_idx[merged]
    if unmerged.size:
        last = img_idx[unmerged[-1]]
        slot, position = last + 1, seq.positions[last] + 1
    else:
        slot, position = img_idx[0], seq.positions[img_idx[0]]
    rows = np.delete(np.arange(len(seq)), gone)
    # the merged token's output index: the kept rows before stored index `slot`
    at = slot - int(np.count_nonzero(gone < slot))
    row = merge_tokens(seq.embeddings[gone])
    return TokenSequence(np.insert(seq.embeddings[rows], at, row, axis=0),
                         np.insert(seq.segments[rows], at, Segment.MERGED_IMAGE),
                         np.insert(seq.positions[rows], at, position))
