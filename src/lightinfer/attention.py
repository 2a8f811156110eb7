"""Multi-head causal self-attention that reports per-key cumulative scores.

There is one path. Queries are processed in blocks of `_BLOCK` rows; the
block [s, e) computes logits only against the keys it can see, [:e], and
masks only the diagonal tile. Scaling, max-subtraction, exp and row
normalization run in place in that block's one logits buffer, so no NxN
matrix is ever held. Besides the context, each call returns the per-key
cumulative score vector -- the signal an efficient fused kernel can return,
and all that every downstream token-reduction decision needs. The
full-matrix reference that materializes every score lives in
`oracle.full_attention`; the two agree up to float reordering.

Token importance, engine-wide, is the head-averaged causally-masked
column sum of attention probabilities (raw, not renormalized per layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Matrix

_BLOCK = 128
# Entry (i, j) is True when key j comes after query i within one block.
_FUTURE = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), k=1)


@dataclass(frozen=True)
class AttentionWeights:
    """Packed projections; head h owns columns [h*hd, (h+1)*hd)."""

    n_heads: int
    wq: Matrix
    wk: Matrix
    wv: Matrix
    wo: Matrix

    def __post_init__(self):
        c = self.wq.shape[0]
        for name in ("wq", "wk", "wv", "wo"):
            w = getattr(self, name)
            if w.shape != (c, c):
                raise ValueError(f"{name} must be ({c}x{c}), got {w.shape}")
        if self.n_heads < 1 or c % self.n_heads != 0:
            raise ValueError(f"head count {self.n_heads} must divide model dim {c}")

    @property
    def dim(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[0] // self.n_heads


@dataclass
class AttentionOutput:
    context: Matrix                       # (N, C), after output projection
    cum_scores: np.ndarray                # (H, N) per-key column sums
    avg_cum_scores: np.ndarray            # (N,) head average
    keys: np.ndarray                      # (H, N, hd)
    values: np.ndarray                    # (H, N, hd)


def _project_heads(hidden: Matrix, w: Matrix, n_heads: int) -> np.ndarray:
    n, c = hidden.shape
    return (hidden @ w).reshape(n, n_heads, c // n_heads).transpose(1, 0, 2)


def multi_head_attention(hidden: Matrix, weights: AttentionWeights) -> AttentionOutput:
    hidden = np.asarray(hidden, dtype=np.float32)
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ValueError(f"hidden must be a nonempty 2-D matrix, got shape {hidden.shape}")
    if hidden.shape[1] != weights.dim:
        raise ValueError(f"hidden dim {hidden.shape[1]} != weight dim {weights.dim}")

    n = hidden.shape[0]
    h = weights.n_heads
    hd = weights.head_dim
    scale = np.float32(1.0 / np.sqrt(hd))

    q = _project_heads(hidden, weights.wq, h)
    k = _project_heads(hidden, weights.wk, h)
    v = _project_heads(hidden, weights.wv, h)

    kt = np.ascontiguousarray(k.transpose(0, 2, 1))
    ctx_heads = np.empty((h, n, hd), dtype=np.float32)
    cum = np.zeros((h, n), dtype=np.float32)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        # Queries [s, e) see keys [:e]; only the diagonal tile [s, e) x [s, e)
        # holds future keys. Every step below runs in place in one buffer.
        p = q[:, s:e] @ kt[:, :, :e]
        p *= scale
        np.copyto(p[:, :, s:], np.float32(-np.inf), where=_FUTURE[:e - s, :e - s])
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=2, keepdims=True)
        cum[:, :e] += p.sum(axis=1)
        ctx_heads[:, s:e] = p @ v[:, :e]

    context = ctx_heads.transpose(1, 0, 2).reshape(n, h * hd) @ weights.wo
    return AttentionOutput(
        context=context,
        cum_scores=cum,
        avg_cum_scores=cum.mean(axis=0),
        keys=k,
        values=v,
    )


def attend_single_query(q: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One decode-time query against a head's cached keys/values."""
    scale = np.float32(1.0 / np.sqrt(keys.shape[1]))
    s = keys @ (q * scale)
    s -= s.max()
    e = np.exp(s)
    e /= e.sum()
    return e @ values
