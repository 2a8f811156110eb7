"""Multi-head causal self-attention that reports per-key cumulative scores.

There is one path. Queries are processed in blocks of `_BLOCK` rows; the
block [s, e) computes logits only against the keys it can see, [:e], and
masks only the diagonal tile. Each call makes one logits buffer, sized for
its largest block, and every block writes its logits into a contiguous view
of it, so no NxN matrix is ever held and no block maps fresh memory. The
1/sqrt(hd) scale is folded into the queries, and the softmax normalisation
is deferred as in FlashAttention-2: each block keeps the unnormalised
exponentials, and their reciprocal row sums scale the block's context and
its contribution to the cumulative scores. Besides the context, each call
returns the per-key cumulative score vector -- the signal an efficient
fused kernel can return, and all that every downstream token-reduction
decision needs. The full-matrix reference that materializes every score
lives in `oracle.full_attention`; the two agree up to float reordering.

Token importance, engine-wide, is the head-averaged causally-masked
column sum of attention probabilities (raw, not renormalized per layer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK = 128
# Entry (i, j) is True when key j comes after query i within one block.
_FUTURE = np.triu(np.ones((_BLOCK, _BLOCK), dtype=bool), k=1)


@dataclass(frozen=True)
class AttentionWeights:
    """Packed projections; head h owns columns [h*hd, (h+1)*hd)."""

    n_heads: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

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
    context: np.ndarray                   # (N, C), after output projection
    cum_scores: np.ndarray                # (H, N) per-key column sums
    keys: np.ndarray                      # (H, N, hd)
    values: np.ndarray                    # (H, N, hd)


def _project_heads(hidden: np.ndarray, w: np.ndarray, n_heads: int) -> np.ndarray:
    n, c = hidden.shape
    return (hidden @ w).reshape(n, n_heads, c // n_heads).transpose(1, 0, 2)


def multi_head_attention(hidden: np.ndarray, weights: AttentionWeights) -> AttentionOutput:
    hidden = np.asarray(hidden, dtype=np.float32)
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ValueError(f"hidden must be a nonempty 2-D matrix, got shape {hidden.shape}")
    if hidden.shape[1] != weights.dim:
        raise ValueError(f"hidden dim {hidden.shape[1]} != weight dim {weights.dim}")

    n = hidden.shape[0]
    h = weights.n_heads
    hd = weights.head_dim

    q = _project_heads(hidden, weights.wq, h)
    q *= np.float32(1.0 / np.sqrt(hd))
    k = _project_heads(hidden, weights.wk, h)
    v = _project_heads(hidden, weights.wv, h)

    kt = np.ascontiguousarray(k.transpose(0, 2, 1))
    ctx = np.empty((n, h, hd), dtype=np.float32)
    cum = np.zeros((h, n), dtype=np.float32)
    buf = np.empty(h * min(_BLOCK, n) * n, dtype=np.float32)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        # Queries [s, e) see keys [:e]; only the diagonal tile [s, e) x [s, e)
        # holds future keys. p holds the block's unnormalised exponentials.
        p = buf[:h * (e - s) * e].reshape(h, e - s, e)
        np.matmul(q[:, s:e], kt[:, :, :e], out=p)
        np.copyto(p[:, :, s:], np.float32(-np.inf), where=_FUTURE[:e - s, :e - s])
        p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        rinv = np.float32(1.0) / p.sum(axis=2, keepdims=True)
        ctx[s:e] = ((p @ v[:, :e]) * rinv).transpose(1, 0, 2)
        cum[:, :e] += (rinv.transpose(0, 2, 1) @ p)[:, 0]

    context = ctx.reshape(n, h * hd) @ weights.wo
    return AttentionOutput(context=context, cum_scores=cum, keys=k, values=v)


def attend_single_query(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """A layer's decode-time queries (H, hd) against its cached keys and values
    (H, cap, hd), head h's in rows [:counts[h]]; returns the (H, hd) context.

    Scores past a head's count are masked only where the counts differ;
    padding rows must be finite, since a weight of 0 times NaN is NaN.
    """
    n = int(counts.max())
    keys, values = keys[:, :n], values[:, :n]
    scale = np.float32(1.0 / np.sqrt(keys.shape[2]))
    s = np.matmul(keys, (q * scale)[:, :, None])[:, :, 0]
    if counts.min() < n:
        s[np.arange(n) >= counts[:, None]] = -np.inf
    s -= s.max(axis=1, keepdims=True)
    e = np.exp(s)
    e /= e.sum(axis=1, keepdims=True)
    return np.matmul(e[:, None, :], values)[:, 0]
