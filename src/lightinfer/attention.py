"""Multi-head causal self-attention that reports per-key cumulative scores.

There is one path. Queries are processed in blocks of `_BLOCK` rows; the
block [s, e) computes logits only against the keys it can see, [:e], and
masks only the diagonal tile. Every call works in a `Workspace`: prefill
passes one that all its layers reuse, and a call without one makes one
sized for its input. Its `scratch` block holds the logits, sized for the
largest query block, and every block writes its logits into a contiguous
view of it, so no NxN matrix is ever held. q, k, v and k^T lie side by
side in the `wide` block. Block [s, e) writes its context over q's rows
[s, e) once its logits gemm has read them; later blocks read only later q
rows. The context after the output projection goes to the `narrow`
block, which may hold the call's own input, read only by the
projections. The returned context, keys and values are views into the
workspace, so a caller copies what must outlive the next call. The
1/sqrt(hd) scale is folded into the queries, and the softmax normalisation
is deferred as in FlashAttention-2: each block keeps the unnormalised
exponentials, and their reciprocal row sums scale the block's context and
its contribution to the cumulative scores. The row sums are one batched
gemv against a column of ones, the product that already forms the
cumulative scores, rather than a reduction pass.

Subtracting each row's max before `exp` only guards against overflow
(Milakov & Gimelshein, 2018), so each call skips it when a bound proves it
cannot matter. By Cauchy-Schwarz every logit lies in [-b, b] with
b = sqrt(max_i |q_i|^2 * max_j |k_j|^2), q already scaled; the q, k and v
norms cost three (H, n) reductions per call. When b <= `_SAFE_LOGIT` = 64, every
exponential lies in [e^-64, e^64]: below float32's overflow at e^88.7 and
above its smallest normal, e^-87.3, so no term overflows or loses
precision, and a row sum of n such terms stays finite. The diagonal key is
always visible, so every row sum is positive. The unnormalised context
p @ v is bounded by n * e^b * max_j |v_j|, so the shift is also kept when
n * max_j |v_j| exceeds `_SAFE_MASS`. The default model's bound is ~3, so
its prefill never shifts. The test reads `not b <= _SAFE_LOGIT`: a NaN or
inf in the inputs makes b NaN or inf, and such a call takes the shifted
path, with the NaN pattern the shifted kernel gives.

A NaN in input row t makes context row t and every later row NaN, and
also the earlier rows of t's own query block, [s, t) for the block
[s, e) holding t: their weight on key t is masked to 0, but the block's
`p @ v` still multiplies it by v_t, and 0 * NaN is NaN. Rows of earlier
blocks stay finite. Every cumulative score is NaN, since each key's
column sum takes row t's weights. `oracle.full_attention` makes one
product over all rows, so there every context row is NaN.

Besides the context, each call returns the per-key cumulative score
vector -- the signal an efficient fused kernel can return, and all that
every downstream token-reduction decision needs. The full-matrix reference
that materializes every score lives in `oracle.full_attention`; the two
agree up to float reordering.

Token importance, engine-wide, is the head-averaged causally-masked
column sum of attention probabilities (raw, not renormalized per layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

_BLOCK = 128
# Largest logit bound for which the max shift is skipped; see the module docstring.
_SAFE_LOGIT = 64.0
# Largest n * max_j |v_j| for which the unshifted context stays finite: its
# terms are at most e^_SAFE_LOGIT * |v_j|, float32 holds up to ~3.4e38, and
# the factor 4 leaves room for rounding.
_SAFE_MASS = float(np.finfo(np.float32).max) * float(np.exp(-_SAFE_LOGIT)) / 4
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
    """`context`, `keys` and `values` are views into the call's workspace,
    valid until it is next written; `cum_scores` is its own array."""
    context: np.ndarray                   # (N, C), after output projection
    cum_scores: np.ndarray                # (H, N) per-key column sums
    keys: np.ndarray                      # (H, N, hd)
    values: np.ndarray                    # (H, N, hd)


class Workspace:
    """Prefill's per-layer buffers for up to `n` rows of width C = `dim`.

    Each block is flat, so a call with n' <= n rows takes leading views:
    - `wide`, 4 n C floats: attention's q | k | v | k^T, each n' C long and
      contiguous; then the MLP's (n', 4C) activation.
    - `narrow`, n C: the layer-norm output, then the context after the
      output projection, then the second layer-norm output.
    - `residual`, n C: the residual stream. Attention does not touch it.
    - `scratch`, max(H min(_BLOCK, n) n, n C): attention's logits tiles,
      layer norm's squared deviations and the MLP output.

    The four blocks are views of one allocation, so the workspace is
    mapped, and freed, as one chunk.
    """

    def __init__(self, n: int, dim: int, n_heads: int):
        self.n, self.dim, self.n_heads = n, dim, n_heads
        sizes = [4 * n * dim, n * dim, n * dim, max(n_heads * min(_BLOCK, n) * n, n * dim)]
        self.wide, self.narrow, self.residual, self.scratch = np.split(
            np.empty(sum(sizes), dtype=np.float32), np.cumsum(sizes[:-1]))
        self.nbytes = 4 * sum(sizes)


def rows(block: np.ndarray, n: int, width: int, offset: int = 0) -> np.ndarray:
    """The (n, width) view of a flat workspace block starting `offset` such views in."""
    start = offset * n * width
    return block[start:start + n * width].reshape(n, width)


def _max_sq_norm(x: np.ndarray) -> float:
    """Largest squared row norm of an (H, n, d) array, as a Python float."""
    return float(np.einsum("hnd,hnd->hn", x, x).max())


def multi_head_attention(hidden: np.ndarray, weights: AttentionWeights,
                         workspace: Optional[Workspace] = None) -> AttentionOutput:
    """Causal attention over the rows of `hidden` (N, C), in `workspace`
    (see `Workspace`) or, without one, in a workspace sized for N.

    `hidden` may be the workspace's `narrow` block: it is read only by the
    q, k and v projections, before the context overwrites it.
    """
    hidden = np.asarray(hidden, dtype=np.float32)
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ValueError(f"hidden must be a nonempty 2-D matrix, got shape {hidden.shape}")
    if hidden.shape[1] != weights.dim:
        raise ValueError(f"hidden dim {hidden.shape[1]} != weight dim {weights.dim}")

    n, c = hidden.shape
    h = weights.n_heads
    hd = weights.head_dim
    ws = Workspace(n, c, h) if workspace is None else workspace
    if (ws.dim, ws.n_heads) != (c, h) or ws.n < n:
        raise ValueError(f"workspace for {ws.n} rows, dim {ws.dim}, {ws.n_heads} heads "
                         f"cannot hold {n} rows, dim {c}, {h} heads")

    # (n, C) projections and their (H, n, hd) per-head views
    q2, k2, v2 = (np.matmul(hidden, w, out=rows(ws.wide, n, c, i))
                  for i, w in enumerate((weights.wq, weights.wk, weights.wv)))
    q, k, v = (a.reshape(n, h, hd).transpose(1, 0, 2) for a in (q2, k2, v2))
    q *= np.float32(1.0 / np.sqrt(hd))

    # Every logit lies in [-bound, bound]; NaN fails the test and shifts.
    bound = np.sqrt(_max_sq_norm(q) * _max_sq_norm(k))
    shift = not (bound <= _SAFE_LOGIT and n * np.sqrt(_max_sq_norm(v)) <= _SAFE_MASS)

    kt = rows(ws.wide, n, c, 3).reshape(h, hd, n)
    np.copyto(kt, k.transpose(0, 2, 1))
    cum = np.zeros((h, n), dtype=np.float32)
    ones = np.ones((n, 1), dtype=np.float32)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        # Queries [s, e) see keys [:e]; only the diagonal tile [s, e) x [s, e)
        # holds future keys. p holds the block's unnormalised exponentials.
        p = ws.scratch[:h * (e - s) * e].reshape(h, e - s, e)
        np.matmul(q[:, s:e], kt[:, :, :e], out=p)
        np.copyto(p[:, :, s:], np.float32(-np.inf), where=_FUTURE[:e - s, :e - s])
        if shift:
            p -= p.max(axis=2, keepdims=True)
        np.exp(p, out=p)
        rinv = np.float32(1.0) / (p @ ones[:e])
        # The block's context overwrites its own q rows, which only its logits read.
        ctx = np.matmul(p, v[:, :e], out=q[:, s:e])
        ctx *= rinv
        cum[:, :e] += (rinv.transpose(0, 2, 1) @ p)[:, 0]

    # q2's rows now hold every block's context
    context = np.matmul(q2, weights.wo, out=rows(ws.narrow, n, c))
    return AttentionOutput(context=context, cum_scores=cum, keys=k, values=v)


def attend_single_query(q: np.ndarray, keys: np.ndarray, values: np.ndarray,
                        counts: np.ndarray) -> np.ndarray:
    """A layer's decode-time queries (H, hd) against its cached keys and values
    (H, cap, hd), head h's in rows [:counts[h]]; returns the (H, hd) context.

    Scores past a head's count are masked only where the counts differ;
    padding rows must be finite, since a weight of 0 times NaN is NaN.
    Unlike prefill, decode always subtracts the row max: the bound that lets
    prefill skip it would need every cached key's norm, a read as large as
    the scores themselves, to save one pass over H * n scores.
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
