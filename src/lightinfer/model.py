"""Toy decoder-only multimodal transformer: prefill + cached greedy decode.

Block layout is standard pre-norm: layer_norm -> causal multi-head
attention -> residual -> layer_norm -> MLP (4x expansion, tanh-GELU) ->
residual. LayerNorm has no affine: the weights are drawn, never trained
or loaded, so its gain and bias would only ever hold ones and zeros.
Image-token merging runs on the post-block hidden states of scheduled
layers, using the cumulative attention scores computed inside that same
layer's attention. Cache compression decides each layer's retained
entries from that layer's own prefill-time per-head cumulative scores
before the layer is written, and the cache stores only those, so no
layer's evicted entries are ever held in the cache. Entries appended
during decode are never compressed. The cache holds keys and values
only; positions and segments live in the input and the layer audits.

Prefill leaves one `LayerRecord` per layer in `RunMetrics.layers`: token
counts, cache entries, image-token importance, the merge stage's
survivors and, when asked, the layer's `LayerAudit`.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .attention import AttentionWeights, Workspace, attend_single_query, multi_head_attention, rows
# compress_all and partition_tokens stay bound here: the benchmark tracer wraps them by name.
from .kvcache import (
    CompressionConfig,
    KVCache,
    compress_all,  # noqa: F401
    memory_estimate,
    retention,
)
from .merge import (
    MergeSchedule,
    Segment,
    TokenSequence,
    is_image_segment,
    partition_tokens,  # noqa: F401
    pyramid_merge_layer,
)


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 28
    n_heads: int = 4
    dim: int = 256
    vocab: int = 512
    seed: int = 0

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "dim", "vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dim % self.n_heads != 0:
            raise ValueError(f"n_heads {self.n_heads} must divide dim {self.dim}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class InputConfig:
    """The arguments of `build_input`, less the model's dim."""
    n_system: int = 30
    n_image: int = 1476
    n_instruction: int = 50
    redundancy: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("n_system", "n_image", "n_instruction", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_system + self.n_image + self.n_instruction < 1:
            raise ValueError("n_system + n_image + n_instruction must be >= 1")
        if not (0.0 <= self.redundancy <= 1.0):
            raise ValueError(f"redundancy must be in [0, 1], got {self.redundancy}")


@dataclass(frozen=True)
class PipelineConfig:
    """The two mechanisms prefill applies: the staged image-token merge and
    KV cache compression. `None` switches a mechanism off, so
    `PipelineConfig(None, None)` is the vanilla forward.
    """
    merge_schedule: Optional[MergeSchedule] = MergeSchedule()
    compression: Optional[CompressionConfig] = CompressionConfig()
    # Init-only: `perfbench/workloads.py` (`Workload.pipeline()`, `DISABLED`) still passes them.
    merging_enabled: InitVar[bool] = True
    compression_enabled: InitVar[bool] = True

    def __post_init__(self, merging_enabled: bool, compression_enabled: bool):
        if not merging_enabled:
            object.__setattr__(self, "merge_schedule", None)
        if not compression_enabled:
            object.__setattr__(self, "compression", None)

    def check_layers(self, n_layers: int) -> None:
        """ValueError, naming the setting, if a mechanism that is on starts past the model."""
        ms = self.merge_schedule
        if ms is not None and ms.merge_layers and max(ms.merge_layers) >= n_layers:
            raise ValueError(f"merge_layers {ms.merge_layers} outside model with {n_layers} layers")
        if self.compression is not None and self.compression.start_layer >= n_layers:
            raise ValueError(f"start_layer {self.compression.start_layer} outside model "
                             f"with {n_layers} layers")


class LayerAudit(NamedTuple):
    """The n entries prefill brought to one layer and what each head kept of them."""
    positions: np.ndarray   # (n,), the same in every head, and segments too
    segments: np.ndarray
    retained: Optional[np.ndarray]   # (H, n) bool; None on an uncompressed layer
    scores: Optional[np.ndarray]     # (H, n) float64, image scores normalized per head


@dataclass
class LayerRecord:
    """What prefill did at one layer."""
    tokens: int                    # rows leaving the layer, after any merge
    image_tokens: int
    cache_entries: int             # summed over heads, after this layer's compression
    importance: np.ndarray         # head-averaged score of each image token attended over
    # every merge layer, no-op stages included: original positions of the image
    # tokens that survived unmerged (a MERGED_IMAGE token is not one of them)
    kept_positions: Optional[np.ndarray] = None
    # every layer, only when prefill is asked to audit
    evictions: Optional[LayerAudit] = None


@dataclass
class RunMetrics:
    prefill_ms: float = 0.0
    decode_ms_per_token: list[float] = field(default_factory=list)
    layers: list[LayerRecord] = field(default_factory=list)
    memory_bytes: int = 0         # logical bytes of live K/V entries
    allocated_bytes: int = 0      # K/V buffer bytes held


@dataclass(frozen=True)
class LayerWeights:
    attn: AttentionWeights
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    embed: np.ndarray        # (vocab, dim) token embeddings for decode
    layers: tuple[LayerWeights, ...]
    w_out: np.ndarray        # (dim, vocab)


def init_model(config: ModelConfig) -> Model:
    """Seeded uniform [-0.05, 0.05] embeddings, projections and biases."""
    rng = np.random.default_rng(config.seed)
    c = config.dim

    def draw(*shape):
        return rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)

    embed = draw(config.vocab, c)
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                attn=AttentionWeights(config.n_heads, draw(c, c), draw(c, c), draw(c, c), draw(c, c)),
                w1=draw(c, 4 * c),
                b1=draw(4 * c),
                w2=draw(4 * c, c),
                b2=draw(c),
            )
        )
    w_out = draw(c, config.vocab)
    return Model(config=config, embed=embed, layers=tuple(layers), w_out=w_out)


def build_input(n_system: int, n_image: int, n_instruction: int,
                redundancy: float = InputConfig.redundancy, seed: int = InputConfig.seed,
                dim: int = 256) -> TokenSequence:
    """Synthesize a [system | image | instruction] token sequence.

    A `redundancy` fraction of the image tokens are near-duplicates
    (prototype + sigma=0.01 noise) of a small set of distinct prototypes;
    the rest are independent draws. `InputConfig` holds the defaults and
    checks the arguments.
    """
    InputConfig(n_system, n_image, n_instruction, redundancy, seed)
    rng = np.random.default_rng(seed)
    blocks = []
    segments = []
    if n_system:
        blocks.append(rng.standard_normal((n_system, dim)))
        segments.append(np.full(n_system, Segment.SYSTEM_PROMPT, dtype=np.int8))
    if n_image:
        n_dup = int(round(redundancy * n_image))
        n_proto = max(1, min(8, n_image))
        protos = rng.standard_normal((n_proto, dim))
        distinct = rng.standard_normal((n_image - n_dup, dim))
        dups = protos[rng.integers(0, n_proto, n_dup)] + 0.01 * rng.standard_normal((n_dup, dim))
        image = rng.permutation(np.concatenate([distinct, dups], axis=0))
        blocks.append(image)
        segments.append(np.full(n_image, Segment.IMAGE, dtype=np.int8))
    if n_instruction:
        blocks.append(rng.standard_normal((n_instruction, dim)))
        segments.append(np.full(n_instruction, Segment.INSTRUCTION, dtype=np.int8))

    emb = np.concatenate(blocks, axis=0).astype(np.float32)
    segs = np.concatenate(segments)
    return TokenSequence(emb, segs, np.arange(emb.shape[0], dtype=np.int64))


def _gelu(x: np.ndarray) -> np.ndarray:
    """tanh-GELU, computed in place: x is overwritten and returned.

    Bit-identical to 0.5*x*(1+tanh(c0*(x+c1*x*x*x))): the same float32
    operations on the same operands, with one temporary instead of nine.
    """
    c0 = np.float32(0.7978845608028654)  # sqrt(2/pi)
    c1 = np.float32(0.044715)
    t = c1 * x
    t *= x
    t *= x
    t += x
    t *= c0
    np.tanh(t, out=t)
    t += np.float32(1.0)
    x *= np.float32(0.5)
    x *= t
    return x


def layer_norm(x: np.ndarray, out: Optional[np.ndarray] = None,
               sq: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-row normalization to mean 0 / variance 1, eps 1e-5.

    Bit-identical to (x - mean) / sqrt(x.var() + eps): the same float32
    sums, each divided by the row length in float32, which rounds as
    `mean` does; the mean and the centred copy are computed once and the
    divide runs in place. `np.add.reduce` skips the dispatch of `mean`.

    The result is written to `out` and the squared deviations to `sq`,
    both x's shape and neither x; prefill passes its workspace's `narrow`
    and `scratch` blocks. Without them, each is a new array.
    """
    n = np.float32(x.shape[1])
    out = np.subtract(x, np.add.reduce(x, axis=1, keepdims=True) / n, out=out)
    sq = np.square(out, out=sq)
    out /= np.sqrt(np.add.reduce(sq, axis=1, keepdims=True) / n + np.float32(1e-5))
    return out


# 128 rows of the 4C = 1024-wide activation are 512 KB, which with the GELU's
# one temporary fits a 2 MB L2.
_MLP_ROWS = 128


def _mlp(x: np.ndarray, lw: LayerWeights, act: Optional[np.ndarray] = None,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """gelu(x @ w1 + b1) @ w2 + b2, with the bias and GELU run in row chunks.

    At prefill width the (N, 4C) activation is several MB and the GELU
    makes nine passes over it; in chunks of `_MLP_ROWS` rows each pass
    stays in L2. Both steps are elementwise, so the result is bit-identical
    to running them over the whole activation at once.

    The (N, 4C) activation is written to `act` and the (N, C) result to
    `out`, neither overlapping x; prefill passes its workspace's `wide`
    block, after the layer's keys and values are copied into the cache,
    and its `scratch` block. Without them, each is a new array.
    """
    a = np.matmul(x, lw.w1, out=act)
    for s in range(0, a.shape[0], _MLP_ROWS):
        chunk = a[s:s + _MLP_ROWS]
        chunk += lw.b1
        _gelu(chunk)
    out = np.matmul(a, lw.w2, out=out)
    out += lw.b2
    return out


@dataclass
class PrefillResult:
    logits: np.ndarray             # (vocab,) last row's next-token logits; no larger base
    cache: KVCache
    metrics: RunMetrics


def prefill(model: Model, seq: TokenSequence, pipeline: PipelineConfig,
            audit: bool = False) -> PrefillResult:
    """Run every layer over the input, merging and compressing as configured.

    `audit` stores each layer's `LayerAudit` in its `LayerRecord.evictions`,
    for `bench.dump_snapshot` and the decode check; an uncompressed layer's has
    `retained` and `scores` None.

    Only the last row's next-token logits are computed, with the product
    `decode_step` takes: the result's `logits` is that `(vocab,)` vector,
    and no `(N, vocab)` matrix is formed or kept.

    Every layer writes its activations into one `Workspace`, made for each
    run of layers with equal N: at entry and after each merge stage that
    shrinks N. The old one is freed only once the next is made. Freed
    first, its pages went back to the OS and the next one page-faulted
    them in again. The first layer of a run adds its input into the
    workspace's residual stream, so the input is never written.
    """
    if len(seq) < 1:
        raise ValueError("prefill input must be nonempty")
    if seq.dim != model.config.dim:
        raise ValueError(f"input dim {seq.dim} != model dim {model.config.dim}")
    # equal positions are in order: a merged token may share one with the next token
    if np.any(np.diff(seq.positions) < 0):
        raise ValueError("prefill positions must be non-decreasing")
    cfg = model.config
    pipeline.check_layers(cfg.n_layers)
    schedule, compression = pipeline.merge_schedule, pipeline.compression
    keep_counts = schedule.keep_counts(seq.n_image) if schedule is not None else {}

    t0 = time.perf_counter()
    hidden = seq.embeddings
    segs = seq.segments
    poss = seq.positions
    cache = KVCache(cfg.n_layers, cfg.n_heads, cfg.dim // cfg.n_heads)
    c = cfg.dim
    ws = None

    metrics = RunMetrics()

    for li, lw in enumerate(model.layers):
        n = hidden.shape[0]
        if ws is None or ws.n != n:
            ws = Workspace(n, c, cfg.n_heads)
        narrow, scratch = rows(ws.narrow, n, c), rows(ws.scratch, n, c)
        x = layer_norm(hidden, narrow, scratch)
        att = multi_head_attention(x, lw.attn, ws)
        cum = att.cum_scores
        retained = scores = None
        if compression is not None and li >= compression.start_layer:
            retained, scores = retention(cum, segs, compression)
        evictions = LayerAudit(poss.copy(), segs.copy(), retained, scores) if audit else None
        cache.extend_layer(li, att.keys, att.values, retained)
        hidden = np.add(hidden, att.context, out=rows(ws.residual, n, c))
        del x, att  # views the MLP overwrites; the cache holds copies of the keys and values
        hidden += _mlp(layer_norm(hidden, narrow, scratch), lw, rows(ws.wide, n, 4 * c), scratch)

        img_mask = is_image_segment(segs)
        importance = cum.mean(axis=0)[img_mask]
        kept = None
        if li in keep_counts:
            merged = pyramid_merge_layer(TokenSequence(hidden, segs, poss), importance,
                                         keep_counts[li])
            hidden, segs, poss = merged.embeddings, merged.segments, merged.positions
            kept = poss[segs == Segment.IMAGE]
            img_mask = is_image_segment(segs)

        metrics.layers.append(LayerRecord(hidden.shape[0], int(img_mask.sum()),
                                          int(cache.counts[li].sum()), importance, kept,
                                          evictions))

    logits = (layer_norm(hidden[-1:]) @ model.w_out)[0]
    metrics.prefill_ms = (time.perf_counter() - t0) * 1e3
    _record_memory(metrics, cache)
    return PrefillResult(logits, cache, metrics)


def _record_memory(metrics: RunMetrics, cache: KVCache) -> None:
    est = memory_estimate(cache)
    metrics.memory_bytes = est.total
    metrics.allocated_bytes = est.allocated


def decode_step(model: Model, cache: KVCache, token_id: int) -> tuple[np.ndarray, KVCache]:
    """One greedy-decode forward step attending to the cached entries."""
    if not cache.counts.any():
        raise ValueError("decode_step needs a cache populated by prefill")
    if not 0 <= token_id < model.config.vocab:
        raise ValueError(f"token id {token_id} outside vocab {model.config.vocab}")

    cfg = model.config
    h_count = cfg.n_heads
    hd = cfg.dim // h_count
    hidden = model.embed[token_id][None, :].copy()

    for li, lw in enumerate(model.layers):
        x = layer_norm(hidden)
        q = (x @ lw.attn.wq).reshape(h_count, hd)
        k = (x @ lw.attn.wk).reshape(h_count, hd)
        v = (x @ lw.attn.wv).reshape(h_count, hd)
        cache.append(li, k, v)
        ctx = attend_single_query(q, cache.keys[li], cache.values[li], cache.counts[li])
        hidden = hidden + ctx.reshape(1, cfg.dim) @ lw.attn.wo
        hidden = hidden + _mlp(layer_norm(hidden), lw)

    logits = (layer_norm(hidden) @ model.w_out)[0]
    return logits, cache


def generate(model: Model, seq: TokenSequence, pipeline: PipelineConfig,
             max_new: int) -> tuple[list[int], RunMetrics]:
    """Prefill, then max_new - 1 greedy decode steps for max_new ids (toy vocab
    has no stop token). Each `decode_ms_per_token` entry times a step and its argmax."""
    if max_new < 1:
        raise ValueError(f"max_new must be >= 1, got {max_new}")

    pre = prefill(model, seq, pipeline)
    metrics, cache = pre.metrics, pre.cache
    ids = [int(np.argmax(pre.logits))]
    for _ in range(max_new - 1):
        t0 = time.perf_counter()
        logits, cache = decode_step(model, cache, ids[-1])
        ids.append(int(np.argmax(logits)))
        metrics.decode_ms_per_token.append((time.perf_counter() - t0) * 1e3)
    _record_memory(metrics, cache)
    return ids, metrics
