"""Toy decoder-only multimodal transformer: prefill + cached greedy decode.

Block layout is standard pre-norm: layer_norm -> causal multi-head
attention -> residual -> layer_norm -> MLP (4x expansion, tanh-GELU) ->
residual. Image-token merging runs on the post-block hidden states of
scheduled layers, using the cumulative attention scores computed inside
that same layer's attention. Cache compression runs on each layer as soon
as its attention has cached the layer's entries, from that layer's own
prefill-time per-head cumulative scores, so the full-size cache of every
layer is never held at once. Entries appended during decode are never
compressed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .attention import AttentionWeights, multi_head_attention, attend_single_query
# compress_all and partition_tokens stay bound here: the benchmark tracer wraps them by name.
from .kvcache import (
    CompressionConfig,
    KVCache,
    compress_all,  # noqa: F401
    memory_estimate,
    normalize_and_compress,
)
from .merge import (
    MergeSchedule,
    Segment,
    TokenSequence,
    is_image_segment,
    partition_tokens,  # noqa: F401
    pyramid_merge_layer,
)
from .numerics import Matrix, layer_norm, load_tensor, save_tensor


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


@dataclass(frozen=True)
class PipelineConfig:
    merge_schedule: MergeSchedule = MergeSchedule()
    compression: CompressionConfig = CompressionConfig()
    merging_enabled: bool = True
    compression_enabled: bool = True


@dataclass
class RunMetrics:
    prefill_ms: float = 0.0
    decode_ms_per_token: list[float] = field(default_factory=list)
    tokens_per_layer: list[int] = field(default_factory=list)
    image_tokens_per_layer: list[int] = field(default_factory=list)
    text_tokens_per_layer: list[int] = field(default_factory=list)
    cache_entries_per_layer: list[int] = field(default_factory=list)
    memory_bytes: int = 0         # logical bytes of live K/V entries
    allocated_bytes: int = 0      # K/V/position/segment buffer bytes held
    output_tokens: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class LayerWeights:
    ln1_g: np.ndarray
    ln1_b: np.ndarray
    attn: AttentionWeights
    ln2_g: np.ndarray
    ln2_b: np.ndarray
    w1: Matrix
    b1: np.ndarray
    w2: Matrix
    b2: np.ndarray


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    embed: Matrix            # (vocab, dim) token embeddings for decode
    layers: tuple[LayerWeights, ...]
    final_g: np.ndarray
    final_b: np.ndarray
    w_out: Matrix            # (dim, vocab)


def init_model(config: ModelConfig) -> Model:
    """Seeded uniform [-0.05, 0.05] projections; norm affines start at identity."""
    rng = np.random.default_rng(config.seed)
    c = config.dim

    def draw(*shape):
        return rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)

    embed = draw(config.vocab, c)
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            LayerWeights(
                ln1_g=np.ones(c, dtype=np.float32),
                ln1_b=np.zeros(c, dtype=np.float32),
                attn=AttentionWeights(config.n_heads, draw(c, c), draw(c, c), draw(c, c), draw(c, c)),
                ln2_g=np.ones(c, dtype=np.float32),
                ln2_b=np.zeros(c, dtype=np.float32),
                w1=draw(c, 4 * c),
                b1=draw(4 * c),
                w2=draw(4 * c, c),
                b2=draw(c),
            )
        )
    w_out = draw(c, config.vocab)
    return Model(
        config=config,
        embed=embed,
        layers=tuple(layers),
        final_g=np.ones(c, dtype=np.float32),
        final_b=np.zeros(c, dtype=np.float32),
        w_out=w_out,
    )


def build_input(n_system: int, n_image: int, n_instruction: int,
                redundancy: float = 0.0, seed: int = 0, dim: int = 256) -> TokenSequence:
    """Synthesize a [system | image | instruction] token sequence.

    A `redundancy` fraction of the image tokens are near-duplicates
    (prototype + sigma=0.01 noise) of a small set of distinct prototypes;
    the rest are independent draws.
    """
    if min(n_system, n_image, n_instruction) < 0:
        raise ValueError("token counts must be >= 0")
    if n_system + n_image + n_instruction < 1:
        raise ValueError("input must contain at least one token")
    if not (0.0 <= redundancy <= 1.0):
        raise ValueError(f"redundancy must be in [0, 1], got {redundancy}")

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


def _mlp(x: Matrix, lw: LayerWeights) -> Matrix:
    a = x @ lw.w1
    a += lw.b1
    out = _gelu(a) @ lw.w2
    out += lw.b2
    return out


@dataclass
class MergeEvent:
    layer: int
    kept_positions: np.ndarray     # original positions of surviving unmerged image tokens


@dataclass
class PrefillResult:
    logits: np.ndarray             # (vocab,) next-token logits
    cache: KVCache
    metrics: RunMetrics
    image_importance_per_layer: list[np.ndarray]
    merge_events: list[MergeEvent]


def _validate_pipeline(model: Model, pipeline: PipelineConfig) -> None:
    ml = pipeline.merge_schedule.merge_layers
    if pipeline.merging_enabled and ml and max(ml) >= model.config.n_layers:
        raise ValueError(f"merge_layers {ml} outside model with {model.config.n_layers} layers")
    if pipeline.compression_enabled and pipeline.compression.start_layer >= model.config.n_layers:
        raise ValueError(
            f"start_layer {pipeline.compression.start_layer} outside model "
            f"with {model.config.n_layers} layers"
        )


def prefill(model: Model, seq: TokenSequence, pipeline: PipelineConfig,
            audit: bool = False) -> PrefillResult:
    """Run every layer over the input, merging and compressing as configured.

    `audit` records each compressed layer's per-head eviction audit
    (see `CacheLayer.audit`), for `dump_snapshot`.
    """
    if len(seq) < 1:
        raise ValueError("prefill input must be nonempty")
    if seq.dim != model.config.dim:
        raise ValueError(f"input dim {seq.dim} != model dim {model.config.dim}")
    _validate_pipeline(model, pipeline)

    cfg = model.config
    do_merge = pipeline.merging_enabled and seq.n_image > 0
    schedule = pipeline.merge_schedule.resolve(seq.n_image) if do_merge else None
    stage_of = {layer: i for i, layer in enumerate(schedule.merge_layers)} if do_merge else {}

    t0 = time.perf_counter()
    hidden = seq.embeddings
    segs = seq.segments
    poss = seq.positions
    cache = KVCache(cfg.n_layers, cfg.n_heads, cfg.dim // cfg.n_heads)
    compression = pipeline.compression if pipeline.compression_enabled else None

    metrics = RunMetrics()
    importance_rec: list[np.ndarray] = []
    merge_events: list[MergeEvent] = []

    for li, lw in enumerate(model.layers):
        x = layer_norm(hidden, lw.ln1_g, lw.ln1_b)
        att = multi_head_attention(x, lw.attn)
        cache.extend_layer(li, att.keys, att.values, poss, segs)
        cum, avg = att.cum_scores, att.avg_cum_scores
        hidden = hidden + att.context
        del x, att  # only the scores are needed past this point
        if compression is not None and li >= compression.start_layer:
            normalize_and_compress(cache.layers[li], cum, compression, audit)
        hidden = hidden + _mlp(layer_norm(hidden, lw.ln2_g, lw.ln2_b), lw)

        img_mask = is_image_segment(segs)
        importance = avg[img_mask]
        importance_rec.append(importance)

        if do_merge and li in stage_of:
            keep = schedule.keep_counts[stage_of[li]]
            cur = TokenSequence(hidden, segs, poss)
            merged = pyramid_merge_layer(cur, importance, keep)
            if merged is not cur:
                kept = merged.positions[merged.segments == Segment.IMAGE]
                merge_events.append(MergeEvent(li, kept))
            hidden, segs, poss = merged.embeddings, merged.segments, merged.positions
            img_mask = is_image_segment(segs)

        metrics.tokens_per_layer.append(hidden.shape[0])
        n_img = int(img_mask.sum())
        metrics.image_tokens_per_layer.append(n_img)
        metrics.text_tokens_per_layer.append(hidden.shape[0] - n_img)

    logits = (layer_norm(hidden, model.final_g, model.final_b) @ model.w_out)[-1]
    metrics.prefill_ms = (time.perf_counter() - t0) * 1e3
    metrics.cache_entries_per_layer = cache.entries_per_layer()
    _record_memory(metrics, cache)
    return PrefillResult(logits, cache, metrics, importance_rec, merge_events)


def _record_memory(metrics: RunMetrics, cache: KVCache) -> None:
    est = memory_estimate(cache)
    metrics.memory_bytes = est.total
    metrics.allocated_bytes = est.allocated


def decode_step(model: Model, cache: KVCache, token_id: int) -> tuple[np.ndarray, KVCache]:
    """One greedy-decode forward step attending to the cached entries."""
    if cache.layers[0].heads[0].n == 0:
        raise ValueError("decode_step needs a cache populated by prefill")
    if not 0 <= token_id < model.config.vocab:
        raise ValueError(f"token id {token_id} outside vocab {model.config.vocab}")

    cfg = model.config
    h_count = cfg.n_heads
    hd = cfg.dim // h_count
    pos = cache.next_position()
    hidden = model.embed[token_id][None, :].copy()

    for li, lw in enumerate(model.layers):
        x = layer_norm(hidden, lw.ln1_g, lw.ln1_b)
        q = (x @ lw.attn.wq).reshape(h_count, hd)
        k = (x @ lw.attn.wk).reshape(h_count, hd)
        v = (x @ lw.attn.wv).reshape(h_count, hd)
        cache.append(li, k, v, pos, Segment.GENERATED)
        ctx = np.empty((h_count, hd), dtype=np.float32)
        for hi, hc in enumerate(cache.layers[li].heads):
            ctx[hi] = attend_single_query(q[hi], hc.keys, hc.values)
        hidden = hidden + ctx.reshape(1, cfg.dim) @ lw.attn.wo
        hidden = hidden + _mlp(layer_norm(hidden, lw.ln2_g, lw.ln2_b), lw)

    logits = (layer_norm(hidden, model.final_g, model.final_b) @ model.w_out)[0]
    return logits, cache


def generate(model: Model, seq: TokenSequence, pipeline: PipelineConfig,
             max_new: int) -> tuple[list[int], RunMetrics]:
    """Prefill, then max_new greedy decode steps (toy vocab has no stop token)."""
    if max_new < 1:
        raise ValueError(f"max_new must be >= 1, got {max_new}")

    pre = prefill(model, seq, pipeline)
    metrics = pre.metrics
    logits, cache = pre.logits, pre.cache
    for _ in range(max_new):
        tok = int(np.argmax(logits))
        t0 = time.perf_counter()
        logits, cache = decode_step(model, cache, tok)
        metrics.decode_ms_per_token.append((time.perf_counter() - t0) * 1e3)
        metrics.output_tokens.append(tok)
    _record_memory(metrics, cache)
    return metrics.output_tokens, metrics


# --- weight export / import ------------------------------------------------

def _tensor_map(model: Model) -> dict[str, np.ndarray]:
    tensors = {"embed": model.embed, "w_out": model.w_out,
               "final_g": model.final_g, "final_b": model.final_b}
    for i, lw in enumerate(model.layers):
        p = f"layer{i:02d}."
        tensors[p + "ln1_g"] = lw.ln1_g
        tensors[p + "ln1_b"] = lw.ln1_b
        tensors[p + "wq"] = lw.attn.wq
        tensors[p + "wk"] = lw.attn.wk
        tensors[p + "wv"] = lw.attn.wv
        tensors[p + "wo"] = lw.attn.wo
        tensors[p + "ln2_g"] = lw.ln2_g
        tensors[p + "ln2_b"] = lw.ln2_b
        tensors[p + "w1"] = lw.w1
        tensors[p + "b1"] = lw.b1
        tensors[p + "w2"] = lw.w2
        tensors[p + "b2"] = lw.b2
    return tensors


def export_weights(model: Model, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"config": asdict(model.config), "tensors": {}}
    for name, t in _tensor_map(model).items():
        t2 = t if t.ndim == 2 else t.reshape(1, -1)
        fname = name.replace(".", "_") + ".lvt"
        save_tensor(out / fname, t2)
        manifest["tensors"][name] = {"file": fname, "rows": int(t2.shape[0]), "cols": int(t2.shape[1])}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


def load_model(in_dir) -> Model:
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    config = ModelConfig(**manifest["config"])
    loaded = {}
    for name, meta in manifest["tensors"].items():
        t = load_tensor(src / meta["file"])
        if t.shape != (meta["rows"], meta["cols"]):
            raise ValueError(f"{name}: file shape {t.shape} != manifest {(meta['rows'], meta['cols'])}")
        loaded[name] = t

    def vec(name):
        return loaded[name].reshape(-1)

    layers = []
    for i in range(config.n_layers):
        p = f"layer{i:02d}."
        layers.append(
            LayerWeights(
                ln1_g=vec(p + "ln1_g"), ln1_b=vec(p + "ln1_b"),
                attn=AttentionWeights(config.n_heads, loaded[p + "wq"], loaded[p + "wk"],
                                      loaded[p + "wv"], loaded[p + "wo"]),
                ln2_g=vec(p + "ln2_g"), ln2_b=vec(p + "ln2_b"),
                w1=loaded[p + "w1"], b1=vec(p + "b1"),
                w2=loaded[p + "w2"], b2=vec(p + "b2"),
            )
        )
    return Model(config=config, embed=loaded["embed"], layers=tuple(layers),
                 final_g=vec("final_g"), final_b=vec("final_b"), w_out=loaded["w_out"])
