"""Desk-scale multimodal decoder engine with two acceleration mechanisms:
staged image-token merging during prefill and coverage-threshold KV cache
compression for decode."""

from .attention import AttentionOutput, AttentionWeights, multi_head_attention
from .kvcache import (
    CompressionConfig,
    KVCache,
    MemoryEstimate,
    compress_all,
    compress_layer,
    dump_snapshot,
    memory_estimate,
    normalize_and_compress,
)
from .merge import (
    MergePartition,
    MergeSchedule,
    Segment,
    TokenSequence,
    merge_tokens,
    merge_weights,
    partition_tokens,
    plan_keep_counts,
    pyramid_merge_layer,
)
from .model import (
    Model,
    ModelConfig,
    PipelineConfig,
    RunMetrics,
    build_input,
    decode_step,
    export_weights,
    generate,
    init_model,
    load_model,
    prefill,
)
from .numerics import layer_norm, load_tensor, save_tensor
from .oracle import (
    attention_mass_curve,
    full_recompute_decode,
    naive_weighted_merge,
)

__version__ = "0.1.0"
