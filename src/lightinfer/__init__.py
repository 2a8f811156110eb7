"""Desk-scale multimodal decoder engine with two acceleration mechanisms:
staged image-token merging during prefill and coverage-threshold KV cache
compression for decode."""

from .kvcache import CompressionConfig, memory_estimate
from .merge import MergeSchedule, Segment, merge_tokens
from .model import (
    ModelConfig,
    PipelineConfig,
    build_input,
    decode_step,
    generate,
    init_model,
    prefill,
)

__version__ = "0.1.0"
