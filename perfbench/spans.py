"""Span tracing from outside the engine, and the per-module metrics derived from it.

`Tracer.installed()` replaces the names `lightinfer.model` calls with
wrappers that record one span per call: name, start, end, parent span and
request id. Spans stay in memory until `write`. Counts that need the call's
arguments (tokens, keys, bytes read, image tokens merged or evicted) are
recorded on the span at the same boundary.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional

import lightinfer.model as M
from lightinfer.kvcache import KVCache


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int            # index into Tracer.spans, -1 for a root span
    request: int
    note: Any = None

    @property
    def dur(self) -> float:
        return self.end - self.start


def _cached_image_entries(cache: KVCache, n_text_tokens: int) -> int:
    # Text entries are never evicted, so every entry beyond H x text tokens is image-kind.
    return sum(cache.entries_per_layer()) - cache.n_layers * cache.n_heads * n_text_tokens


class Tracer:
    def __init__(self, n_text_tokens: int):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._n_text = n_text_tokens

    def _wrap(self, name: str, fn: Callable, note: Optional[Callable] = None,
              before: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            pre = before(args) if before else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = Span(name, t0, clock(), parent, self.request)
                stack.pop()
            if note:
                spans[idx].note = note(args, out, pre)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        n_text = self._n_text
        image_entries = lambda args: _cached_image_entries(args[0], n_text)  # noqa: E731
        targets = [
            (M, "prefill", None, None),
            (M, "decode_step", None, None),
            (M, "multi_head_attention", lambda a, out, _: a[0].shape[0], None),
            (M, "attend_single_query",
             lambda a, out, _: (a[1].shape[0], a[1].nbytes + a[2].nbytes), None),
            (M, "pyramid_merge_layer", lambda a, out, _: (len(a[1]), out.n_image), None),
            (M, "partition_tokens", None, None),
            (M, "compress_all",
             lambda a, out, before: (before, image_entries(a)), image_entries),
            (M, "layer_norm", None, None),
            (M, "_mlp", None, None),
            (KVCache, "extend_layer", None, None),
            (KVCache, "append", None, None),
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _, _ in targets]
        try:
            for owner, name, note, before in targets:
                setattr(owner, name, self._wrap(name, getattr(owner, name), note, before))
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.request, s.note] for s in self.spans]
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "note"],
                       "spans": rows}, f, separators=(",", ":"))


def _causal_attention_gflop(n: int, dim: int) -> float:
    """Q/K/V/O projections plus the causal (unmasked) half of QK^T and PV, 2 flop per MAC."""
    return (4 * 2 * n * dim * dim + 2 * 2 * dim * n * (n + 1) / 2) / 1e9


def module_metrics(spans: list[Span], dim: int, requests: set[int]) -> dict[str, float]:
    """Per-module numbers, medians over the given traced requests."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur

    def phase_of(i: int) -> str:
        while spans[i].parent >= 0:
            i = spans[i].parent
        return spans[i].name

    per_request: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        if s.request not in requests:
            continue
        r = per_request[s.request]
        if s.parent < 0:
            r[f"{s.name}.calls"] += 1
            r[f"{s.name}.self_ms"] += (s.dur - child_time[i]) * 1e3
            continue
        key = f"{phase_of(i)}/{s.name}"
        r[key + ".ms"] += s.dur * 1e3
        r[key + ".calls"] += 1
        if s.name == "multi_head_attention":
            r["attention.prefill_tokens"] += s.note
            r["attention.prefill_gflop"] += _causal_attention_gflop(s.note, dim)
        elif s.name == "attend_single_query":
            r["attention.decode_keys"] += s.note[0]
            r["attention.decode_bytes"] += s.note[1]
        elif s.name == "pyramid_merge_layer":
            r["merge.image_tokens_in"] += s.note[0]
            r["merge.image_tokens_out"] += s.note[1]
        elif s.name == "compress_all":
            r["kvcache.image_entries_before"] += s.note[0]
            r["kvcache.image_entries_after"] += s.note[1]

    def derive(r: dict[str, float]) -> dict[str, float]:
        g = r.__getitem__
        steps = g("decode_step.calls")
        per_tok = lambda v: v / steps if steps else 0.0  # noqa: E731
        attn_ms = g("prefill/multi_head_attention.ms")
        before = g("kvcache.image_entries_before")
        return {
            "attention.prefill_ms": attn_ms,
            "attention.prefill_tokens": g("attention.prefill_tokens"),
            "attention.prefill_gflop": g("attention.prefill_gflop"),
            "attention.prefill_gflops": g("attention.prefill_gflop") / (attn_ms / 1e3) if attn_ms else 0.0,
            "attention.decode_ms_per_token": per_tok(g("decode_step/attend_single_query.ms")),
            "attention.decode_calls_per_token": per_tok(g("decode_step/attend_single_query.calls")),
            "attention.decode_keys_per_token": per_tok(g("attention.decode_keys")),
            "attention.decode_mb_read_per_token": per_tok(g("attention.decode_bytes")) / 1e6,
            "merge.ms": g("prefill/pyramid_merge_layer.ms") + g("prefill/partition_tokens.ms"),
            "merge.calls": g("prefill/pyramid_merge_layer.calls"),
            "merge.image_tokens_in": g("merge.image_tokens_in"),
            "merge.image_tokens_out": g("merge.image_tokens_out"),
            "kvcache.extend_ms": g("prefill/extend_layer.ms"),
            "kvcache.compress_ms": g("prefill/compress_all.ms"),
            "kvcache.compress_calls": g("prefill/compress_all.calls"),
            "kvcache.append_ms_per_token": per_tok(g("decode_step/append.ms")),
            "kvcache.retained_image_frac": g("kvcache.image_entries_after") / before if before else 1.0,
            "numerics.layer_norm_prefill_ms": g("prefill/layer_norm.ms"),
            "numerics.layer_norm_ms_per_token": per_tok(g("decode_step/layer_norm.ms")),
            "model.mlp_prefill_ms": g("prefill/_mlp.ms"),
            "model.mlp_ms_per_token": per_tok(g("decode_step/_mlp.ms")),
            "model.prefill_self_ms": g("prefill.self_ms"),
            "model.decode_self_ms_per_token": per_tok(g("decode_step.self_ms")),
        }

    rows = [derive(r) for _, r in sorted(per_request.items())]
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}
