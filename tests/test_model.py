import numpy as np
import pytest

from lightinfer import (
    ModelConfig,
    Segment,
    build_input,
    decode_step,
    export_weights,
    generate,
    init_model,
    load_model,
    prefill,
)
import lightinfer.model as model_mod
from lightinfer.kvcache import compress_all, memory_estimate
from lightinfer.model import _gelu
from lightinfer.oracle import _forward_no_cache

from conftest import pipeline


def checksum(model):
    return float(sum(np.abs(lw.attn.wq).sum() for lw in model.layers))


def test_init_model_deterministic():
    a = init_model(ModelConfig(n_layers=2, n_heads=2, dim=16, vocab=32, seed=42))
    b = init_model(ModelConfig(n_layers=2, n_heads=2, dim=16, vocab=32, seed=42))
    assert checksum(a) == checksum(b)
    assert np.array_equal(a.embed, b.embed)


def test_init_model_seed_changes_weights():
    a = init_model(ModelConfig(n_layers=2, n_heads=2, dim=16, vocab=32, seed=1))
    b = init_model(ModelConfig(n_layers=2, n_heads=2, dim=16, vocab=32, seed=2))
    assert checksum(a) != checksum(b)


def test_init_model_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divide"):
        ModelConfig(n_heads=3, dim=32)


def test_build_input_segments_and_positions():
    seq = build_input(3, 5, 2, redundancy=0.0, seed=0, dim=8)
    assert len(seq) == 10
    assert seq.segments.tolist() == [Segment.SYSTEM_PROMPT] * 3 + [Segment.IMAGE] * 5 + [Segment.INSTRUCTION] * 2
    assert seq.positions.tolist() == list(range(10))


def test_build_input_zero_redundancy_distinct():
    seq = build_input(0, 48, 0, redundancy=0.0, seed=3, dim=64)
    img = seq.embeddings
    dists = np.linalg.norm(img[:, None, :] - img[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 0.1


def test_build_input_high_redundancy_has_near_duplicates():
    seq = build_input(0, 64, 0, redundancy=0.9, seed=4, dim=64)
    img = seq.embeddings
    dists = np.linalg.norm(img[:, None, :] - img[None, :, :], axis=2)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() < 0.5


def test_build_input_text_only():
    seq = build_input(4, 0, 3, seed=5, dim=8)
    assert seq.n_image == 0
    assert len(seq) == 7


def test_build_input_image_fraction():
    seq = build_input(30, 1476, 50, seed=0, dim=8)
    assert seq.n_image / len(seq) == pytest.approx(0.949, abs=0.001)


def test_build_input_rejects_empty():
    with pytest.raises(ValueError):
        build_input(0, 0, 0)


def test_identity_pipeline_bitwise_logits(tiny_model, tiny_seq):
    identity = pipeline(keep_ratio=1.0, beta=1.0)
    disabled = pipeline(merging=False, compression=False)
    a = prefill(tiny_model, tiny_seq, identity)
    b = prefill(tiny_model, tiny_seq, disabled)
    assert np.array_equal(a.logits, b.logits)
    ids_a, _ = generate(tiny_model, tiny_seq, identity, 12)
    ids_b, _ = generate(tiny_model, tiny_seq, disabled, 12)
    assert ids_a == ids_b


def test_prefill_token_ledger(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(keep_ratio=0.25, compression=False))
    m = pre.metrics
    # 24 image tokens, stage ratio 0.25^(1/3): 15, 9, 6 at layers 1/2/3
    assert m.image_tokens_per_layer == [24, 15, 9, 6]
    assert m.text_tokens_per_layer == [10, 10, 10, 10]
    assert m.tokens_per_layer == [34, 25, 19, 16]
    # layer l caches what layer l attended over: the previous layer's exit
    per_head = [e // 2 for e in m.cache_entries_per_layer]
    assert per_head == [34, 34, 25, 19]


def test_prefill_cache_matches_compression_ledger(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(keep_ratio=0.25, beta=0.6, start_layer=1))
    for li, lc in enumerate(pre.cache.layers):
        for hc in lc.heads:
            n_img = int(((hc.segments == Segment.IMAGE) | (hc.segments == Segment.MERGED_IMAGE)).sum())
            n_text = hc.n - n_img
            assert n_text == 10
            if li >= 1:
                assert n_img < [34, 34, 25, 19][li] - 10


def test_prefill_rejects_empty_and_wrong_dim(tiny_model):
    with pytest.raises(ValueError, match="dim"):
        prefill(tiny_model, build_input(2, 2, 2, seed=0, dim=16), pipeline())


def test_decode_grows_cache_by_one_per_step(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(merging=False, compression=False))
    before = [hc.n for lc in pre.cache.layers for hc in lc.heads]
    logits, cache = decode_step(tiny_model, pre.cache, 7)
    after = [hc.n for lc in cache.layers for hc in lc.heads]
    assert all(b + 1 == a for b, a in zip(before, after))
    assert logits.shape == (64,)
    for lc in cache.layers:
        assert lc.heads[0].segments[-1] == Segment.GENERATED


def test_decode_step_requires_populated_cache(tiny_model):
    from lightinfer.kvcache import KVCache
    with pytest.raises(ValueError, match="populated"):
        decode_step(tiny_model, KVCache(4, 2, 16), 0)


def test_generate_deterministic_across_sessions(tiny_model, tiny_seq):
    p = pipeline(keep_ratio=0.5, beta=0.9)
    ids_a, ma = generate(tiny_model, tiny_seq, p, 10)
    ids_b, mb = generate(tiny_model, tiny_seq, p, 10)
    assert ids_a == ids_b
    assert ma.memory_bytes == mb.memory_bytes
    assert ma.tokens_per_layer == mb.tokens_per_layer


def test_generate_metrics_shapes(tiny_model, tiny_seq):
    ids, m = generate(tiny_model, tiny_seq, pipeline(), 1)
    assert len(m.decode_ms_per_token) == 1
    assert len(ids) == 1
    assert m.output_tokens == ids
    assert len(m.tokens_per_layer) == 4
    merged_sizes = m.tokens_per_layer
    assert all(a >= b for a, b in zip(merged_sizes, merged_sizes[1:]))


def test_generate_rejects_bad_args(tiny_model, tiny_seq):
    with pytest.raises(ValueError):
        generate(tiny_model, tiny_seq, pipeline(), 0)


# decode (1 row) and default-config prefill (1556 rows) widths, 4C with C=256
@pytest.mark.parametrize("shape", [(1, 1024), (1556, 1024)])
def test_gelu_bit_identical_to_literal_expression(shape):
    x = (3.0 * np.random.default_rng(shape[0]).standard_normal(shape)).astype(np.float32)
    c0 = np.float32(0.7978845608028654)
    c1 = np.float32(0.044715)
    expect = np.float32(0.5) * x * (np.float32(1.0) + np.tanh(c0 * (x + c1 * x * x * x)))
    assert np.array_equal(_gelu(x.copy()), expect)


def test_prefill_logits_match_full_attention_oracle(tiny_model, tiny_seq):
    p = pipeline(merging=False, compression=False)
    ref = _forward_no_cache(tiny_model, tiny_seq, p)
    assert np.abs(prefill(tiny_model, tiny_seq, p).logits - ref).max() < 1e-4


def test_merge_events_masks_are_nested(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(keep_ratio=0.25, compression=False))
    events = pre.merge_events
    assert [e.layer for e in events] == [1, 2, 3]
    sets = [set(e.kept_positions.tolist()) for e in events]
    assert sets[2] <= sets[1] <= sets[0]
    # every stage re-merged the previous merged token, so one merged token remains
    for e in events:
        assert len(e.kept_positions) == pre.metrics.image_tokens_per_layer[e.layer] - 1


def test_weight_export_import_roundtrip(tmp_path, tiny_model, tiny_seq):
    export_weights(tiny_model, tmp_path / "weights")
    clone = load_model(tmp_path / "weights")
    assert clone.config == tiny_model.config
    p = pipeline(keep_ratio=0.5, beta=0.9)
    assert generate(clone, tiny_seq, p, 8)[0] == generate(tiny_model, tiny_seq, p, 8)[0]


def test_weight_import_rejects_shape_mismatch(tmp_path, tiny_model):
    import json
    export_weights(tiny_model, tmp_path / "w")
    manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
    manifest["tensors"]["embed"]["rows"] = 999
    (tmp_path / "w" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="embed"):
        load_model(tmp_path / "w")


def prefill_recording_scores(monkeypatch, model, seq, pipe):
    """Prefill, also returning each layer's raw per-head cumulative scores."""
    scores = []

    def recording(hidden, weights):
        out = attention(hidden, weights)
        scores.append(out.cum_scores.copy())
        return out

    attention = model_mod.multi_head_attention
    with monkeypatch.context() as mp:
        mp.setattr(model_mod, "multi_head_attention", recording)
        pre = prefill(model, seq, pipe)
    return pre, scores


def assert_same_cache(a, b):
    for la, lb in zip(a.layers, b.layers):
        for ha, hb in zip(la.heads, lb.heads):
            assert np.array_equal(ha.positions, hb.positions)
            assert np.array_equal(ha.segments, hb.segments)
            assert ha.keys.tobytes() == hb.keys.tobytes()
            assert ha.values.tobytes() == hb.values.tobytes()


@pytest.mark.parametrize("merging", [False, True])
@pytest.mark.parametrize("beta", [0.08, 0.5, 0.9])
def test_per_layer_compression_equals_end_of_prefill(monkeypatch, beta, merging):
    """Compressing each layer during prefill keeps exactly what compress_all
    keeps when run on the full cache after the last layer."""
    # four heads: the two-head tiny model keeps the same entries in both heads
    model = init_model(ModelConfig(n_layers=4, n_heads=4, dim=64, vocab=64, seed=0))
    for seed in range(3):
        seq = build_input(4, 48, 6, redundancy=0.5, seed=seed, dim=64)
        pipe = pipeline(keep_ratio=0.5, beta=beta, merging=merging)
        got = prefill(model, seq, pipe)
        uncompressed = pipeline(keep_ratio=0.5, merging=merging, compression=False)
        full, scores = prefill_recording_scores(monkeypatch, model, seq, uncompressed)
        assert sum(full.metrics.cache_entries_per_layer) > sum(got.metrics.cache_entries_per_layer)
        compress_all(full.cache, scores, pipe.compression)
        assert_same_cache(got.cache, full.cache)


@pytest.mark.parametrize("beta", [1.0, 0.5])
def test_allocated_bytes_bounded_after_prefill_and_decode(tiny_model, tiny_seq, beta):
    pre = prefill(tiny_model, tiny_seq, pipeline(merging=False, beta=beta, start_layer=0))
    est = memory_estimate(pre.cache)
    assert pre.metrics.allocated_bytes == est.allocated
    assert pre.metrics.memory_bytes == est.total
    cache, tok = pre.cache, 0
    for _ in range(40):
        logits, cache = decode_step(tiny_model, cache, tok)
        tok = int(np.argmax(logits))
    est = memory_estimate(cache)
    heads = [hc for lc in cache.layers for hc in lc.heads]
    row = 2 * cache.head_dim * 4 + 8 + 1
    one_growth_step = sum((hc.capacity // 8 + 1) * row for hc in heads)
    assert est.allocated <= est.total * 9 / 8 + one_growth_step
    assert all(hc.capacity <= hc.n + hc.n // 8 + 1 for hc in heads)
