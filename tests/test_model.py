import gc
import tracemalloc

import numpy as np
import pytest

from lightinfer import (
    ModelConfig,
    Segment,
    build_input,
    decode_step,
    generate,
    init_model,
    prefill,
)
import lightinfer.model as model_mod
from lightinfer.attention import Workspace
from lightinfer.kvcache import compress_all, memory_estimate
from lightinfer.merge import TokenSequence
from lightinfer.model import _MLP_ROWS, _gelu, _mlp, layer_norm
from lightinfer.oracle import _forward_no_cache
from lightinfer.oracle import _layer_norm as oracle_layer_norm
from lightinfer.oracle import _mlp as oracle_mlp

from conftest import head, pipeline


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


# build_input checks its arguments as an InputConfig, so the error names the argument
@pytest.mark.parametrize("args,kwargs,message", [
    ((-1, 4, 4), {}, "n_system must be >= 0, got -1"),
    ((1, 1, 1), {"seed": -1}, "seed must be >= 0, got -1"),
], ids=["n_system", "seed"])
def test_build_input_error_names_the_argument(args, kwargs, message):
    with pytest.raises(ValueError, match=message):
        build_input(*args, **kwargs)


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
    layers = pre.metrics.layers
    # 24 image tokens, stage ratio 0.25^(1/3): 15, 9, 6 at layers 1/2/3
    assert [r.image_tokens for r in layers] == [24, 15, 9, 6]
    assert [r.tokens - r.image_tokens for r in layers] == [10, 10, 10, 10]
    assert [r.tokens for r in layers] == [34, 25, 19, 16]
    # layer l caches what layer l attended over: the previous layer's exit
    per_head = [r.cache_entries // 2 for r in layers]
    assert per_head == [34, 34, 25, 19]
    # and scores every image token it attended over
    assert [r.importance.size for r in layers] == [24, 24, 15, 9]


def test_prefill_cache_matches_compression_ledger(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(keep_ratio=0.25, beta=0.6, start_layer=1), audit=True)
    cache = pre.cache
    for li, rec in enumerate(pre.metrics.layers):
        segs = rec.evictions.segments
        retained = rec.evictions.retained
        if retained is None:
            retained = np.ones((cache.n_heads, len(segs)), dtype=bool)
        img = (segs == Segment.IMAGE) | (segs == Segment.MERGED_IMAGE)
        for h in range(cache.n_heads):
            assert retained[h].sum() == cache.counts[li, h]
            n_img = int(retained[h][img].sum())
            n_text = int(retained[h][~img].sum())
            assert n_text == 10
            if li >= 1:
                assert n_img < [34, 34, 25, 19][li] - 10


def test_layer_record_on_compressed_prefill(tiny_model, tiny_seq):
    p = pipeline(keep_ratio=0.5, beta=0.5, start_layer=1)
    pre = prefill(tiny_model, tiny_seq, p)
    layers = pre.metrics.layers
    assert [r.cache_entries for r in layers] == pre.cache.entries_per_layer()
    assert all(r.evictions is None for r in layers)

    audited = prefill(tiny_model, tiny_seq, p, audit=True)
    assert [r.cache_entries for r in audited.metrics.layers] == pre.cache.entries_per_layer()
    # compression changes no hidden state, so the uncompressed cache holds
    # every entry the compressed layers chose from
    full = prefill(tiny_model, tiny_seq, pipeline(keep_ratio=0.5, compression=False)).cache
    evicted = 0
    cache = audited.cache
    for li, rec in enumerate(audited.metrics.layers):
        pos, retained = rec.evictions.positions, rec.evictions.retained
        # the audit covers every entry the layer was given: the previous layer's exit
        assert len(pos) == (audited.metrics.layers[li - 1].tokens if li else len(tiny_seq))
        if li < 1:
            assert retained is None and rec.evictions.scores is None
            continue
        assert retained.shape == rec.evictions.scores.shape == (cache.n_heads, len(pos))
        for h in range(cache.n_heads):
            assert head(cache, li, h).keys.tobytes() == head(full, li, h).keys[retained[h]].tobytes()
            assert head(cache, li, h).values.tobytes() == head(full, li, h).values[retained[h]].tobytes()
        evicted += int((~retained).sum())
    assert evicted > 0


def test_prefill_rejects_decreasing_positions(monkeypatch, tiny_model, tiny_seq):
    def no_layer_runs(*args):
        raise AssertionError("a layer ran")

    swapped = tiny_seq.positions.copy()
    swapped[[5, 6]] = swapped[[6, 5]]
    seq = TokenSequence(tiny_seq.embeddings, tiny_seq.segments, swapped)
    with monkeypatch.context() as mp:
        mp.setattr(model_mod, "multi_head_attention", no_layer_runs)
        with pytest.raises(ValueError, match="non-decreasing"):
            prefill(tiny_model, seq, pipeline())
    # merged tokens share a position with the token after them: equal is in order
    repeated = tiny_seq.positions.copy()
    repeated[6] = repeated[5]
    prefill(tiny_model, TokenSequence(tiny_seq.embeddings, tiny_seq.segments, repeated), pipeline())


def test_prefill_rejects_empty_and_wrong_dim(tiny_model):
    with pytest.raises(ValueError, match="dim"):
        prefill(tiny_model, build_input(2, 2, 2, seed=0, dim=16), pipeline())


def test_decode_grows_cache_by_one_per_step(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(merging=False, compression=False))
    before = pre.cache.counts.copy()
    held = [head(pre.cache, li, 0).keys.copy() for li in range(pre.cache.n_layers)]
    logits, cache = decode_step(tiny_model, pre.cache, 7)
    assert np.array_equal(cache.counts, before + 1)
    assert logits.shape == (64,)
    for li in range(cache.n_layers):
        assert np.array_equal(head(cache, li, 0).keys[:-1], held[li])
    # layer 0's input is the token's embedding: the new key is its projection
    attn = tiny_model.layers[0].attn
    k = (layer_norm(tiny_model.embed[7][None, :]) @ attn.wk).reshape(cache.n_heads, -1)
    for h in range(cache.n_heads):
        assert np.array_equal(head(cache, 0, h).keys[-1], k[h])


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
    assert [r.tokens for r in ma.layers] == [r.tokens for r in mb.layers]
    assert [r.cache_entries for r in ma.layers] == [r.cache_entries for r in mb.layers]


def test_generate_metrics_shapes(tiny_model, tiny_seq):
    # id 1 comes from the prefill logits; each further id takes one decode step
    for max_new in (1, 5):
        ids, m = generate(tiny_model, tiny_seq, pipeline(), max_new)
        assert len(m.decode_ms_per_token) == max_new - 1
        assert len(ids) == max_new
    assert all(0 <= t < 64 for t in ids)
    assert len(m.layers) == 4
    merged_sizes = [r.tokens for r in m.layers]
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


# decode (1 row), both sides of a chunk boundary and default-config prefill
@pytest.mark.parametrize("rows", [1, _MLP_ROWS - 1, _MLP_ROWS, _MLP_ROWS + 1, 1556])
def test_mlp_bit_identical_to_one_shot(rows):
    lw = init_model(ModelConfig(n_layers=1, seed=rows)).layers[0]
    x = np.random.default_rng(rows).standard_normal((rows, 256)).astype(np.float32)
    expect = _gelu(x @ lw.w1 + lw.b1) @ lw.w2 + lw.b2
    assert np.array_equal(_mlp(x, lw), expect)
    assert np.array_equal(oracle_mlp(x, lw), expect)


def test_layer_norm_constant_row_is_zero():
    out = layer_norm(np.full((1, 4), 3.0, dtype=np.float32))
    assert np.allclose(out, 0.0, atol=1e-4)


def test_layer_norm_already_normalized():
    x = np.array([[1.0, -1.0]], dtype=np.float32)
    assert np.allclose(layer_norm(x), x, atol=1e-4)


def test_layer_norm_statistics_recomputed():
    x = np.random.default_rng(3).uniform(-5, 5, (4, 64)).astype(np.float32)
    out = layer_norm(x)
    assert np.abs(out.mean(axis=1)).max() < 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


# decode (1 row) and default-config prefill (1556 rows) widths, C=256
@pytest.mark.parametrize("shape", [(1, 256), (1556, 256)])
def test_layer_norm_bit_identical_to_literal_expression(shape):
    x = (3.0 * np.random.default_rng(shape[0]).standard_normal(shape) + 1.0).astype(np.float32)
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expect = (x - mean) / np.sqrt(var + np.float32(1e-5))
    before = x.copy()
    assert np.array_equal(bits(layer_norm(x)), bits(expect))
    assert np.array_equal(bits(oracle_layer_norm(x)), bits(expect))
    assert np.array_equal(x, before)


def test_layer_norm_equals_identity_affine_form():
    # An identity affine (`*= ones`, `+= zeros`) appended to the norm must not
    # change a bit. Rows 0-2 hold entries equal to their row mean, where
    # x - mean is zero: `+= 0.0` would turn a -0.0 there into +0.0.
    rng = np.random.default_rng(4)
    x = (3.0 * rng.standard_normal((6, 256)) + 1.0).astype(np.float32)
    x[0] = np.tile(np.float32([1.0, 2.0, 3.0, 2.0]), 64)
    x[1, :128], x[1, 128:] = -0.5, 0.5
    x[1, ::16] = 0.0
    x[2] = 7.0
    assert (x[0] == x[0].mean()).sum() == 128
    mean = x.mean(axis=1, keepdims=True)
    affine = x - mean
    affine /= np.sqrt(np.square(affine).mean(axis=1, keepdims=True) + np.float32(1e-5))
    affine *= np.ones(256, np.float32)
    affine += np.zeros(256, np.float32)
    out = layer_norm(x)
    assert (out == 0.0).sum() >= 128 + 16 + 256
    assert np.array_equal(bits(out), bits(affine))


def test_prefill_logits_match_full_attention_oracle(tiny_model, tiny_seq):
    p = pipeline(merging=False, compression=False)
    ref, _ = _forward_no_cache(tiny_model, tiny_seq, p)
    assert np.abs(prefill(tiny_model, tiny_seq, p).logits - ref).max() < 1e-4


def test_merge_kept_positions_are_nested(tiny_model, tiny_seq):
    pre = prefill(tiny_model, tiny_seq, pipeline(keep_ratio=0.25, compression=False))
    layers = pre.metrics.layers
    kept = {li: r.kept_positions for li, r in enumerate(layers) if r.kept_positions is not None}
    assert sorted(kept) == [1, 2, 3]
    sets = [set(kept[li].tolist()) for li in (1, 2, 3)]
    assert sets[2] <= sets[1] <= sets[0]
    # every stage re-merged the previous merged token, so one merged token remains
    for li, positions in kept.items():
        assert len(positions) == layers[li].image_tokens - 1


def test_no_op_merge_stages_record_empty_survivors(tiny_model):
    # two image tokens at keep ratio 0.35 plan [1, 1, 1]: the first stage merges
    # both into one MERGED_IMAGE token, the other two have nothing to do
    seq = build_input(4, 2, 6, seed=1, dim=32)
    assert pipeline(keep_ratio=0.35).merge_schedule.keep_counts(2) == {1: 1, 2: 1, 3: 1}
    layers = prefill(tiny_model, seq, pipeline(keep_ratio=0.35, compression=False)).metrics.layers
    assert [r.image_tokens for r in layers] == [2, 1, 1, 1]
    assert layers[0].kept_positions is None
    for li in (1, 2, 3):
        assert layers[li].kept_positions is not None
        assert layers[li].kept_positions.tolist() == []


def prefill_recording_scores(monkeypatch, model, seq, pipe):
    """Audited prefill, also returning each layer's raw per-head cumulative scores."""
    scores = []

    def recording(*args, **kwargs):
        out = attention(*args, **kwargs)
        scores.append(out.cum_scores.copy())
        return out

    attention = model_mod.multi_head_attention
    with monkeypatch.context() as mp:
        mp.setattr(model_mod, "multi_head_attention", recording)
        pre = prefill(model, seq, pipe, audit=True)
    return pre, scores


def assert_same_cache(a, b):
    assert np.array_equal(a.counts, b.counts)
    for li in range(a.n_layers):
        for h in range(a.n_heads):
            ha, hb = head(a, li, h), head(b, li, h)
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
        assert (sum(r.cache_entries for r in full.metrics.layers)
                > sum(r.cache_entries for r in got.metrics.layers))
        segments = [r.evictions.segments for r in full.metrics.layers]
        assert_same_cache(got.cache, compress_all(full.cache, scores, segments, pipe.compression))


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
    assert est.allocated == sum(k.nbytes + v.nbytes for k, v in zip(cache.keys, cache.values))
    caps = [k.shape[1] for k in cache.keys]
    row = 2 * cache.head_dim * 4
    one_growth_step = sum((cap // 8 + 1) * cache.n_heads * row for cap in caps)
    assert est.allocated <= est.total * 9 / 8 + one_growth_step
    assert all(cap <= n + n // 8 + 1 for cap, n in zip(caps, cache.counts.min(axis=1)))


def test_padding_counts_in_allocated_bytes():
    # The drawn heads attend almost alike and keep equal counts, so the
    # queries of each head are sharpened by a different factor: at beta 0.5
    # the heads then keep different counts, and each layer pads its shorter
    # heads up to its largest.
    model = init_model(ModelConfig(n_layers=4, n_heads=4, dim=64, vocab=64, seed=0))
    for lw in model.layers:
        for h, scale in enumerate((1, 10, 30, 100)):
            lw.attn.wq[:, h * 16:(h + 1) * 16] *= scale
    seq = build_input(4, 48, 6, redundancy=0.5, seed=0, dim=64)
    pre = prefill(model, seq, pipeline(merging=False, beta=0.5, start_layer=0))
    counts = pre.cache.counts
    assert (counts.min(axis=1) < counts.max(axis=1)).all()
    row = 2 * pre.cache.head_dim * 4

    def check(cache, allocated):
        caps = [k.shape[1] for k in cache.keys]
        tops = cache.counts.max(axis=1)
        assert all(cap <= top + top // 8 + 1 for cap, top in zip(caps, tops))
        assert allocated == sum(cache.n_heads * cap * row for cap in caps)

    check(pre.cache, pre.metrics.allocated_bytes)
    cache, tok = pre.cache, 0
    for _ in range(40):
        logits, cache = decode_step(model, cache, tok)
        tok = int(np.argmax(logits))
    check(cache, memory_estimate(cache).allocated)


def test_prefill_result_pins_no_logits_matrix():
    # vanilla, so the cache is as large as it gets, and still N * vocab * 4
    # bytes alone exceed everything a result may keep
    model = init_model(ModelConfig(n_layers=2, n_heads=4, dim=64, vocab=512, seed=0))
    seq = build_input(20, 960, 20, redundancy=0.5, seed=0, dim=64)
    vanilla = pipeline(merging=False, compression=False)
    prefill(model, seq, vanilla)  # first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        pre = prefill(model, seq, vanilla)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    assert pre.logits.shape == (model.config.vocab,)
    assert pre.logits.base is None or pre.logits.base.nbytes == pre.logits.nbytes
    records = sum(r.importance.nbytes for r in pre.metrics.layers)
    bound = memory_estimate(pre.cache).allocated + records + 64 * 1024
    assert len(seq) * model.config.vocab * 4 > bound
    assert held <= bound


def test_prefill_temporaries_stay_within_the_workspace():
    # Past what prefill returns, its peak is its workspace plus small
    # per-layer arrays (scores, one GELU chunk). The input is made before
    # tracing starts.
    model = init_model(ModelConfig(n_layers=3, n_heads=4, dim=64, vocab=512, seed=0))
    seq = build_input(20, 960, 20, redundancy=0.5, seed=0, dim=64)
    vanilla = pipeline(merging=False, compression=False)
    prefill(model, seq, vanilla)  # first-call allocations stay out of the count
    gc.collect()
    tracemalloc.start()
    try:
        pre = prefill(model, seq, vanilla)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    records = sum(r.importance.nbytes for r in pre.metrics.layers)
    workspace = Workspace(len(seq), model.config.dim, model.config.n_heads).nbytes
    assert peak - memory_estimate(pre.cache).allocated - records <= 1.1 * workspace
