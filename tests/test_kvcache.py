import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightinfer.kvcache import (
    _GROWTH_DIV,
    CompressionConfig,
    KVCache,
    compress_all,
    compress_layer,
    dump_snapshot,
    memory_estimate,
)
from lightinfer.merge import Segment, is_image_segment
from lightinfer.verify import _minimal_coverage_prefix


def make_cache(n_layers=1, n_heads=2, head_dim=4):
    return KVCache(n_layers, n_heads, head_dim)


def fill_layer(cache, layer, n_image, n_text, head_dim=4, seed=0):
    rng = np.random.default_rng(seed)
    n = n_image + n_text
    keys = rng.standard_normal((cache.n_heads, n, head_dim)).astype(np.float32)
    values = rng.standard_normal((cache.n_heads, n, head_dim)).astype(np.float32)
    segs = np.array([Segment.IMAGE] * n_image + [Segment.INSTRUCTION] * n_text, dtype=np.int8)
    cache.extend_layer(layer, keys, values, np.arange(n, dtype=np.int64), segs)
    return cache


def heads(cache, layer=0):
    return [cache.head(layer, h) for h in range(cache.n_heads)]


def kv(head_dim=4, n_heads=2, fill=0.0):
    return np.full((n_heads, head_dim), fill, dtype=np.float32)


def test_append_to_empty_layer():
    cache = make_cache()
    cache.append(0, kv(fill=1.0), kv(fill=2.0), 0, Segment.SYSTEM_PROMPT)
    assert cache.counts[0].tolist() == [1, 1]


def test_append_keeps_position_order():
    cache = make_cache()
    cache.append(0, kv(), kv(), 3, Segment.IMAGE)
    cache.append(0, kv(), kv(), 5, Segment.IMAGE)
    for hv in heads(cache):
        assert hv.positions.tolist() == [3, 5]


def test_append_rejects_out_of_order_position():
    cache = make_cache()
    cache.append(0, kv(), kv(), 5, Segment.IMAGE)
    with pytest.raises(ValueError, match="out-of-order"):
        cache.append(0, kv(), kv(), 4, Segment.IMAGE)


def test_rejected_append_leaves_every_head_unchanged():
    # head 0 keeps only position 0 and head 1 only position 4, so position 3
    # is in order for head 0 and out of order for head 1
    cache = fill_layer(make_cache(), 0, n_image=5, n_text=0)
    onehot = np.eye(5)
    compress_layer(cache, 0, [onehot[0], onehot[4]], CompressionConfig(0.5, 0))
    assert [hv.positions.tolist() for hv in heads(cache)] == [[0], [4]]
    with pytest.raises(ValueError, match="out-of-order"):
        cache.append(0, kv(), kv(), 3, Segment.GENERATED)
    assert cache.counts[0].tolist() == [1, 1]
    assert [hv.positions.tolist() for hv in heads(cache)] == [[0], [4]]


def test_append_rejects_bad_layer():
    with pytest.raises(ValueError, match="layer"):
        make_cache().append(3, kv(), kv(), 0, Segment.IMAGE)


def test_beta_one_is_bit_identical():
    cache = fill_layer(make_cache(), 0, n_image=5, n_text=2)
    before = [hv.keys.copy() for hv in heads(cache)]
    scores = [np.random.default_rng(1).uniform(0.1, 1, 7) for _ in range(2)]
    compress_layer(cache, 0, scores, CompressionConfig(1.0, 0))
    assert cache.counts[0].tolist() == [7, 7]
    for hv, ref in zip(heads(cache), before):
        assert np.array_equal(hv.keys, ref)


def test_compress_cumulative_threshold_example():
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=5, n_text=0)
    scores = [np.array([0.5, 0.2, 0.15, 0.1, 0.05])]
    compress_layer(cache, 0, scores, CompressionConfig(0.9, 0))
    assert cache.counts[0, 0] == 4
    assert cache.head(0, 0).positions.tolist() == [0, 1, 2, 3]


def test_per_head_independence_uniform_vs_one_hot():
    n = 16  # power of two keeps the 90% prefix boundary away from float ties
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=n, n_text=0)
    uniform = np.full(n, 1.0 / n)
    one_hot = np.zeros(n)
    one_hot[3] = 1.0
    compress_layer(cache, 0, [uniform, one_hot], CompressionConfig(0.9, 0))
    counts = cache.counts[0].tolist()
    assert counts[0] == int(np.ceil(0.9 * n))
    assert counts[1] == 1
    assert cache.head(0, 1).positions.tolist() == [3]


def test_retained_entries_back_in_position_order():
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=6, n_text=1)
    scores = [np.array([0.05, 0.3, 0.1, 0.25, 0.2, 0.1, 0.0])]
    compress_layer(cache, 0, scores, CompressionConfig(0.7, 0))
    pos = cache.head(0, 0).positions.tolist()
    assert pos == sorted(pos)
    assert 6 in pos  # text entry survives


def test_compress_rejects_mismatched_scores():
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=4, n_text=0)
    with pytest.raises(ValueError, match="scores"):
        compress_layer(cache, 0, [np.ones(3)], CompressionConfig(0.9, 0))


def test_power_of_two_scaling_keeps_retained_set():
    # scaling by 2**k is exact, so the normalized scores are the same floats
    raw = np.random.default_rng(3).uniform(0.1, 1, 10)
    kept = []
    for k in (0, -40, -1, 1, 40):
        cache = fill_layer(make_cache(n_heads=1), 0, n_image=8, n_text=2)
        compress_layer(cache, 0, [raw * 2.0 ** k], CompressionConfig(0.6, 0))
        kept.append(cache.head(0, 0).positions.tolist())
    assert len(kept[0]) < 10
    assert all(positions == kept[0] for positions in kept)


def test_zero_image_mass_compresses_as_uniform():
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=16, n_text=1)
    compress_layer(cache, 0, [np.zeros(17)], CompressionConfig(0.5, 0))
    assert cache.head(0, 0).positions.tolist() == list(range(8)) + [16]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 25), st.integers(0, 2**31 - 1))
def test_compress_monotone_in_beta(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, n)
    kept = []
    for beta in (0.3, 0.6, 0.9, 1.0):
        cache = fill_layer(make_cache(n_heads=1), 0, n_image=n, n_text=0)
        compress_layer(cache, 0, [raw], CompressionConfig(beta, 0))
        kept.append(set(cache.head(0, 0).positions.tolist()))
    for a, b in zip(kept, kept[1:]):
        assert a <= b


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.integers(1, 6), st.floats(0.2, 0.999), st.integers(0, 2**31 - 1))
def test_non_image_entries_never_evicted(n_image, n_text, beta, seed):
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=n_image, n_text=n_text, seed=seed)
    raw = np.random.default_rng(seed).uniform(0.01, 1.0, n_image + n_text)
    compress_layer(cache, 0, [raw], CompressionConfig(beta, 0))
    assert int((~is_image_segment(cache.head(0, 0).segments)).sum()) == n_text


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 3),
       st.sampled_from([0.3, 0.5, 0.75, 0.9, 0.999]), st.integers(0, 2**31 - 1))
def test_batched_rule_matches_minimal_prefix_per_head(n_heads, n_image, n_text, beta, seed):
    # small integer scores make ties, and all-zero image mass, common
    cache = fill_layer(make_cache(n_heads=n_heads), 0, n_image=n_image, n_text=n_text, seed=seed)
    raw = np.random.default_rng(seed).integers(0, 4, (n_heads, n_image + n_text)).astype(float)
    audit = compress_layer(cache, 0, raw, CompressionConfig(beta, 0), audit=True)
    for h in range(n_heads):
        img = raw[h, :n_image]
        norm = img / img.sum() if img.sum() > 0 else np.full(n_image, 1.0 / max(n_image, 1))
        expect = _minimal_coverage_prefix(norm, beta)
        assert set(np.flatnonzero(audit.retained[h, :n_image]).tolist()) == expect
        assert audit.retained[h, n_image:].all()
        assert cache.head(0, h).positions.tolist() == sorted(expect) + list(range(n_image, n_image + n_text))


def test_compress_rejects_heads_with_different_entries():
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=5, n_text=1)
    onehot = np.eye(6)
    compress_layer(cache, 0, [onehot[0], onehot[4]], CompressionConfig(0.5, 0))
    assert [hv.positions.tolist() for hv in heads(cache)] == [[0, 5], [4, 5]]
    with pytest.raises(ValueError, match="heads hold different entries"):
        compress_layer(cache, 0, np.ones((2, 2)), CompressionConfig(0.5, 0))
    assert [hv.positions.tolist() for hv in heads(cache)] == [[0, 5], [4, 5]]


def test_compress_all_respects_start_layer():
    cache = make_cache(n_layers=3, n_heads=1)
    for layer in range(3):
        fill_layer(cache, layer, n_image=6, n_text=1, seed=layer)
    scores = [[np.random.default_rng(9).uniform(0.1, 1, 7)] for _ in range(3)]
    compress_all(cache, scores, CompressionConfig(0.5, 1))
    assert cache.counts[0, 0] == 7
    assert cache.counts[1, 0] < 7
    assert cache.counts[2, 0] < 7


def test_compress_all_start_at_end_is_noop():
    cache = fill_layer(make_cache(n_layers=1, n_heads=1), 0, n_image=5, n_text=0)
    compress_all(cache, [None], CompressionConfig(0.5, 1))
    assert cache.counts[0, 0] == 5


def test_compress_all_uniform_scores_same_count_per_layer():
    cache = make_cache(n_layers=3, n_heads=1)
    for layer in range(3):
        fill_layer(cache, layer, n_image=10, n_text=2, seed=layer)
    scores = [[np.ones(12)] for _ in range(3)]
    compress_all(cache, scores, CompressionConfig(0.5, 0))
    assert len(set(cache.counts[:, 0].tolist())) == 1


def test_compress_all_steeper_scores_retain_fewer():
    cache = make_cache(n_layers=3, n_heads=1)
    n = 16
    for layer in range(3):
        fill_layer(cache, layer, n_image=n, n_text=0, seed=layer)
    base = np.linspace(1.0, 2.0, n)
    scores = [[np.power(base, 8.0 * layer + 1.0)] for layer in range(3)]
    compress_all(cache, scores, CompressionConfig(0.9, 0))
    counts = cache.counts[:, 0].tolist()
    assert counts[0] > counts[1] > counts[2]


def test_compress_all_missing_layer_rejected():
    cache = make_cache(n_layers=2, n_heads=1)
    fill_layer(cache, 0, 4, 0)
    fill_layer(cache, 1, 4, 0)
    with pytest.raises(ValueError, match="missing scores"):
        compress_all(cache, [[np.ones(4)], None], CompressionConfig(0.9, 0))


def test_memory_estimate_empty():
    assert memory_estimate(make_cache()).total == 0


def test_memory_estimate_arithmetic():
    cache = KVCache(1, 1, 64)
    rng = np.random.default_rng(0)
    cache.extend_layer(0, rng.standard_normal((1, 10, 64)).astype(np.float32),
                       rng.standard_normal((1, 10, 64)).astype(np.float32),
                       np.arange(10, dtype=np.int64),
                       np.full(10, Segment.IMAGE, dtype=np.int8))
    est = memory_estimate(cache)
    assert est.total == 10 * 2 * 64 * 4 == 5120


def test_memory_tracks_retained_fraction():
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=100, n_text=0)
    before = memory_estimate(cache).total
    one_hot = np.zeros(100)
    one_hot[0] = 1.0
    ten = np.zeros(100)
    ten[:10] = 0.1
    compress_layer(cache, 0, [ten], CompressionConfig(0.999, 0))
    after = memory_estimate(cache).total
    assert after == before // 10


def test_snapshot_csv(tmp_path):
    cache = make_cache(n_layers=2, n_heads=1)
    fill_layer(cache, 0, 3, 1)
    fill_layer(cache, 1, 3, 1)
    audit = compress_layer(cache, 1, [np.array([0.7, 0.2, 0.1, 0.0])],
                           CompressionConfig(0.8, 1), audit=True)
    out = tmp_path / "snap.csv"
    dump_snapshot(cache, [None, audit], out)
    rows = list(csv.DictReader(out.open()))
    assert {r["layer"] for r in rows} == {"0", "1"}
    layer1 = [r for r in rows if r["layer"] == "1"]
    assert len(layer1) == 4  # audit covers dropped entries too
    assert {r["retained"] for r in layer1} == {"0", "1"}
    dropped = [r for r in layer1 if r["retained"] == "0"]
    assert all(r["segment"] == "image" for r in dropped)


def test_audit_recorded_only_when_asked():
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=6, n_text=1)
    scores = [np.arange(1.0, 8.0)] * 2
    assert compress_layer(cache, 0, scores, CompressionConfig(0.5, 0)) is None
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=6, n_text=1)
    audit = compress_layer(cache, 0, scores, CompressionConfig(0.5, 0), audit=True)
    assert audit.positions.tolist() == list(range(7))
    assert audit.retained.shape == audit.scores.shape == (2, 7)
    for retained, recorded, hv in zip(audit.retained, audit.scores, heads(cache)):
        assert audit.positions[retained].tolist() == hv.positions.tolist()
        # image scores are recorded normalized, the text entry's as given
        assert recorded[:6].sum() == pytest.approx(1.0)
        assert recorded[6] == 7.0
    assert scores[0].tolist() == list(np.arange(1.0, 8.0))  # the caller's scores are not normalized in place


def test_keep_sizes_buffers_to_the_largest_head():
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=40, n_text=3)
    full = [(hv.keys.copy(), hv.values.copy()) for hv in heads(cache)]
    rng = np.random.default_rng(5)
    raw = [rng.uniform(0.01, 1.0, 43) ** 4 for _ in range(2)]
    compress_layer(cache, 0, raw, CompressionConfig(0.5, 0))
    counts = cache.counts[0]
    assert counts.max() < 43 and counts.min() < counts.max()
    assert cache.keys[0].shape == (2, counts.max(), 4)
    for hv, (keys, values) in zip(heads(cache), full):
        assert np.array_equal(hv.keys, keys[hv.positions])
        assert np.array_equal(hv.values, values[hv.positions])
    # the shorter head's padding rows are zeros
    short = int(counts.argmin())
    assert not cache.keys[0][short, counts.min():].any()
    assert not cache.values[0][short, counts.min():].any()
    assert memory_estimate(cache).allocated == 2 * int(counts.max()) * (2 * 4 * 4 + 8 + 1)


def test_grow_adds_an_eighth_of_capacity():
    cache = make_cache(n_heads=1)
    cache.extend_layer(0, np.zeros((1, 64, 4), np.float32), np.zeros((1, 64, 4), np.float32),
                       np.arange(64), np.full(64, Segment.GENERATED, dtype=np.int8))
    assert cache.keys[0].shape[1] == 64
    cache.append(0, kv(n_heads=1), kv(n_heads=1), 64, Segment.GENERATED)
    assert cache.keys[0].shape[1] == 64 + 64 // _GROWTH_DIV
    assert cache.head(0, 0).positions.tolist() == list(range(65))


def test_extend_layer_fills_only_an_empty_layer():
    cache = fill_layer(make_cache(), 0, n_image=3, n_text=1)
    with pytest.raises(ValueError, match="already filled"):
        fill_layer(cache, 0, n_image=3, n_text=1)
    assert cache.counts[0].tolist() == [4, 4]


def test_memory_estimate_allocated_counts_capacity():
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=30, n_text=2)
    est = memory_estimate(cache)
    row = 2 * 4 * 4 + 8 + 1  # key + value float32, int64 position, int8 segment
    assert est.allocated == 2 * 32 * row
    assert est.total == 2 * 32 * 2 * 4 * 4
    cache.append(0, kv(), kv(), 32, Segment.GENERATED)
    assert memory_estimate(cache).allocated == 2 * (32 + 32 // _GROWTH_DIV) * row
