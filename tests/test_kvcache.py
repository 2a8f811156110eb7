import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightinfer import PipelineConfig, prefill
from lightinfer.bench import dump_snapshot
from lightinfer.kvcache import (
    _GROWTH_DIV,
    CompressionConfig,
    KVCache,
    compress_all,
    memory_estimate,
    retention,
)
from lightinfer.merge import Segment
from lightinfer.model import LayerAudit
from lightinfer.oracle import minimal_coverage_prefix

from conftest import head


def make_cache(n_layers=1, n_heads=2, head_dim=4):
    return KVCache(n_layers, n_heads, head_dim)


def segments(n_image, n_text):
    return np.array([Segment.IMAGE] * n_image + [Segment.INSTRUCTION] * n_text, dtype=np.int8)


def layer_entries(n_heads, n, head_dim=4, seed=0):
    """Random keys and values (H, n, hd); every head's key i holds i in its
    first element, so `rows` can tell which entries a head kept."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((n_heads, n, head_dim)).astype(np.float32)
    keys[:, :, 0] = np.arange(n)
    values = rng.standard_normal((n_heads, n, head_dim)).astype(np.float32)
    return keys, values


def rows(head):
    """The entries a head holds, in stored order, read back from their keys."""
    return head.keys[:, 0].astype(int).tolist()


def fill_layer(cache, layer, n_image, n_text, head_dim=4, seed=0, retained=None):
    keys, values = layer_entries(cache.n_heads, n_image + n_text, head_dim, seed)
    cache.extend_layer(layer, keys, values, retained)
    return cache


def compressed(n_image, n_text, raw, beta, seed=0):
    """A one-layer cache written with what compression at beta keeps of the
    layer's entries, from raw scores (H, n)."""
    raw = np.asarray(raw, dtype=float)
    retained, _ = retention(raw, segments(n_image, n_text), CompressionConfig(beta, 0))
    return fill_layer(make_cache(n_heads=raw.shape[0]), 0, n_image, n_text, seed=seed,
                      retained=retained)


def heads(cache, layer=0):
    return [head(cache, layer, h) for h in range(cache.n_heads)]


def kv(head_dim=4, n_heads=2, fill=0.0):
    return np.full((n_heads, head_dim), fill, dtype=np.float32)


def test_append_to_empty_layer():
    cache = make_cache()
    cache.append(0, kv(fill=1.0), kv(fill=2.0))
    assert cache.counts[0].tolist() == [1, 1]


def test_append_keeps_position_order():
    cache = make_cache()
    cache.append(0, kv(fill=3.0), kv())
    cache.append(0, kv(fill=5.0), kv())
    for hv in heads(cache):
        assert rows(hv) == [3, 5]


def test_rejected_append_leaves_every_head_unchanged():
    # head 0 keeps entry 0 and head 1 entries 0, 2 and 4, so the layer is
    # full: a rejected append must not grow it, and an accepted one writes
    # row 1 of head 0 and row 3 of head 1 and leaves the padding zero
    retained = np.array([[1, 0, 0, 0, 0], [1, 0, 1, 0, 1]], dtype=bool)
    cache = fill_layer(make_cache(), 0, n_image=5, n_text=0, retained=retained)
    with pytest.raises(ValueError):
        cache.append(0, kv(n_heads=3), kv())
    assert cache.counts[0].tolist() == [1, 3]
    assert cache.keys[0].shape == (2, 3, 4)
    assert [rows(hv) for hv in heads(cache)] == [[0], [0, 2, 4]]
    cache.append(0, kv(fill=7.0), kv(fill=7.0))
    assert cache.counts[0].tolist() == [2, 4]
    assert [rows(hv) for hv in heads(cache)] == [[0, 7], [0, 2, 4, 7]]
    assert [hv.values[-1].tolist() for hv in heads(cache)] == [[7.0] * 4] * 2
    assert not cache.keys[0][0, 2:].any() and not cache.values[0][0, 2:].any()


def test_append_rejects_bad_layer():
    cache = make_cache()
    with pytest.raises(ValueError, match="layer"):
        cache.append(3, kv(), kv())
    assert not cache.counts.any()


def test_beta_one_is_bit_identical():
    full = fill_layer(make_cache(), 0, n_image=5, n_text=2)
    scores = [np.random.default_rng(1).uniform(0.1, 1, 7) for _ in range(2)]
    cache = compressed(5, 2, scores, 1.0)
    assert cache.counts[0].tolist() == [7, 7]
    for got, ref in ((cache.keys, full.keys), (cache.values, full.values)):
        assert got[0].tobytes() == ref[0].tobytes()


def test_compress_cumulative_threshold_example():
    cache = compressed(5, 0, [[0.5, 0.2, 0.15, 0.1, 0.05]], 0.9)
    assert cache.counts[0, 0] == 4
    assert rows(head(cache, 0, 0)) == [0, 1, 2, 3]


def test_per_head_independence_uniform_vs_one_hot():
    n = 16  # power of two keeps the 90% prefix boundary away from float ties
    uniform = np.full(n, 1.0 / n)
    one_hot = np.zeros(n)
    one_hot[3] = 1.0
    cache = compressed(n, 0, [uniform, one_hot], 0.9)
    counts = cache.counts[0].tolist()
    assert counts[0] == int(np.ceil(0.9 * n))
    assert counts[1] == 1
    assert rows(head(cache, 0, 1)) == [3]


def test_retained_entries_back_in_position_order():
    cache = compressed(6, 1, [[0.05, 0.3, 0.1, 0.25, 0.2, 0.1, 0.0]], 0.7)
    kept = rows(head(cache, 0, 0))
    assert kept == sorted(kept)
    assert 6 in kept  # text entry survives


def test_compress_rejects_mismatched_scores():
    with pytest.raises(ValueError, match="scores"):
        retention([np.ones(3)], segments(4, 0), CompressionConfig(0.9, 0))


def test_power_of_two_scaling_keeps_retained_set():
    # scaling by 2**k is exact, so the normalized scores are the same floats
    raw = np.random.default_rng(3).uniform(0.1, 1, 10)
    kept = []
    for k in (0, -40, -1, 1, 40):
        cache = compressed(8, 2, [raw * 2.0 ** k], 0.6)
        kept.append(rows(head(cache, 0, 0)))
    assert len(kept[0]) < 10
    assert all(k == kept[0] for k in kept)


def test_zero_image_mass_compresses_as_uniform():
    cache = compressed(16, 1, [np.zeros(17)], 0.5)
    assert rows(head(cache, 0, 0)) == list(range(8)) + [16]


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 25), st.integers(0, 2**31 - 1))
def test_compress_monotone_in_beta(n, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.01, 1.0, n)
    kept = []
    for beta in (0.3, 0.6, 0.9, 1.0):
        cache = compressed(n, 0, [raw], beta)
        kept.append(set(rows(head(cache, 0, 0))))
    for a, b in zip(kept, kept[1:]):
        assert a <= b


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 12), st.integers(1, 6), st.floats(0.2, 0.999), st.integers(0, 2**31 - 1))
def test_non_image_entries_never_evicted(n_image, n_text, beta, seed):
    raw = np.random.default_rng(seed).uniform(0.01, 1.0, n_image + n_text)
    cache = compressed(n_image, n_text, [raw], beta, seed=seed)
    assert rows(head(cache, 0, 0))[-n_text:] == list(range(n_image, n_image + n_text))


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 3),
       st.sampled_from([0.3, 0.5, 0.75, 0.9, 0.999]), st.integers(0, 2**31 - 1))
def test_batched_rule_matches_minimal_prefix_per_head(n_heads, n_image, n_text, beta, seed):
    # small integer scores make ties, and all-zero image mass, common
    raw = np.random.default_rng(seed).integers(0, 4, (n_heads, n_image + n_text)).astype(float)
    retained, _ = retention(raw, segments(n_image, n_text), CompressionConfig(beta, 0))
    cache = compressed(n_image, n_text, raw, beta, seed=seed)
    for h in range(n_heads):
        img = raw[h, :n_image]
        norm = img / img.sum() if img.sum() > 0 else np.full(n_image, 1.0 / max(n_image, 1))
        expect = minimal_coverage_prefix(norm, beta)
        assert set(np.flatnonzero(retained[h, :n_image]).tolist()) == expect
        assert retained[h, n_image:].all()
        assert rows(head(cache, 0, h)) == sorted(expect) + list(range(n_image, n_image + n_text))


def test_compress_all_respects_start_layer():
    cache = make_cache(n_layers=3, n_heads=1)
    for layer in range(3):
        fill_layer(cache, layer, n_image=6, n_text=1, seed=layer)
    scores = [[np.random.default_rng(9).uniform(0.1, 1, 7)] for _ in range(3)]
    out = compress_all(cache, scores, [segments(6, 1)] * 3, CompressionConfig(0.5, 1))
    assert out.counts[0, 0] == 7
    assert out.counts[1, 0] < 7
    assert out.counts[2, 0] < 7
    for layer in range(3):
        hv = head(out, layer, 0)
        assert hv.keys.tobytes() == cache.keys[layer][0][rows(hv)].tobytes()
        assert hv.values.tobytes() == cache.values[layer][0][rows(hv)].tobytes()
    assert cache.counts[:, 0].tolist() == [7, 7, 7]  # the uncompressed cache is left as it was


def test_compress_all_start_at_end_is_noop():
    cache = fill_layer(make_cache(n_layers=1, n_heads=1), 0, n_image=5, n_text=0)
    out = compress_all(cache, [None], [segments(5, 0)], CompressionConfig(0.5, 1))
    assert out.counts[0, 0] == 5


def test_compress_all_uniform_scores_same_count_per_layer():
    cache = make_cache(n_layers=3, n_heads=1)
    for layer in range(3):
        fill_layer(cache, layer, n_image=10, n_text=2, seed=layer)
    scores = [[np.ones(12)] for _ in range(3)]
    out = compress_all(cache, scores, [segments(10, 2)] * 3, CompressionConfig(0.5, 0))
    assert len(set(out.counts[:, 0].tolist())) == 1


def test_compress_all_steeper_scores_retain_fewer():
    cache = make_cache(n_layers=3, n_heads=1)
    n = 16
    for layer in range(3):
        fill_layer(cache, layer, n_image=n, n_text=0, seed=layer)
    base = np.linspace(1.0, 2.0, n)
    scores = [[np.power(base, 8.0 * layer + 1.0)] for layer in range(3)]
    counts = compress_all(cache, scores, [segments(n, 0)] * 3, CompressionConfig(0.9, 0)).counts[:, 0].tolist()
    assert counts[0] > counts[1] > counts[2]


def test_compress_all_missing_layer_rejected():
    cache = make_cache(n_layers=2, n_heads=1)
    fill_layer(cache, 0, 4, 0)
    fill_layer(cache, 1, 4, 0)
    with pytest.raises(ValueError, match="missing scores"):
        compress_all(cache, [[np.ones(4)], None], [segments(4, 0)] * 2, CompressionConfig(0.9, 0))


def test_memory_estimate_empty():
    assert memory_estimate(make_cache()).total == 0


def test_memory_estimate_arithmetic():
    cache = KVCache(1, 1, 64)
    rng = np.random.default_rng(0)
    cache.extend_layer(0, rng.standard_normal((1, 10, 64)).astype(np.float32),
                       rng.standard_normal((1, 10, 64)).astype(np.float32))
    est = memory_estimate(cache)
    assert est.total == 10 * 2 * 64 * 4 == 5120


def test_memory_tracks_retained_fraction():
    before = memory_estimate(fill_layer(make_cache(n_heads=1), 0, n_image=100, n_text=0)).total
    ten = np.zeros(100)
    ten[:10] = 0.1
    after = memory_estimate(compressed(100, 0, [ten], 0.999)).total
    assert after == before // 10


def test_snapshot_csv(tmp_path):
    retained, scores = retention([[0.7, 0.2, 0.1, 0.0]], segments(3, 1), CompressionConfig(0.8, 1))
    uncompressed = LayerAudit(np.arange(4), segments(3, 1), None, None)
    compressed_layer = LayerAudit(np.arange(4), segments(3, 1), retained, scores)
    out = tmp_path / "snap.csv"
    dump_snapshot([uncompressed, compressed_layer], 1, out, "0123abcd")
    lines = out.read_text().splitlines()
    assert lines[0] == "# config_hash=0123abcd"
    csv_rows = list(csv.DictReader(lines[1:]))
    assert {r["layer"] for r in csv_rows} == {"0", "1"}
    layer0 = [r for r in csv_rows if r["layer"] == "0"]
    assert [(r["retained"], r["score"]) for r in layer0] == [("1", "")] * 4
    layer1 = [r for r in csv_rows if r["layer"] == "1"]
    assert len(layer1) == 4  # audit covers dropped entries too
    assert {r["retained"] for r in layer1} == {"0", "1"}
    dropped = [r for r in layer1 if r["retained"] == "0"]
    assert all(r["segment"] == "image" for r in dropped)


def test_audit_recorded_only_when_asked(tiny_model, tiny_seq):
    # retention returns what a layer's audit records: the mask and the scores
    scores = [np.arange(1.0, 8.0)] * 2
    retained, recorded = retention(scores, segments(6, 1), CompressionConfig(0.5, 0))
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=6, n_text=1, retained=retained)
    assert retained.shape == recorded.shape == (2, 7)
    for kept, row, hv in zip(retained, recorded, heads(cache)):
        assert np.arange(7)[kept].tolist() == rows(hv)
        # image scores are recorded normalized, the text entry's as given
        assert row[:6].sum() == pytest.approx(1.0)
        assert row[6] == 7.0
    assert scores[0].tolist() == list(np.arange(1.0, 8.0))  # the caller's scores are not normalized in place
    # prefill keeps it in the layer record only when asked
    pipe = PipelineConfig(None, CompressionConfig(0.5, 0))
    assert all(r.evictions is None for r in prefill(tiny_model, tiny_seq, pipe).metrics.layers)
    audits = [r.evictions for r in prefill(tiny_model, tiny_seq, pipe, audit=True).metrics.layers]
    assert all(isinstance(a, LayerAudit) for a in audits)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 5), st.integers(0, 12), st.integers(0, 3), st.sampled_from([0.3, 0.7, 1.0]),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_extend_layer_keeps_each_heads_marked_entries(n_heads, n_image, n_text, p, blind, seed):
    """Each head holds exactly its masked rows, in row order, in buffers sized
    to the largest head with zero padding. p 1.0 keeps every entry; `blind`
    makes head 0 keep no image entry."""
    n = n_image + n_text
    rng = np.random.default_rng(seed)
    retained = rng.uniform(size=(n_heads, n)) < p
    retained[0, :n_image] &= not blind
    keys, values = layer_entries(n_heads, n, seed=seed)
    cache = make_cache(n_heads=n_heads)
    cache.extend_layer(0, keys, values, retained)
    counts = retained.sum(axis=1)
    top = int(counts.max())
    assert cache.counts[0].tolist() == counts.tolist()
    assert cache.keys[0].shape == cache.values[0].shape == (n_heads, top, 4)
    for h, hv in enumerate(heads(cache)):
        assert hv.keys.tobytes() == keys[h][retained[h]].tobytes()
        assert hv.values.tobytes() == values[h][retained[h]].tobytes()
        assert rows(hv) == np.flatnonzero(retained[h]).tolist()
        for buf in (cache.keys[0], cache.values[0]):
            assert not buf[h, counts[h]:].any()
    assert memory_estimate(cache).allocated == n_heads * top * 2 * 4 * 4


def test_extend_layer_rejects_bad_layer():
    cache = make_cache(n_layers=3)
    for layer in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            fill_layer(cache, layer, n_image=3, n_text=2)
    assert not cache.counts.any()


def test_extend_layer_rejects_mask_of_wrong_shape():
    cache = make_cache(n_heads=2)
    with pytest.raises(ValueError, match="retained mask"):
        fill_layer(cache, 0, n_image=3, n_text=2, retained=np.ones((2, 4), dtype=bool))
    assert not cache.counts.any()


def test_extend_layer_rejects_values_of_another_length():
    keys, values = layer_entries(2, 5)
    cache = make_cache(n_heads=2)
    with pytest.raises(ValueError):
        cache.extend_layer(0, keys, values[:, :4])
    assert not cache.counts.any()


def test_grow_adds_an_eighth_of_capacity():
    cache = fill_layer(make_cache(n_heads=1), 0, n_image=0, n_text=64)
    assert cache.keys[0].shape[1] == 64
    cache.append(0, kv(n_heads=1, fill=64.0), kv(n_heads=1))
    assert cache.keys[0].shape[1] == cache.values[0].shape[1] == 64 + 64 // _GROWTH_DIV
    assert rows(head(cache, 0, 0)) == list(range(65))


def test_extend_layer_fills_only_an_empty_layer():
    cache = fill_layer(make_cache(), 0, n_image=3, n_text=1)
    with pytest.raises(ValueError, match="already filled"):
        fill_layer(cache, 0, n_image=3, n_text=1)
    assert cache.counts[0].tolist() == [4, 4]


def test_memory_estimate_allocated_counts_capacity():
    cache = fill_layer(make_cache(n_heads=2), 0, n_image=30, n_text=2)
    est = memory_estimate(cache)
    row = 2 * 4 * 4  # key + value float32
    assert est.allocated == 2 * 32 * row
    assert est.total == 2 * 32 * 2 * 4 * 4
    cache.append(0, kv(), kv())
    assert memory_estimate(cache).allocated == 2 * (32 + 32 // _GROWTH_DIV) * row
