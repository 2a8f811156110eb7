import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightinfer import (
    ModelConfig,
    build_input,
    generate,
    init_model,
    merge_tokens,
    prefill,
)
from lightinfer.kvcache import coverage_prefix
from lightinfer.oracle import full_recompute_decode, naive_weighted_merge

from conftest import pipeline


def test_naive_merge_identical_rows():
    v = np.array([2.0, -1.0], np.float32)
    out = naive_weighted_merge(np.stack([v, v, v]), [0.5, 0.3, 0.2])
    assert np.allclose(out, v, atol=1e-6)


def test_naive_merge_one_hot_selects_row():
    rows = np.array([[1, 2], [3, 4], [5, 6]], np.float32)
    assert np.array_equal(naive_weighted_merge(rows, [0.0, 1.0, 0.0]), rows[1])


def test_naive_merge_rejects_unnormalized_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        naive_weighted_merge(np.ones((2, 2), np.float32), [0.9, 0.3])


def test_fast_merge_matches_naive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        r = int(rng.integers(0, 33))
        c = int(rng.integers(1, 65))
        rows = rng.uniform(-1, 1, (r + 1, c)).astype(np.float32)
        w = np.arange(r + 1, 0, -1, dtype=np.float32)
        assert np.abs(merge_tokens(rows) - naive_weighted_merge(rows, w / w.sum())).max() < 1e-6


def test_recompute_single_step_equals_prefill_argmax():
    model = init_model(ModelConfig(n_layers=3, n_heads=2, dim=16, vocab=32, seed=0))
    seq = build_input(2, 10, 3, redundancy=0.3, seed=1, dim=16)
    p = pipeline((1, 2), keep_ratio=0.5, merging=True, compression=False)
    ids = full_recompute_decode(model, seq, p, 1)
    assert ids == [int(np.argmax(prefill(model, seq, p).logits))]


@pytest.mark.parametrize("merging", [False, True])
def test_recompute_matches_cached_decode(merging):
    model = init_model(ModelConfig(n_layers=3, n_heads=2, dim=16, vocab=32, seed=5))
    seq = build_input(2, 12, 3, redundancy=0.4, seed=6, dim=16)
    cached = pipeline((1, 2), keep_ratio=0.5, beta=1.0, merging=merging, compression=True)
    uncached = pipeline((1, 2), keep_ratio=0.5, merging=merging, compression=False)
    assert generate(model, seq, cached, 6)[0] == full_recompute_decode(model, seq, uncached, 6)


def test_recompute_rejects_compression():
    model = init_model(ModelConfig(n_layers=2, n_heads=2, dim=16, vocab=32, seed=0))
    seq = build_input(1, 4, 1, seed=0, dim=16)
    with pytest.raises(ValueError, match="compression"):
        full_recompute_decode(model, seq, pipeline((1,), compression=True), 2)


def mass_curve(scores, thresholds):
    """k per threshold, as `analyze` counts it: the coverage prefix of the normalized scores."""
    s = np.asarray(scores, dtype=np.float64)
    norm = s / s.sum()
    return [coverage_prefix(norm, np.arange(s.size), t).size for t in thresholds]


def test_mass_curve_uniform():
    assert mass_curve(np.ones(100), [0.95]) == [95]


def test_mass_curve_one_hot():
    scores = np.zeros(50)
    scores[13] = 3.0
    assert mass_curve(scores, [0.5, 0.9, 1.0]) == [1, 1, 1]


def test_mass_curve_reporting_fractions():
    rng = np.random.default_rng(23)
    scores = rng.pareto(1.5, size=400)
    (k,) = mass_curve(scores, [0.95])
    assert 1 <= k <= 400
    top = np.sort(scores)[::-1][:k]
    assert top.sum() / scores.sum() >= 0.95
    assert top[:-1].sum() / scores.sum() < 0.95


@settings(deadline=None)
@given(st.lists(st.floats(0.001, 10.0), min_size=1, max_size=60))
def test_mass_curve_monotone_in_threshold(vals):
    ks = mass_curve(np.array(vals), [0.25, 0.5, 0.75, 0.9, 1.0])
    assert all(a <= b for a, b in zip(ks, ks[1:]))
