import sys

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
from lightinfer import merge, verify
from lightinfer.kvcache import coverage_prefix, retention
from lightinfer.merge import TokenSequence, is_image_segment
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
    ids, _ = full_recompute_decode(model, seq, p, 1)
    assert ids == [int(np.argmax(prefill(model, seq, p).logits))]


@pytest.mark.parametrize("merging,beta", [(False, 1.0), (True, 1.0), (True, 0.5)],
                         ids=["False", "True", "compressed"])
def test_recompute_matches_cached_decode(merging, beta):
    model = init_model(ModelConfig(n_layers=3, n_heads=2, dim=16, vocab=32, seed=5))
    seq = build_input(2, 12, 3, redundancy=0.4, seed=6, dim=16)
    p = pipeline((1, 2), keep_ratio=0.5, beta=beta, merging=merging, compression=True)
    assert generate(model, seq, p, 6)[0] == full_recompute_decode(model, seq, p, 6)[0]


REAL_MERGE_STAGE = merge.pyramid_merge_layer


def merged_token_first(seq, importance, keep_count):
    """The real merge stage, but a stage that merges puts its MERGED_IMAGE token,
    the last image token it leaves, in front of the first one."""
    out = REAL_MERGE_STAGE(seq, importance, keep_count)
    if out is seq:
        return out
    image = np.flatnonzero(is_image_segment(out.segments))
    order = np.insert(np.delete(np.arange(len(out)), image[-1]), image[0], image[-1])
    return TokenSequence(out.embeddings[order], out.segments[order], out.positions[order])


def test_decode_checks_catch_a_misplaced_merged_token(monkeypatch):
    # every lightinfer module bound to the real stage gets the faulty one, so an
    # oracle that replays merges with the engine's own stage would agree with it
    patched = [name for name, mod in sorted(sys.modules.items())
               if name.startswith("lightinfer")
               and getattr(mod, "pyramid_merge_layer", None) is REAL_MERGE_STAGE]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "pyramid_merge_layer", merged_token_first)
    assert "lightinfer.model" in patched
    assert not verify.check_cache_decode_equivalence()[0]
    assert not verify.check_compressed_decode_equivalence()[0]


def test_compressed_decode_check_catches_heads_keeping_each_others_entries(monkeypatch):
    # each head keeps the entries its neighbour's scores pick; the oracle decides
    # its own evictions and imports neither `retention` nor `coverage_prefix`,
    # so it does not see the fault
    def rolled(raw_scores, segments, config):
        return retention(np.roll(raw_scores, 1, axis=0), segments, config)

    monkeypatch.setattr("lightinfer.model.retention", rolled)
    assert not verify.check_compressed_decode_equivalence()[0]


def mass_curve(scores, thresholds):
    """k per threshold, as `analyze` counts it: the coverage prefix of the normalized scores."""
    s = np.asarray(scores, dtype=np.float64)
    norm = s / s.sum()
    return [int(coverage_prefix(norm[None], t).sum()) for t in thresholds]


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
