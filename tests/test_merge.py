import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightinfer.merge import (
    MergeSchedule,
    Segment,
    TokenSequence,
    merge_tokens,
    merge_weights,
    partition_tokens,
    plan_keep_counts,
    pyramid_merge_layer,
)
from lightinfer.oracle import literal_merge_stage


# --- keep-count planning -----------------------------------------------------

def test_plan_identity_ratio():
    assert plan_keep_counts(1000, 1.0, 3) == [1000, 1000, 1000]


def test_plan_three_percent():
    assert plan_keep_counts(1000, 0.03, 3) == [311, 97, 30]


def test_plan_floor_clamp():
    counts = plan_keep_counts(4, 0.03, 3)
    assert all(c >= 1 for c in counts)
    assert counts[-1] >= 1


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.5])
def test_plan_rejects_bad_ratio(bad):
    with pytest.raises(ValueError):
        plan_keep_counts(100, bad, 3)


@settings(deadline=None)
@given(st.integers(1, 4000), st.sampled_from([1.0, 0.5, 0.35, 0.15, 0.03]),
       st.integers(1, 4))
def test_plan_counts_non_increasing_and_positive(n, ratio, stages):
    counts = plan_keep_counts(n, ratio, stages)
    assert len(counts) == stages
    assert all(c >= 1 for c in counts)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] <= n


@pytest.mark.parametrize("n,ratio", [(1000, 0.03), (1476, 0.35), (2048, 0.15), (500, 0.5)])
def test_plan_product_reproduces_target(n, ratio):
    counts = plan_keep_counts(n, ratio, 3)
    assert abs(counts[-1] - n * ratio) <= 1.0


def test_schedule_resolve_and_validation():
    assert MergeSchedule((5, 9, 13), 0.03).keep_counts(1000) == {5: 311, 9: 97, 13: 30}
    with pytest.raises(ValueError, match="strictly increasing"):
        MergeSchedule((5, 5, 9), 0.5)


# --- partitioning ------------------------------------------------------------

def test_partition_example():
    unmerged, merged = partition_tokens(np.array([0.4, 0.1, 0.3, 0.05, 0.15], np.float32), 2)
    assert unmerged.tolist() == [0, 2]
    assert merged.tolist() == [4, 1, 3]


def test_partition_r_zero_takes_single_least():
    unmerged, merged = partition_tokens(np.array([0.4, 0.1, 0.3], np.float32), 0)
    assert merged.tolist() == [1]
    assert unmerged.tolist() == [0, 2]


def test_partition_all_equal_tie_break_by_position():
    unmerged, merged = partition_tokens(np.ones(5, np.float32), 2)
    assert unmerged.tolist() == [0, 1]
    assert merged.tolist() == [2, 3, 4]


def test_partition_rejects_r_too_large():
    with pytest.raises(ValueError):
        partition_tokens(np.ones(3, np.float32), 3)


@settings(deadline=None)
@given(st.lists(st.floats(0, 1, width=32), min_size=1, max_size=40), st.data())
def test_partition_matches_sort_oracle(vals, data):
    imp = np.array(vals, dtype=np.float32)
    r = data.draw(st.integers(0, imp.size - 1))
    unmerged, merged = partition_tokens(imp, r)
    order = sorted(range(imp.size), key=lambda i: (-float(imp[i]), i))
    assert unmerged.tolist() == sorted(order[: imp.size - (r + 1)])
    assert merged.tolist() == order[imp.size - (r + 1):]
    # disjoint cover and importance dominance
    both = set(unmerged.tolist()) | set(merged.tolist())
    assert both == set(range(imp.size))
    if unmerged.size:
        assert imp[unmerged].min() >= imp[merged].max()


@settings(deadline=None)
@given(st.lists(st.floats(2.0**-10, 1, width=32), min_size=2, max_size=20),
       st.sampled_from([2.0**k for k in range(-4, 7)]), st.data())
def test_partition_scale_invariance(vals, c, data):
    # powers of two scale float32 exactly, so no new ties can appear
    imp = np.array(vals, dtype=np.float32)
    r = data.draw(st.integers(0, imp.size - 1))
    a_unmerged, a_merged = partition_tokens(imp, r)
    b_unmerged, b_merged = partition_tokens(imp * np.float32(c), r)
    assert a_unmerged.tolist() == b_unmerged.tolist()
    assert a_merged.tolist() == b_merged.tolist()


# --- weights and merging -----------------------------------------------------

def test_merge_weights_raw_list():
    w = merge_weights(2)
    assert np.allclose(w * 6.0, [3.0, 2.0, 1.0])


def test_merge_weights_r_zero():
    assert merge_weights(0).tolist() == [1.0]


def test_merge_weights_normalized_values():
    assert np.allclose(merge_weights(2), [0.5, 1 / 3, 1 / 6])


@pytest.mark.parametrize("r", [0, 1, 5, 33])
def test_merge_weights_decreasing_and_normalized(r):
    w = merge_weights(r)
    assert w.shape == (r + 1,)
    assert abs(float(w.sum()) - 1.0) < 1e-6
    assert all(a > b for a, b in zip(w, w[1:])) or r == 0


def test_merge_tokens_identical_rows_is_identity():
    v = np.array([1.5, -2.0, 0.25], np.float32)
    out = merge_tokens(np.stack([v, v, v]))
    assert np.allclose(out, v, atol=1e-6)


def test_merge_tokens_hand_case():
    rows = np.array([[1, 0], [0, 1], [1, 1]], np.float32)
    assert np.allclose(merge_tokens(rows), [2 / 3, 0.5], atol=1e-6)


def test_merge_tokens_single_row_identity():
    out = merge_tokens(np.array([[5.0, 7.0]], np.float32))
    assert np.array_equal(out, np.array([5.0, 7.0], np.float32))


def test_merge_tokens_rejects_empty():
    with pytest.raises(ValueError):
        merge_tokens(np.zeros((0, 3), np.float32))


@settings(deadline=None)
@given(st.integers(0, 16), st.integers(1, 32), st.integers(0, 2**31 - 1))
def test_merge_tokens_convexity(r, c, seed):
    rows = np.random.default_rng(seed).uniform(-2, 2, (r + 1, c)).astype(np.float32)
    out = merge_tokens(rows)
    assert (out >= rows.min(axis=0) - 1e-5).all()
    assert (out <= rows.max(axis=0) + 1e-5).all()


# --- pyramid merge stage -----------------------------------------------------

def seq_with(n_sys, n_img, n_ins, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    n = n_sys + n_img + n_ins
    segs = np.array([Segment.SYSTEM_PROMPT] * n_sys + [Segment.IMAGE] * n_img
                    + [Segment.INSTRUCTION] * n_ins, dtype=np.int8)
    return TokenSequence(rng.standard_normal((n, dim)).astype(np.float32), segs,
                         np.arange(n, dtype=np.int64))


def test_pyramid_noop_when_keeping_all():
    seq = seq_with(2, 5, 3)
    out = pyramid_merge_layer(seq, np.arange(5, dtype=np.float32), 5)
    assert out is seq


def test_pyramid_five_to_three():
    seq = seq_with(2, 5, 3)
    imp = np.array([0.4, 0.1, 0.3, 0.05, 0.15], np.float32)
    out = pyramid_merge_layer(seq, imp, 3)
    assert len(out) == 2 + 3 + 3
    segs = out.segments
    img_mask = (segs == Segment.IMAGE) | (segs == Segment.MERGED_IMAGE)
    assert int(img_mask.sum()) == 3
    assert int((segs == Segment.MERGED_IMAGE).sum()) == 1
    # survivors are image tokens 0 and 2 (original positions 2 and 4)
    kept = out.positions[segs == Segment.IMAGE]
    assert kept.tolist() == [2, 4]
    # merged token sits right after the last survivor, position slot +1
    merged_at = int(np.flatnonzero(segs == Segment.MERGED_IMAGE)[0])
    assert out.positions[merged_at] == 5
    assert merged_at == 4
    # text passes through bit-identical
    assert np.array_equal(out.embeddings[:2], seq.embeddings[:2])
    assert np.array_equal(out.embeddings[-3:], seq.embeddings[-3:])
    # merged row equals the weighted sum of rows [4, 1, 3] by importance order
    expect = merge_tokens(seq.embeddings[[2 + 4, 2 + 1, 2 + 3]])
    assert np.allclose(out.embeddings[merged_at], expect, atol=1e-6)


def test_pyramid_collapse_all_image_tokens():
    seq = seq_with(0, 4, 0)
    imp = np.array([0.3, 0.1, 0.4, 0.2], np.float32)
    out = pyramid_merge_layer(seq, imp, 1)
    assert len(out) == 1
    assert out.segments[0] == Segment.MERGED_IMAGE
    expect = merge_tokens(seq.embeddings[[2, 0, 3, 1]])
    assert np.allclose(out.embeddings[0], expect, atol=1e-6)


def test_pyramid_length_arithmetic():
    seq = seq_with(3, 20, 4)
    out = pyramid_merge_layer(seq, np.random.default_rng(5).uniform(size=20).astype(np.float32), 7)
    assert len(seq) - len(out) == 20 - 7


def test_pyramid_rejects_keep_count_too_large():
    seq = seq_with(1, 3, 1)
    with pytest.raises(ValueError, match="exceeds"):
        pyramid_merge_layer(seq, np.ones(3, np.float32), 4)


def test_pyramid_importance_dominance():
    rng = np.random.default_rng(6)
    seq = seq_with(2, 12, 2)
    imp = rng.uniform(size=12).astype(np.float32)
    out = pyramid_merge_layer(seq, imp, 5)
    kept_positions = out.positions[out.segments == Segment.IMAGE]
    kept_imp = imp[[p - 2 for p in kept_positions]]
    dropped = set(range(12)) - {int(p) - 2 for p in kept_positions}
    assert kept_imp.min() >= imp[sorted(dropped)].max()


# --- pyramid merge stage against the list-built oracle stage ------------------

IMAGE_KINDS = (Segment.IMAGE, Segment.MERGED_IMAGE)


def assert_matches_reference(seq, importance, keep_count):
    out = pyramid_merge_layer(seq, importance, keep_count)
    ref = literal_merge_stage(seq, importance, keep_count)
    assert out.embeddings.tobytes() == ref.embeddings.tobytes()
    assert out.segments.tolist() == ref.segments.tolist()
    assert out.positions.tolist() == ref.positions.tolist()


def labelled_seq(labels, positions=None, seed=0, dim=4):
    rng = np.random.default_rng(seed)
    n = len(labels)
    return TokenSequence(rng.standard_normal((n, dim)).astype(np.float32),
                         np.array(labels, dtype=np.int8),
                         np.arange(n) if positions is None else positions)


S, I, T, G, M = (Segment.SYSTEM_PROMPT, Segment.IMAGE, Segment.INSTRUCTION,
                 Segment.GENERATED, Segment.MERGED_IMAGE)
# image tokens interleaved with text, with a merged token from an earlier stage
INTERLEAVED = [S, I, T, I, I, M, G, I, T, I, S]


@pytest.mark.parametrize("keep_count", range(1, 7))
def test_pyramid_interleaved_layout_matches_reference(keep_count):
    seq = labelled_seq(INTERLEAVED)
    imp = np.array([0.2, 0.5, 0.1, 0.5, 0.3, 0.05], np.float32)
    assert_matches_reference(seq, imp, keep_count)


def test_pyramid_stage_with_no_survivors_takes_the_first_image_slot():
    seq = labelled_seq(INTERLEAVED)
    out = pyramid_merge_layer(seq, np.ones(6, np.float32), 1)
    assert out.segments.tolist() == [S, M, T, G, T, S]
    assert out.positions.tolist() == [0, 1, 2, 6, 8, 10]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.sampled_from(list(Segment)), min_size=1, max_size=24)
       .filter(lambda labels: any(s in IMAGE_KINDS for s in labels)),
       st.data())
def test_pyramid_matches_list_reference(labels, data):
    n_img = sum(s in IMAGE_KINDS for s in labels)
    # non-decreasing positions with repeats, as after an earlier merge stage
    steps = data.draw(st.lists(st.integers(0, 2), min_size=len(labels), max_size=len(labels)))
    seq = labelled_seq(labels, np.cumsum(steps), seed=data.draw(st.integers(0, 2**16)))
    # coarse levels force importance ties
    imp = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_img, max_size=n_img)),
                   np.float32) / 4
    assert_matches_reference(seq, imp, data.draw(st.integers(1, n_img)))
