import numpy as np
import pytest

from lightinfer.attention import _BLOCK, AttentionWeights, attend_single_query, multi_head_attention
from lightinfer.oracle import full_attention


def random_weights(dim=32, heads=4, seed=0, scale=0.2):
    rng = np.random.default_rng(seed)
    return AttentionWeights(
        heads, *(rng.uniform(-scale, scale, (dim, dim)).astype(np.float32) for _ in range(4))
    )


def random_hidden(n, dim=32, seed=0):
    return np.random.default_rng(seed).standard_normal((n, dim)).astype(np.float32)


def test_single_token_cumulative_score_is_one():
    out = multi_head_attention(random_hidden(1), random_weights())
    assert np.allclose(out.cum_scores, 1.0, atol=1e-6)
    assert out.avg_cum_scores.shape == (1,)


@pytest.mark.parametrize("n", [1, 5, 16, 33])
def test_cumulative_scores_total_equals_n(n):
    out = multi_head_attention(random_hidden(n, seed=n), random_weights(seed=n))
    assert np.abs(out.cum_scores.sum(axis=1) - n).max() < 1e-4


def test_cumulative_mode_matches_full_column_sums():
    hidden = random_hidden(16, seed=7)
    w = random_weights(seed=7)
    _, _, full_scores = full_attention(hidden, w)
    cum = multi_head_attention(hidden, w)
    col_sums = full_scores.sum(axis=1)
    assert np.abs(cum.cum_scores - col_sums).max() < 1e-5


# Query-block boundaries (one short, exact, one past, one past two blocks)
# plus the default config's full sequence length.
@pytest.mark.parametrize("n", sorted({8, 128, 300, 517, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      2 * _BLOCK + 1, 1556}))
def test_mode_equivalence_context_and_scores(n):
    hidden = random_hidden(n, seed=n)
    w = random_weights(seed=n)
    ref_context, ref_cum, _ = full_attention(hidden, w)
    out = multi_head_attention(hidden, w)
    assert np.abs(ref_context - out.context).max() < 1e-5
    assert np.abs(ref_cum.mean(axis=0) - out.avg_cum_scores).max() < 1e-5


def test_full_scores_rows_stochastic_and_causal():
    _, _, s = full_attention(random_hidden(12, seed=9), random_weights(seed=9))
    assert np.abs(s.sum(axis=2) - 1.0).max() < 1e-5
    for h in range(s.shape[0]):
        assert np.allclose(np.triu(s[h], k=1), 0.0)


def test_causality_future_token_does_not_change_past_context():
    # the poked token sits inside the second query block's diagonal tile
    hidden = random_hidden(_BLOCK + 10, seed=11)
    w = random_weights(seed=11)
    base = multi_head_attention(hidden, w)
    poked = hidden.copy()
    poked[_BLOCK + 3] += 3.0
    out = multi_head_attention(poked, w)
    assert np.array_equal(base.context[:_BLOCK + 3], out.context[:_BLOCK + 3])


def test_head_permutation_equivariance():
    hidden = random_hidden(9, seed=13)
    rng = np.random.default_rng(13)
    dim, heads, hd = 32, 4, 8
    mats = [rng.uniform(-0.2, 0.2, (dim, dim)).astype(np.float32) for _ in range(4)]
    w = AttentionWeights(heads, *mats)
    perm = [2, 0, 3, 1]

    def permute_cols(m):
        blocks = [m[:, h * hd:(h + 1) * hd] for h in perm]
        return np.concatenate(blocks, axis=1)

    w_p = AttentionWeights(heads, permute_cols(mats[0]), permute_cols(mats[1]),
                           permute_cols(mats[2]), mats[3])
    a = multi_head_attention(hidden, w)
    b = multi_head_attention(hidden, w_p)
    assert np.abs(a.cum_scores[perm] - b.cum_scores).max() < 1e-6
    assert np.abs(a.avg_cum_scores - b.avg_cum_scores).max() < 1e-6


def test_head_count_must_divide_dim():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="divide"):
        AttentionWeights(5, *(rng.uniform(-1, 1, (32, 32)).astype(np.float32) for _ in range(4)))


def test_hidden_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="dim"):
        multi_head_attention(random_hidden(4, dim=16), random_weights(dim=32))


def test_attend_single_query_matches_manual_softmax():
    rng = np.random.default_rng(19)
    q = rng.standard_normal(8).astype(np.float32)
    keys = rng.standard_normal((6, 8)).astype(np.float32)
    values = rng.standard_normal((6, 8)).astype(np.float32)
    logits = keys @ q / np.sqrt(8)
    p = np.exp(logits - logits.max())
    p /= p.sum()
    assert np.abs(attend_single_query(q, keys, values) - p @ values).max() < 1e-5
