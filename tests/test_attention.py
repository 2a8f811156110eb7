from dataclasses import asdict

import numpy as np
import pytest

from lightinfer import ModelConfig, attention, build_input, init_model
from lightinfer.attention import (_BLOCK, _SAFE_LOGIT, AttentionWeights, Workspace,
                                  attend_single_query, multi_head_attention, rows)
from lightinfer.config import InputConfig
from lightinfer.model import layer_norm
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
    assert out.cum_scores.mean(axis=0).shape == (1,)


# Small sizes, the query-block boundaries and the default config's full length.
@pytest.mark.parametrize("n", [1, 5, 16, 33, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 1556])
def test_cumulative_scores_total_equals_n(n):
    out = multi_head_attention(random_hidden(n, seed=n), random_weights(seed=n))
    assert np.abs(out.cum_scores.sum(axis=1) - n).max() < 1e-4


def test_back_to_back_calls_share_no_memory():
    # one logits buffer per call: nothing returned may alias a buffer a later call reuses
    w = random_weights(seed=3)
    first = multi_head_attention(random_hidden(_BLOCK + 7, seed=3), w)
    kept = {name: getattr(first, name).copy() for name in ("context", "cum_scores", "keys", "values")}
    second = multi_head_attention(random_hidden(_BLOCK + 7, seed=4), w)
    for name, before in kept.items():
        for other in ("context", "cum_scores", "keys", "values"):
            assert not np.shares_memory(getattr(first, name), getattr(second, other))
        assert np.array_equal(getattr(first, name), before)


def test_cumulative_mode_matches_full_column_sums():
    hidden = random_hidden(16, seed=7)
    w = random_weights(seed=7)
    _, _, full_scores = full_attention(hidden, w)
    cum = multi_head_attention(hidden, w)
    col_sums = full_scores.sum(axis=1)
    assert np.abs(cum.cum_scores - col_sums).max() < 1e-5


def head_logits(hidden, w):
    """(H, N, N) scaled logits q_i . k_j / sqrt(hd), before the causal mask."""
    n, hd = hidden.shape[0], w.head_dim
    q, k = ((hidden @ m).reshape(n, w.n_heads, hd).transpose(1, 0, 2) for m in (w.wq, w.wk))
    return q @ k.transpose(0, 2, 1) / np.sqrt(hd)


def logit_bound(hidden, w):
    """The Cauchy-Schwarz bound sqrt(max_i |q_i|^2 * max_j |k_j|^2), q scaled by 1/sqrt(hd)."""
    n, hd = hidden.shape[0], w.head_dim
    q, k = ((hidden @ m).reshape(n, w.n_heads, hd) for m in (w.wq, w.wk))
    return np.sqrt((q ** 2).sum(-1).max() / hd * (k ** 2).sum(-1).max())


# Query-block boundaries (one short, exact, one past, one past two blocks)
# plus the default config's full sequence length.
MODE_SIZES = sorted({8, 128, 300, 517, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 1556})


@pytest.mark.parametrize("n", MODE_SIZES)
def test_mode_equivalence_context_and_scores(n):
    hidden = random_hidden(n, seed=n)
    w = random_weights(seed=n)
    assert logit_bound(hidden, w) <= _SAFE_LOGIT  # the kernel skips the max shift
    ref_context, ref_cum, _ = full_attention(hidden, w)
    out = multi_head_attention(hidden, w)
    assert np.abs(ref_context - out.context).max() < 1e-5
    assert np.abs(ref_cum.mean(axis=0) - out.cum_scores.mean(axis=0)).max() < 1e-5


@pytest.mark.parametrize("n", MODE_SIZES)
def test_large_logits_match_full_attention(n):
    """wq and wk rescaled to a largest visible logit of 120, past where float32
    exp overflows (88.7): the kernel must shift, and still match the oracle."""
    hidden = random_hidden(n, seed=n)
    w = random_weights(seed=n)
    causal = np.tril(np.ones((n, n), dtype=bool))
    g = np.float32(np.sqrt(120.0 / np.abs(head_logits(hidden, w)[:, causal]).max()))
    w = AttentionWeights(w.n_heads, w.wq * g, w.wk * g, w.wv, w.wo)
    assert np.abs(head_logits(hidden, w)[:, causal]).max() > 100
    ref_context, ref_cum, _ = full_attention(hidden, w)
    out = multi_head_attention(hidden, w)
    assert np.abs(ref_context - out.context).max() < 1e-5
    ref_mean = ref_cum.mean(axis=0)
    # Sharp rows pile their mass on few keys, whose cumulative scores reach
    # ~30 at n=1556; float32 sums of them agree to ~1e-6 relative.
    assert np.abs(ref_mean - out.cum_scores.mean(axis=0)).max() < 1e-6 * ref_mean.max()


def test_large_values_keep_the_max_shift():
    """Logits up to the bound's limit with huge values: e^60 * |v| alone overflows
    float32, so the kernel must shift even though the logit bound allows skipping."""
    n = 16
    hidden = random_hidden(n, seed=29)
    base = random_weights(seed=29)
    # wk = wq puts the largest logit on a diagonal, where it equals the bound
    g = np.sqrt(60.0 / logit_bound(hidden, AttentionWeights(4, base.wq, base.wq, base.wv, base.wo)))
    w = AttentionWeights(4, base.wq * g, base.wq * g, base.wv * np.float32(1e13), base.wo)
    assert 59 < logit_bound(hidden, w) <= _SAFE_LOGIT
    ref_context, ref_cum, _ = full_attention(hidden, w)
    out = multi_head_attention(hidden, w)
    assert np.isfinite(ref_context).all() and np.isfinite(out.context).all()
    assert np.abs(ref_context - out.context).max() < 1e-4 * np.abs(ref_context).max()
    assert np.abs(ref_cum - out.cum_scores).max() < 1e-5


@pytest.mark.parametrize("row", [0, _BLOCK + 3, 2 * _BLOCK])
def test_nan_input_takes_the_shifted_path(row, monkeypatch):
    """A NaN makes the logit bound NaN, which fails the bound test, so the kernel
    returns exactly what it returns with the max shift forced on."""
    hidden = random_hidden(2 * _BLOCK + 1, seed=31)
    hidden[row, 5] = np.nan
    w = random_weights(seed=31)
    out = multi_head_attention(hidden, w)
    monkeypatch.setattr(attention, "_max_sq_norm", lambda x: np.inf)
    shifted = multi_head_attention(hidden, w)
    assert np.isnan(out.context[row:]).all() and np.isnan(out.cum_scores).all()
    assert np.array_equal(out.context, shifted.context, equal_nan=True)
    assert np.array_equal(out.cum_scores, shifted.cum_scores, equal_nan=True)


@pytest.fixture(scope="module")
def default_layer0():
    """The default model's first-layer attention weights and its normalized input."""
    cfg = ModelConfig()
    seq = build_input(**asdict(InputConfig()), dim=cfg.dim)
    return layer_norm(seq.embeddings), init_model(cfg).layers[0].attn


@pytest.mark.parametrize("n", [8, _BLOCK + 1, 300, None])
def test_default_model_skips_the_max_shift(default_layer0, n, monkeypatch):
    """On the default model the kernel takes the unshifted branch: its output
    is bit-equal to the kernel with the shift forced off, and differs from
    the kernel with the shift forced on. n=None is the full input."""
    hidden, w = default_layer0
    hidden = hidden[:n]
    out = multi_head_attention(hidden, w)
    monkeypatch.setattr(attention, "_max_sq_norm", lambda x: 0.0)
    unshifted = multi_head_attention(hidden, w)
    monkeypatch.setattr(attention, "_max_sq_norm", lambda x: np.inf)
    shifted = multi_head_attention(hidden, w)
    assert np.array_equal(out.context, unshifted.context)
    assert np.array_equal(out.cum_scores, unshifted.cum_scores)
    assert not np.array_equal(out.context, shifted.context)


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
    assert np.abs(a.cum_scores.mean(axis=0) - b.cum_scores.mean(axis=0)).max() < 1e-6


def test_head_count_must_divide_dim():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="divide"):
        AttentionWeights(5, *(rng.uniform(-1, 1, (32, 32)).astype(np.float32) for _ in range(4)))


def test_hidden_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="dim"):
        multi_head_attention(random_hidden(4, dim=16), random_weights(dim=32))


def test_workspace_too_small_rejected():
    w = random_weights()
    for ws in (Workspace(3, w.dim, w.n_heads), Workspace(8, w.dim, 2 * w.n_heads)):
        with pytest.raises(ValueError, match="workspace"):
            multi_head_attention(random_hidden(4), w, ws)


# Both sides of the query-block boundaries; scale 3.0 takes the shifted softmax.
@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300])
@pytest.mark.parametrize("scale", [0.2, 3.0])
@pytest.mark.parametrize("input_in_workspace", [False, True])
def test_stale_workspace_changes_no_bit(n, scale, input_in_workspace):
    # A NaN-filled workspace for more rows: a read before a write leaves a
    # NaN. A context row written over a q or k^T row before it is read
    # departs from the oracle, with or without the stale workspace.
    w = random_weights(seed=n, scale=scale)
    hidden = random_hidden(n, seed=n)
    expect = multi_head_attention(hidden, w)
    ref_context, ref_cum, _ = full_attention(hidden, w)
    assert np.abs(expect.context - ref_context).max() <= 1e-4 * np.abs(ref_context).max()
    assert np.abs(expect.cum_scores - ref_cum).max() <= 1e-4
    ws = Workspace(2 * 300, w.dim, w.n_heads)
    for block in (ws.wide, ws.narrow, ws.residual, ws.scratch):
        block.fill(np.nan)
    if input_in_workspace:  # as prefill passes it: the layer norm's output in `narrow`
        inside = rows(ws.narrow, n, w.dim)
        inside[:] = hidden
        hidden = inside
    got = multi_head_attention(hidden, w, ws)
    for name in ("context", "cum_scores", "keys", "values"):
        assert np.array_equal(getattr(got, name), getattr(expect, name)), name


def softmax_reference(q, keys, values):
    """One head's decode attention, written out."""
    logits = keys @ q / np.sqrt(q.shape[0])
    p = np.exp(logits - logits.max())
    p /= p.sum()
    return p @ values


def test_attend_single_query_matches_manual_softmax():
    rng = np.random.default_rng(19)
    q = rng.standard_normal((1, 8)).astype(np.float32)
    keys = rng.standard_normal((1, 6, 8)).astype(np.float32)
    values = rng.standard_normal((1, 6, 8)).astype(np.float32)
    got = attend_single_query(q, keys, values, np.array([6]))
    assert got.shape == (1, 8)
    assert np.abs(got[0] - softmax_reference(q[0], keys[0], values[0])).max() < 1e-5


@pytest.mark.parametrize("counts", [[5, 1, 9, 3], [9, 9, 9, 9], [2, 9, 9, 2]])
def test_attend_single_query_ragged_heads(counts):
    """Each head attends over its own rows only, whatever the padding rows hold."""
    rng = np.random.default_rng(23)
    h, cap, hd = 4, 12, 8
    q = rng.standard_normal((h, hd)).astype(np.float32)
    keys = rng.standard_normal((h, cap, hd)).astype(np.float32)
    values = rng.standard_normal((h, cap, hd)).astype(np.float32)
    for i, n in enumerate(counts):
        # large finite garbage that would dominate the softmax if it were read
        keys[i, n:] = 1e4 * q[i]
        values[i, n:] = 1e6
    got = attend_single_query(q, keys, values, np.array(counts))
    assert got.shape == (h, hd) and np.isfinite(got).all()
    for i, n in enumerate(counts):
        ref = softmax_reference(q[i], keys[i, :n], values[i, :n])
        assert np.abs(got[i] - ref).max() < 1e-5
