import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lightinfer.numerics import layer_norm, load_tensor, matmul, row_softmax, save_tensor


def triple_loop_matmul(a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.float32)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = np.float32(0.0)
            for k in range(a.shape[1]):
                acc = np.float32(acc + a[i, k] * b[k, j])
            out[i, j] = acc
    return out


def test_matmul_identity():
    eye = np.eye(2, dtype=np.float32)
    b = np.array([[5, 6], [7, 8]], dtype=np.float32)
    assert np.array_equal(matmul(eye, b), b)


def test_matmul_hand_checked():
    out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(11.0)


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    b = rng.uniform(-1, 1, (8, 8)).astype(np.float32)
    assert np.abs(matmul(a, b) - triple_loop_matmul(a, b)).max() < 1e-6


def test_matmul_relative_error_larger_shapes():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1, 1, (256, 256)).astype(np.float32)
    b = rng.uniform(-1, 1, (256, 256)).astype(np.float32)
    ref = a.astype(np.float64) @ b.astype(np.float64)
    scale = np.abs(ref).max()
    assert (np.abs(matmul(a, b) - ref) / scale).max() < 1e-6


def test_matmul_shape_mismatch_reports_shapes():
    with pytest.raises(ValueError, match=r"\(2x3\) @ \(2x2\)"):
        matmul(np.zeros((2, 3), np.float32), np.zeros((2, 2), np.float32))


def test_matmul_bit_reproducible():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (33, 17)).astype(np.float32)
    b = rng.uniform(-1, 1, (17, 9)).astype(np.float32)
    assert np.array_equal(matmul(a, b), matmul(a, b))


def test_softmax_symmetric_row():
    out = row_softmax(np.array([[0.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[0.5, 0.5]])


def test_softmax_large_logits_no_overflow():
    out = row_softmax(np.array([[1000.0, 0.0]], dtype=np.float32))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-6)


def test_softmax_causal_uniform():
    out = row_softmax(np.zeros((3, 3), dtype=np.float32), causal=True)
    expect = np.array([[1, 0, 0], [0.5, 0.5, 0], [1 / 3, 1 / 3, 1 / 3]], dtype=np.float32)
    assert np.allclose(out, expect, atol=1e-6)
    assert out[0, 1] == 0.0 and out[0, 2] == 0.0 and out[1, 2] == 0.0


@settings(deadline=None)
@given(arrays(np.float32, st.tuples(st.integers(1, 8), st.integers(1, 12)),
              elements=st.floats(-50, 50, width=32)))
def test_softmax_rows_sum_to_one(a):
    out = row_softmax(a)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-5


@settings(deadline=None)
@given(arrays(np.float32, st.tuples(st.just(1), st.integers(2, 12)),
              elements=st.floats(-20, 20, width=32)))
def test_softmax_monotone_in_logits(a):
    out = row_softmax(a)[0]
    row = a[0]
    for i in range(row.size):
        for j in range(row.size):
            if row[i] > row[j]:
                assert out[i] >= out[j]


def test_layer_norm_constant_row_is_zero():
    x = np.full((1, 4), 3.0, dtype=np.float32)
    out = layer_norm(x, np.ones(4, np.float32), np.zeros(4, np.float32))
    assert np.allclose(out, 0.0, atol=1e-4)


def test_layer_norm_already_normalized():
    x = np.array([[1.0, -1.0]], dtype=np.float32)
    out = layer_norm(x, np.ones(2, np.float32), np.zeros(2, np.float32))
    assert np.allclose(out, x, atol=1e-4)


def test_layer_norm_statistics_recomputed():
    rng = np.random.default_rng(3)
    x = rng.uniform(-5, 5, (4, 64)).astype(np.float32)
    out = layer_norm(x, np.ones(64, np.float32), np.zeros(64, np.float32))
    assert np.abs(out.mean(axis=1)).max() < 1e-5
    assert np.abs(out.var(axis=1) - 1.0).max() < 1e-3


# decode (1 row) and default-config prefill (1556 rows) widths, C=256
@pytest.mark.parametrize("shape", [(1, 256), (1556, 256)])
def test_layer_norm_bit_identical_to_literal_expression(shape):
    rng = np.random.default_rng(shape[0])
    x = (3.0 * rng.standard_normal(shape) + 1.0).astype(np.float32)
    gain = rng.standard_normal(shape[1]).astype(np.float32)
    bias = rng.standard_normal(shape[1]).astype(np.float32)
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    expect = (x - mean) / np.sqrt(var + np.float32(1e-5)) * gain + bias
    before = x.copy()
    assert np.array_equal(layer_norm(x, gain, bias), expect)
    assert np.array_equal(x, before)


def test_layer_norm_length_mismatch():
    with pytest.raises(ValueError, match="gain/bias"):
        layer_norm(np.zeros((2, 4), np.float32), np.ones(3, np.float32), np.zeros(4, np.float32))


def test_tensor_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    m = rng.uniform(-1, 1, (5, 7)).astype(np.float32)
    path = tmp_path / "t.lvt"
    save_tensor(path, m)
    raw = path.read_bytes()
    assert raw[:4] == b"LVT1"
    assert int.from_bytes(raw[4:12], "little") == 5
    assert int.from_bytes(raw[12:20], "little") == 7
    assert np.array_equal(load_tensor(path), m)


def test_tensor_file_bad_magic(tmp_path):
    path = tmp_path / "bad.lvt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_tensor(path)
