import numpy as np
import pytest

from lightinfer.numerics import layer_norm


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

