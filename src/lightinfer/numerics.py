"""Dense float32 kernels the engine is built on.

All functions here are pure: identical inputs give bit-identical outputs
within a process. float32 is used throughout so rounding and score ties
behave like the reduced-precision regimes the engine is meant to model.
"""

from __future__ import annotations

import numpy as np

# A Matrix is a 2-D row-major float32 ndarray.
Matrix = np.ndarray


def layer_norm(x: Matrix, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> Matrix:
    """Per-row normalization to mean 0 / variance 1, then affine.

    Bit-identical to (x - mean) / sqrt(x.var() + eps) * gain + bias: the
    same float32 operations in the same order, with the mean and the
    centred copy computed once and the divide and affine run in place.
    """
    x = np.asarray(x, dtype=np.float32)
    gain = np.asarray(gain, dtype=np.float32).reshape(-1)
    bias = np.asarray(bias, dtype=np.float32).reshape(-1)
    if x.ndim != 2:
        raise ValueError(f"layer_norm needs a 2-D input, got shape {x.shape}")
    if gain.shape[0] != x.shape[1] or bias.shape[0] != x.shape[1]:
        raise ValueError(
            f"gain/bias length ({gain.shape[0]}/{bias.shape[0]}) must equal cols ({x.shape[1]})"
        )
    out = x - x.mean(axis=1, keepdims=True)
    var = np.square(out).mean(axis=1, keepdims=True)
    out /= np.sqrt(var + np.float32(eps))
    out *= gain
    out += bias
    return out

