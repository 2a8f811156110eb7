"""Dense float32 kernels the engine is built on.

All functions here are pure: identical inputs give bit-identical outputs
within a process. float32 is used throughout so rounding and score ties
behave like the reduced-precision regimes the engine is meant to model.
"""

from __future__ import annotations

import struct

import numpy as np

# A Matrix is a 2-D row-major float32 ndarray.
Matrix = np.ndarray

LVT_MAGIC = b"LVT1"


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Coerce to 2-D float32, rejecting non-finite entries.

    Used at API boundaries (inputs, file loads); hot paths skip the
    finiteness scan and only check shapes.
    """
    m = np.asarray(a, dtype=np.float32)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


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


def save_tensor(path, m: Matrix) -> None:
    """Write one tensor: magic "LVT1", u64le rows, u64le cols, f32le data."""
    m = as_matrix(m, "tensor")
    with open(path, "wb") as f:
        f.write(LVT_MAGIC)
        f.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        f.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def load_tensor(path) -> Matrix:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != LVT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {LVT_MAGIC!r}")
        rows, cols = struct.unpack("<QQ", f.read(16))
        data = np.frombuffer(f.read(rows * cols * 4), dtype="<f4")
        if data.size != rows * cols:
            raise ValueError(f"{path}: truncated tensor payload ({data.size} of {rows * cols})")
    return data.reshape(rows, cols).astype(np.float32)
