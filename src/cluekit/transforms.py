"""Bitmask subset transforms (zeta / Moebius) used by the spectral and game
modules.

Transforms run along axis 0, which must have power-of-two length 2^n and be
indexed by subset bitmask; trailing axes ride along.  Cost is O(n 2^n) rows
via the standard per-bit butterfly sweep.
"""
from __future__ import annotations

import numpy as np


def subset_zeta(values: np.ndarray) -> np.ndarray:
    """Return g with g[T] = sum_{S subseteq T} values[S] (along axis 0)."""
    out = np.array(values, dtype=float, copy=True)
    n = _bits(out.shape[0])
    tail = out[0].size if out.ndim > 1 else 1
    for v in range(n):
        view = out.reshape(-1, 2, (1 << v) * tail)
        view[:, 1, :] += view[:, 0, :]
    return out


def subset_mobius(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`subset_zeta`: f[S] = sum_{T subseteq S} (-1)^{|S\\T|} g[T]."""
    out = np.array(values, dtype=float, copy=True)
    n = _bits(out.shape[0])
    tail = out[0].size if out.ndim > 1 else 1
    for v in range(n):
        view = out.reshape(-1, 2, (1 << v) * tail)
        view[:, 1, :] -= view[:, 0, :]
    return out


def popcounts(n: int) -> np.ndarray:
    """Popcount of every mask in [0, 2^n), as an int array."""
    pc = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        pc[(np.arange(1 << n) >> v) & 1 == 1] += 1
    return pc


def _bits(size: int) -> int:
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("axis 0 length must be a power of two")
    return n
