"""Counter-based deterministic random numbers.

Monte Carlo estimates and optimizer restarts must be bit-reproducible for a
given seed, independent of numpy version and platform.  numpy's Generator
does not promise stream stability across releases, so uniforms are produced
by SplitMix64: the i-th variate is a pure function of (seed, i) and every
operation is exact 64-bit integer arithmetic.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["uniforms", "integers", "derive"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def integers(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Raw 64-bit words number `start` through `start + count - 1` of the stream.

    The stream is indexed, not stateful: word i is mix(seed + (i+1)*golden),
    so disjoint index ranges can be drawn in any order or in parallel.  The
    SplitMix64 finalizer runs in place on the returned array with one
    scratch buffer for the shifts; every call returns a fresh array.
    Sampling counts these words against integer thresholds, which gives
    the counts an inverse-CDF lookup of `uniforms` would.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    shifted = np.empty_like(z)
    # uint64 arithmetic wraps mod 2^64 by construction
    with np.errstate(over="ignore"):
        z *= _GOLDEN
        z += np.uint64(seed & _MASK)
        z ^= np.right_shift(z, 30, out=shifted)
        z *= _MIX1
        z ^= np.right_shift(z, 27, out=shifted)
        z *= _MIX2
        z ^= np.right_shift(z, 31, out=shifted)
    return z


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """`count` uniforms on [0, 1) with 53-bit resolution, as float64."""
    words = integers(seed, count, start)
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *labels: float) -> int:
    """Deterministic sub-seed from a base seed and a tuple of labels.

    Floats contribute their IEEE-754 bit pattern, so distinct angle tuples
    map to distinct substreams while equal tuples always agree.
    """
    z = seed & _MASK
    for v in labels:
        if isinstance(v, float):
            bits = struct.unpack("<Q", struct.pack("<d", v))[0]
        else:
            bits = int(v) & _MASK
        z = _mix_int(((z + 0x9E3779B97F4A7C15) & _MASK) ^ bits)
    return z
