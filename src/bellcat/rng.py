"""Counter-based deterministic random numbers.

Monte Carlo estimates and optimizer restarts must be bit-reproducible for a
given seed, independent of numpy version and platform.  numpy's Generator
does not promise stream stability across releases, so uniforms are produced
by SplitMix64: the i-th variate is a pure function of (seed, i) and every
operation is exact 64-bit integer arithmetic.
"""

from __future__ import annotations

import struct

__all__ = ["uniforms", "integers", "derive", "check_seed"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _word(value: int) -> np.ndarray:
    """`value` as a read-only 0-d uint64 array.

    A ufunc takes a 0-d array operand in about half the time of an
    np.uint64 scalar, which matters for small draws; building one costs
    more, so values used once stay scalars.
    """
    import numpy as np

    a = np.array(value, dtype=np.uint64)
    a.setflags(write=False)
    return a


# Words filled per add of the step table, and the table's largest size
# (256 KB): a sampled-provider pair of up to 32,768 shots takes one add and
# a sampling block (sampling._BLOCK) two; a smaller table costs more adds.
_CHUNK = 1 << 15

# The finalizer's multipliers and shifts as _word constants, and
# _steps[i] = (i + 1) * golden mod 2**64, read-only.  Both are built at the
# first draw, so importing this module loads no numpy; the table then grows
# to the largest chunk asked for, at most _CHUNK words.
_MIX1 = _MIX2 = _SHIFT11 = _SHIFT27 = _SHIFT30 = _SHIFT31 = None
_steps = ()


def _step_table(count: int) -> np.ndarray:
    global _steps, _MIX1, _MIX2, _SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31
    if _MIX1 is None:
        _MIX1, _MIX2 = _word(0xBF58476D1CE4E5B9), _word(0x94D049BB133111EB)
        _SHIFT11, _SHIFT27, _SHIFT30, _SHIFT31 = map(_word, (11, 27, 30, 31))
    if count > len(_steps):
        import numpy as np

        table = np.arange(1, count + 1, dtype=np.uint64)
        # array arithmetic on uint64 wraps mod 2**64 without a warning
        table *= np.uint64(_GOLDEN)
        table.setflags(write=False)
        _steps = table
    return _steps


def integers(seed: int, count: int, start: int = 0, *,
             out: np.ndarray | None = None,
             scratch: np.ndarray | None = None) -> np.ndarray:
    """Raw 64-bit words number `start` through `start + count - 1` of the stream.

    The stream is indexed, not stateful: word i is mix(seed + (i+1)*golden),
    so disjoint index ranges can be drawn in any order or in parallel.  Each
    chunk of counters is one add of (start*golden + seed) mod 2**64 to a
    cached table of (i+1)*golden, and the SplitMix64 finalizer runs in place
    with one scratch buffer for the shifts.  Sampling counts these words
    against integer thresholds, which gives the counts an inverse-CDF lookup
    of `uniforms` would.

    `out` and `scratch`, when given, are caller-owned uint64 arrays of
    exactly `count` elements: the words are written into `out`, which is
    returned, and `scratch` is overwritten.  A caller drawing many blocks
    can reuse both.  The words never depend on the buffers or on what they
    held before; without `out` every call returns a fresh array.
    """
    import numpy as np

    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    z = np.empty(count, dtype=np.uint64) if out is None else out
    shifted = np.empty_like(z) if scratch is None else scratch
    steps = _step_table(min(count, _CHUNK))
    for first in range(0, count, _CHUNK):
        m = min(_CHUNK, count - first)
        offset = np.uint64(((start + first) * _GOLDEN + seed) & _MASK)
        np.add(steps[:m], offset, z[first:first + m])
    z ^= np.right_shift(z, _SHIFT30, shifted)
    z *= _MIX1
    z ^= np.right_shift(z, _SHIFT27, shifted)
    z *= _MIX2
    z ^= np.right_shift(z, _SHIFT31, shifted)
    return z


def uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """`count` uniforms on [0, 1) with 53-bit resolution, as float64."""
    import numpy as np

    words = integers(seed, count, start)
    u = np.right_shift(words, _SHIFT11, words).astype(np.float64)
    u *= 2.0**-53
    return u


def check_seed(seed: int) -> None:
    """Raise ValueError unless seed is an integer in [0, 2**64).

    The stream reduces seeds modulo 2**64, so entry points that take a
    user's seed check it first rather than let two seeds share draws.
    """
    if not isinstance(seed, int) or not 0 <= seed <= _MASK:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _mix_int(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


_pack_double = struct.Struct("<d").pack
_unpack_word = struct.Struct("<Q").unpack


def derive(seed: int, *labels: float) -> int:
    """Deterministic sub-seed from a base seed and a tuple of labels.

    Floats contribute their IEEE-754 bit pattern, so distinct angle tuples
    map to distinct substreams while equal tuples always agree.
    """
    z = seed & _MASK
    for v in labels:
        if isinstance(v, float):
            bits = _unpack_word(_pack_double(v))[0]
        else:
            bits = int(v) & _MASK
        z = _mix_int(((z + _GOLDEN) & _MASK) ^ bits)
    return z
