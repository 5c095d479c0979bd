"""Deterministic random stream derivation.

Every source of randomness in the package is named by an integer key
path, so reruns with the same seed reproduce results exactly and
independent concerns (init, shuffling, plan sampling, dropout) never
share a stream.  Stream identity depends only on the key path, not on
call order.

Two kinds of stream share that naming:

- ``derive(*keys)`` gives a numpy Generator, for consumers that draw a
  sequence (initialization, shuffles, dropout masks, data generation).
- ``counter_uniform(keys, *counters)`` gives one uniform per element of
  its counter arrays as a pure function of (keys, counters): a
  counter-based generator in the sense of Salmon et al., *Parallel Random
  Numbers: As Easy as 1, 2, 3* (SC'11).  Plan sampling uses it with keys
  (seed, tag, epoch, batch_index, layer) and counters (node, CSR slot),
  so a whole layer's draws come from one vectorized pass and an entry's
  uniform does not depend on which other rows are drawn with it.
"""

from __future__ import annotations

import numpy as np

# Fixed tags keep unrelated consumers on disjoint streams even when the
# remaining key components collide.
TAG_INIT = 1
TAG_SHUFFLE = 2
TAG_SAMPLE = 3
TAG_DROPOUT = 4
TAG_VAL = 5
TAG_PREDICT = 6
TAG_DATA = 7
TAG_EXPANDER = 8
TAG_ANALYSIS = 9


def derive(*keys: int) -> np.random.Generator:
    """Generator for the stream named by an integer key path."""
    if not keys:
        raise ValueError("empty key path")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a bijective 64-bit mixer
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    z = z + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def _as_key(k) -> np.ndarray:
    k = np.asarray(k)
    if k.dtype.kind not in "iu":
        raise ValueError(f"key components must be integers, got {k.dtype}")
    if k.dtype.kind == "i" and k.size and k.min() < 0:
        raise ValueError("key components must be nonnegative")
    return k.astype(np.uint64)


def counter_uniform(keys, *counters) -> np.ndarray:
    """Uniforms strictly inside (0, 1), one per element of the broadcast
    ``counters``, as a pure function of the integer key path
    ``(*keys, *counters)``.

    Each component is folded in by ``h = mix(h ^ component)``; the top 52
    bits of the result, offset by half a unit, give the uniform.
    """
    if not keys:
        raise ValueError("empty key path")
    # 1-element arrays, not numpy scalars: wrapping uint64 arithmetic is
    # the point, and only scalar arithmetic warns about it
    h = np.zeros(1, dtype=np.uint64)
    for k in (*keys, *counters):
        h = _mix(h ^ _as_key(k))
    return ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0 ** -52
