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

The stream is splitmix64 folded over the key path, one component at a
time.  The fold is paid where its inputs vary: the scalar keys once per
call, in Python ints; a counter once per element.  ``counter_state``
stops the fold after the row counter (the node), once per query row, and
``counter_uniform_at`` gathers that state per entry and folds only the
slot; the bits are those of ``counter_uniform`` over the whole path.
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


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a bijective 64-bit mixer,
# here on Python ints (masked to 64 bits) and on uint64 arrays in place
_M64 = (1 << 64) - 1
_GOLDEN, _MUL1, _MUL2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix_int(z: int) -> int:
    z = (z + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * _MUL1) & _M64
    z = ((z ^ (z >> 27)) * _MUL2) & _M64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 of a uint64 array, overwriting it; arrays wrap without
    warning, which is the point (numpy scalars would warn)."""
    tmp = np.empty_like(z)
    z += np.uint64(_GOLDEN)
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= np.uint64(_MUL1)
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= np.uint64(_MUL2)
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def _key_int(k) -> int:
    """A scalar key component as a Python int, refused as ``_as_key``
    refuses a counter."""
    if isinstance(k, int) and not isinstance(k, bool) and 0 <= k <= _M64:
        return k
    k = _as_key(k)
    if k.ndim:
        raise ValueError(f"key components must be scalars, got shape {k.shape}; "
                         "arrays are counters")
    return int(k)


def _as_key(k) -> np.ndarray:
    k = np.asarray(k)
    if k.dtype.kind not in "iu":
        raise ValueError(f"key components must be integers, got {k.dtype}")
    if k.dtype.kind == "i" and k.size and k.min() < 0:
        raise ValueError("key components must be nonnegative")
    return k.astype(np.uint64, copy=False)


def counter_state(keys, *counters) -> np.ndarray:
    """The uint64 hash state of the key path ``(*keys, *counters)``, one per
    element of the broadcast ``counters`` (at least one element).

    Each component is folded in by ``h = mix(h ^ component)`` from h = 0:
    the scalar ``keys`` once per call, in Python ints, then each counter
    array elementwise.
    """
    if not keys:
        raise ValueError("empty key path")
    h = 0
    for k in keys:
        h = _mix_int(h ^ _key_int(k))
    h = np.array([h], dtype=np.uint64)
    for c in counters:
        h = _mix(h ^ _as_key(c))
    return h


def _uniform(h: np.ndarray) -> np.ndarray:
    """The top 52 bits of each state, offset by half a unit; overwrites ``h``."""
    h >>= np.uint64(12)
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -52
    return u


def counter_uniform(keys, *counters) -> np.ndarray:
    """Uniforms strictly inside (0, 1), one per element of the broadcast
    ``counters``, as a pure function of the integer key path
    ``(*keys, *counters)``: the top 52 bits of ``counter_state``, offset by
    half a unit.
    """
    return _uniform(counter_state(keys, *counters))


def counter_uniform_at(states, index, counter) -> np.ndarray:
    """``counter_uniform(keys, *counters[index], counter)`` for
    ``states = counter_state(keys, *counters)`` and an integer array
    ``index``: each element gathers the state at its ``index`` and folds
    only ``counter``.  A sampler hashes its query rows once and each entry
    then pays for its slot alone.
    """
    h = states[index]
    h ^= _as_key(counter)
    return _uniform(_mix(h))
