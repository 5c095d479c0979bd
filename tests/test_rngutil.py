"""Counter-based uniforms: range, uniformity, key separation, no warnings.

The stream is pinned to a reference fold written out below
(``_reference_uniform``: every component folded through uint64 arrays),
and the per-row fold the sampler uses to ``counter_uniform`` itself.
"""

import warnings

import numpy as np
import pytest
from scipy import stats as sps

from sparsegt.rngutil import TAG_SAMPLE, counter_state, counter_uniform, counter_uniform_at
from sparsegt.graphs import AttentionPattern, PatternLayer
from sparsegt.sampling import sample_batch, sampling_law

KEYS = (5, TAG_SAMPLE, 7, 2, 1)        # seed, tag, epoch, batch_index, layer
NODES = np.repeat(np.arange(1000), 100)
SLOTS = np.tile(np.arange(100), 1000)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)


def _reference_uniform(keys, *counters):
    """splitmix64 folded over (*keys, *counters) in 1-element uint64 arrays,
    one component at a time: h = mix(h ^ component) from h = 0."""
    h = np.zeros(1, dtype=np.uint64)
    for k in (*keys, *counters):
        z = h ^ np.asarray(k).astype(np.uint64)
        z = z + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MUL1
        z = (z ^ (z >> np.uint64(27))) * _MUL2
        h = z ^ (z >> np.uint64(31))
    return ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0 ** -52


BIG_KEYS = (2 ** 64 - 1, TAG_SAMPLE, 2 ** 63, 2 ** 40, 1)
BIG_NODES = np.array([0, 5, 2 ** 63, 2 ** 64 - 1, 17], dtype=np.uint64)


@pytest.mark.parametrize("keys", [KEYS, BIG_KEYS, (0,), (np.int64(3), np.uint64(2 ** 64 - 1))])
def test_the_stream_is_the_reference_fold(keys):
    for counters in ((NODES, SLOTS), (BIG_NODES, np.arange(5)), (7,), ()):
        np.testing.assert_array_equal(counter_uniform(keys, *counters),
                                      _reference_uniform(keys, *counters))


@pytest.mark.parametrize("keys", [KEYS, BIG_KEYS])
@pytest.mark.parametrize("nodes", [BIG_NODES, BIG_NODES.astype(np.int64) % 1000,
                                   np.arange(40)])
def test_a_row_state_gathered_per_entry_is_the_whole_key_path(keys, nodes):
    # the sampler hashes each query row once and folds each entry's slot:
    # the same bits as hashing (keys, node, slot) per entry
    rng = np.random.default_rng(3)
    row = rng.integers(0, nodes.size, 500)
    for slot in (rng.integers(0, 107, 500), rng.integers(0, 107, 500).astype(np.uint64)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = counter_uniform_at(counter_state(keys, nodes), row, slot)
        np.testing.assert_array_equal(got, counter_uniform(keys, nodes[row], slot))
        np.testing.assert_array_equal(got, _reference_uniform(keys, nodes[row], slot))


def test_values_lie_strictly_inside_the_unit_interval():
    u = counter_uniform(KEYS, NODES, SLOTS)
    assert u.shape == NODES.shape
    assert u.min() > 0.0 and u.max() < 1.0


def test_ks_uniform_on_1e5_draws():
    u = counter_uniform(KEYS, NODES, SLOTS)
    assert sps.kstest(u, "uniform").pvalue > 0.001


def test_is_a_pure_function_of_the_key_path():
    np.testing.assert_array_equal(counter_uniform(KEYS, NODES, SLOTS),
                                  counter_uniform(KEYS, NODES, SLOTS))
    # one element is the same value however many are drawn with it
    np.testing.assert_array_equal(counter_uniform(KEYS, NODES[1234], SLOTS[1234]),
                                  counter_uniform(KEYS, NODES, SLOTS)[[1234]])


@pytest.mark.parametrize("component", range(len(KEYS) + 2))
def test_one_changed_component_gives_another_stream(component):
    base = counter_uniform(KEYS, NODES, SLOTS)
    parts = [*KEYS, NODES, SLOTS]
    parts[component] = parts[component] + 1
    other = counter_uniform(tuple(parts[:len(KEYS)]), *parts[len(KEYS):])
    assert np.mean(base == other) < 1e-4


def test_no_overflow_warning_escapes():
    big = 2 ** 64 - 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = counter_uniform((big, big, 2 ** 63), np.array([big], dtype=np.uint64),
                            np.arange(10))
        assert np.all((u > 0) & (u < 1))
        u = counter_uniform_at(counter_state((big, big), np.array([big], dtype=np.uint64)),
                               np.zeros(10, dtype=np.int64), np.arange(10, dtype=np.uint64))
        assert np.all((u > 0) & (u < 1))
        sl = PatternLayer(row_ptr=np.array([0, 3]), values=np.array([0.5, 0.3, 0.2]),
                          col_idx=np.zeros(3, dtype=np.int64),
                          edge_type=np.zeros(3, dtype=np.int8))
        sample_batch(np.array([0]), sampling_law(AttentionPattern(n=1, layers=(sl,))),
                     (2,), seed=2 ** 62, epoch=2 ** 40)


def test_rejects_bad_keys():
    with pytest.raises(ValueError, match="empty"):
        counter_uniform(())
    with pytest.raises(ValueError, match="nonnegative"):
        counter_uniform((1, -1))
    with pytest.raises(ValueError, match="integers"):
        counter_uniform((1,), np.array([0.5]))
    with pytest.raises(ValueError, match="integers"):
        counter_uniform((1, 0.5))
    with pytest.raises(ValueError, match="integers"):
        counter_uniform((True,))
    with pytest.raises(ValueError, match="nonnegative"):
        counter_uniform((1,), np.array([3, -1]))
    with pytest.raises(ValueError, match="integers"):
        counter_uniform((2 ** 64,))
    with pytest.raises(ValueError, match="scalars"):
        counter_uniform((1, np.arange(3)))
    with pytest.raises(ValueError, match="empty"):
        counter_state(())
