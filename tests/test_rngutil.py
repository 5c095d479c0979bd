"""Counter-based uniforms: range, uniformity, key separation, no warnings."""

import warnings

import numpy as np
import pytest
from scipy import stats as sps

from sparsegt.rngutil import TAG_SAMPLE, counter_uniform
from sparsegt.graphs import AttentionPattern, PatternLayer
from sparsegt.sampling import sample_batch, sampling_law

KEYS = (5, TAG_SAMPLE, 7, 2, 1)        # seed, tag, epoch, batch_index, layer
NODES = np.repeat(np.arange(1000), 100)
SLOTS = np.tile(np.arange(100), 1000)


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
