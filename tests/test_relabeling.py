"""Relabeling the nodes as an oracle independent of the repo's conventions.

Every other oracle shares the code's indexing conventions: CSR row order,
slot numbering, the pattern ``augment`` builds.  A consistent indexing
error in those passes them all.  Renumbering the nodes changes every one of
those conventions while the math promises the same result, permuted back.
Neither phase draws by node id here: the estimator is full batch, and a
final run at full degree with one batch of every training node and no
dropout consumes no randomness in its draws.  So in float64 the two runs
agree up to summation order.
"""

from dataclasses import replace

import numpy as np
import pytest

from sparsegt.datasets import SyntheticSpec, gen_bridge_task
from sparsegt.graphs import (AttentionPattern, PatternLayer, augment, build_expander,
                             edges_to_csr)
from sparsegt.pipeline import TrainConfig, train_estimator, train_final
from sparsegt.rngutil import derive

# Measured on the README task over six permutations: the estimator's scores
# agree to at most 4.4e-16 after 20 epochs and the final state to at most
# 1.4e-12 after 30.  Each bound leaves a margin of about 20x and 70x.  A bias
# before batch norm, which trains on round-off alone, moved the state by 8.4e-10.
SCORES_TOL = 1e-14
STATE_TOL = 1e-10


def _relabeled_layer(layer: PatternLayer, new_id: np.ndarray):
    """``layer`` with node i renamed ``new_id[i]``, and for each of its
    entries the index of the original entry it came from."""
    n = layer.row_ptr.shape[0] - 1
    src = new_id[np.repeat(np.arange(n), np.diff(layer.row_ptr))]
    dst = new_id[layer.col_idx]
    order = np.lexsort((dst, src))
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return PatternLayer(row_ptr=row_ptr, col_idx=dst[order],
                        edge_type=layer.edge_type[order]), order


@pytest.fixture(scope="module")
def runs():
    """(original, relabeled) runs of both phases, and the entry map."""
    g = gen_bridge_task(SyntheticSpec(seed=0))
    pattern = augment(g, build_expander(g.n, num_cycles=3, seed=0), layers=2)
    perm = derive(99, 0).permutation(g.n)          # new node j is old node perm[j]
    new_id = np.argsort(perm)
    src = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
    row_ptr, col_idx = edges_to_csr(g.n, new_id[src], new_id[g.col_idx])
    h = replace(g, row_ptr=row_ptr, col_idx=col_idx, features=g.features[perm],
                labels=g.labels[perm], split=g.split[perm])
    layer, order = _relabeled_layer(pattern.layers[0], new_id)
    h_pattern = AttentionPattern(n=g.n, layers=(layer, layer))
    est = TrainConfig(width=8, layers=2, epochs=20, dtype="float64")
    fin = TrainConfig(width=32, layers=2, epochs=30, degs=("full", "full"),
                      batch_size=g.n, dtype="float64")
    out = []
    for graph, pat in ((g, pattern), (h, h_pattern)):
        e = train_estimator(graph, pat, est)
        out.append((e, train_final(graph, e.scores, fin)))
    return out, order


def test_the_estimator_is_equivariant(runs):
    ((e0, _), (e1, _)), order = runs
    for a, b in zip(e0.scores.layers, e1.scores.layers, strict=True):
        np.testing.assert_array_equal(a.edge_type[order], b.edge_type)
        assert np.abs(a.values[order] - b.values).max() <= SCORES_TOL
    assert e0.test_metric == e1.test_metric


def test_a_full_degree_final_run_is_equivariant(runs):
    ((_, f0), (_, f1)), _ = runs
    s0, s1 = f0.network.state_dict(), f1.network.state_dict()
    assert s0.keys() == s1.keys()
    diffs = {k: np.abs(s0[k] - s1[k]).max() for k in s0}
    assert max(diffs.values()) <= STATE_TOL, diffs
    assert f0.test_metric == f1.test_metric
