"""The fused edge-attention op against the composed path it replaced.

``tests/attention_oracle.py`` keeps the old per-head composition of small
taped ops over a padded block.  Whole networks run through either path
must agree in float64 to round-off: logits, scores and the gradient of
every parameter, on random geometries with rows of unequal length (so
the oracle's block has pad slots), single-slot rows and all three edge
types, for both network roles.  The op's own contracts (finite
differences, clipped logits, empty rows, indices out of range) are
checked directly.
"""

import numpy as np
import pytest

import sparsegt.attention as attention
import sparsegt.numerics as nm
from attention_oracle import composed_sublayer
from gradcheck import finite_difference, max_relative_error
from sparsegt.attention import (LayerGeometry, LayerParams, ModelConfig, Network,
                                attention_sublayer, pattern_geometry)
from sparsegt.errors import ContractError
from sparsegt.graphs import AttentionPattern, PatternLayer
from sparsegt.rngutil import derive
from sparsegt.sampling import plan_geometries, sample_batch

ORACLE_TOL = 1e-12


def _random_layer(rng, n, kmax):
    """A CSR layer over n nodes whose rows hold 1..kmax distinct columns of
    every edge type; row 0 has a single slot and row 1 the full kmax."""
    lengths = rng.integers(1, kmax + 1, size=n)
    lengths[0], lengths[1] = 1, kmax
    cols = np.concatenate([rng.choice(n, size=m, replace=False) for m in lengths])
    types = rng.integers(0, 3, size=cols.size).astype(np.int8)
    types[:3] = (0, 1, 2)
    row_ptr = np.concatenate([[0], np.cumsum(lengths)])
    return PatternLayer(row_ptr=row_ptr, col_idx=cols, edge_type=types)


def _scored(rng, layer):
    vals = rng.random(layer.nnz) + 0.05
    rows = np.repeat(np.arange(layer.row_ptr.size - 1), np.diff(layer.row_ptr))
    vals /= np.bincount(rows, weights=vals)[rows]
    return PatternLayer(row_ptr=layer.row_ptr, col_idx=layer.col_idx,
                        edge_type=layer.edge_type, values=vals)


def _case(role, heads, key):
    """(config, geometries, features, stats-free labels) of one random case."""
    rng = derive(31, key)
    n = 24
    layers = tuple(_random_layer(rng, n, 5) for _ in range(2))
    if role == "estimator":
        geoms = [pattern_geometry(layer) for layer in layers]
        rows = n
        cfg = dict(norm="layer", normalize_values=True, dropout=0.0)
    else:
        scores = AttentionPattern(n=n, layers=tuple(_scored(rng, pl) for pl in layers))
        seeds = rng.choice(n, size=9, replace=False)
        plan = sample_batch(seeds, scores, (3, 4), seed=key, epoch=1)
        geoms = plan_geometries(plan)
        rows = plan.input_nodes.size
        cfg = dict(norm="batch", normalize_values=False, dropout=0.2)
    # ragged rows (pad slots in the oracle's block) and single-slot rows
    assert any(np.ptp(np.diff(g.row_ptr)) > 0 for g in geoms)
    assert any((np.diff(g.row_ptr) == 1).any() for g in geoms)
    mcfg = ModelConfig(in_dim=5, width=6, layers=2, out_dim=3, heads=heads,
                       dtype=np.float64, **cfg)
    feats = rng.normal(size=(rows, 5))
    labels = rng.integers(0, 3, size=geoms[-1].num_queries)
    return mcfg, geoms, feats, labels


def _rel(a, b, scale):
    """max |a - b| over max |b|.  Batch norm cancels b2 exactly, so its
    gradient is round-off on both paths: a gradient under 1e-3 of the
    network's largest (``scale``) is measured against that instead."""
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-3 * scale)


def _run(mcfg, geoms, feats, labels, tau):
    """Logits, scores and named gradients of one training step."""
    net = Network(mcfg, seed=4)
    logits, scores = net.forward(feats, geoms, tau=tau, training=True,
                                 dropout_rng=derive(5, 6))
    nm.backward(nm.softmax_cross_entropy(logits, labels))
    grads = {name: None if p.grad is None else p.grad.copy()
             for name, p in net.named_parameters()}
    return logits.data, scores, grads


class TestAgainstComposedPath:
    @pytest.mark.parametrize("tau,clip", [(1.0, 8.0), (0.6, 8.0), (0.6, 0.5)],
                             ids=["tau1", "tau0.6", "clipped"])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("role", ["estimator", "final"])
    def test_network_values_and_gradients(self, role, heads, tau, clip, monkeypatch):
        for key in range(3):
            mcfg, geoms, feats, labels = _case(role, heads, key)
            mcfg.clip = clip
            fused = _run(mcfg, geoms, feats, labels, tau)
            with monkeypatch.context() as m:
                m.setattr(attention, "attention_sublayer", composed_sublayer)
                composed = _run(mcfg, geoms, feats, labels, tau)
            assert _rel(fused[0], composed[0], 0.0) <= ORACLE_TOL
            for a, b in zip(fused[1], composed[1]):
                assert _rel(a, b, 0.0) <= ORACLE_TOL
            assert fused[2].keys() == composed[2].keys()
            scale = max(np.abs(g).max() for g in composed[2].values() if g is not None)
            for name, g in fused[2].items():
                want = composed[2][name]
                assert (g is None) == (want is None), name
                if g is not None:
                    assert _rel(g, want, scale) <= ORACLE_TOL, name

    def test_clip_saturates_in_the_cases(self):
        # the clipped cases above really do clip: some, not all, first-layer
        # logits sit outside the clip of 0.5
        mcfg, geoms, feats, _ = _case("estimator", 1, 0)
        mcfg.clip = 0.5
        net = Network(mcfg, seed=4)
        h = feats @ net.w_in.data + net.b_in.data
        lp, hp = net.layers[0], net.layers[0].heads[0]
        geom = geoms[0]
        q = h[geom.query_rows] @ hp.wq.data
        k = h @ hp.wk.data
        emap = lp.edge_emb.data @ hp.we.data
        bias = lp.edge_emb.data @ hp.wb.data
        rows = np.repeat(np.arange(geom.num_queries), np.diff(geom.row_ptr))
        logits = ((q[rows] * emap[geom.edge_type]) * k[geom.col_idx]).sum(axis=1) \
            / np.sqrt(mcfg.d_head) + bias[geom.edge_type, 0]
        assert 0.2 < (np.abs(logits) > 0.5).mean() < 1.0


def _op_inputs(key, nq=5, n=7, w=4):
    rng = derive(32, key)
    p = lambda *shape: nm.param(rng.normal(size=shape), dtype=np.float64)  # noqa: E731
    row_ptr = np.array([0, 1, 4, 6, 7, 10])
    cols = np.array([3, 0, 6, 2, 1, 5, 4, 0, 3, 6])
    types = np.array([2, 0, 1, 2, 1, 0, 2, 1, 0, 2])
    return p(nq, w), p(n, w), p(n, w), p(3, w), p(3, 1), row_ptr, cols, types


class TestOp:
    def test_rows_are_distributions_over_their_edges(self):
        q, k, v, emap, bias, row_ptr, cols, types = _op_inputs(0)
        out, y = nm.edge_attention(q, k, v, emap, bias, row_ptr, cols, types, 0.5)
        rows = np.repeat(np.arange(5), np.diff(row_ptr))
        np.testing.assert_allclose(np.bincount(rows, weights=y), 1.0, rtol=1e-15)
        want = np.zeros((5, 4))
        np.add.at(want, rows, y[:, None] * v.data[cols])
        np.testing.assert_allclose(out.data, want, rtol=1e-14)

    @pytest.mark.parametrize("tau", [1.0, 0.2])
    def test_gradients_match_finite_differences(self, tau):
        # tau 0.2 puts clip / tau above the point where rows are shifted
        q, k, v, emap, bias, row_ptr, cols, types = _op_inputs(1)
        w = derive(33, 0).normal(size=(5, 4))

        def loss():
            out, _ = nm.edge_attention(q, k, v, emap, bias, row_ptr, cols, types,
                                       0.5, temperature=tau, clip=8.0)
            return nm.mean_all(nm.matmul(out, w.T))

        nm.backward(loss())
        for t in (q, k, v, emap, bias):
            assert max_relative_error(t.grad, finite_difference(loss, t)) < 1e-6

    def test_clipped_logits_pass_no_gradient(self):
        q, k, v, emap, bias, row_ptr, cols, types = _op_inputs(2)
        bias.data += np.array([[50.0], [-50.0], [50.0]])   # every logit clips
        out, _ = nm.edge_attention(q, k, v, emap, bias, row_ptr, cols, types,
                                   0.5, clip=8.0)
        nm.backward(nm.mean_all(out))
        for t in (q, k, emap, bias):
            assert not t.grad.any()
        assert v.grad.any()

    def test_a_row_without_live_slots_is_a_contract_error(self):
        q, k, v, emap, bias, _, cols, types = _op_inputs(3)
        row_ptr = np.array([0, 1, 4, 4, 7, 10])
        with pytest.raises(ContractError, match="query row 2 has no live slots"):
            nm.edge_attention(q, k, v, emap, bias, row_ptr, cols, types, 0.5)

    def test_an_all_pad_geometry_row_is_a_contract_error(self):
        # row 1 of the pattern is empty: its padded row is all pad slots
        layer = PatternLayer(row_ptr=np.array([0, 2, 2, 3]),
                             col_idx=np.array([0, 2, 2]),
                             edge_type=np.array([2, 0, 2]))
        geom = pattern_geometry(layer)
        assert not geom.key_mask[1].any()
        cfg = ModelConfig(in_dim=4, width=4, layers=1, out_dim=2, dtype=np.float64)
        with pytest.raises(ContractError, match="no live slots"):
            attention_sublayer(nm.Tensor(np.ones((3, 4))), geom,
                               LayerParams(cfg, derive(0, 1)), cfg, 1.0)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_a_column_outside_the_key_rows_is_refused(self, bad):
        q, k, v, emap, bias, row_ptr, cols, types = _op_inputs(4)
        cols = cols.copy()
        cols[5] = bad
        with pytest.raises(IndexError, match=f"edge_attention: index {bad} outside"):
            nm.edge_attention(q, k, v, emap, bias, row_ptr, cols, types, 0.5)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_a_type_outside_the_embeddings_is_refused(self, bad):
        q, k, v, emap, bias, row_ptr, cols, types = _op_inputs(5)
        types = types.copy()
        types[2] = bad
        with pytest.raises(IndexError, match=f"edge_attention: index {bad} outside"):
            nm.edge_attention(q, k, v, emap, bias, row_ptr, cols, types, 0.5)

    def test_a_head_is_one_tape_node(self, monkeypatch):
        cfg = ModelConfig(in_dim=4, width=4, layers=1, out_dim=2, heads=2,
                          dtype=np.float64)
        geom = LayerGeometry(query_rows=np.arange(2), row_ptr=np.array([0, 2, 3]),
                             col_idx=np.array([0, 1, 1]), edge_type=np.array([2, 0, 2]))
        calls = []
        real = nm.edge_attention
        monkeypatch.setattr(nm, "edge_attention",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        _, scores = attention_sublayer(nm.param(np.ones((2, 4)), np.float64), geom,
                                       LayerParams(cfg, derive(0, 2)), cfg, 1.0)
        assert len(calls) == 2
        # one float64 score per edge: row 0's two sum to 1, row 1's one is 1
        assert scores.shape == (3,) and scores.dtype == np.float64
        np.testing.assert_allclose(scores[:2].sum(), 1.0, rtol=1e-15)
        assert scores[2] == 1.0
