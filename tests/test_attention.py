"""Attention layer against an explicit-loop oracle, plus schedule and state.

The sublayer test recomputes every query's output with per-edge python
loops straight from the definition; the vectorized gather/batched-matmul
path must match it to float64 round-off.  Gradients of the whole network
are then checked against finite differences, parameter by parameter.
"""

import gc
import math

import numpy as np
import pytest

import sparsegt.numerics as nm
from sparsegt.attention import (LayerParams, ModelConfig, Network,
                                TemperatureSchedule, attention_sublayer,
                                pattern_geometry, temperature_at)
from sparsegt.errors import ContractError, ShapeError
from sparsegt.graphs import EdgeType, PatternLayer
from sparsegt.rngutil import derive
from gradcheck import finite_difference, max_relative_error

G, X, S = int(EdgeType.GRAPH), int(EdgeType.EXPANDER), int(EdgeType.SELF_LOOP)


def _pl(rows, types):
    lengths = [len(r) for r in rows]
    row_ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return PatternLayer(row_ptr=row_ptr,
                        col_idx=np.concatenate(rows).astype(np.int64),
                        edge_type=np.concatenate(types).astype(np.int64))


def _ragged():
    return _pl([[0, 1, 3], [0, 1, 2], [1, 2], [0, 3, 4], [3, 4]],
               [[S, G, X], [G, S, G], [G, S], [X, S, G], [G, S]])


class TestTemperature:
    def test_hold_then_decay(self):
        sched = TemperatureSchedule()
        for epoch in range(1, 6):
            assert temperature_at(sched, epoch) == 1.0
        assert temperature_at(sched, 6) == pytest.approx(0.99, abs=1e-15)
        assert temperature_at(sched, 7) == pytest.approx(0.9801, abs=1e-12)

    def test_floor(self):
        sched = TemperatureSchedule()
        # 0.99^298 is the last value above the floor
        assert 0.05 < temperature_at(sched, 303) < 0.0501
        assert temperature_at(sched, 304) == 0.05
        assert temperature_at(sched, 10_000) == 0.05

    def test_halving_schedule_exact(self):
        sched = TemperatureSchedule(lam=2, gamma=0.5)
        assert [temperature_at(sched, e) for e in range(1, 8)] == \
            [1.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.05]

    def test_epochs_one_indexed(self):
        with pytest.raises(ContractError):
            temperature_at(TemperatureSchedule(), 0)


class TestPatternGeometry:
    def test_matches_csr_rows(self):
        # every node queries its own row: the geometry is the layer's CSR
        pl = _ragged()
        geom = pattern_geometry(pl)
        assert geom.num_queries == 5
        np.testing.assert_array_equal(geom.query_rows, np.arange(5))
        assert geom.row_ptr is pl.row_ptr
        assert geom.col_idx is pl.col_idx
        assert geom.edge_type is pl.edge_type

    def test_key_mask_marks_each_rows_slots(self):
        geom = pattern_geometry(_ragged())
        mask = geom.key_mask
        assert mask.size == geom.num_queries * 3        # queries x longest row
        assert np.count_nonzero(mask) == geom.row_ptr[-1]
        # each row's slots come first
        np.testing.assert_array_equal(mask.sum(axis=1), [3, 3, 2, 3, 2])
        np.testing.assert_array_equal(mask[2], [True, True, False])

    def test_stats_rows_passthrough(self):
        geom = pattern_geometry(_ragged(), stats_rows=[0, 2])
        np.testing.assert_array_equal(geom.stats_rows, [0, 2])
        assert pattern_geometry(_ragged()).stats_rows is None


def _oracle(h, pl, lp, cfg, tau):
    """Per-edge loop transcription of the layer definition."""
    n = pl.row_ptr.shape[0] - 1
    emb = lp.edge_emb.data
    out = np.zeros((n, cfg.width))
    scores = np.zeros(pl.nnz)
    for i in range(n):
        cols, typs = pl.row(i), pl.row_types(i)
        acc = np.zeros(cfg.width)
        row_sc = np.zeros(cols.size)
        for hp in lp.heads:
            q = h[i] @ hp.wq.data
            logits = np.array([
                float(((h[c] @ hp.wk.data) * (emb[t] @ hp.we.data)) @ q)
                / math.sqrt(cfg.d_head) + float((emb[t] @ hp.wb.data)[0])
                for c, t in zip(cols, typs)])
            z = np.clip(logits, -cfg.clip, cfg.clip) / tau
            z = np.exp(z - z.max())
            p = z / z.sum()
            row_sc += p
            for pj, c in zip(p, cols):
                v = h[c] @ hp.wv.data
                if cfg.normalize_values:
                    v = float(lp.vscale.data[0]) * v / max(np.linalg.norm(v), 1e-6)
                acc += pj * v
        out[i] = h[i] + acc
        scores[pl.row_ptr[i]:pl.row_ptr[i + 1]] = row_sc / len(lp.heads)
    return out, scores


class TestSublayerOracle:
    @pytest.mark.parametrize("norm_v,tau,clip", [
        (True, 1.0, 8.0),
        (True, 0.6, 8.0),
        (False, 1.0, 8.0),
        (False, 1.0, 0.02),       # everything saturates the clip
    ])
    def test_matches_loop_oracle(self, norm_v, tau, clip):
        cfg = ModelConfig(in_dim=6, width=6, layers=1, out_dim=2, heads=2,
                          normalize_values=norm_v, clip=clip, dtype=np.float64)
        pl = _ragged()
        lp = LayerParams(cfg, derive(0, 77))
        h = derive(0, 78).normal(size=(5, 6))
        out, sc = attention_sublayer(nm.Tensor(h), pattern_geometry(pl), lp,
                                     cfg, tau)
        want_out, want_sc = _oracle(h, pl, lp, cfg, tau)
        np.testing.assert_allclose(out.data, want_out, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(sc, want_sc, rtol=1e-10, atol=1e-12)

    def test_scores_are_row_distributions(self):
        # one float64 score per edge, aligned with col_idx; rows sum to 1
        cfg = ModelConfig(in_dim=6, width=4, layers=1, out_dim=2, heads=2,
                          dtype=np.float32)
        pl = _ragged()
        h = derive(0, 79).normal(size=(5, 4)).astype(np.float32)
        _, sc = attention_sublayer(nm.Tensor(h), pattern_geometry(pl),
                                   LayerParams(cfg, derive(0, 80)), cfg, 1.0)
        assert sc.shape == pl.col_idx.shape and sc.dtype == np.float64
        assert (sc > 0).all()
        np.testing.assert_allclose(np.add.reduceat(sc, pl.row_ptr[:-1]), 1.0, atol=1e-6)

    def test_value_scale_only_scales_the_update(self):
        cfg = ModelConfig(in_dim=4, width=4, layers=1, out_dim=2, heads=1,
                          normalize_values=True, dtype=np.float64)
        pl = _ragged()
        lp = LayerParams(cfg, derive(0, 81))
        h = derive(0, 82).normal(size=(5, 4))
        out1, sc1 = attention_sublayer(nm.Tensor(h), pattern_geometry(pl),
                                       lp, cfg, 1.0)
        lp.vscale.data = np.array([2.0])
        out2, sc2 = attention_sublayer(nm.Tensor(h), pattern_geometry(pl),
                                       lp, cfg, 1.0)
        # scores never see V, so doubling the value scale doubles exactly
        # the residual update and nothing else
        np.testing.assert_array_equal(sc1, sc2)
        np.testing.assert_allclose(out2.data - h, 2.0 * (out1.data - h),
                                   rtol=1e-12)


def _gradcheck_net(norm, normalize_values):
    cfg = ModelConfig(in_dim=3, width=4, layers=1, out_dim=2, heads=2,
                      norm=norm, normalize_values=normalize_values,
                      dtype=np.float64)
    net = Network(cfg, seed=11)
    pl = _ragged()
    stats = np.array([0, 2, 3]) if norm == "batch" else None
    geoms = [pattern_geometry(pl, stats_rows=stats)]
    feats = derive(0, 83).normal(size=(5, 3))
    labels = np.array([0, 1, 0, 1, 1])

    def loss_fn():
        logits, _ = net.forward(feats, geoms, tau=0.8, training=True)
        return nm.softmax_cross_entropy(logits, labels)

    nm.backward(loss_fn())
    worst = 0.0
    for name, p in net.named_parameters():
        num = finite_difference(loss_fn, p)
        # a parameter the forward never touches (vscale when values are
        # raw) keeps grad None; the numeric gradient must agree it is zero
        grad = np.zeros_like(p.data) if p.grad is None else p.grad
        err = max_relative_error(grad, num)
        assert err < 1e-3, f"{name}: {err}"
        worst = max(worst, err)
    return worst


class TestNetworkGradients:
    def test_layer_norm_net_gradcheck(self):
        assert _gradcheck_net("layer", True) < 1e-5

    def test_batch_norm_net_gradcheck(self):
        assert _gradcheck_net("batch", False) < 1e-5


class TestTape:
    @pytest.mark.parametrize("norm", ["layer", "batch"])
    def test_a_training_step_leaves_no_garbage(self, norm):
        # backward releases each node once its closure has run, so the
        # op/closure reference cycles are gone before the collector runs
        cfg = ModelConfig(in_dim=3, width=4, layers=2, out_dim=2, heads=2,
                          norm=norm, normalize_values=norm == "layer",
                          dropout=0.25)
        net = Network(cfg, seed=3)
        stats = np.array([0, 2, 3]) if norm == "batch" else None
        geoms = [pattern_geometry(_ragged(), stats_rows=stats)] * 2
        feats = derive(0, 84).normal(size=(5, 3))
        opt = nm.AdamW(net.named_parameters(), nm.CosineSchedule(0.01, 2))
        gc.collect()
        gc.disable()
        try:
            logits, _ = net.forward(feats, geoms, tau=0.8, training=True,
                                    dropout_rng=derive(0, 85))
            loss = nm.softmax_cross_entropy(logits, np.array([0, 1, 0, 1, 1]))
            nm.backward(loss)
            opt.step(1)
            # leaves keep their gradients; the walked interior nodes do not
            assert net.w_in.grad is not None and net.w_out.grad is not None
            assert logits.grad is None and logits._parents == ()
            del logits, loss
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0


class TestConfig:
    def test_dff_defaults_to_twice_width(self):
        cfg = ModelConfig(in_dim=3, width=6, layers=1, out_dim=2)
        assert cfg.d_ff == 12
        assert ModelConfig(in_dim=3, width=6, layers=1, out_dim=2,
                           d_ff=5).d_ff == 5

    def test_head_divisibility(self):
        with pytest.raises(ContractError, match="divisible"):
            ModelConfig(in_dim=3, width=5, layers=1, out_dim=2, heads=2)

    def test_unknown_norm(self):
        with pytest.raises(ContractError, match="norm"):
            ModelConfig(in_dim=3, width=4, layers=1, out_dim=2, norm="rms")


class TestNetworkState:
    def _cfg(self):
        return ModelConfig(in_dim=3, width=4, layers=2, out_dim=2, heads=2)

    def test_init_is_seed_deterministic(self):
        a = Network(self._cfg(), seed=3).state_dict()
        b = Network(self._cfg(), seed=3).state_dict()
        c = Network(self._cfg(), seed=4).state_dict()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_state_roundtrip_through_checkpoint(self, tmp_path):
        net1 = Network(self._cfg(), seed=5)
        net1.layers[0].n1_mean[:] = 7.0          # buffers must travel too
        nm.save_checkpoint(tmp_path / "n.ckpt", net1.state_dict())
        net2 = Network(self._cfg(), seed=9)
        net2.load_state_dict(nm.load_checkpoint(tmp_path / "n.ckpt"))
        np.testing.assert_array_equal(net2.layers[0].n1_mean, 7.0)
        geoms = [pattern_geometry(_ragged())] * 2
        feats = derive(0, 84).normal(size=(5, 3))
        l1, _ = net1.forward(feats, geoms)
        l2, _ = net2.forward(feats, geoms)
        np.testing.assert_array_equal(l1.data, l2.data)

    def test_load_rejects_missing_and_misshapen(self):
        net = Network(self._cfg(), seed=1)
        state = net.state_dict()
        bad = dict(state)
        bad.pop("w_out")
        with pytest.raises(ShapeError, match="missing"):
            net.load_state_dict(bad)
        bad = dict(state)
        bad["w_out"] = np.zeros((1, 1))
        with pytest.raises(ShapeError, match="shape"):
            net.load_state_dict(bad)


class TestForwardContracts:
    def test_geometry_count_checked(self):
        net = Network(ModelConfig(in_dim=3, width=4, layers=2, out_dim=2), seed=0)
        with pytest.raises(ShapeError, match="geometries"):
            net.forward(np.zeros((5, 3)), [pattern_geometry(_ragged())])

    def test_feature_width_checked(self):
        net = Network(ModelConfig(in_dim=3, width=4, layers=1, out_dim=2), seed=0)
        with pytest.raises(ShapeError, match="width"):
            net.forward(np.zeros((5, 4)), [pattern_geometry(_ragged())])

    def test_dropout_training_needs_rng(self):
        net = Network(ModelConfig(in_dim=3, width=4, layers=1, out_dim=2,
                                  dropout=0.5), seed=0)
        with pytest.raises(ContractError, match="rng"):
            net.forward(np.zeros((5, 3)), [pattern_geometry(_ragged())],
                        training=True)

    def test_forward_is_deterministic(self):
        net = Network(ModelConfig(in_dim=3, width=4, layers=2, out_dim=3), seed=2)
        geoms = [pattern_geometry(_ragged())] * 2
        feats = derive(0, 85).normal(size=(5, 3))
        l1, s1 = net.forward(feats, geoms)
        l2, s2 = net.forward(feats, geoms)
        np.testing.assert_array_equal(l1.data, l2.data)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a, b)
