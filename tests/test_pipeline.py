"""Both training phases end to end on a small bridge instance.

The load-bearing check is the equivalence run: with degree budgets at
least as large as every score row and a single train batch, the sampled
trainer must reproduce the full-graph trainer step for step, because
sampling full rows consumes no randomness and batch statistics cover the
same train rows either way.  In float64 the histories agree to round-off.
"""

import functools
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from sparsegt import attention, pipeline
from sparsegt import numerics as nm
from sparsegt.attention import (TemperatureSchedule, pattern_geometry,
                                temperature_at)
from sparsegt.analysis import write_profile_csv
from sparsegt.cli import write_predictions
from sparsegt.datasets import SyntheticSpec, gen_bridge_task, gen_dataset, write_dataset
from sparsegt.errors import ContractError, DivergenceError, ShapeError
from sparsegt.graphs import (TEST, TRAIN, VAL, AttentionPattern, PatternLayer,
                             augment, build_expander, save_pattern, save_split)
from sparsegt.numerics import AdamW, load_checkpoint, save_checkpoint
from sparsegt.pipeline import (TrainConfig, _probs_from_logits, config_from_dict,
                               config_to_dict, edge_percent, metric_value, predict,
                               predicted_labels, resolve_task,
                               save_history_csv, train_estimator, train_final,
                               write_json)
from sparsegt.rngutil import TAG_PREDICT, derive
from sparsegt.sampling import (load_scores_npz, sample_batch, sampling_law,
                               save_scores_npz, uniform_scores, validate_scores)
from adamw_oracle import adamw_loop_step
from sampling_oracle import predict_per_chunk


@functools.lru_cache(maxsize=None)
def _toy():
    g = gen_bridge_task(SyntheticSpec(seed=2, num_components=4,
                                      component_size=8, num_bridges=1))
    pattern = augment(g, build_expander(32, num_cycles=2, seed=1), 2)
    return g, pattern


def _without_val(g):
    split = g.split.copy()
    split[split == VAL] = TEST
    return replace(g, split=split)


@functools.lru_cache(maxsize=None)
def _toy_scores():
    g, pattern = _toy()
    cfg = TrainConfig(width=4, layers=2, epochs=12, lr=0.02, seed=0)
    return train_estimator(g, pattern, cfg).scores


class TestConfig:
    def test_validation(self):
        for bad in (dict(loss="hinge"), dict(metric="f1"), dict(ablation="x"),
                    dict(dtype="float16"), dict(dropout=1.0), dict(epochs=-1),
                    dict(eval_samples=0), dict(batch_size=0), dict(batch_size=-5)):
            with pytest.raises(ContractError):
                TrainConfig(**bad)

    def test_degs_coerced_to_int_tuple(self):
        cfg = TrainConfig(degs=[4.0, 8.0])
        assert cfg.degs == (4, 8)
        assert all(isinstance(d, int) for d in cfg.degs)

    def test_dict_roundtrip(self):
        cfg = TrainConfig(width=8, degs=(3, 5), ablation="uniform",
                          dtype="float64")
        d = config_to_dict(cfg)
        assert d["degs"] == [3, 5]
        assert config_from_dict(d) == cfg


class TestResolveTask:
    def test_auto_mapping(self):
        assert resolve_task(np.array([0, 1, 1]), "auto") == ("bce", 1)
        assert resolve_task(np.array([0, 0]), "auto") == ("bce", 1)
        assert resolve_task(np.array([0, 2, 1]), "auto") == ("ce", 3)
        assert resolve_task(np.zeros((4, 3)), "auto") == ("multilabel", 3)

    def test_pinned_ce_on_binary(self):
        assert resolve_task(np.array([0, 1]), "ce") == ("ce", 2)

    def test_rejections(self):
        with pytest.raises(ContractError, match="bce"):
            resolve_task(np.array([0, 1, 2]), "bce")
        with pytest.raises(ContractError, match="multilabel"):
            resolve_task(np.array([0, 1]), "multilabel")
        with pytest.raises(ContractError, match="multilabel"):
            resolve_task(np.zeros((2, 2)), "ce")
        with pytest.raises(ContractError, match="nonnegative"):
            resolve_task(np.array([-1, 0]), "auto")
        with pytest.raises(ContractError, match="1-d or 2-d"):
            resolve_task(np.zeros((2, 2, 2)), "auto")


class TestMetrics:
    def test_predicted_labels(self):
        np.testing.assert_array_equal(
            predicted_labels("ce", np.array([[0.2, 0.8], [0.9, 0.1]])), [1, 0])
        np.testing.assert_array_equal(
            predicted_labels("bce", np.array([0.4, 0.6])), [0, 1])

    def test_auc_paths(self):
        assert metric_value("bce", "auc", np.array([0.1, 0.4, 0.35, 0.8]),
                            np.array([0, 0, 1, 1])) == pytest.approx(0.75)
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        labels = np.array([[1, 0], [0, 1]])
        assert metric_value("multilabel", "auc", probs, labels) == 1.0
        with pytest.raises(ContractError, match="auc"):
            metric_value("ce", "auc", np.ones((2, 3)) / 3, np.array([0, 1]))

    def test_accuracy(self):
        assert metric_value("ce", "accuracy", np.array([[0.6, 0.4]]),
                            np.array([0])) == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_saturates_without_overflow(self, dtype):
        # exp(1000) overflows: the probability is then exactly 0, and
        # elsewhere it is 1 / (1 + exp(-z)) bit for bit
        z = np.array([[-1000.0], [-3.5], [0.0], [2.25], [1000.0]], dtype=dtype)
        for loss_name in ("bce", "multilabel"):
            p = _probs_from_logits(loss_name, z).reshape(-1)
            z64 = z.reshape(-1).astype(np.float64)
            np.testing.assert_array_equal(p[1:-1], 1.0 / (1.0 + np.exp(-z64[1:-1])))
            assert p[0] == 0.0 and p[-1] == 1.0


def _one_layer(row_ptr, col_idx):
    col_idx = np.asarray(col_idx, dtype=np.int64)
    return AttentionPattern(n=len(row_ptr) - 1, layers=(PatternLayer(
        row_ptr=np.asarray(row_ptr), col_idx=col_idx,
        edge_type=np.zeros(col_idx.size, dtype=np.int8),
        values=np.ones(col_idx.size)),))


class TestEdgePercent:
    def test_hand_ratio(self):
        # rows of length 3, 6, 9 under degree 5: 13 of 18 entries reachable
        pct = edge_percent(_one_layer([0, 3, 9, 18], np.arange(18) % 3), (5,))
        assert pct == pytest.approx(72.22222222222223, abs=1e-10)

    def test_contracts(self):
        with pytest.raises(ContractError, match="budgets"):
            edge_percent(_one_layer([0, 1], [0]), (2, 2))
        with pytest.raises(ContractError, match="empty"):
            edge_percent(_one_layer([0, 0], []), (2,))


class TestEstimator:
    def test_learns_separable_task(self):
        spec = SyntheticSpec(generator="sbm_homophily", seed=4, blocks=2,
                             block_size=12, p_intra=0.4, p_inter=0.05,
                             noise=0.05)
        g = gen_dataset(spec)
        pattern = augment(g, build_expander(24, num_cycles=2, seed=3), 2)
        cfg = TrainConfig(width=4, layers=2, epochs=20, lr=0.02, seed=0)
        res = train_estimator(g, pattern, cfg)
        losses = [h[1] for h in res.history]
        assert len(losses) == 20
        assert losses[-1] < losses[0]
        assert res.best_val >= 0.5

    def test_history_and_selection_bookkeeping(self):
        g, pattern = _toy()
        cfg = TrainConfig(width=4, layers=2, epochs=12, lr=0.02, seed=0)
        res = train_estimator(g, pattern, cfg)
        taus = [h[3] for h in res.history]
        sched = TemperatureSchedule(lam=cfg.lam, gamma=cfg.gamma)
        assert taus == [temperature_at(sched, e) for e in range(1, 13)]
        vals = [h[2] for h in res.history]
        assert res.best_val == max(vals)
        assert res.best_epoch == vals.index(max(vals)) + 1
        assert res.tau_final == taus[res.best_epoch - 1]
        assert res.loss_name == "bce"

    def test_scores_ride_on_the_pattern_support(self):
        g, pattern = _toy()
        scores = _toy_scores()
        validate_scores(scores)
        for sl, pl in zip(scores.layers, pattern.layers):
            np.testing.assert_array_equal(sl.row_ptr, pl.row_ptr)
            np.testing.assert_array_equal(sl.col_idx, pl.col_idx)
            np.testing.assert_array_equal(sl.edge_type, pl.edge_type)

    def test_scores_are_the_live_slots_of_the_best_forward(self):
        g, pattern = _toy()
        cfg = TrainConfig(width=4, layers=2, epochs=12, lr=0.02, seed=0)
        res = train_estimator(g, pattern, cfg)
        geoms = [pattern_geometry(layer) for layer in pattern.layers]
        x = np.asarray(g.features, dtype=cfg.np_dtype)
        _, flat = res.network.forward(x, geoms, tau=res.tau_final)
        for sl, sc in zip(res.scores.layers, flat):
            assert sl.values.dtype == np.float64
            assert sc.shape == sl.col_idx.shape
            np.testing.assert_array_equal(sl.values, sc)     # bit for bit

    def test_zero_epochs_reads_init_scores(self):
        g, pattern = _toy()
        res = train_estimator(g, pattern, TrainConfig(width=4, layers=2,
                                                      epochs=0, seed=0))
        assert res.history == []
        assert res.best_epoch == 0
        assert res.tau_final == 1.0
        validate_scores(res.scores)

    def test_divergence_carries_the_epoch(self):
        g, pattern = _toy()
        feats = g.features.copy()
        feats[0, 0] = np.nan
        bad = replace(g, features=feats)
        with pytest.raises(DivergenceError) as err:
            train_estimator(bad, pattern, TrainConfig(width=4, layers=2,
                                                      epochs=5, seed=0))
        assert err.value.epoch == 1

    def test_guards(self):
        g, pattern = _toy()
        with pytest.raises(ContractError, match="ablation"):
            train_estimator(g, pattern, TrainConfig(layers=2, ablation="uniform"))
        with pytest.raises(ContractError, match="layers"):
            train_estimator(g, pattern, TrainConfig(layers=3))
        all_test = replace(g, split=np.full(g.n, TEST, dtype=np.int8))
        with pytest.raises(ContractError, match="training nodes"):
            train_estimator(all_test, pattern, TrainConfig(layers=2, epochs=1))

    def test_each_layer_is_prepared_once_per_run(self, monkeypatch):
        # the pattern's geometries outlive the epochs, and so does their index
        g, pattern = _toy()
        built = []
        real = nm.EdgeIndex

        class Counting(real):
            __slots__ = ()

            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(nm, "EdgeIndex", Counting)
        train_estimator(g, pattern, TrainConfig(width=4, layers=2, heads=2, epochs=5, seed=0))
        assert len(built) == 2

    def test_seed_determinism(self):
        g, pattern = _toy()
        runs = {}
        for ablation in ("none", "no-temp", "no-vnorm"):
            cfg = TrainConfig(width=4, layers=2, epochs=6, seed=5,
                              ablation=ablation)
            a = train_estimator(g, pattern, cfg)
            b = train_estimator(g, pattern, cfg)
            assert a.history == b.history, ablation
            for la, lb in zip(a.scores.layers, b.scores.layers):
                np.testing.assert_array_equal(la.values, lb.values)
            runs[ablation] = a
        # each ablation reaches the network it names
        assert runs["no-temp"].history != runs["none"].history
        assert [h[3] for h in runs["no-temp"].history] == [1.0] * 6
        assert runs["no-temp"].tau_final == 1.0
        assert runs["no-vnorm"].history != runs["none"].history
        assert not runs["no-vnorm"].network.cfg.normalize_values


class TestFinal:
    def _cfg(self, **kw):
        base = dict(width=8, layers=2, epochs=8, lr=0.02, batch_size=16,
                    degs=(4, 4), seed=0)
        base.update(kw)
        return TrainConfig(**base)

    def test_trains_and_reports(self):
        g, _ = _toy()
        res = train_final(g, _toy_scores(), self._cfg())
        assert len(res.history) == 8
        assert np.isfinite([h[1] for h in res.history]).all()
        assert res.sample_stats.rows_sampled > 0
        assert 0 < res.edge_pct <= 100.0
        assert res.loss_name == "bce"

    def test_seed_determinism(self):
        g, _ = _toy()
        cases = {"plain": {}, "dropout": dict(dropout=0.3),
                 "full-graph": dict(full_graph=True),
                 "full-graph-dropout": dict(full_graph=True, dropout=0.3),
                 "eval-samples": dict(eval_samples=3)}
        runs = {}
        for name, kw in cases.items():
            a = train_final(g, _toy_scores(), self._cfg(epochs=4, **kw))
            b = train_final(g, _toy_scores(), self._cfg(epochs=4, **kw))
            assert a.history == b.history, name
            assert a.test_metric == b.test_metric, name
            for (_, pa), (_, pb) in zip(a.network.named_parameters(),
                                        b.network.named_parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)
            runs[name] = a
        # dropout changes training; extra test-time samples do not
        assert runs["dropout"].history != runs["plain"].history
        assert runs["full-graph-dropout"].history != runs["full-graph"].history
        assert runs["eval-samples"].history == runs["plain"].history

    def test_uniform_ablation_ignores_score_values(self):
        g, _ = _toy()
        scores = _toy_scores()

        # permute scores within each row: still valid distributions, but
        # any run that reads the values would change
        def _rev(sl):
            vals = sl.values.copy()
            for i in range(len(sl.row_ptr) - 1):
                lo, hi = sl.row_ptr[i], sl.row_ptr[i + 1]
                vals[lo:hi] = vals[lo:hi][::-1]
            return replace(sl, values=vals)

        bent = replace(scores, layers=tuple(_rev(sl) for sl in scores.layers))
        cfg = self._cfg(epochs=3, ablation="uniform", prefilter=False)
        a = train_final(g, uniform_scores(_toy()[1]), cfg)
        b = train_final(g, bent, cfg)
        assert a.history == b.history

    def test_max_ablation_needs_no_rng(self):
        g, _ = _toy()
        res = train_final(g, _toy_scores(), self._cfg(epochs=3, ablation="max"))
        assert len(res.history) == 3

    def test_guards(self):
        g, _ = _toy()
        scores = _toy_scores()
        with pytest.raises(ContractError, match="ablation"):
            train_final(g, scores, self._cfg(ablation="no-temp"))
        with pytest.raises(ContractError, match="degree budgets"):
            train_final(g, scores, self._cfg(degs=(4,)))
        broken = replace(scores, layers=tuple(
            replace(sl, values=sl.values * 2.0) for sl in scores.layers))
        with pytest.raises(ContractError, match="sums"):
            train_final(g, broken, self._cfg())

    def test_zero_epochs_evaluates_init(self):
        g, _ = _toy()
        res = train_final(g, _toy_scores(), self._cfg(epochs=0))
        assert res.history == []
        assert np.isfinite(res.test_metric)

    def test_full_graph_checks_budgets_before_training(self, monkeypatch):
        g, _ = _toy()
        res = train_final(g, _toy_scores(), self._cfg(epochs=1, full_graph=True,
                                                      degs=(2, 2)))
        # the whole pattern is attended, whatever the budgets say
        assert res.edge_pct == 100.0

        def no_update(opt, epoch):
            raise AssertionError("trained before checking the budgets")
        monkeypatch.setattr(AdamW, "step", no_update)
        with pytest.raises(ContractError, match="degree budgets"):
            train_final(g, _toy_scores(), self._cfg(full_graph=True, degs=(4,)))

    def test_full_graph_validates_scores_before_training(self, monkeypatch):
        g, _ = _toy()
        broken = replace(_toy_scores(), layers=tuple(
            replace(sl, values=sl.values * 2.0) for sl in _toy_scores().layers))

        def no_update(opt, epoch):
            raise AssertionError("trained before validating the scores")
        monkeypatch.setattr(AdamW, "step", no_update)
        with pytest.raises(ContractError, match="sums"):
            train_final(g, broken, self._cfg(full_graph=True))


class TestOneNodeBatches:
    @pytest.mark.parametrize("batch_size", [5, 23])
    def test_the_readme_task_trains_with_a_one_node_tail(self, batch_size, monkeypatch):
        # 116 training nodes leave one node over at both sizes; it joins the
        # batch before it, so training batch norm never takes the variance
        # of a single seed (which scales every row by 1/sqrt(eps) ~ 316 per
        # norm: |out| passed 1e5 within five epochs).  A RuntimeWarning is
        # an error here.
        g = gen_bridge_task(SyntheticSpec(seed=0, num_components=8, component_size=24,
                                          num_bridges=4, extra_edges=2, noise=0.1))
        assert int((g.split == TRAIN).sum()) % batch_size == 1
        pattern = augment(g, build_expander(g.n, 3, seed=0), 2)
        batch_norm, peak = nm.batch_norm, [0.0]

        def recording(*args, **kwargs):
            out = batch_norm(*args, **kwargs)
            if kwargs["training"]:
                peak[0] = max(peak[0], float(np.abs(out.data).max()))
            return out
        monkeypatch.setattr(nm, "batch_norm", recording)
        res = train_final(g, uniform_scores(pattern),
                          TrainConfig(width=32, layers=2, epochs=30, lr=0.01, seed=0,
                                      degs=(4, 4), batch_size=batch_size))
        assert np.isfinite([h[1] for h in res.history]).all()
        assert 0 < peak[0] < 1e3


@pytest.mark.parametrize("phase", ["estimator", "final-max"])
def test_the_arena_trains_like_the_loop_oracle(phase, monkeypatch):
    # the estimator updates every parameter in one run; the final network has
    # no value scale gradient, so each step runs as one run per layer plus one
    g, pattern = _toy()

    def train():
        if phase == "estimator":
            res = train_estimator(g, pattern, TrainConfig(width=4, layers=2, epochs=20,
                                                          lr=0.02, seed=0))
        else:
            res = train_final(g, _toy_scores(), TrainConfig(
                width=8, layers=2, epochs=3, batch_size=16, degs=(4, 4), seed=0,
                ablation="max"))
        return res.network.state_dict(), np.array(res.history)

    state, history = train()
    monkeypatch.setattr(AdamW, "step", adamw_loop_step)
    ref_state, ref_history = train()
    np.testing.assert_array_equal(history, ref_history)
    assert state.keys() == ref_state.keys()
    for name in state:
        assert state[name].dtype == ref_state[name].dtype
        np.testing.assert_array_equal(state[name], ref_state[name])


def test_node_counts_must_match():
    g, pattern = _toy()
    small = gen_bridge_task(SyntheticSpec(seed=2, num_components=2,
                                          component_size=8, num_bridges=1))
    small_pattern = augment(small, build_expander(16, num_cycles=2, seed=1), 2)
    with pytest.raises(ShapeError, match="pattern on 16 nodes, graph on 32"):
        train_estimator(g, small_pattern, TrainConfig(layers=2, epochs=1))
    with pytest.raises(ShapeError, match="scores on 16 nodes, graph on 32"):
        train_final(g, uniform_scores(small_pattern),
                    TrainConfig(layers=2, epochs=1, degs=(4, 4)))
    res = train_final(g, _toy_scores(), TrainConfig(width=8, layers=2, epochs=1,
                                                    batch_size=16, degs=(3, 3)))
    with pytest.raises(ShapeError, match="16 feature rows for scores on 32"):
        predict(res.network, small.features, _toy_scores(), (3, 3), [0, 1],
                loss_name=res.loss_name)


@pytest.mark.parametrize("phase", ["estimator", "sampled", "full-graph"])
def test_without_validation_nodes_the_last_epoch_wins(phase):
    g, pattern = _toy()
    g = _without_val(g)
    if phase == "estimator":
        res = train_estimator(g, pattern, TrainConfig(width=4, layers=2,
                                                      epochs=4, seed=0))
    else:
        res = train_final(g, _toy_scores(), TrainConfig(
            width=8, layers=2, epochs=4, batch_size=16, degs=(4, 4), seed=0,
            full_graph=phase == "full-graph"))
    assert [h[0] for h in res.history] == [1, 2, 3, 4]
    assert np.isnan([h[2] for h in res.history]).all()
    assert res.best_epoch == 4
    assert np.isnan(res.best_val)
    assert np.isfinite(res.test_metric)


class TestFullDegreeEquivalence:
    def test_sampled_full_degree_matches_full_graph(self):
        g, pattern = _toy()
        scores = uniform_scores(pattern)
        max_len = max(int(np.diff(sl.row_ptr).max()) for sl in scores.layers)
        assert max_len <= 20
        common = dict(width=8, layers=2, epochs=6, lr=0.02, batch_size=64,
                      degs=(20, 20), seed=3, dtype="float64", prefilter=False)
        sampled = train_final(g, scores, TrainConfig(**common))
        full = train_final(g, scores, TrainConfig(**common, full_graph=True))
        np.testing.assert_allclose([h[1] for h in sampled.history],
                                   [h[1] for h in full.history],
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose([h[2] for h in sampled.history],
                                   [h[2] for h in full.history], atol=1e-9)
        assert sampled.test_metric == pytest.approx(full.test_metric, abs=1e-9)
        for (na, pa), (nb, pb) in zip(sampled.network.named_parameters(),
                                      full.network.named_parameters()):
            assert na == nb
            # zero-init biases sit at ~1e-10 after six steps, so the
            # absolute floor has to sit above their round-off spread
            np.testing.assert_allclose(pa.data, pb.data, rtol=1e-7, atol=1e-8)

    def test_full_degree_sampling_consumes_no_rng(self):
        # same plans whatever the seed, because every row fits the budget
        g, pattern = _toy()
        scores = uniform_scores(pattern)
        common = dict(width=4, layers=2, epochs=2, batch_size=64,
                      degs=(20, 20), seed=0, prefilter=False)
        a = train_final(g, scores, TrainConfig(**common))
        assert a.sample_stats.uniform_fallbacks == 0


@functools.lru_cache(maxsize=None)
def _toy_final(dtype="float32"):
    g, _ = _toy()
    return train_final(g, _toy_scores(), TrainConfig(width=8, layers=2, epochs=2,
                                                     batch_size=16, degs=(3, 3),
                                                     seed=1, dtype=dtype))


def _check_matches_one_draw_per_chunk(res, batch_size, atol):
    g, pattern = _toy()
    nodes = derive(5, 1).permutation(g.n)
    for scores in (_toy_scores(), uniform_scores(pattern)):
        for n_samples, mode, k_prime in itertools.product(
                (1, 3), ("sample", "top"), (None, 16, 2)):
            kw = dict(seed=4, n_samples=n_samples, batch_size=batch_size,
                      mode=mode, k_prime=k_prime, loss_name=res.loss_name)
            probs, _ = predict(res.network, g.features, scores, (3, 3), nodes, **kw)
            oracle = predict_per_chunk(res.network, g.features, scores, (3, 3),
                                       nodes, **kw)
            if batch_size >= g.n:       # one chunk: the very same forward
                np.testing.assert_array_equal(probs, oracle)
            else:   # BLAS blocks rows apart: round-off in the network's dtype
                np.testing.assert_allclose(probs, oracle, rtol=0, atol=atol)


class TestPredict:
    @pytest.mark.parametrize("batch_size", [1, 5, 64, 32])
    def test_matches_one_draw_per_chunk(self, batch_size):
        _check_matches_one_draw_per_chunk(_toy_final("float64"), batch_size, atol=1e-15)

    @pytest.mark.parametrize("batch_size", [1, 5, 64, 32])
    def test_float32_matches_one_draw_per_chunk(self, batch_size):
        _check_matches_one_draw_per_chunk(_toy_final(), batch_size,
                                          atol=4 * np.finfo(np.float32).eps)

    @pytest.mark.parametrize("dtype,atol", [("float64", 0.0), ("float32", 1e-6)])
    def test_eval_batch_norm_reads_the_buffers_in_the_network_dtype(self, dtype, atol,
                                                                   monkeypatch):
        # against eval batch norm that subtracts the float64 buffers as they
        # are, so that every later op promotes: a float64 network predicts
        # the very same bits, a float32 one to float32 round-off
        def promoting(t, gamma, beta, running_mean, running_var, training, **kwargs):
            assert not training
            inv = 1.0 / np.sqrt(running_var + 1e-5)
            return nm.Tensor((t.data - running_mean) * inv * gamma.data + beta.data)

        g, _ = _toy()
        res = _toy_final(dtype)
        args = (res.network, g.features, _toy_scores(), (3, 3), np.arange(g.n))
        kw = dict(seed=4, n_samples=2, batch_size=5, loss_name=res.loss_name)
        probs, _ = predict(*args, **kw)
        monkeypatch.setattr(nm, "batch_norm", promoting)
        promoted, _ = predict(*args, **kw)
        np.testing.assert_allclose(probs, promoted, rtol=0, atol=atol)

    def test_repeated_nodes_get_identical_rows(self):
        g, _ = _toy()
        res = _toy_final()
        kw = dict(seed=4, loss_name=res.loss_name)
        for batch_size in (1, 2, 3, 64):
            probs, _ = predict(res.network, g.features, _toy_scores(), (3, 3),
                               [3, 5, 3], batch_size=batch_size, **kw)
            once, _ = predict(res.network, g.features, _toy_scores(), (3, 3),
                              [3, 5], batch_size=batch_size, **kw)
            np.testing.assert_array_equal(probs, once[[0, 1, 0]])

    @pytest.mark.parametrize("batch_size", [1, 5])
    def test_each_reached_row_is_computed_once_per_layer(self, batch_size, monkeypatch):
        g, _ = _toy()
        res = _toy_final()
        net, scores = res.network, _toy_scores()
        queries, largest = [0] * len(net.layers), [0]
        sublayer = attention.attention_sublayer

        def counting(h, geom, lp, *args, **kwargs):
            queries[net.layers.index(lp)] += geom.num_queries
            largest[0] = max(largest[0], geom.num_queries)
            return sublayer(h, geom, lp, *args, **kwargs)

        monkeypatch.setattr(attention, "attention_sublayer", counting)
        nodes = np.concatenate((derive(5, 2).permutation(g.n)[:12], [7, 7]))
        predict(net, g.features, scores, (3, 3), nodes, seed=4, batch_size=batch_size,
                loss_name=res.loss_name)
        plan = sample_batch(np.unique(nodes), sampling_law(scores), (3, 3), seed=4, epoch=1,
                            tag=TAG_PREDICT)
        assert queries == [pl.q_nodes.size for pl in plan.layers]
        assert queries[0] > queries[1] == np.unique(nodes).size
        assert largest[0] <= batch_size * 4 * 4       # batch_size * prod(1 + deg)

    @pytest.mark.parametrize("nodes,mode", [([0, -3], "top"), ([-1], "sample"),
                                            ([32], "sample")])
    def test_nodes_outside_the_graph_are_refused(self, nodes, mode):
        g, _ = _toy()
        res = _toy_final()
        assert g.n == 32
        bad = next(v for v in nodes if not 0 <= v < g.n)
        with pytest.raises(IndexError, match=rf"node {bad} outside \[0, 32\)"):
            predict(res.network, g.features, _toy_scores(), (3, 3), nodes, mode=mode,
                    loss_name=res.loss_name)
        with pytest.raises(IndexError, match=rf"node {bad} outside \[0, 32\)"):
            sample_batch(nodes, sampling_law(_toy_scores(), mode=mode), (3, 3), seed=0,
                         epoch=1)

    def test_an_empty_row_reached_through_a_lower_layer(self):
        g, pattern = _toy()
        res = _toy_final()
        uni = uniform_scores(pattern)
        first, last = uni.layers
        seed_node = 0
        row = last.col_idx[last.row_ptr[seed_node]:last.row_ptr[seed_node + 1]]
        hole = int(row[row != seed_node][0])
        keep = np.ones(first.col_idx.size, dtype=bool)
        keep[first.row_ptr[hole]:first.row_ptr[hole + 1]] = False
        lengths = np.diff(first.row_ptr)
        lengths[hole] = 0
        holed = replace(first, row_ptr=np.concatenate(([0], np.cumsum(lengths))),
                        col_idx=first.col_idx[keep], edge_type=first.edge_type[keep],
                        values=first.values[keep])
        scores = replace(uni, layers=(holed, last))
        # full degree: the seed's last-layer row reaches ``hole`` for sure
        with pytest.raises(ContractError, match=f"node {hole} has an empty score row"):
            predict(res.network, g.features, scores, (40, 40), [seed_node],
                    loss_name=res.loss_name)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_must_be_positive(self, batch_size):
        g, _ = _toy()
        res = _toy_final()
        with pytest.raises(ContractError, match="batch_size must be positive"):
            predict(res.network, g.features, _toy_scores(), (3, 3), np.arange(10),
                    batch_size=batch_size, loss_name=res.loss_name)

    def test_chunking_invariance(self):
        g, _ = _toy()
        scores = _toy_scores()
        res = train_final(g, scores, TrainConfig(width=8, layers=2, epochs=4,
                                                 batch_size=16, degs=(3, 3),
                                                 seed=1))
        nodes = np.arange(g.n)
        p_small, l_small = predict(res.network, g.features, scores, (3, 3),
                                   nodes, seed=9, batch_size=5,
                                   loss_name=res.loss_name)
        p_big, l_big = predict(res.network, g.features, scores, (3, 3),
                               nodes, seed=9, batch_size=64,
                               loss_name=res.loss_name)
        assert np.abs(p_small - p_big).max() < 1e-6
        np.testing.assert_array_equal(l_small, l_big)

    def test_sample_averaging_is_reproducible(self):
        g, _ = _toy()
        scores = _toy_scores()
        res = train_final(g, scores, TrainConfig(width=8, layers=2, epochs=3,
                                                 batch_size=16, degs=(3, 3),
                                                 seed=1))
        nodes = g.split_idx(TEST)
        p1, _ = predict(res.network, g.features, scores, (3, 3), nodes,
                        seed=2, n_samples=3, loss_name=res.loss_name)
        p2, _ = predict(res.network, g.features, scores, (3, 3), nodes,
                        seed=2, n_samples=3, loss_name=res.loss_name)
        np.testing.assert_array_equal(p1, p2)
        assert np.all((p1 >= 0) & (p1 <= 1))
        with pytest.raises(ContractError):
            predict(res.network, g.features, scores, (3, 3), nodes, n_samples=0)

    @pytest.mark.parametrize("loss", ["bce", "ce"])
    def test_empty_nodes_give_empty_arrays(self, loss):
        g, _ = _toy()
        scores = _toy_scores()
        res = train_final(g, scores, TrainConfig(width=8, layers=2, epochs=1,
                                                 batch_size=16, degs=(3, 3),
                                                 loss=loss, seed=1))
        some_p, some_l = predict(res.network, g.features, scores, (3, 3),
                                 [0, 1], loss_name=res.loss_name)
        p, lab = predict(res.network, g.features, scores, (3, 3), [],
                         n_samples=2, loss_name=res.loss_name)
        assert p.shape == (0,) + some_p.shape[1:] and p.dtype == some_p.dtype
        assert lab.shape == (0,) + some_l.shape[1:] and lab.dtype == some_l.dtype

    def test_scores_are_validated(self):
        g, pattern = _toy()
        res = train_final(g, _toy_scores(), TrainConfig(width=8, layers=2, epochs=1,
                                                        batch_size=16, degs=(3, 3)))
        uni = uniform_scores(pattern)
        cols = uni.layers[1].col_idx.copy()
        cols[5] = 40
        bad = replace(uni, layers=(uni.layers[0], replace(uni.layers[1], col_idx=cols)))
        # a full-degree plan would gather row 40 of a 32-row tensor
        with pytest.raises(ContractError, match="layer 2: column 40 outside"):
            predict(res.network, g.features, bad, (40, 40), np.arange(g.n),
                    loss_name=res.loss_name)


class TestOneLawPerRun:
    @pytest.fixture
    def count(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return sampling_law(*args, **kwargs)

        monkeypatch.setattr(pipeline, "sampling_law", counting)
        return calls

    @pytest.mark.parametrize("kw,laws", [({}, 1), (dict(eval_samples=3), 1),
                                         (dict(ablation="max"), 1),
                                         (dict(full_graph=True), 1)])
    def test_train_final_builds_one_law(self, count, kw, laws):
        g, _ = _toy()
        train_final(g, _toy_scores(), TrainConfig(width=8, layers=2, epochs=3,
                                                  batch_size=16, degs=(4, 4),
                                                  seed=0, **kw))
        assert len(count) == laws

    @pytest.mark.parametrize("ablation,mode", [("none", "sample"), ("max", "top"),
                                               ("uniform", "sample")])
    def test_a_full_graph_law_keeps_every_entry(self, ablation, mode):
        scores = _toy_scores()
        law, degs = pipeline.final_law(TrainConfig(layers=2, full_graph=True,
                                                   ablation=ablation), scores)
        assert degs == tuple(int(np.diff(sl.row_ptr).max()) for sl in scores.layers)
        ref = sampling_law(uniform_scores(scores) if ablation == "uniform" else scores,
                           mode, k_prime=None)
        assert law.mode == ref.mode and law.n == ref.n
        for ll, rl in zip(law.layers, ref.layers, strict=True):
            for name, value in vars(ll).items():
                np.testing.assert_array_equal(value, getattr(rl, name), err_msg=name)

    def test_full_graph_run_records_its_law(self, tmp_path):
        g, _ = _toy()
        cfg = TrainConfig(width=8, layers=2, epochs=2, batch_size=16, seed=0,
                          full_graph=True)
        res = train_final(g, _toy_scores(), cfg, run_dir=tmp_path)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert res.edge_pct == metrics["edge_pct"] == 100.0
        law = metrics["sampling_law"]
        assert law == pipeline.final_law(cfg, _toy_scores())[0].summary()
        for layer in law:
            assert layer["rows_truncated"] == 0
            assert layer["entries_kept"] == layer["entries_total"]

    @pytest.mark.parametrize("n_samples", [1, 4])
    def test_predict_builds_one_law_per_call(self, count, n_samples):
        g, _ = _toy()
        res = _toy_final()
        count.clear()  # a cold _toy_final cache trains here, building its own law
        for calls in (1, 2):
            predict(res.network, g.features, _toy_scores(), (3, 3), np.arange(g.n),
                    n_samples=n_samples, batch_size=5, loss_name=res.loss_name)
            assert len(count) == calls


class TestRunDirs:
    def test_estimator_layout(self, tmp_path):
        g, pattern = _toy()
        cfg = TrainConfig(width=4, layers=2, epochs=3, seed=0)
        res = train_estimator(g, pattern, cfg, run_dir=tmp_path / "est")
        d = tmp_path / "est"
        meta = json.loads((d / "config.json").read_text())
        assert meta["role"] == "estimator"
        assert config_from_dict({k: v for k, v in meta.items() if k != "role"}) == cfg
        lines = (d / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,val_metric,tau"
        assert len(lines) == 4
        state = load_checkpoint(d / "ckpt" / "estimator.ckpt")
        res.network.load_state_dict(state)       # shapes must line up
        stored = load_scores_npz(d / "scores" / "scores.npz")
        validate_scores(stored)
        metrics = json.loads((d / "metrics.json").read_text())
        assert {"best_epoch", "best_val", "test_metric", "tau_final",
                "loss"} <= set(metrics)

    def test_final_checkpoint_holds_exact_values(self, tmp_path):
        # float64 weights and batch norm's float64 running buffers come back
        # bit for bit, so a reloaded network predicts what the trained one did
        g, _ = _toy()
        cfg = TrainConfig(width=8, layers=2, epochs=3, batch_size=16,
                          degs=(4, 4), seed=0, dtype="float64")
        res = train_final(g, _toy_scores(), cfg, run_dir=tmp_path / "fin")
        state = res.network.state_dict()
        back = load_checkpoint(tmp_path / "fin" / "ckpt" / "final.ckpt")
        assert back.keys() == state.keys()
        assert {"layer0.n1_mean", "layer1.n2_var"} <= back.keys()
        for name in state:
            assert back[name].dtype == state[name].dtype == np.float64
            np.testing.assert_array_equal(back[name], state[name])

    def test_final_layout(self, tmp_path):
        g, _ = _toy()
        cfg = TrainConfig(width=8, layers=2, epochs=3, batch_size=16,
                          degs=(4, 4), seed=0)
        train_final(g, _toy_scores(), cfg, run_dir=tmp_path / "fin")
        d = tmp_path / "fin"
        assert json.loads((d / "config.json").read_text())["role"] == "final"
        assert (d / "ckpt" / "final.ckpt").exists()
        metrics = json.loads((d / "metrics.json").read_text())
        assert {"edge_pct", "rows_sampled", "best_epoch"} <= set(metrics)
        # the law the run drew by, layer by layer
        law = metrics["sampling_law"]
        assert [layer["layer"] for layer in law] == [1, 2]
        for layer, sl in zip(law, _toy_scores().layers):
            assert set(layer) == {"layer", "rows_truncated", "rows_kept_full",
                                  "rows_no_positive", "entries_kept", "entries_total"}
            assert layer["entries_total"] == sl.values.size
            assert layer["entries_kept"] <= layer["entries_total"]
            assert layer["rows_truncated"] + layer["rows_kept_full"] <= g.n
            assert layer["rows_no_positive"] == 0
        assert law == sampling_law(_toy_scores(), k_prime=16).summary()


class TestStrictJson:
    def _strict(self, path):
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        with open(path) as fh:
            return json.load(fh, parse_constant=refuse)

    @pytest.mark.parametrize("epochs", [4, 0])
    def test_runs_without_validation_write_null(self, tmp_path, epochs):
        # best_val is NaN after training without validation nodes and -inf
        # when no epoch ran
        g, pattern = _toy()
        train_estimator(_without_val(g), pattern,
                        TrainConfig(width=4, layers=2, epochs=epochs, seed=0),
                        run_dir=tmp_path)
        metrics = self._strict(tmp_path / "metrics.json")
        assert metrics["best_val"] is None
        assert np.isfinite(metrics["test_metric"])
        self._strict(tmp_path / "config.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ckpt", "config.json", "history.csv", "metrics.json", "scores"]

    def test_nested_values_and_failed_writes(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": [1.5, float("inf"), (float("-inf"), 2)],
                          "a": {"x": float("nan")}})
        assert path.read_text() == ('{\n  "a": {\n    "x": null\n  },\n'
                                    '  "b": [\n    1.5,\n    null,\n    [\n'
                                    '      null,\n      2\n    ]\n  ]\n}\n')
        before = path.read_text()
        with pytest.raises(TypeError):
            write_json(path, {"a": object()})
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_history_csv_format(tmp_path):
    save_history_csv(tmp_path / "h.csv", [(1, 0.5, 0.25, 1.0),
                                          (2, 0.25, float("nan"), 0.99)])
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert lines[0] == "epoch,loss,val_metric,tau"
    assert lines[1] == "1,0.5,0.25,1"
    assert lines[2].startswith("2,0.25,nan,")


class _Boom:
    """A payload item that fails the write once the writer reaches it."""

    def __array__(self, *args, **kwargs):
        raise OSError("disk full")

    def __format__(self, spec):
        raise OSError("disk full")

    def __int__(self):
        raise OSError("disk full")

    __float__ = __int__


def _score_set(edge_type):
    return AttentionPattern(n=2, layers=(PatternLayer(
        row_ptr=np.array([0, 1, 2]), col_idx=np.array([0, 1]),
        edge_type=edge_type, values=np.ones(2)),))


def _with_boom(values, at):
    out = np.array(values, dtype=object)
    out[at] = _Boom()
    return out


def _profile(entropy):
    return {"entropy": entropy, "topk_mass": [0.9] * len(entropy),
            "edge_type_mass": [[0.25, 0.25, 0.5]] * len(entropy)}


_DATA = gen_dataset(SyntheticSpec(seed=3, num_components=2, component_size=6,
                                  num_bridges=1))


def _write_data(path, g):
    write_dataset(path, g, SyntheticSpec())


@pytest.mark.parametrize("write,good,bad", [
    (save_history_csv, [(1, 0.5, 0.25, 1.0)],
     [(1, 0.75, 0.25, 1.0), (2, _Boom(), 0.25, 1.0)]),
    (save_checkpoint, {"w": np.ones(3)}, {"w": np.zeros(3), "x": _Boom()}),
    (save_scores_npz, _score_set(np.array([2, 2])), _score_set(_Boom())),
    (lambda path, rows: write_predictions(path, *rows),
     (np.arange(2), np.array([0.25, 0.75]), np.array([0, 1])),
     (np.arange(2), _with_boom([0.5, 0.5], 1), np.array([1, 0]))),
    (write_profile_csv, _profile([0.5]), _profile([0.25, _Boom()])),
    (save_pattern, _score_set(np.array([2, 2])),
     _score_set(_with_boom([1, 0], 1))),
    (save_split, np.array([TRAIN, TEST]), _with_boom([VAL, TRAIN], 1)),
    # a directory of files: the features table fails after the edge list
    (_write_data, _DATA, replace(_DATA, features=_with_boom(_DATA.features, (5, 1)))),
], ids=["history", "checkpoint", "scores", "predictions", "profile", "pattern",
        "split", "dataset"])
def test_a_failed_write_leaves_the_previous_file_whole(tmp_path, write, good, bad):
    def files():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    write(tmp_path / "out", good)
    before = files()
    with pytest.raises(OSError, match="disk full"):
        write(tmp_path / "out", bad)
    assert files() == before
