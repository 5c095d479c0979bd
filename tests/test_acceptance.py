"""The graduation suite: twelve checks the whole package must clear.

Each check is a self-contained claim about the pipeline at desk scale,
from exact arithmetic (temperature schedule, edge budgets) through
sampling laws verified against independent implementations, to the
qualitative training phenomena the two-phase design is built around
(narrow estimators agreeing with wide ones, attention-guided sampling
beating uniform) and the memory the two phases save.  Every test appends
a PASS/FAIL line with the measured quantity; the conftest hook prints the
full ledger after the run.

The empirical checks share one n=192 bridge task: eight 24-node hub
components, four hub-to-hub bridges, two extra intra edges per
component.  With that topology a 2-layer network can solve the task
exactly, but only when sampling keeps the bridge edges; that is what
separates the attention-guided runs from the uniform ablation.
"""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from conftest import ACCEPTANCE
from gradcheck import finite_difference, max_relative_error
from sampling_oracle import draw_many, predict_per_chunk
from training_oracle import train_full_pattern
import sparsegt.numerics as nm
from sparsegt.analysis import (attention_entropy, consistency_study,
                               projection_distortion_check,
                               spectral_sample_check)
from sparsegt.attention import (ModelConfig, Network, TemperatureSchedule,
                                pattern_geometry, temperature_at)
from sparsegt.datasets import SyntheticSpec, gen_bridge_task
from sparsegt.graphs import (TRAIN, AttentionPattern, EdgeType, PatternLayer, augment,
                             build_expander)
from sparsegt.pipeline import (TrainConfig, _loss_tensor, build_network, edge_percent,
                               predict, train_estimator, train_final)
from sparsegt.rngutil import derive
from sparsegt.sampling import plan_geometries, resample_epoch, sampling_law, uniform_scores

SEEDS = range(10)
EST = TrainConfig(width=8, layers=2, epochs=400, lr=0.01, seed=0)
FIN = TrainConfig(width=32, layers=2, epochs=30, lr=0.01, seed=0,
                  degs=(4, 4), batch_size=64)
# c12's bounds on ratios of traced step peaks: twice the 0.482 and 0.295
# measured when the check was written
SAMPLED_BOUND = 0.96
ESTIMATOR_BOUND = 0.59


def _report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {num:2d}. {name}: {detail}"
    ACCEPTANCE.append(line)
    assert ok, line


@functools.lru_cache(maxsize=None)
def _task():
    spec = SyntheticSpec(seed=0, num_components=8, component_size=24,
                         num_bridges=4, extra_edges=2, noise=0.1)
    g = gen_bridge_task(spec)
    pattern = augment(g, build_expander(g.n, 3, seed=0), 2)
    return g, pattern


@functools.lru_cache(maxsize=None)
def _estimators():
    g, pattern = _task()
    return {s: train_estimator(g, pattern, replace(EST, seed=s))
            for s in SEEDS}


def test_c01_full_degree_equivalence():
    g, pattern = _task()
    maxdeg = int(np.diff(pattern.layers[0].row_ptr).max())
    scores = train_estimator(g, pattern, replace(EST, epochs=30)).scores
    cfg = replace(FIN, width=16, epochs=8, seed=3, degs=(maxdeg, maxdeg),
                  batch_size=256, dtype="float64")
    # both arms draw full-degree plans; the oracle runs the whole pattern
    oracle = np.array([h[1] for h in train_full_pattern(g, scores, cfg).history])
    dev = 0.0
    for run_cfg in (cfg, replace(cfg, degs=("full", "full"))):
        losses = np.array([h[1] for h in train_final(g, scores, run_cfg).history])
        dev = max(dev, float(np.max(np.abs(losses - oracle) / np.abs(oracle))))
    _report(1, "full-degree equivalence", dev < 1e-4,
            f"max relative loss deviation {dev:.2e} from the full-pattern "
            f"oracle over {oracle.size} epochs at degree {maxdeg} (tol 1e-4)")


def test_c02_gradient_correctness():
    G, X, S = EdgeType.GRAPH, EdgeType.EXPANDER, EdgeType.SELF_LOOP
    rows = [[0, 1, 5], [0, 1, 2], [1, 2, 4], [2, 3], [2, 4, 5], [0, 5]]
    types = [[S, G, X], [G, S, G], [G, S, X], [G, S], [X, G, S], [X, S]]
    lengths = [len(r) for r in rows]
    pl = PatternLayer(
        row_ptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
        col_idx=np.concatenate(rows).astype(np.int64),
        edge_type=np.concatenate(types).astype(np.int64))
    cfg = ModelConfig(in_dim=3, width=4, layers=2, out_dim=2, norm="layer",
                      normalize_values=True, dtype=np.float64)
    net = Network(cfg, seed=5)
    geoms = [pattern_geometry(pl), pattern_geometry(pl)]
    feats = derive(0, 71).normal(size=(6, 3))
    labels = np.array([0, 1, 1, 0, 1, 0])

    def loss_fn():
        logits, _ = net.forward(feats, geoms, tau=0.9, training=True)
        return nm.softmax_cross_entropy(logits, labels)

    nm.backward(loss_fn())
    worst = 0.0
    for name, p in net.named_parameters():
        assert p.grad is not None, f"{name} has no gradient"
        num = finite_difference(loss_fn, p)
        worst = max(worst, max_relative_error(p.grad, num))
    _report(2, "gradient correctness", worst < 1e-3,
            f"max relative error {worst:.2e} across all parameters "
            "of a 6-node 2-layer width-4 network (tol 1e-3)")


def test_c03_reservoir_law():
    # 100k independent draws per part from one sample_batch call each:
    # node i of a score set of identical rows is draw i
    w1 = np.array([0.9, 0.05, 0.05])
    counts = np.bincount(draw_many(w1, 1, 100_000, seed=0, epoch=1)[:, 0],
                         minlength=3).astype(np.float64)
    dev = float(np.abs(counts / 1e5 - w1).max())
    pval = float(sps.chisquare(counts, 1e5 * w1).pvalue)

    w2 = np.array([0.4, 0.3, 0.2, 0.1])
    drawn = draw_many(w2, 2, 100_000, seed=0, epoch=2)
    codes, counts2 = np.unique(drawn[:, 0] * 4 + drawn[:, 1], return_counts=True)
    pairs = {(int(k) // 4, int(k) % 4): int(c) for k, c in zip(codes, counts2)}
    # independent implementation: sequential sampling without
    # replacement, first index by inverse cdf, second renormalized
    m = 1_000_000
    orng = np.random.Generator(np.random.PCG64(1234321))
    first = np.searchsorted(np.cumsum(w2), orng.random(m), side="right")
    w2m = np.tile(w2, (m, 1))
    w2m[np.arange(m), first] = 0.0
    w2m /= w2m.sum(axis=1, keepdims=True)
    second = (orng.random(m)[:, None] > np.cumsum(w2m, axis=1)).sum(axis=1)
    lo, hi = np.minimum(first, second), np.maximum(first, second)
    keys, oc = np.unique(lo * 4 + hi, return_counts=True)
    oracle = {(int(k) // 4, int(k) % 4): c / m for k, c in zip(keys, oc)}
    tv = 0.5 * sum(abs(pairs.get(p, 0) / 1e5 - oracle.get(p, 0.0))
                   for p in set(pairs) | set(oracle))
    ok = dev < 0.01 and pval > 0.001 and tv < 0.02
    _report(3, "reservoir sampling law", ok,
            f"k=1 max deviation {dev:.4f} (tol 0.01), chi2 p={pval:.3f} "
            f"(floor 0.001); k=2 TV {tv:.4f} vs sequential oracle (tol 0.02)")


def test_c04_temperature_schedule():
    sched = TemperatureSchedule()          # lam=5, gamma=0.99
    ok = (temperature_at(sched, 5) == 1.0
          and temperature_at(sched, 6) == 0.99
          and temperature_at(sched, 100_000) == 0.05)
    _report(4, "temperature schedule", ok,
            "tau(5)=1, tau(6)=0.99, tau(inf)=0.05 hold exactly")


def test_c05_consistency_direction():
    g, pattern = _task()
    res = consistency_study(g, pattern, EST, widths=(4,), ref_width=32,
                            num_runs=10, max_cells=200)
    frac = res.frac_closer_both[4]
    _report(5, "consistency direction", frac >= 0.80,
            f"width-4 runs beat random and uniform baselines in "
            f"{100 * frac:.1f}% of {res.num_cells} cells (need 80%)")


def test_c06_entropy_ordering():
    ents = [attention_entropy(r.scores) for r in _estimators().values()]
    hits = sum(h[0] >= h[1] for h in ents)
    _report(6, "entropy ordering", hits >= 8,
            f"layer-1 mean entropy >= layer-2 in {hits}/10 seeds (need 8)")


def test_c07_spectral_sampling():
    out = spectral_sample_check(n=64,
                                sample_sizes=(256, 1024, 4096, 16384, 65536),
                                trials=20, seed=0, zero_frac=0.25)
    ok = abs(out["slope"] + 0.5) <= 0.15 and out["support_ok"]
    _report(7, "spectral sampling rate", ok,
            f"log-log error slope {out['slope']:.3f} (want -0.5 +/- 0.15), "
            f"support always contained: {out['support_ok']}")


def test_c08_jlt_compression():
    out = projection_distortion_check(dims=(16, 64, 256), n_points=64,
                                      in_dim=512, trials=50, seed=0)
    worst = out["median_max_distortion"]
    bound = 0.5 * worst[16] * 1.3
    _report(8, "projection compression trend", worst[256] <= bound,
            f"median max distortion {worst[256]:.4f} at d=256 vs "
            f"{bound:.4f} allowed (half of d=16 value {worst[16]:.4f} "
            "plus 30%)")


def test_c09_ablation_direction():
    g, _ = _task()
    margins = []
    for s, r in _estimators().items():
        a = train_final(g, r.scores, replace(FIN, seed=s))
        b = train_final(g, r.scores, replace(FIN, seed=s, ablation="uniform"))
        margins.append(100 * (a.test_metric - b.test_metric))
    hits = sum(m >= 5.0 for m in margins)
    _report(9, "ablation direction", hits >= 8,
            f"attention sampling beats uniform by >=5 points in {hits}/10 "
            f"seeds (margins {min(margins):+.1f} to {max(margins):+.1f})")


def test_c10_batch_size_invariance():
    g, pattern = _task()
    maxdeg = int(np.diff(pattern.layers[0].row_ptr).max())
    scores = _estimators()[0].scores
    res = train_final(g, scores, FIN)
    nodes = g.split_idx(2)
    # one plan and forward per node against predict's one plan over all nodes
    one = predict_per_chunk(res.network, g.features, scores, (maxdeg, maxdeg), nodes,
                            seed=0, batch_size=1, loss_name=res.loss_name)
    full = predict(res.network, g.features, scores, (maxdeg, maxdeg), nodes,
                   seed=0, loss_name=res.loss_name)[0]
    dev = float(np.abs(one - full).max())
    _report(10, "batch-size invariance", dev <= 1e-5,
            f"per-node chunks vs one pass over {nodes.size} nodes at full degree: "
            f"max probability deviation {dev:.2e} (tol 1e-5)")


def test_c11_edge_percent_arithmetic():
    def layer(row_ptr, col_idx):
        return PatternLayer(row_ptr=np.array(row_ptr), col_idx=col_idx,
                            edge_type=np.zeros(col_idx.size, dtype=np.int8),
                            values=np.ones(col_idx.size))
    a = edge_percent(AttentionPattern(n=3, layers=(
        layer([0, 3, 9, 18], np.arange(18) % 3),)), (5,))
    two = AttentionPattern(n=1, layers=(layer([0, 4], np.arange(4)),
                                        layer([0, 8], np.arange(8))))
    b = edge_percent(two, (2, 4))
    c = edge_percent(two, (9, 9))
    ok = a == 100.0 * 13 / 18 and b == 50.0 and c == 100.0
    _report(11, "edge-percent arithmetic", ok,
            f"fixtures give {a:.13f}%, {b:.0f}%, {c:.0f}% as hand-computed")


def _step_peak(cfg, role, geoms, inputs, targets):
    """tracemalloc peak, in bytes, of one training forward and backward of
    the ``role`` network of ``cfg`` over ``geoms``, its loss on the output
    rows ``targets`` (all, if None).  A first step, not measured, builds
    what a training loop builds once: each geometry's edge index and the
    parameters' gradients."""
    g, _ = _task()
    net, loss_name = build_network(g, cfg, role)
    x = np.asarray(g.features, dtype=cfg.np_dtype)[inputs]
    rows = np.arange(geoms[-1].num_queries) if targets is None else targets
    labels = np.asarray(g.labels)[geoms[-1].query_rows][rows]

    def step():
        logits, _ = net.forward(x, geoms, tau=1.0, training=True)
        nm.backward(_loss_tensor(loss_name, nm.gather_rows(logits, rows), labels))

    step()
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_c12_memory_ledger():
    # the estimator's width-8 step and the wide network's sampled step (one
    # batch of 64 at degrees (4, 4), drawn uniformly, which reaches the most
    # rows) against the wide network's step over the whole pattern
    g, pattern = _task()
    train = g.split_idx(TRAIN)
    everything = np.arange(g.n)
    full = [pattern_geometry(layer) for layer in pattern.layers]
    est = _step_peak(EST, "estimator", full, everything, train)
    wide = _step_peak(FIN, "final", full, everything, train)
    plan = resample_epoch(sampling_law(uniform_scores(pattern)), FIN.degs, train,
                          FIN.batch_size, seed=0, epoch=1)[0]
    sampled = _step_peak(FIN, "final", plan_geometries(plan), plan.input_nodes, None)
    ok = sampled / wide <= SAMPLED_BOUND and est / wide <= ESTIMATOR_BOUND
    _report(12, "memory ledger", ok,
            f"step peaks {est / 2**20:.2f} MB (width-8 estimator), "
            f"{sampled / 2**20:.2f} MB (width 32, sampled) and {wide / 2**20:.2f} MB "
            f"(width 32, full pattern): sampled/full {sampled / wide:.3f} "
            f"(bound {SAMPLED_BOUND}), estimator/full {est / wide:.3f} "
            f"(bound {ESTIMATOR_BOUND})")
