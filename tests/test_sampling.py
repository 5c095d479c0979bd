"""Reservoir sampling law, prefiltering, batch-plan assembly, score IO.

The weighted-reservoir pair law for k=2 over weights (.5, .3, .2) was
derived by hand from sequential sampling without replacement,

    P({i,j}) = p_i p_j (1/(1-p_i) + 1/(1-p_j)),

and those constants are frozen below.  The same law is also re-estimated
inside the test by an independent two-step sequential sampler, so the
reservoir implementation is checked against both the closed form and a
second mechanism.  The batched plan sampler is checked against the same
constants, and against the per-query loop it replaced (sampling_oracle)
wherever the two must agree exactly.
"""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from sparsegt.attention import LayerGeometry
from sparsegt.errors import ContractError, ShapeError
from sparsegt.graphs import AttentionPattern, EdgeType, PatternLayer
from sparsegt.rngutil import TAG_VAL, derive
from sparsegt.sampling import (BatchPlan, SampleStats, load_scores_npz,
                               plan_geometries, prefilter_topk,
                               reservoir_sample, resample_epoch, sample_batch,
                               save_scores_npz, uniform_scores,
                               validate_scores)
from sampling_oracle import (prefilter_topk_loop, reservoir_sample_many,
                             sample_batch_loop)

W = np.array([0.5, 0.3, 0.2])
# hand-derived k=2 inclusion law for W: 18/35, 13/40, 9/56
PAIR_LAW = {(0, 1): 0.5142857142857142,
            (0, 2): 0.325,
            (1, 2): 0.16071428571428573}


class TestReservoirLaw:
    def test_pair_law_constants_are_a_distribution(self):
        assert abs(sum(PAIR_LAW.values()) - 1.0) < 1e-12

    def test_k1_frequencies_match_scores(self):
        draws = 20_000
        picks = reservoir_sample_many(W, 1, derive(3, 1), draws)[:, 0]
        counts = np.bincount(picks, minlength=3)
        freq = counts / draws
        assert np.abs(freq - W).max() < 0.01
        assert sps.chisquare(counts, W * draws).pvalue > 0.001

    def _pair_freq(self, pairs, draws):
        code = pairs.min(axis=1) * 3 + pairs.max(axis=1)
        return {key: np.mean(code == {(0, 1): 1, (0, 2): 2, (1, 2): 5}[key])
                for key in PAIR_LAW}

    def test_k2_matches_hand_law(self):
        draws = 30_000
        pairs = reservoir_sample_many(W, 2, derive(3, 2), draws)
        freq = self._pair_freq(pairs, draws)
        tv = 0.5 * sum(abs(freq[k] - PAIR_LAW[k]) for k in PAIR_LAW)
        assert tv < 0.02, freq

    def test_k2_matches_sequential_sampler(self):
        # independent mechanism: draw one index by its score, then a
        # second from the renormalized remainder
        draws = 30_000
        rng = derive(3, 3)
        first = rng.choice(3, size=draws, p=W)
        u = rng.random(draws)
        second = np.empty(draws, dtype=np.int64)
        for f, (a, b) in {0: (1, 2), 1: (0, 2), 2: (0, 1)}.items():
            m = first == f
            second[m] = np.where(u[m] < W[a] / (W[a] + W[b]), a, b)
        seq = self._pair_freq(np.column_stack([first, second]), draws)
        res = self._pair_freq(reservoir_sample_many(W, 2, derive(3, 4), draws),
                              draws)
        for k in PAIR_LAW:
            assert abs(seq[k] - PAIR_LAW[k]) < 0.02
            assert abs(res[k] - seq[k]) < 0.03


class TestReservoirPaths:
    def test_full_row_consumes_no_randomness(self):
        rng, twin = derive(9, 1), derive(9, 1)
        np.testing.assert_array_equal(reservoir_sample(W, 3, rng), [0, 1, 2])
        np.testing.assert_array_equal(reservoir_sample(W, 7, rng), [0, 1, 2])
        assert rng.random() == twin.random()

    def test_completion_keeps_every_positive_entry(self):
        w = np.array([0.0, 0.6, 0.0, 0.4, 0.0])
        for t in range(50):
            take = reservoir_sample(w, 4, derive(9, 2, t))
            assert take.size == 4
            assert np.array_equal(np.unique(take), take)
            assert {1, 3} <= set(take.tolist())

    def test_all_zero_row_falls_back_to_uniform(self):
        stats = SampleStats()
        seen = set()
        for t in range(60):
            take = reservoir_sample(np.zeros(6), 3, derive(9, 3, t), stats=stats)
            assert take.size == 3
            seen.update(take.tolist())
        assert stats.uniform_fallbacks == 60
        assert stats.rows_sampled == 60
        assert seen == set(range(6))

    def test_contract_errors(self):
        rng = derive(9, 4)
        with pytest.raises(ContractError, match="positive"):
            reservoir_sample(W, 0, rng)
        with pytest.raises(ShapeError):
            reservoir_sample(np.ones((2, 2)), 1, rng)
        with pytest.raises(ContractError, match="negative"):
            reservoir_sample(np.array([0.5, -0.1]), 1, rng)
        with pytest.raises(ContractError, match="positive scores"):
            reservoir_sample_many(np.array([0.5, 0.0, 0.0]), 2, rng, 4)

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=12),
           st.integers(1, 15), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sample_shape_invariants(self, w, k, key):
        w = np.asarray(w)
        take = reservoir_sample(w, k, derive(11, key))
        assert take.size == min(k, w.size)
        assert np.array_equal(np.unique(take), take)
        assert take.min() >= 0 and take.max() < w.size
        npos = int((w > 0).sum())
        if k < w.size and npos >= k:
            assert np.all(w[take] > 0)


class TestPrefilter:
    def test_short_row_passes_through(self):
        keep, full = prefilter_topk(W, 5)
        np.testing.assert_array_equal(keep, [0, 1, 2])
        assert full is False

    def test_truncates_light_tail(self):
        keep, full = prefilter_topk(np.array([0.6, 0.38, 0.01, 0.01]), 2)
        np.testing.assert_array_equal(keep, [0, 1])
        assert full is False

    def test_tie_prefers_lower_index(self):
        keep, _ = prefilter_topk(np.array([0.32, 0.32, 0.32, 0.04]), 2,
                                 tail_eps=0.5)
        np.testing.assert_array_equal(keep, [0, 1])

    def test_heavy_tail_keeps_full_row(self):
        keep, full = prefilter_topk(np.array([0.4, 0.3, 0.3]), 1)
        np.testing.assert_array_equal(keep, [0, 1, 2])
        assert full is True

    def test_k_prime_contract(self):
        with pytest.raises(ContractError):
            prefilter_topk(W, 0)


# ring support over n nodes: each row is {i-1, i, i+1} with fixed scores
def _ring_scores(n=6, layers=2):
    rows, vals, typs = [], [], []
    for i in range(n):
        cols = np.sort(np.array([i, (i + 1) % n, (i - 1) % n]))
        rows.append(cols)
        by_col = {i: 0.5, (i + 1) % n: 0.3, (i - 1) % n: 0.2}
        vals.append([by_col[c] for c in cols])
        typs.append([int(EdgeType.SELF_LOOP) if c == i else int(EdgeType.GRAPH)
                     for c in cols])
    row_ptr = np.arange(0, 3 * n + 1, 3, dtype=np.int64)
    sl = PatternLayer(row_ptr=row_ptr,
                      col_idx=np.concatenate(rows).astype(np.int64),
                      values=np.concatenate(vals),
                      edge_type=np.concatenate(typs).astype(np.int64))
    return AttentionPattern(n=n, layers=(sl,) * layers)


def _ring_values_with_row(row_values, row=1):
    """The ring's score values with one row's three replaced."""
    vals = _ring_scores().layers[0].values.copy()
    vals[3 * row:3 * row + 3] = row_values
    return vals


# one CSR score layer with every entry typed GRAPH
def _scored(row_ptr, col_idx, values):
    col_idx = np.asarray(col_idx, dtype=np.int64)
    return PatternLayer(row_ptr=np.asarray(row_ptr), col_idx=col_idx,
                        edge_type=np.zeros(col_idx.size, dtype=np.int8),
                        values=np.asarray(values, dtype=np.float64))


def _drawn(pl, qi):
    """Global ids and edge types of the keys query ``qi`` of a plan layer drew."""
    geom = pl.geometry
    lo, hi = geom.row_ptr[qi], geom.row_ptr[qi + 1]
    return pl.v_nodes[geom.col_idx[lo:hi]], geom.edge_type[lo:hi]


def _assert_plan_invariants(plan: BatchPlan, scores: AttentionPattern, seeds, degs):
    num_layers = len(plan.layers)
    np.testing.assert_array_equal(plan.layers[-1].q_nodes, seeds)
    np.testing.assert_array_equal(plan.input_nodes, plan.layers[0].v_nodes)
    for li, pl in enumerate(plan.layers):
        v, q, geom = pl.v_nodes, pl.q_nodes, pl.geometry
        assert np.all(np.diff(v) > 0)                    # sorted, unique
        assert np.isin(q, v).all()
        np.testing.assert_array_equal(v[geom.query_rows], q)
        assert geom.row_ptr.shape == (q.size + 1,) and geom.row_ptr[0] == 0
        assert 0 <= geom.col_idx.min() and geom.col_idx.max() < v.size
        layer = scores.layers[li]
        for qi, node in enumerate(q):
            row_type = dict(zip(layer.row(int(node)).tolist(),
                                layer.row_types(int(node)).tolist()))
            keys, types = _drawn(pl, qi)
            assert keys.size == min(degs[li], len(row_type))
            assert np.unique(keys).size == keys.size
            # every drawn edge is an entry of the score row, with its type
            assert set(keys.tolist()) <= row_type.keys()
            assert [row_type[k] for k in keys.tolist()] == types.tolist()
        # the tracer's padded view: queries x longest row, one slot per edge
        longest = np.diff(geom.row_ptr).max()
        assert geom.key_mask.size == q.size * longest
        assert np.count_nonzero(geom.key_mask) == geom.row_ptr[-1]
        if li < num_layers - 1:
            np.testing.assert_array_equal(pl.q_nodes, plan.layers[li + 1].v_nodes)
            np.testing.assert_array_equal(q[geom.stats_rows], plan.seeds)
        else:
            np.testing.assert_array_equal(geom.stats_rows, np.arange(seeds.size))
    for pl, geom in zip(plan.layers, plan_geometries(plan)):
        assert geom is pl.geometry


class TestBatchPlans:
    def test_ring_plan_invariants(self):
        ss = _ring_scores()
        seeds = np.array([1, 4])
        plan = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1)
        _assert_plan_invariants(plan, ss, seeds, (2, 2))
        assert plan.stats.rows_sampled == sum(pl.q_nodes.size
                                              for pl in plan.layers)

    def test_unsorted_seeds_keep_their_order(self):
        ss = _ring_scores()
        seeds = np.array([4, 1])
        plan = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1)
        _assert_plan_invariants(plan, ss, seeds, (2, 2))

    @given(st.integers(0, 10**6), st.integers(4, 10),
           st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_random_support_invariants(self, key, n, d1, d2):
        rng = derive(77, key)
        rows = [np.unique(np.concatenate(
            [[i], np.flatnonzero(rng.random(n) < 0.4)])) for i in range(n)]
        lengths = np.array([r.size for r in rows])
        row_ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        vals = np.concatenate([rng.dirichlet(np.ones(r.size)) for r in rows])
        sl = _scored(row_ptr, np.concatenate(rows), vals)
        ss = AttentionPattern(n=n, layers=(sl, sl))
        seeds = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                   replace=False))
        plan = sample_batch(seeds, ss, (d1, d2), seed=key, epoch=1)
        _assert_plan_invariants(plan, ss, seeds, (d1, d2))
        _assert_same_plan(plan, sample_batch(seeds, ss, (d1, d2), seed=key, epoch=1))

    def _masked_keys(self, plan):
        pl = plan.layers[-1]
        return [(int(q), tuple(sorted(_drawn(pl, qi)[0])))
                for qi, q in enumerate(pl.q_nodes)]

    def test_epoch_changes_the_draw(self):
        ss = _ring_scores()
        seeds = np.arange(6)
        p1 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1)
        p2 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=2)
        assert self._masked_keys(p1) != self._masked_keys(p2)

    def test_tag_namespaces_the_draw(self):
        ss = _ring_scores()
        seeds = np.arange(6)
        p1 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1)
        p2 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1, tag=TAG_VAL)
        assert self._masked_keys(p1) != self._masked_keys(p2)

    def test_layers_draw_independently(self):
        # node 0 queries both layers of identical score rows; shared draws
        # would pick the same pair every time, independent ones agree with
        # probability sum_pairs P(pair)^2 = 0.396
        ss = _ring_scores()
        epochs = 400
        agree = 0
        for epoch in range(epochs):
            plan = sample_batch(np.array([0]), ss, (2, 2), seed=0, epoch=epoch)
            rows = [_drawn(pl, np.searchsorted(pl.q_nodes, 0))[0]
                    for pl in plan.layers]
            agree += set(rows[0]) == set(rows[1])
        assert 0.25 < agree / epochs < 0.55

    def test_row_draw_is_independent_of_its_batch(self):
        # batch_index 0, as evaluation and predict pass it: a node's
        # sampled row is the same in whichever chunk it is drawn
        ss = _hub_scores(5)
        nodes = derive(80, 1).permutation(ss.n)
        rows = {}
        for size in (1, 7, ss.n):
            for start in range(0, ss.n, size):
                plan = sample_batch(nodes[start:start + size], ss, (2, 3),
                                    seed=1, epoch=3, k_prime=4)
                for li, pl in enumerate(plan.layers):
                    for qi, q in enumerate(pl.q_nodes):
                        got = tuple(map(tuple, _drawn(pl, qi)))
                        assert rows.setdefault((li, int(q)), got) == got

    def test_top_mode_is_deterministic_and_greedy(self):
        sl = _scored([0, 3, 6, 9], np.tile([0, 1, 2], 3),
                     np.tile([0.3, 0.4, 0.3], 3))
        ss = AttentionPattern(n=3, layers=(sl,))
        p1 = sample_batch(np.array([0]), ss, (2,), seed=0, epoch=1, mode="top")
        p9 = sample_batch(np.array([0]), ss, (2,), seed=5, epoch=9, mode="top")
        # 0.4 wins, then the 0.3 tie resolves to the lower index
        np.testing.assert_array_equal(np.sort(_drawn(p1.layers[-1], 0)[0]), [0, 1])
        _assert_same_plan(p1, p9)

    def test_prefilter_counters(self):
        # node 0 has a heavy head, node 1 is flat; k'=2 truncates one and
        # must keep the other whole
        vals = np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02] + [1 / 6.0] * 6)
        cols = np.tile(np.arange(6), 2).astype(np.int64)
        ss = AttentionPattern(n=2, layers=(_scored([0, 6, 12], cols, vals),))
        stats = SampleStats()
        sample_batch(np.array([0, 1]), ss, (3,), seed=0, epoch=1,
                     k_prime=2, tail_eps=0.2, stats=stats)
        assert stats.prefilter_truncated >= 1
        assert stats.prefilter_kept_full >= 1

    def test_contract_errors(self):
        ss = _ring_scores()
        with pytest.raises(ContractError, match="duplicate"):
            sample_batch(np.array([1, 1]), ss, (2, 2), seed=0, epoch=1)
        with pytest.raises(ShapeError, match="degree budgets"):
            sample_batch(np.array([1]), ss, (2,), seed=0, epoch=1)
        with pytest.raises(ContractError, match="positive"):
            sample_batch(np.array([1]), ss, (2, 0), seed=0, epoch=1)
        with pytest.raises(ContractError, match="mode"):
            sample_batch(np.array([1]), ss, (2, 2), seed=0, epoch=1, mode="best")
        with pytest.raises(ContractError, match="nonempty"):
            sample_batch(np.array([], dtype=np.int64), ss, (2, 2), seed=0, epoch=1)
        with pytest.raises(ContractError, match="k_prime"):
            sample_batch(np.array([1]), ss, (2, 2), seed=0, epoch=1, k_prime=0)
        neg = _scored([0, 3], np.arange(3), [0.6, 0.5, -0.1])
        with pytest.raises(ContractError, match="negative"):
            sample_batch(np.array([0]), AttentionPattern(n=1, layers=(neg,)), (2,),
                         seed=0, epoch=1)

    def test_bare_pattern_rejected(self):
        ring = _ring_scores().layers[0]
        bare = AttentionPattern(n=6, layers=(replace(ring, values=None),) * 2)
        with pytest.raises(ContractError, match="no score values"):
            sample_batch(np.array([1]), bare, (2, 2), seed=0, epoch=1)

    def test_empty_score_row_rejected(self):
        ss = AttentionPattern(n=2, layers=(_scored([0, 0, 1], [1], [1.0]),))
        with pytest.raises(ContractError, match="empty score row"):
            sample_batch(np.array([0]), ss, (1,), seed=0, epoch=1)


# random typed supports: a few hub rows, some zero scores, rows of any length
def _hub_scores(key, n=60, layers=2):
    rng = derive(78, key)
    out = []
    for _ in range(layers):
        rows = [np.unique(np.concatenate(
            [[i], np.flatnonzero(rng.random(n) < (0.6 if i % 12 == 0 else 0.08))]))
            for i in range(n)]
        vals = [rng.dirichlet(np.full(r.size, 0.5)) for r in rows]
        vals = [np.where(rng.random(v.size) < 0.2, 0.0, v) for v in vals]
        lengths = np.array([r.size for r in rows])
        out.append(PatternLayer(
            row_ptr=np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64),
            col_idx=np.concatenate(rows).astype(np.int64),
            values=np.concatenate(vals),
            edge_type=rng.integers(0, 3, int(lengths.sum()))))
    return AttentionPattern(n=n, layers=tuple(out))


def _assert_same_plan(a: BatchPlan, b: BatchPlan):
    assert a.stats == b.stats
    for x, y in zip(a.layers, b.layers):
        np.testing.assert_array_equal(x.q_nodes, y.q_nodes, err_msg="q_nodes")
        np.testing.assert_array_equal(x.v_nodes, y.v_nodes, err_msg="v_nodes")
        for f in fields(LayerGeometry):
            np.testing.assert_array_equal(getattr(x.geometry, f.name),
                                          getattr(y.geometry, f.name), err_msg=f.name)


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("mode,degs,k_prime", [
        ("top", (3, 5), None),
        ("top", (3, 5), 6),          # top mode ignores the prefilter
        ("sample", (60, 60), None),  # full degree: every row fits
        ("sample", (60, 60), 6),     # ...after prefiltering, too
    ])
    def test_plans_without_draws_are_identical(self, mode, degs, k_prime):
        for key in range(6):
            ss = _hub_scores(key)
            seeds = derive(79, key).choice(ss.n, size=5 + key, replace=False)
            kw = dict(seed=key, epoch=1, mode=mode, k_prime=k_prime,
                      tail_eps=0.3)
            _assert_same_plan(sample_batch(seeds, ss, degs, **kw),
                              sample_batch_loop(seeds, ss, degs, **kw))

    def test_prefilter_decisions_match_row_by_row(self):
        ss = _hub_scores(3, layers=1)
        layer = ss.layers[0]
        decisions = set()
        for node in range(ss.n):
            vals = layer.values[layer.row_ptr[node]:layer.row_ptr[node + 1]]
            for k_prime in (1, 3, 6):
                keep, full = prefilter_topk(vals, k_prime, tail_eps=0.3)
                keep_o, full_o = prefilter_topk_loop(vals, k_prime, tail_eps=0.3)
                np.testing.assert_array_equal(keep, keep_o)
                assert full is full_o
                a, b = SampleStats(), SampleStats()
                kw = dict(seed=0, epoch=1, k_prime=k_prime, tail_eps=0.3)
                sample_batch(np.array([node]), ss, (2,), stats=a, **kw)
                sample_batch_loop(np.array([node]), ss, (2,), stats=b, **kw)
                assert (a.prefilter_kept_full, a.prefilter_truncated) == \
                    (b.prefilter_kept_full, b.prefilter_truncated)
                decisions.add((a.prefilter_kept_full, a.prefilter_truncated))
        assert decisions == {(0, 0), (1, 0), (0, 1)}

    def test_batched_sampler_matches_pair_law(self):
        ss = AttentionPattern(n=3, layers=(_scored([0, 3, 3, 3], np.arange(3), W),))
        draws = 20_000
        pairs = np.empty((draws, 2), dtype=np.int64)
        for epoch in range(draws):
            pl = sample_batch(np.array([0]), ss, (2,), seed=4,
                              epoch=epoch).layers[0]
            pairs[epoch] = _drawn(pl, 0)[0]
        freq = TestReservoirLaw()._pair_freq(pairs, draws)
        tv = 0.5 * sum(abs(freq[k] - PAIR_LAW[k]) for k in PAIR_LAW)
        assert tv < 0.02, freq


class TestResampleEpoch:
    def test_partition_and_determinism(self):
        ss = _ring_scores()
        nodes = np.arange(6)
        stats = SampleStats()
        plans = resample_epoch(ss, (2, 2), nodes, batch_size=4, seed=0,
                               epoch=1, stats=stats)
        assert [p.seeds.size for p in plans] == [4, 2]
        all_seeds = np.sort(np.concatenate([p.seeds for p in plans]))
        np.testing.assert_array_equal(all_seeds, nodes)
        assert stats.rows_sampled == sum(pl.q_nodes.size
                                         for p in plans for pl in p.layers)
        again = resample_epoch(ss, (2, 2), nodes, batch_size=4, seed=0, epoch=1)
        for a, b in zip(plans, again):
            np.testing.assert_array_equal(a.seeds, b.seeds)
        other = resample_epoch(ss, (2, 2), nodes, batch_size=4, seed=0, epoch=2)
        assert any(not np.array_equal(a.seeds, b.seeds)
                   for a, b in zip(plans, other))

    def test_batch_size_contract(self):
        with pytest.raises(ContractError):
            resample_epoch(_ring_scores(), (2, 2), np.arange(6), batch_size=0,
                           seed=0, epoch=1)


class TestScoreSets:
    def test_validate_accepts_ring(self):
        validate_scores(_ring_scores())

    def test_validate_flags_negative_and_bad_sum(self):
        sl = _scored([0, 2], [0, 1], [0.5, -0.1])
        with pytest.raises(ContractError, match="negative"):
            validate_scores(AttentionPattern(n=1, layers=(sl,)))
        sl = _scored([0, 2], [0, 1], [0.5, 0.4])
        with pytest.raises(ContractError, match="row 0"):
            validate_scores(AttentionPattern(n=1, layers=(sl,)))

    def test_validate_skips_interior_empty_rows(self):
        sl = _scored([0, 2, 2, 3], [0, 1, 2], [0.5, 0.5, 1.0])
        validate_scores(AttentionPattern(n=3, layers=(sl,)))

    def test_validate_skips_trailing_empty_rows(self):
        sl = _scored([0, 2, 2], [0, 1], [0.5, 0.5])
        validate_scores(AttentionPattern(n=2, layers=(sl,)))

    @pytest.mark.parametrize("field,value,error,message", [
        ("row_ptr", np.arange(0, 19, 3)[:-1], ShapeError, "row_ptr has shape"),
        ("row_ptr", np.arange(1, 20, 3), ContractError, "row_ptr must start at 0"),
        ("row_ptr", np.array([0, 6, 3, 9, 12, 15, 18]), ContractError,
         "row_ptr must start at 0 and never decrease"),
        ("col_idx", np.zeros(17, dtype=np.int64), ShapeError, "col_idx has shape"),
        ("edge_type", np.zeros(19, dtype=np.int8), ShapeError,
         "edge_type has shape"),
        ("values", np.full(17, 1 / 3), ShapeError, "values has shape"),
        ("values", None, ContractError, "no score values"),
        ("col_idx", np.where(np.arange(18) == 7, 6, _ring_scores().layers[0].col_idx),
         ContractError, "column 6 outside"),
        ("col_idx", np.where(np.arange(18) == 7, -1, _ring_scores().layers[0].col_idx),
         ContractError, "column -1 outside"),
        ("values", _ring_values_with_row([np.nan, 1.0, 0.0]), ContractError,
         "non-finite score"),
        ("values", _ring_values_with_row([np.nan] * 3), ContractError, "non-finite score"),
        ("values", _ring_values_with_row([np.inf, 0.0, 0.0]), ContractError,
         "non-finite score"),
        ("edge_type", np.where(np.arange(18) == 5, 7, _ring_scores().layers[0].edge_type),
         ContractError, "edge type 7 outside"),
        ("edge_type", np.where(np.arange(18) == 5, -1, _ring_scores().layers[0].edge_type),
         ContractError, "edge type -1 outside"),
    ])
    def test_validate_checks_the_csr_arrays(self, field, value, error, message):
        good = _ring_scores(layers=1).layers[0]
        bad = AttentionPattern(n=6, layers=(good, replace(good, **{field: value})))
        with pytest.raises(error, match=f"layer 2: {message}"):
            validate_scores(bad)

    def test_a_short_values_array_is_named_not_summed(self, tmp_path):
        ss = _ring_scores()
        save_scores_npz(tmp_path / "s.npz", ss)
        with np.load(tmp_path / "s.npz") as z:
            arrays = dict(z)
        arrays["values_0"] = arrays["values_0"][:-1]
        np.savez(tmp_path / "short.npz", **arrays)
        with pytest.raises(ShapeError, match="layer 1: values has shape"):
            validate_scores(load_scores_npz(tmp_path / "short.npz"))

    def test_uniform_scores(self):
        ring = _ring_scores().layers[0]
        pat = AttentionPattern(n=6, layers=(PatternLayer(
            row_ptr=ring.row_ptr, col_idx=ring.col_idx,
            edge_type=ring.edge_type),) * 2)
        uni = uniform_scores(pat)
        validate_scores(uni)
        np.testing.assert_allclose(uni.layers[0].values, 1 / 3.0)
        np.testing.assert_array_equal(uni.layers[0].edge_type,
                                      pat.layers[0].edge_type)
        assert pat.layers[0].values is None      # the pattern is untouched


class TestScoreIO:
    def test_npz_roundtrip_keeps_types(self, tmp_path):
        ss = _ring_scores()
        save_scores_npz(tmp_path / "s.npz", ss)
        back = load_scores_npz(tmp_path / "s.npz")
        for a, b in zip(ss.layers, back.layers):
            np.testing.assert_array_equal(a.values, b.values)
            np.testing.assert_array_equal(a.edge_type, b.edge_type)
