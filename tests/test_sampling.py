"""Reservoir sampling law, prefiltering, batch-plan assembly, score IO.

The weighted-reservoir pair law for k=2 over weights (.5, .3, .2) was
derived by hand from sequential sampling without replacement,

    P({i,j}) = p_i p_j (1/(1-p_i) + 1/(1-p_j)),

and those constants are frozen below.  The same law is also re-estimated
inside the test by an independent two-step sequential sampler, so the
sampler is checked against both the closed form and a second mechanism.
Every law check draws through the library's own sampler,
``sample_batch``: a score set of many identical rows
(sampling_oracle.identical_rows) gives one independent sample per node in
one call.  The degenerate paths (completion, uniform fallback, prefilter
decisions) are checked through ``sample_batch`` and its ``SampleStats``, and
against the per-query loop the batched sampler replaced (sampling_oracle)
wherever the two must agree exactly.  Draws read a ``SamplingLaw`` prepared
once; every plan and counter they give must equal, bit for bit, those of
the per-draw sampler that prefiltered and weighed its rows on each draw
(``sample_batch_per_draw``).
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
from sparsegt.rngutil import TAG_SHUFFLE, TAG_VAL, derive
from sparsegt.sampling import (_NEVER, BatchPlan, SampleStats, _segments, _top_per_row,
                               load_scores_npz, plan_geometries, resample_epoch,
                               sample_batch, sampling_law, save_scores_npz,
                               uniform_scores, validate_scores)
from sampling_oracle import (draw_many, identical_rows, prefilter_topk_loop,
                             sample_batch_loop, sample_batch_per_draw,
                             top_per_row_two_sorts)

W = np.array([0.5, 0.3, 0.2])
# hand-derived k=2 inclusion law for W: 18/35, 13/40, 9/56
PAIR_LAW = {(0, 1): 0.5142857142857142,
            (0, 2): 0.325,
            (1, 2): 0.16071428571428573}
PAIR_CODE = {(0, 1): 1, (0, 2): 2, (1, 2): 5}


def _pair_codes(pairs):
    """Each sampled pair of W's indices as min * 3 + max."""
    return pairs.min(axis=-1) * 3 + pairs.max(axis=-1)


def _pair_freq(pairs):
    code = _pair_codes(pairs)
    return {key: np.mean(code == PAIR_CODE[key]) for key in PAIR_LAW}


def _pair_tv(pairs):
    freq = _pair_freq(pairs)
    return 0.5 * sum(abs(freq[k] - PAIR_LAW[k]) for k in PAIR_LAW), freq


class TestReservoirLaw:
    def test_pair_law_constants_are_a_distribution(self):
        assert abs(sum(PAIR_LAW.values()) - 1.0) < 1e-12

    def test_k1_frequencies_match_scores(self):
        draws = 20_000
        picks = draw_many(W, 1, draws, seed=3, epoch=1)[:, 0]
        counts = np.bincount(picks, minlength=3)
        freq = counts / draws
        assert np.abs(freq - W).max() < 0.01
        assert sps.chisquare(counts, W * draws).pvalue > 0.001

    def test_k2_matches_hand_law(self):
        tv, freq = _pair_tv(draw_many(W, 2, 30_000, seed=3, epoch=2))
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
        seq = _pair_freq(np.column_stack([first, second]))
        res = _pair_freq(draw_many(W, 2, draws, seed=3, epoch=4))
        for k in PAIR_LAW:
            assert abs(seq[k] - PAIR_LAW[k]) < 0.02
            assert abs(res[k] - seq[k]) < 0.03


class TestReservoirPaths:
    def test_completion_keeps_every_positive_entry(self):
        stats = SampleStats()
        take = draw_many([0.0, 0.6, 0.0, 0.4, 0.0], 4, 50, seed=9, stats=stats)
        assert take.shape == (50, 4)
        assert (np.diff(take, axis=1) > 0).all()
        assert ((take == 1).any(axis=1) & (take == 3).any(axis=1)).all()
        assert stats.uniform_fallbacks == 0

    def test_all_zero_row_falls_back_to_uniform(self):
        stats = SampleStats()
        take = draw_many(np.zeros(6), 3, 60, seed=9, stats=stats)
        assert take.shape == (60, 3)
        assert (np.diff(take, axis=1) > 0).all()
        assert stats.uniform_fallbacks == 60
        assert stats.rows_sampled == 60
        assert set(take.ravel().tolist()) == set(range(6))

    def test_contract_errors(self):
        ss = identical_rows(W, 4)
        with pytest.raises(ContractError, match="positive"):
            sample_batch(np.arange(4), sampling_law(ss), (0,), seed=0, epoch=0)
        with pytest.raises(ShapeError, match="degree budgets"):
            sample_batch(np.arange(4), sampling_law(ss), (2, 2), seed=0, epoch=0)
        neg = replace(ss.layers[0], values=np.where(np.arange(12) == 10, -0.1, 0.5))
        with pytest.raises(ContractError, match="negative"):
            sampling_law(replace(ss, layers=(neg,)))

    @given(st.lists(st.lists(st.floats(0, 10, allow_nan=False), min_size=1,
                             max_size=12), min_size=1, max_size=8),
           st.integers(1, 15), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_sample_shape_invariants(self, rows, deg, key):
        # each row over a random column set of a 12-node score set
        rng = derive(11, key)
        n = 12
        cols = [np.sort(rng.choice(n, size=len(r), replace=False)) for r in rows]
        lengths = np.array([len(r) for r in rows] + [0] * (n - len(rows)))
        ss = AttentionPattern(n=n, layers=(_scored(
            np.concatenate(([0], np.cumsum(lengths))), np.concatenate(cols),
            np.concatenate(rows)),))
        (pl,) = sample_batch(np.arange(len(rows)), sampling_law(ss), (deg,), seed=key,
                             epoch=1).layers
        for i, (w, row_cols) in enumerate(zip(rows, cols)):
            w = np.asarray(w)
            take = _drawn(pl, i)[0]
            assert take.size == min(deg, w.size)
            assert (np.diff(take) > 0).all()
            assert np.isin(take, row_cols).all()
            if (w > 0).sum() >= deg:
                assert np.all(w[np.searchsorted(row_cols, take)] > 0)


class TestPrefilter:
    # one row, drawn with a budget of its whole length: nothing is left to
    # chance, and the drawn columns are exactly the entries the prefilter kept
    def _kept(self, values, k_prime, tail_eps=0.05):
        law = sampling_law(identical_rows(values, 1), k_prime=k_prime,
                           tail_eps=tail_eps)
        plan = sample_batch(np.array([0]), law, (len(values),), seed=0, epoch=0)
        return (_drawn(plan.layers[0], 0)[0],
                (plan.stats.prefilter_kept_full, plan.stats.prefilter_truncated))

    def test_short_row_passes_through(self):
        keep, decision = self._kept(W, 5)
        np.testing.assert_array_equal(keep, [0, 1, 2])
        assert decision == (0, 0)

    def test_truncates_light_tail(self):
        keep, decision = self._kept([0.6, 0.38, 0.01, 0.01], 2)
        np.testing.assert_array_equal(keep, [0, 1])
        assert decision == (0, 1)

    def test_tie_prefers_lower_index(self):
        keep, decision = self._kept([0.32, 0.32, 0.32, 0.04], 2, tail_eps=0.5)
        np.testing.assert_array_equal(keep, [0, 1])
        assert decision == (0, 1)

    def test_heavy_tail_keeps_full_row(self):
        keep, decision = self._kept([0.4, 0.3, 0.3], 1)
        np.testing.assert_array_equal(keep, [0, 1, 2])
        assert decision == (1, 0)

    def test_k_prime_contract(self):
        for k_prime in (0, -1):
            for mode in ("sample", "top"):
                with pytest.raises(ContractError, match="k_prime"):
                    sampling_law(identical_rows(W, 2), mode=mode, k_prime=k_prime)

    @pytest.mark.parametrize("tail_eps", [np.nan, 1.0, 2.0, -1.0])
    def test_tail_eps_contract(self, tail_eps):
        # NaN or 2.0 would truncate every long row and -1 keep each whole,
        # all without a word
        with pytest.raises(ContractError, match=r"tail_eps must be in \[0, 1\)"):
            sampling_law(identical_rows(W, 2), k_prime=1, tail_eps=tail_eps)


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
        plan = sample_batch(seeds, sampling_law(ss), (2, 2), seed=0, epoch=1)
        _assert_plan_invariants(plan, ss, seeds, (2, 2))
        assert plan.stats.rows_sampled == sum(pl.q_nodes.size
                                              for pl in plan.layers)

    def test_unsorted_seeds_keep_their_order(self):
        ss = _ring_scores()
        seeds = np.array([4, 1])
        plan = sample_batch(seeds, sampling_law(ss), (2, 2), seed=0, epoch=1)
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
        law = sampling_law(ss)
        plan = sample_batch(seeds, law, (d1, d2), seed=key, epoch=1)
        _assert_plan_invariants(plan, ss, seeds, (d1, d2))
        _assert_same_plan(plan, sample_batch(seeds, law, (d1, d2), seed=key, epoch=1))

    def _masked_keys(self, plan):
        pl = plan.layers[-1]
        return [(int(q), tuple(sorted(_drawn(pl, qi)[0])))
                for qi, q in enumerate(pl.q_nodes)]

    def test_epoch_changes_the_draw(self):
        ss = sampling_law(_ring_scores())
        seeds = np.arange(6)
        p1 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1)
        p2 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=2)
        assert self._masked_keys(p1) != self._masked_keys(p2)

    def test_tag_namespaces_the_draw(self):
        ss = sampling_law(_ring_scores())
        seeds = np.arange(6)
        p1 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1)
        p2 = sample_batch(seeds, ss, (2, 2), seed=0, epoch=1, tag=TAG_VAL)
        assert self._masked_keys(p1) != self._masked_keys(p2)

    def test_layers_draw_independently(self):
        # node 0 queries both layers of identical score rows; shared draws
        # would pick the same pair every time, independent ones agree with
        # probability sum_pairs P(pair)^2 = 0.396
        ss = sampling_law(_ring_scores())
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
        law = sampling_law(ss, k_prime=4)
        nodes = derive(80, 1).permutation(ss.n)
        rows = {}
        for size in (1, 7, ss.n):
            for start in range(0, ss.n, size):
                plan = sample_batch(nodes[start:start + size], law, (2, 3),
                                    seed=1, epoch=3)
                for li, pl in enumerate(plan.layers):
                    for qi, q in enumerate(pl.q_nodes):
                        got = tuple(map(tuple, _drawn(pl, qi)))
                        assert rows.setdefault((li, int(q)), got) == got

    @pytest.mark.parametrize("mode,k_prime", [("sample", None), ("sample", 4),
                                              ("top", None)])
    def test_assembled_chunks_equal_their_own_draws(self, mode, k_prime):
        # a chunk's plan draws, query by query and layer by layer, what the
        # plan over every node draws: evaluation computes that one plan
        ss = _hub_scores(6)
        nodes = derive(80, 2).permutation(ss.n)
        law = sampling_law(ss, mode=mode, k_prime=k_prime)
        whole = sample_batch(np.sort(nodes), law, (2, 3), seed=1, epoch=3)
        for size in (1, 7, ss.n):
            for start in range(0, ss.n, size):
                own = sample_batch(nodes[start:start + size], law, (2, 3), seed=1,
                                   epoch=3)
                for pl, wl in zip(own.layers, whole.layers):
                    at = np.searchsorted(wl.q_nodes, pl.q_nodes)
                    np.testing.assert_array_equal(wl.q_nodes[at], pl.q_nodes)
                    for qi, wi in enumerate(at):
                        for got, want in zip(_drawn(pl, qi), _drawn(wl, wi)):
                            np.testing.assert_array_equal(got, want)

    def test_top_mode_is_deterministic_and_greedy(self):
        sl = _scored([0, 3, 6, 9], np.tile([0, 1, 2], 3),
                     np.tile([0.3, 0.4, 0.3], 3))
        law = sampling_law(AttentionPattern(n=3, layers=(sl,)), mode="top")
        p1 = sample_batch(np.array([0]), law, (2,), seed=0, epoch=1)
        p9 = sample_batch(np.array([0]), law, (2,), seed=5, epoch=9)
        # 0.4 wins, then the 0.3 tie resolves to the lower index
        np.testing.assert_array_equal(np.sort(_drawn(p1.layers[-1], 0)[0]), [0, 1])
        _assert_same_plan(p1, p9)

    def test_prefilter_counters(self):
        # node 0 has a heavy head, node 1 is flat (nodes 2-5, the columns'
        # own rows, are empty); k'=2 truncates one and must keep the other whole
        vals = np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02] + [1 / 6.0] * 6)
        cols = np.tile(np.arange(6), 2).astype(np.int64)
        ss = AttentionPattern(n=6, layers=(_scored([0, 6, 12, 12, 12, 12, 12], cols,
                                                   vals),))
        stats = SampleStats()
        sample_batch(np.array([0, 1]), sampling_law(ss, k_prime=2, tail_eps=0.2), (3,),
                     seed=0, epoch=1, stats=stats)
        assert stats.prefilter_truncated >= 1
        assert stats.prefilter_kept_full >= 1

    def test_contract_errors(self):
        ss = _ring_scores()
        law = sampling_law(ss)
        for dup in ([1, 1], [2, 0, 2]):
            with pytest.raises(ContractError, match="duplicate"):
                sample_batch(np.array(dup), law, (2, 2), seed=0, epoch=1)
        with pytest.raises(IndexError, match="outside"):      # the range check runs first
            sample_batch(np.array([9, 9]), law, (2, 2), seed=0, epoch=1)
        with pytest.raises(ShapeError, match="degree budgets"):
            sample_batch(np.array([1]), law, (2,), seed=0, epoch=1)
        with pytest.raises(ContractError, match="positive"):
            sample_batch(np.array([1]), law, (2, 0), seed=0, epoch=1)
        with pytest.raises(ContractError, match="mode"):
            sampling_law(ss, mode="best")
        with pytest.raises(ContractError, match="nonempty"):
            sample_batch(np.array([], dtype=np.int64), law, (2, 2), seed=0, epoch=1)
        with pytest.raises(ContractError, match="k_prime"):
            sampling_law(ss, k_prime=0)
        neg = _scored([0, 3], np.arange(3), [0.6, 0.5, -0.1])
        with pytest.raises(ContractError, match="negative"):
            sampling_law(AttentionPattern(n=1, layers=(neg,)))
        with pytest.raises(ContractError, match="SamplingLaw"):
            sample_batch(np.array([1]), ss, (2, 2), seed=0, epoch=1)

    def test_bare_pattern_rejected(self):
        ring = _ring_scores().layers[0]
        bare = AttentionPattern(n=6, layers=(replace(ring, values=None),) * 2)
        with pytest.raises(ContractError, match="no score values"):
            sampling_law(bare)

    def test_empty_score_row_rejected(self):
        # the law takes any CSR score set; only a drawn empty row is an error
        law = sampling_law(AttentionPattern(n=2, layers=(_scored([0, 0, 1], [1], [1.0]),)))
        sample_batch(np.array([1]), law, (1,), seed=0, epoch=1)
        with pytest.raises(ContractError, match="node 0 has an empty score row"):
            sample_batch(np.array([0]), law, (1,), seed=0, epoch=1)


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
            law = sampling_law(ss, mode=mode, k_prime=k_prime, tail_eps=0.3)
            _assert_same_plan(sample_batch(seeds, law, degs, seed=key, epoch=1),
                              sample_batch_loop(seeds, ss, degs, seed=key, epoch=1,
                                                mode=mode, k_prime=k_prime,
                                                tail_eps=0.3))

    def test_prefilter_decisions_match_row_by_row(self):
        # a budget above every row's length: each query comes back as
        # exactly the entries the prefilter kept, in CSR order
        ss = _hub_scores(3, layers=1)
        layer = ss.layers[0]
        decisions = set()
        for k_prime in (1, 3, 6):
            stats = SampleStats()
            law = sampling_law(ss, k_prime=k_prime, tail_eps=0.3)
            (pl,) = sample_batch(np.arange(ss.n), law, (ss.n,), seed=0, epoch=1,
                                 stats=stats).layers
            (ll,) = law.layers
            kept_full = truncated = 0
            for node in range(ss.n):
                lo, hi = layer.row_ptr[node], layer.row_ptr[node + 1]
                keep, full = prefilter_topk_loop(layer.values[lo:hi], k_prime,
                                                 tail_eps=0.3)
                np.testing.assert_array_equal(_drawn(pl, node)[0],
                                              layer.col_idx[lo + keep])
                cut = not full and keep.size < hi - lo
                # the law's own flags and kept entries, row by row
                assert (ll.kept_full[node], ll.truncated[node]) == (full, cut)
                np.testing.assert_array_equal(
                    ll.col_idx[ll.row_ptr[node]:ll.row_ptr[node + 1]],
                    layer.col_idx[lo + keep])
                np.testing.assert_array_equal(
                    ll.slot[ll.row_ptr[node]:ll.row_ptr[node + 1]], keep)
                assert ll.no_positive[node] == (not (layer.values[lo + keep] > 0).any())
                kept_full += full
                truncated += cut
                decisions.add((int(full), int(cut)))
            assert (stats.prefilter_kept_full, stats.prefilter_truncated) == \
                (kept_full, truncated)
            b = SampleStats()
            sample_batch_loop(np.arange(ss.n), ss, (ss.n,), seed=0, epoch=1,
                              k_prime=k_prime, tail_eps=0.3, stats=b)
            assert (b.prefilter_kept_full, b.prefilter_truncated) == \
                (kept_full, truncated)
        assert decisions == {(0, 0), (1, 0), (0, 1)}

    def test_batched_sampler_matches_pair_law(self):
        # 2000 nodes share W's row; each is drawn in 10 epochs.  The pooled
        # pairs follow the law, and a node's pairs in consecutive epochs
        # are independent: their joint law is the product law.
        pairs = np.stack([draw_many(W, 2, 2000, seed=4, epoch=epoch)
                          for epoch in range(10)])
        tv, freq = _pair_tv(pairs.reshape(-1, 2))
        assert tv < 0.02, freq
        codes = _pair_codes(pairs)
        joint = codes[:-1] * 6 + codes[1:]
        tv = 0.5 * sum(abs(np.mean(joint == PAIR_CODE[a] * 6 + PAIR_CODE[b])
                           - PAIR_LAW[a] * PAIR_LAW[b])
                       for a in PAIR_LAW for b in PAIR_LAW)
        assert tv < 0.02, tv


class TestTopPerRow:
    # the production selection against the oracle's two-sort copy and a
    # per-row loop; few distinct keys make ties common
    KEYS = np.array([-1.5, -0.0, 0.0, 0.25, 3.0, _NEVER, _NEVER - 0.5, _NEVER + 2.0])

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=30), st.integers(1, 14),
           st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_two_sort_oracle(self, lengths, k, key):
        rng = derive(83, key)
        lengths = np.array(lengths)
        row, slot = _segments(lengths)
        keys = np.where(rng.random(row.size) < 0.7,
                        self.KEYS[rng.integers(0, self.KEYS.size, row.size)],
                        rng.normal(size=row.size))
        keep = _top_per_row(row, slot, k, keys)
        np.testing.assert_array_equal(keep, top_per_row_two_sorts(row, slot, k, keys))
        for r, n in enumerate(lengths):
            at = np.flatnonzero(row == r)
            first = np.sort(np.lexsort((slot[at], keys[at]))[:k])
            np.testing.assert_array_equal(np.flatnonzero(keep[at]), first)
            assert np.count_nonzero(keep[at]) == min(k, n)

    def test_row_ids_past_the_composite_sort_stably(self):
        # (row, rank, slot) would wrap an int64 here, and sort row 2 first;
        # (row, rank) fits
        row = np.array([1, 1, 2, 2, 2]) * 10 ** 18
        slot = np.array([0, 1, 0, 1, 2])
        keys = np.array([1.0, 0.0, 2.0, 2.0, 0.0])
        np.testing.assert_array_equal(_top_per_row(row, slot, 2, keys),
                                      [True, True, True, False, True])

    @pytest.mark.parametrize("keys,k,kept", [
        ([0.0, -0.0], 1, [0]),                  # +0 and -0 tie: the lower slot
        ([-0.0, 0.0], 1, [0]),
        ([_NEVER, _NEVER, 1.0], 2, [0, 2]),     # never-finishers tie too
        ([2.0, 1.0, 1.0, 1.0], 2, [1, 2]),
        ([5.0], 1, [0]),                        # a one-entry row
        ([5.0], 3, [0]),
        ([3.0, 1.0], 2, [0, 1]),                # k at the row's length
    ])
    def test_hand_cases(self, keys, k, kept):
        keys = np.array(keys)
        row, slot = _segments(np.array([keys.size]))
        for select in (_top_per_row, top_per_row_two_sorts):
            np.testing.assert_array_equal(np.flatnonzero(select(row, slot, k, keys)), kept)


def _hub_scores_with_zero_rows(key):
    """``_hub_scores`` with three long rows of each layer zeroed: their
    draws fall back to uniform."""
    ss = _hub_scores(key)
    layers = []
    for layer in ss.layers:
        vals = layer.values.copy()
        for node in (0, 13, 37):
            vals[layer.row_ptr[node]:layer.row_ptr[node + 1]] = 0.0
        layers.append(replace(layer, values=vals))
    return replace(ss, layers=tuple(layers))


def _hub_like_scores(key, n=400, layers=2):
    """Four hubs of 107 entries with near-uniform scores among rows of
    3-12 entries, as on hub-4000."""
    rng = derive(84, key)
    out = []
    for _ in range(layers):
        sizes = np.where(np.arange(n) % 100 == 0, 107, rng.integers(3, 13, n))
        rows = [np.sort(np.concatenate(([i], rng.choice(np.delete(np.arange(n), i),
                                                        size - 1, replace=False))))
                for i, size in enumerate(sizes)]
        vals = [rng.dirichlet(np.full(r.size, 50.0 if r.size == 107 else 0.5))
                for r in rows]
        out.append(PatternLayer(
            row_ptr=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
            col_idx=np.concatenate(rows).astype(np.int64), values=np.concatenate(vals),
            edge_type=rng.integers(0, 3, int(sizes.sum()))))
    return AttentionPattern(n=n, layers=tuple(out))


class TestLawAgainstPerDrawOracle:
    # draws through a prepared law equal, plan for plan and counter for
    # counter, the sampler that prefiltered and weighed every row per draw
    @pytest.mark.parametrize("mode,uniform,k_prime,tail_eps", [
        ("sample", False, None, 0.05),
        ("sample", False, 4, 0.05),
        ("sample", False, 4, 0.3),
        ("sample", False, 2, 0.3),
        ("sample", True, None, 0.05),     # the uniform ablation
        ("top", False, None, 0.05),
        ("top", False, 4, 0.3),
    ])
    def test_plans_and_stats_match(self, mode, uniform, k_prime, tail_eps):
        ss = _hub_scores_with_zero_rows(4)
        if uniform:
            ss = uniform_scores(ss)
        law = sampling_law(ss, mode=mode, k_prime=k_prime, tail_eps=tail_eps)
        degs = (4, 3)
        total, oracle_total = SampleStats(), SampleStats()
        for batch_size in (1, 7, 64):
            nodes = derive(81, batch_size).permutation(ss.n)
            for bi, start in enumerate(range(0, ss.n, batch_size)):
                chunk = nodes[start:start + batch_size]
                plan = sample_batch(chunk, law, degs, seed=5, epoch=2, batch_index=bi,
                                    stats=total)
                oracle = sample_batch_per_draw(chunk, ss, degs, seed=5, epoch=2,
                                               batch_index=bi, mode=mode,
                                               k_prime=k_prime, tail_eps=tail_eps,
                                               stats=oracle_total)
                _assert_same_plan(plan, oracle)
        assert total == oracle_total
        # the case's paths were all taken
        for deg, layer in zip(degs, ss.layers):
            lengths = np.diff(layer.row_ptr)
            assert (lengths < deg).any() and (lengths > deg).any()
        if mode == "sample" and not uniform and (k_prime or 99) > min(degs):
            assert total.uniform_fallbacks > 0     # a zeroed row races
        if mode == "sample" and k_prime is not None:
            assert total.prefilter_truncated > 0

    @pytest.mark.parametrize("seed", [11, 29])
    def test_hub_rows_kept_whole(self, seed):
        # the path hub-4000 runs: rows of 107 near-uniform scores, which the
        # top-16 prefilter keeps whole, among rows shorter than k'
        ss = _hub_like_scores(seed)
        law = sampling_law(ss, k_prime=16)
        hubs = np.flatnonzero(np.diff(ss.layers[0].row_ptr) == 107)
        assert hubs.size == 4
        for ll in law.layers:
            np.testing.assert_array_equal(np.flatnonzero(ll.kept_full), hubs)
            assert not ll.truncated.any()
        total, oracle_total = SampleStats(), SampleStats()
        for batch_size in (16, ss.n):
            nodes = derive(82, batch_size).permutation(ss.n)
            for bi, start in enumerate(range(0, ss.n, batch_size)):
                chunk = nodes[start:start + batch_size]
                plan = sample_batch(chunk, law, (4, 4), seed=seed, epoch=3,
                                    batch_index=bi, stats=total)
                oracle = sample_batch_per_draw(chunk, ss, (4, 4), seed=seed, epoch=3,
                                               batch_index=bi, k_prime=16,
                                               stats=oracle_total)
                _assert_same_plan(plan, oracle)
        assert total == oracle_total
        assert total.prefilter_kept_full > 0 and total.prefilter_truncated == 0

    def test_summary_counts_the_flags(self):
        ss = _hub_scores_with_zero_rows(4)
        law = sampling_law(ss, k_prime=4, tail_eps=0.3)
        summary = law.summary()
        assert [s["layer"] for s in summary] == [1, 2]
        for s, ll, layer in zip(summary, law.layers, ss.layers):
            assert s["rows_truncated"] == ll.truncated.sum() > 0
            assert s["rows_kept_full"] == ll.kept_full.sum() > 0
            assert s["rows_no_positive"] == ll.no_positive.sum() >= 3
            assert s["entries_total"] == layer.values.size
            assert s["entries_kept"] == ll.col_idx.size < layer.values.size
        assert all(s["rows_truncated"] == s["rows_kept_full"] == 0
                   and s["entries_kept"] == s["entries_total"]
                   for s in sampling_law(ss, mode="top", k_prime=4).summary())

    @pytest.mark.parametrize("values,message", [
        (np.nan, "layer 2: non-finite score"),
        (np.inf, "layer 2: non-finite score"),
        (-0.25, "layer 2: negative score"),
        (None, "no score values"),
        # a column outside the n=6 nodes would index past the feature rows
        pytest.param(("col_idx", 6), r"layer 2: column 6 outside \[0, 6\)", id="col-6"),
        pytest.param(("col_idx", -1), r"layer 2: column -1 outside \[0, 6\)", id="col--1"),
    ])
    def test_bad_scores_are_refused_before_any_draw(self, values, message):
        good = _ring_scores(layers=1).layers[0]
        field = "values"
        if isinstance(values, tuple):       # (field, value) for entry 4
            field, values = values
        bad = None
        if values is not None:
            bad = getattr(good, field).copy()
            bad[4] = values
        ss = AttentionPattern(n=6, layers=(good, replace(good, **{field: bad})))
        with pytest.raises(ContractError, match=message):
            sampling_law(ss)


class TestResampleEpoch:
    def test_partition_and_determinism(self):
        ss = sampling_law(_ring_scores())
        nodes = np.arange(6)
        stats = SampleStats()
        plans = resample_epoch(ss, (2, 2), nodes, batch_size=3, seed=0,
                               epoch=1, stats=stats)
        assert [p.seeds.size for p in plans] == [3, 3]
        all_seeds = np.sort(np.concatenate([p.seeds for p in plans]))
        np.testing.assert_array_equal(all_seeds, nodes)
        assert stats.rows_sampled == sum(pl.q_nodes.size
                                         for p in plans for pl in p.layers)
        again = resample_epoch(ss, (2, 2), nodes, batch_size=3, seed=0, epoch=1)
        for a, b in zip(plans, again):
            np.testing.assert_array_equal(a.seeds, b.seeds)
        other = resample_epoch(ss, (2, 2), nodes, batch_size=3, seed=0, epoch=2)
        assert any(not np.array_equal(a.seeds, b.seeds)
                   for a, b in zip(plans, other))

    def test_batch_size_contract(self):
        with pytest.raises(ContractError):
            resample_epoch(sampling_law(_ring_scores()), (2, 2), np.arange(6), batch_size=0,
                           seed=0, epoch=1)

    @pytest.mark.parametrize("count,batch_size,sizes", [
        (6, 4, [6]), (6, 2, [2, 2, 2]), (6, 6, [6]),      # a two-node tail joins; none
        (5, 4, [5]), (5, 2, [2, 3]), (6, 5, [6]),          # the tail joins its neighbour
        (1, 3, [1]),                                       # nothing to join
        (5, 3, [5]),                                       # two join three
    ])
    def test_a_one_node_tail_joins_the_batch_before_it(self, count, batch_size, sizes):
        # training batch norm refuses one seed and scales rows far from two
        # seeds up by orders of magnitude; every other plan is the one the
        # plain split draws, bit for bit, under its own batch index
        law = sampling_law(_ring_scores())
        nodes = np.arange(count)
        plans = resample_epoch(law, (2, 2), nodes, batch_size=batch_size, seed=0, epoch=1)
        assert [p.seeds.size for p in plans] == sizes
        shuffled = nodes[derive(0, TAG_SHUFFLE, 1).permutation(count)]
        bounds = np.cumsum([0] + sizes)
        for bi, plan in enumerate(plans):
            chunk = shuffled[bounds[bi]:bounds[bi + 1]]
            _assert_same_plan(plan, sample_batch(chunk, law, (2, 2), seed=0, epoch=1,
                                                 batch_index=bi))


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
