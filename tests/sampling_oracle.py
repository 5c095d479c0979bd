"""The per-query plan sampler the batched one replaced, kept as an oracle.

``sample_batch_loop`` walks the layers top-down like
``sparsegt.sampling.sample_batch`` but visits one query row at a time:
prefilter the row, then take the top ``deg`` scores (``mode="top"``), the
whole row when it fits the budget, or a weighted reservoir draw from the
row's own ``derive(seed, tag, epoch, batch_index, node)`` Generator.
Plans that involve no randomness, and every prefilter decision, must
match the batched sampler exactly; sampled plans follow the same law
from different draws.

``reservoir_sample_many`` draws many independent samples of one row at
once, for the sampling-law tests.
"""

import numpy as np

from sparsegt.attention import LayerGeometry
from sparsegt.errors import ContractError, ShapeError
from sparsegt.graphs import AttentionPattern, EdgeType
from sparsegt.rngutil import TAG_SAMPLE, derive
from sparsegt.sampling import BatchPlan, PlanLayer, SampleStats


def reservoir_sample_loop(scores, k: int, rng: np.random.Generator,
                          stats: SampleStats | None = None) -> np.ndarray:
    """k distinct indices, inclusion biased by score.

    Key log(u)/a, take the k largest; a zero score maps to -inf so such
    entries lose to every positive one and are only used to complete k
    when positives run out.  An all-zero row falls back to uniform
    sampling and is counted in ``stats``.
    """
    w = np.asarray(scores, dtype=np.float64)
    if k <= 0:
        raise ContractError(f"sample size must be positive, got {k}")
    if w.ndim != 1:
        raise ShapeError("reservoir_sample_loop expects a flat score row")
    if w.size and w.min() < 0:
        raise ContractError("negative score")
    if stats is not None:
        stats.rows_sampled += 1
    if k >= w.size:
        return np.arange(w.size, dtype=np.int64)
    positive = w > 0
    npos = int(positive.sum())
    if npos == 0:
        if stats is not None:
            stats.uniform_fallbacks += 1
        return np.sort(rng.choice(w.size, size=k, replace=False)).astype(np.int64)
    u = rng.random(w.size)
    # subnormal scores overflow the key to -inf, which is the right limit
    with np.errstate(divide="ignore", over="ignore"):
        keys = np.where(positive, np.log(u) / np.where(positive, w, 1.0), -np.inf)
    if k <= npos:
        idx = np.argpartition(keys, w.size - k)[w.size - k:]
        return np.sort(idx).astype(np.int64)
    # not enough positive entries: keep them all, fill uniformly from the rest
    fill = rng.choice(np.flatnonzero(~positive), size=k - npos, replace=False)
    return np.sort(np.concatenate([np.flatnonzero(positive), fill])).astype(np.int64)


def reservoir_sample_many(scores, k: int, rng: np.random.Generator,
                          draws: int) -> np.ndarray:
    """(draws, k) independent reservoir samples of one row, vectorized.

    Same key law as ``reservoir_sample_loop``; requires at least k positive
    scores so no completion path is needed.
    """
    w = np.asarray(scores, dtype=np.float64)
    if int((w > 0).sum()) < k:
        raise ContractError("vectorized sampling needs k positive scores")
    u = rng.random((draws, w.size))
    with np.errstate(divide="ignore", over="ignore"):
        keys = np.log(u) / np.where(w > 0, w, np.nan)
    keys = np.where(w > 0, keys, -np.inf)
    idx = np.argpartition(keys, w.size - k, axis=1)[:, w.size - k:]
    return np.sort(idx, axis=1).astype(np.int64)


def prefilter_topk_loop(scores, k_prime: int, tail_eps: float = 0.05):
    """Indices of the top k' scores (ties to the lower index), or the full
    row when truncation would drop more than ``tail_eps`` of the mass.

    Returns (indices, kept_full).
    """
    w = np.asarray(scores, dtype=np.float64)
    if k_prime <= 0:
        raise ContractError(f"k_prime must be positive, got {k_prime}")
    if w.size <= k_prime:
        return np.arange(w.size, dtype=np.int64), False
    # stable selection: sort by (-value, index) and cut
    order = np.lexsort((np.arange(w.size), -w))
    keep = np.sort(order[:k_prime]).astype(np.int64)
    total = w.sum()
    dropped = total - w[keep].sum()
    if total > 0 and dropped > tail_eps * total:
        return np.arange(w.size, dtype=np.int64), True
    return keep, False


def sample_batch_loop(seeds, scores: AttentionPattern, degs, seed: int, epoch: int,
                      batch_index: int = 0, mode: str = "sample",
                      k_prime: int | None = None, tail_eps: float = 0.05,
                      stats: SampleStats | None = None, tag: int = TAG_SAMPLE) -> BatchPlan:
    """Top-down support construction for one seed batch.

    Walking layers L..1: queries are what the layer above needs, each
    query draws deg_l keys from its score row, and query+key union is the
    support the layer below must produce.  ``mode="top"`` replaces the
    draw with a deterministic top-deg selection (the max-selection
    ablation).  ``k_prime`` enables score prefiltering before sampling.
    ``tag`` namespaces the random streams so training, validation and
    prediction plans never share draws.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ContractError("seeds must be a nonempty 1-d array")
    if np.unique(seeds).size != seeds.size:
        raise ContractError("duplicate seed nodes")
    degs = tuple(int(d) for d in degs)
    if len(degs) != scores.num_layers:
        raise ShapeError(f"{len(degs)} degree budgets for {scores.num_layers} layers")
    if any(d < 1 for d in degs):
        raise ContractError("degree budgets must be positive")
    if mode not in ("sample", "top"):
        raise ContractError(f"unknown mode {mode!r}")
    if stats is None:
        stats = SampleStats()

    num_layers = scores.num_layers
    rev = []
    q_nodes = seeds
    for li in range(num_layers - 1, -1, -1):
        deg = degs[li]
        layer = scores.layers[li]
        nq = q_nodes.shape[0]
        key_global = np.repeat(q_nodes[:, None], deg, axis=1).copy()
        mask = np.zeros((nq, deg), dtype=np.float64)
        typ = np.full((nq, deg), int(EdgeType.SELF_LOOP), dtype=np.int64)
        for qi, node in enumerate(q_nodes):
            lo, hi = layer.row_ptr[node], layer.row_ptr[node + 1]
            cols, vals, types_row = (layer.col_idx[lo:hi], layer.values[lo:hi],
                                     layer.edge_type[lo:hi])
            if cols.size == 0:
                raise ContractError(f"node {node} has an empty score row")
            if k_prime is not None and mode == "sample":
                keep, kept_full = prefilter_topk_loop(vals, k_prime, tail_eps)
                if kept_full:
                    stats.prefilter_kept_full += 1
                elif keep.size < cols.size:
                    stats.prefilter_truncated += 1
                cols, vals, types_row = cols[keep], vals[keep], types_row[keep]
            if mode == "top":
                take = _top_indices(vals, deg)
                stats.rows_sampled += 1
            elif deg >= cols.size:
                # full row, no draw: full-degree plans involve no randomness
                take = np.arange(cols.size, dtype=np.int64)
                stats.rows_sampled += 1
            else:
                rng = derive(seed, tag, epoch, batch_index, int(node))
                take = reservoir_sample_loop(vals, deg, rng, stats=stats)
            chosen = cols[take]
            key_global[qi, :chosen.size] = chosen
            mask[qi, :chosen.size] = 1.0
            typ[qi, :chosen.size] = types_row[take]
        v_nodes = np.union1d(q_nodes, key_global[mask > 0])
        rev.append((q_nodes, v_nodes, key_global, mask, typ))
        q_nodes = v_nodes

    layers = []
    for li, (q, v, key_global, mask, typ) in enumerate(reversed(rev)):
        stats_local = np.searchsorted(q, seeds) if li < num_layers - 1 else np.arange(seeds.size)
        live = mask > 0
        geom = LayerGeometry(query_rows=np.searchsorted(v, q),
                             row_ptr=np.concatenate(([0], np.cumsum(live.sum(axis=1)))),
                             col_idx=np.searchsorted(v, key_global[live]),
                             edge_type=typ[live], stats_rows=stats_local.astype(np.int64))
        layers.append(PlanLayer(q_nodes=q, v_nodes=v, geometry=geom))
    return BatchPlan(seeds=seeds, degs=degs, layers=tuple(layers), stats=stats)


def _top_indices(vals: np.ndarray, deg: int) -> np.ndarray:
    if deg >= vals.size:
        return np.arange(vals.size, dtype=np.int64)
    order = np.lexsort((np.arange(vals.size), -vals))
    return np.sort(order[:deg]).astype(np.int64)
