"""The per-query plan sampler the batched one replaced, kept as an oracle.

``sample_batch_loop`` walks the layers top-down like
``sparsegt.sampling.sample_batch`` but visits one query row at a time:
prefilter the row, then take the top ``deg`` scores (``mode="top"``), the
whole row when it fits the budget, or a weighted reservoir draw from the
row's own ``derive(seed, tag, epoch, batch_index, node)`` Generator.
Plans that involve no randomness, and every prefilter decision, must
match the batched sampler exactly; sampled plans follow the same law
from different draws.

``sample_batch_per_draw`` is ``sparsegt.sampling.sample_batch`` as it was
before draws read a prepared ``SamplingLaw``: every draw gathers its query
rows from the score set, prefilters them (``_prefilter``), races them
with ``log(-log u) - log w`` (``_reservoir_select``), hashing each entry's
uniform from the whole key path with ``counter_uniform``, and selects with
its own copy of the two-sort selection (``top_per_row_two_sorts``); the
plan looks its rows up with ``np.searchsorted``.  Plans and
``SampleStats`` drawn through a law must equal it bit for bit.

``identical_rows`` and ``draw_many`` are the sampling-law fixture: a
score set of N copies of one row, so that one ``sample_batch`` call
returns N samples of that row from the library's own stream.  Each
uniform is keyed by its node, so the N samples are independent, and the
law tests check the sampler that training and prediction run, not a copy
of it.

``predict_per_chunk`` is ``sparsegt.pipeline.predict`` as it was before
evaluation computed one plan layer by layer: one ``sample_batch`` and one
forward per chunk of ``batch_size`` nodes.  Draws are keyed by node, not
by chunk, so its probabilities equal ``predict``'s bit for bit when one
chunk holds every node, and to BLAS round-off in the network's dtype
otherwise.
"""

import numpy as np

from sparsegt import numerics as nm
from sparsegt.attention import LayerGeometry
from sparsegt.errors import ContractError, ShapeError
from sparsegt.graphs import AttentionPattern, EdgeType, PatternLayer, sorted_union
from sparsegt.pipeline import _probs_from_logits
from sparsegt.rngutil import TAG_PREDICT, TAG_SAMPLE, counter_uniform, derive
from sparsegt.sampling import (_NEVER, BatchPlan, PlanLayer, SampleStats, _segments,
                               plan_geometries, sample_batch, sampling_law)


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


def identical_rows(weights, num_rows: int) -> AttentionPattern:
    """A one-layer score set whose first ``num_rows`` nodes share one row:
    node i's row lies over columns 0..k-1 with the k ``weights``."""
    w = np.asarray(weights, dtype=np.float64)
    n = max(num_rows, w.size)
    lengths = np.where(np.arange(n) < num_rows, w.size, 0)
    return AttentionPattern(n=n, layers=(PatternLayer(
        row_ptr=np.concatenate(([0], np.cumsum(lengths))).astype(np.int64),
        col_idx=np.tile(np.arange(w.size, dtype=np.int64), num_rows),
        edge_type=np.full(num_rows * w.size, EdgeType.GRAPH, dtype=np.int8),
        values=np.tile(w, num_rows)),))


def draw_many(weights, k: int, draws: int, seed: int, epoch: int = 0,
              stats: SampleStats | None = None) -> np.ndarray:
    """(draws, min(k, row size)) column indices: one ``sample_batch`` call
    over ``identical_rows(weights, draws)``, row i being node i's draw,
    ascending."""
    (pl,) = sample_batch(np.arange(draws), sampling_law(identical_rows(weights, draws)),
                         (k,), seed, epoch, stats=stats).layers
    return pl.v_nodes[pl.geometry.col_idx].reshape(draws, -1)


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
    return BatchPlan(seeds=seeds, layers=tuple(layers), stats=stats)


def _top_indices(vals: np.ndarray, deg: int) -> np.ndarray:
    if deg >= vals.size:
        return np.arange(vals.size, dtype=np.int64)
    order = np.lexsort((np.arange(vals.size), -vals))
    return np.sort(order[:deg]).astype(np.int64)


def _eval_per_chunk(net, x, law, degs, nodes, seed, epoch, tag, batch_size,
                    loss_name) -> np.ndarray:
    out = [np.empty((0, net.cfg.out_dim), dtype=net.cfg.dtype)]
    with nm.no_grad():
        for start in range(0, nodes.size, batch_size):
            plan = sample_batch(nodes[start:start + batch_size], law, degs, seed,
                                epoch, batch_index=0, tag=tag)
            logits, _ = net.forward(x[plan.input_nodes], plan_geometries(plan),
                                    tau=1.0, training=False)
            out.append(logits.data)
    return _probs_from_logits(loss_name, np.concatenate(out, axis=0))


def predict_per_chunk(net, features, scores: AttentionPattern, degs, nodes,
                      seed: int = 0, n_samples: int = 1, batch_size: int = 256,
                      mode: str = "sample", k_prime: int | None = None,
                      tail_eps: float = 0.05, loss_name: str = "ce") -> np.ndarray:
    """Sample-averaged probabilities, each chunk of ``batch_size`` nodes
    drawing its own plan; sample ``s`` uses epoch key ``s`` on the
    prediction stream."""
    nodes = np.asarray(nodes, dtype=np.int64)
    x = np.asarray(features, dtype=net.cfg.dtype)
    law = sampling_law(scores, mode, k_prime, tail_eps)
    return sum(_eval_per_chunk(net, x, law, degs, nodes, seed, s, TAG_PREDICT,
                               batch_size, loss_name)
               for s in range(1, n_samples + 1)) / n_samples


# ---------------------------------------------------------------------------
# The per-draw sampler: every draw prefilters and weighs its rows afresh


def top_per_row_two_sorts(row, slot, k: int, key) -> np.ndarray:
    """Mask of the k entries of each row smallest by ``key``; ties go to
    the lower slot.  ``sparsegt.sampling._top_per_row`` as it was before
    it sorted distinct integers without stability, kept here so that the
    selection is checked against another one and not against itself.

    Ranking the keys once turns the row-major order into a stable sort of
    the integers row * size + rank.  Rows stay in place, so the slot of a
    sorted position is the within-row rank of the entry that lands there.
    """
    _, rank = np.unique(key, return_inverse=True)
    order = np.argsort(row * row.size + rank, kind="stable")
    keep = np.empty(row.size, dtype=bool)
    keep[order] = slot < k
    return keep


def _reservoir_select(row, slot, k: int, w, u) -> np.ndarray:
    """Efraimidis-Spirakis selection in every row, as exponential races
    in log space; a zero score never finishes, so an all-zero row becomes
    a uniform draw."""
    log_e = np.log(-np.log(u))
    positive = w > 0
    finish = np.where(positive, log_e - np.log(np.where(positive, w, 1.0)),
                      _NEVER + log_e)
    return top_per_row_two_sorts(row, slot, k, finish)


def _prefilter(row, slot, lengths, w, k_prime: int, tail_eps: float):
    """Top-k' truncation of every row at once, ties to the lower index.

    Returns the mask of entries to keep and two per-row flags: truncation
    refused because it would drop more than ``tail_eps`` of the row's mass
    (the row is kept whole), and truncation applied.
    """
    keep = top_per_row_two_sorts(row, slot, k_prime, -w)
    total = np.bincount(row, weights=w, minlength=lengths.size)
    kept = np.bincount(row, weights=np.where(keep, w, 0.0), minlength=lengths.size)
    long_row = lengths > k_prime
    kept_full = long_row & (total > 0) & (total - kept > tail_eps * total)
    return keep | kept_full[row], kept_full, long_row & ~kept_full


def _sample_layer(layer: PatternLayer, q_nodes, deg: int, mode: str, k_prime,
                  tail_eps: float, stats: SampleStats, keys):
    """(row_ptr, global columns, edge types) one layer's queries draw."""
    nq = q_nodes.size
    lo = layer.row_ptr[q_nodes]
    lengths = layer.row_ptr[q_nodes + 1] - lo
    if not lengths.all():
        raise ContractError(f"node {q_nodes[np.argmin(lengths)]} has an empty score row")
    row, slot = _segments(lengths)
    pos = lo[row] + slot
    w = layer.values[pos]
    if w.size and w.min() < 0:
        raise ContractError("negative score")
    stats.rows_sampled += nq
    if mode == "top":
        take = top_per_row_two_sorts(row, slot, deg, -w)
    else:
        csr_slot = slot
        if k_prime is not None:
            keep, kept_full, truncated = _prefilter(row, slot, lengths, w,
                                                    k_prime, tail_eps)
            stats.prefilter_kept_full += int(kept_full.sum())
            stats.prefilter_truncated += int(truncated.sum())
            row, csr_slot, pos, w = row[keep], slot[keep], pos[keep], w[keep]
            lengths = np.bincount(row, minlength=nq)
            _, slot = _segments(lengths)
        positives = np.bincount(row, weights=w > 0, minlength=nq)
        stats.uniform_fallbacks += int(((lengths > deg) & (positives == 0)).sum())
        u = counter_uniform(keys, q_nodes[row], csr_slot)
        take = _reservoir_select(row, slot, deg, w, u)

    row_ptr = np.concatenate(([0], np.cumsum(np.minimum(lengths, deg))))
    return row_ptr, layer.col_idx[pos[take]], layer.edge_type[pos[take]]


def sample_batch_per_draw(seeds, scores: AttentionPattern, degs, seed: int, epoch: int,
                          batch_index: int = 0, mode: str = "sample",
                          k_prime: int | None = None, tail_eps: float = 0.05,
                          stats: SampleStats | None = None,
                          tag: int = TAG_SAMPLE) -> BatchPlan:
    """One seed batch's plan, each layer gathered, prefiltered and drawn
    straight from ``scores``."""
    if stats is None:
        stats = SampleStats()
    seeds = np.asarray(seeds, dtype=np.int64)
    drawn = []
    q_nodes = seeds
    for li in range(scores.num_layers - 1, -1, -1):
        row_ptr, cols, types = _sample_layer(scores.layers[li], q_nodes, int(degs[li]),
                                             mode, k_prime, tail_eps, stats,
                                             (seed, tag, epoch, batch_index, li))
        v_nodes = sorted_union(q_nodes, cols)
        drawn.append((q_nodes, v_nodes, row_ptr, cols, types))
        q_nodes = v_nodes
    layers = []
    for li, (q, v, row_ptr, cols, types) in enumerate(reversed(drawn)):
        stats_local = (np.searchsorted(q, seeds) if li < len(drawn) - 1
                       else np.arange(seeds.size))
        geom = LayerGeometry(query_rows=np.searchsorted(v, q), row_ptr=row_ptr,
                             col_idx=np.searchsorted(v, cols), edge_type=types,
                             stats_rows=stats_local.astype(np.int64))
        layers.append(PlanLayer(q_nodes=q, v_nodes=v, geometry=geom))
    return BatchPlan(seeds=seeds, layers=tuple(layers), stats=stats)
