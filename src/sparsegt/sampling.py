"""Attention-score-guided neighbor sampling and batch assembly.

Sampling a row: weighted reservoir sampling draws k of a row's
neighbors without replacement, each neighbor's inclusion biased by its
attention score.  Every neighbor gets the key log(u) / a (u uniform on
(0,1), a its score) and the k largest keys win; this reproduces
sequential sampling-without-replacement proportional to the scores in
one vectorizable pass.  There is one sampler, ``draw_rows``, and it
selects in many rows at once; training, validation and prediction all
draw through it, and a single row is a draw over one node.

Assembling a batch: starting from the loss nodes (seeds), walk the
layers top-down; each layer's queries are the node set the layer above
needs, each query samples deg_l keys from its score row, and the union
becomes the support the layer below must produce.  Each layer's drawn
keys come out as a CSR edge list over its queries, which the attention op
runs on.  A layer's query rows are gathered, prefiltered and drawn in one
vectorized pass; each score entry's uniform is the counter-based hash
``rngutil.counter_uniform`` of (seed, tag, epoch, batch, layer, node, CSR
slot), so plans are reproducible no matter how rows are visited, and a
node that queries two layers draws independently in each.

Plans are built in two steps: ``draw_rows`` draws the rows a node set
reaches, and ``sample_batch`` indexes the drawn rows into its layers'
input rows.  A training batch is one plan per chunk of seeds.  An
evaluation draws one plan over every distinct node it scores and the
network computes it layer by layer: with the draws keyed alike (batch
index 0), a query draws the same keys in that plan as in the plan of
any chunk that holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import LayerGeometry
from .errors import ContractError, FormatError, ShapeError
from .graphs import AttentionPattern, EdgeType, PatternLayer, atomic_path, sorted_union
from .rngutil import TAG_SAMPLE, TAG_SHUFFLE, counter_uniform, derive


# ---------------------------------------------------------------------------
# Score sets: patterns whose layers carry values


def validate_scores(scores: AttentionPattern, tol: float = 1e-5) -> None:
    """Every layer must be a score set over ``scores.n`` nodes.

    ``row_ptr`` has n+1 entries, starts at 0 and never decreases;
    ``col_idx``, ``edge_type`` and ``values`` hold one entry per slot;
    rows are distributions (finite, nonnegative, summing to 1 within
    tol); every column lies in [0, n); and every type is an ``EdgeType``.
    """
    n = scores.n
    for li, layer in enumerate(scores.layers, start=1):
        row_ptr, cols, vals = layer.row_ptr, layer.col_idx, layer.values
        if np.shape(row_ptr) != (n + 1,):
            raise ShapeError(f"layer {li}: row_ptr has shape {np.shape(row_ptr)} for n={n}")
        lengths = np.diff(row_ptr)
        if row_ptr[0] != 0 or (lengths < 0).any():
            raise ContractError(f"layer {li}: row_ptr must start at 0 and never decrease")
        if vals is None:
            raise ContractError(f"layer {li}: no score values")
        for name in ("col_idx", "edge_type", "values"):
            if np.shape(getattr(layer, name)) != (row_ptr[-1],):
                raise ShapeError(f"layer {li}: {name} has shape "
                                 f"{np.shape(getattr(layer, name))}, not ({row_ptr[-1]},)")
        if not np.isfinite(vals).all():
            raise ContractError(f"layer {li}: non-finite score")
        if vals.size and vals.min() < 0:
            raise ContractError(f"layer {li}: negative score")
        sums = np.bincount(np.repeat(np.arange(n), lengths), weights=vals, minlength=n)
        sums = np.where(lengths > 0, sums, 1.0)
        bad = np.flatnonzero(np.abs(sums - 1.0) > tol)
        if bad.size:
            raise ContractError(f"layer {li}: row {bad[0]} sums to {sums[bad[0]]:.8f}")
        outside = np.flatnonzero((cols < 0) | (cols >= n))
        if outside.size:
            raise ContractError(f"layer {li}: column {cols[outside[0]]} outside [0, {n})")
        types = layer.edge_type
        outside = np.flatnonzero((types < 0) | (types >= len(EdgeType)))
        if outside.size:
            raise ContractError(f"layer {li}: edge type {types[outside[0]]} outside "
                                f"[0, {len(EdgeType)})")


def uniform_scores(pattern: AttentionPattern) -> AttentionPattern:
    """Every row uniform over its support; the sampling ablation baseline.

    Each layer keeps its support and edge types and takes new values; any
    values the pattern already carries are ignored.
    """
    layers = []
    for layer in pattern.layers:
        lengths = np.diff(layer.row_ptr)
        vals = 1.0 / np.repeat(lengths, lengths).astype(np.float64)
        layers.append(replace(layer, values=vals))
    return replace(pattern, layers=tuple(layers))


def save_scores_npz(path, scores: AttentionPattern) -> None:
    """Binary variant mirroring the CSR arrays directly."""
    arrays = {"n": np.asarray(scores.n)}
    for li, layer in enumerate(scores.layers):
        arrays[f"row_ptr_{li}"] = layer.row_ptr
        arrays[f"col_idx_{li}"] = layer.col_idx
        arrays[f"values_{li}"] = layer.values
        arrays[f"edge_type_{li}"] = layer.edge_type
    # through a handle: np.savez appends .npz to a file name that lacks it
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **arrays)


def load_scores_npz(path) -> AttentionPattern:
    """A score set written by ``save_scores_npz``; FormatError if a layer lacks an array."""
    with np.load(path) as z:
        n = int(z["n"])
        layers = []
        li = 0
        while f"row_ptr_{li}" in z:
            missing = [k for k in ("col_idx", "edge_type", "values") if f"{k}_{li}" not in z]
            if missing:
                raise FormatError(f"{path}: score layer {li + 1} has no {', '.join(missing)}")
            layers.append(PatternLayer(row_ptr=z[f"row_ptr_{li}"],
                                       col_idx=z[f"col_idx_{li}"],
                                       edge_type=z[f"edge_type_{li}"],
                                       values=z[f"values_{li}"]))
            li += 1
    return AttentionPattern(n=n, layers=tuple(layers))


# ---------------------------------------------------------------------------
# Reservoir sampling
#
# Rows are processed in bulk, laid end to end as (row id, slot) pairs with
# row ids ascending; one segment-wise sort then selects in every row.


@dataclass
class SampleStats:
    """Counters for the degenerate paths taken while building plans."""

    rows_sampled: int = 0
    uniform_fallbacks: int = 0
    prefilter_truncated: int = 0
    prefilter_kept_full: int = 0


def _segments(lengths: np.ndarray):
    """Row id and within-row slot of every entry of rows laid end to end."""
    row = np.repeat(np.arange(lengths.size), lengths)
    slot = np.arange(row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return row, slot


def _top_per_row(row, slot, k: int, key) -> np.ndarray:
    """Mask of the k entries of each row smallest by ``key``; ties go to
    the lower slot.

    Ranking the keys once turns the row-major order into a stable sort of
    the integers row * size + rank.  Rows stay in place, so the slot of a
    sorted position is the within-row rank of the entry that lands there.
    """
    _, rank = np.unique(key, return_inverse=True)
    order = np.argsort(row * row.size + rank, kind="stable")
    keep = np.empty(row.size, dtype=bool)
    keep[order] = slot < k
    return keep


# past every positive score's race time: |log w| < 745 for float64 w > 0
_NEVER = 2048.0


def _reservoir_select(row, slot, k: int, w, u) -> np.ndarray:
    """Efraimidis-Spirakis selection in every row, as exponential races.

    Entry i finishes at E_i / w_i with E_i = -log(u_i) ~ Exp(1), and the
    first k finishers win: the same order as the keys log(u_i)/w_i,
    largest first.  Times are compared in log space so that no score
    overflows them.  A zero score never finishes: it lands after every
    positive one and completes k only when positives run out, in the
    order of its own E, i.e. uniformly, so an all-zero row becomes a
    uniform draw.  Rows of at most k entries are kept whole.
    """
    log_e = np.log(-np.log(u))
    positive = w > 0
    finish = np.where(positive, log_e - np.log(np.where(positive, w, 1.0)),
                      _NEVER + log_e)
    return _top_per_row(row, slot, k, finish)


def _prefilter(row, slot, lengths, w, k_prime: int, tail_eps: float):
    """Top-k' truncation of every row at once, ties to the lower index.

    Returns the mask of entries to keep and two per-row flags: truncation
    refused because it would drop more than ``tail_eps`` of the row's mass
    (the row is kept whole), and truncation applied.
    """
    keep = _top_per_row(row, slot, k_prime, -w)
    total = np.bincount(row, weights=w, minlength=lengths.size)
    kept = np.bincount(row, weights=np.where(keep, w, 0.0), minlength=lengths.size)
    long_row = lengths > k_prime
    kept_full = long_row & (total > 0) & (total - kept > tail_eps * total)
    return keep | kept_full[row], kept_full, long_row & ~kept_full


# ---------------------------------------------------------------------------
# Batch plans


@dataclass(frozen=True)
class PlanLayer:
    """Sampled fixed-degree support for one layer of one batch.

    ``v_nodes`` are the input rows (global ids, sorted) and ``q_nodes``
    the output rows.  ``geometry`` holds the drawn keys as a CSR edge list
    over the queries, in local rows: its ``query_rows`` and ``col_idx``
    index into ``v_nodes``, so query i drew the global keys
    ``v_nodes[col_idx[row_ptr[i]:row_ptr[i + 1]]]``.
    """

    q_nodes: np.ndarray
    v_nodes: np.ndarray
    geometry: LayerGeometry


@dataclass(frozen=True)
class BatchPlan:
    seeds: np.ndarray
    layers: tuple            # forward order: layers[0] runs first
    stats: SampleStats

    @property
    def input_nodes(self) -> np.ndarray:
        return self.layers[0].v_nodes


@dataclass(frozen=True)
class DrawnLayer:
    """One layer's drawn keys as a CSR edge list in global ids.

    Query ``q_nodes[i]`` drew the keys ``cols[row_ptr[i]:row_ptr[i + 1]]``
    with types ``types[row_ptr[i]:row_ptr[i + 1]]``.  ``v_nodes`` is the
    sorted union of queries and keys: the queries of the layer below.
    """

    q_nodes: np.ndarray
    v_nodes: np.ndarray
    row_ptr: np.ndarray
    cols: np.ndarray
    types: np.ndarray


def sample_batch(seeds, scores: AttentionPattern, degs, seed: int, epoch: int,
                 batch_index: int = 0, mode: str = "sample",
                 k_prime: int | None = None, tail_eps: float = 0.05,
                 stats: SampleStats | None = None, tag: int = TAG_SAMPLE) -> BatchPlan:
    """Top-down support construction for one seed batch: the rows
    ``draw_rows(seeds, ...)`` draws, indexed into a plan.  The seeds keep
    their order as the last layer's queries.
    """
    if stats is None:
        stats = SampleStats()
    seeds = np.asarray(seeds, dtype=np.int64)
    drawn = draw_rows(seeds, scores, degs, seed, epoch, batch_index, mode=mode,
                      k_prime=k_prime, tail_eps=tail_eps, stats=stats, tag=tag)
    return _plan(seeds, drawn, stats)


def draw_rows(nodes, scores: AttentionPattern, degs, seed: int, epoch: int,
              batch_index: int = 0, mode: str = "sample",
              k_prime: int | None = None, tail_eps: float = 0.05,
              stats: SampleStats | None = None,
              tag: int = TAG_SAMPLE) -> tuple[DrawnLayer, ...]:
    """The rows ``nodes`` reach, drawn top-down; returns the layers top-down
    (the first is the last layer, whose queries are ``nodes``).

    Walking layers L..1: queries are what the layer above needs, each
    query draws deg_l keys from its score row, and query+key union is the
    support the layer below must produce.  ``mode="top"`` replaces the
    draw with a deterministic top-deg selection (the max-selection
    ablation).  ``k_prime`` enables score prefiltering before sampling.
    ``tag`` namespaces the random streams so training, validation and
    prediction plans never share draws.  A node outside [0, n) is an
    IndexError, raised before anything is drawn.
    """
    nodes = _seed_array(nodes)
    outside = nodes[(nodes < 0) | (nodes >= scores.n)]
    if outside.size:
        raise IndexError(f"node {outside[0]} outside [0, {scores.n})")
    degs = tuple(int(d) for d in degs)
    if len(degs) != scores.num_layers:
        raise ShapeError(f"{len(degs)} degree budgets for {scores.num_layers} layers")
    if any(d < 1 for d in degs):
        raise ContractError("degree budgets must be positive")
    if mode not in ("sample", "top"):
        raise ContractError(f"unknown mode {mode!r}")
    if mode == "sample" and k_prime is not None and k_prime <= 0:
        raise ContractError(f"k_prime must be positive, got {k_prime}")
    if any(layer.values is None for layer in scores.layers):
        raise ContractError("the pattern carries no score values")
    if stats is None:
        stats = SampleStats()

    drawn = []
    q_nodes = nodes
    for li in range(scores.num_layers - 1, -1, -1):
        row_ptr, cols, types = _sample_layer(scores.layers[li], q_nodes, degs[li], mode,
                                             k_prime, tail_eps, stats,
                                             (seed, tag, epoch, batch_index, li))
        v_nodes = sorted_union(q_nodes, cols)
        drawn.append(DrawnLayer(q_nodes, v_nodes, row_ptr, cols, types))
        q_nodes = v_nodes
    return tuple(drawn)


def _seed_array(seeds) -> np.ndarray:
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ContractError("seeds must be a nonempty 1-d array")
    if np.unique(seeds).size != seeds.size:
        raise ContractError("duplicate seed nodes")
    return seeds


def _plan(seeds, drawn, stats: SampleStats) -> BatchPlan:
    """The plan whose layers are ``drawn`` (top-down, the first one's
    queries being ``seeds``), with each layer's keys and queries indexed
    into its input rows."""
    num_layers = len(drawn)
    layers = []
    for li, d in enumerate(reversed(drawn)):
        stats_local = (np.searchsorted(d.q_nodes, seeds) if li < num_layers - 1
                       else np.arange(seeds.size))
        geom = LayerGeometry(query_rows=np.searchsorted(d.v_nodes, d.q_nodes),
                             row_ptr=d.row_ptr,
                             col_idx=np.searchsorted(d.v_nodes, d.cols),
                             edge_type=d.types, stats_rows=stats_local.astype(np.int64))
        layers.append(PlanLayer(q_nodes=d.q_nodes, v_nodes=d.v_nodes, geometry=geom))
    return BatchPlan(seeds=seeds, layers=tuple(layers), stats=stats)


def _sample_layer(layer: PatternLayer, q_nodes, deg: int, mode: str, k_prime,
                  tail_eps: float, stats: SampleStats, keys):
    """The keys one layer's queries draw, as a CSR edge list over the
    queries: (row_ptr, global columns, edge types).

    Every query row is gathered, prefiltered and selected in one pass.
    The uniforms come from ``counter_uniform(keys, node, slot)``, ``slot``
    being the entry's position in the node's full CSR row, so a row draws
    the same keys whichever batch it is drawn in.  Top mode and rows that
    fit the budget draw nothing.
    """
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
        take = _top_per_row(row, slot, deg, -w)
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


def plan_geometries(plan: BatchPlan) -> list[LayerGeometry]:
    """The per-layer geometries a Network consumes, in forward order."""
    return [pl.geometry for pl in plan.layers]


def resample_epoch(scores: AttentionPattern, degs, train_nodes, batch_size: int,
                   seed: int, epoch: int, mode: str = "sample",
                   k_prime: int | None = None, tail_eps: float = 0.05,
                   stats: SampleStats | None = None) -> list:
    """Fresh plans covering ``train_nodes`` once, in shuffled order.

    Deterministic in (seed, epoch): the shuffle and every per-query draw
    derive from them alone.
    """
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    if batch_size < 1:
        raise ContractError("batch size must be positive")
    order = derive(seed, TAG_SHUFFLE, epoch).permutation(train_nodes.size)
    shuffled = train_nodes[order]
    plans = []
    for bi, start in enumerate(range(0, shuffled.size, batch_size)):
        chunk = shuffled[start:start + batch_size]
        plans.append(sample_batch(chunk, scores, degs, seed, epoch, bi,
                                  mode=mode, k_prime=k_prime, tail_eps=tail_eps,
                                  stats=stats))
    return plans
