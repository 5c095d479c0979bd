"""Attention-score-guided neighbor sampling and batch assembly.

Sampling a row: weighted reservoir sampling draws k of a row's
neighbors without replacement, each neighbor's inclusion biased by its
attention score.  Every neighbor gets the key log(u) / a (u uniform on
(0,1), a its score) and the k largest keys win; this reproduces
sequential sampling-without-replacement proportional to the scores in
one vectorizable pass.  There is one sampler, ``sample_batch``, and it
selects in many rows at once; training, validation and prediction all
draw through it, and a single row is a plan over one seed.

The law: everything a draw needs that the scores alone decide is
prepared once by ``sampling_law`` -- each row's top-k' prefilter (kept
entries as CSR, each with its slot in the full score row) and each kept
entry's race offset -log(a).  A draw then only hashes uniforms and
ranks log(-log u) + offset within the rows longer than their budget.
A final run builds one ``SamplingLaw`` and its training plans,
validation and test metric all read it.

Assembling a batch: starting from the loss nodes (seeds), walk the
layers top-down; each layer's queries are the node set the layer above
needs, each query samples deg_l keys from its score row, and the union
becomes the support the layer below must produce.  Each layer's drawn
keys come out as a CSR edge list over its queries, which the attention op
runs on.  A layer's query rows are gathered from the law and drawn in
one vectorized pass; each score entry's uniform is the counter-based hash
``rngutil.counter_uniform`` of (seed, tag, epoch, batch, layer, node, CSR
slot), so plans are reproducible no matter how rows are visited, and a
node that queries two layers draws independently in each.  The hash of
the key path up to the node is taken once per query row
(``rngutil.counter_state``), and each entry folds only its slot into it.

A training batch is one plan per chunk of seeds.  An evaluation draws
one plan over every distinct node it scores and the network computes it
layer by layer: with the draws keyed alike (batch index 0), a query
draws the same keys in that plan as in the plan of any chunk that holds
it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .attention import LayerGeometry
from .errors import ContractError, FormatError, ShapeError
from .graphs import AttentionPattern, EdgeType, PatternLayer, atomic_path, sorted_union
from .numerics import load_npz
from .rngutil import TAG_SAMPLE, TAG_SHUFFLE, counter_state, counter_uniform_at, derive


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
        _check_columns(li, cols, n)
        types = layer.edge_type
        outside = np.flatnonzero((types < 0) | (types >= len(EdgeType)))
        if outside.size:
            raise ContractError(f"layer {li}: edge type {types[outside[0]]} outside "
                                f"[0, {len(EdgeType)})")


def _check_columns(li: int, cols: np.ndarray, n: int) -> None:
    outside = np.flatnonzero((cols < 0) | (cols >= n))
    if outside.size:
        raise ContractError(f"layer {li}: column {cols[outside[0]]} outside [0, {n})")


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
    """A score set written by ``save_scores_npz``; FormatError naming ``path`` if not."""
    z = load_npz(path, "score set")
    if "n" not in z:
        raise FormatError(f"{path}: score set has no n")
    n = z["n"]
    if n.ndim != 0 or n.dtype.kind not in "iu" or n < 0:
        raise FormatError(f"{path}: score set n must be one nonnegative integer, "
                          f"got {n.dtype} {np.array2string(n, threshold=5)}")
    layers, li = [], 0
    while f"row_ptr_{li}" in z:
        missing = [k for k in ("col_idx", "edge_type", "values") if f"{k}_{li}" not in z]
        if missing:
            raise FormatError(f"{path}: score layer {li + 1} has no {', '.join(missing)}")
        layers.append(PatternLayer(row_ptr=z[f"row_ptr_{li}"], col_idx=z[f"col_idx_{li}"],
                                   edge_type=z[f"edge_type_{li}"], values=z[f"values_{li}"]))
        li += 1
    return AttentionPattern(n=int(n), layers=tuple(layers))


# ---------------------------------------------------------------------------
# Sampling laws
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


_INT64_MAX = int(np.iinfo(np.int64).max)


def _top_per_row(row, slot, k: int, key) -> np.ndarray:
    """Mask of the k entries of each row smallest by ``key``; ties go to
    the lower slot.  Entries lie row-major: ``row`` never decreases and
    ``slot`` counts 0, 1, ... within each row.

    Ranking the keys once turns the selection into a sort of the integers
    (row, rank, slot), which are distinct, so the sort need not be stable.
    Rows stay in place, so the slot of a sorted position is the within-row
    rank of the entry that lands there.  Where the three parts would not
    fit in an int64, a stable sort of (row, rank) gives the same order.
    """
    distinct, rank = np.unique(key, return_inverse=True)
    ranked = row * distinct.size
    ranked += rank
    width = int(slot.max()) + 1 if slot.size else 1
    if row.size and (int(row[-1]) + 1) * distinct.size * width > _INT64_MAX:
        order = np.argsort(ranked, kind="stable")
    else:
        ranked *= width
        ranked += slot
        order = np.argsort(ranked)
    keep = np.empty(row.size, dtype=bool)
    keep[order] = slot < k
    return keep


# past every positive score's race time: |log w| < 745 for float64 w > 0
_NEVER = 2048.0


@dataclass(frozen=True)
class LawLayer:
    """What one score layer's draws need, prepared once.

    The entries a draw can select (the prefilter's kept set) as CSR over
    all n rows: ``row_ptr``, ``col_idx`` and ``edge_type``.  ``slot`` is
    each kept entry's position in its full score row, the counter of its
    uniform, held as uint64 as the hash folds it.  ``offset`` is its race
    offset: ``-log w``, or ``_NEVER`` for a zero score, in sample mode, and
    ``-w`` in top mode.  Per row:
    ``kept_full`` (the prefilter refused to truncate), ``truncated`` and
    ``no_positive`` (a nonempty row without a positive kept score).
    ``entries_total`` counts the score layer's entries.
    """

    row_ptr: np.ndarray
    col_idx: np.ndarray
    edge_type: np.ndarray
    slot: np.ndarray
    offset: np.ndarray
    kept_full: np.ndarray
    truncated: np.ndarray
    no_positive: np.ndarray
    entries_total: int


@dataclass(frozen=True)
class SamplingLaw:
    """The law every draw of a run reads: ``mode`` and one ``LawLayer``
    per score layer, over ``n`` nodes.  Built by ``sampling_law``."""

    n: int
    mode: str
    layers: tuple

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def summary(self) -> list:
        """Per layer: rows truncated, rows kept full and rows without a
        positive score, and the entries kept against the score set's."""
        return [{"layer": li,
                 "rows_truncated": int(np.count_nonzero(ll.truncated)),
                 "rows_kept_full": int(np.count_nonzero(ll.kept_full)),
                 "rows_no_positive": int(np.count_nonzero(ll.no_positive)),
                 "entries_kept": int(ll.row_ptr[-1]),
                 "entries_total": ll.entries_total}
                for li, ll in enumerate(self.layers, start=1)]


def sampling_law(scores: AttentionPattern, mode: str = "sample",
                 k_prime: int | None = None, tail_eps: float = 0.05) -> SamplingLaw:
    """Everything a draw from ``scores`` needs that depends on the scores
    alone, computed once: the top-k' prefilter and the race offsets.

    ``mode="top"`` makes every draw a deterministic top-deg selection (the
    max-selection ablation) and ignores ``k_prime``.  In sample mode
    ``k_prime`` keeps the k' largest scores of each longer row, ties to
    the lower slot, unless that would drop more than ``tail_eps`` of the
    row's mass, in which case the row is kept whole.  A bad mode, a
    nonpositive ``k_prime``, a ``tail_eps`` outside [0, 1) (NaN included),
    a layer without values, a negative or non-finite score and a column
    outside [0, n) are ContractErrors.
    """
    if mode not in ("sample", "top"):
        raise ContractError(f"unknown mode {mode!r}")
    if k_prime is not None and k_prime <= 0:
        raise ContractError(f"k_prime must be positive, got {k_prime}")
    if not 0.0 <= tail_eps < 1.0:
        raise ContractError(f"tail_eps must be in [0, 1), got {tail_eps}")
    for li, layer in enumerate(scores.layers, start=1):
        if layer.values is None:
            raise ContractError("the pattern carries no score values")
        if not np.isfinite(layer.values).all():
            raise ContractError(f"layer {li}: non-finite score")
        if layer.values.size and layer.values.min() < 0:
            raise ContractError(f"layer {li}: negative score")
        _check_columns(li, layer.col_idx, scores.n)
    prefilter = k_prime if mode == "sample" else None
    return SamplingLaw(n=scores.n, mode=mode, layers=tuple(
        _law_layer(layer, mode, prefilter, tail_eps) for layer in scores.layers))


def _prefilter(row, slot, w, lengths, k_prime: int, tail_eps: float):
    """The top-k' prefilter of rows laid end to end: the mask of entries
    kept, and per row whether truncation was refused (``tail_eps`` of the
    mass would go; the row is kept whole) and whether it was applied.
    Only rows longer than k' can lose entries, so only those are ranked
    and weighed."""
    n = lengths.size
    long_row = lengths > k_prime
    ranked = long_row[row]
    r, wr = row[ranked], w[ranked]
    top = _top_per_row(r, slot[ranked], k_prime, -wr)
    total = np.bincount(r, weights=wr, minlength=n)
    kept = np.bincount(r, weights=np.where(top, wr, 0.0), minlength=n)
    kept_full = long_row & (total > 0) & (total - kept > tail_eps * total)
    keep = np.ones(row.size, dtype=bool)
    keep[ranked] = top | kept_full[r]
    return keep, kept_full, long_row & ~kept_full


def _law_layer(layer: PatternLayer, mode: str, k_prime, tail_eps: float) -> LawLayer:
    lengths = np.diff(layer.row_ptr)
    n = lengths.size
    row, slot = _segments(lengths)
    w = layer.values
    if k_prime is None:
        keep = np.ones(row.size, dtype=bool)
        kept_full, truncated = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    else:
        keep, kept_full, truncated = _prefilter(row, slot, w, lengths, k_prime, tail_eps)
    row, w = row[keep], w[keep]
    positive = w > 0
    if mode == "top":
        offset = -w
    else:
        offset = np.where(positive, -np.log(np.where(positive, w, 1.0)), _NEVER)
    kept_lengths = np.bincount(row, minlength=n)
    return LawLayer(
        row_ptr=np.concatenate(([0], np.cumsum(kept_lengths))),
        col_idx=layer.col_idx[keep], edge_type=layer.edge_type[keep],
        slot=slot[keep].view(np.uint64), offset=offset,
        kept_full=kept_full, truncated=truncated,
        no_positive=(kept_lengths > 0) & (np.bincount(row, weights=positive,
                                                      minlength=n) == 0),
        entries_total=int(lengths.sum()))


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


def sample_batch(seeds, law: SamplingLaw, degs, seed: int, epoch: int,
                 batch_index: int = 0, stats: SampleStats | None = None,
                 tag: int = TAG_SAMPLE) -> BatchPlan:
    """The plan for one seed batch, drawn by ``law`` top-down.

    Walking layers L..1: a layer's queries are what the layer above needs
    (layer L's are the seeds, in their order), each query draws deg_l keys
    from its row of the law, and the query+key union is the layer's input
    rows, the queries of the layer below.  ``tag`` namespaces the random
    streams so training, validation and prediction plans never share
    draws.  A seed outside [0, n) is an IndexError and a repeated seed a
    ContractError, both raised before anything is drawn.

    Each layer's input rows hold the layer above's, so one index map over
    the n nodes, rewritten layer by layer, serves every lookup: the seeds
    are looked up in a layer's queries, the inputs of the layer above,
    before the map takes the layer's own inputs.
    """
    if not isinstance(law, SamplingLaw):
        raise ContractError("draws read a SamplingLaw; build one with sampling_law")
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.ndim != 1 or seeds.size == 0:
        raise ContractError("seeds must be a nonempty 1-d array")
    outside = seeds[(seeds < 0) | (seeds >= law.n)]
    if outside.size:
        raise IndexError(f"node {outside[0]} outside [0, {law.n})")
    local = np.empty(law.n, dtype=np.int64)
    stats_rows = np.arange(seeds.size, dtype=np.int64)
    local[seeds] = stats_rows           # a repeated seed keeps one position
    if (local[seeds] != stats_rows).any():
        raise ContractError("duplicate seed nodes")
    degs = tuple(int(d) for d in degs)
    if len(degs) != law.num_layers:
        raise ShapeError(f"{len(degs)} degree budgets for {law.num_layers} layers")
    if any(d < 1 for d in degs):
        raise ContractError("degree budgets must be positive")
    if stats is None:
        stats = SampleStats()

    q_nodes, layers = seeds, []
    for li in range(law.num_layers - 1, -1, -1):
        row_ptr, cols, types = _draw_layer(law.layers[li], law.mode, q_nodes, degs[li],
                                           stats, (seed, tag, epoch, batch_index, li))
        v_nodes = sorted_union(q_nodes, cols)
        if layers:
            stats_rows = local[seeds]
        local[v_nodes] = np.arange(v_nodes.size)
        geom = LayerGeometry(query_rows=local[q_nodes], row_ptr=row_ptr,
                             col_idx=local[cols], edge_type=types,
                             stats_rows=stats_rows)
        layers.append(PlanLayer(q_nodes=q_nodes, v_nodes=v_nodes, geometry=geom))
        q_nodes = v_nodes
    return BatchPlan(seeds=seeds, layers=tuple(reversed(layers)), stats=stats)


def _draw_layer(ll: LawLayer, mode: str, q_nodes, deg: int, stats: SampleStats, keys):
    """The keys one layer's queries draw, as a CSR edge list over the
    queries: (row_ptr, global columns, edge types).

    A row of at most ``deg`` kept entries is taken whole.  The others race
    in one pass (Efraimidis-Spirakis as exponential races): entry i
    finishes at log(E_i) + offset_i with E_i = -log(u_i) ~ Exp(1), and the
    first ``deg`` finishers win, the order of the keys log(u_i)/w_i,
    largest first.  A zero score never finishes: it lands after every
    positive one and completes ``deg`` only when positives run out, in
    the order of its own E, i.e. uniformly, so an all-zero row becomes a
    uniform draw.  In top mode the offsets alone decide.  The uniforms
    come from ``counter_uniform(keys, node, slot)``, ``slot`` being the
    entry's position in the node's full score row, so a row draws the
    same keys whichever batch it is drawn in; each query row hashes its
    node once, and each entry then folds only its slot.  Once any row
    races, every row runs, since the first ``deg`` finishers of a row
    with at most ``deg`` entries are all of them.
    """
    lo = ll.row_ptr[q_nodes]
    lengths = ll.row_ptr[q_nodes + 1] - lo
    if not lengths.all():
        raise ContractError(f"node {q_nodes[np.argmin(lengths)]} has an empty score row")
    racing = lengths > deg
    stats.rows_sampled += q_nodes.size
    stats.prefilter_kept_full += int(np.count_nonzero(ll.kept_full[q_nodes]))
    stats.prefilter_truncated += int(np.count_nonzero(ll.truncated[q_nodes]))
    if mode == "sample":
        stats.uniform_fallbacks += int(np.count_nonzero(racing & ll.no_positive[q_nodes]))
    row, slot = _segments(lengths)
    pos = lo[row] + slot
    if racing.any():
        finish = ll.offset[pos]
        if mode == "sample":
            u = counter_uniform_at(counter_state(keys, q_nodes), row, ll.slot[pos])
            # log(-log u) + offset, in u's buffer
            np.log(u, out=u)
            np.negative(u, out=u)
            np.log(u, out=u)
            u += finish
            finish = u
        pos = pos[_top_per_row(row, slot, deg, finish)]
    row_ptr = np.concatenate(([0], np.cumsum(np.minimum(lengths, deg))))
    return row_ptr, ll.col_idx[pos], ll.edge_type[pos]


def plan_geometries(plan: BatchPlan) -> list[LayerGeometry]:
    """The per-layer geometries a Network consumes, in forward order."""
    return [pl.geometry for pl in plan.layers]


def resample_epoch(law: SamplingLaw, degs, train_nodes, batch_size: int,
                   seed: int, epoch: int, stats: SampleStats | None = None) -> list:
    """Fresh plans covering ``train_nodes`` once, in shuffled order.

    Deterministic in (seed, epoch): the shuffle and every per-query draw
    derive from them alone.  A last batch short of ``batch_size`` and of
    three seeds joins the batch before it, under that batch's index:
    training batch norm's variance over one or two seeds scales the rows
    far from them up by orders of magnitude.
    """
    train_nodes = np.asarray(train_nodes, dtype=np.int64)
    if batch_size < 1:
        raise ContractError("batch size must be positive")
    order = derive(seed, TAG_SHUFFLE, epoch).permutation(train_nodes.size)
    shuffled = train_nodes[order]
    starts = list(range(0, shuffled.size, batch_size))
    if len(starts) > 1 and shuffled.size - starts[-1] < min(batch_size, 3):
        starts.pop()
    ends = starts[1:] + [shuffled.size]
    return [sample_batch(shuffled[a:b], law, degs, seed, epoch, bi, stats=stats)
            for bi, (a, b) in enumerate(zip(starts, ends))]
