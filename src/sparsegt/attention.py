"""Edge-typed sparse attention networks.

One attention layer computes, for query node i over its pattern row,

    out_i = x_i + sum_heads  V_head . softmax((E type . K) Q_i / sqrt(d_head) + b_type)

where E and b are per-edge-type key modulation and logit bias derived
from three learnable type embeddings (graph edge, expander edge,
self-loop).  The bias term is what lets a trained network switch off
long-range expander edges wholesale when a task is local, and keep them
when it is not.

Two network flavors share this code.  The narrow score estimator runs
with one head, layer norm, length-normalized values and an annealing
softmax temperature; the wide final network runs with batch norm, raw
values and temperature 1 over sampled fixed-degree patterns.  Both see
their pattern through a ``LayerGeometry``, so a full CSR pattern and a
sampled plan drive the exact same forward code.  A geometry is a CSR
edge list and each head is one ``numerics.edge_attention`` tape node
over it, so a layer costs what its edges cost.  The index arrays those
nodes derive from the list (``numerics.EdgeIndex``) belong to the
geometry: built by its first forward, shared by every head and by every
later pass over it, and freed with it.  The estimator's geometries live
for the whole run, so its epochs do that index work once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .graphs import PatternLayer, sorted_union
from .rngutil import TAG_INIT, derive


@dataclass(frozen=True)
class TemperatureSchedule:
    """Hold at 1 for ``lam`` epochs, then decay by ``gamma`` down to ``floor``."""

    lam: int = 5
    gamma: float = 0.99
    floor: float = 0.05


def temperature_at(sched: TemperatureSchedule, epoch: int) -> float:
    """Softmax temperature for 1-indexed ``epoch``."""
    if epoch < 1:
        raise ContractError(f"epochs are 1-indexed, got {epoch}")
    if epoch <= sched.lam:
        return 1.0
    return max(sched.gamma ** (epoch - sched.lam), sched.floor)


@dataclass
class ModelConfig:
    in_dim: int
    width: int
    layers: int
    out_dim: int
    heads: int = 1
    d_ff: int = 0             # 0 means 2 * width
    norm: str = "layer"       # "layer" for the estimator, "batch" for the final net
    normalize_values: bool = True
    clip: float = 8.0
    dropout: float = 0.0
    dtype: type = np.float32

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise ContractError(f"width {self.width} not divisible by {self.heads} heads")
        if self.d_ff == 0:
            self.d_ff = 2 * self.width
        if self.norm not in ("layer", "batch"):
            raise ContractError(f"unknown norm {self.norm!r}")

    @property
    def d_head(self) -> int:
        return self.width // self.heads


@dataclass(frozen=True)
class LayerGeometry:
    """Attention support for one layer, in current-row coordinates.

    Query i attends over rows ``col_idx[row_ptr[i]:row_ptr[i + 1]]`` of
    the incoming feature matrix, along edges typed ``edge_type``: a CSR
    edge list.  ``stats_rows`` marks which OUTPUT rows constitute the
    minibatch for batch-norm statistics (None: all).

    ``edges`` is the list's ``numerics.EdgeIndex``, built on first use: the
    first forward builds each edge's query row, the row starts, the
    type-and-row index of q * emap and the column and type spans, the
    first backward the CSC ramp.  It lives and dies with the geometry, so
    a geometry used once builds it once, and the arrays
    must not be changed once it is built.
    """

    query_rows: np.ndarray
    row_ptr: np.ndarray
    col_idx: np.ndarray
    edge_type: np.ndarray
    stats_rows: np.ndarray | None = None

    @property
    def num_queries(self) -> int:
        return int(self.query_rows.shape[0])

    @cached_property
    def edges(self) -> nm.EdgeIndex:
        return nm.EdgeIndex(self.row_ptr, self.col_idx, self.edge_type)

    @property
    def key_mask(self) -> np.ndarray:
        """(queries x longest row) mask of each row's edges, left-aligned:
        the slots a padded layout would hold.  No training or predict path
        reads it: ``perfbench/tracing.py`` counts the slots with it, and
        three tests check it (in ``test_attention``, ``test_sampling`` and
        ``test_edge_attention``)."""
        lengths = np.diff(self.row_ptr)
        return np.arange(lengths.max(initial=0)) < lengths[:, None]


def pattern_geometry(layer: PatternLayer) -> LayerGeometry:
    """Full-pattern geometry: every node queries its whole CSR row."""
    return LayerGeometry(query_rows=np.arange(layer.row_ptr.shape[0] - 1),
                         row_ptr=layer.row_ptr, col_idx=layer.col_idx,
                         edge_type=layer.edge_type)


class HeadParams:
    __slots__ = ("wq", "wk", "wv", "we", "wb")

    def __init__(self, d, rng, dtype):
        self.wq = nm.param(_glorot(rng, d, d), dtype)
        self.wk = nm.param(_glorot(rng, d, d), dtype)
        self.wv = nm.param(_glorot(rng, d, d), dtype)
        self.we = nm.param(_glorot(rng, d, d), dtype)
        self.wb = nm.param(_glorot(rng, d, 1), dtype)


class LayerParams:
    def __init__(self, cfg: ModelConfig, rng):
        d, dff, dt = cfg.width, cfg.d_ff, cfg.dtype
        self.heads = [HeadParams(d, rng, dt) for _ in range(cfg.heads)]
        self.edge_emb = nm.param(_glorot(rng, 3, d), dt)
        self.w1 = nm.param(_glorot(rng, d, dff), dt)
        self.b1 = nm.param(np.zeros(dff), dt)
        self.w2 = nm.param(_glorot(rng, dff, d), dt)
        self.b2 = nm.param(np.zeros(d), dt)
        self.vscale = nm.param(np.ones(1), dt)
        self.n1_gamma = nm.param(np.ones(d), dt)
        self.n1_beta = nm.param(np.zeros(d), dt)
        self.n2_gamma = nm.param(np.ones(d), dt)
        self.n2_beta = nm.param(np.zeros(d), dt)
        # batch-norm running buffers; untouched in layer-norm mode
        self.n1_mean = np.zeros(d, dtype=np.float64)
        self.n1_var = np.ones(d, dtype=np.float64)
        self.n2_mean = np.zeros(d, dtype=np.float64)
        self.n2_var = np.ones(d, dtype=np.float64)


def _glorot(rng, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def attention_sublayer(h: nm.Tensor, geom: LayerGeometry, lp: LayerParams,
                       cfg: ModelConfig, tau: float, training: bool = False,
                       dropout_rng=None):
    """One attention layer with residual: returns (out rows=queries, scores).

    Each head is one ``nm.edge_attention`` node over the geometry's edge
    list, all of them reading its one ``edges`` index.  Scores are the
    head-averaged attention distributions, detached: one float64 per
    edge, aligned with ``geom.col_idx``.
    """
    xq = nm.gather_rows(h, geom.query_rows)
    scale = 1.0 / math.sqrt(cfg.d_head)
    head_sum = None
    score_acc = np.zeros(geom.col_idx.shape[0], dtype=np.float64)
    for hp in lp.heads:
        vv = nm.matmul(h, hp.wv)
        if cfg.normalize_values:
            vv = nm.normalize_rows(vv, lp.vscale)   # to a shared learnable length
        out, sc = nm.edge_attention(
            nm.matmul(xq, hp.wq), nm.matmul(h, hp.wk), vv,
            nm.matmul(lp.edge_emb, hp.we), nm.matmul(lp.edge_emb, hp.wb),
            geom.edges, scale, temperature=tau, clip=cfg.clip)
        head_sum = out if head_sum is None else nm.add(head_sum, out)
        score_acc += sc
    if training and cfg.dropout > 0:
        head_sum = nm.dropout(head_sum, cfg.dropout, dropout_rng)
    return nm.add(xq, head_sum), score_acc / len(lp.heads)


class Network:
    """Input embedding, ``layers`` attention blocks, linear output head."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = derive(seed, TAG_INIT)
        dt = cfg.dtype
        self.w_in = nm.param(_glorot(rng, cfg.in_dim, cfg.width), dt)
        self.b_in = nm.param(np.zeros(cfg.width), dt)
        self.layers = [LayerParams(cfg, rng) for _ in range(cfg.layers)]
        self.w_out = nm.param(_glorot(rng, cfg.width, cfg.out_dim), dt)
        self.b_out = nm.param(np.zeros(cfg.out_dim), dt)

    # -- parameter bookkeeping ------------------------------------------------

    def named_parameters(self):
        out = [("w_in", self.w_in), ("b_in", self.b_in)]
        for i, lp in enumerate(self.layers):
            for j, hp in enumerate(lp.heads):
                for wn in ("wq", "wk", "wv", "we", "wb"):
                    out.append((f"layer{i}.head{j}.{wn}", getattr(hp, wn)))
            for pn in ("edge_emb", "w1", "b1", "w2", "b2", "vscale",
                       "n1_gamma", "n1_beta", "n2_gamma", "n2_beta"):
                out.append((f"layer{i}.{pn}", getattr(lp, pn)))
        out.append(("w_out", self.w_out))
        out.append(("b_out", self.b_out))
        return out

    def named_buffers(self):
        out = []
        for i, lp in enumerate(self.layers):
            for bn in ("n1_mean", "n1_var", "n2_mean", "n2_var"):
                out.append((f"layer{i}.{bn}", getattr(lp, bn)))
        return out

    def state_dict(self) -> dict:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict) -> None:
        for name, p in self.named_parameters():
            if name not in state:
                raise ShapeError(f"checkpoint missing parameter {name!r}")
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ShapeError(f"{name}: checkpoint shape {arr.shape} != {p.data.shape}")
            p.data[...] = arr      # in place: the data may be a view of an optimizer's arena
        for name, b in self.named_buffers():
            if name in state:
                b[...] = np.asarray(state[name], dtype=b.dtype)

    # -- forward --------------------------------------------------------------

    def _norm(self, t, lp: LayerParams, which: int, training: bool, stats_rows):
        if which == 1:
            gamma, beta, mean, var = lp.n1_gamma, lp.n1_beta, lp.n1_mean, lp.n1_var
        else:
            gamma, beta, mean, var = lp.n2_gamma, lp.n2_beta, lp.n2_mean, lp.n2_var
        if self.cfg.norm == "layer":
            return nm.layer_norm(t, gamma, beta)
        return nm.batch_norm(t, gamma, beta, mean, var, training=training,
                             stats_rows=stats_rows)

    def _block(self, h, geom: LayerGeometry, lp: LayerParams, tau, training, rng):
        cfg = self.cfg
        attn, scores = attention_sublayer(h, geom, lp, cfg, tau, training, rng)
        a = self._norm(attn, lp, 1, training, geom.stats_rows)
        h1 = nm.relu(nm.add(nm.matmul(a, lp.w1), lp.b1))
        if training and cfg.dropout > 0:
            h1 = nm.dropout(h1, cfg.dropout, rng)
        f = nm.add(a, nm.add(nm.matmul(h1, lp.w2), lp.b2))
        return self._norm(f, lp, 2, training, geom.stats_rows), scores

    def _block_in_slices(self, h, geom: LayerGeometry, lp: LayerParams, tau,
                         max_rows: int):
        """Evaluation ``_block`` over at most ``max_rows`` queries at a time,
        each slice reading only the rows of ``h`` its queries and edges name."""
        outs, scores = [], []
        local = np.empty(h.shape[0], dtype=np.intp)     # row of h -> row of its slice
        for a in range(0, geom.num_queries, max_rows):
            b = min(a + max_rows, geom.num_queries)
            lo, hi = geom.row_ptr[a], geom.row_ptr[b]
            q, cols = geom.query_rows[a:b], geom.col_idx[lo:hi]
            rows = sorted_union(q, cols)
            local[rows] = np.arange(rows.size)
            part = LayerGeometry(query_rows=local[q], row_ptr=geom.row_ptr[a:b + 1] - lo,
                                 col_idx=local[cols], edge_type=geom.edge_type[lo:hi])
            out, sc = self._block(nm.Tensor(h.data[rows]), part, lp, tau, False, None)
            outs.append(out.data)
            scores.append(sc)
        return nm.Tensor(np.concatenate(outs)), np.concatenate(scores)

    def forward(self, x_rows: np.ndarray, geoms, tau: float = 1.0,
                training: bool = False, dropout_rng=None, max_rows: int | None = None):
        """Run the network over feature rows under per-layer geometries.

        Layer ``i``'s output rows are its geometry's query rows, which
        must be the row coordinates layer ``i+1`` indexes into; the last
        layer's queries are the rows the logits describe.  Returns
        (logits Tensor, list of per-layer scores), each layer's scores
        aligned with its geometry's ``col_idx``.

        ``max_rows`` (evaluation under ``nm.no_grad`` only) runs each layer
        in CSR row slices of at most that many queries, so a step's edge
        arrays and key rows scale with ``max_rows``, not with the layer;
        between layers one hidden row per query is held either way.
        Evaluation rows are independent (batch norm reads its running
        buffers, in the network's dtype), so slicing changes only BLAS
        blocking: round-off in the network's dtype.
        """
        if len(geoms) != self.cfg.layers:
            raise ShapeError(f"{len(geoms)} geometries for {self.cfg.layers} layers")
        if x_rows.shape[1] != self.cfg.in_dim:
            raise ShapeError(f"features have width {x_rows.shape[1]}, expected {self.cfg.in_dim}")
        if training and self.cfg.dropout > 0 and dropout_rng is None:
            raise ContractError("training with dropout needs an rng")
        if max_rows is not None:
            if max_rows < 1:
                raise ContractError(f"max_rows must be positive, got {max_rows}")
            if training or nm.grad_enabled():
                raise ContractError("max_rows slices evaluation forwards only: "
                                    "training=False under nm.no_grad()")
        x = nm.Tensor(np.asarray(x_rows, dtype=self.cfg.dtype))
        h = nm.add(nm.matmul(x, self.w_in), self.b_in)
        all_scores = []
        for geom, lp in zip(geoms, self.layers):
            if max_rows is None:
                h, scores = self._block(h, geom, lp, tau, training, dropout_rng)
            else:
                h, scores = self._block_in_slices(h, geom, lp, tau, max_rows)
            all_scores.append(scores)
        logits = nm.add(nm.matmul(h, self.w_out), self.b_out)
        return logits, all_scores
