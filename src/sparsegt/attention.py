"""Edge-typed sparse attention networks.

One attention layer computes, for query node i over its pattern row,

    out_i = x_i + V . softmax((E type . K) Q_i / sqrt(width) + b_type)

where E and b are per-edge-type key modulation and logit bias derived
from three learnable type embeddings (graph edge, expander edge,
self-loop).  The bias term is what lets a trained network switch off
long-range expander edges wholesale when a task is local, and keep them
when it is not.

Two network flavors share this code.  The narrow score estimator runs
with layer norm, length-normalized values and an annealing softmax
temperature; the wide final network runs with batch norm, raw values and
temperature 1 over sampled fixed-degree patterns.  Both see their pattern
through a ``LayerGeometry``, so a full CSR pattern and a sampled plan
drive the exact same forward code.  A geometry is a CSR edge list and
each layer's attention is one ``numerics.edge_attention`` tape node over
it, so a layer costs what its edges cost.  The index arrays that node
derives from the list (``numerics.EdgeIndex``) belong to the geometry:
built by its first forward, shared by every later pass over it, and
freed with it.  The estimator's geometries live for the whole run, so its
epochs do that index work once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .graphs import PatternLayer
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
    norm: str = "layer"       # "layer" for the estimator, "batch" for the final net
    normalize_values: bool = True
    clip: float = 8.0
    dropout: float = 0.0
    dtype: type = np.float32

    def __post_init__(self):
        if self.norm not in ("layer", "batch"):
            raise ContractError(f"unknown norm {self.norm!r}")


@dataclass(frozen=True)
class LayerGeometry:
    """Attention support for one layer, in current-row coordinates.

    Query i attends over rows ``col_idx[row_ptr[i]:row_ptr[i + 1]]`` of
    the incoming feature matrix, along edges typed ``edge_type``: a CSR
    edge list.  ``stats_rows`` marks which OUTPUT rows constitute the
    minibatch for batch-norm statistics (None: all).

    ``edges`` is the list's ``numerics.EdgeIndex``, built by the first
    forward: each edge's query row, the row starts, the type-and-row index
    of q * emap and the column and type spans.  It lives and dies with the
    geometry, so a geometry used once builds it once, and the arrays must
    not be changed once it is built.
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


class LayerParams:
    """One attention block's parameters, then its float64 batch-norm running
    buffers, listed by ``Network`` in the order assigned here.  ``vscale``
    exists only with ``cfg.normalize_values``: the forward reads them all."""

    def __init__(self, cfg: ModelConfig, rng):
        d, dff, dt = cfg.width, 2 * cfg.width, cfg.dtype
        self.wq = nm.param(_glorot(rng, d, d), dt)
        self.wk = nm.param(_glorot(rng, d, d), dt)
        self.wv = nm.param(_glorot(rng, d, d), dt)
        self.we = nm.param(_glorot(rng, d, d), dt)
        self.wb = nm.param(_glorot(rng, d, 1), dt)
        self.edge_emb = nm.param(_glorot(rng, 3, d), dt)
        self.w1 = nm.param(_glorot(rng, d, dff), dt)
        self.b1 = nm.param(np.zeros(dff), dt)
        self.w2 = nm.param(_glorot(rng, dff, d), dt)
        self.b2 = nm.param(np.zeros(d), dt)
        if cfg.normalize_values:
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

    The attention is one ``nm.edge_attention`` node over the geometry's
    edge list, reading its ``edges`` index.  Scores are the attention
    distributions, detached: one float64 per edge, aligned with
    ``geom.col_idx``.
    """
    xq = nm.gather_rows(h, geom.query_rows)
    vv = nm.matmul(h, lp.wv)
    if cfg.normalize_values:
        vv = nm.normalize_rows(vv, lp.vscale)   # to a shared learnable length
    out, sc = nm.edge_attention(
        nm.matmul(xq, lp.wq), nm.matmul(h, lp.wk), vv,
        nm.matmul(lp.edge_emb, lp.we), nm.matmul(lp.edge_emb, lp.wb),
        geom.edges, 1.0 / math.sqrt(cfg.width), temperature=tau, clip=cfg.clip)
    if training and cfg.dropout > 0:
        out = nm.dropout(out, cfg.dropout, dropout_rng)
    return nm.add(xq, out), sc.astype(np.float64)


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
        """(name, Tensor) of every parameter, read from the attributes in the
        order ``__init__`` assigns them, a block's as ``layer{i}.<name>``; the
        optimizer's arena lays them out in this order."""
        return [(name, v) for name, v in self._members() if isinstance(v, nm.Tensor)]

    def named_buffers(self):
        """(name, array) of the blocks' batch-norm running buffers, likewise."""
        return [(name, v) for name, v in self._members() if isinstance(v, np.ndarray)]

    def _members(self):
        for name, value in vars(self).items():
            if name == "layers":
                for i, lp in enumerate(value):
                    yield from ((f"layer{i}.{n}", v) for n, v in vars(lp).items())
            else:
                yield name, value

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

    def forward(self, x_rows: np.ndarray, geoms, tau: float = 1.0,
                training: bool = False, dropout_rng=None):
        """Run the network over feature rows under per-layer geometries.

        Layer ``i``'s output rows are its geometry's query rows, which
        must be the row coordinates layer ``i+1`` indexes into; the last
        layer's queries are the rows the logits describe.  Returns
        (logits Tensor, list of per-layer scores), each layer's scores
        aligned with its geometry's ``col_idx``.
        """
        if len(geoms) != self.cfg.layers:
            raise ShapeError(f"{len(geoms)} geometries for {self.cfg.layers} layers")
        if x_rows.shape[1] != self.cfg.in_dim:
            raise ShapeError(f"features have width {x_rows.shape[1]}, expected {self.cfg.in_dim}")
        if training and self.cfg.dropout > 0 and dropout_rng is None:
            raise ContractError("training with dropout needs an rng")
        x = nm.Tensor(np.asarray(x_rows, dtype=self.cfg.dtype))
        h = nm.add(nm.matmul(x, self.w_in), self.b_in)
        all_scores = []
        for geom, lp in zip(geoms, self.layers):
            h, scores = self._block(h, geom, lp, tau, training, dropout_rng)
            all_scores.append(scores)
        logits = nm.add(nm.matmul(h, self.w_out), self.b_out)
        return logits, all_scores
