"""Two-phase training: narrow score estimator, then wide sampled network.

Phase one trains a small network over the full augmented pattern with an
annealing softmax temperature and reads its attention distributions back
out as per-layer sampling scores.  Phase two trains the full-width
network on fixed-degree supports drawn from those scores, redrawing the
supports every epoch so no neighbor is permanently hidden (a ``"full"``
budget draws every row of its layer whole).  The phases share one
``TrainConfig``; what differs between them (normalization, dropout,
temperature) is decided here, not by the caller.  Both run the same
loop: train an epoch, score validation, keep the best state.

Runs are deterministic in ``cfg.seed``: initialization, epoch shuffles,
plan sampling draws and dropout masks all derive from it through disjoint
tagged streams (see ``rngutil``).  When a run directory is given, each trainer
leaves behind a run that can be inspected, and a final one predicted from,
without the Python objects:

- ``config.json``: the ``TrainConfig``, the run's ``role`` (estimator or
  final) and ``features_sha256``, the hash of the feature matrix the
  network read (see ``features_sha256``);
- ``history.csv``: one row per epoch;
- ``ckpt/<role>.ckpt``: the best state's parameters and buffers;
- ``scores/scores.npz``: the estimator's scores, or the score set a final
  run sampled by (its law is ``final_law`` of the config and these);
- ``metrics.json``: what the run measured.

This module alone writes (``_write_run``) and reads (``load_final_run``,
``load_run_scores``) that layout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import numerics as nm
from .attention import (ModelConfig, Network, TemperatureSchedule,
                        pattern_geometry, temperature_at)
from .errors import ContractError, DivergenceError, FormatError, ShapeError
from .graphs import (TEST, TRAIN, VAL, AttentionPattern, Graph, atomic_path, has_json_type,
                     write_json)
from .rngutil import TAG_DROPOUT, TAG_PREDICT, TAG_VAL, derive
from .sampling import (SampleStats, SamplingLaw, load_scores_npz, plan_geometries,
                       resample_epoch, sample_batch, sampling_law, save_scores_npz,
                       uniform_scores, validate_scores)

# each choice a TrainConfig field takes, listed once; the CLI offers these
DTYPES = {"float32": np.float32, "float64": np.float64}
LOSSES = ("auto", "ce", "bce", "multilabel")
METRICS = ("accuracy", "auc")
ESTIMATOR_ABLATIONS = ("none", "no-temp", "no-vnorm")
FINAL_ABLATIONS = ("none", "uniform", "max")
# the degs entry that budgets a layer at its longest score row
FULL = "full"
# where a run directory keeps its score set
RUN_SCORES = Path("scores", "scores.npz")


@dataclass
class TrainConfig:
    """Knobs shared by both phases; phase-specific fields note their phase."""

    width: int = 4
    layers: int = 2
    epochs: int = 100
    lr: float = 0.01
    weight_decay: float = 1e-3
    batch_size: int = 64          # final phase; the estimator is full-batch
    degs: tuple = ()              # final phase: per-layer sample degree or FULL
    dropout: float = 0.0          # final phase; the estimator never drops
    lam: int = 5                  # estimator temperature hold
    gamma: float = 0.99           # estimator temperature decay
    seed: int = 0
    loss: str = "auto"
    metric: str = "accuracy"
    ablation: str = "none"
    prefilter: bool = True        # final phase: top-k' score truncation
    tail_eps: float = 0.05
    warmup: int = 0
    clip: float = 8.0
    eval_samples: int = 1         # sampled patterns averaged at test time
    dtype: str = "float32"

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ContractError(f"unknown loss {self.loss!r}")
        if self.metric not in METRICS:
            raise ContractError(f"unknown metric {self.metric!r}")
        if self.ablation not in ESTIMATOR_ABLATIONS + FINAL_ABLATIONS:
            raise ContractError(f"unknown ablation {self.ablation!r}")
        if self.dtype not in DTYPES:
            raise ContractError(f"unknown dtype {self.dtype!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.tail_eps < 1.0:
            raise ContractError(f"tail_eps must be in [0, 1), got {self.tail_eps}")
        if self.epochs < 0:
            raise ContractError("epochs must be nonnegative")
        if self.eval_samples < 1:
            raise ContractError("eval_samples must be positive")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be positive, got {self.batch_size}")
        # a name stays as given, for final_law to judge; a number is a degree
        self.degs = tuple(d if isinstance(d, str) else int(d) for d in self.degs)

    @property
    def np_dtype(self):
        return DTYPES[self.dtype]


def config_to_dict(cfg: TrainConfig) -> dict:
    d = asdict(cfg)
    d["degs"] = list(cfg.degs)
    return d


def config_from_dict(d: dict) -> TrainConfig:
    """The config ``config_to_dict`` wrote; FormatError naming a bad field.

    Each field must have its default's type (``graphs.has_json_type``), and
    ``degs`` be a list of integers and strings (``final_law`` judges their
    values).
    """
    unknown = sorted(set(d) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise FormatError(f"unknown config field {unknown[0]!r}")
    degs = d.get("degs", [])
    if not isinstance(degs, (list, tuple)) or not all(
            isinstance(v, (int, str)) and not isinstance(v, bool) for v in degs):
        raise FormatError("config field 'degs' must be a list of integers and "
                          f"strings, got {degs!r}")
    for f in fields(TrainConfig):
        if f.name == "degs" or f.name not in d:
            continue
        value, kind = d[f.name], type(f.default)
        if not has_json_type(value, kind):
            raise FormatError(f"config field {f.name!r} must be {kind.__name__}, "
                              f"got {value!r}")
    return TrainConfig(**{**d, "degs": tuple(degs)})


# ---------------------------------------------------------------------------
# Task resolution: what loss, and how wide the head must be


def resolve_task(labels: np.ndarray, loss: str):
    """(loss name, output dim) for a label array.

    2-d labels mean one sigmoid per column; 1-d integer labels mean
    classification, binary collapsing to a single logit unless the caller
    pins ``loss="ce"``.
    """
    labels = np.asarray(labels)
    if labels.ndim == 2:
        if loss not in ("auto", "multilabel"):
            raise ContractError(f"2-d labels need multilabel loss, not {loss!r}")
        return "multilabel", int(labels.shape[1])
    if labels.ndim != 1:
        raise ContractError(f"labels must be 1-d or 2-d, got {labels.ndim}-d")
    if loss == "multilabel":
        raise ContractError("multilabel loss needs 2-d labels")
    if labels.min() < 0:
        raise ContractError("class labels must be nonnegative")
    classes = int(labels.max()) + 1
    if loss == "bce" and classes > 2:
        raise ContractError(f"bce cannot fit {classes} classes")
    if loss == "auto":
        loss = "bce" if classes <= 2 else "ce"
    return (loss, 1) if loss == "bce" else ("ce", max(classes, 2))


def _loss_tensor(loss_name: str, logits, labels):
    if loss_name == "ce":
        return nm.softmax_cross_entropy(logits, labels)
    if loss_name == "bce":
        flat = nm.reshape(logits, (int(logits.shape[0]),))
        return nm.bce_with_logits(flat, np.asarray(labels, dtype=np.float64))
    return nm.bce_with_logits(logits, np.asarray(labels, dtype=np.float64))


def _probs_from_logits(loss_name: str, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if loss_name == "ce":
        zs = z - z.max(axis=1, keepdims=True)
        e = np.exp(zs)
        return e / e.sum(axis=1, keepdims=True)
    with np.errstate(over="ignore"):            # exp(-z) = inf gives p = 0 exactly
        p = 1.0 / (1.0 + np.exp(-z))
    return p.reshape(-1) if loss_name == "bce" else p


def predicted_labels(loss_name: str, probs: np.ndarray) -> np.ndarray:
    if loss_name == "ce":
        return probs.argmax(axis=1)
    return (probs > 0.5).astype(np.int64)


def metric_value(loss_name: str, metric: str, probs: np.ndarray,
                 labels: np.ndarray) -> float:
    """Metric on probabilities (safe for sample-averaged predictions too)."""
    labels = np.asarray(labels)
    if metric == "accuracy":
        return float((predicted_labels(loss_name, probs) == labels).mean())
    if loss_name == "bce":
        return nm.roc_auc(probs, labels)
    if loss_name == "multilabel":
        return float(np.mean([nm.roc_auc(probs[:, c], labels[:, c])
                              for c in range(probs.shape[1])]))
    if probs.shape[1] != 2:
        raise ContractError("auc needs binary or multilabel targets")
    return nm.roc_auc(probs[:, 1], labels)


# ---------------------------------------------------------------------------
# What both phases share: the network, the update and the training loop


def build_network(graph: Graph, cfg: TrainConfig, role: str):
    """(untrained network, loss name) for the ``role`` phase of ``cfg``.

    The estimator uses layer norm, length-normalized values (raw ones
    under the no-vnorm ablation) and no dropout; the final network uses
    batch norm, raw values and ``cfg.dropout``.  ``sparsegt predict``
    rebuilds a finished run's network here before loading its checkpoint.
    """
    if role not in ("estimator", "final"):
        raise ContractError(f"role must be estimator or final, got {role!r}")
    loss_name, out_dim = resolve_task(graph.labels, cfg.loss)
    estimator = role == "estimator"
    mcfg = ModelConfig(in_dim=graph.features.shape[1], width=cfg.width,
                       layers=cfg.layers, out_dim=out_dim,
                       norm="layer" if estimator else "batch",
                       normalize_values=estimator and cfg.ablation != "no-vnorm",
                       clip=cfg.clip, dropout=0.0 if estimator else cfg.dropout,
                       dtype=cfg.np_dtype)
    return Network(mcfg, seed=cfg.seed), loss_name


def _split_indices(graph: Graph):
    train_idx = graph.split_idx(TRAIN)
    if train_idx.size == 0:
        raise ContractError("no training nodes in the split")
    return train_idx, graph.split_idx(VAL), graph.split_idx(TEST)


def _step(opt, loss, epoch: int) -> float:
    """One update on ``loss``; returns the loss value.

    A non-finite loss or update raises DivergenceError naming ``epoch``.
    """
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise DivergenceError(f"non-finite loss at epoch {epoch}", epoch=epoch)
    opt.zero_grad()
    nm.backward(loss)
    try:
        opt.step(epoch)
    except DivergenceError as exc:
        raise DivergenceError(f"epoch {epoch}: {exc}", epoch=epoch) from None
    return loss_val


def _copy_state(net: Network, into: dict) -> None:
    """Copy ``net``'s parameters and buffers into ``into``, a ``state_dict()``.

    In place: the estimator validates, and so snapshots, while its forward
    tape is alive, and fresh copies allocated then fragment the heap; on
    the hub-4000 benchmark workload that slowed every later predict call
    (figures in CHANGES.md).
    """
    for name, p in net.named_parameters():
        into[name][...] = p.data
    for name, b in net.named_buffers():
        into[name][...] = b


def _fit(net: Network, cfg: TrainConfig, loss_name: str, val_labels, run_epoch,
         validate_last=None):
    """Train ``net`` for ``cfg.epochs`` and leave it in its best state.

    ``run_epoch(opt, epoch, validate)`` trains one epoch and returns (loss,
    tau).  It calls ``validate(val_probs)`` once, while the network holds
    the weights those probabilities came from, so the state kept for the
    best epoch is the state its metric measured.  A ``run_epoch`` that
    validates before its update passes ``validate_last(tau)``: the
    validation probabilities of the weights the last update left, at the
    last epoch's tau; if they win, the best epoch reads ``cfg.epochs + 1``.
    Without validation nodes the last epoch's final state wins.  Returns
    (history, best epoch, best validation metric, its tau); the metric
    stays -inf if no epoch ran.
    """
    history, measured = [], []
    best_val, best_epoch, best_tau = -np.inf, 0, 1.0
    best_state = net.state_dict()

    def validate(val_probs):
        val_m = (metric_value(loss_name, cfg.metric, val_probs, val_labels)
                 if len(val_labels) else float("nan"))
        measured.append(val_m)
        if val_m > best_val:
            _copy_state(net, best_state)

    if cfg.epochs > 0:
        sched = nm.CosineSchedule(cfg.lr, cfg.epochs, warmup=cfg.warmup)
        opt = nm.AdamW(net.named_parameters(), sched, weight_decay=cfg.weight_decay)
        for epoch in range(1, cfg.epochs + 1):
            loss_val, tau = run_epoch(opt, epoch, validate)
            (val_m,) = measured
            measured.clear()
            history.append((epoch, loss_val, val_m, tau))
            if not len(val_labels):
                _copy_state(net, best_state)
            if val_m > best_val or not len(val_labels):
                best_val, best_epoch, best_tau = val_m, epoch, tau
        if validate_last is not None and len(val_labels):
            validate(validate_last(tau))
            (val_m,) = measured
            if val_m > best_val:
                best_val, best_epoch, best_tau = val_m, cfg.epochs + 1, tau
    net.load_state_dict(best_state)
    return history, best_epoch, best_val, best_tau


# ---------------------------------------------------------------------------
# Phase one: the score estimator


@dataclass
class EstimatorResult:
    network: Network
    scores: AttentionPattern
    history: list
    best_epoch: int
    best_val: float
    test_metric: float
    tau_final: float
    loss_name: str


def train_estimator(graph: Graph, pattern: AttentionPattern, cfg: TrainConfig,
                    run_dir=None) -> EstimatorResult:
    """Full-batch training of the narrow estimator over the whole pattern.

    Uses layer norm, length-normalized values, and the annealing
    temperature.  An epoch validates on its training forward, so it scores
    the weights the epoch starts from, and one no-grad forward after the
    last epoch scores the weights its update left (best epoch ``epochs +
    1`` if they win).  The returned network holds the best weights, and
    its scores are its attention rows read out at the temperature they
    were validated at.  Legal ablations: none, no-temp (pin temperature at
    1), no-vnorm (raw value vectors).
    """
    if cfg.ablation not in ESTIMATOR_ABLATIONS:
        raise ContractError(f"estimator ablation must be {'/'.join(ESTIMATOR_ABLATIONS)}, "
                            f"got {cfg.ablation!r}")
    if cfg.layers != pattern.num_layers:
        raise ContractError(f"config says {cfg.layers} layers, "
                            f"pattern has {pattern.num_layers}")
    if pattern.n != graph.n:
        raise ShapeError(f"pattern on {pattern.n} nodes, graph on {graph.n}")
    net, loss_name = build_network(graph, cfg, "estimator")
    train_idx, val_idx, test_idx = _split_indices(graph)
    labels = np.asarray(graph.labels)
    x = np.asarray(graph.features, dtype=cfg.np_dtype)
    geoms = [pattern_geometry(layer) for layer in pattern.layers]
    tsched = TemperatureSchedule(lam=cfg.lam, gamma=cfg.gamma)

    def run_epoch(opt, epoch, validate):
        tau = 1.0 if cfg.ablation == "no-temp" else temperature_at(tsched, epoch)
        logits, _ = net.forward(x, geoms, tau=tau, training=True)
        # layer norm and zero dropout make this forward valid for eval too:
        # it validates the weights before this epoch's update
        validate(_probs_from_logits(loss_name, logits.data[val_idx]))
        loss = _loss_tensor(loss_name, nm.gather_rows(logits, train_idx),
                            labels[train_idx])
        return _step(opt, loss, epoch), tau

    def validate_last(tau):
        with nm.no_grad():
            logits, _ = net.forward(x, geoms, tau=tau, training=False)
        return _probs_from_logits(loss_name, logits.data[val_idx])

    history, best_epoch, best_val, best_tau = _fit(net, cfg, loss_name, labels[val_idx],
                                                   run_epoch, validate_last)

    with nm.no_grad():
        logits, layer_scores = net.forward(x, geoms, tau=best_tau, training=False)
    scores = replace(pattern, layers=tuple(
        replace(layer, values=sc) for layer, sc in zip(pattern.layers, layer_scores)))
    validate_scores(scores)
    test_m = float("nan")
    if test_idx.size:
        test_probs = _probs_from_logits(loss_name, logits.data[test_idx])
        test_m = metric_value(loss_name, cfg.metric, test_probs, labels[test_idx])
    if best_val == -np.inf and val_idx.size:
        val_probs = _probs_from_logits(loss_name, logits.data[val_idx])
        best_val = metric_value(loss_name, cfg.metric, val_probs, labels[val_idx])
    result = EstimatorResult(network=net, scores=scores, history=history,
                             best_epoch=best_epoch, best_val=float(best_val),
                             test_metric=test_m, tau_final=best_tau,
                             loss_name=loss_name)
    if run_dir is not None:
        _write_run(run_dir, cfg, "estimator", net, history,
                   {"best_epoch": best_epoch, "best_val": float(best_val),
                    "test_metric": test_m, "tau_final": best_tau,
                    "loss": loss_name}, x, scores)
    return result


# ---------------------------------------------------------------------------
# Phase two: the wide network on sampled supports


@dataclass
class FinalResult:
    network: Network
    history: list
    best_epoch: int
    best_val: float
    test_metric: float
    edge_pct: float
    loss_name: str
    sample_stats: SampleStats


def train_final(graph: Graph, scores: AttentionPattern, cfg: TrainConfig,
                run_dir=None) -> FinalResult:
    """Minibatch training of the wide network on score-sampled supports.

    Batch norm, raw values, temperature 1.  Supports are redrawn each
    epoch; the reported test metric averages ``cfg.eval_samples`` fresh
    patterns at the best validation state.  Every draw of a run, training
    plans included, reads one law, and ``final_law`` alone judges the
    run's budgets and ablation.  A run directory holds ``scores`` too, so
    the run predicts by its own law (``load_final_run``).
    """
    if cfg.layers != scores.num_layers:
        raise ContractError(f"config says {cfg.layers} layers, "
                            f"scores have {scores.num_layers}")
    if scores.n != graph.n:
        raise ShapeError(f"scores on {scores.n} nodes, graph on {graph.n}")
    law, degs = final_law(cfg, scores)
    net, loss_name = build_network(graph, cfg, "final")
    train_idx, val_idx, test_idx = _split_indices(graph)
    labels = np.asarray(graph.labels)
    x = np.asarray(graph.features, dtype=cfg.np_dtype)
    stats = SampleStats()

    def evaluate(nodes, epoch):
        return _eval_sampled(net, x, law, degs, nodes, cfg.seed, epoch, TAG_VAL, loss_name)

    def run_epoch(opt, epoch, validate):
        plans = resample_epoch(law, degs, train_idx, cfg.batch_size, cfg.seed, epoch,
                               stats=stats)
        total_loss, total_rows = 0.0, 0
        for bi, plan in enumerate(plans):
            rng = derive(cfg.seed, TAG_DROPOUT, epoch, bi) if cfg.dropout > 0 else None
            logits, _ = net.forward(x[plan.input_nodes], plan_geometries(plan),
                                    tau=1.0, training=True, dropout_rng=rng)
            loss = _loss_tensor(loss_name, logits, labels[plan.seeds])
            total_loss += _step(opt, loss, epoch) * plan.seeds.size
            total_rows += plan.seeds.size
        validate(evaluate(val_idx, epoch))
        return total_loss / total_rows, 1.0

    history, best_epoch, best_val, _ = _fit(net, cfg, loss_name, labels[val_idx],
                                            run_epoch)

    test_m = float("nan")
    if test_idx.size:
        test_probs, _ = predict_by_law(net, x, law, degs, test_idx, seed=cfg.seed,
                                       n_samples=cfg.eval_samples, loss_name=loss_name)
        test_m = metric_value(loss_name, cfg.metric, test_probs, labels[test_idx])
    if best_val == -np.inf and val_idx.size:
        best_val = metric_value(loss_name, cfg.metric, evaluate(val_idx, 1),
                                labels[val_idx])
    pct = edge_percent(scores, degs)
    result = FinalResult(network=net, history=history, best_epoch=best_epoch,
                         best_val=float(best_val), test_metric=test_m,
                         edge_pct=pct, loss_name=loss_name, sample_stats=stats)
    if run_dir is not None:
        _write_run(run_dir, cfg, "final", net, history,
                   {"best_epoch": best_epoch, "best_val": float(best_val),
                    "test_metric": test_m, "edge_pct": pct, "loss": loss_name,
                    "rows_sampled": stats.rows_sampled,
                    "uniform_fallbacks": stats.uniform_fallbacks,
                    "prefilter_truncated": stats.prefilter_truncated,
                    "prefilter_kept_full": stats.prefilter_kept_full,
                    "sampling_law": law.summary()}, x, scores)
    return result


def final_law(cfg: TrainConfig, scores: AttentionPattern) -> tuple:
    """(law, per-layer budgets) that every draw of a final run with ``cfg`` uses.

    The one reader of a final run's budgets and ablation, for training and
    for ``load_final_run`` alike.  ContractError for an ablation other than
    none, uniform (ignore the scores) or max (top-deg selection instead of
    sampling), for a budget count other than the score layers', and for a
    budget that is neither a positive integer nor ``FULL``.  Then validates
    ``scores`` and resolves each ``FULL`` budget to its layer's longest
    score row, so every row of that layer is taken whole; at ``FULL`` on
    every layer a draw computes the full-pattern forward, the sampled
    runs' upper reference.  The uniform ablation samples uniform rows over
    the same support, the max ablation selects the top-deg scores, and
    otherwise the prefilter keeps the top 4*max(budgets) scores of each
    row, which at full degree truncates nothing.  A run's training plans,
    validation, test metric and edge budget read this law.
    """
    if cfg.ablation not in FINAL_ABLATIONS:
        raise ContractError(f"final ablation must be {'/'.join(FINAL_ABLATIONS)}, "
                            f"got {cfg.ablation!r}")
    if len(cfg.degs) != scores.num_layers:
        raise ContractError(f"need {scores.num_layers} degree budgets, "
                            f"got {len(cfg.degs)}")
    for d in cfg.degs:
        if isinstance(d, str) and d != FULL:
            raise ContractError(f"unknown degree budget {d!r}: give a positive "
                                f"integer or {FULL!r}")
        if isinstance(d, int) and d < 1:
            raise ContractError(f"degree budgets must be positive, got {d}")
    # the law holds only the scores it samples by, and under the uniform
    # ablation those are not the given ones: check these here
    validate_scores(scores)
    degs = tuple(int(np.diff(sl.row_ptr).max()) if d == FULL else d
                 for d, sl in zip(cfg.degs, scores.layers))
    eff_scores = uniform_scores(scores) if cfg.ablation == "uniform" else scores
    mode = "top" if cfg.ablation == "max" else "sample"
    k_prime = None
    if cfg.prefilter and mode == "sample" and cfg.ablation != "uniform":
        k_prime = 4 * max(degs)
    return sampling_law(eff_scores, mode, k_prime, cfg.tail_eps), degs


def _eval_sampled(net, x, law, degs, nodes, seed, epoch, tag, loss_name) -> np.ndarray:
    """Eval-mode probabilities for ``nodes`` under one sampled pattern.

    One plan is drawn over the distinct nodes, sorted, on stream ``tag``
    at epoch key ``epoch`` with batch_index 0, and one forward runs each
    layer of it whole, so each reached row is drawn once and computed
    once per layer; repeated nodes share their row.  A row's draw is
    keyed by (seed, tag, epoch, layer, node) alone, so it is the one a
    separate plan per chunk would draw, and chunked evaluation agrees
    with this one to round-off.
    """
    if not nodes.size:
        return _probs_from_logits(loss_name, np.empty((0, net.cfg.out_dim)))
    distinct, at = np.unique(nodes, return_inverse=True)
    plan = sample_batch(distinct, law, degs, seed, epoch, batch_index=0, tag=tag)
    with nm.no_grad():
        logits, _ = net.forward(x[plan.input_nodes], plan_geometries(plan), tau=1.0,
                                training=False)
    return _probs_from_logits(loss_name, logits.data[at])


def predict(net: Network, features: np.ndarray, scores: AttentionPattern, degs,
            nodes, seed: int = 0, n_samples: int = 1, batch_size: int = 256,
            mode: str = "sample", k_prime: int | None = None,
            tail_eps: float = 0.05, loss_name: str = "ce"):
    """Average class probabilities over freshly sampled patterns.

    ``scores`` must pass ``validate_scores``; ``mode``, ``k_prime`` and
    ``tail_eps`` name the law drawn by (see ``sampling_law``), built once
    per call and shared by all ``n_samples`` draws.  The rest is
    ``predict_by_law``.  ``batch_size`` is accepted for older callers and
    ignored: an evaluation runs each layer whole.
    """
    validate_scores(scores)
    return predict_by_law(net, features, sampling_law(scores, mode, k_prime, tail_eps),
                          degs, nodes, seed=seed, n_samples=n_samples,
                          loss_name=loss_name)


def predict_by_law(net: Network, features: np.ndarray, law: SamplingLaw, degs, nodes,
                   seed: int = 0, n_samples: int = 1, loss_name: str = "ce"):
    """Average class probabilities over patterns freshly drawn by ``law``.

    Sample ``s`` uses epoch key ``s`` on the prediction stream, so the
    averaged patterns are disjoint draws yet the whole call is
    reproducible.  Each sample draws every node's rows once, over the
    whole node set, and one forward computes each reached row once per
    layer.  A node outside [0, n) is an IndexError.
    Returns (probabilities, predicted labels); empty ``nodes`` give empty
    arrays of the same layout.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    x = np.asarray(features, dtype=net.cfg.dtype)
    if x.shape[0] != law.n:
        raise ShapeError(f"{x.shape[0]} feature rows for scores on {law.n} nodes")
    probs = sum(_eval_sampled(net, x, law, degs, nodes, seed, s, TAG_PREDICT, loss_name)
                for s in range(1, n_samples + 1)) / n_samples
    return probs, predicted_labels(loss_name, probs)


# ---------------------------------------------------------------------------
# Budget accounting


def edge_percent(scores: AttentionPattern, degs) -> float:
    """Percentage of pattern entries a fixed-degree plan can ever touch.

    Per layer each row contributes min(deg, row length) reachable entries
    out of its full length; the ratio is exact, not an estimate.
    """
    degs = tuple(int(d) for d in degs)
    if len(degs) != scores.num_layers:
        raise ContractError(f"{len(degs)} degree budgets for "
                            f"{scores.num_layers} layers")
    covered = 0
    total = 0
    for deg, layer in zip(degs, scores.layers):
        lengths = np.diff(layer.row_ptr)
        covered += int(np.minimum(lengths, deg).sum())
        total += int(lengths.sum())
    if total == 0:
        raise ContractError("empty pattern")
    return 100.0 * covered / total


# ---------------------------------------------------------------------------
# Run directory layout


def save_history_csv(path, history) -> None:
    with atomic_path(path) as tmp, open(tmp, "w") as fh:
        fh.write("epoch,loss,val_metric,tau\n")
        for epoch, loss, val_m, tau in history:
            fh.write(f"{epoch},{loss:.10g},{val_m:.10g},{tau:.10g}\n")


def features_sha256(features, dtype) -> str:
    """SHA-256 of ``features`` as a network of ``dtype`` reads them: the
    shape, then the C-order bytes in ``dtype``."""
    x = np.ascontiguousarray(features, dtype=dtype)
    h = hashlib.sha256(np.asarray(x.shape, dtype=np.int64).tobytes())
    h.update(x)
    return h.hexdigest()


def _write_run(run_dir, cfg: TrainConfig, role: str, net: Network, history,
               metrics: dict, features: np.ndarray, scores: AttentionPattern) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json",
               {"role": role, "features_sha256": features_sha256(features, cfg.np_dtype),
                **config_to_dict(cfg)})
    save_history_csv(run_dir / "history.csv", history)
    ckpt_dir = run_dir / "ckpt"
    ckpt_dir.mkdir(exist_ok=True)
    nm.save_checkpoint(ckpt_dir / f"{role}.ckpt", net.state_dict())
    (run_dir / RUN_SCORES).parent.mkdir(exist_ok=True)
    save_scores_npz(run_dir / RUN_SCORES, scores)
    write_json(run_dir / "metrics.json", metrics)


@dataclass
class FinalRun:
    """A finished final run read back from its directory: its network and
    the law it predicts by."""

    network: Network
    loss_name: str
    law: SamplingLaw
    degs: tuple
    cfg: TrainConfig


def _checked_run(run_dir: Path, graph: Graph, role: str | None = None) -> TrainConfig:
    """The config of the run ``_write_run`` left in ``run_dir``, once the run
    is known to have read ``graph``'s features.

    FormatError for a ``config.json`` that is not the JSON object written
    there.  ContractError for a run of another ``role`` (any, if None), for
    a run without a features hash or scores (written by an earlier version:
    retrain it), and for ``graph`` features other than the ones the run
    read, hashed in the run's own dtype.
    """
    path = run_dir / "config.json"
    try:        # undecodable bytes, text that is not JSON, JSON that is no object
        stored = dict(json.loads(path.read_text()))
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: not a JSON object ({exc})") from None
    found = stored.pop("role", "final")
    if role is not None and found != role:
        raise ContractError(f"{run_dir} holds a {found} run, not a {role} one")
    recorded = stored.pop("features_sha256", None)
    cfg = config_from_dict(stored)
    if recorded is None or not (run_dir / RUN_SCORES).is_file():
        raise ContractError(f"{run_dir} records no features hash or holds no scores, "
                            "so an earlier version wrote it; retrain it")
    given = features_sha256(graph.features, cfg.np_dtype)
    if given != recorded:
        raise ContractError(f"features mismatch: {run_dir} trained on features with "
                            f"sha256 {recorded}, these have {given}")
    return cfg


def load_final_run(run_dir, graph: Graph) -> FinalRun:
    """The final run ``_write_run`` left in ``run_dir``, to predict on ``graph``.

    Refuses what ``_checked_run`` refuses, an estimator run included, and
    an unreadable score set or checkpoint (FormatError).  The law is
    ``final_law`` of the run's config and its own scores, as in training.
    """
    run_dir = Path(run_dir)
    cfg = _checked_run(run_dir, graph, "final")
    law, degs = final_law(cfg, load_scores_npz(run_dir / RUN_SCORES))
    net, loss_name = build_network(graph, cfg, "final")
    net.load_state_dict(nm.load_checkpoint(run_dir / "ckpt" / "final.ckpt"))
    return FinalRun(network=net, loss_name=loss_name, law=law, degs=degs, cfg=cfg)


def load_run_scores(path, graph: Graph) -> AttentionPattern:
    """The score set a final run on ``graph`` samples by, from ``path``: a
    score file, read as it is, or a run directory (an estimator's, as a
    rule), whose scores are read once ``_checked_run`` accepts the run for
    ``graph``'s features."""
    path = Path(path)
    if path.is_dir():
        _checked_run(path, graph)
        path = path / RUN_SCORES
    return load_scores_npz(path)
