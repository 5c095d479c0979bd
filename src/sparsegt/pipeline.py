"""Two-phase training: narrow score estimator, then wide sampled network.

Phase one trains a small network over the full augmented pattern with an
annealing softmax temperature and reads its attention distributions back
out as per-layer sampling scores.  Phase two trains the full-width
network on fixed-degree supports drawn from those scores, redrawing the
supports every epoch so no neighbor is permanently hidden.  The phases
share one ``TrainConfig``; what differs between them (normalization
flavor, value normalization, dropout, temperature) is decided here, not by
the caller.  Both run the same loop: train an epoch, score validation,
keep the best state.

Runs are deterministic in ``cfg.seed``: initialization, epoch shuffles,
plan sampling draws and dropout masks all derive from it through disjoint
tagged streams (see ``rngutil``).  When a run directory is given, each trainer
leaves behind config.json, history.csv, a checkpoint and metrics.json
so a finished run can be inspected without the Python objects.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import numerics as nm
from .attention import (ModelConfig, Network, TemperatureSchedule,
                        pattern_geometry, temperature_at)
from .errors import ContractError, DivergenceError, ShapeError
from .graphs import TEST, TRAIN, VAL, AttentionPattern, Graph, atomic_path, write_json
from .rngutil import TAG_DROPOUT, TAG_PREDICT, TAG_VAL, derive
from .sampling import (SampleStats, SamplingLaw, plan_geometries, resample_epoch,
                       sample_batch, sampling_law, save_scores_npz, uniform_scores,
                       validate_scores)

_DTYPES = {"float32": np.float32, "float64": np.float64}
_LOSSES = ("auto", "ce", "bce", "multilabel")
_METRICS = ("accuracy", "auc")
_ABLATIONS = ("none", "uniform", "max", "no-temp", "no-vnorm")


@dataclass
class TrainConfig:
    """Knobs shared by both phases; phase-specific fields note their phase."""

    width: int = 4
    layers: int = 2
    heads: int = 1
    epochs: int = 100
    lr: float = 0.01
    weight_decay: float = 1e-3
    batch_size: int = 64          # final phase; the estimator is full-batch
    degs: tuple = ()              # final phase: per-layer sample degree
    dropout: float = 0.0          # final phase; the estimator never drops
    lam: int = 5                  # estimator temperature hold
    gamma: float = 0.99           # estimator temperature decay
    seed: int = 0
    loss: str = "auto"
    metric: str = "accuracy"
    ablation: str = "none"
    full_graph: bool = False      # final phase: train on the whole pattern
    prefilter: bool = True        # final phase: top-k' score truncation
    tail_eps: float = 0.05
    warmup: int = 0
    clip: float = 8.0
    eval_samples: int = 1         # sampled patterns averaged at test time
    dtype: str = "float32"

    def __post_init__(self):
        if self.loss not in _LOSSES:
            raise ContractError(f"unknown loss {self.loss!r}")
        if self.metric not in _METRICS:
            raise ContractError(f"unknown metric {self.metric!r}")
        if self.ablation not in _ABLATIONS:
            raise ContractError(f"unknown ablation {self.ablation!r}")
        if self.dtype not in _DTYPES:
            raise ContractError(f"unknown dtype {self.dtype!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ContractError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 0:
            raise ContractError("epochs must be nonnegative")
        if self.eval_samples < 1:
            raise ContractError("eval_samples must be positive")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be positive, got {self.batch_size}")
        self.degs = tuple(int(d) for d in self.degs)

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def config_to_dict(cfg: TrainConfig) -> dict:
    d = asdict(cfg)
    d["degs"] = list(cfg.degs)
    return d


def config_from_dict(d: dict) -> TrainConfig:
    return TrainConfig(**{k: tuple(v) if k == "degs" else v for k, v in d.items()})


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
                       layers=cfg.layers, out_dim=out_dim, heads=cfg.heads,
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


def _fit(net: Network, cfg: TrainConfig, loss_name: str, val_labels, run_epoch):
    """Train ``net`` for ``cfg.epochs`` and leave it in its best state.

    ``run_epoch(opt, epoch)`` trains one epoch and returns (loss,
    validation probabilities, tau).  Returns (history, best epoch, best
    validation metric, its tau); the metric stays -inf if no epoch ran.
    """
    history = []
    best_val, best_epoch, best_tau = -np.inf, 0, 1.0
    best_state = net.state_dict()
    if cfg.epochs > 0:
        sched = nm.CosineSchedule(cfg.lr, cfg.epochs, warmup=cfg.warmup)
        opt = nm.AdamW(net.named_parameters(), sched, weight_decay=cfg.weight_decay)
        for epoch in range(1, cfg.epochs + 1):
            loss_val, val_probs, tau = run_epoch(opt, epoch)
            val_m = (metric_value(loss_name, cfg.metric, val_probs, val_labels)
                     if len(val_labels) else float("nan"))
            history.append((epoch, loss_val, val_m, tau))
            # without validation nodes the last epoch wins
            if val_m > best_val or not len(val_labels):
                best_val, best_epoch, best_tau = val_m, epoch, tau
                best_state = net.state_dict()
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
    temperature; the returned scores are the attention rows of the best
    validation state, read out at that state's temperature.  Legal
    ablations: none, no-temp (pin temperature at 1), no-vnorm (raw
    value vectors).
    """
    if cfg.ablation not in ("none", "no-temp", "no-vnorm"):
        raise ContractError(f"estimator ablation must be none/no-temp/no-vnorm, "
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

    def run_epoch(opt, epoch):
        tau = 1.0 if cfg.ablation == "no-temp" else temperature_at(tsched, epoch)
        logits, _ = net.forward(x, geoms, tau=tau, training=True)
        loss = _loss_tensor(loss_name, nm.gather_rows(logits, train_idx),
                            labels[train_idx])
        loss_val = _step(opt, loss, epoch)
        # layer norm and zero dropout make this forward valid for eval too
        return loss_val, _probs_from_logits(loss_name, logits.data[val_idx]), tau

    history, best_epoch, best_val, best_tau = _fit(net, cfg, loss_name,
                                                   labels[val_idx], run_epoch)

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
                    "loss": loss_name}, scores=scores)
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
    patterns at the best validation state.  ``cfg.full_graph`` trains on
    the whole pattern instead (the sampling ablation's upper reference),
    still taking batch statistics over the training rows so the two modes
    are comparable.  Validation, the test metric, the edge budget and
    metrics.json's ``sampling_law`` read one law for every run (see
    ``final_law``); a full-graph run's law takes every row whole, so it
    computes the full-pattern forward at a 100% budget.  Legal ablations:
    none, uniform (ignore the scores), max (top-deg selection instead of
    sampling).
    """
    if cfg.ablation not in ("none", "uniform", "max"):
        raise ContractError(f"final ablation must be none/uniform/max, "
                            f"got {cfg.ablation!r}")
    if cfg.layers != scores.num_layers:
        raise ContractError(f"config says {cfg.layers} layers, "
                            f"scores have {scores.num_layers}")
    if scores.n != graph.n:
        raise ShapeError(f"scores on {scores.n} nodes, graph on {graph.n}")
    if (cfg.degs or not cfg.full_graph) and len(cfg.degs) != scores.num_layers:
        raise ContractError(f"need {scores.num_layers} degree budgets, "
                            f"got {len(cfg.degs)}")
    law, degs = final_law(cfg, scores)
    net, loss_name = build_network(graph, cfg, "final")
    train_idx, val_idx, test_idx = _split_indices(graph)
    labels = np.asarray(graph.labels)
    x = np.asarray(graph.features, dtype=cfg.np_dtype)
    stats = SampleStats()

    def evaluate(nodes, epoch):
        return _eval_sampled(net, x, law, degs, nodes, cfg.seed, epoch, TAG_VAL,
                             cfg.batch_size, loss_name)

    if cfg.full_graph:
        geoms = [pattern_geometry(sl, stats_rows=train_idx) for sl in scores.layers]

        def run_epoch(opt, epoch):
            rng = derive(cfg.seed, TAG_DROPOUT, epoch) if cfg.dropout > 0 else None
            logits, _ = net.forward(x, geoms, tau=1.0, training=True, dropout_rng=rng)
            loss = _loss_tensor(loss_name, nm.gather_rows(logits, train_idx),
                                labels[train_idx])
            loss_val = _step(opt, loss, epoch)
            return loss_val, evaluate(val_idx, epoch), 1.0
    else:
        def run_epoch(opt, epoch):
            plans = resample_epoch(law, degs, train_idx, cfg.batch_size,
                                   cfg.seed, epoch, stats=stats)
            total_loss, total_rows = 0.0, 0
            for bi, plan in enumerate(plans):
                rng = (derive(cfg.seed, TAG_DROPOUT, epoch, bi)
                       if cfg.dropout > 0 else None)
                logits, _ = net.forward(x[plan.input_nodes], plan_geometries(plan),
                                        tau=1.0, training=True, dropout_rng=rng)
                loss = _loss_tensor(loss_name, logits, labels[plan.seeds])
                total_loss += _step(opt, loss, epoch) * plan.seeds.size
                total_rows += plan.seeds.size
            return total_loss / total_rows, evaluate(val_idx, epoch), 1.0

    history, best_epoch, best_val, _ = _fit(net, cfg, loss_name, labels[val_idx],
                                            run_epoch)

    test_m = float("nan")
    if test_idx.size:
        test_probs, _ = predict_by_law(net, x, law, degs, test_idx, seed=cfg.seed,
                                       n_samples=cfg.eval_samples,
                                       batch_size=cfg.batch_size, loss_name=loss_name)
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
                    "sampling_law": law.summary()})
    return result


def final_law(cfg: TrainConfig, scores: AttentionPattern) -> tuple:
    """(law, per-layer budgets) that every draw of a final run with ``cfg`` uses.

    Validates ``scores``, then takes the budgets: ``cfg.degs``, or for a
    ``full_graph`` run each layer's longest score row, so every row is
    taken whole and a draw computes the full-pattern forward.  The uniform
    ablation samples uniform rows over the same support, the max ablation
    selects the top-deg scores instead of drawing, and otherwise the
    prefilter keeps the top 4*max(budgets) scores of each row, which at
    full degree truncates nothing.  A run's validation, test metric and
    edge budget read this law, and ``sparsegt predict`` builds it again
    from a finished run's config; only full-graph training does not draw.
    """
    # the law holds only the scores it samples by, and under the uniform
    # ablation those are not the given ones: check these here
    validate_scores(scores)
    degs = cfg.degs
    if cfg.full_graph:
        degs = tuple(int(np.diff(sl.row_ptr).max()) for sl in scores.layers)
    eff_scores = uniform_scores(scores) if cfg.ablation == "uniform" else scores
    mode = "top" if cfg.ablation == "max" else "sample"
    k_prime = None
    if cfg.prefilter and mode == "sample" and cfg.ablation != "uniform":
        k_prime = 4 * max(degs)
    return sampling_law(eff_scores, mode, k_prime, cfg.tail_eps), degs


def _eval_sampled(net, x, law, degs, nodes, seed, epoch, tag, batch_size,
                  loss_name) -> np.ndarray:
    """Eval-mode probabilities for ``nodes`` under one sampled pattern.

    One plan is drawn over the distinct nodes, sorted, on stream ``tag``
    at epoch key ``epoch`` with batch_index 0, and one forward computes
    it layer by layer, so each reached row is drawn once and computed
    once per layer; repeated nodes share their row.  A row's draw is
    keyed by (seed, tag, epoch, layer, node) alone, so it is the one a
    separate plan per chunk would draw.  ``batch_size`` caps each layer
    slice at ``batch_size * prod(1 + deg)`` query rows, the most input
    rows a chunk of that many nodes can reach.
    """
    if not nodes.size:
        return _probs_from_logits(loss_name, np.empty((0, net.cfg.out_dim)))
    distinct, at = np.unique(nodes, return_inverse=True)
    plan = sample_batch(distinct, law, degs, seed, epoch, batch_index=0, tag=tag)
    with nm.no_grad():
        logits, _ = net.forward(x[plan.input_nodes], plan_geometries(plan), tau=1.0,
                                training=False,
                                max_rows=batch_size * math.prod(1 + d for d in degs))
    return _probs_from_logits(loss_name, logits.data[at])


def predict(net: Network, features: np.ndarray, scores: AttentionPattern, degs,
            nodes, seed: int = 0, n_samples: int = 1, batch_size: int = 256,
            mode: str = "sample", k_prime: int | None = None,
            tail_eps: float = 0.05, loss_name: str = "ce"):
    """Average class probabilities over freshly sampled patterns.

    ``scores`` must pass ``validate_scores``; ``mode``, ``k_prime`` and
    ``tail_eps`` name the law drawn by (see ``sampling_law``), built once
    per call and shared by all ``n_samples`` draws.  The rest is
    ``predict_by_law``.
    """
    validate_scores(scores)
    return predict_by_law(net, features, sampling_law(scores, mode, k_prime, tail_eps),
                          degs, nodes, seed=seed, n_samples=n_samples,
                          batch_size=batch_size, loss_name=loss_name)


def predict_by_law(net: Network, features: np.ndarray, law: SamplingLaw, degs, nodes,
                   seed: int = 0, n_samples: int = 1, batch_size: int = 256,
                   loss_name: str = "ce"):
    """Average class probabilities over patterns freshly drawn by ``law``.

    Sample ``s`` uses epoch key ``s`` on the prediction stream, so the
    averaged patterns are disjoint draws yet the whole call is
    reproducible.  Each sample draws every node's rows once, over the
    whole node set, and computes each reached row once per layer;
    ``batch_size`` (positive) bounds only the query rows of one layer
    slice, at ``batch_size * prod(1 + deg)``, and does not change the
    draw.  A node outside [0, n) is an IndexError.
    Returns (probabilities, predicted labels); empty ``nodes`` give empty
    arrays of the same layout.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if n_samples < 1:
        raise ContractError("n_samples must be positive")
    if batch_size < 1:
        raise ContractError(f"batch_size must be positive, got {batch_size}")
    x = np.asarray(features, dtype=net.cfg.dtype)
    if x.shape[0] != law.n:
        raise ShapeError(f"{x.shape[0]} feature rows for scores on {law.n} nodes")
    probs = sum(_eval_sampled(net, x, law, degs, nodes, seed, s, TAG_PREDICT,
                              batch_size, loss_name)
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


def _write_run(run_dir, cfg: TrainConfig, role: str, net: Network, history,
               metrics: dict, scores: AttentionPattern | None = None) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_json(run_dir / "config.json", {"role": role, **config_to_dict(cfg)})
    save_history_csv(run_dir / "history.csv", history)
    ckpt_dir = run_dir / "ckpt"
    ckpt_dir.mkdir(exist_ok=True)
    nm.save_checkpoint(ckpt_dir / f"{role}.ckpt", net.state_dict())
    if scores is not None:
        score_dir = run_dir / "scores"
        score_dir.mkdir(exist_ok=True)
        save_scores_npz(score_dir / "scores.npz", scores)
    write_json(run_dir / "metrics.json", metrics)
