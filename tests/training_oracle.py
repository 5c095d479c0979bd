"""The full-pattern training loop a full-graph run replaced, kept as an oracle.

``train_full_pattern`` is ``sparsegt.pipeline.train_final`` with every
budget ``"full"`` (once a ``full_graph`` flag) as it was before such a run
drew its training plans from its law: every epoch runs one forward over the whole pattern, with
batch-norm statistics over the training rows (``stats_rows``), and takes
one AdamW update on the training nodes' loss.  Validation and the test
metric come from eval forwards over the whole pattern.  It shares the
network, the losses and the optimizer with the library, and neither its
training loop (``_fit``) nor its sampler (``resample_epoch``), so a
library run at full degree, sampled or full-graph, must match it to
round-off in the network's dtype.
"""

from dataclasses import replace

import numpy as np

from sparsegt import numerics as nm
from sparsegt.attention import pattern_geometry
from sparsegt.graphs import TEST, TRAIN, VAL
from sparsegt.pipeline import (FinalResult, _loss_tensor, _probs_from_logits,
                               build_network, metric_value)
from sparsegt.rngutil import TAG_DROPOUT, derive
from sparsegt.sampling import SampleStats


def train_full_pattern(graph, scores, cfg) -> FinalResult:
    """The final network of ``cfg`` trained full batch on the whole pattern of
    ``scores``, left in its best validation state (the last epoch's without
    validation nodes).  ``sample_stats`` stays zero: nothing is drawn."""
    net, loss_name = build_network(graph, cfg, "final")
    train_idx, val_idx, test_idx = (graph.split_idx(s) for s in (TRAIN, VAL, TEST))
    labels = np.asarray(graph.labels)
    x = np.asarray(graph.features, dtype=cfg.np_dtype)
    geoms = [replace(pattern_geometry(sl), stats_rows=train_idx) for sl in scores.layers]

    def probs(nodes):
        with nm.no_grad():
            logits, _ = net.forward(x, geoms, tau=1.0, training=False)
        return _probs_from_logits(loss_name, logits.data[nodes])

    def metric(nodes):
        return metric_value(loss_name, cfg.metric, probs(nodes), labels[nodes])

    history = []
    best_val, best_epoch, best_state = -np.inf, 0, net.state_dict()
    if cfg.epochs > 0:
        opt = nm.AdamW(net.named_parameters(),
                       nm.CosineSchedule(cfg.lr, cfg.epochs, warmup=cfg.warmup),
                       weight_decay=cfg.weight_decay)
    for epoch in range(1, cfg.epochs + 1):
        rng = derive(cfg.seed, TAG_DROPOUT, epoch) if cfg.dropout > 0 else None
        logits, _ = net.forward(x, geoms, tau=1.0, training=True, dropout_rng=rng)
        loss = _loss_tensor(loss_name, nm.gather_rows(logits, train_idx),
                            labels[train_idx])
        opt.zero_grad()
        nm.backward(loss)
        opt.step(epoch)
        val_m = metric(val_idx) if val_idx.size else float("nan")
        history.append((epoch, float(loss.data), val_m, 1.0))
        if val_m > best_val or not val_idx.size:
            best_val, best_epoch, best_state = val_m, epoch, net.state_dict()
    net.load_state_dict(best_state)
    if best_val == -np.inf and val_idx.size:
        best_val = metric(val_idx)
    test_m = metric(test_idx) if test_idx.size else float("nan")
    return FinalResult(network=net, history=history, best_epoch=best_epoch,
                       best_val=float(best_val), test_metric=test_m, edge_pct=100.0,
                       loss_name=loss_name, sample_stats=SampleStats())
