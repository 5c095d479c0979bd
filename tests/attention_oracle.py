"""The composed attention path that ``numerics.edge_attention`` replaced.

``composed_sublayer`` builds the attention from small taped ops over a
padded (queries x longest row) block that ``pad_edges`` builds from the
geometry's edge list: four row gathers, an elementwise product, two
batched matmuls, reshapes, a masked softmax and the adds, with every
gradient coming from the ops' own backwards.  It is the slow path the
fused op is checked against (``test_edge_attention``);
``composed_sublayer`` has the signature of ``attention_sublayer``, so a
test can run a whole network through either.
"""

import math

import numpy as np

import sparsegt.numerics as nm
from sparsegt.errors import ContractError, ShapeError
from sparsegt.graphs import EdgeType


def mul(a, b) -> nm.Tensor:
    a, b = nm.as_tensor(a), nm.as_tensor(b)
    out = nm.Tensor(a.data * b.data, requires_grad=nm._track(a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._acc(nm._unbroadcast(out.grad * b.data, a.data.shape))
            if b.requires_grad:
                b._acc(nm._unbroadcast(out.grad * a.data, b.data.shape))
        out._backward, out._parents = _bw, (a, b)
    return out


def batched_matmul(a, b) -> nm.Tensor:
    """(B,p,q) @ (B,q,r) -> (B,p,r) with matching batch dim."""
    a, b = nm.as_tensor(a), nm.as_tensor(b)
    if a.data.ndim != 3 or b.data.ndim != 3:
        raise ShapeError(f"batched_matmul is 3-d only, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2] != b.data.shape[1]:
        raise ShapeError(f"batched_matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = nm.Tensor(np.matmul(a.data, b.data), requires_grad=nm._track(a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._acc(np.matmul(out.grad, b.data.swapaxes(1, 2)))
            if b.requires_grad:
                b._acc(np.matmul(a.data.swapaxes(1, 2), out.grad))
        out._backward, out._parents = _bw, (a, b)
    return out


def masked_softmax(logits, mask, temperature: float = 1.0, clip: float = 8.0) -> nm.Tensor:
    """Row softmax of clip(logits)/temperature over unmasked entries.

    Clipping happens before the temperature division, so annealing
    sharpens within a fixed logit budget.  Masked entries get exact
    zeros; a fully masked row is a contract violation, not a nan.
    """
    logits = nm.as_tensor(logits)
    mask = np.asarray(mask)
    if logits.data.shape != mask.shape:
        raise ShapeError(f"mask shape {mask.shape} != logits shape {logits.data.shape}")
    if logits.data.ndim != 2:
        raise ShapeError("masked_softmax expects 2-d logits")
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    live = mask != 0
    if not live.any(axis=1).all():
        raise ContractError("masked_softmax row with no unmasked entries")
    z = np.clip(logits.data, -clip, clip) / temperature
    z = np.where(live, z, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    y = y.astype(logits.data.dtype)
    out = nm.Tensor(y, requires_grad=nm._track(logits))
    if out.requires_grad:
        inside = (np.abs(logits.data) <= clip) & live
        def _bw():
            g = out.grad
            dot = (g * y).sum(axis=1, keepdims=True)
            dz = y * (g - dot) / temperature
            logits._acc(np.where(inside, dz, 0.0))
        out._backward, out._parents = _bw, (logits,)
    return out


def pad_edges(geom):
    """(keys, mask, types) blocks (queries x longest row) of the geometry's
    edge list, and its edges' flat positions in them: row i holds its
    edges in order, then pad slots on key ``query_rows[i]``, typed
    self-loop, with mask 0."""
    row_ptr = geom.row_ptr
    nq = row_ptr.shape[0] - 1
    width = int(np.diff(row_ptr).max())
    live = np.arange(row_ptr[-1]) + np.repeat(np.arange(nq) * width - row_ptr[:-1],
                                              np.diff(row_ptr))
    key = np.repeat(geom.query_rows, width)
    key[live] = geom.col_idx
    mask = np.zeros(nq * width, dtype=np.float64)
    mask[live] = 1.0
    typ = np.full(nq * width, int(EdgeType.SELF_LOOP), dtype=np.int64)
    typ[live] = geom.edge_type
    return key.reshape(nq, width), mask.reshape(nq, width), typ.reshape(nq, width), live


def composed_sublayer(h, geom, lp, cfg, tau, training=False, dropout_rng=None):
    """``attention_sublayer`` over the padded block, one small op at a time."""
    key_rows, key_mask, key_type, live = pad_edges(geom)
    nq, k = key_rows.shape
    flat_keys = key_rows.reshape(-1)
    flat_types = key_type.reshape(-1)
    xq = nm.gather_rows(h, geom.query_rows)
    q = nm.matmul(xq, lp.wq)
    kk = nm.matmul(h, lp.wk)
    vv = nm.matmul(h, lp.wv)
    if cfg.normalize_values:
        vv = nm.normalize_rows(vv, lp.vscale)
    emap = nm.matmul(lp.edge_emb, lp.we)
    bvec = nm.matmul(lp.edge_emb, lp.wb)
    k3 = nm.reshape(nm.gather_rows(kk, flat_keys), (nq, k, cfg.width))
    e3 = nm.reshape(nm.gather_rows(emap, flat_types), (nq, k, cfg.width))
    q3 = nm.reshape(q, (nq, cfg.width, 1))
    logits = nm.reshape(batched_matmul(mul(k3, e3), q3), (nq, k))
    logits = mul(logits, np.asarray(1.0 / math.sqrt(cfg.width), dtype=h.dtype))
    bias = nm.reshape(nm.gather_rows(bvec, flat_types), (nq, k))
    logits = nm.add(logits, bias)
    sc = masked_softmax(logits, key_mask, temperature=tau, clip=cfg.clip)
    v3 = nm.reshape(nm.gather_rows(vv, flat_keys), (nq, k, cfg.width))
    out = nm.reshape(batched_matmul(nm.reshape(sc, (nq, 1, k)), v3), (nq, cfg.width))
    if training and cfg.dropout > 0:
        out = nm.dropout(out, cfg.dropout, dropout_rng)
    return nm.add(xq, out), sc.data.astype(np.float64).reshape(-1)[live]
