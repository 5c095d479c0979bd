"""``edge_attention`` as one pass over every edge, the body ``numerics`` ran
before it worked in blocks of ``EDGE_BLOCK`` edges.

The forward gathers each edge's rows of q * emap and of k for the whole
list at once and keeps both on the tape for the backward, which gathers
the output gradient and v the same way and scatters dK and d(q * emap)
with one CSC operator each over every edge.  It is the reference the
blocked op is checked against bit for bit
(``test_edge_attention::TestBlocks``); it has the signature of its
``numerics`` counterpart.
"""

import numpy as np

import sparsegt.numerics as nm
from sparsegt.errors import ContractError, ShapeError


def edge_attention(q, k, v, emap, bias, edges, scale: float,
                   temperature: float = 1.0, clip: float = 8.0):
    q, k, v, emap, bias = (nm.as_tensor(x) for x in (q, k, v, emap, bias))
    row_ptr, cols, types = edges.row_ptr, edges.cols, edges.types
    rows, starts = edges.rows, edges.starts
    (nq, w), n, t = q.data.shape, k.data.shape[0], emap.data.shape[0]
    if (k.data.shape, v.data.shape, emap.data.shape, bias.data.shape, edges.num_queries) \
            != ((n, w), (n, w), (t, w), (t, 1), nq):
        raise ShapeError("edge_attention shapes")
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    nm._check_rows(cols, n, "edge_attention", edges.col_span)
    nm._check_rows(types, t, "edge_attention", edges.type_span)
    qe = (emap.data[:, None, :] * q.data).reshape(t * nq, w)
    qg, kg = np.take(qe, edges.qe_idx, axis=0), np.take(k.data, cols, axis=0)
    scale = q.data.dtype.type(scale)
    logits = np.einsum("ew,ew->e", qg, kg) * scale + np.take(bias.data[:, 0], types)
    y = logits.clip(-clip, clip) / temperature
    if clip / temperature > 32:
        y -= np.take(np.maximum.reduceat(y, starts), rows)
    np.exp(y, out=y)
    y /= np.take(np.add.reduceat(y, starts), rows)
    out = nm.Tensor(nm._spmm("csr", row_ptr, cols, y, v.data, nq),
                    requires_grad=nm._track(q, k, v, emap, bias))
    if out.requires_grad:
        inside = np.abs(logits) <= clip
        ramp = np.arange(cols.shape[0] + 1)

        def _bw():
            g = out.grad
            if v.requires_grad:
                v._acc(nm._spmm("csc", row_ptr, cols, y, g, n))
            dy = np.einsum("ew,ew->e", np.take(g, rows, axis=0), np.take(v.data, cols, axis=0))
            dz = y * (dy - np.take(np.add.reduceat(dy * y, starts), rows)) / temperature
            dlogit = np.where(inside, dz, 0)
            if bias.requires_grad:
                bias._acc(np.bincount(types, weights=dlogit, minlength=t)[:, None])
            dlogit *= scale
            if k.requires_grad:
                k._acc(nm._spmm("csc", ramp, cols, dlogit, qg, n))
            if q.requires_grad or emap.requires_grad:
                dqe = nm._spmm("csc", ramp, edges.qe_idx, dlogit, kg,
                               t * nq).reshape(t, nq, w)
                if q.requires_grad:
                    q._acc(np.einsum("tiw,tw->iw", dqe, emap.data))
                if emap.requires_grad:
                    emap._acc(np.einsum("tiw,iw->tw", dqe, q.data))
        out._backward, out._parents = _bw, (q, k, v, emap, bias)
    return out, y
