"""The ``x.mean``/``x.var`` norms that ``numerics`` computes in one pass.

``layer_norm`` and ``batch_norm`` here take each statistic with its own
numpy call and centre the rows again wherever a formula needs them.  They
are the reference the one-pass ops in ``numerics`` are checked against
bit for bit (``test_numerics::TestNormOracle``); each has the signature of
its ``numerics`` counterpart.
"""

import numpy as np

import sparsegt.numerics as nm
from sparsegt.errors import ContractError, ShapeError


def layer_norm(t, gamma, beta, eps: float = 1e-5) -> nm.Tensor:
    t, gamma, beta = nm.as_tensor(t), nm.as_tensor(gamma), nm.as_tensor(beta)
    x = t.data
    if x.ndim != 2:
        raise ShapeError("layer_norm expects 2-d input")
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = nm.Tensor(xhat * gamma.data + beta.data, requires_grad=nm._track(t, gamma, beta))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if beta.requires_grad:
                beta._acc(nm._unbroadcast(g, beta.data.shape))
            if gamma.requires_grad:
                gamma._acc(nm._unbroadcast(g * xhat, gamma.data.shape))
            if t.requires_grad:
                gx = g * gamma.data
                d = x.shape[1]
                s1 = gx.sum(axis=1, keepdims=True)
                s2 = (gx * xhat).sum(axis=1, keepdims=True)
                t._acc((inv / d) * (d * gx - s1 - xhat * s2))
        out._backward, out._parents = _bw, (t, gamma, beta)
    return out


def batch_norm(t, gamma, beta, running_mean, running_var, training: bool,
               stats_rows=None, momentum: float = 0.1, eps: float = 1e-5) -> nm.Tensor:
    t, gamma, beta = nm.as_tensor(t), nm.as_tensor(gamma), nm.as_tensor(beta)
    x = t.data
    if x.ndim != 2:
        raise ShapeError("batch_norm expects 2-d input")
    if training:
        rows = np.arange(x.shape[0]) if stats_rows is None else np.asarray(stats_rows)
        if rows.size < 2:
            raise ContractError(f"batch_norm needs at least 2 statistics rows, got {rows.size}")
        nm._check_rows(rows, x.shape[0], "batch_norm")
        xs = x[rows]
        mu = xs.mean(axis=0)
        var = xs.var(axis=0)
        k = xs.shape[0]
        unbiased = var * (k / (k - 1))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        rows = None
        mu = running_mean.astype(x.dtype, copy=False)
        var = running_var.astype(x.dtype, copy=False)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = nm.Tensor(xhat * gamma.data + beta.data, requires_grad=nm._track(t, gamma, beta))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if beta.requires_grad:
                beta._acc(nm._unbroadcast(g, beta.data.shape))
            if gamma.requires_grad:
                gamma._acc(nm._unbroadcast(g * xhat, gamma.data.shape))
            if t.requires_grad:
                gx = g * gamma.data
                dx = gx * inv
                if training:
                    k = rows.shape[0]
                    dmu = -(gx.sum(axis=0)) * inv
                    dvar = (gx * (x - mu)).sum(axis=0) * (-0.5) * inv ** 3
                    extra = (dmu + dvar * 2.0 * (x[rows] - mu)) / k
                    dx = dx + nm._scatter_rows(extra, rows, dx)
                t._acc(dx)
        out._backward, out._parents = _bw, (t, gamma, beta)
    return out
