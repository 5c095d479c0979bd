"""Reverse-mode automatic differentiation on numpy arrays.

The tape is the closure graph: each op returns a Tensor holding its
inputs and a backward closure, and ``backward`` walks the graph in
reverse topological order accumulating gradients.  Once a node's closure
has run, ``backward`` drops the closure, the parent links and the node's
gradient, so the tape is freed as soon as it has been walked; only
leaves keep their ``grad``.  Arrays are at most 3-d; training runs in
float32 and gradient checking in float64 (ops preserve whatever dtype
their inputs carry).

A layer's attention is one node, ``edge_attention``, that works on the
live edges of a CSR edge list and has a hand-written backward; an
``EdgeIndex`` holds the index arrays it derives from a list, so calls
over a list that does not change share them.  It gathers per-edge rows in
blocks of ``EDGE_BLOCK`` edges, so its memory grows with the edges and
the width apart, not with their product.  Every scatter-add in a
backward goes through a sparse operator: a CSC matrix whose column j
holds a single entry in row idx[j], a 1, or the weight the scatter
multiplies source row j by.  scipy applies it column by column, adding
into the output it is given, so every row sums its gradients in index
order starting from 0: the same bits as adding them one at a time, each
weighted row rounded as its product formed apart would be, whether the
columns come in one operator or in consecutive blocks.

Also here because trainers need them next to the tape: the fused losses,
AdamW with a cosine learning-rate schedule over one flat parameter
arena, and checkpoints as npz archives.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import zipfile
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DivergenceError, FormatError, ShapeError
from .graphs import atomic_path

_SPARSETOOLS = "scipy.sparse._sparsetools"


def _load_sparsetools(search_path=None):
    """scipy's compiled sparse kernels, the extension module scipy.sparse._sparsetools,
    loaded by itself from a directory in ``search_path`` (scipy's ``sparse`` directory
    by default).

    Neither ``scipy/__init__`` nor ``scipy/sparse/__init__`` runs: the latter builds a
    vendored array-API namespace that imports numpy.f2py, and took longer than all the
    rest of ``import sparsegt`` past numpy.  Creating the module registers it in
    ``sys.modules``; the entry is dropped again unless it was there before, or a later
    ``import scipy.sparse`` would find it there and never bind it as the package's
    ``_sparsetools``.  A missing extension is an ImportError naming it."""
    if search_path is None:
        scipy = importlib.util.find_spec("scipy")
        search_path = ([os.path.join(d, "sparse") for d in scipy.submodule_search_locations]
                       if scipy else [])
    spec = importlib.machinery.PathFinder.find_spec(_SPARSETOOLS, search_path)
    if spec is None:
        raise ImportError(f"no compiled {_SPARSETOOLS} extension in {search_path}",
                          name=_SPARSETOOLS)
    registered = _SPARSETOOLS in sys.modules
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop(_SPARSETOOLS, None)
    return module


_sparsetools = _load_sparsetools()

_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable taping inside the block (evaluation forward passes)."""
    global _GRAD_ENABLED
    saved = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = saved


class Tensor:
    """An ndarray with an optional gradient and a link back into the tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        if self.data.ndim > 3:
            raise ShapeError(f"tensors are at most 3-d, got shape {self.data.shape}")
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def _acc(self, g):
        if self.grad is None:
            # 0 + g: a -0.0 lands as +0.0 and a wider g rounds once, as
            # adding into zeros would, without the pass that writes them
            self.grad = np.add(g, 0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"


def param(data, dtype=np.float32) -> Tensor:
    """Trainable tensor in the given dtype."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _track(*ts) -> bool:
    return _GRAD_ENABLED and any(t.requires_grad for t in ts)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum out axes that broadcasting added or stretched."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable ``grad``."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ContractError("backward on a tensor outside the tape")
    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward()
            node._backward, node._parents, node.grad = None, (), None


# ---------------------------------------------------------------------------
# Ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data, requires_grad=_track(a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._acc(_unbroadcast(out.grad, a.data.shape))
            if b.requires_grad:
                b._acc(_unbroadcast(out.grad, b.data.shape))
        out._backward, out._parents = _bw, (a, b)
    return out


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul is 2-d only, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, requires_grad=_track(a, b))
    if out.requires_grad:
        def _bw():
            if a.requires_grad:
                a._acc(out.grad @ b.data.T)
            if b.requires_grad:
                b._acc(a.data.T @ out.grad)
        out._backward, out._parents = _bw, (a, b)
    return out


def _span(idx: np.ndarray) -> tuple:
    """(min, max) of ``idx``; (0, -1), inside every range, when it is empty."""
    return (int(idx.min()), int(idx.max())) if idx.size else (0, -1)


def _check_rows(idx: np.ndarray, rows: int, op: str, span: tuple | None = None) -> None:
    """IndexError naming ``op`` unless every index lies in [0, rows); ``span``,
    the indices' ``_span`` if already known, spares the passes over them."""
    lo, hi = _span(idx) if span is None else span
    if lo < 0 or hi >= rows:
        bad = idx[(idx < 0) | (idx >= rows)][0]
        raise IndexError(f"{op}: index {bad} outside [0, {rows})")


def _spmm(fmt: str, ptr, idx, vals, dense, rows: int, out=None) -> np.ndarray:
    """The (rows x len(dense)) ``fmt`` ("csr" or "csc") matrix of ``ptr``, ``idx`` and
    ``vals`` times ``dense``, by the kernel scipy runs for ``matrix @ dense`` minus the
    matrix object, which costs more than the product on plan blocks.  Callers check indices.

    The kernel adds the product into ``out`` (zeros when not given), so calls
    over consecutive column blocks of one CSC matrix, each into the same
    ``out``, make the adds one call over the whole matrix makes, in the same
    order.  ``out`` must be C-contiguous (rows,) + dense.shape[1:] in the
    product's dtype: the kernel writes through it unchecked."""
    if ptr.shape != ((rows if fmt == "csr" else dense.shape[0]) + 1,) \
            or idx.shape != vals.shape or idx.shape[0] < ptr[-1]:
        raise ShapeError(f"{fmt}: {ptr.shape} ptr, {idx.shape} idx, {rows} rows, {dense.shape}")
    itype = np.int32 if ptr.dtype == idx.dtype == np.int32 else np.int64
    dtype = np.result_type(vals, dense)
    shape = (rows,) + dense.shape[1:]
    if out is None:
        out = np.zeros(shape, dtype=dtype)
    elif out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ShapeError(f"{fmt}: out must be C-contiguous {shape} {dtype}, got "
                         f"{out.shape} {out.dtype}{'' if out.flags.c_contiguous else ' strided'}")
    getattr(_sparsetools, f"{fmt}_matvecs")(
        rows, dense.shape[0], math.prod(dense.shape[1:]), ptr.astype(itype, copy=False),
        idx.astype(itype, copy=False), vals.astype(dtype, copy=False),
        dense.astype(dtype, copy=False).ravel(), out.ravel())
    return out


def _scatter_rows(src: np.ndarray, idx: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with ``src[j]`` added to row ``idx[j]``, in order of j.
    The kernel writes where the indices point: the op that took them in checked them."""
    m = idx.shape[0]
    return _spmm("csc", np.arange(m + 1), idx, np.ones(m, dtype=like.dtype), src, like.shape[0])


def gather_rows(t, idx) -> Tensor:
    """Select rows by index, refusing one outside [0, rows) before any output exists
    (numpy would wrap a negative one); backward scatter-adds (see ``_scatter_rows``)."""
    t = as_tensor(t)
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows wants a flat index array")
    if t.data.ndim not in (1, 2):
        raise ShapeError(f"gather_rows wants a 1-d or 2-d tensor, got shape {t.data.shape}")
    _check_rows(idx, t.data.shape[0], "gather_rows")
    out = Tensor(np.take(t.data, idx, axis=0), requires_grad=_track(t))
    if out.requires_grad:
        def _bw():
            t._acc(_scatter_rows(out.grad, idx, t.data))
        out._backward, out._parents = _bw, (t,)
    return out


# Edges per block of ``edge_attention``: no (edges x width) gather is larger,
# and none outlives the block that made it.
EDGE_BLOCK = 4096
# its first m + 1 entries are the CSC column pointers of m single-entry columns
_BLOCK_RAMP = np.arange(EDGE_BLOCK + 1)
_BLOCK_RAMP.flags.writeable = False


def _edge_blocks(edges: int):
    """(start, stop) of each block of at most ``EDGE_BLOCK`` consecutive edges."""
    return ((a, min(a + EDGE_BLOCK, edges)) for a in range(0, edges, EDGE_BLOCK))


def _edge_dots(a: np.ndarray, a_idx: np.ndarray, b: np.ndarray, b_idx: np.ndarray):
    """``out[e] = a[a_idx[e]] . b[b_idx[e]]``, gathering the rows block by block."""
    out = np.empty(a_idx.shape[0], dtype=np.result_type(a, b))
    for lo, hi in _edge_blocks(out.shape[0]):
        # np.take copies the rows fancy indexing would, several times faster
        np.einsum("ew,ew->e", np.take(a, a_idx[lo:hi], axis=0),
                  np.take(b, b_idx[lo:hi], axis=0), out=out[lo:hi])
    return out


class EdgeIndex:
    """The index arrays ``edge_attention`` derives from a CSR edge list, built
    once and shared by every call over the list: every epoch of a pattern
    that does not change.

    Construction checks the list (a ShapeError for inconsistent arrays, a
    ContractError for a row without edges) and builds each edge's query row
    ``rows``, the row ``starts``, ``qe_idx = type * queries + row`` and the
    spans of the columns and types, against which a call checks its tables
    in O(1).  Every array is read, never written.
    """

    __slots__ = ("row_ptr", "cols", "types", "rows", "starts", "qe_idx",
                 "col_span", "type_span")

    def __init__(self, row_ptr, cols, types):
        row_ptr, cols, types = np.asarray(row_ptr), np.asarray(cols), np.asarray(types)
        if row_ptr.ndim != 1 or row_ptr.size < 1 or row_ptr[0] != 0 \
                or cols.shape != (row_ptr[-1],) or types.shape != cols.shape:
            raise ShapeError(f"edge_attention edge list: row_ptr {row_ptr.shape}, "
                             f"cols {cols.shape}, types {types.shape}")
        nq = row_ptr.size - 1
        lengths = np.diff(row_ptr)
        if nq and lengths.min() < 1:
            raise ContractError(f"edge_attention: query row {np.argmin(lengths)} has no live slots")
        self.row_ptr, self.cols, self.types = row_ptr, cols, types
        self.rows, self.starts = np.repeat(np.arange(nq), lengths), row_ptr[:-1]
        self.qe_idx = types * np.intp(nq) + self.rows
        self.col_span, self.type_span = _span(cols), _span(types)

    @property
    def num_queries(self) -> int:
        return self.row_ptr.shape[0] - 1


def edge_attention(q, k, v, emap, bias, edges, scale: float,
                   temperature: float = 1.0, clip: float = 8.0):
    """Attention over a CSR edge list, as a single tape node.

    ``edges`` is the list's ``EdgeIndex``.  Query i attends over edges e
    in ``row_ptr[i]:row_ptr[i+1]``, each reading row ``cols[e]`` of ``k``
    and ``v`` and, by type, a row of ``emap`` (t, w) and ``bias`` (t, 1):
        logit_e = scale * (q_i * emap[types[e]]) . k[cols[e]] + bias[types[e]]
    The weights are each row's softmax of clip(logit) / temperature and the
    output is CSR(weights) @ v.  q * emap is formed once per type, so the
    logits are one dot per edge; the backward is written out by hand.  The
    per-edge rows of q * emap, k, the output gradient and v are gathered
    ``EDGE_BLOCK`` edges at a time, for the dot products and the scatters
    alike, and the tape keeps q * emap, not its gathers.  A clipped logit
    passes no gradient.  A row without edges is a ContractError, a column
    or type outside its table an IndexError.
    Returns (out (queries, w), weights).
    """
    q, k, v, emap, bias = (as_tensor(x) for x in (q, k, v, emap, bias))
    row_ptr, cols, types = edges.row_ptr, edges.cols, edges.types
    rows, starts, qe_idx = edges.rows, edges.starts, edges.qe_idx
    (nq, w), n, t = q.data.shape, k.data.shape[0], emap.data.shape[0]
    if (k.data.shape, v.data.shape, emap.data.shape, bias.data.shape, edges.num_queries) \
            != ((n, w), (n, w), (t, w), (t, 1), nq):
        raise ShapeError(f"edge_attention shapes: {[x.data.shape for x in (q, k, v, emap, bias)]}"
                         f" over {edges.num_queries} query rows")
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    _check_rows(cols, n, "edge_attention", edges.col_span)
    _check_rows(types, t, "edge_attention", edges.type_span)
    qe = (emap.data[:, None, :] * q.data).reshape(t * nq, w)     # row j * nq + i: q_i * emap_j
    scale = q.data.dtype.type(scale)
    logits = _edge_dots(qe, qe_idx, k.data, cols) * scale + np.take(bias.data[:, 0], types)
    y = logits.clip(-clip, clip) / temperature
    if clip / temperature > 32:     # exp could overflow: shift each row's maximum to 0
        y -= np.take(np.maximum.reduceat(y, starts), rows)
    np.exp(y, out=y)
    y /= np.take(np.add.reduceat(y, starts), rows)
    out = Tensor(_spmm("csr", row_ptr, cols, y, v.data, nq),
                 requires_grad=_track(q, k, v, emap, bias))
    if out.requires_grad:
        inside = np.abs(logits) <= clip

        def _bw():
            g = out.grad
            if v.requires_grad:     # the CSR arrays read as CSC are the transpose
                v._acc(_spmm("csc", row_ptr, cols, y, g, n))
            dy = _edge_dots(g, rows, v.data, cols)
            dz = y * (dy - np.take(np.add.reduceat(dy * y, starts), rows)) / temperature
            dlogit = np.where(inside, dz, 0)
            if bias.requires_grad:
                bias._acc(np.bincount(types, weights=dlogit, minlength=t)[:, None])
            dlogit *= scale
            # each edge scatters its row of q * emap (of k) times its dlogit,
            # which rides in the operator's values: the products round as they
            # would apart.  Each block adds into the one output in edge order,
            # the adds of one scatter over every edge.
            dk = np.zeros((n, w), np.result_type(dlogit, qe)) if k.requires_grad else None
            dqe = (np.zeros((t * nq, w), np.result_type(dlogit, k.data))
                   if q.requires_grad or emap.requires_grad else None)
            for lo, hi in _edge_blocks(cols.shape[0]):
                ramp, dl = _BLOCK_RAMP[:hi - lo + 1], dlogit[lo:hi]
                if dk is not None:
                    _spmm("csc", ramp, cols[lo:hi], dl,
                          np.take(qe, qe_idx[lo:hi], axis=0), n, out=dk)
                if dqe is not None:
                    _spmm("csc", ramp, qe_idx[lo:hi], dl,
                          np.take(k.data, cols[lo:hi], axis=0), t * nq, out=dqe)
            if dk is not None:
                k._acc(dk)
            if dqe is not None:
                dqe = dqe.reshape(t, nq, w)
                if q.requires_grad:
                    q._acc(np.einsum("tiw,tw->iw", dqe, emap.data))
                if emap.requires_grad:
                    emap._acc(np.einsum("tiw,iw->tw", dqe, q.data))
        out._backward, out._parents = _bw, (q, k, v, emap, bias)
    return out, y


def reshape(t, shape) -> Tensor:
    t = as_tensor(t)
    out = Tensor(t.data.reshape(shape), requires_grad=_track(t))
    if out.requires_grad:
        def _bw():
            t._acc(out.grad.reshape(t.data.shape))
        out._backward, out._parents = _bw, (t,)
    return out


def relu(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.maximum(t.data, 0), requires_grad=_track(t))
    if out.requires_grad:
        def _bw():
            t._acc(out.grad * (t.data > 0))
        out._backward, out._parents = _bw, (t,)
    return out


def dropout(t, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity at rate 0."""
    t = as_tensor(t)
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return t
    keep = (rng.random(t.data.shape) >= rate).astype(t.data.dtype) / (1.0 - rate)
    out = Tensor(t.data * keep, requires_grad=_track(t))
    if out.requires_grad:
        def _bw():
            t._acc(out.grad * keep)
        out._backward, out._parents = _bw, (t,)
    return out


def _divide_count(total: np.ndarray, count: int) -> np.ndarray:
    """``total / count`` in place, by the call ``np.mean`` and ``np.var`` make.

    Dividing (not multiplying by ``1 / count``) keeps the statistics equal
    to numpy's bit for bit; the reciprocal rounds differently whenever
    ``count`` is not a power of two.
    """
    return np.true_divide(total, np.intp(count), out=total, casting="unsafe")


def layer_norm(t, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with learnable scale and shift."""
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    x = t.data
    if x.ndim != 2:
        raise ShapeError("layer_norm expects 2-d input")
    mu = _divide_count(np.add.reduce(x, axis=1, keepdims=True), x.shape[1])
    xc = x - mu
    var = _divide_count(np.add.reduce(xc * xc, axis=1, keepdims=True), x.shape[1])
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data, requires_grad=_track(t, gamma, beta))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if beta.requires_grad:
                beta._acc(_unbroadcast(g, beta.data.shape))
            if gamma.requires_grad:
                gamma._acc(_unbroadcast(g * xhat, gamma.data.shape))
            if t.requires_grad:
                gx = g * gamma.data
                d = x.shape[1]
                s1 = gx.sum(axis=1, keepdims=True)
                s2 = (gx * xhat).sum(axis=1, keepdims=True)
                t._acc((inv / d) * (d * gx - s1 - xhat * s2))
        out._backward, out._parents = _bw, (t, gamma, beta)
    return out


def batch_norm(t, gamma, beta, running_mean, running_var, training: bool,
               stats_rows=None, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-feature normalization across rows.

    In training mode the statistics come from ``stats_rows`` (the rows
    that form the actual minibatch; other rows are support nodes) and the
    running buffers are updated in place; a stats row outside [0, rows)
    is an IndexError, and fewer than 2 stats rows a ContractError (one
    row has zero variance, which would scale every row by 1/sqrt(eps)),
    both raised before the buffers change.  Evaluation normalizes with
    the running buffers only, so a node's output never depends on what
    else is in its batch; it reads them in the input's dtype, so a
    float32 network evaluates in float32 while the buffers themselves
    stay float64.
    """
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    x = t.data
    if x.ndim != 2:
        raise ShapeError("batch_norm expects 2-d input")
    if training:
        rows = np.arange(x.shape[0]) if stats_rows is None else np.asarray(stats_rows)
        if rows.size < 2:
            raise ContractError(f"batch_norm needs at least 2 statistics rows, got {rows.size}")
        _check_rows(rows, x.shape[0], "batch_norm")     # numpy would wrap a negative one
        k = rows.shape[0]
        mu = _divide_count(np.add.reduce(x[rows], axis=0), k)
        xc = x - mu
        sq = xc[rows]
        var = _divide_count(np.add.reduce(np.square(sq, out=sq), axis=0), k)
        unbiased = var * (k / (k - 1))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        rows = None
        xc = x - running_mean.astype(x.dtype, copy=False)
        var = running_var.astype(x.dtype, copy=False)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gamma.data + beta.data, requires_grad=_track(t, gamma, beta))
    if out.requires_grad:
        def _bw():
            g = out.grad
            if beta.requires_grad:
                beta._acc(_unbroadcast(g, beta.data.shape))
            if gamma.requires_grad:
                gamma._acc(_unbroadcast(g * xhat, gamma.data.shape))
            if t.requires_grad:
                gx = g * gamma.data
                dx = gx * inv
                if training:
                    # mu and var were computed on the stats rows but feed
                    # every row's output; route those paths back to the
                    # stats rows only.
                    dmu = -(gx.sum(axis=0)) * inv
                    dvar = (gx * xc).sum(axis=0) * (-0.5) * inv ** 3
                    extra = (dmu + dvar * 2.0 * xc[rows]) / k
                    dx = dx + _scatter_rows(extra, rows, dx)
                t._acc(dx)
        out._backward, out._parents = _bw, (t, gamma, beta)
    return out


def normalize_rows(v, s, eps: float = 1e-6) -> Tensor:
    """Scale each row to length ``s``: row -> s * row / max(|row|, eps)."""
    v, s = as_tensor(v), as_tensor(s)
    x = v.data
    if x.ndim != 2:
        raise ShapeError("normalize_rows expects 2-d input")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    m = np.maximum(norms, eps)
    unit = x / m
    out = Tensor(s.data * unit, requires_grad=_track(v, s))
    if out.requires_grad:
        big = norms > eps
        def _bw():
            g = out.grad
            if s.requires_grad:
                s._acc(_unbroadcast(g * unit, s.data.shape))
            if v.requires_grad:
                sg = s.data * g
                proj = (x * sg).sum(axis=1, keepdims=True) / (m * m)
                dv = (sg - x * proj) / m
                dv_small = sg / m
                v._acc(np.where(big, dv, dv_small))
        out._backward, out._parents = _bw, (v, s)
    return out


# ---------------------------------------------------------------------------
# Losses and metrics


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy of row-softmaxed logits against integer labels."""
    logits = as_tensor(logits)
    labels = np.asarray(labels, dtype=np.int64)
    z = logits.data
    if z.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects 2-d logits")
    if labels.shape != (z.shape[0],):
        raise ShapeError(f"labels shape {labels.shape} for logits {z.shape}")
    zs = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - lse
    n = z.shape[0]
    loss_val = -logp[np.arange(n), labels].mean()
    out = Tensor(np.asarray(loss_val, dtype=z.dtype), requires_grad=_track(logits))
    if out.requires_grad:
        p = np.exp(logp)
        def _bw():
            g = p.copy()
            g[np.arange(n), labels] -= 1.0
            logits._acc(out.grad * g / n)
        out._backward, out._parents = _bw, (logits,)
    return out


def bce_with_logits(logits, targets) -> Tensor:
    """Mean binary cross-entropy on raw logits (numerically stable form)."""
    logits = as_tensor(logits)
    t = np.asarray(targets, dtype=logits.data.dtype)
    z = logits.data
    if z.shape != t.shape:
        raise ShapeError(f"targets shape {t.shape} != logits shape {z.shape}")
    loss_val = (np.maximum(z, 0) - z * t + np.log1p(np.exp(-np.abs(z)))).mean()
    out = Tensor(np.asarray(loss_val, dtype=z.dtype), requires_grad=_track(logits))
    if out.requires_grad:
        with np.errstate(over="ignore"):        # exp(-z) = inf gives sig = 0 exactly
            sig = 1.0 / (1.0 + np.exp(-z))
        def _bw():
            logits._acc(out.grad * (sig - t) / z.size)
        out._backward, out._parents = _bw, (logits,)
    return out


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Binary AUC via the rank statistic; 0.5 when one class is absent."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1)
    pos = labels == 1
    npos, nneg = int(pos.sum()), int((~pos).sum())
    if npos == 0 or nneg == 0:
        return 0.5
    if np.isnan(scores).any():
        return float("nan")         # no ranking, as scipy.stats.rankdata has none
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, a tie sharing the mean of its ranks: the
    half-integers ``scipy.stats.rankdata`` gives, bit for bit."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2.0, counts)
    return ranks


# ---------------------------------------------------------------------------
# Optimization


class CosineSchedule:
    """Cosine decay from base_lr to a 1% floor, with optional linear warmup."""

    def __init__(self, base_lr: float, total_epochs: int, warmup: int = 0,
                 min_ratio: float = 0.01):
        if total_epochs < 1:
            raise ContractError("schedule needs at least one epoch")
        if warmup >= total_epochs:
            raise ContractError("warmup must be shorter than the run")
        self.base_lr = base_lr
        self.total_epochs = total_epochs
        self.warmup = warmup
        self.min_ratio = min_ratio

    def lr_at(self, epoch: int) -> float:
        """Learning rate for 1-indexed ``epoch``; the last epoch hits the floor."""
        if epoch <= self.warmup:
            return self.base_lr * epoch / self.warmup
        span = max(self.total_epochs - self.warmup, 1)
        progress = (epoch - self.warmup) / span
        factor = 0.5 * (1.0 + np.cos(np.pi * progress))
        return self.base_lr * max(factor, self.min_ratio)


class AdamW:
    """AdamW with decoupled weight decay over a named parameter list.

    The parameters live in one flat arena: construction copies them, in
    list order, into one contiguous buffer and makes each ``p.data`` a
    view of its slice, so the list must share one dtype.  The moments
    ``m`` and ``v`` are flat arrays over the same offsets.  A step copies
    the gradients into a flat buffer and updates the whole arena with one
    set of ufuncs.  Every parameter must have a gradient: a missing one is
    a ContractError naming it, and one finiteness check over the gradients
    follows, so a DivergenceError names the first parameter with a
    non-finite gradient.  Either leaves every value, both moments and
    ``step_count`` as they were.
    """

    def __init__(self, named_params, schedule: CosineSchedule,
                 weight_decay: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        dtypes = {p.data.dtype for _, p in self.named_params}
        if len(dtypes) > 1:
            raise ContractError(f"AdamW needs one parameter dtype, got {sorted(map(str, dtypes))}")
        self.schedule = schedule
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.offsets = np.cumsum([0] + [p.data.size for _, p in self.named_params]).tolist()
        self.flat = np.zeros(self.offsets[-1], dtype=dtypes.pop() if dtypes else np.float32)
        for (_, p), lo, hi in zip(self.named_params, self.offsets, self.offsets[1:]):
            self.flat[lo:hi] = p.data.ravel()
            p.data = self.flat[lo:hi].reshape(p.data.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._grad = np.zeros_like(self.flat)

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def step(self, epoch: int) -> float:
        """One update at the scheduled rate for ``epoch``; returns the lr used."""
        for name, p in self.named_params:
            if p.grad is None:
                raise ContractError(f"no gradient for {name!r}: every parameter needs one")
        g = self._grad
        np.concatenate([p.grad for _, p in self.named_params], axis=None, out=g)
        if not np.isfinite(g).all():
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            name = self.named_params[int(np.searchsorted(self.offsets, bad, side="right")) - 1][0]
            raise DivergenceError(f"non-finite gradient in {name!r}")
        lr = self.schedule.lr_at(epoch)
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        m, v, w = self.m, self.v, self.flat
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        w -= (lr * (mhat / (np.sqrt(vhat) + self.eps)
                    + self.weight_decay * w)).astype(w.dtype)
        return lr


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, named_arrays: dict) -> None:
    """Every array under its name and in its own dtype, as an npz archive
    written atomically."""
    # through a handle: np.savez appends .npz to a file name that lacks it
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        np.savez(fh, **named_arrays)


def load_checkpoint(path) -> dict:
    """The arrays ``save_checkpoint`` wrote (see ``load_npz``)."""
    return load_npz(path, "checkpoint")


def load_npz(path, what: str) -> dict:
    """The arrays of the npz archive at ``path``, read without unpickling, or a
    FormatError naming ``path`` as no readable ``what``."""
    with open(path, "rb") as fh:
        try:
            z = np.load(fh, allow_pickle=False)
            if not isinstance(z, np.lib.npyio.NpzFile):
                raise ValueError("one array, not an archive")
            with z:
                return {name: z[name] for name in z.files}
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise FormatError(f"{path}: not a readable {what} ({exc})") from None
