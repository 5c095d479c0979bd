"""Reverse-mode automatic differentiation on numpy arrays.

The tape is the closure graph: each op returns a Tensor holding its
inputs and a backward closure, and ``backward`` walks the graph in
reverse topological order accumulating gradients.  Once a node's closure
has run, ``backward`` drops the closure, the parent links and the node's
gradient, so the tape is freed as soon as it has been walked; only
leaves keep their ``grad``.  Arrays are at most 3-d; training runs in
float32 and gradient checking in float64 (ops preserve whatever dtype
their inputs carry).

An attention head is one node, ``edge_attention``, that works on the
live edges of a CSR edge list and has a hand-written backward.  Every
scatter-add in a backward goes through a sparse operator: a CSC matrix
whose column j holds a single 1 in row idx[j].  scipy applies it column
by column into a zeroed output, so every row sums its gradients in index
order starting from 0: the same bits as adding them one at a time.

Also here because trainers need them next to the tape: the fused losses,
AdamW with a cosine learning-rate schedule, and the binary checkpoint
format.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager

import numpy as np
from scipy.sparse import _sparsetools

from .errors import ContractError, DivergenceError, FormatError, ShapeError
from .graphs import atomic_path

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
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # light sugar so network code reads like the math
    def __add__(self, other):
        return add(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


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


def _check_rows(idx: np.ndarray, rows: int, op: str) -> None:
    """IndexError naming ``op`` unless every index lies in [0, rows)."""
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        bad = idx[(idx < 0) | (idx >= rows)][0]
        raise IndexError(f"{op}: index {bad} outside [0, {rows})")


def _spmm(fmt: str, ptr, idx, vals, dense, rows: int) -> np.ndarray:
    """The (rows x len(dense)) ``fmt`` ("csr" or "csc") matrix of ``ptr``, ``idx`` and
    ``vals`` times ``dense``, by the kernel scipy runs for ``matrix @ dense`` minus the
    matrix object, which costs more than the product on plan blocks.  Callers check indices."""
    if ptr.shape != ((rows if fmt == "csr" else dense.shape[0]) + 1,) \
            or idx.shape != vals.shape or idx.shape[0] < ptr[-1]:
        raise ShapeError(f"{fmt}: {ptr.shape} ptr, {idx.shape} idx, {rows} rows, {dense.shape}")
    itype = np.int32 if ptr.dtype == idx.dtype == np.int32 else np.int64
    dtype = np.result_type(vals, dense)
    out = np.zeros((rows,) + dense.shape[1:], dtype=dtype)
    getattr(_sparsetools, f"{fmt}_matvecs")(
        rows, dense.shape[0], int(np.prod(dense.shape[1:])), ptr.astype(itype, copy=False),
        idx.astype(itype, copy=False), vals.astype(dtype, copy=False),
        dense.astype(dtype, copy=False).ravel(), out.ravel())
    return out


def _scatter_rows(src: np.ndarray, idx: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Zeros shaped like ``like`` with ``src[j]`` added to row ``idx[j]``, in order of j;
    IndexError unless every index lies in [0, rows): the kernel writes where they point."""
    rows, m = like.shape[0], idx.shape[0]
    _check_rows(idx, rows, "scatter")
    return _spmm("csc", np.arange(m + 1), idx, np.ones(m, dtype=like.dtype), src, rows)


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


def edge_attention(q, k, v, emap, bias, row_ptr, cols, types, scale: float,
                   temperature: float = 1.0, clip: float = 8.0):
    """One attention head over a CSR edge list, as a single tape node.

    Query i attends over edges e in ``row_ptr[i]:row_ptr[i+1]``, each
    reading row ``cols[e]`` of ``k`` and ``v`` and, by type, a row of
    ``emap`` (t, w) and ``bias`` (t, 1):
        logit_e = scale * (q_i * emap[types[e]]) . k[cols[e]] + bias[types[e]]
    The weights are each row's softmax of clip(logit) / temperature and the
    output is CSR(weights) @ v.  q * emap is formed once per type, so the
    logits are one dot per edge; the backward is written out by hand.  A
    clipped logit passes no gradient.  A row without edges is a
    ContractError, a column or type outside its table an IndexError.
    Returns (out (queries, w), weights).
    """
    q, k, v, emap, bias = (as_tensor(x) for x in (q, k, v, emap, bias))
    row_ptr, cols, types = np.asarray(row_ptr), np.asarray(cols), np.asarray(types)
    (nq, w), n, t = q.data.shape, k.data.shape[0], emap.data.shape[0]
    if (k.data.shape, v.data.shape, emap.data.shape, bias.data.shape, row_ptr.shape,
            types.shape) != ((n, w), (n, w), (t, w), (t, 1), (nq + 1,), cols.shape) \
            or row_ptr[0] != 0 or cols.shape != (row_ptr[-1],):
        raise ShapeError(f"edge_attention shapes: {[x.data.shape for x in (q, k, v, emap, bias)]}"
                         f", row_ptr {row_ptr.shape}, cols {cols.shape}, types {types.shape}")
    if temperature <= 0:
        raise ContractError(f"temperature must be positive, got {temperature}")
    lengths = np.diff(row_ptr)
    if nq and lengths.min() < 1:
        raise ContractError(f"edge_attention: query row {np.argmin(lengths)} has no live slots")
    _check_rows(cols, n, "edge_attention")
    _check_rows(types, t, "edge_attention")
    rows, starts = np.repeat(np.arange(nq), lengths), row_ptr[:-1]
    qe = (emap.data[:, None, :] * q.data).reshape(t * nq, w)     # row j * nq + i: q_i * emap_j
    qe_idx = types * np.intp(nq) + rows
    # np.take copies the rows fancy indexing would, several times faster
    qg, kg = np.take(qe, qe_idx, axis=0), np.take(k.data, cols, axis=0)
    scale = q.data.dtype.type(scale)
    logits = np.einsum("ew,ew->e", qg, kg) * scale + np.take(bias.data[:, 0], types)
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
            dy = np.einsum("ew,ew->e", np.take(g, rows, axis=0), np.take(v.data, cols, axis=0))
            dz = y * (dy - np.take(np.add.reduceat(dy * y, starts), rows)) / temperature
            dlogit = np.where(inside, dz, 0)
            if bias.requires_grad:
                bias._acc(np.bincount(types, weights=dlogit, minlength=t)[:, None])
            dlogit *= scale
            if k.requires_grad:
                k._acc(_scatter_rows(dlogit[:, None] * qg, cols, k.data))
            if q.requires_grad or emap.requires_grad:
                dqe = _scatter_rows(dlogit[:, None] * kg, qe_idx, qe).reshape(t, nq, w)
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


def mean_all(t) -> Tensor:
    t = as_tensor(t)
    out = Tensor(np.asarray(t.data.mean(), dtype=t.data.dtype), requires_grad=_track(t))
    if out.requires_grad:
        def _bw():
            t._acc(np.full_like(t.data, out.grad / t.data.size))
        out._backward, out._parents = _bw, (t,)
    return out


def layer_norm(t, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Per-row normalization with learnable scale and shift."""
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    x = t.data
    if x.ndim != 2:
        raise ShapeError("layer_norm expects 2-d input")
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
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
    running buffers are updated in place.  Evaluation normalizes with the
    running buffers only, so a node's output never depends on what else
    is in its batch.
    """
    t, gamma, beta = as_tensor(t), as_tensor(gamma), as_tensor(beta)
    x = t.data
    if x.ndim != 2:
        raise ShapeError("batch_norm expects 2-d input")
    if training:
        rows = np.arange(x.shape[0]) if stats_rows is None else np.asarray(stats_rows)
        if rows.size == 0:
            raise ContractError("batch_norm with empty statistics row set")
        xs = x[rows]
        mu = xs.mean(axis=0)
        var = xs.var(axis=0)
        k = xs.shape[0]
        unbiased = var * (k / (k - 1)) if k > 1 else var
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mu
        running_var *= (1.0 - momentum)
        running_var += momentum * unbiased
    else:
        rows = None
        mu = running_mean
        var = running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
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
                    k = rows.shape[0]
                    dmu = -(gx.sum(axis=0)) * inv
                    dvar = (gx * (x - mu)).sum(axis=0) * (-0.5) * inv ** 3
                    extra = (dmu + dvar * 2.0 * (x[rows] - mu)) / k
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
    import scipy.stats
    ranks = scipy.stats.rankdata(scores)
    return float((ranks[pos].sum() - npos * (npos + 1) / 2.0) / (npos * nneg))


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
    """AdamW with decoupled weight decay over a named parameter list."""

    def __init__(self, named_params, schedule: CosineSchedule,
                 weight_decay: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        self.schedule = schedule
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.grad = None

    def step(self, epoch: int) -> float:
        """One update at the scheduled rate for ``epoch``; returns the lr used."""
        lr = self.schedule.lr_at(epoch)
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for name, p in self.named_params:
            if p.grad is None:
                continue
            g = p.grad
            if not np.isfinite(g).all():
                raise DivergenceError(f"non-finite gradient in {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            p.data -= (lr * (mhat / (np.sqrt(vhat) + self.eps)
                             + self.weight_decay * p.data)).astype(p.data.dtype)
        return lr


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"SGTCKPT\x00"
_CKPT_VERSION = 1


def save_checkpoint(path, named_arrays: dict) -> None:
    """Binary dump: magic, version, count, then name/dims/float32-LE data,
    written atomically."""
    with atomic_path(path) as tmp, open(tmp, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(named_arrays)))
        for name, arr in named_arrays.items():
            arr = np.asarray(arr, dtype="<f4")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            fh.write(np.ascontiguousarray(arr).tobytes())


def load_checkpoint(path) -> dict:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _CKPT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version, count = struct.unpack_from("<II", blob, 8)
    if version != _CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    off = 16
    out = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off); off += 2
            name = blob[off:off + nlen].decode("utf-8"); off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off); off += 1
            dims = struct.unpack_from(f"<{ndim}I", blob, off); off += 4 * ndim
            size = int(np.prod(dims)) if ndim else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off)
            off += 4 * size
            out[name] = arr.reshape(dims).copy()
    except (struct.error, ValueError) as exc:
        raise FormatError(f"{path}: truncated checkpoint ({exc})") from None
    return out
