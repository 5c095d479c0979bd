"""Graphs, expander overlays, and typed attention patterns.

A ``Graph`` is an undirected graph in CSR form plus node features, labels
and a train/val/test split.  An ``ExpanderGraph`` is a union of random
Hamiltonian cycles certified to have a two-sided spectral gap; overlaying
it on the input graph gives every node a bounded number of long-range
attention edges without a dense pattern.  ``augment`` combines graph
edges, expander edges and per-node self-loops into the edge-typed
``AttentionPattern`` that both training phases attend over.

File formats kept deliberately plain: edge lists are two tab-separated
ids per line ('#' starts a comment), features and labels are headerless
CSV, expanders round-trip through JSON so a certified overlay can be
reused across runs.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import rngutil
from .errors import (ContractError, ConvergenceError, ExpanderGapError, FormatError,
                     ShapeError)

TRAIN, VAL, TEST = 0, 1, 2
_SPLIT_NAMES = {"train": TRAIN, "val": VAL, "test": TEST}


class EdgeType(IntEnum):
    """Attention-edge provenance; numeric order doubles as dedup priority."""

    GRAPH = 0
    EXPANDER = 1
    SELF_LOOP = 2


@dataclass(frozen=True)
class Graph:
    """Undirected graph in CSR form with per-node features/labels/split.

    ``labels`` is a 1-d class-id array, or a 2-d 0/1 matrix for
    multi-label tasks.  ``split`` holds TRAIN/VAL/TEST codes.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    features: np.ndarray
    labels: np.ndarray
    split: np.ndarray

    @property
    def num_edges(self) -> int:
        """Directed edge count (each undirected edge stored twice)."""
        return int(self.col_idx.shape[0])

    def split_idx(self, which: int) -> np.ndarray:
        return np.flatnonzero(self.split == which)


def _row_ptr(n: int, src: np.ndarray) -> np.ndarray:
    """CSR row pointers of entries whose sorted row ids are ``src``."""
    row_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_ptr[1:])
    return row_ptr


def sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b)`` by one sort of the concatenation; on plan-sized
    arrays numpy's hashing ``unique`` takes about ten times as long."""
    both = np.concatenate((a, b))
    both.sort()
    return both[np.concatenate(([True], both[1:] != both[:-1]))]


def edges_to_csr(n: int, src: np.ndarray, dst: np.ndarray):
    """Sorted, deduplicated, symmetric CSR from an undirected edge list: every
    edge is mirrored."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ShapeError("src and dst lengths differ")
    if src.size and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise ContractError("edge endpoint out of range")
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    if src.size:
        key = src * np.int64(n) + dst
        key = np.unique(key)
        src, dst = key // n, key % n
    return _row_ptr(n, src), dst.astype(np.int64)


def _parse_edge_tsv(path, n: int, columns=("src", "dst")) -> np.ndarray:
    """(columns x edges) int64 array of a tab-separated edge file.

    The first two columns are node ids in [0, n); a third is an
    ``EdgeType``.  A malformed line, a non-integer field or a value out of
    range raises FormatError naming ``path:line``.
    """
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != len(columns):
                raise FormatError(f"{path}:{lineno}: expected "
                                  f"'{'<TAB>'.join(columns)}', got {line!r}")
            try:
                rows.append([int(p) for p in parts])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: non-integer field") from None
            linenos.append(lineno)
    fields = np.array(rows, dtype=np.int64).reshape(-1, len(columns)).T.copy()
    bad_id = ((fields[:2] < 0) | (fields[:2] >= n)).any(axis=0)
    bad_type = ((fields[2:] < 0) | (fields[2:] >= len(EdgeType))).any(axis=0)
    bad = np.flatnonzero(bad_id | bad_type)
    if bad.size:
        i = bad[0]
        what = (f"node id out of range for n={n}" if bad_id[i]
                else f"edge type {fields[2, i]} outside [0, {len(EdgeType)})")
        raise FormatError(f"{path}:{linenos[i]}: {what}")
    return fields


def load_graph(edge_list_path, features_path, labels_path, n: int,
               split_path=None) -> Graph:
    """Read a graph from its on-disk parts.

    Node ids outside [0, n) raise FormatError naming the line, and a
    non-numeric feature or label cell one naming the file; a feature or
    label row count other than n raises ShapeError.  Without a split
    file every node is marked TRAIN.
    """
    src, dst = _parse_edge_tsv(edge_list_path, n)
    row_ptr, col_idx = edges_to_csr(n, src, dst)

    features = _load_table(features_path, np.float64, ndmin=2)
    if features.shape[0] != n:
        raise ShapeError(f"{features_path}: {features.shape[0]} feature rows for n={n}")
    labels = _load_table(labels_path, np.int64, ndmin=1)
    if labels.shape[0] != n:
        raise ShapeError(f"{labels_path}: {labels.shape[0]} label rows for n={n}")

    if split_path is None:
        split = np.zeros(n, dtype=np.int8)
    else:
        split = _parse_split(split_path, n)
    return Graph(n=n, row_ptr=row_ptr, col_idx=col_idx,
                 features=features, labels=labels, split=split)


def _load_table(path, dtype, ndmin: int) -> np.ndarray:
    # a cell that does not parse as ``dtype`` is a FormatError naming the file
    try:
        return np.loadtxt(path, delimiter=",", ndmin=ndmin, dtype=dtype)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_split(path, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.int8)
    with open(path) as fh:
        rows = [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]
    if len(rows) != n:
        raise ShapeError(f"{path}: {len(rows)} split rows for n={n}")
    for i, token in enumerate(rows):
        token = token.lower()
        if token not in _SPLIT_NAMES:
            raise FormatError(f"{path}: row {i}: unknown split tag {token!r}")
        out[i] = _SPLIT_NAMES[token]
    return out


def save_split(path, split: np.ndarray) -> None:
    names = {v: k for k, v in _SPLIT_NAMES.items()}
    with atomic_path(path) as tmp, open(tmp, "w") as fh:
        for s in split:
            fh.write(names[int(s)] + "\n")


# ---------------------------------------------------------------------------
# Expander overlay


@dataclass(frozen=True)
class ExpanderGraph:
    """Union of random Hamiltonian cycles with a certified spectral gap.

    ``cycles`` stores the node orderings themselves so a saved expander
    reconstructs its edges without replaying any PRNG.  ``degree`` is the
    nominal regular degree 2 * len(cycles); the collapsed simple graph
    can have slightly smaller degrees where cycles overlap.
    """

    n: int
    seed: int
    cycles: tuple
    gap: float

    @property
    def degree(self) -> int:
        return 2 * len(self.cycles)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Row pointers and sorted, deduplicated columns of the collapsed simple graph."""
        srcs, dsts = [], []
        for cyc in self.cycles:
            cyc = np.asarray(cyc, dtype=np.int64)
            nxt = np.roll(cyc, -1)
            srcs.append(cyc)
            dsts.append(nxt)
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        return edges_to_csr(self.n, src, dst)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated symmetric edge arrays of the collapsed simple graph."""
        row_ptr, col_idx = self.csr()
        rs = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(row_ptr))
        return rs, col_idx

    def to_dict(self) -> dict:
        return {"n": self.n, "seed": self.seed, "gap": self.gap,
                "cycles": [np.asarray(c).tolist() for c in self.cycles]}

    @classmethod
    def from_json(cls, text: str) -> "ExpanderGraph":
        obj = json.loads(text)
        cycles = tuple(np.asarray(c, dtype=np.int64) for c in obj["cycles"])
        return cls(n=int(obj["n"]), seed=int(obj["seed"]), cycles=cycles,
                   gap=float(obj["gap"]))


def _finite(obj):
    """``obj`` with every non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


@contextmanager
def atomic_path(path):
    """A temp path beside ``path``, moved onto it with ``os.replace`` when
    the block ends; a block that raises leaves ``path`` whole and no temp
    file behind."""
    tmp = Path(f"{path}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path, obj) -> None:
    """Indented, key-sorted, strict JSON (non-finite floats become null),
    serialised before any file is touched and written atomically."""
    text = json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    with atomic_path(path) as tmp:
        tmp.write_text(text)


def has_json_type(value, kind) -> bool:
    """``value``, read from JSON, fits a field whose default is a ``kind``:
    a bool only a bool field, an int an int field but no bool does, an int
    or a float a float field, and an instance of ``kind`` any other."""
    return (isinstance(value, bool) == (kind is bool)
            and isinstance(value, (int, float) if kind is float else kind))


def save_expander(path, x: ExpanderGraph) -> None:
    write_json(path, x.to_dict())


def load_expander(path) -> ExpanderGraph:
    return ExpanderGraph.from_json(Path(path).read_text())


# The largest-magnitude Ritz value counts as converged once its Ritz residual
# |beta_j s_j| is at most _GAP_TOL * |theta|; the gap then sits within ~1e-14
# of a dense symmetric solve.  Diagonalising the tridiagonal matrix costs more
# than a Lanczos step, so the test runs every _GAP_CHECK_EVERY steps (and when
# beta vanishes).  Expanders converge within 250 steps at n=4000; a long cycle
# needs about n/2, so past _GAP_MAX_STEPS the solve gives up.
_GAP_TOL = 1e-10
_GAP_CHECK_EVERY = 50
_GAP_MAX_STEPS = 1000


def spectral_gap(row_ptr, col_idx, weights) -> float:
    """Two-sided spectral gap 1 - max(lambda_2, |lambda_n|) of D^-1/2 A D^-1/2,
    for the symmetric adjacency A held as CSR arrays: row pointers, columns
    and one weight per entry.

    One exact solver at every size: a three-term Lanczos recurrence, in
    numpy and without reorthogonalisation, on the normalized adjacency with
    its top eigenpair (eigenvalue 1, eigenvector sqrt(deg)) deflated; each
    product runs scipy's compiled ``csr_matvec``, the kernel of
    ``csr_matrix @ vector``.  Its largest-magnitude Ritz value is
    max(lambda_2, |lambda_n|); converged Ritz values stay accurate in
    finite precision (Paige 1980).  The start vector is fixed, so the gap
    is a pure function of the graph.  A beta that vanishes (n=2, K4, C6)
    means the Krylov space is exhausted and its Ritz values are
    eigenvalues: the solve stops there.  Disconnected or bipartite graphs
    read ~0, possibly -1e-16.

    Each row's columns must be sorted and distinct (``edges_to_csr``
    output): symmetry is checked entry by entry against the transpose, so
    a row out of order or an entry repeated is a ContractError.  So are
    fewer than 2 nodes, an isolated node, a non-finite weight and an
    asymmetric A; arrays that are no CSR matrix are a ShapeError, and no
    convergence within ``_GAP_MAX_STEPS`` steps is a ConvergenceError.
    """
    n = len(row_ptr) - 1
    if n < 2:
        raise ContractError("spectral gap needs at least 2 nodes")
    v1, matvec = _normalized(row_ptr, col_idx, weights)
    q = rngutil.derive(0, 0xDE).standard_normal(n)
    q -= v1 * (v1 @ q)
    q /= np.linalg.norm(q)
    prev = np.zeros(n)
    alphas, betas = [], []
    beta = amax = 0.0
    for step in range(1, _GAP_MAX_STEPS + 1):
        w = matvec(q)
        w -= v1 * (v1 @ q)
        w -= beta * prev
        alpha = float(q @ w)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        amax = max(amax, abs(alpha))
        # beta <= tol * max|alpha| <= tol * |theta| passes the test below:
        # with beta = 0 it always does, so nothing divides by zero
        if (beta <= _GAP_TOL * amax or step % _GAP_CHECK_EVERY == 0
                or step == _GAP_MAX_STEPS):
            theta, last = _extreme_ritz(alphas, betas)
            if abs(beta * last) <= _GAP_TOL * abs(theta):
                return float(1.0 - abs(theta))
        betas.append(beta)
        prev, q = q, w / beta
    raise ConvergenceError(
        f"spectral gap: no Ritz value converged in {_GAP_MAX_STEPS} Lanczos steps "
        f"(n={n})")


def _normalized(row_ptr, col_idx, weights):
    """(unit sqrt(deg), x -> D^-1/2 A D^-1/2 x) of the CSR adjacency A, once it
    passes the checks ``spectral_gap`` promises.  The product adds each row's
    terms in storage order, as scipy's ``csr_matrix(dinv @ adj @ dinv) @ x``
    does, and each weight is rounded as that matrix rounds it."""
    from .numerics import _sparsetools      # numerics imports this module
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    col_idx = np.asarray(col_idx, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n, nnz = row_ptr.shape[0] - 1, col_idx.shape[0]
    if (row_ptr.ndim != 1 or col_idx.ndim != 1 or weights.shape != col_idx.shape
            or row_ptr[0] != 0 or row_ptr[-1] != nnz or np.any(np.diff(row_ptr) < 0)):
        raise ShapeError(f"spectral gap needs CSR arrays, got {row_ptr.shape} row pointers "
                         f"from {row_ptr[0]} to {row_ptr[-1]}, {col_idx.shape} columns and "
                         f"{weights.shape} weights")
    if not np.isfinite(weights).all():
        raise ContractError("spectral gap needs finite edge weights")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
    # a stable sort by column lists the transpose's entries in row-major
    # order; A equals it entry for entry only if A is symmetric and every
    # row's columns ascend, and then equal neighbours are repeated entries
    order = np.argsort(col_idx, kind="stable")
    if not (np.array_equal(col_idx[order], rows) and np.array_equal(rows[order], col_idx)
            and np.array_equal(weights[order], weights)):
        raise ContractError("spectral gap needs a symmetric adjacency with each row's "
                            "columns sorted")
    if np.any((col_idx[1:] == col_idx[:-1]) & (rows[1:] == rows[:-1])):
        raise ContractError("spectral gap needs distinct columns in each row")
    deg = np.bincount(rows, weights=weights, minlength=n)
    if np.any(deg <= 0):
        raise ContractError("normalized adjacency undefined for isolated nodes")
    dinv = 1.0 / np.sqrt(deg)
    norm = (dinv[rows] * weights) * dinv[col_idx]
    kernel = _sparsetools.csr_matvec

    def matvec(x):
        y = np.zeros(n)
        kernel(n, n, row_ptr, col_idx, norm, x, y)
        return y

    v1 = np.sqrt(deg)
    v1 /= np.linalg.norm(v1)
    return v1, matvec


def _extreme_ritz(alphas, betas) -> tuple[float, float]:
    """The largest-magnitude eigenvalue of the Lanczos tridiagonal matrix and
    the last entry of its unit eigenvector."""
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    theta, s = np.linalg.eigh(t)
    top = int(np.argmax(np.abs(theta)))
    return float(theta[top]), float(s[-1, top])


def build_expander(n: int, num_cycles: int, min_gap: float = 0.05,
                   max_retries: int = 20, seed: int = 0) -> ExpanderGraph:
    """Random Hamiltonian-cycle union with gap >= min_gap, or ExpanderGapError.

    Each retry draws its cycles from a fresh sub-seeded stream, so the
    result is a pure function of (n, num_cycles, seed) and the number of
    failed attempts.  A single cycle is an honest degenerate case: C_n is
    (near-)bipartite, so it fails any positive min_gap for even n, but
    above about 2000 nodes its gap solve stops first, with the
    ConvergenceError of ``spectral_gap``.
    """
    if n < 2:
        raise ContractError("expander needs at least 2 nodes")
    if num_cycles < 1:
        raise ContractError("need at least one cycle")
    best = -np.inf
    for attempt in range(max_retries):
        rng = rngutil.derive(seed, rngutil.TAG_EXPANDER, attempt)
        cycles = tuple(rng.permutation(n).astype(np.int64) for _ in range(num_cycles))
        row_ptr, col_idx = ExpanderGraph(n=n, seed=seed, cycles=cycles, gap=0.0).csr()
        gap = spectral_gap(row_ptr, col_idx, np.ones(col_idx.shape[0]))
        if gap >= min_gap:
            return ExpanderGraph(n=n, seed=seed, cycles=cycles, gap=float(gap))
        best = max(best, gap)
    raise ExpanderGapError(
        f"no expander with gap >= {min_gap} in {max_retries} attempts "
        f"(best {best:.4f})", best_gap=float(best))


# ---------------------------------------------------------------------------
# Attention pattern


@dataclass(frozen=True)
class PatternLayer:
    """One layer's attention support: CSR plus an edge-type tag per entry,
    and one attention score per entry (``values``) once it has been scored."""

    row_ptr: np.ndarray
    col_idx: np.ndarray
    edge_type: np.ndarray
    values: np.ndarray | None = None

    @property
    def nnz(self) -> int:
        return int(self.col_idx.shape[0])


@dataclass(frozen=True)
class AttentionPattern:
    """Per-layer attention supports over n nodes.

    Augmentation produces identical layers (the same PatternLayer object
    repeated), but the container allows them to differ.  A score set is
    a pattern whose layers carry values: the estimator's attention rows
    over the support it attended, which the final phase samples from.
    """

    n: int
    layers: tuple

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def m_aug(self) -> int:
        """Directed edge count of a single layer's support."""
        return self.layers[0].nnz


def augment(g: Graph, x: ExpanderGraph, layers: int) -> AttentionPattern:
    """Graph edges + expander edges + one self-loop per node, typed.

    A coincident pair keeps the highest-priority type: GRAPH beats
    EXPANDER beats SELF_LOOP.  Every layer shares the same support.
    """
    if x.n != g.n:
        raise ShapeError(f"expander on {x.n} nodes, graph on {g.n}")
    if layers < 1:
        raise ContractError("need at least one layer")
    n = g.n
    g_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_ptr))
    e_src, e_dst = x.edge_arrays()
    loop = np.arange(n, dtype=np.int64)
    src = np.concatenate([g_src, e_src, loop])
    dst = np.concatenate([g.col_idx, e_dst, loop])
    typ = np.concatenate([
        np.full(g_src.shape[0], EdgeType.GRAPH, dtype=np.int8),
        np.full(e_src.shape[0], EdgeType.EXPANDER, dtype=np.int8),
        np.full(n, EdgeType.SELF_LOOP, dtype=np.int8),
    ])
    order = np.lexsort((typ, dst, src))
    src, dst, typ = src[order], dst[order], typ[order]
    key = src * np.int64(n) + dst
    keep = np.ones(key.shape[0], dtype=bool)
    keep[1:] = key[1:] != key[:-1]   # first of each duplicate run has lowest type
    src, dst, typ = src[keep], dst[keep], typ[keep]
    layer = PatternLayer(row_ptr=_row_ptr(n, src), col_idx=dst, edge_type=typ)
    return AttentionPattern(n=n, layers=tuple([layer] * layers))


def save_pattern(path, pattern: AttentionPattern) -> None:
    """Single-layer support as 'src<TAB>dst<TAB>type' lines."""
    layer = pattern.layers[0]
    n = pattern.n
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(layer.row_ptr))
    with atomic_path(path) as tmp, open(tmp, "w") as fh:
        fh.write(f"# attention pattern n={n}\n")
        for s, d, t in zip(src, layer.col_idx, layer.edge_type):
            fh.write(f"{s}\t{d}\t{int(t)}\n")


def load_pattern(path, n: int, layers: int) -> AttentionPattern:
    """A support written by ``save_pattern``, repeated over ``layers``."""
    edges = _parse_edge_tsv(path, n, ("src", "dst", "type"))
    src, dst, typ = edges[:, np.lexsort((edges[1], edges[0]))]
    layer = PatternLayer(row_ptr=_row_ptr(n, src), col_idx=dst,
                         edge_type=typ.astype(np.int8))
    return AttentionPattern(n=n, layers=tuple([layer] * layers))
