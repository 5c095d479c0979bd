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
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

from . import rngutil
from .errors import ContractError, ExpanderGapError, FormatError, ShapeError

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

    def row(self, i: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[i]:self.row_ptr[i + 1]]

    def adjacency(self) -> sp.csr_matrix:
        data = np.ones(self.col_idx.shape[0], dtype=np.float64)
        return sp.csr_matrix((data, self.col_idx, self.row_ptr), shape=(self.n, self.n))

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


def edges_to_csr(n: int, src: np.ndarray, dst: np.ndarray, symmetrize: bool = True):
    """Sorted, deduplicated CSR from an edge list.

    Symmetrization mirrors every edge, which is the right reading for the
    undirected inputs this package consumes.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ShapeError("src and dst lengths differ")
    if src.size and (src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n):
        raise ContractError("edge endpoint out of range")
    if symmetrize:
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
               split_path=None, symmetrize: bool = True) -> Graph:
    """Read a graph from its on-disk parts.

    Node ids outside [0, n) raise FormatError naming the line; a feature
    or label row count other than n raises ShapeError.  Without a split
    file every node is marked TRAIN.
    """
    src, dst = _parse_edge_tsv(edge_list_path, n)
    row_ptr, col_idx = edges_to_csr(n, src, dst, symmetrize=symmetrize)

    features = np.loadtxt(features_path, delimiter=",", ndmin=2, dtype=np.float64)
    if features.shape[0] != n:
        raise ShapeError(f"{features_path}: {features.shape[0]} feature rows for n={n}")
    labels = np.loadtxt(labels_path, delimiter=",", dtype=np.int64)
    labels = np.atleast_1d(labels)
    if labels.shape[0] != n:
        raise ShapeError(f"{labels_path}: {labels.shape[0]} label rows for n={n}")

    if split_path is None:
        split = np.zeros(n, dtype=np.int8)
    else:
        split = _parse_split(split_path, n)
    return Graph(n=n, row_ptr=row_ptr, col_idx=col_idx,
                 features=features, labels=labels, split=split)


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

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated symmetric edge arrays of the collapsed simple graph."""
        srcs, dsts = [], []
        for cyc in self.cycles:
            cyc = np.asarray(cyc, dtype=np.int64)
            nxt = np.roll(cyc, -1)
            srcs.append(cyc)
            dsts.append(nxt)
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
        row_ptr, col_idx = edges_to_csr(self.n, src, dst, symmetrize=True)
        rs = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(row_ptr))
        return rs, col_idx

    def adjacency(self) -> sp.csr_matrix:
        src, dst = self.edge_arrays()
        data = np.ones(src.shape[0], dtype=np.float64)
        return sp.csr_matrix((data, (src, dst)), shape=(self.n, self.n))

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


def save_expander(path, x: ExpanderGraph) -> None:
    write_json(path, x.to_dict())


def load_expander(path) -> ExpanderGraph:
    return ExpanderGraph.from_json(Path(path).read_text())


# ARPACK's relative tolerance on the deflated eigenvalue: it leaves the gap
# within ~1e-14 of a dense symmetric solve.
_GAP_TOL = 1e-10


def spectral_gap(adj) -> float:
    """Two-sided spectral gap 1 - max(lambda_2, |lambda_n|) of D^-1/2 A D^-1/2.

    One exact solver at every size: ARPACK (``eigsh``) finds the
    largest-magnitude eigenvalue of the normalized adjacency with its top
    eigenpair (eigenvalue 1, eigenvector sqrt(deg)) deflated, which is
    max(lambda_2, |lambda_n|).  The start vector is fixed, so the gap is a
    pure function of the graph.  Disconnected or bipartite graphs read ~0,
    possibly -1e-16.  Fewer than 2 nodes, an isolated node or an
    asymmetric ``adj`` is a ContractError; ARPACK's failure to converge
    propagates.
    """
    adj = sp.csr_matrix(adj, dtype=np.float64)
    n = adj.shape[0]
    if n < 2:
        raise ContractError("spectral gap needs at least 2 nodes")
    if (adj != adj.T).nnz:
        raise ContractError("spectral gap needs a symmetric adjacency")
    deg = np.asarray(adj.sum(axis=1)).ravel()
    if np.any(deg <= 0):
        raise ContractError("normalized adjacency undefined for isolated nodes")
    dinv = sp.diags(1.0 / np.sqrt(deg))
    norm = sp.csr_matrix(dinv @ adj @ dinv)
    v1 = np.sqrt(deg)
    v1 /= np.linalg.norm(v1)
    op = LinearOperator((n, n), dtype=np.float64,
                        matvec=lambda x: norm @ x - v1 * (v1 @ x))
    v0 = rngutil.derive(0, 0xDE).standard_normal(n)
    v0 -= v1 * (v1 @ v0)
    (radius,) = eigsh(op, k=1, which="LM", tol=_GAP_TOL, v0=v0,
                      return_eigenvectors=False)
    return float(1.0 - abs(radius))


def build_expander(n: int, num_cycles: int, min_gap: float = 0.05,
                   max_retries: int = 20, seed: int = 0) -> ExpanderGraph:
    """Random Hamiltonian-cycle union with gap >= min_gap, or ExpanderGapError.

    Each retry draws its cycles from a fresh sub-seeded stream, so the
    result is a pure function of (n, num_cycles, seed) and the number of
    failed attempts.  A single cycle is an honest degenerate case: C_n is
    (near-)bipartite, so it fails any positive min_gap for even n.
    """
    if n < 2:
        raise ContractError("expander needs at least 2 nodes")
    if num_cycles < 1:
        raise ContractError("need at least one cycle")
    best = -np.inf
    for attempt in range(max_retries):
        rng = rngutil.derive(seed, rngutil.TAG_EXPANDER, attempt)
        cycles = tuple(rng.permutation(n).astype(np.int64) for _ in range(num_cycles))
        cand = ExpanderGraph(n=n, seed=seed, cycles=cycles, gap=0.0)
        gap = spectral_gap(cand.adjacency())
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

    def row(self, i: int) -> np.ndarray:
        return self.col_idx[self.row_ptr[i]:self.row_ptr[i + 1]]

    def row_types(self, i: int) -> np.ndarray:
        return self.edge_type[self.row_ptr[i]:self.row_ptr[i + 1]]


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
