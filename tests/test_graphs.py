"""Graph containers, expander certification, and pattern assembly."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegt.graphs as graphs_mod
from sparsegt import rngutil
from sparsegt.errors import (ContractError, ConvergenceError, ExpanderGapError,
                             FormatError, ShapeError)
from sparsegt.graphs import (TEST, TRAIN, VAL, AttentionPattern, EdgeType,
                             ExpanderGraph, Graph, augment, build_expander,
                             edges_to_csr, load_expander, load_graph,
                             load_pattern, save_expander, save_pattern,
                             save_split, spectral_gap)


def _graph_from_edges(n, pairs, feat_dim=2):
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    row_ptr, col_idx = edges_to_csr(n, src, dst)
    return Graph(n=n, row_ptr=row_ptr, col_idx=col_idx,
                 features=np.zeros((n, feat_dim)),
                 labels=np.zeros(n, dtype=np.int64),
                 split=np.zeros(n, dtype=np.int8))


def _row(csr, i, field="col_idx"):
    """Row ``i`` of a CSR container's ``field``: its columns, or a pattern
    layer's ``edge_type``."""
    return getattr(csr, field)[csr.row_ptr[i]:csr.row_ptr[i + 1]]


def _adjacency(g):
    """The 0/1 adjacency matrix of a ``Graph``, or of an ``ExpanderGraph``'s
    collapsed simple graph."""
    row_ptr, col_idx = (g.row_ptr, g.col_idx) if isinstance(g, Graph) else g.csr()
    return sp.csr_matrix((np.ones(col_idx.shape[0]), col_idx, row_ptr), shape=(g.n, g.n))


class TestCsr:
    def test_path_graph_row_ptr(self):
        # P6: endpoint degree 1, interior degree 2
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
        g = _graph_from_edges(6, pairs)
        assert g.row_ptr.tolist() == [0, 1, 3, 5, 7, 9, 10]
        assert _row(g, 0).tolist() == [1]
        assert _row(g, 2).tolist() == [1, 3]

    def test_duplicates_and_reverses_collapse(self):
        row_ptr, col_idx = edges_to_csr(3, [0, 1, 0, 0], [1, 0, 1, 2])
        assert row_ptr.tolist() == [0, 2, 3, 4]
        assert col_idx.tolist() == [1, 2, 0, 0]

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            edges_to_csr(3, [0], [3])

    @given(st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_csr_is_sorted_dedup_symmetric(self, pairs):
        src = np.array([a for a, _ in pairs])
        dst = np.array([b for _, b in pairs])
        row_ptr, col_idx = edges_to_csr(15, src, dst)
        edges = set()
        for i in range(15):
            row = col_idx[row_ptr[i]:row_ptr[i + 1]]
            assert np.all(np.diff(row) > 0)       # sorted and duplicate-free
            edges.update((i, int(j)) for j in row)
        assert edges == {(b, a) for a, b in edges}
        expected = {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
        assert edges == expected


class TestGraphIO:
    def _write(self, tmp_path, edges_text, n=4, feat_rows=None, label_rows=None):
        e = tmp_path / "edges.tsv"
        e.write_text(edges_text)
        f = tmp_path / "features.csv"
        rows = feat_rows if feat_rows is not None else n
        f.write_text("".join("0.5,1.5\n" for _ in range(rows)))
        l = tmp_path / "labels.csv"
        rows = label_rows if label_rows is not None else n
        l.write_text("".join("1\n" for _ in range(rows)))
        return e, f, l

    def test_roundtrip_with_comments(self, tmp_path):
        e, f, l = self._write(tmp_path, "# header\n0\t1\n\n2\t3\n")
        g = load_graph(e, f, l, 4)
        assert g.num_edges == 4
        assert g.features.shape == (4, 2)
        assert np.all(g.split == TRAIN)

    def test_malformed_line_names_lineno(self, tmp_path):
        e, f, l = self._write(tmp_path, "0\t1\n0 1\n")
        with pytest.raises(FormatError, match=":2:"):
            load_graph(e, f, l, 4)

    def test_out_of_range_id_names_lineno(self, tmp_path):
        e, f, l = self._write(tmp_path, "# c\n0\t1\n3\t9\n")
        with pytest.raises(FormatError, match=":3:"):
            load_graph(e, f, l, 4)

    def test_non_integer_id(self, tmp_path):
        e, f, l = self._write(tmp_path, "0\tx\n")
        with pytest.raises(FormatError, match="non-integer"):
            load_graph(e, f, l, 4)

    def test_feature_row_mismatch(self, tmp_path):
        e, f, l = self._write(tmp_path, "0\t1\n", feat_rows=3)
        with pytest.raises(ShapeError, match="3 feature rows"):
            load_graph(e, f, l, 4)

    def test_label_row_mismatch(self, tmp_path):
        e, f, l = self._write(tmp_path, "0\t1\n", label_rows=5)
        with pytest.raises(ShapeError, match="5 label rows"):
            load_graph(e, f, l, 4)

    def test_split_roundtrip(self, tmp_path):
        split = np.array([TRAIN, VAL, TEST, TRAIN], dtype=np.int8)
        save_split(tmp_path / "split.csv", split)
        e, f, l = self._write(tmp_path, "0\t1\n")
        g = load_graph(e, f, l, 4, split_path=tmp_path / "split.csv")
        assert g.split.tolist() == split.tolist()
        assert g.split_idx(VAL).tolist() == [1]

    def test_unknown_split_tag(self, tmp_path):
        (tmp_path / "split.csv").write_text("train\nheld\ntrain\ntrain\n")
        e, f, l = self._write(tmp_path, "0\t1\n")
        with pytest.raises(FormatError, match="held"):
            load_graph(e, f, l, 4, split_path=tmp_path / "split.csv")


def _csr(adj):
    """The CSR arrays ``spectral_gap`` takes, of a scipy matrix or a dense array:
    row pointers, sorted and distinct columns, weights."""
    m = sp.csr_matrix(adj, dtype=np.float64)
    m.sum_duplicates()
    return m.indptr, m.indices, m.data


class TestSpectralGap:
    def test_complete_graph_gap(self):
        # K4 normalized adjacency has eigenvalues {1, -1/3, -1/3, -1/3}
        a = np.ones((4, 4)) - np.eye(4)
        assert spectral_gap(*_csr(a)) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_even_cycle_is_bipartite(self):
        # C6: lambda_n = -1, so the two-sided gap vanishes
        pairs = [(i, (i + 1) % 6) for i in range(6)]
        g = _graph_from_edges(6, pairs)
        assert spectral_gap(*_csr(_adjacency(g))) == pytest.approx(0.0, abs=1e-9)

    @staticmethod
    def _dense_gap(adj):
        a = adj.toarray()
        d = a.sum(axis=1)
        vals = scipy.linalg.eigh(a / np.sqrt(np.outer(d, d)), eigvals_only=True)
        return 1.0 - max(vals[-2], abs(vals[0]))

    def test_gap_matches_dense_eigh(self):
        # n=2049 guards the sizes past 2048, where a power iteration's
        # early stop once let the certified gap read ~4e-5 high
        rng = np.random.default_rng(3)
        n = 40
        a = (rng.random((n, n)) < 0.2).astype(float)
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0)
        a[a.sum(axis=1) == 0, 0] = 1.0          # avoid isolated nodes
        a = sp.csr_matrix(np.maximum(a, a.T))
        assert spectral_gap(*_csr(a)) == pytest.approx(self._dense_gap(a), abs=1e-10)
        x = build_expander(2049, 3, seed=0)
        assert x.gap == pytest.approx(self._dense_gap(_adjacency(x)), abs=1e-10)

    def test_gap_is_a_pure_function_of_the_graph(self):
        adj = _csr(_adjacency(build_expander(300, 3, seed=4)))
        assert spectral_gap(*adj) == spectral_gap(*adj)

    def test_asymmetric_adjacency_is_refused(self):
        a = np.ones((4, 4)) - np.eye(4)
        a[0, 1] = 0.0
        with pytest.raises(ContractError, match="symmetric"):
            spectral_gap(*_csr(a))

    @pytest.mark.parametrize("seed", [11, 29])
    def test_gap_matches_arpack_on_benchmark_expanders(self, seed):
        # the hub-4000 benchmark's expanders (3 cycles on 4000 nodes)
        x = build_expander(4000, 3, seed=seed)
        assert x.gap == pytest.approx(_arpack_gap(_adjacency(x)), abs=1e-10)

    def test_disconnected_graph_has_no_gap(self):
        # two expanders side by side: eigenvalue 1 twice, so one survives
        # the deflation
        a = _adjacency(build_expander(150, 3, seed=1))
        b = _adjacency(build_expander(120, 3, seed=2))
        assert spectral_gap(*_csr(sp.block_diag([a, b]))) == pytest.approx(0.0, abs=1e-9)
        k4 = sp.csr_matrix(np.ones((4, 4)) - np.eye(4))
        assert spectral_gap(*_csr(sp.block_diag([k4, k4]))) == pytest.approx(0.0, abs=1e-9)

    def test_two_nodes(self):
        # K2: eigenvalues 1 and -1; beta is zero after the first step
        a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert spectral_gap(*_csr(a)) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ContractError, match="at least 2"):
            spectral_gap(*_csr(sp.csr_matrix((1, 1))))

    def test_non_finite_weights_are_refused(self):
        a = np.ones((3, 3)) - np.eye(3)
        a[0, 1] = a[1, 0] = np.inf
        with pytest.raises(ContractError, match="finite"):
            spectral_gap(*_csr(a))

    def test_a_residual_that_never_passes_raises(self, monkeypatch):
        # with a zero tolerance only an exact zero residual would pass
        adj = _csr(_adjacency(build_expander(300, 3, seed=4)))
        monkeypatch.setattr(graphs_mod, "_GAP_TOL", 0.0)
        monkeypatch.setattr(graphs_mod, "_GAP_MAX_STEPS", 120)
        with pytest.raises(ConvergenceError, match="120 Lanczos steps"):
            spectral_gap(*adj)

    def test_gap_matches_independent_eig(self):
        x = build_expander(30, 2, min_gap=0.01, seed=5)
        a = _adjacency(x).toarray()
        d = a.sum(axis=1)
        norm = a / np.sqrt(np.outer(d, d))
        vals = scipy.linalg.eigh(norm, eigvals_only=True)
        expected = 1.0 - max(vals[-2], abs(vals[0]))
        assert x.gap == pytest.approx(expected, abs=1e-8)

    def test_an_isolated_node_is_refused(self):
        # a triangle and a fourth node with no edge: its degree is 0
        g = _graph_from_edges(4, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ContractError, match="isolated"):
            spectral_gap(g.row_ptr, g.col_idx, np.ones(g.num_edges))

    def test_unsorted_or_repeated_columns_are_refused(self):
        # the gap takes canonical rows only: an unsorted row fails the
        # entry-by-entry symmetry check, and a repeated entry, which scipy
        # would add into its sum, is refused by name
        ptr, idx, w = _csr(np.ones((4, 4)) - np.eye(4))
        unsorted = idx.copy()
        unsorted[:3] = unsorted[2::-1]                      # row 0 reads 3, 2, 1
        with pytest.raises(ContractError, match="sorted"):
            spectral_gap(ptr, unsorted, w)
        # the path 0-1-2 with its edge 0-1 stored twice, in both directions:
        # symmetric entry for entry, but no simple graph
        ptr = np.array([0, 2, 5, 6])
        idx = np.array([1, 1, 0, 0, 2, 1])
        with pytest.raises(ContractError, match="distinct"):
            spectral_gap(ptr, idx, np.ones(6))

    def test_arrays_that_are_no_csr_matrix_are_refused(self):
        ptr, idx, w = _csr(np.ones((4, 4)) - np.eye(4))
        with pytest.raises(ShapeError, match="CSR"):
            spectral_gap(ptr, idx, w[:-1])
        with pytest.raises(ShapeError, match="CSR"):
            spectral_gap(ptr + 1, idx, w)

    @pytest.mark.parametrize("n,seed", [(192, 11), (192, 29), (4000, 11), (4000, 29)])
    def test_normalized_product_is_scipys_bit_for_bit(self, n, seed):
        # the benchmark expanders' Lanczos products, against the matrix the
        # gap was certified on before it ran on CSR arrays
        x = build_expander(n, 3, seed=seed)
        ptr, idx = x.csr()
        _, matvec = graphs_mod._normalized(ptr, idx, np.ones(idx.shape[0]))
        adj = _adjacency(x)
        dinv = sp.diags(1.0 / np.sqrt(np.asarray(adj.sum(axis=1)).ravel()))
        v = rngutil.derive(seed, 7).standard_normal(n)
        got, want = matvec(v), sp.csr_matrix(dinv @ adj @ dinv) @ v
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _arpack_gap(adj):
    """The gap by ARPACK on the same deflated operator, as an oracle."""
    from scipy.sparse.linalg import LinearOperator, eigsh
    adj = sp.csr_matrix(adj, dtype=np.float64)
    n = adj.shape[0]
    deg = np.asarray(adj.sum(axis=1)).ravel()
    dinv = sp.diags(1.0 / np.sqrt(deg))
    norm = sp.csr_matrix(dinv @ adj @ dinv)
    v1 = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
    op = LinearOperator((n, n), dtype=np.float64,
                        matvec=lambda x: norm @ x - v1 * (v1 @ x))
    v0 = rngutil.derive(0, 0xDE).standard_normal(n)
    v0 -= v1 * (v1 @ v0)
    (radius,) = eigsh(op, k=1, which="LM", tol=1e-10, v0=v0,
                      return_eigenvectors=False)
    return 1.0 - abs(radius)


class TestExpander:
    @pytest.mark.parametrize("n,cycles,seed,min_gap,attempt",
                             [(200, 2, 1, 0.145, 5), (500, 3, 2, 0.26, 2)])
    def test_picks_the_cycles_an_arpack_certified_loop_picks(
            self, n, cycles, seed, min_gap, attempt):
        # build_expander's retry loop with ARPACK certifying each attempt
        for tried in range(20):
            rng = rngutil.derive(seed, rngutil.TAG_EXPANDER, tried)
            drawn = tuple(rng.permutation(n).astype(np.int64) for _ in range(cycles))
            adj = _adjacency(ExpanderGraph(n=n, seed=seed, cycles=drawn, gap=0.0))
            if _arpack_gap(adj) >= min_gap:
                break
        assert tried == attempt
        x = build_expander(n, cycles, min_gap=min_gap, seed=seed)
        assert all(np.array_equal(a, b) for a, b in zip(x.cycles, drawn))

    def test_build_meets_gap_and_is_deterministic(self):
        a = build_expander(50, 3, min_gap=0.05, seed=7)
        b = build_expander(50, 3, min_gap=0.05, seed=7)
        assert a.gap >= 0.05
        assert a.degree == 6
        assert all(np.array_equal(c1, c2) for c1, c2 in zip(a.cycles, b.cycles))

    def test_single_even_cycle_fails_any_gap(self):
        # one Hamiltonian cycle on even n is bipartite: gap 0 every attempt
        with pytest.raises(ExpanderGapError) as exc:
            build_expander(10, 1, min_gap=0.05, max_retries=3, seed=0)
        assert exc.value.best_gap < 0.05

    def test_impossible_gap_reports_best(self):
        with pytest.raises(ExpanderGapError) as exc:
            build_expander(24, 2, min_gap=0.999, max_retries=2, seed=1)
        assert 0.0 <= exc.value.best_gap < 0.999

    def test_edges_are_simple_and_symmetric(self):
        x = build_expander(40, 2, seed=2)
        src, dst = x.edge_arrays()
        assert not np.any(src == dst)
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == src.size
        assert pairs == {(b, a) for a, b in pairs}
        # simple-graph degree never exceeds the nominal 2 * cycles
        assert np.bincount(src, minlength=40).max() <= x.degree

    def test_json_roundtrip_rebuilds_same_edges(self, tmp_path):
        x = build_expander(30, 2, seed=9)
        save_expander(tmp_path / "x.json", x)
        y = load_expander(tmp_path / "x.json")
        assert y.n == x.n and y.gap == x.gap
        assert np.array_equal(np.c_[x.edge_arrays()], np.c_[y.edge_arrays()])

    def test_the_old_compact_layout_still_loads(self, tmp_path):
        x = build_expander(30, 2, seed=9)
        (tmp_path / "x.json").write_text(json.dumps({
            "n": x.n, "seed": x.seed, "cycles": [c.tolist() for c in x.cycles],
            "gap": x.gap}))
        y = load_expander(tmp_path / "x.json")
        assert y.gap == x.gap
        assert np.array_equal(np.c_[x.edge_arrays()], np.c_[y.edge_arrays()])

    def test_a_failed_write_leaves_the_previous_file_whole(self, tmp_path, monkeypatch):
        path = tmp_path / "x.json"
        save_expander(path, build_expander(30, 2, seed=9))
        before = path.read_text()

        def torn(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="disk full"):
            save_expander(path, build_expander(30, 2, seed=10))
        monkeypatch.undo()
        assert path.read_text() == before
        assert load_expander(path).seed == 9


class TestAugment:
    def _tiny(self):
        g = _graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        # expander as an explicit cycle so overlaps are controlled
        x = ExpanderGraph(n=4, seed=0, cycles=(np.array([0, 2, 1, 3]),), gap=0.2)
        return g, x

    def test_every_node_gets_a_self_loop(self):
        g, x = self._tiny()
        pattern = augment(g, x, 2)
        layer = pattern.layers[0]
        for i in range(4):
            row = _row(layer, i)
            types = _row(layer, i, "edge_type")
            assert i in row
            assert types[np.flatnonzero(row == i)[0]] == EdgeType.SELF_LOOP

    def test_duplicate_keeps_highest_priority_type(self):
        g, x = self._tiny()
        # cycle 0-2-1-3-0 contributes (1,2); the graph also has (1,2)
        pattern = augment(g, x, 1)
        layer = pattern.layers[0]
        row = _row(layer, 1)
        types = _row(layer, 1, "edge_type")
        assert types[np.flatnonzero(row == 2)[0]] == EdgeType.GRAPH
        # (0,2) is expander-only
        row0, types0 = _row(layer, 0), _row(layer, 0, "edge_type")
        assert types0[np.flatnonzero(row0 == 2)[0]] == EdgeType.EXPANDER

    def test_support_is_union_sized(self):
        g, x = self._tiny()
        pattern = augment(g, x, 3)
        graph_pairs = {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        exp_pairs = {(0, 2), (2, 0), (2, 1), (1, 2), (1, 3), (3, 1), (3, 0), (0, 3)}
        loops = {(i, i) for i in range(4)}
        assert pattern.m_aug == len(graph_pairs | exp_pairs | loops)
        assert pattern.num_layers == 3
        # all layers share one support object
        assert pattern.layers[0] is pattern.layers[1]

    def test_size_mismatch_rejected(self):
        g, _ = self._tiny()
        x5 = ExpanderGraph(n=5, seed=0, cycles=(np.arange(5),), gap=0.1)
        with pytest.raises(ShapeError):
            augment(g, x5, 1)

    def test_pattern_file_roundtrip(self, tmp_path):
        g, x = self._tiny()
        pattern = augment(g, x, 2)
        save_pattern(tmp_path / "p.tsv", pattern)
        back = load_pattern(tmp_path / "p.tsv", 4, 2)
        a, b = pattern.layers[0], back.layers[0]
        assert np.array_equal(a.row_ptr, b.row_ptr)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.edge_type, b.edge_type)

    def test_pattern_bad_line(self, tmp_path):
        (tmp_path / "p.tsv").write_text("0\t1\n")
        with pytest.raises(FormatError, match=":1:"):
            load_pattern(tmp_path / "p.tsv", 2, 1)

    @pytest.mark.parametrize("line,message", [
        ("0\t1\tx", "non-integer field"),
        ("0\t1.5\t0", "non-integer field"),
        ("0\t1\t3", "edge type 3 outside"),
        ("0\t1\t-1", "edge type -1 outside"),
        ("0\t2\t0", "node id out of range for n=2"),
        ("-1\t0\t0", "node id out of range for n=2"),
    ])
    def test_pattern_bad_field_names_the_line(self, tmp_path, line, message):
        (tmp_path / "p.tsv").write_text(f"# attention pattern n=2\n0\t0\t2\n{line}\n")
        with pytest.raises(FormatError, match=f"p.tsv:3: {message}"):
            load_pattern(tmp_path / "p.tsv", 2, 1)
