"""Synthetic generators: label correctness, balance, splits, disk formats.

Bridge-task labels are recomputed from scratch: a node is positive iff
its merged component carries both colors, decided here one component at
a time from the colors present in it.  The components come from scipy's
csgraph, independently of the generator, which reads them from its bridge
pairs; the label rule is this file's own, and hand-built cases pin the
components themselves.  The generator must agree node for node.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from sparsegt.datasets import (SyntheticSpec, gen_bridge_task, gen_dataset,
                               gen_sbm, homophily_ratio, load_dataset,
                               write_dataset)
from sparsegt.errors import ContractError, FormatError
from sparsegt.graphs import Graph, TEST, TRAIN, VAL


def _oracle_labels(g: Graph, num_components: int, component_size: int, colors):
    adj = csr_matrix((np.ones(g.col_idx.size), g.col_idx, g.row_ptr),
                     shape=(g.n, g.n))
    _, comp = connected_components(adj, directed=False)
    node_color = np.repeat(np.asarray(colors), component_size)
    labels = np.zeros(g.n, dtype=np.int64)
    for cid in np.unique(comp):
        members = comp == cid
        labels[members] = int(np.unique(node_color[members]).size == 2)
    return labels


class TestBridgeLabels:
    def test_default_spec_matches_component_oracle(self):
        spec = SyntheticSpec(seed=3)
        g = gen_bridge_task(spec)
        colors = np.arange(spec.num_components) % 2
        np.testing.assert_array_equal(
            g.labels, _oracle_labels(g, spec.num_components,
                                     spec.component_size, colors))

    def test_hub_4000_spec_matches_component_oracle(self):
        # the hub-4000 benchmark's graph: 40 hub components of 100, 20 bridges
        spec = SyntheticSpec(seed=11, num_components=40, component_size=100,
                             num_bridges=20)
        g = gen_bridge_task(spec)
        colors = np.arange(spec.num_components) % 2
        np.testing.assert_array_equal(
            g.labels, _oracle_labels(g, spec.num_components,
                                     spec.component_size, colors))

    def test_custom_colors_match_oracle(self):
        spec = SyntheticSpec(seed=5, num_components=4, component_size=10,
                             num_bridges=2, colors=(0, 1, 0, 0))
        g = gen_bridge_task(spec)
        np.testing.assert_array_equal(
            g.labels, _oracle_labels(g, 4, 10, (0, 1, 0, 0)))
        # pair (0,1) merges both colors, pair (2,3) stays single-color
        np.testing.assert_array_equal(g.labels[:20], 1)
        np.testing.assert_array_equal(g.labels[20:], 0)

    def test_no_bridges_means_all_negative(self):
        g = gen_bridge_task(SyntheticSpec(num_components=2, component_size=8,
                                          num_bridges=0, colors=(0, 0)))
        np.testing.assert_array_equal(g.labels, 0)
        g = gen_bridge_task(SyntheticSpec(num_components=2, component_size=8,
                                          num_bridges=0, colors=(0, 1)))
        np.testing.assert_array_equal(g.labels, 0)

    def test_one_bridge_across_colors_means_all_positive(self):
        g = gen_bridge_task(SyntheticSpec(num_components=2, component_size=8,
                                          num_bridges=1, colors=(0, 1)))
        np.testing.assert_array_equal(g.labels, 1)

    def test_single_color_graph_cannot_host_a_bridge(self):
        # every bridge allocation starts with an opposite-color pair
        with pytest.raises(ContractError, match="opposite-color"):
            gen_bridge_task(SyntheticSpec(num_components=2, component_size=8,
                                          num_bridges=1, colors=(0, 0)))

    def test_default_labels_are_balanced(self):
        g = gen_bridge_task(SyntheticSpec(seed=0))
        np.testing.assert_array_equal(np.bincount(g.labels), [96, 96])


class TestBridgeStructure:
    def test_exactly_num_bridges_cross_edges(self):
        spec = SyntheticSpec(seed=1)
        g = gen_bridge_task(spec)
        rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
        cross = (rows // spec.component_size) != (g.col_idx // spec.component_size)
        assert cross.sum() == 2 * spec.num_bridges     # directed count

    def test_hub_reaches_all_members(self):
        spec = SyntheticSpec(seed=1, num_components=2, component_size=12,
                             num_bridges=1)
        g = gen_bridge_task(spec)
        for comp in range(2):
            hub = comp * 12
            deg = g.row_ptr[hub + 1] - g.row_ptr[hub]
            assert deg >= 11

    def test_noiseless_features_are_exact_color_onehots(self):
        g = gen_bridge_task(SyntheticSpec(seed=2, noise=0.0))
        colors = np.repeat(np.arange(8) % 2, 24)
        np.testing.assert_array_equal(g.features, np.eye(2)[colors])

    def test_determinism(self):
        a = gen_bridge_task(SyntheticSpec(seed=7))
        b = gen_bridge_task(SyntheticSpec(seed=7))
        c = gen_bridge_task(SyntheticSpec(seed=8))
        np.testing.assert_array_equal(a.col_idx, b.col_idx)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.split, b.split)
        assert not np.array_equal(a.features, c.features)

    def test_contract_errors(self):
        with pytest.raises(ContractError, match="bridges"):
            gen_bridge_task(SyntheticSpec(num_components=4, num_bridges=3))
        with pytest.raises(ContractError, match="at least 2"):
            gen_bridge_task(SyntheticSpec(num_components=1))
        with pytest.raises(ContractError, match="colors"):
            gen_bridge_task(SyntheticSpec(num_components=4, num_bridges=1,
                                          colors=(0, 1)))


class TestSplits:
    def test_stratified_counts_at_defaults(self):
        g = gen_bridge_task(SyntheticSpec(seed=0))
        for cls in (0, 1):
            idx = g.labels == cls
            counts = [int((g.split[idx] == s).sum()) for s in (TRAIN, VAL, TEST)]
            # per class: round(.6 * 96), round(.2 * 96), remainder
            assert counts == [58, 19, 19]

    def test_split_covers_every_node(self):
        g = gen_bridge_task(SyntheticSpec(seed=0))
        assert np.isin(g.split, (TRAIN, VAL, TEST)).all()

    def test_split_sum_validated(self):
        with pytest.raises(ContractError, match="sum"):
            SyntheticSpec(split=(0.5, 0.2, 0.2))


class TestSbm:
    def _spec(self, gen="sbm_homophily"):
        return SyntheticSpec(generator=gen, seed=4, blocks=3, block_size=40,
                             p_intra=0.2, p_inter=0.02)

    def test_edge_counts_near_expectation(self):
        g = gen_sbm(self._spec())
        rows = np.repeat(np.arange(g.n), np.diff(g.row_ptr))
        block = np.repeat(np.arange(3), 40)
        intra = int((block[rows] == block[g.col_idx]).sum()) // 2
        inter = g.col_idx.size // 2 - intra
        # binomial means 468 and 96, four-sigma windows
        assert abs(intra - 468) < 80
        assert abs(inter - 96) < 40

    def test_labels_are_blocks(self):
        g = gen_sbm(self._spec())
        np.testing.assert_array_equal(g.labels, np.repeat(np.arange(3), 40))

    def test_heterophily_flips_the_mix(self):
        homo = gen_dataset(self._spec())
        hetero = gen_dataset(self._spec("sbm_heterophily"))
        assert homophily_ratio(homo) > 0.7
        assert homophily_ratio(hetero) < 0.3

    def test_features_cluster_by_block(self):
        g = gen_sbm(self._spec())
        centroids = np.stack([g.features[g.labels == b].mean(axis=0)
                              for b in range(3)])
        within = np.linalg.norm(g.features - centroids[g.labels], axis=1).mean()
        between = np.linalg.norm(centroids[0] - centroids[1])
        assert between > within


class TestHomophilyRatio:
    def test_hand_value_on_path(self):
        # path 0-1-2 with labels 0,0,1: two of four directed edges agree
        g = Graph(n=3, row_ptr=np.array([0, 1, 3, 4]),
                  col_idx=np.array([1, 0, 2, 1]),
                  features=np.zeros((3, 1)), labels=np.array([0, 0, 1]),
                  split=np.zeros(3, dtype=np.int8))
        assert homophily_ratio(g) == 0.5

    def test_empty_graph(self):
        g = Graph(n=2, row_ptr=np.zeros(3, dtype=np.int64),
                  col_idx=np.array([], dtype=np.int64),
                  features=np.zeros((2, 1)), labels=np.zeros(2, dtype=np.int64),
                  split=np.zeros(2, dtype=np.int8))
        assert homophily_ratio(g) == 0.0


class TestDiskRoundtrip:
    def test_write_then_load(self, tmp_path):
        spec = SyntheticSpec(seed=9, num_components=4, component_size=8,
                             num_bridges=1)
        g = gen_bridge_task(spec)
        paths = write_dataset(tmp_path / "d", g, spec)
        assert sorted(paths) == ["edges.tsv", "features.csv", "labels.csv",
                                 "spec.json", "split.csv"]
        g2, spec2 = load_dataset(tmp_path / "d")
        assert g2.n == g.n
        np.testing.assert_array_equal(g2.row_ptr, g.row_ptr)
        np.testing.assert_array_equal(g2.col_idx, g.col_idx)
        np.testing.assert_allclose(g2.features, g.features, rtol=1e-7)
        np.testing.assert_array_equal(g2.labels, g.labels)
        np.testing.assert_array_equal(g2.split, g.split)
        assert spec2 == spec

    def test_the_old_spec_layout_still_loads(self, tmp_path):
        spec = SyntheticSpec(seed=9, num_components=4, component_size=8,
                             num_bridges=1)
        write_dataset(tmp_path / "d", gen_bridge_task(spec), spec)
        # indented, in field order, no trailing newline
        (tmp_path / "d" / "spec.json").write_text(json.dumps(spec.to_dict()))
        assert load_dataset(tmp_path / "d")[1] == spec

    def test_a_failed_spec_write_leaves_the_previous_file_whole(self, tmp_path,
                                                                monkeypatch):
        spec = SyntheticSpec(seed=9, num_components=4, component_size=8,
                             num_bridges=1)
        g = gen_bridge_task(spec)
        write_dataset(tmp_path / "d", g, spec)
        before = (tmp_path / "d" / "spec.json").read_text()

        def torn(self, text, *args, **kwargs):
            with open(self, "w") as fh:
                fh.write(text[:len(text) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(tmp_path / "d", g, SyntheticSpec(seed=10, num_components=4,
                                                           component_size=8,
                                                           num_bridges=1))
        monkeypatch.undo()
        assert (tmp_path / "d" / "spec.json").read_text() == before
        assert load_dataset(tmp_path / "d")[1] == spec

    def test_spec_json_roundtrip(self):
        spec = SyntheticSpec(generator="bridge", seed=3, colors=(0, 1, 1, 0),
                             num_components=4, num_bridges=1)
        assert SyntheticSpec.from_json(json.dumps(spec.to_dict())) == spec

    @pytest.mark.parametrize("name,value,message", [
        ("num_components", "8", "must be int"),
        ("seed", True, "must be int"),
        ("noise", "0.1", "must be float"),
        ("generator", 3, "must be str"),
        ("split", [0.6, "0.2", 0.2], "must be a list of numbers"),
        ("split", 1.0, "must be a list of numbers"),
        ("colors", [0, 1.0, 1, 0], "must be null or a list of integers"),
    ])
    def test_spec_json_field_types(self, name, value, message):
        spec = SyntheticSpec(seed=3, num_components=4, num_bridges=1)
        text = json.dumps({**spec.to_dict(), name: value})
        with pytest.raises(FormatError, match=f"spec field {name!r} {message}"):
            SyntheticSpec.from_json(text)
        # an int stands for a float
        assert SyntheticSpec.from_json(json.dumps({**spec.to_dict(), "noise": 0})).noise == 0

    def test_unknown_generator_rejected(self):
        with pytest.raises(ContractError, match="generator"):
            SyntheticSpec(generator="erdos")
