"""Profiling measurements against loop oracles, plus the numeric checks.

Entropy and top-k mass have independent per-row recomputations here
(scipy.stats.entropy and an explicit sort), energy distance has both a
frozen point-mass value and an O(nm) double-loop route, and the sampling
phenomena checks are run at reduced sizes just to pin their direction.
"""

import json

import numpy as np
import pytest
from scipy import stats as sps

from sparsegt.analysis import (ConsistencyResult, attention_entropy,
                               check_noisy_proposal, consistency_study,
                               edge_type_attribution, energy_distance,
                               noisy_sampling_check,
                               projection_distortion_check, profile_scores,
                               spectral_sample_check, topk_mass,
                               write_consistency_json, write_profile_csv)
from sparsegt.datasets import SyntheticSpec, gen_bridge_task
from sparsegt.errors import ContractError, ShapeError
from sparsegt.graphs import AttentionPattern, PatternLayer, augment, build_expander
from sparsegt.pipeline import TrainConfig
from sparsegt.rngutil import derive


def _one_layer(rows, values, types=None):
    lengths = [len(r) for r in rows]
    row_ptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    types = (np.zeros(sum(lengths), dtype=np.int64) if types is None
             else np.concatenate(types).astype(np.int64))
    return AttentionPattern(n=len(rows), layers=(PatternLayer(
        row_ptr=row_ptr, col_idx=np.concatenate(rows).astype(np.int64),
        values=np.concatenate(values), edge_type=types),))


class TestEnergyDistance:
    def test_two_point_masses(self):
        # points (0,0) and (1,1): the unbiased statistic is twice sqrt(2)
        assert energy_distance([0.0, 0.0], [1.0, 1.0]) == pytest.approx(
            2.8284271247461903, abs=1e-14)
        assert energy_distance([1.0], [3.0]) == pytest.approx(4.0, abs=1e-14)

    def test_matches_double_loop(self):
        rng = derive(21, 1)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(7, 3))
        cross = np.mean([np.linalg.norm(a - b) for a in x for b in y])
        wx = np.mean([np.linalg.norm(x[i] - x[j])
                      for i in range(5) for j in range(i + 1, 5)])
        wy = np.mean([np.linalg.norm(y[i] - y[j])
                      for i in range(7) for j in range(i + 1, 7)])
        assert energy_distance(x, y) == pytest.approx(2 * cross - wx - wy,
                                                      abs=1e-12)

    def test_separates_distributions(self):
        rng = derive(21, 2)
        a = rng.normal(size=(200, 2))
        b = rng.normal(size=(200, 2))
        far = rng.normal(size=(200, 2)) + 3.0
        near = energy_distance(a, b)
        assert abs(near) < 0.1                  # same law, near zero
        assert energy_distance(a, far) > 1.0

    def test_errors(self):
        with pytest.raises(ShapeError, match="mismatch"):
            energy_distance(np.zeros((2, 2)), np.zeros((2, 3)))
        with pytest.raises(ContractError, match="nonempty"):
            energy_distance(np.zeros((0, 2)), np.zeros((2, 2)))


class TestEntropy:
    def test_hand_values(self):
        ss = _one_layer([[0, 1, 2], [0]],
                        [[0.5, 0.25, 0.25], [1.0]])
        # H(.5,.25,.25) = 1.0397207708399179 nats, the lone row adds zero
        assert attention_entropy(ss)[0] == pytest.approx(
            1.0397207708399179 / 2, abs=1e-14)

    def test_zero_entries_contribute_nothing(self):
        ss = _one_layer([[0, 1, 2]], [[0.5, 0.5, 0.0]])
        assert attention_entropy(ss)[0] == pytest.approx(np.log(2), abs=1e-14)

    def test_matches_scipy_rowwise(self):
        rng = derive(21, 3)
        rows = [np.arange(k) for k in (3, 5, 2, 7)]
        vals = [rng.dirichlet(np.ones(r.size)) for r in rows]
        ss = _one_layer(rows, vals)
        want = np.mean([sps.entropy(v) for v in vals])
        assert attention_entropy(ss)[0] == pytest.approx(want, abs=1e-12)


class TestTopkMass:
    def test_hand_value(self):
        ss = _one_layer([[0, 1, 2], [0, 1, 2]],
                        [[0.5, 0.3, 0.2], [0.2, 0.4, 0.4]])
        assert topk_mass(ss, 2)[0] == pytest.approx(0.8, abs=1e-14)
        assert topk_mass(ss, 5)[0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_sorted_loop(self):
        rng = derive(21, 4)
        rows = [np.arange(k) for k in (4, 6, 3)]
        vals = [rng.dirichlet(np.ones(r.size)) for r in rows]
        ss = _one_layer(rows, vals)
        for k in (1, 2, 3):
            want = np.mean([np.sort(v)[::-1][:k].sum() / v.sum() for v in vals])
            assert topk_mass(ss, k)[0] == pytest.approx(want, abs=1e-12)

    def test_k_contract(self):
        with pytest.raises(ContractError):
            topk_mass(_one_layer([[0]], [[1.0]]), 0)


class TestEdgeTypes:
    def test_attribution_hand_value(self):
        ss = _one_layer([[0, 1, 2]], [[0.3, 0.2, 0.5]], types=[[0, 1, 2]])
        np.testing.assert_allclose(edge_type_attribution(ss),
                                   [[0.3, 0.2, 0.5]], atol=1e-14)


class TestProfiles:
    def test_profile_keys_and_csv(self, tmp_path):
        ss = _one_layer([[0, 1, 2]], [[0.3, 0.2, 0.5]], types=[[0, 1, 2]])
        prof = profile_scores(ss, topk=2)
        assert set(prof) == {"entropy", "topk", "topk_mass", "edge_type_mass"}
        write_profile_csv(tmp_path / "p.csv", prof)
        lines = (tmp_path / "p.csv").read_text().splitlines()
        assert lines[0] == "layer,entropy,topk_mass,graph_mass,expander_mass,self_mass"
        assert len(lines) == 2


class TestSpectralSampling:
    def test_error_decays_like_inverse_sqrt(self):
        out = spectral_sample_check(n=24, sample_sizes=(256, 1024, 4096),
                                    trials=2, seed=0)
        assert set(out) == {"n", "sample_sizes", "errors", "slope",
                            "matrix_norm", "support_ok"}
        assert out["errors"][0] > out["errors"][-1]
        assert -0.7 < out["slope"] < -0.3

    def test_sparse_matrix_support_is_respected(self):
        out = spectral_sample_check(n=24, sample_sizes=(256, 1024),
                                    trials=2, seed=1, zero_frac=0.5)
        assert out["support_ok"] is True
        assert out["matrix_norm"] > 0


class TestProjectionDistortion:
    def test_wider_projections_distort_less(self):
        out = projection_distortion_check(dims=(16, 64), n_points=24,
                                          in_dim=128, trials=4, seed=0)
        d = out["mean_abs_distortion"]
        assert d[64] < d[16] * 0.8
        assert d[16] > 0
        worst = out["median_max_distortion"]
        assert worst[64] < worst[16]
        assert worst[16] > d[16]        # the max dominates the mean


class TestNoisyProposal:
    def test_guard_accepts_and_rejects(self):
        p = np.full(4, 0.25)
        q = np.array([0.5, 0.3, 0.1, 0.1])
        check_noisy_proposal(p, q, 2.5)
        with pytest.raises(ContractError, match="entry 2"):
            check_noisy_proposal(p, q, 2.0)
        with pytest.raises(ContractError, match="alpha"):
            check_noisy_proposal(p, p, 0.5)

    def test_premium_stays_bounded(self):
        out = noisy_sampling_check(n=16, alpha=2.0, sample_sizes=(1024, 4096),
                                   trials=2, seed=0)
        assert 1.0 < out["mean_ratio"] < 2.5
        assert all(e > 0 for e in out["errors_exact"])


class TestConsistencyStudy:
    def _tiny(self):
        g = gen_bridge_task(SyntheticSpec(seed=6, num_components=2,
                                          component_size=6, num_bridges=1))
        pattern = augment(g, build_expander(12, num_cycles=2, seed=2), 2)
        return g, pattern

    def test_micro_run_fields(self, tmp_path):
        g, pattern = self._tiny()
        cfg = TrainConfig(width=2, layers=2, epochs=2, seed=0)
        res = consistency_study(g, pattern, cfg, widths=(2,), ref_width=4,
                                num_runs=2, max_cells=6)
        assert isinstance(res, ConsistencyResult)
        assert res.num_cells == 6
        assert set(res.mean_dist) == {2}
        assert 0.0 <= res.frac_closer[2] <= 1.0
        assert res.frac_closer_both[2] <= res.frac_closer[2]
        for v in (res.mean_dist[2], res.mean_dist_uniform,
                  res.mean_dist_random, res.mean_dist_self):
            assert np.isfinite(v)
        write_consistency_json(tmp_path / "c.json", res)
        obj = json.loads((tmp_path / "c.json").read_text())
        assert obj["num_cells"] == 6
        assert "2" in obj["mean_dist"]
        assert "2" in obj["frac_closer_both"]

    def test_guards(self):
        g, pattern = self._tiny()
        cfg = TrainConfig(width=2, layers=2, epochs=1, seed=0)
        with pytest.raises(ContractError, match="two runs"):
            consistency_study(g, pattern, cfg, widths=(2,), ref_width=4,
                              num_runs=1)
        with pytest.raises(ContractError, match="reference width"):
            consistency_study(g, pattern, cfg, widths=(4,), ref_width=4,
                              num_runs=2)
