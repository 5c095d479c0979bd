"""Measurement harnesses for the claims behind the two-phase design.

Three families live here.  Score profiling (entropy, top-k mass, mass by
edge type) describes what a trained estimator's attention rows look
like.  The consistency study quantifies, per node and layer, how close a
narrow estimator's attention distribution lands to a wide reference
against untrained baselines, using the energy distance between run
samples.  The remaining checks reproduce the numerical phenomena the
design leans on: sampled low-rank reconstruction error decaying like
s^(-1/2) in spectral norm, sign-projection distance distortion decaying
like d^(-1/2), and importance sampling from a noisy proposal paying at
most a bounded variance premium.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, ShapeError
from .graphs import AttentionPattern, Graph, atomic_path
from .pipeline import TrainConfig, train_estimator, write_json
from .rngutil import TAG_ANALYSIS, derive


# ---------------------------------------------------------------------------
# Energy distance


def energy_distance(x, y) -> float:
    """Unbiased energy distance between two samples of vectors.

    2 E|X-Y| - E|X-X'| - E|Y-Y'| with the within-sample terms taken over
    distinct pairs; a single-point sample simply has no within term, so
    point masses are legal and two of them at distance d give 2d.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ContractError("energy distance needs nonempty samples")
    from scipy.spatial.distance import cdist, pdist
    cross = cdist(x, y).mean()
    within_x = pdist(x).mean() if x.shape[0] > 1 else 0.0
    within_y = pdist(y).mean() if y.shape[0] > 1 else 0.0
    return float(2.0 * cross - within_x - within_y)


# ---------------------------------------------------------------------------
# Score profiling


def attention_entropy(scores: AttentionPattern) -> np.ndarray:
    """Mean Shannon entropy (nats) of the score rows, one value per layer."""
    out = []
    for layer in scores.layers:
        v = np.asarray(layer.values, dtype=np.float64)
        lengths = np.diff(layer.row_ptr)
        row_of = np.repeat(np.arange(scores.n), lengths)
        h = np.where(v > 0, -v * np.log(np.where(v > 0, v, 1.0)), 0.0)
        sums = np.bincount(row_of, weights=h, minlength=scores.n)
        out.append(float(sums[lengths > 0].mean()))
    return np.asarray(out)


def topk_mass(scores: AttentionPattern, k: int) -> np.ndarray:
    """Mean fraction of row mass in the k largest entries, per layer."""
    if k < 1:
        raise ContractError(f"k must be positive, got {k}")
    out = []
    for layer in scores.layers:
        v = np.asarray(layer.values, dtype=np.float64)
        lengths = np.diff(layer.row_ptr)
        row_of = np.repeat(np.arange(scores.n), lengths)
        order = np.lexsort((-v, row_of))       # rows stay contiguous, values descend
        pos = np.arange(v.size) - np.repeat(layer.row_ptr[:-1], lengths)
        top = np.where(pos < k, v[order], 0.0)
        mass = np.bincount(row_of, weights=top, minlength=scores.n)
        sums = np.bincount(row_of, weights=v, minlength=scores.n)
        keep = lengths > 0
        out.append(float((mass[keep] / sums[keep]).mean()))
    return np.asarray(out)


def edge_type_attribution(scores: AttentionPattern) -> np.ndarray:
    """(layers, 3) mean per-row mass on graph, expander and self-loop entries."""
    out = np.zeros((scores.num_layers, 3))
    for li, layer in enumerate(scores.layers):
        v = np.asarray(layer.values, dtype=np.float64)
        lengths = np.diff(layer.row_ptr)
        row_of = np.repeat(np.arange(scores.n), lengths)
        sums = np.bincount(row_of, weights=v, minlength=scores.n)
        keep = lengths > 0
        for t in range(3):
            mass = np.bincount(row_of, weights=v * (layer.edge_type == t),
                               minlength=scores.n)
            out[li, t] = (mass[keep] / sums[keep]).mean()
    return out


def profile_scores(scores: AttentionPattern, topk: int = 4) -> dict:
    """One dict of the per-layer profile measurements, JSON-friendly."""
    return {"entropy": [float(v) for v in attention_entropy(scores)],
            "topk": topk,
            "topk_mass": [float(v) for v in topk_mass(scores, topk)],
            "edge_type_mass": edge_type_attribution(scores).tolist()}


def write_profile_csv(path, profile: dict) -> None:
    """Flat per-layer table of the ``profile_scores`` output."""
    with atomic_path(path) as tmp, open(tmp, "w") as fh:
        fh.write("layer,entropy,topk_mass,graph_mass,expander_mass,self_mass\n")
        for li, (ent, mass, types) in enumerate(zip(
                profile["entropy"], profile["topk_mass"],
                profile["edge_type_mass"]), start=1):
            fh.write(f"{li},{ent:.8g},{mass:.8g}"
                     + "".join(f",{v:.8g}" for v in types) + "\n")


# ---------------------------------------------------------------------------
# Consistency of narrow estimators with a wide reference


@dataclass(frozen=True)
class ConsistencyResult:
    """Per-width energy distances to the wide reference, with baselines.

    ``frac_closer`` is the fraction of node-layer cells where the width's
    run sample sits strictly closer to the reference than the random
    baseline does; ``frac_closer_both`` additionally requires beating the
    uniform row in the same cell.  ``mean_dist_self`` is the reference's
    half-vs-half distance, the noise floor any real agreement has to beat.
    """

    widths: tuple
    ref_width: int
    num_runs: int
    num_cells: int
    mean_dist: dict
    frac_closer: dict
    frac_closer_both: dict
    mean_dist_uniform: float
    mean_dist_random: float
    mean_dist_self: float


def _run_rows(graph, pattern, cfg, width, run, cells):
    # distinct training seed per (width, run); the large stride keeps the
    # derived streams disjoint from the caller's own seed usage
    run_cfg = replace(cfg, width=width, seed=cfg.seed + 1000003 * (run + 1)
                      + 7919 * width)
    res = train_estimator(graph, pattern, run_cfg)
    rows = {}
    for li, node in cells:
        lo, hi = res.scores.layers[li].row_ptr[node], res.scores.layers[li].row_ptr[node + 1]
        rows[(li, node)] = np.asarray(res.scores.layers[li].values[lo:hi])
    return rows


def consistency_study(graph: Graph, pattern: AttentionPattern, cfg: TrainConfig,
                      widths=(2, 4), ref_width: int = 8, num_runs: int = 4,
                      max_cells: int = 200) -> ConsistencyResult:
    """How close do narrow estimators land to a wide reference, per cell?

    A cell is one (layer, node) attention row.  Each width is trained
    ``num_runs`` times from different seeds; the sample of rows it
    produces for a cell is compared, by energy distance, against the
    reference width's sample.  Two baselines calibrate the scale: the
    uniform row, and rows softmaxed from logits drawn uniformly in the
    clip range (what an arbitrary untrained net could produce).
    """
    if num_runs < 2:
        raise ContractError("consistency needs at least two runs per width")
    if ref_width in widths:
        raise ContractError("reference width listed among the probe widths")
    all_cells = [(li, node) for li in range(pattern.num_layers)
                 for node in range(pattern.n)]
    if len(all_cells) > max_cells:
        pick = derive(cfg.seed, TAG_ANALYSIS, 1).choice(len(all_cells),
                                                        size=max_cells,
                                                        replace=False)
        all_cells = [all_cells[i] for i in np.sort(pick)]

    ref_rows = [_run_rows(graph, pattern, cfg, ref_width, r, all_cells)
                for r in range(num_runs)]
    by_width = {w: [_run_rows(graph, pattern, cfg, w, r, all_cells)
                    for r in range(num_runs)]
                for w in widths}

    mean_dist = {w: 0.0 for w in widths}
    closer = {w: 0 for w in widths}
    closer_both = {w: 0 for w in widths}
    d_unif = d_rand = d_self = 0.0
    half = num_runs // 2
    for li, node in all_cells:
        ref = np.stack([rows[(li, node)] for rows in ref_rows])
        k = ref.shape[1]
        rng = derive(cfg.seed, TAG_ANALYSIS, 2, li, node)
        # ``clip`` bounds what any net can put into the softmax, so the
        # random baseline draws its logits from exactly that range
        rand = np.stack([_softmax(rng.uniform(-cfg.clip, cfg.clip, size=k))
                         for _ in range(num_runs)])
        cell_rand = energy_distance(rand, ref)
        cell_unif = energy_distance(np.full((1, k), 1.0 / k), ref)
        d_rand += cell_rand
        d_unif += cell_unif
        d_self += energy_distance(ref[:half], ref[half:])
        for w in widths:
            sample = np.stack([rows[(li, node)] for rows in by_width[w]])
            d = energy_distance(sample, ref)
            mean_dist[w] += d
            closer[w] += int(d < cell_rand)
            closer_both[w] += int(d < cell_rand and d < cell_unif)
    ncells = len(all_cells)
    return ConsistencyResult(
        widths=tuple(widths), ref_width=ref_width, num_runs=num_runs,
        num_cells=ncells,
        mean_dist={w: v / ncells for w, v in mean_dist.items()},
        frac_closer={w: c / ncells for w, c in closer.items()},
        frac_closer_both={w: c / ncells for w, c in closer_both.items()},
        mean_dist_uniform=d_unif / ncells,
        mean_dist_random=d_rand / ncells,
        mean_dist_self=d_self / ncells)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def write_consistency_json(path, result: ConsistencyResult) -> None:
    obj = {"widths": list(result.widths), "ref_width": result.ref_width,
           "num_runs": result.num_runs, "num_cells": result.num_cells,
           "mean_dist": {str(w): v for w, v in result.mean_dist.items()},
           "frac_closer": {str(w): v for w, v in result.frac_closer.items()},
           "frac_closer_both": {str(w): v
                                for w, v in result.frac_closer_both.items()},
           "mean_dist_uniform": result.mean_dist_uniform,
           "mean_dist_random": result.mean_dist_random,
           "mean_dist_self": result.mean_dist_self}
    write_json(path, obj)


# ---------------------------------------------------------------------------
# Numerical phenomena the design relies on


def spectral_sample_check(n: int = 48, sample_sizes=(256, 1024, 4096, 16384),
                          trials: int = 4, seed: int = 0,
                          zero_frac: float = 0.0) -> dict:
    """Spectral error of entrywise-sampled matrix reconstructions.

    Draw s entries of a nonnegative matrix proportionally to their
    magnitude, rescale counts into an unbiased estimate, and measure
    ||A - B|| as s grows.  The log-log slope should sit near -1/2.
    ``zero_frac`` blanks that fraction of entries first, which makes the
    reported ``support_ok`` nontrivial: a reconstruction must never put
    mass where A has none.
    """
    rng = derive(seed, TAG_ANALYSIS, 3)
    a = rng.random((n, n))
    if zero_frac > 0.0:
        a[rng.random((n, n)) < zero_frac] = 0.0
    total = a.sum()
    p = (a / total).ravel()
    errors = []
    support_ok = True
    for s in sample_sizes:
        errs = []
        for _ in range(trials):
            counts = rng.multinomial(int(s), p).reshape(n, n)
            b = counts * (total / float(s))
            support_ok = support_ok and not np.any(b[a == 0.0])
            errs.append(np.linalg.norm(a - b, 2))
        errors.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(np.asarray(sample_sizes, dtype=np.float64)),
                             np.log(errors), 1)[0])
    return {"n": n, "sample_sizes": list(sample_sizes), "errors": errors,
            "slope": slope, "matrix_norm": float(np.linalg.norm(a, 2)),
            "support_ok": bool(support_ok)}


def projection_distortion_check(dims=(16, 64, 256), n_points: int = 48,
                                in_dim: int = 512, trials: int = 10,
                                seed: int = 0) -> dict:
    """Distance distortion of random sign projections at several widths.

    Projecting with entries +-1/sqrt(d) preserves pairwise squared
    distances up to a relative error shrinking like d^(-1/2); this is
    the reason a narrow network can rank neighbors for a wide one.
    """
    from scipy.spatial.distance import pdist
    rng = derive(seed, TAG_ANALYSIS, 4)
    x = rng.normal(size=(n_points, in_dim))
    d0 = pdist(x, "sqeuclidean")
    distortion = {}
    worst = {}
    for d in dims:
        errs = []
        maxs = []
        for t in range(trials):
            trial_rng = derive(seed, TAG_ANALYSIS, 4, int(d), t)
            signs = (2 * trial_rng.integers(0, 2, size=(in_dim, int(d))) - 1)
            y = x @ (signs / np.sqrt(float(d)))
            dev = np.abs(pdist(y, "sqeuclidean") / d0 - 1.0)
            errs.append(dev.mean())
            maxs.append(dev.max())
        distortion[int(d)] = float(np.mean(errs))
        worst[int(d)] = float(np.median(maxs))
    return {"dims": [int(d) for d in dims], "n_points": n_points,
            "in_dim": in_dim, "mean_abs_distortion": distortion,
            "median_max_distortion": worst}


def check_noisy_proposal(p: np.ndarray, q: np.ndarray, alpha: float) -> None:
    """Importance sampling from q is safe for p when q >= p / alpha."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if alpha < 1.0:
        raise ContractError(f"alpha must be at least 1, got {alpha}")
    bad = np.flatnonzero(q.ravel() < p.ravel() / alpha - 1e-12)
    if bad.size:
        i = int(bad[0])
        raise ContractError(
            f"proposal entry {i} is {q.ravel()[i]:.3e}, "
            f"below p/alpha = {p.ravel()[i] / alpha:.3e}")


def noisy_sampling_check(n: int = 48, alpha: float = 2.0,
                         sample_sizes=(1024, 4096, 16384), trials: int = 4,
                         seed: int = 0) -> dict:
    """Error premium of sampling from a perturbed score distribution.

    The proposal mixes the true distribution with uniform mass so that
    q >= p / alpha, then reweights draws by p/q.  The premium over exact
    sampling should stay near sqrt(alpha), not blow up.
    """
    rng = derive(seed, TAG_ANALYSIS, 5)
    a = rng.random((n, n))
    total = a.sum()
    p = (a / total).ravel()
    beta = 1.0 - 1.0 / alpha
    q = (1.0 - beta) * p + beta / p.size
    check_noisy_proposal(p, q, alpha)
    exact, noisy = [], []
    for s in sample_sizes:
        errs_p, errs_q = [], []
        for _ in range(trials):
            counts = rng.multinomial(int(s), p).reshape(n, n)
            errs_p.append(np.linalg.norm(a - counts * (total / float(s)), 2))
            counts = rng.multinomial(int(s), q).reshape(n, n)
            ratio = (p / q).reshape(n, n)
            errs_q.append(np.linalg.norm(a - counts * ratio * (total / float(s)), 2))
        exact.append(float(np.mean(errs_p)))
        noisy.append(float(np.mean(errs_q)))
    return {"alpha": alpha, "sample_sizes": list(sample_sizes),
            "errors_exact": exact, "errors_noisy": noisy,
            "mean_ratio": float(np.mean(np.asarray(noisy) / np.asarray(exact)))}
