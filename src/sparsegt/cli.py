"""Command line front end for the two-phase pipeline.

Subcommands cover the full workflow: ``gen`` a synthetic dataset,
``augment`` it with a certified expander into an attention pattern,
``train-estimator`` for phase one, ``train-final`` for phase two,
``predict`` from a finished run, and ``analyze`` for the measurement
harnesses.  Every command that produces a directory drops a
manifest.json recording the exact invocation, content hashes of its
inputs, wall-clock time, peak memory and exit code, so results stay
attributable.  A command that fails (exit 2 or 3) after claiming its
directory records its error there too; a directory refused because it
already holds a run keeps its manifest.

Exit codes: 0 success, 2 bad arguments or malformed inputs, 3 a runtime
failure such as no expander reaching the gap target or a diverged run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, datasets
from .errors import (ContractError, DivergenceError, ExpanderGapError,
                     FormatError, ShapeError)
from .graphs import (TEST, TRAIN, VAL, atomic_path, augment, build_expander,
                     load_pattern, save_expander, save_pattern)
from .numerics import load_checkpoint
from .pipeline import (TrainConfig, build_network, config_from_dict, final_law,
                       predict_by_law, train_estimator, train_final, write_json)
from .sampling import load_scores_npz


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _hash_inputs(paths) -> dict:
    out = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.iterdir()):
                if child.is_file():
                    out[str(child)] = _sha256(child)
        elif p.is_file():
            out[str(p)] = _sha256(p)
    return out


class _Manifest:
    """Provenance of one command: ``claim`` takes the output directory,
    ``hash_inputs`` records the inputs, and ``write`` finishes the record
    with the exit code (and the error, if any) once the command ends."""

    def __init__(self, args):
        self.args = args
        self.started = time.time()
        self.out_dir = None
        self.record = {
            "command": args.command,
            "argv": sys.argv[1:],
            "inputs": {},
            "started": datetime.fromtimestamp(self.started,
                                              timezone.utc).isoformat(),
        }

    def claim(self, out_dir, force: bool) -> Path:
        """``out_dir``, created; refused if it already holds a run, unless
        ``force``.  A refused directory's manifest is never rewritten."""
        out_dir = Path(out_dir)
        if (out_dir / "manifest.json").exists() and not force:
            raise ContractError(f"{out_dir} already holds a run; pass --force to "
                                "overwrite")
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        return out_dir

    def hash_inputs(self, paths) -> None:
        self.record["inputs"] = _hash_inputs(paths)

    def write(self, exit_code: int, error: str | None = None) -> None:
        """Write manifest.json into the claimed directory, if any."""
        if self.out_dir is None:
            return
        self.record["options"] = {k: v for k, v in sorted(vars(self.args).items())
                                  if k not in ("func", "command")}
        self.record["exit_code"] = exit_code
        if error is not None:
            self.record["error"] = error
        self.record["wall_seconds"] = round(time.time() - self.started, 3)
        self.record["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        write_json(self.out_dir / "manifest.json", self.record)


def _resolve_input(path, *candidates):
    # gen/augment/train write directories; consumers want one file inside.
    # A directory argument resolves to its conventional member so runs can
    # be chained by output dir, not just by exact file path.
    p = Path(path)
    if p.is_dir():
        for name in candidates:
            if (p / name).is_file():
                return str(p / name)
    return path


def _train_config(args) -> TrainConfig:
    # every TrainConfig field the subcommand's parser defines; degs comes as
    # a comma-separated string
    kwargs = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)
              if f.name != "degs" and hasattr(args, f.name)}
    if getattr(args, "degs", None):
        kwargs["degs"] = tuple(int(d) for d in args.degs.split(","))
    return TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args, manifest) -> int:
    out = manifest.claim(args.out, args.force)
    spec = datasets.SyntheticSpec(
        generator=args.generator, seed=args.seed,
        num_components=args.components, component_size=args.component_size,
        num_bridges=args.bridges, noise=args.noise, blocks=args.blocks,
        block_size=args.block_size, p_intra=args.p_intra,
        p_inter=args.p_inter, feature_dim=args.feature_dim)
    g = datasets.gen_dataset(spec)
    datasets.write_dataset(out, g, spec)
    print(f"wrote {g.n} nodes, {g.num_edges} directed edges, "
          f"homophily {datasets.homophily_ratio(g):.3f} to {out}")
    return 0


def _cmd_augment(args, manifest) -> int:
    out = manifest.claim(args.out, args.force)
    manifest.hash_inputs([args.data])
    g, _ = datasets.load_dataset(args.data)
    x = build_expander(g.n, args.cycles, min_gap=args.min_gap,
                       max_retries=args.max_retries, seed=args.seed)
    pattern = augment(g, x, args.layers)
    save_expander(out / "expander.json", x)
    save_pattern(out / "pattern.tsv", pattern)
    print(f"expander gap {x.gap:.4f} (degree {x.degree}); pattern has "
          f"{pattern.m_aug} entries per layer, {pattern.num_layers} layers")
    return 0


def _cmd_train_estimator(args, manifest) -> int:
    out = manifest.claim(args.out, args.force)
    args.pattern = _resolve_input(args.pattern, "pattern.tsv")
    manifest.hash_inputs([args.data, args.pattern])
    g, _ = datasets.load_dataset(args.data)
    cfg = _train_config(args)
    pattern = load_pattern(args.pattern, g.n, cfg.layers)
    res = train_estimator(g, pattern, cfg, run_dir=out)
    print(f"best epoch {res.best_epoch}: val {res.best_val:.4f}, "
          f"test {res.test_metric:.4f}, tau {res.tau_final:.3f}; "
          f"scores in {out / 'scores'}")
    return 0


def _cmd_train_final(args, manifest) -> int:
    out = manifest.claim(args.out, args.force)
    args.scores = _resolve_input(args.scores, "scores/scores.npz", "scores.npz")
    manifest.hash_inputs([args.data, args.scores])
    g, _ = datasets.load_dataset(args.data)
    cfg = _train_config(args)
    scores = load_scores_npz(args.scores)
    res = train_final(g, scores, cfg, run_dir=out)
    print(f"best epoch {res.best_epoch}: val {res.best_val:.4f}, "
          f"test {res.test_metric:.4f}, edge budget {res.edge_pct:.1f}%")
    return 0


def _cmd_predict(args, manifest) -> int:
    out = manifest.claim(args.out, args.force)
    args.scores = _resolve_input(args.scores, "scores/scores.npz", "scores.npz")
    manifest.hash_inputs([args.data, args.scores, args.run])
    g, _ = datasets.load_dataset(args.data)
    run_dir = Path(args.run)
    with open(run_dir / "config.json") as fh:
        stored = json.load(fh)
    role = stored.pop("role", "final")
    if role != "final":
        raise ContractError(f"{run_dir} holds a {role} run, not a final one")
    cfg = config_from_dict(stored)
    law, degs = final_law(cfg, load_scores_npz(args.scores))
    net, loss_name = build_network(g, cfg, "final")
    net.load_state_dict(load_checkpoint(run_dir / "ckpt" / "final.ckpt"))
    nodes = {"all": np.arange(g.n), "train": g.split_idx(TRAIN),
             "val": g.split_idx(VAL), "test": g.split_idx(TEST)}[args.nodes]
    probs, preds = predict_by_law(net, g.features, law, degs, nodes, seed=args.seed,
                                  n_samples=args.samples, batch_size=cfg.batch_size,
                                  loss_name=loss_name)
    write_predictions(out / "predictions.csv", nodes, probs, preds)
    print(f"wrote predictions for {nodes.size} nodes to {out / 'predictions.csv'}")
    return 0


def write_predictions(path, nodes, probs, preds) -> None:
    """One CSV row per node: its id, predicted label and class probabilities."""
    probs2 = probs[:, None] if probs.ndim == 1 else probs
    with atomic_path(path) as tmp, open(tmp, "w") as fh:
        width = probs2.shape[1]
        fh.write("node,pred," + ",".join(f"p{c}" for c in range(width)) + "\n")
        for i, node in enumerate(nodes):
            pv = np.atleast_1d(preds[i])
            # multilabel rows pack their 0/1 vector with ';' to stay one field
            pred = str(pv[0]) if pv.size == 1 else ";".join(str(v) for v in pv)
            pvals = ",".join(f"{v:.6g}" for v in probs2[i])
            fh.write(f"{node},{pred},{pvals}\n")


def _cmd_analyze(args, manifest) -> int:
    out = manifest.claim(args.out, args.force)
    if args.scores:
        args.scores = _resolve_input(args.scores, "scores/scores.npz",
                                     "scores.npz")
    if args.pattern:
        args.pattern = _resolve_input(args.pattern, "pattern.tsv")
    manifest.hash_inputs([p for p in (args.scores, args.data, args.pattern) if p])
    if args.kind == "profile":
        if not args.scores:
            raise ContractError("profile needs --scores")
        scores = load_scores_npz(args.scores)
        profile = analysis.profile_scores(scores, topk=args.topk)
        analysis.write_profile_csv(out / "profile.csv", profile)
        write_json(out / "profile.json", profile)
        print(f"entropy by layer: "
              + ", ".join(f"{v:.3f}" for v in profile["entropy"]))
    elif args.kind == "spectral":
        result = analysis.spectral_sample_check(n=args.n, seed=args.seed)
        write_json(out / "spectral.json", result)
        print(f"error slope {result['slope']:.3f} (target -0.5)")
    elif args.kind == "projection":
        result = analysis.projection_distortion_check(seed=args.seed)
        write_json(out / "projection.json", result)
        print("mean distortion by width: "
              + ", ".join(f"{d}: {v:.4f}"
                          for d, v in result["mean_abs_distortion"].items()))
    elif args.kind == "noisy":
        result = analysis.noisy_sampling_check(n=args.n, alpha=args.alpha,
                                               seed=args.seed)
        write_json(out / "noisy.json", result)
        print(f"noisy/exact error ratio {result['mean_ratio']:.3f} "
              f"(alpha {args.alpha})")
    else:                       # consistency
        if not (args.data and args.pattern):
            raise ContractError("consistency needs --data and --pattern")
        g, _ = datasets.load_dataset(args.data)
        cfg = _train_config(args)
        pattern = load_pattern(args.pattern, g.n, cfg.layers)
        widths = tuple(int(w) for w in args.widths.split(","))
        result = analysis.consistency_study(g, pattern, cfg, widths=widths,
                                            ref_width=args.ref_width,
                                            num_runs=args.runs,
                                            max_cells=args.max_cells)
        analysis.write_consistency_json(out / "consistency.json", result)
        for w in widths:
            print(f"width {w}: mean distance {result.mean_dist[w]:.4f}, "
                  f"closer than random in {100 * result.frac_closer[w]:.0f}% "
                  f"of cells")
        print(f"baselines: random {result.mean_dist_random:.4f}, "
              f"uniform {result.mean_dist_uniform:.4f}, "
              f"self {result.mean_dist_self:.4f}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_train_args(p, final: bool) -> None:
    p.add_argument("--width", type=int, default=4 if not final else 64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=1)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--weight-decay", dest="weight_decay", type=float,
                   default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", default="auto",
                   choices=("auto", "ce", "bce", "multilabel"))
    p.add_argument("--metric", default="accuracy", choices=("accuracy", "auc"))
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--dtype", default="float32", choices=("float32", "float64"))
    if final:
        p.add_argument("--degs", required=True,
                       help="comma-separated per-layer sample degrees")
        p.add_argument("--batch-size", dest="batch_size", type=int, default=64)
        p.add_argument("--dropout", type=float, default=0.0)
        p.add_argument("--eval-samples", dest="eval_samples", type=int,
                       default=1)
        p.add_argument("--ablation", default="none",
                       choices=("none", "uniform", "max"))
        p.add_argument("--full-graph", dest="full_graph", action="store_true")
        p.add_argument("--no-prefilter", dest="prefilter",
                       action="store_false")
    else:
        p.add_argument("--lam", type=int, default=5)
        p.add_argument("--gamma", type=float, default=0.99)
        p.add_argument("--ablation", default="none",
                       choices=("none", "no-temp", "no-vnorm"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsegt",
        description="two-phase sparse attention on expander-augmented graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--generator", default="bridge",
                   choices=datasets.GENERATORS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--components", type=int, default=8)
    p.add_argument("--component-size", dest="component_size", type=int,
                   default=24)
    p.add_argument("--bridges", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--blocks", type=int, default=4)
    p.add_argument("--block-size", dest="block_size", type=int, default=50)
    p.add_argument("--p-intra", dest="p_intra", type=float, default=0.15)
    p.add_argument("--p-inter", dest="p_inter", type=float, default=0.01)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=8)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("augment",
                       help="attach an expander and write the attention pattern")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cycles", type=int, default=3)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--min-gap", dest="min_gap", type=float, default=0.05)
    p.add_argument("--max-retries", dest="max_retries", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("train-estimator", help="phase one: the score estimator")
    p.add_argument("--data", required=True)
    p.add_argument("--pattern", required=True,
                   help="pattern.tsv file, or the augment output directory")
    p.add_argument("--out", required=True)
    _add_train_args(p, final=False)
    p.set_defaults(func=_cmd_train_estimator)

    p = sub.add_parser("train-final", help="phase two: the sampled wide network")
    p.add_argument("--data", required=True)
    p.add_argument("--scores", required=True,
                   help="scores .npz file, or the estimator run directory")
    p.add_argument("--out", required=True)
    _add_train_args(p, final=True)
    p.set_defaults(func=_cmd_train_final)

    p = sub.add_parser("predict", help="predictions from a finished final run")
    p.add_argument("--data", required=True)
    p.add_argument("--scores", required=True,
                   help="scores .npz file, or the estimator run directory")
    p.add_argument("--run", required=True, help="final run directory")
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", default="test",
                   choices=("all", "train", "val", "test"))
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("analyze", help="measurement harnesses")
    p.add_argument("--kind", required=True,
                   choices=("profile", "spectral", "projection", "noisy",
                            "consistency"))
    p.add_argument("--out", required=True)
    p.add_argument("--scores")
    p.add_argument("--data")
    p.add_argument("--pattern")
    p.add_argument("--topk", type=int, default=4)
    p.add_argument("--n", type=int, default=48)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--widths", default="2,4")
    p.add_argument("--ref-width", dest="ref_width", type=int, default=8)
    p.add_argument("--runs", type=int, default=4)
    p.add_argument("--max-cells", dest="max_cells", type=int, default=200)
    p.add_argument("--width", type=int, default=4)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.01)
    p.set_defaults(func=_cmd_analyze)

    for sp in sub.choices.values():
        sp.add_argument("--force", action="store_true",
                        help="overwrite an existing output directory")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = _Manifest(args)
    try:
        code = args.func(args, manifest)
    except (FormatError, ShapeError, ContractError, FileNotFoundError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.write(2, str(exc))
        return 2
    except (ExpanderGapError, DivergenceError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        manifest.write(3, str(exc))
        return 3
    manifest.write(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
