"""End-to-end workflow through the command line front end.

Commands run in-process via main(argv) so one module-scoped fixture can
walk gen -> augment -> train-estimator -> train-final -> predict once and
the individual tests inspect the artifacts.  Exit codes and the manifest
contract get their own cases; one subprocess call checks the installed
entry point works outside this interpreter.
"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sparsegt import cli, errors
from sparsegt.cli import _train_config, build_parser, main
from sparsegt.datasets import load_dataset
from sparsegt.errors import FormatError
from sparsegt.graphs import TEST
from sparsegt.numerics import load_checkpoint, save_checkpoint
from sparsegt.pipeline import (TrainConfig, load_final_run, metric_value, predict,
                               predict_by_law)
from sparsegt.sampling import load_scores_npz, save_scores_npz, validate_scores

GEN = ["--components", "4", "--component-size", "8", "--bridges", "1",
       "--seed", "1"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    d = {k: str(root / k) for k in
         ("data", "aug", "est", "fin", "pred")}
    assert main(["gen", "--out", d["data"]] + GEN) == 0
    assert main(["augment", "--data", d["data"], "--out", d["aug"],
                 "--cycles", "2", "--layers", "2", "--seed", "0"]) == 0
    d["pattern"] = d["aug"] + "/pattern.tsv"
    assert main(["train-estimator", "--data", d["data"],
                 "--pattern", d["pattern"], "--out", d["est"],
                 "--width", "4", "--epochs", "8", "--lr", "0.02",
                 "--seed", "0"]) == 0
    d["scores"] = d["est"] + "/scores/scores.npz"
    assert main(["train-final", "--data", d["data"], "--scores", d["scores"],
                 "--out", d["fin"], "--width", "8", "--epochs", "6",
                 "--degs", "4,4", "--batch-size", "16", "--seed", "0"]) == 0
    assert main(["predict", "--data", d["data"], "--run", d["fin"], "--out", d["pred"],
                 "--nodes", "test", "--samples", "2", "--seed", "0"]) == 0
    d["root"] = str(root)
    return d


class TestWorkflow:
    def test_artifacts_exist(self, ws, tmp_path):
        import os
        for rel in ("data/spec.json", "data/edges.tsv", "aug/expander.json",
                    "aug/pattern.tsv", "est/scores/scores.npz",
                    "est/ckpt/estimator.ckpt", "est/history.csv",
                    "fin/ckpt/final.ckpt", "fin/metrics.json",
                    "pred/predictions.csv"):
            assert os.path.exists(ws["root"] + "/" + rel), rel
        for stage in ("data", "aug", "est", "fin", "pred"):
            assert os.path.exists(ws[stage] + "/manifest.json"), stage

    def test_estimator_scores_are_valid(self, ws):
        scores = load_scores_npz(ws["scores"])
        validate_scores(scores)
        assert scores.layers[0].edge_type is not None

    def test_manifest_contract(self, ws):
        with open(ws["est"] + "/manifest.json") as fh:
            m = json.load(fh)
        assert m["command"] == "train-estimator"
        assert {"argv", "options", "inputs", "started", "wall_seconds",
                "peak_rss_kb"} <= set(m)
        assert m["options"]["width"] == 4
        assert "func" not in m["options"]
        assert m["exit_code"] == 0 and "error" not in m
        assert m["wall_seconds"] >= 0
        assert m["peak_rss_kb"] > 0
        # every input file is content-hashed
        assert any(k.endswith("pattern.tsv") for k in m["inputs"])
        assert all(len(v) == 64 for v in m["inputs"].values())

    def test_predict_hashes_every_file_of_the_run(self, ws):
        # a directory input stands for its files at every depth, so the
        # manifest names the checkpoint and scores predict loaded
        m = json.loads(Path(ws["pred"], "manifest.json").read_text())
        for rel in ("config.json", "ckpt/final.ckpt", "scores/scores.npz"):
            assert str(Path(ws["fin"], rel)) in m["inputs"], rel

    def test_run_configs_record_role(self, ws):
        for stage, role in (("est", "estimator"), ("fin", "final")):
            with open(ws[stage] + "/config.json") as fh:
                assert json.load(fh)["role"] == role

    def test_stage_directories_stand_in_for_their_files(self, ws, tmp_path):
        # --pattern/--scores accept the producing run's directory; the
        # manifest still hashes the files that were actually read
        fin = str(tmp_path / "fin")
        assert main(["train-estimator", "--data", ws["data"],
                     "--pattern", ws["aug"], "--out", str(tmp_path / "est"),
                     "--width", "4", "--epochs", "2", "--seed", "0"]) == 0
        with open(str(tmp_path / "est") + "/manifest.json") as fh:
            assert json.load(fh)["options"]["pattern"].endswith("pattern.tsv")
        assert main(["train-final", "--data", ws["data"],
                     "--scores", ws["est"], "--out", fin,
                     "--width", "8", "--epochs", "2", "--degs", "4,4",
                     "--batch-size", "16", "--seed", "0"]) == 0
        with open(fin + "/manifest.json") as fh:
            m = json.load(fh)
        assert m["options"]["scores"] == ws["est"]
        for rel in ("config.json", "scores/scores.npz"):
            assert str(Path(ws["est"], rel)) in m["inputs"], rel

    @pytest.mark.parametrize("scores", ["est", "scores"], ids=["run", "file"])
    def test_train_final_refuses_features_the_estimator_never_read(self, ws, tmp_path,
                                                                   capsys, scores):
        # a run directory records the hash of its features; a bare score
        # file records nothing, so it is taken as it is
        other, out = str(tmp_path / "other"), tmp_path / "f"
        assert main(["gen", "--out", other] + GEN[:-1] + ["5"]) == 0
        code = main(["train-final", "--data", other, "--scores", ws[scores], "--out", str(out),
                     "--degs", "4,4", "--epochs", "1", "--batch-size", "16"])
        m = json.loads((out / "manifest.json").read_text())
        if scores == "est":
            assert code == 2
            assert "features mismatch" in capsys.readouterr().err
            assert m["exit_code"] == 2 and "features mismatch" in m["error"]
        else:
            assert code == 0 and m["exit_code"] == 0

    def test_train_final_hashes_features_as_the_estimator_read_them(self, ws, tmp_path):
        # a float64 estimator records the float64 bytes; a float32 final run
        # on the same data is accepted
        est = str(tmp_path / "est")
        assert main(["train-estimator", "--data", ws["data"], "--pattern", ws["pattern"],
                     "--out", est, "--width", "4", "--epochs", "1",
                     "--dtype", "float64"]) == 0
        assert main(["train-final", "--data", ws["data"], "--scores", est,
                     "--out", str(tmp_path / "f"), "--degs", "4,4", "--epochs", "1",
                     "--batch-size", "16"]) == 0

    def test_directory_without_the_file_fails_cleanly(self, ws, tmp_path,
                                                      capsys):
        code = main(["train-estimator", "--data", ws["data"],
                     "--pattern", ws["data"], "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_predictions_format(self, ws):
        g, _ = load_dataset(ws["data"])
        test_nodes = g.split_idx(TEST)
        with open(ws["pred"] + "/predictions.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "node,pred,p0"
        assert len(lines) == test_nodes.size + 1
        for line, node in zip(lines[1:], test_nodes):
            cells = line.split(",")
            assert int(cells[0]) == node
            assert cells[1] in ("0", "1")
            assert 0.0 <= float(cells[2]) <= 1.0


    @pytest.mark.parametrize("metric,law", [
        ("auc", ["--ablation", "none"]), ("auc", ["--ablation", "uniform"]),
        ("auc", ["--ablation", "max"]),
        # AUC ranks these six test nodes alike whether predict samples at
        # degree 1 or takes every row whole; accuracy tells them apart
        ("accuracy", ["--degs", "full,full"])],
        ids=["none", "uniform", "max", "full-graph"])
    def test_predict_reproduces_the_run_test_metric(self, ws, tmp_path,
                                                    metric, law):
        # predict samples by the run's own law: the ablation's scores and
        # mode (the prefilter is on too, but with k' = 4 it keeps every row
        # of these flat scores whole; see test_predict_applies_the_prefilter),
        # and for a full-graph run every row whole, as its metric attended
        fin, pred = str(tmp_path / "fin"), str(tmp_path / "pred")
        assert main(["train-final", "--data", ws["data"], "--scores",
                     ws["scores"], "--out", fin, "--width", "8", "--epochs",
                     "4", "--degs", "1,1", "--batch-size", "16", "--seed",
                     "3", "--eval-samples", "2", "--metric", metric] + law) == 0
        assert main(["predict", "--data", ws["data"], "--run", fin, "--out", pred,
                     "--nodes", "test", "--samples", "2", "--seed", "3"]) == 0
        g, _ = load_dataset(ws["data"])
        with open(pred + "/predictions.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        nodes = np.array([int(r[0]) for r in rows])
        probs = np.array([float(r[2]) for r in rows])
        with open(fin + "/metrics.json") as fh:
            expected = json.load(fh)["test_metric"]
        got = metric_value("bce", metric, probs, np.asarray(g.labels)[nodes])
        assert got == pytest.approx(expected, abs=1e-9)

    def test_predict_applies_the_prefilter(self, ws, tmp_path):
        # scores raised to the 8th power put most of each row's mass on a
        # few entries, so k' = 4 at degree 1 truncates rows
        scores = load_scores_npz(ws["scores"])
        layers = []
        for sl in scores.layers:
            v = sl.values ** 8
            sums = np.repeat(np.add.reduceat(v, sl.row_ptr[:-1]),
                             np.diff(sl.row_ptr))
            layers.append(replace(sl, values=v / sums))
        sharp = str(tmp_path / "sharp.npz")
        save_scores_npz(sharp, replace(scores, layers=tuple(layers)))
        fin, pred = str(tmp_path / "fin"), str(tmp_path / "pred")
        assert main(["train-final", "--data", ws["data"], "--scores", sharp,
                     "--out", fin, "--width", "8", "--epochs", "4", "--degs",
                     "1,1", "--batch-size", "16", "--seed", "3"]) == 0
        with open(fin + "/metrics.json") as fh:
            metrics = json.load(fh)
        assert metrics["prefilter_truncated"] > 0
        assert main(["predict", "--data", ws["data"], "--run", fin, "--out", pred,
                     "--nodes", "all", "--samples", "2", "--seed", "5"]) == 0
        g, _ = load_dataset(ws["data"])
        run = load_final_run(fin, g)
        assert metrics["sampling_law"] == run.law.summary()
        assert run.law.summary()[0]["rows_truncated"] > 0
        probs, _ = predict(run.network, g.features, load_scores_npz(sharp), run.cfg.degs,
                           np.arange(g.n), seed=5, n_samples=2, k_prime=4,
                           tail_eps=run.cfg.tail_eps, loss_name=run.loss_name)
        with open(pred + "/predictions.csv") as fh:
            written = [line.split(",")[2] for line in fh.read().splitlines()[1:]]
        assert written == [f"{p:.6g}" for p in probs]

    def test_predict_folds_the_bias_of_an_earlier_checkpoint(self, ws, tmp_path):
        # earlier final checkpoints hold a bias b2 = c beside a running mean
        # n2_mean + c that absorbed it: predict reads the network they encode
        run_dir, pred = tmp_path / "fin", str(tmp_path / "pred")
        shutil.copytree(ws["fin"], run_dir)
        ckpt = run_dir / "ckpt" / "final.ckpt"
        state = load_checkpoint(ckpt)
        for i in range(2):
            c = np.linspace(-0.5, 0.5, 8, dtype=np.float32) * (i + 1)
            state[f"layer{i}.b2"] = c
            state[f"layer{i}.n2_mean"] = state[f"layer{i}.n2_mean"] + c
        save_checkpoint(ckpt, state)
        assert main(["predict", "--data", ws["data"], "--run", str(run_dir), "--out", pred,
                     "--nodes", "all", "--samples", "2", "--seed", "0"]) == 0
        g, _ = load_dataset(ws["data"])
        run = load_final_run(ws["fin"], g)
        want, _ = predict_by_law(run.network, g.features, run.law, run.degs, np.arange(g.n),
                                 seed=0, n_samples=2, loss_name=run.loss_name)
        with open(pred + "/predictions.csv") as fh:
            got = [float(line.split(",")[2]) for line in fh.read().splitlines()[1:]]
        # the file keeps six significant digits
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    def test_predict_on_an_empty_node_set(self, ws, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(ws["data"], data)
        split = (data / "split.csv").read_text().replace("val", "test")
        (data / "split.csv").write_text(split)
        pred = str(tmp_path / "pred")
        assert main(["predict", "--data", str(data), "--run", ws["fin"], "--out", pred,
                     "--nodes", "val"]) == 0
        with open(pred + "/predictions.csv") as fh:
            assert fh.read().splitlines() == ["node,pred,p0"]


def _subparser(command):
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", ["train-estimator", "train-final", "analyze"])
def test_every_config_flag_reaches_the_config(command):
    # each TrainConfig field the subcommand's parser defines, set away from
    # its parser default, must arrive in the config
    sub = _subparser(command)
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    argv, want = [command], {}
    for action in sub._actions:
        if not action.option_strings:
            continue
        flag = action.option_strings[0]
        if action.dest not in fields:
            if action.required:
                argv += [flag, action.choices[0] if action.choices else "x"]
            continue
        if action.dest == "degs":
            argv += [flag, "3,5"]
            want["degs"] = (3, 5)
        elif action.nargs == 0:                 # store_true / store_false
            argv.append(flag)
            want[action.dest] = action.const
        else:
            value = (next(c for c in action.choices if c != action.default)
                     if action.choices else action.type(action.default) + 1
                     if action.type is int else action.default + 0.25)
            argv += [flag, str(value)]
            want[action.dest] = value
    assert {"seed", "width", "layers", "epochs", "lr"} <= set(want)
    cfg = _train_config(build_parser().parse_args(argv))
    got = {name: getattr(cfg, name) for name in want}
    assert got == want
    defaults = TrainConfig()
    assert all(getattr(defaults, name) != value for name, value in want.items()
               if name != "width")


@pytest.mark.parametrize("command,differ", [
    ("train-estimator", {}), ("train-final", {"width": 64}), ("analyze", {"epochs": 30})],
    ids=["train-estimator", "train-final", "analyze"])
def test_parser_defaults_are_the_configs(command, differ):
    # with only its required flags a subcommand builds TrainConfig's defaults,
    # apart from two that differ on purpose and say so in --help
    sub = _subparser(command)
    argv = [command]
    for action in sub._actions:
        if action.required:
            argv += [action.option_strings[0], action.choices[0] if action.choices else "x"]
    cfg = _train_config(build_parser().parse_args(argv))
    assert cfg == replace(TrainConfig(), **differ)
    for action in sub._actions:
        if action.dest in differ:
            assert f"default {differ[action.dest]}" in action.help


class TestExitCodes:
    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert main(["gen", "--out", out] + GEN) == 0
        manifest = (tmp_path / "d" / "manifest.json").read_bytes()
        assert main(["gen", "--out", out] + GEN) == 2
        assert "already holds a run" in capsys.readouterr().err
        # the refused directory keeps the finished run's manifest
        assert (tmp_path / "d" / "manifest.json").read_bytes() == manifest
        assert main(["gen", "--out", out, "--force"] + GEN) == 0

    def test_missing_data_dir(self, tmp_path, capsys):
        code = main(["augment", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "aug")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unreachable_gap_is_a_runtime_failure(self, ws, tmp_path, capsys):
        code = main(["augment", "--data", ws["data"],
                     "--out", str(tmp_path / "aug"), "--cycles", "2",
                     "--min-gap", "0.999", "--max-retries", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("failed:")
        m = json.loads((tmp_path / "aug" / "manifest.json").read_text())
        assert m["exit_code"] == 3 and f"failed: {m['error']}" == err.strip()

    def test_an_unconverged_gap_is_a_runtime_failure(self, tmp_path, capsys):
        # one cycle on 4000 nodes: its gap solve needs about 2000 Lanczos
        # steps, so it stops at the step limit before any gap is certified
        data, out = str(tmp_path / "data"), tmp_path / "aug"
        assert main(["gen", "--out", data, "--components", "40", "--component-size",
                     "100", "--bridges", "20"]) == 0
        assert main(["augment", "--data", data, "--out", str(out), "--cycles", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("failed: spectral gap: no Ritz value converged")
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 3 and f"failed: {m['error']}" == err.strip()

    @pytest.mark.parametrize("name", sorted(
        name for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, Exception)))
    def test_every_error_class_has_its_exit_code(self, tmp_path, monkeypatch, name):
        # a ValueError of errors is a bad input (2), a RuntimeError a runtime
        # failure (3); either way the claimed directory records it
        cls = getattr(errors, name)
        code = 2 if issubclass(cls, ValueError) else 3
        assert issubclass(cls, ValueError if code == 2 else RuntimeError)

        def failing(args, manifest):
            manifest.claim(args.out, args.force)
            raise cls.__new__(cls, "boom")
        monkeypatch.setattr(cli, "_cmd_gen", failing)
        assert main(["gen", "--out", str(tmp_path / "d")]) == code
        m = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert m["exit_code"] == code and m["error"] == "boom"

    def test_bad_degs(self, ws, tmp_path):
        assert main(["train-final", "--data", ws["data"],
                     "--scores", ws["scores"], "--out", str(tmp_path / "f"),
                     "--degs", "0,4"]) == 2

    def test_scores_for_another_graph(self, ws, tmp_path, capsys):
        small = str(tmp_path / "small")
        assert main(["gen", "--out", small, "--components", "2",
                     "--component-size", "8", "--bridges", "1"]) == 0
        assert main(["train-final", "--data", small, "--scores", ws["scores"],
                     "--out", str(tmp_path / "f"), "--degs", "4,4",
                     "--epochs", "1"]) == 2
        assert "scores on 32 nodes, graph on 16" in capsys.readouterr().err
        m = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert m["exit_code"] == 2
        assert m["error"] == "scores on 32 nodes, graph on 16"
        assert m["command"] == "train-final" and m["options"]["degs"] == "4,4"
        assert any(k.endswith("scores.npz") for k in m["inputs"])

    def test_predict_checks_the_score_file_of_a_uniform_run(self, ws, tmp_path,
                                                            capsys):
        fin = str(tmp_path / "fin")
        assert main(["train-final", "--data", ws["data"], "--scores",
                     ws["scores"], "--out", fin, "--degs", "4,4", "--epochs",
                     "1", "--batch-size", "16", "--ablation", "uniform"]) == 0
        scores = load_scores_npz(ws["scores"])
        save_scores_npz(fin + "/scores/scores.npz", replace(scores, layers=tuple(
            replace(sl, values=2.0 * sl.values) for sl in scores.layers)))
        assert main(["predict", "--data", ws["data"], "--run", fin,
                     "--out", str(tmp_path / "p")]) == 2
        assert "sums to" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("values", np.nan, "non-finite score"),
        ("edge_type", 7, "edge type 7 outside"),
    ])
    def test_predict_rejects_a_malformed_score_file(self, ws, tmp_path, capsys,
                                                    field, value, message):
        run = tmp_path / "run"
        shutil.copytree(ws["fin"], run)
        scores = load_scores_npz(run / "scores" / "scores.npz")
        layer = scores.layers[1]
        arr = getattr(layer, field).copy()
        arr[3] = value
        save_scores_npz(run / "scores" / "scores.npz",
                        replace(scores, layers=(scores.layers[0],
                                                replace(layer, **{field: arr}))))
        assert main(["predict", "--data", ws["data"], "--run", str(run),
                     "--out", str(tmp_path / "p")]) == 2
        assert f"layer 2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("column,value,message", [
        (1, "x", "non-integer field"),
        (2, "7", "edge type 7 outside"),
    ])
    def test_train_estimator_rejects_a_malformed_pattern(self, ws, tmp_path, capsys,
                                                         column, value, message):
        lines = Path(ws["pattern"]).read_text().splitlines()
        fields = lines[5].split("\t")
        fields[column] = value
        lines[5] = "\t".join(fields)
        bad = tmp_path / "pattern.tsv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["train-estimator", "--data", ws["data"], "--pattern", str(bad),
                     "--out", str(tmp_path / "e"), "--epochs", "1"]) == 2
        assert f"pattern.tsv:6: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,broken,contents,message", [
        # a run's config.json as text, or as the stored config with fields set
        pytest.param("predict", "config", "{width: 8", "config.json: not a JSON object",
                     id="config-text"),
        pytest.param("predict", "config", {"widht": 8}, "unknown config field 'widht'",
                     id="config-field"),
        pytest.param("predict", "config", {"degs": 4}, "config field 'degs'",
                     id="config-degs"),
        # fields of runs written before they were taken out: refused, not read
        *(pytest.param("predict", "config", {name: value}, f"unknown config field {name!r}",
                       id=f"config-{name}")
          for name, value in (("full_graph", True), ("heads", 1))),
        # a field of another type than its default's
        *(pytest.param("predict", "config", {name: value}, f"config field {name!r}",
                       id=f"config-{name}-{kind}")
          for name, value, kind in (("width", "8", "str"), ("epochs", "3", "str"),
                                    ("lr", "0.1", "str"), ("width", True, "bool"),
                                    ("loss", 2, "int"), ("degs", [4, True], "bool"))),
        # budgets and an ablation that training refuses: predict reads a
        # config as training reads it
        *(pytest.param("predict", "config", edit, message, id=f"config-{kind}")
          for kind, edit, message in (
              ("degs-empty", {"degs": []}, "need 2 degree budgets, got 0"),
              ("degs-short", {"degs": [4]}, "need 2 degree budgets, got 1"),
              ("degs-zero", {"degs": [0, 0]}, "degree budgets must be positive, got 0"),
              ("degs-name", {"degs": ["fill", 4]}, "unknown degree budget 'fill'"),
              ("ablation", {"ablation": "no-temp"},
               "final ablation must be none/uniform/max"),
              # NaN or 2.0 would truncate every row, -1 switch the prefilter off
              *((f"tail-eps-{v}", {"tail_eps": v}, "tail_eps must be in [0, 1)")
                for v in (float("nan"), 2.0, -1.0)))),
        # a scores file as bytes, or as an npz archive of these arrays
        *(pytest.param(command, "scores", contents, message, id=f"{command}-scores-{kind}")
          for command in ("train-final", "predict", "analyze")
          for kind, contents, message in (
              ("empty", b"", "not a readable score set"),
              ("text", b"node,score\n", "not a readable score set"),
              ("no-n", {"row_ptr_0": [0, 1]}, "score set has no n"),
              # n must be one nonnegative integer: not cast, not half read
              *((f"n-{name}", {"n": n}, "score set n must be one nonnegative integer")
                for name, n in (("vector", [8, 8]), ("text", "8"), ("float", 1.5),
                                ("negative", -1), ("bool", True))))),
    ])
    def test_an_unreadable_input_exits_2_with_a_manifest(self, ws, tmp_path, capsys,
                                                         command, broken, contents, message):
        # predict reads the scores the run holds; the others take a file
        run = tmp_path / "run"
        shutil.copytree(ws["fin"], run)
        scores = (run / "scores" if command == "predict" else tmp_path) / "scores.npz"
        if command != "predict":
            shutil.copy(ws["scores"], scores)
        if broken == "config":
            if isinstance(contents, dict):
                stored = json.loads((run / "config.json").read_text())
                contents = json.dumps({**stored, **contents})
            (run / "config.json").write_text(contents)
        elif isinstance(contents, dict):
            np.savez(scores, **contents)
        else:
            scores.write_bytes(contents)
        out = tmp_path / "out"
        argv = {"train-final": ["train-final", "--data", ws["data"], "--scores", str(scores),
                                "--out", str(out), "--degs", "4,4", "--epochs", "1"],
                "predict": ["predict", "--data", ws["data"], "--run", str(run),
                            "--out", str(out)],
                "analyze": ["analyze", "--kind", "profile", "--scores", str(scores),
                            "--out", str(out)]}[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and message in m["error"]

    @pytest.mark.parametrize("degs,message", [
        ("4,x", "unknown degree budget 'x'"),
        ("full", "need 2 degree budgets, got 1"),
    ])
    def test_train_final_refuses_a_budget_it_cannot_read(self, ws, tmp_path, capsys,
                                                         degs, message):
        out = tmp_path / "f"
        assert main(["train-final", "--data", ws["data"], "--scores", ws["scores"],
                     "--out", str(out), "--degs", degs, "--epochs", "1"]) == 2
        assert message in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and message in m["error"]

    @pytest.mark.parametrize("name,edit,message", [
        ("spec.json", lambda text: text[:-3], "spec.json: not a dataset spec"),
        ("spec.json", lambda text: text.replace("{", '{"colour": 1, ', 1),
         "unexpected keyword argument 'colour'"),
        ("spec.json", lambda text: json.dumps({**json.loads(text), "num_components": "8"}),
         "spec field 'num_components' must be int"),
        ("features.csv", lambda text: "x" + text[1:], "features.csv: could not convert"),
        ("labels.csv", lambda text: "one" + text[1:], "labels.csv: could not convert"),
    ], ids=["spec-text", "spec-field", "spec-type", "features", "labels"])
    def test_a_malformed_dataset_exits_2_with_a_manifest(self, ws, tmp_path, capsys,
                                                         name, edit, message):
        data, out = tmp_path / "data", tmp_path / "aug"
        shutil.copytree(ws["data"], data)
        (data / name).write_text(edit((data / name).read_text()))
        assert main(["augment", "--data", str(data), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and message in m["error"]
        assert str(data / name) in m["error"]

    def test_predict_refuses_features_the_run_never_trained_on(self, ws, tmp_path,
                                                               capsys):
        # a second dataset of the same size: same shapes, other features
        other, out = str(tmp_path / "other"), tmp_path / "p"
        assert main(["gen", "--out", other] + GEN[:-1] + ["5"]) == 0
        assert main(["predict", "--data", other, "--run", ws["fin"],
                     "--out", str(out)]) == 2
        assert "features mismatch" in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and "features mismatch" in m["error"]

    def test_predict_takes_no_other_scores(self, ws, tmp_path, capsys):
        # another estimator's scores would draw by a law the network never
        # trained under; the run holds its own, and --scores is gone
        est2, out = str(tmp_path / "est2"), tmp_path / "p"
        assert main(["train-estimator", "--data", ws["data"], "--pattern", ws["pattern"],
                     "--out", est2, "--width", "4", "--epochs", "2", "--seed", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--data", ws["data"], "--scores", est2,
                  "--run", ws["fin"], "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scores" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["features_sha256", "scores"])
    def test_predict_refuses_a_run_of_an_earlier_version(self, ws, tmp_path, capsys,
                                                         missing):
        run, out = tmp_path / "run", tmp_path / "p"
        shutil.copytree(ws["fin"], run)
        if missing == "scores":
            shutil.rmtree(run / "scores")
        else:
            stored = json.loads((run / "config.json").read_text())
            del stored[missing]
            (run / "config.json").write_text(json.dumps(stored))
        assert main(["predict", "--data", ws["data"], "--run", str(run),
                     "--out", str(out)]) == 2
        assert "retrain it" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["exit_code"] == 2

    @pytest.mark.parametrize("field,value", [("full_graph", True), ("heads", 1)])
    def test_train_final_refuses_an_estimator_run_of_an_earlier_version(
            self, ws, tmp_path, capsys, field, value):
        # an estimator run written before the field was taken out names it
        est, out = tmp_path / "est", tmp_path / "f"
        shutil.copytree(ws["est"], est)
        stored = json.loads((est / "config.json").read_text())
        (est / "config.json").write_text(json.dumps({**stored, field: value}))
        assert main(["train-final", "--data", ws["data"], "--scores", str(est),
                     "--out", str(out), "--degs", "4,4", "--epochs", "1"]) == 2
        message = f"unknown config field {field!r}"
        assert message in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and message in m["error"]

    def test_only_a_sampled_run_needs_degs(self, ws, tmp_path, capsys):
        # a full-graph run's budgets say "full", its longest rows; a run
        # without budgets is refused, with a manifest
        base = ["train-final", "--data", ws["data"], "--scores", ws["scores"],
                "--width", "8", "--epochs", "1", "--batch-size", "16"]
        assert main(base + ["--out", str(tmp_path / "full"), "--degs", "full,full"]) == 0
        assert main(base + ["--out", str(tmp_path / "sampled")]) == 2
        assert "need 2 degree budgets, got 0" in capsys.readouterr().err
        m = json.loads((tmp_path / "sampled" / "manifest.json").read_text())
        assert m["exit_code"] == 2 and m["error"] == "need 2 degree budgets, got 0"

    def test_predict_rejects_estimator_run(self, ws, tmp_path, capsys):
        code = main(["predict", "--data", ws["data"], "--run", ws["est"],
                     "--out", str(tmp_path / "p")])
        assert code == 2
        assert "estimator run" in capsys.readouterr().err


class TestAnalyze:
    def test_profile(self, ws, tmp_path, capsys):
        out = str(tmp_path / "an")
        assert main(["analyze", "--kind", "profile", "--scores", ws["scores"],
                     "--out", out, "--topk", "2"]) == 0
        assert "entropy by layer" in capsys.readouterr().out
        lines = Path(out, "profile.csv").read_text().splitlines()
        assert lines[0].startswith("layer,entropy,topk_mass")
        with open(out + "/profile.json") as fh:
            prof = json.load(fh)
        assert len(prof["entropy"]) == 2
        assert prof["topk"] == 2

    def test_scores_without_edge_types_are_malformed(self, ws, tmp_path, capsys):
        with np.load(ws["scores"]) as z:
            arrays = dict(z)
        untyped = str(tmp_path / "untyped.npz")
        np.savez(untyped, **{k: v for k, v in arrays.items()
                             if not k.startswith("edge_type_")})
        with pytest.raises(FormatError, match="layer 1 has no edge_type$"):
            load_scores_npz(untyped)
        assert main(["analyze", "--kind", "profile", "--scores", untyped,
                     "--out", str(tmp_path / "an")]) == 2
        assert "has no edge_type" in capsys.readouterr().err
        # any other missing array is named too, not raised as a KeyError
        del arrays["values_1"]
        np.savez(tmp_path / "short.npz", **arrays)
        with pytest.raises(FormatError, match="layer 2 has no values$"):
            load_scores_npz(tmp_path / "short.npz")

    @pytest.mark.parametrize("name,at,edit,message", [
        pytest.param("row_ptr_0", -1, lambda v: v + 1, "layer 1: col_idx has shape",
                     id="row-ptr-past-the-values"),
        pytest.param("values_0", 0, lambda v: v + 6, "layer 1: row 0 sums to",
                     id="row-sums-to-7"),
        pytest.param("values_1", 0, lambda v: -0.5, "layer 2: negative score",
                     id="negative-score"),
    ])
    def test_profile_validates_the_scores(self, ws, tmp_path, capsys, name, at, edit,
                                          message):
        with np.load(ws["scores"]) as z:
            arrays = dict(z)
        arrays[name][at] = edit(arrays[name][at])
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        out = tmp_path / "an"
        assert main(["analyze", "--kind", "profile", "--scores", str(bad),
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and message in m["error"]

    def test_profile_needs_scores(self, tmp_path):
        assert main(["analyze", "--kind", "profile",
                     "--out", str(tmp_path / "an")]) == 2

    def test_spectral(self, tmp_path):
        out = str(tmp_path / "an")
        assert main(["analyze", "--kind", "spectral", "--n", "24",
                     "--out", out]) == 0
        with open(out + "/spectral.json") as fh:
            res = json.load(fh)
        assert res["n"] == 24
        assert res["slope"] < 0

    def test_projection(self, tmp_path):
        out = str(tmp_path / "an")
        assert main(["analyze", "--kind", "projection", "--out", out]) == 0
        with open(out + "/projection.json") as fh:
            res = json.load(fh)
        d = res["mean_abs_distortion"]
        assert set(d) == {"16", "64", "256"}
        assert d["256"] < d["16"]

    def test_noisy(self, tmp_path):
        out = str(tmp_path / "an")
        assert main(["analyze", "--kind", "noisy", "--n", "16",
                     "--alpha", "2.0", "--out", out]) == 0
        with open(out + "/noisy.json") as fh:
            res = json.load(fh)
        assert res["alpha"] == 2.0
        assert res["mean_ratio"] > 0

    def test_consistency(self, ws, tmp_path, capsys):
        out = str(tmp_path / "an")
        assert main(["analyze", "--kind", "consistency", "--data", ws["data"],
                     "--pattern", ws["pattern"], "--out", out,
                     "--widths", "2", "--ref-width", "4", "--runs", "2",
                     "--max-cells", "5", "--width", "2", "--epochs", "2"]) == 0
        assert "baselines" in capsys.readouterr().out
        with open(out + "/consistency.json") as fh:
            res = json.load(fh)
        assert res["num_cells"] == 5
        assert "2" in res["frac_closer"]


class TestDeterminismAndEntryPoint:
    def test_gen_is_reproducible(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["gen", "--out", a] + GEN) == 0
        assert "wrote 32 nodes" in capsys.readouterr().out
        assert main(["gen", "--out", b] + GEN) == 0
        for name in ("edges.tsv", "features.csv", "labels.csv", "split.csv"):
            assert Path(a, name).read_text() == Path(b, name).read_text()

    def test_module_invocation(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "sparsegt.cli", "gen",
             "--out", str(tmp_path / "d")] + GEN,
            capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert "wrote 32 nodes" in out.stdout

    def test_cli_pipeline_loads_no_scipy_package_and_no_f2py(self, tmp_path):
        # a fresh process pays for every module it loads: the whole CLI
        # pipeline -- gen, augment (which certifies an expander), an AUC
        # estimator, a final run and predict -- runs on numpy and scipy's
        # compiled sparse kernels, loaded without any scipy package's init
        # (scipy.sparse's pulls in numpy.f2py); packages are matched by
        # exact name; scipy.spatial loads in the analysis functions that
        # need it
        d = str(tmp_path)
        steps = [["gen", "--out", d + "/data"] + GEN,
                 ["augment", "--data", d + "/data", "--out", d + "/aug",
                  "--cycles", "2"],
                 ["train-estimator", "--data", d + "/data", "--pattern",
                  d + "/aug/pattern.tsv", "--out", d + "/est", "--width", "4",
                  "--epochs", "1", "--metric", "auc"],
                 ["train-final", "--data", d + "/data", "--scores", d + "/est",
                  "--out", d + "/fin", "--width", "4", "--epochs", "1",
                  "--degs", "2,2"],
                 ["predict", "--data", d + "/data", "--run", d + "/fin",
                  "--out", d + "/pred"]]
        code = ("import json, sys, sparsegt, sparsegt.cli\n"
                "SOLVERS = ('scipy.linalg', 'scipy.sparse.linalg',\n"
                "           'scipy.sparse.csgraph', 'scipy.stats', 'scipy.spatial')\n"
                "PACKAGES = ('scipy', 'scipy.sparse', 'numpy.f2py')\n"
                "def late():\n"
                "    return sorted(m for m in sys.modules\n"
                "                  if m.startswith(SOLVERS) or m in PACKAGES)\n"
                "assert not late(), late()\n"
                "for step in json.loads(sys.argv[1]):\n"
                "    assert sparsegt.cli.main(step) == 0, step\n"
                "assert not late(), late()\n"
                "assert sparsegt.energy_distance([0.0], [1.0]) == 2.0\n"
                "assert 'scipy.spatial.distance' in sys.modules\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code, json.dumps(steps)],
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
