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

from sparsegt.cli import _train_config, build_parser, main
from sparsegt.datasets import load_dataset
from sparsegt.errors import FormatError
from sparsegt.graphs import TEST
from sparsegt.numerics import load_checkpoint
from sparsegt.pipeline import (TrainConfig, build_network, config_from_dict,
                               final_law, metric_value, predict)
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
    assert main(["predict", "--data", d["data"], "--scores", d["scores"],
                 "--run", d["fin"], "--out", d["pred"], "--nodes", "test",
                 "--samples", "2", "--seed", "0"]) == 0
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

    def test_run_configs_record_role(self, ws):
        for stage, role in (("est", "estimator"), ("fin", "final")):
            with open(ws[stage] + "/config.json") as fh:
                assert json.load(fh)["role"] == role

    def test_stage_directories_stand_in_for_their_files(self, ws, tmp_path):
        # --pattern/--scores accept the producing run's directory; the
        # manifest still hashes the file that was actually read
        fin = str(tmp_path / "fin")
        assert main(["train-estimator", "--data", ws["data"],
                     "--pattern", ws["aug"], "--out", str(tmp_path / "est"),
                     "--width", "4", "--epochs", "2", "--seed", "0"]) == 0
        assert main(["train-final", "--data", ws["data"],
                     "--scores", ws["est"], "--out", fin,
                     "--width", "8", "--epochs", "2", "--degs", "4,4",
                     "--batch-size", "16", "--seed", "0"]) == 0
        with open(fin + "/manifest.json") as fh:
            m = json.load(fh)
        assert m["options"]["scores"].endswith("scores.npz")
        assert any(k.endswith("scores.npz") for k in m["inputs"])

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
        ("accuracy", ["--full-graph"])],
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
        assert main(["predict", "--data", ws["data"], "--scores",
                     ws["scores"], "--run", fin, "--out", pred, "--nodes",
                     "test", "--samples", "2", "--seed", "3"]) == 0
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
        assert main(["predict", "--data", ws["data"], "--scores", sharp,
                     "--run", fin, "--out", pred, "--nodes", "all",
                     "--samples", "2", "--seed", "5"]) == 0
        g, _ = load_dataset(ws["data"])
        with open(fin + "/config.json") as fh:
            cfg = config_from_dict({k: v for k, v in json.load(fh).items()
                                    if k != "role"})
        net, loss_name = build_network(g, cfg, "final")
        net.load_state_dict(load_checkpoint(fin + "/ckpt/final.ckpt"))
        law, _ = final_law(cfg, load_scores_npz(sharp))
        assert metrics["sampling_law"] == law.summary()
        assert law.summary()[0]["rows_truncated"] > 0
        probs, _ = predict(net, g.features, load_scores_npz(sharp), cfg.degs,
                           np.arange(g.n), seed=5, n_samples=2,
                           batch_size=cfg.batch_size, k_prime=4,
                           tail_eps=cfg.tail_eps, loss_name=loss_name)
        with open(pred + "/predictions.csv") as fh:
            written = [line.split(",")[2] for line in fh.read().splitlines()[1:]]
        assert written == [f"{p:.6g}" for p in probs]

    def test_predict_on_an_empty_node_set(self, ws, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(ws["data"], data)
        split = (data / "split.csv").read_text().replace("val", "test")
        (data / "split.csv").write_text(split)
        pred = str(tmp_path / "pred")
        assert main(["predict", "--data", str(data), "--scores", ws["scores"],
                     "--run", ws["fin"], "--out", pred, "--nodes", "val"]) == 0
        with open(pred + "/predictions.csv") as fh:
            assert fh.read().splitlines() == ["node,pred,p0"]


@pytest.mark.parametrize("command", ["train-estimator", "train-final", "analyze"])
def test_every_config_flag_reaches_the_config(command):
    # each TrainConfig field the subcommand's parser defines, set away from
    # its parser default, must arrive in the config
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
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
        bad = str(tmp_path / "bad.npz")
        save_scores_npz(bad, replace(scores, layers=tuple(
            replace(sl, values=2.0 * sl.values) for sl in scores.layers)))
        assert main(["predict", "--data", ws["data"], "--scores", bad,
                     "--run", fin, "--out", str(tmp_path / "p")]) == 2
        assert "sums to" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value,message", [
        ("values", np.nan, "non-finite score"),
        ("edge_type", 7, "edge type 7 outside"),
    ])
    def test_predict_rejects_a_malformed_score_file(self, ws, tmp_path, capsys,
                                                    field, value, message):
        scores = load_scores_npz(ws["scores"])
        layer = scores.layers[1]
        arr = getattr(layer, field).copy()
        arr[3] = value
        bad = str(tmp_path / "bad.npz")
        save_scores_npz(bad, replace(scores, layers=(scores.layers[0],
                                                     replace(layer, **{field: arr}))))
        assert main(["predict", "--data", ws["data"], "--scores", bad,
                     "--run", ws["fin"], "--out", str(tmp_path / "p")]) == 2
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
        # a field of another type than its default's
        *(pytest.param("predict", "config", {name: value}, f"config field {name!r}",
                       id=f"config-{name}-{kind}")
          for name, value, kind in (("width", "8", "str"), ("epochs", "3", "str"),
                                    ("full_graph", "yes", "str"), ("lr", "0.1", "str"),
                                    ("width", True, "bool"), ("full_graph", 1, "int"),
                                    ("loss", 2, "int"), ("degs", [4, True], "bool"))),
        # a scores file as bytes, or as an npz archive of these arrays
        *(pytest.param(command, "scores", contents, message, id=f"{command}-scores-{kind}")
          for command in ("train-final", "predict", "analyze")
          for kind, contents, message in (
              ("empty", b"", "not a readable score set"),
              ("text", b"node,score\n", "not a readable score set"),
              ("no-n", {"row_ptr_0": [0, 1]}, "score set has no n"))),
    ])
    def test_an_unreadable_input_exits_2_with_a_manifest(self, ws, tmp_path, capsys,
                                                         command, broken, contents, message):
        run, scores = tmp_path / "run", tmp_path / "scores.npz"
        shutil.copytree(ws["fin"], run)
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
                "predict": ["predict", "--data", ws["data"], "--scores", str(scores),
                            "--run", str(run), "--out", str(out)],
                "analyze": ["analyze", "--kind", "profile", "--scores", str(scores),
                            "--out", str(out)]}[command]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        m = json.loads((out / "manifest.json").read_text())
        assert m["exit_code"] == 2 and message in m["error"]

    def test_predict_rejects_estimator_run(self, ws, tmp_path, capsys):
        code = main(["predict", "--data", ws["data"], "--scores", ws["scores"],
                     "--run", ws["est"], "--out", str(tmp_path / "p")])
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

    def test_import_loads_neither_scipy_spatial_nor_stats(self):
        # no pipeline step runs them, and a fresh process pays for every
        # module it loads; the two analysis functions that need
        # scipy.spatial load it on first use
        code = ("import sys, sparsegt, sparsegt.cli\n"
                "late = sorted(m for m in sys.modules\n"
                "              if m.startswith(('scipy.spatial', 'scipy.stats')))\n"
                "assert not late, late\n"
                "assert sparsegt.energy_distance([0.0], [1.0]) == 2.0\n"
                "assert 'scipy.spatial.distance' in sys.modules\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
