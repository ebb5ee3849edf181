import json
import multiprocessing
import os
import re
from dataclasses import asdict, replace

import pytest

from gcnbench import graph, harness
from gcnbench.baseline import LOGREG_DEFAULTS, predict_logreg
from gcnbench.checkpoint import load_checkpoint
from gcnbench.cli import main
from gcnbench.dataset import full_truth, load_dataset, make_split, save_dataset, synth_blobs
from gcnbench.graph import full_graph, load_graph, save_graph
from gcnbench.harness import accuracy, config_from_dict, derive_seed, parse_report_csv, run_experiment


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    assert main(["synth", "--n", "60", "--d", "4", "--classes", "3",
                 "--sep", "5.0", "--seed", "0", "--out", str(path)]) == 0
    return path


def test_synth_writes_loadable_dataset(blob_csv):
    ds = load_dataset(blob_csv)
    assert (ds.n, ds.L1, ds.C) == (60, 4, 3)


def test_build_graph_and_train_and_eval(tmp_path, blob_csv, capsys):
    edges = tmp_path / "g.edges"
    assert main(["build-graph", "--data", str(blob_csv), "--method", "knn",
                 "--k", "5", "--out", str(edges)]) == 0
    assert load_graph(edges).n == 60

    ckpt = tmp_path / "gcn.json"
    assert main(["train", "--data", str(blob_csv), "--graph", str(edges),
                 "--model", "gcn", "--labeled", "9", "--seed", "1",
                 "--epochs", "50", "--hidden", "8", "--out", str(ckpt)]) == 0
    model, meta = load_checkpoint(ckpt)
    assert meta["kind"] == "gcn"
    out = capsys.readouterr().out
    assert "unlabeled accuracy" in out

    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(blob_csv),
                 "--graph", str(edges)]) == 0
    assert "accuracy" in capsys.readouterr().out


def test_train_logreg_without_graph(tmp_path, blob_csv):
    ckpt = tmp_path / "logreg.json"
    assert main(["train", "--data", str(blob_csv), "--model", "logreg",
                 "--labeled", "9", "--epochs", "100", "--out", str(ckpt)]) == 0
    _, meta = load_checkpoint(ckpt)
    assert meta["kind"] == "logreg"


def test_eval_scores_a_logreg_checkpoint_as_predict_logreg_does(tmp_path, blob_csv, capsys):
    ckpt = tmp_path / "logreg.json"
    assert main(["train", "--data", str(blob_csv), "--model", "logreg",
                 "--labeled", "9", "--epochs", "20", "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(blob_csv)]) == 0
    ds = load_dataset(blob_csv)
    expected = accuracy(predict_logreg(load_checkpoint(ckpt)[0], ds.X), full_truth(ds))
    assert capsys.readouterr().out == f"accuracy: {expected:.2f}% over 60 nodes\n"


@pytest.mark.parametrize("command", ["train", "eval"])
def test_a_graph_of_another_size_exits_1_naming_both_sizes(tmp_path, blob_csv, capsys, command):
    edges, other, ckpt = tmp_path / "g.edges", tmp_path / "other.edges", tmp_path / "gcn.json"
    assert main(["build-graph", "--data", str(blob_csv), "--out", str(edges)]) == 0
    assert main(["train", "--data", str(blob_csv), "--graph", str(edges), "--model", "gcn",
                 "--labeled", "9", "--epochs", "5", "--out", str(ckpt)]) == 0
    save_graph(full_graph(59), other)
    capsys.readouterr()
    argv = {"train": ["train", "--model", "gcn", "--labeled", "9", "--out", str(tmp_path / "m.json")],
            "eval": ["eval", "--checkpoint", str(ckpt)]}[command]
    assert main([*argv, "--data", str(blob_csv), "--graph", str(other)]) == 1
    assert capsys.readouterr().err == "error: graph has 59 nodes, dataset has 60\n"


def test_train_on_partially_labeled_file(tmp_path, capsys):
    ds = synth_blobs(n=20, d=3, C=2, sep=4.0, seed=0)
    unlabeled = make_split(ds, 4, seed=3, stratified=False).unlabeled[:4].tolist()
    ds = replace(ds, truth=[None if i in unlabeled else t for i, t in enumerate(ds.truth)])
    data, edges = tmp_path / "partial.csv", tmp_path / "g.edges"
    save_dataset(ds, data)
    assert main(["build-graph", "--data", str(data), "--out", str(edges)]) == 0
    for model, graph in (("gcn", ["--graph", str(edges)]), ("logreg", [])):
        ckpt = tmp_path / f"{model}.json"
        assert main(["train", "--data", str(data), *graph, "--model", model,
                     "--labeled", "4", "--uniform", "--seed", "3", "--out", str(ckpt)]) == 0
        assert load_checkpoint(ckpt)[1]["kind"] == model
    out = capsys.readouterr().out
    assert "unlabeled accuracy" not in out


@pytest.mark.parametrize("split", [[], ["--uniform"]])
def test_train_labels_only_rows_with_ground_truth(tmp_path, capsys, split):
    ds = synth_blobs(n=20, d=3, C=2, sep=4.0, seed=0)
    ds = replace(ds, truth=[None if i in (2, 7, 11, 18) else t for i, t in enumerate(ds.truth)])
    data = tmp_path / "partial.csv"
    save_dataset(ds, data)
    for seed in range(6):
        assert main(["train", "--data", str(data), "--model", "logreg", "--labeled", "4",
                     "--seed", str(seed), *split, "--out", str(tmp_path / "m.json")]) == 0
    assert capsys.readouterr().err == ""


def test_train_gcn_requires_graph(tmp_path, blob_csv, capsys):
    code = main(["train", "--data", str(blob_csv), "--model", "gcn",
                 "--labeled", "9", "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "needs --graph" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--hidden", "64"], ["--model-seed", "7"],
                                   ["--hidden", "64", "--model-seed", "7"]],
                         ids=["hidden", "model-seed", "both"])
def test_train_logreg_rejects_gcn_only_flags(tmp_path, blob_csv, capsys, flags):
    ckpt = tmp_path / "logreg.json"
    code = main(["train", "--data", str(blob_csv), "--model", "logreg", "--labeled", "9",
                 *flags, "--out", str(ckpt)])
    assert code == 1
    assert capsys.readouterr().err == "error: --hidden and --model-seed apply only to --model gcn\n"
    assert not ckpt.exists()


def test_the_gcn_only_flags_follow_the_hyperparameters_each_model_reads(
        tmp_path, blob_csv, monkeypatch):
    # a model whose keys include hidden and seed takes both flags, with no edit to the CLI
    monkeypatch.setitem(harness._HP_KEYS, "logreg", harness._HP_KEYS["gcn"])
    ckpt = tmp_path / "logreg.json"
    assert main(["train", "--data", str(blob_csv), "--model", "logreg", "--labeled", "9",
                 "--epochs", "5", "--hidden", "64", "--model-seed", "7", "--out", str(ckpt)]) == 0
    _, meta = load_checkpoint(ckpt)
    assert meta["kind"] == "logreg"


@pytest.mark.parametrize("argv, message", [
    (["synth", "--n", "30", "--d", "4", "--classes", "3", "--sep", "nan", "--out", "{out}"],
     "--sep must be a finite number, got nan"),
    (["synth", "--n", "30", "--d", "4", "--classes", "3", "--sep", "inf", "--out", "{out}"],
     "--sep must be a finite number, got inf"),
    (["synth", "--n", "30", "--d", "4", "--classes", "3", "--seed", "-1", "--out", "{out}"],
     "--seed must be >= 0, got -1"),
    (["synth", "--n", "30", "--d", "4", "--classes", "1", "--out", "{out}"],
     "--classes must be >= 2, got 1"),
    (["build-graph", "--data", "{csv}", "--k", "0", "--out", "{out}"], "--k must be >= 1, got 0"),
    (["train", "--data", "{csv}", "--model", "logreg", "--labeled", "9", "--seed", "-1",
      "--out", "{out}"], "--seed must be >= 0, got -1"),
    (["train", "--data", "{csv}", "--graph", "{edges}", "--labeled", "9", "--model-seed", "-1",
      "--out", "{out}"], "--model-seed must be >= 0, got -1"),
    (["train", "--data", "{csv}", "--model", "logreg", "--labeled", "0", "--out", "{out}"],
     "--labeled must be >= 1, got 0"),
    (["train", "--data", "{csv}", "--graph", "{edges}", "--labeled", "9", "--weight-decay", "-1",
      "--out", "{out}"], "--weight-decay must be >= 0, got -1.0"),
    # bounds that depend on the data: the class count, the rows with ground truth
    (["train", "--data", "{csv}", "--model", "logreg", "--labeled", "2", "--out", "{out}"],
     "--labeled must be >= C=3 for a stratified split, got 2"),
    (["train", "--data", "{csv}", "--model", "logreg", "--labeled", "61", "--out", "{out}"],
     "--labeled must be <= 60, the rows that can be labeled, got 61"),
    (["build-graph", "--data", "{csv}", "--method", "epsilon", "--eps", "-1", "--out", "{out}"],
     "--eps must be > 0 for an epsilon graph, got -1.0"),
    # a config file's messages keep its key names
    (["experiment", "--config", "{config}", "--out", "{out}"], "seed must be >= 0, got -1"),
], ids=["synth-sep-nan", "synth-sep-inf", "synth-seed", "synth-classes", "build-graph-k",
        "train-seed", "train-model-seed", "train-labeled", "train-weight-decay",
        "train-labeled-under-classes", "train-labeled-over-rows", "build-graph-eps",
        "config-gcn-seed"])
def test_out_of_range_separation_or_seed_exits_1_naming_it(tmp_path, blob_csv, capsys, argv, message):
    paths = {"csv": blob_csv, "edges": tmp_path / "g.edges", "config": tmp_path / "cfg.json",
             "out": tmp_path / "out"}
    assert main(["build-graph", "--data", str(blob_csv), "--out", str(paths["edges"])]) == 0
    paths["config"].write_text(json.dumps({"dataset": {"path": str(blob_csv)}, "budgets": [9],
                                           "gcn": {"seed": -1}}), encoding="utf-8")
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not paths["out"].exists()


def test_experiment_happy_path(tmp_path, blob_csv):
    config = {
        "version": 1,
        "dataset": {"path": str(blob_csv)},
        "graph": {"method": "knn", "k": 5},
        "models": ["gcn", "logreg"],
        "budgets": [9],
        "repeats": 2,
        "seed": 0,
        "gcn": {"epochs": 30, "hidden": 8},
        "logreg": {"epochs": 100},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "report.csv"
    agg = tmp_path / "agg.csv"
    md = tmp_path / "report.md"
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out),
                 "--agg-out", str(agg), "--md-out", str(md)]) == 0
    report = parse_report_csv(out.read_text(encoding="utf-8"))
    assert len(report.rows) == 4
    assert agg.read_text(encoding="utf-8").startswith("model,budget,mean_pct")
    assert md.read_text(encoding="utf-8").startswith("| model |")


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
def test_experiment_reports_the_same_with_and_without_the_sidecar(tmp_path, blob_csv,
                                                                  monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    config = {"dataset": {"path": str(blob_csv)}, "graph": {"method": "knn", "k": 5},
              "budgets": [9, 20], "repeats": 2, "gcn": {"epochs": 30, "hidden": 8}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    sidecar = tmp_path / "blobs.csv.gcnbench"
    columns = []
    for present in (False, True):
        assert sidecar.exists() == present
        out = tmp_path / f"report-{present}.csv"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        columns.append([line.split(",")[:5] for line in out.read_text(encoding="utf-8").splitlines()])
    assert columns[0] == columns[1] and len(columns[0]) == 1 + 2 * 2 * 2


def test_edge_files_and_checkpoints_are_the_same_with_and_without_the_sidecar(tmp_path, blob_csv):
    sidecar = tmp_path / "blobs.csv.gcnbench"
    outputs = []
    for present in (False, True):
        assert sidecar.exists() == present
        edges, ckpt = tmp_path / f"g-{present}.edges", tmp_path / f"gcn-{present}.json"
        assert main(["build-graph", "--data", str(blob_csv), "--k", "5", "--out", str(edges)]) == 0
        assert main(["train", "--data", str(blob_csv), "--graph", str(edges), "--labeled", "9",
                     "--epochs", "20", "--out", str(ckpt)]) == 0
        outputs.append((edges.read_bytes(), ckpt.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", ["5", "[1, 2]", '{"dataset": {"path": "x.csv"}, "gcn": [1]}'],
                         ids=["int", "list", "gcn-list"])
def test_experiment_non_object_config_exits_1(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
    assert re.match(r"error: (config|gcn) must be a JSON object", capsys.readouterr().err)


@pytest.mark.parametrize("config, message", [
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9], "models": 5},
     "models must be"),
    ({"dataset": {"path": 7}, "budgets": [9]}, "dataset path must be"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9],
      "logreg": {"hidden": 999, "seed": 5}}, "unknown logreg keys: ['hidden', 'seed']"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9],
      "graph": {"method": "knn", "k": 3, "eps": 0.5}}, "graph method 'knn' does not read eps"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9],
      "graph": {"method": "epsilon", "eps": 0.5, "k": 7}}, "graph method 'epsilon' does not read k"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9],
      "graph": {"method": "full", "k": 7, "metric": "cosine"}},
     "graph method 'full' does not read k, metric"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9],
      "graph": {"method": "voronoi", "eps": 0.5}}, "unknown graph method 'voronoi'"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9, 12, 9]},
     "duplicate label budget 9"),
    ({"dataset": {"synth": {"n": 60, "classes": 3}}, "budgets": [9]},
     "synth spec is missing ['d']"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9], "models": []},
     "config lists no models"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9],
      "models": ["gcn", "logreg", "gcn"]}, "duplicate model name"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": []},
     "config lists no label budgets"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9], "repeats": 0},
     "repeats must be >= 1, got 0"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9], "seed": -1},
     "seed must be >= 0, got -1"),
    ({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9], "seed": 2 ** 64},
     f"seed must be <= {2 ** 64 - 1}, got {2 ** 64}"),
], ids=["models-int", "path-int", "logreg-gcn-keys", "knn-eps", "epsilon-k", "full-k-metric",
        "unknown-method", "duplicate-budget", "synth-missing-d", "no-models", "duplicate-model",
        "no-budgets", "repeats-0", "seed-negative", "seed-past-64-bits"])
def test_experiment_mistyped_config_exits_1(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2(capsys):
    assert main(["synth", "--bogus", "1"]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--method", "knn", "--eps", "0.5"], "graph method 'knn' does not read --eps"),
    (["--eps", "0.5"], "graph method 'knn' does not read --eps"),
    (["--method", "epsilon", "--eps", "0.5", "--k", "7"], "graph method 'epsilon' does not read --k"),
    (["--method", "full", "--k", "7", "--metric", "cosine"],
     "graph method 'full' does not read --k, --metric"),
], ids=["knn-eps", "default-knn-eps", "epsilon-k", "full-k-metric"])
def test_build_graph_rejects_flags_the_method_never_reads(tmp_path, capsys, flags, message):
    # the data file does not exist: the flags are rejected before it is read
    code = main(["build-graph", "--data", str(tmp_path / "absent.csv"), *flags,
                 "--out", str(tmp_path / "g.edges")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "g.edges").exists()


def test_graph_is_rejected_for_a_model_that_uses_none(tmp_path, blob_csv, capsys):
    message = "error: --graph applies only to gcn; logreg uses no graph\n"
    # neither file exists: train fails before it reads any
    assert main(["train", "--data", str(tmp_path / "absent.csv"), "--model", "logreg",
                 "--graph", str(tmp_path / "nonexistent.edges"), "--labeled", "9",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err == message
    ckpt, edges = tmp_path / "logreg.json", tmp_path / "g.edges"
    assert main(["build-graph", "--data", str(blob_csv), "--out", str(edges)]) == 0
    assert main(["train", "--data", str(blob_csv), "--model", "logreg", "--labeled", "9",
                 "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(blob_csv),
                 "--graph", str(edges)]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("flags, message", [
    (["--lr", "-1"], "--lr must be >= 0, got -1.0"),
    (["--epochs", "-1"], "--epochs must be >= 0, got -1"),
    (["--hidden", "0"], "--hidden must be >= 1, got 0"),
], ids=["lr", "epochs", "hidden"])
def test_train_rejects_an_out_of_range_hyperparameter_before_reading_a_file(
        tmp_path, capsys, flags, message):
    # neither file exists: the hyperparameters are checked before either is read
    code = main(["train", "--data", str(tmp_path / "absent.csv"),
                 "--graph", str(tmp_path / "absent.edges"), "--labeled", "9", *flags,
                 "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("model, message", [
    ("gcn", "training diverged: non-finite parameters at epoch 1"),
    ("logreg", "training diverged: non-finite loss at epoch 1"),
], ids=["gcn", "logreg"])
def test_a_diverging_fit_exits_1_with_one_line(tmp_path, blob_csv, capsys, model, message):
    edges, ckpt = tmp_path / "g.edges", tmp_path / "m.json"
    assert main(["build-graph", "--data", str(blob_csv), "--out", str(edges)]) == 0
    graph = ["--graph", str(edges)] if model == "gcn" else []
    capsys.readouterr()
    assert main(["train", "--data", str(blob_csv), *graph, "--model", model, "--labeled", "9",
                 "--lr", "1e308", "--out", str(ckpt)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ckpt.exists()


def test_invalid_k_exits_1(tmp_path, blob_csv, capsys):
    code = main(["build-graph", "--data", str(blob_csv), "--method", "knn",
                 "--k", "0", "--out", str(tmp_path / "g.edges")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_data_file_exits_1(tmp_path, capsys):
    code = main(["build-graph", "--data", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path / "g.edges")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["synth", "--n", "60", "--d", "4", "--classes", "3", "--out", "{nodir}/x.csv"], "--out"),
    (["build-graph", "--data", "{absent}.csv", "--out", "{nodir}/g.edges"], "--out"),
    (["train", "--data", "{absent}.csv", "--graph", "{absent}.edges", "--labeled", "9",
      "--out", "{nodir}/m.json"], "--out"),
    (["experiment", "--config", "{absent}.json", "--out", "{nodir}/r.csv"], "--out"),
    (["experiment", "--config", "{absent}.json", "--out", "{tmp}/r.csv",
      "--agg-out", "{nodir}/a.csv"], "--agg-out"),
    (["experiment", "--config", "{absent}.json", "--out", "{tmp}/r.csv",
      "--md-out", "{nodir}/r.md"], "--md-out"),
], ids=["synth", "build-graph", "train", "experiment", "experiment-agg", "experiment-md"])
def test_a_missing_output_directory_exits_1_before_any_input_is_read(tmp_path, capsys, argv, option):
    # the input files do not exist either: the output directory is checked first
    paths = {"nodir": tmp_path / "nodir", "absent": tmp_path / "absent", "tmp": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: {option} directory {str(paths['nodir'])!r} does not exist\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "pool"])
def test_a_diverging_sweep_exits_1_with_the_first_cells_line(tmp_path, blob_csv, capsys,
                                                           monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    config = {"dataset": {"path": str(blob_csv)}, "budgets": [9], "repeats": 2,
              "gcn": {"lr": 1e308, "epochs": 5}, "logreg": {"lr": 1e308, "epochs": 5}}
    cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.csv"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    # every cell diverges, logreg's with another message: the first cell, a gcn's, is reported
    assert main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: training diverged: non-finite parameters at epoch 1\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [TypeError("unsupported operand"), KeyError("k")])
def test_any_other_exception_in_a_command_exits_1_without_a_traceback(
        tmp_path, blob_csv, capsys, monkeypatch, error):
    def broken(ds, config):
        raise error

    monkeypatch.setattr(graph, "build_graph", broken)  # build-graph imports it when it runs
    code = main(["build-graph", "--data", str(blob_csv), "--out", str(tmp_path / "g.edges")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: internal {type(error).__name__}: {error}\n"
    assert not (tmp_path / "g.edges").exists()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "gcnbench" in capsys.readouterr().out


@pytest.mark.parametrize("model", ["gcn", "logreg"])
def test_train_matches_the_experiment_cell(tmp_path, blob_csv, capsys, model):
    config = config_from_dict({
        "dataset": {"path": str(blob_csv)},
        "graph": {"method": "knn", "k": 5},
        "models": [model],
        "budgets": [9],
        "repeats": 1,
        "gcn": {"epochs": 30, "hidden": 8, "seed": 3},
        "logreg": {"epochs": 100, "lr": 0.3},
    })
    (row,) = run_experiment(config).rows
    edges = tmp_path / "g.edges"
    assert main(["build-graph", "--data", str(blob_csv), "--k", "5", "--out", str(edges)]) == 0
    hp = config.gcn_hp if model == "gcn" else config.logreg_hp
    flags = ["--lr", str(hp.lr), "--epochs", str(hp.epochs), "--weight-decay", str(hp.weight_decay)]
    if model == "gcn":
        flags += ["--graph", str(edges), "--hidden", str(hp.hidden), "--model-seed", str(hp.seed)]
    capsys.readouterr()
    assert main(["train", "--data", str(blob_csv), "--model", model,
                 "--labeled", "9", "--seed", str(derive_seed(0, 9, 0)), *flags,
                 "--out", str(tmp_path / "m.json")]) == 0
    printed = re.search(r"unlabeled accuracy: ([0-9.]+)%", capsys.readouterr().out).group(1)
    assert printed == f"{row.accuracy_pct:.2f}"


def test_default_logreg_checkpoint_records_logreg_defaults(tmp_path, blob_csv):
    ckpt = tmp_path / "logreg.json"
    assert main(["train", "--data", str(blob_csv), "--model", "logreg", "--labeled", "9",
                 "--out", str(ckpt)]) == 0
    assert load_checkpoint(ckpt)[1]["hyperparams"] == asdict(LOGREG_DEFAULTS)


@pytest.mark.parametrize("model, corrupt", [
    ("gcn", lambda p: p.pop("theta1")),
    ("gcn", lambda p: p.pop("theta2")),
    ("gcn", lambda p: p["dims"].update(hidden=7)),
    ("logreg", lambda p: p.pop("weights")),
    ("logreg", lambda p: p.pop("bias")),
    ("logreg", lambda p: p["dims"].update({"in": 5})),
    ("gcn", lambda p: p.update(theta1={"a": 1})),
    ("gcn", lambda p: p["theta2"][0].__setitem__(0, 10 ** 400)),
    ("logreg", lambda p: p.update(weights="abc")),
    ("logreg", lambda p: p["bias"].__setitem__(0, {"a": 1})),
], ids=["no-theta1", "no-theta2", "gcn-dims", "no-weights", "no-bias", "logreg-dims",
        "theta1-object", "theta2-huge-int", "weights-string", "bias-object"])
def test_eval_rejects_malformed_checkpoint(tmp_path, blob_csv, capsys, model, corrupt):
    edges, ckpt = tmp_path / "g.edges", tmp_path / "m.json"
    assert main(["build-graph", "--data", str(blob_csv), "--out", str(edges)]) == 0
    graph = ["--graph", str(edges)] if model == "gcn" else []
    assert main(["train", "--data", str(blob_csv), *graph, "--model", model,
                 "--labeled", "9", "--epochs", "5", "--out", str(ckpt)]) == 0
    payload = json.loads(ckpt.read_text(encoding="utf-8"))
    corrupt(payload)
    ckpt.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(blob_csv), *graph]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("entry, kind", [(True, "bool"), ("0.5", "str"), (None, "NoneType")],
                         ids=["true", "string", "null"])
def test_eval_rejects_a_theta1_entry_that_is_no_number(tmp_path, blob_csv, capsys, entry, kind):
    # true and "0.5" once loaded as 1.0 and 0.5 and were scored; null named no parameter
    edges, ckpt = tmp_path / "g.edges", tmp_path / "gcn.json"
    assert main(["build-graph", "--data", str(blob_csv), "--out", str(edges)]) == 0
    assert main(["train", "--data", str(blob_csv), "--graph", str(edges), "--model", "gcn",
                 "--labeled", "9", "--epochs", "5", "--out", str(ckpt)]) == 0
    payload = json.loads(ckpt.read_text(encoding="utf-8"))
    payload["theta1"][0][0] = entry
    ckpt.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(blob_csv), "--graph", str(edges)]) == 1
    assert capsys.readouterr().err == f"error: theta1 must hold real numbers, got {kind}\n"
