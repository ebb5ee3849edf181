import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from gcnbench import harness
from gcnbench.baseline import train_logreg
from gcnbench.checkpoint import load_checkpoint, save_checkpoint
from gcnbench.dataset import EmbeddingDataset, build_label_matrix, full_truth, make_split, save_dataset, synth_blobs
from gcnbench.gcn import Hyperparams, forward, init_model, predict, train
from gcnbench.graph import GraphBuildConfig, PropagationMatrix, full_graph, knn_graph, normalize
from gcnbench.harness import (
    CellResult,
    EvalReport,
    ExperimentConfig,
    accuracy,
    aggregate_csv,
    config_from_dict,
    confusion_counts,
    _config_dataset,
    derive_seed,
    parse_report_csv,
    render_report,
    run_experiment,
)
from test_package import modules_after


def quick_config(**overrides):
    base = dict(
        budgets=[9],
        synth={"n": 60, "d": 4, "classes": 3, "sep": 5.0, "seed": 0},
        graph=GraphBuildConfig(method="knn", k=5),
        models=["gcn", "logreg"],
        repeats=1,
        seed=0,
        gcn_hp=Hyperparams(lr=0.2, epochs=30, hidden=8),
        logreg_hp=Hyperparams(lr=0.5, epochs=100, weight_decay=1e-4),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_confusion_counts_hand_enumerated():
    counts = confusion_counts([1, 1, 0, 1, 0, 0], [1, 1, 0, 0, 0, 1], positive=1)
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (2, 1, 1, 2)
    assert counts.total == 6


def test_confusion_counts_perfect_prediction():
    counts = confusion_counts([0, 1, 2, 1], [0, 1, 2, 1], positive=1)
    assert counts.fp == 0 and counts.fn == 0


def test_confusion_counts_absent_positive_class():
    counts = confusion_counts([0, 1, 0], [1, 0, 0], positive=7)
    assert (counts.tp, counts.fn, counts.fp, counts.tn) == (0, 0, 0, 3)


def test_confusion_counts_length_mismatch():
    with pytest.raises(ValueError):
        confusion_counts([0, 1], [0], positive=0)


def test_one_vs_rest_counts_partition_items():
    rng = np.random.default_rng(0)
    truth = rng.integers(0, 4, size=50)
    pred = rng.integers(0, 4, size=50)
    assert sum(confusion_counts(pred, truth, c).tp + confusion_counts(pred, truth, c).fn
               for c in range(4)) == 50


def test_accuracy_worked_example():
    # tp=3, tn=2, fp=1, fn=0 over six binary items
    pred = [1, 1, 1, 0, 0, 1]
    truth = [1, 1, 1, 0, 0, 0]
    counts = confusion_counts(pred, truth, positive=1)
    assert (counts.tp, counts.tn, counts.fp, counts.fn) == (3, 2, 1, 0)
    assert accuracy(pred, truth) == pytest.approx(83.33, abs=0.005)


def test_accuracy_simple_cases():
    assert accuracy([1, 2, 0], [1, 2, 0]) == 100.0
    assert accuracy([0, 0, 4, 3, 2, 1, 1, 2, 3, 0], [0, 0, 4, 3, 2, 1, 0, 0, 0, 0]) == 70.0
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError, match=r"^truth must have shape \(2,\), got \(1,\)$"):
        accuracy([0, 1], [0])
    # any integer dtype is read exactly
    assert accuracy(np.array([0, 1, 2], dtype=np.uint8), np.array([0, 1, 1], dtype=np.int32)) == 200 / 3


@pytest.mark.parametrize("pred, truth, name", [
    ([0.9, 1.7], [0, 1], "pred"),
    ([0, 1], [0.0, 1.0], "truth"),
    ([True, False], [1, 0], "pred"),
    ([1, 0], np.array([True, False]), "truth"),
    (["0", "1"], [0, 1], "pred"),
], ids=["pred-float", "truth-float", "pred-bool", "truth-bool", "pred-str"])
def test_scores_reject_class_vectors_that_are_not_integers(pred, truth, name):
    for score in (accuracy, lambda p, t: confusion_counts(p, t, positive=1)):
        with pytest.raises(ValueError, match=f"^{name} must hold integers, got"):
            score(pred, truth)


@pytest.mark.parametrize("positive", [1.0, True, "1", None], ids=["float", "bool", "str", "none"])
def test_confusion_counts_positive_must_be_an_integer(positive):
    # 1.0 and True once matched class 1, "1" and None matched no class and counted no positive
    with pytest.raises(ValueError, match="^positive must be an integer, got "):
        confusion_counts([0, 1], [1, 1], positive)
    assert confusion_counts([0, 1], [1, 1], np.int64(1)) == confusion_counts([0, 1], [1, 1], 1)


@pytest.mark.parametrize("pred, truth, name", [
    ([-1, 0], [-1, 0], "pred"),
    ([0, 1], [0, -3], "truth"),
], ids=["pred", "truth"])
def test_scores_reject_a_negative_class_index(pred, truth, name):
    # accuracy([-1, 0], [-1, 0]) was once 100.0
    for score in (accuracy, lambda p, t: confusion_counts(p, t, positive=0)):
        with pytest.raises(ValueError, match=f"^{name} holds -[0-9]+, a negative class index$"):
            score(pred, truth)


def test_confusion_counts_positive_must_not_be_negative():
    # positive=-5 once counted tn=2 against a class no model predicts
    with pytest.raises(ValueError, match="^positive must be >= 0, got -5$"):
        confusion_counts([0, 1], [1, 1], positive=-5)
    counts = confusion_counts([0, 1], [1, 1], positive=0)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (0, 1, 1, 0)


def test_binary_accuracy_equals_confusion_formula_exactly():
    rng = np.random.default_rng(1)
    for _ in range(100):
        size = int(rng.integers(1, 40))
        pred = rng.integers(0, 2, size=size)
        truth = rng.integers(0, 2, size=size)
        counts = confusion_counts(pred, truth, positive=1)
        q = 100.0 * (counts.tp + counts.tn) / counts.total
        assert q == accuracy(pred, truth)


def test_derive_seed_stable_and_spread():
    assert derive_seed(7, 10, 3) == derive_seed(7, 10, 3)
    seeds = {derive_seed(0, l, r) for l in (9, 30, 50) for r in range(10)}
    assert len(seeds) == 30
    assert all(s >= 0 for s in seeds)


def test_run_experiment_row_count_and_report_shape():
    report = run_experiment(quick_config(budgets=[9, 18], repeats=1))
    assert len(report.rows) == 4  # 2 budgets x 1 repeat x 2 models
    assert report.models() == ["gcn", "logreg"]
    assert report.budgets() == [9, 18]
    for row in report.rows:
        assert 0.0 <= row.accuracy_pct <= 100.0
        assert row.wall_ms >= 0.0


def test_run_experiment_deterministic_up_to_wall_time():
    cfg = quick_config(budgets=[9], repeats=3)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    strip = lambda rows: [(r.model, r.budget, r.repeat, r.seed, r.accuracy_pct) for r in rows]
    assert strip(a.rows) == strip(b.rows)
    assert aggregate_csv(a) == aggregate_csv(b)


def test_run_experiment_validates_budgets_and_truth(tmp_path):
    with pytest.raises(ValueError, match="budget"):
        run_experiment(quick_config(budgets=[60]))
    with pytest.raises(ValueError, match="budget"):
        run_experiment(quick_config(budgets=[2]))
    unlabeled = EmbeddingDataset(ids=[f"u{i}" for i in range(10)],
                                 X=np.random.default_rng(0).standard_normal((10, 3)), C=2)
    path = tmp_path / "unlabeled.csv"
    save_dataset(unlabeled, path)
    with pytest.raises(ValueError, match="ground truth"):
        run_experiment(quick_config(budgets=[3], synth=None, dataset_path=str(path)))


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs run_experiment sees: 1 runs the cells in-process, more in a pool."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    return use


def test_pooled_rows_equal_the_in_process_rows(cpus):
    cfg = quick_config(budgets=[9, 18], repeats=2)
    reports = []
    for count in (1, 2, 3):
        cpus(count)
        reports.append(run_experiment(cfg))
        assert multiprocessing.active_children() == []
    rows = [[(r.model, r.budget, r.repeat, r.seed, r.accuracy_pct) for r in report.rows]
            for report in reports]
    assert len(rows[0]) == 8
    assert rows[1] == rows[0] and rows[2] == rows[0]


def test_pooled_cells_run_in_worker_processes(cpus, monkeypatch):
    parent, fit_predict = os.getpid(), harness.fit_predict

    def in_a_worker(*args):
        assert os.getpid() != parent
        return fit_predict(*args)

    monkeypatch.setattr(harness, "fit_predict", in_a_worker)
    cpus(2)
    assert len(run_experiment(quick_config(repeats=2)).rows) == 4


@pytest.mark.parametrize("count", [1, 2], ids=["in-process", "pool"])
def test_the_first_failing_cell_is_the_error_raised(cpus, monkeypatch, count):
    first = make_split(_config_dataset(quick_config()), 9, seed=derive_seed(0, 9, 0))

    def failing(name, ds, S, split, hp):
        if name == "gcn" and np.array_equal(split.labeled, first.labeled):
            time.sleep(0.2)  # the first cell fails last
        raise ValueError(f"{name} cell labeled {split.labeled.tolist()}")

    monkeypatch.setattr(harness, "fit_predict", failing)
    cpus(count)
    with pytest.raises(ValueError) as raised:
        run_experiment(quick_config(repeats=3))
    assert str(raised.value) == f"gcn cell labeled {first.labeled.tolist()}"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", [1, 2], ids=["in-process", "pool"])
def test_a_split_error_is_raised_before_any_fit(cpus, monkeypatch, tmp_path, count):
    # class 0 has 10 points: budget 9 splits, budget 45 (15 a class) does not
    truth = [0] * 10 + [1] * 25 + [2] * 25
    ds = EmbeddingDataset(ids=[f"p{i}" for i in range(60)],
                          X=np.random.default_rng(0).standard_normal((60, 4)), C=3, truth=truth)
    path = tmp_path / "imbalanced.csv"
    save_dataset(ds, path)

    def no_fit(*args):
        raise AssertionError("a cell was fitted")

    monkeypatch.setattr(harness, "fit_predict", no_fit)
    cpus(count)
    with pytest.raises(ValueError, match="^class 0 has 10 points but the split needs 15$"):
        run_experiment(quick_config(budgets=[9, 45], synth=None, dataset_path=str(path)))


# a CLI sweep whose workers, on their first cell, exit with code 3 ("exit") or print
# "fitting" and sleep for ten minutes ("sleep")
BROKEN_WORKER_SWEEP = """
import json, multiprocessing, os, sys, time
from gcnbench import cli, harness

parent = os.getpid()


def broken(*args):
    if os.getpid() != parent and sys.argv[3] == "exit":
        os._exit(3)
    os.write(1, b"fitting\\n")  # one write, so two workers' lines cannot interleave
    time.sleep(600)


harness.fit_predict = broken
os.sched_getaffinity = lambda pid: {0, 1}
with open(sys.argv[1], "w") as fh:
    json.dump({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3, "sep": 5.0}},
               "budgets": [9], "repeats": 2}, fh)
code = cli.main(["experiment", "--config", sys.argv[1], "--out", sys.argv[2]])
print(len(multiprocessing.active_children()))
sys.exit(code)
"""


def start_broken_sweep(tmp_path, mode):
    src = os.path.dirname(os.path.dirname(harness.__file__))
    return subprocess.Popen([sys.executable, "-c", BROKEN_WORKER_SWEEP, str(tmp_path / "cfg.json"),
                             str(tmp_path / "r.csv"), mode], env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def finish(proc, timeout):
    """(stdout, stderr) of ``proc``; kills its whole process group if it runs past ``timeout``."""
    try:
        return proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the sweep hung")


def test_a_dead_sweep_worker_is_an_error_not_a_hang(tmp_path):
    proc = start_broken_sweep(tmp_path, "exit")
    out, err = finish(proc, 60)
    assert (proc.returncode, out, err) == (1, "0\n", "error: a sweep worker exited with code 3\n")
    with pytest.raises(ProcessLookupError):  # no process of the sweep is left running
        os.killpg(proc.pid, 0)


def test_ctrl_c_ends_a_pooled_sweep_at_once(tmp_path):
    proc = start_broken_sweep(tmp_path, "sleep")
    assert proc.stdout.readline() == "fitting\n"
    os.killpg(proc.pid, signal.SIGINT)  # as Ctrl-C in a terminal does
    start = time.perf_counter()
    finish(proc, 60)
    assert proc.returncode != 0 and time.perf_counter() - start < 10.0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_a_sweep_without_a_graph_model_builds_no_graph(tmp_path):
    ds = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=0)
    ds.X[5] = 0.0  # cosine has no distance for a zero row
    path = tmp_path / "zero-row.csv"
    save_dataset(ds, path)
    cfg = quick_config(synth=None, dataset_path=str(path), models=["logreg"],
                       graph=GraphBuildConfig(method="knn", k=5, metric="cosine"))
    assert [row.model for row in run_experiment(cfg).rows] == ["logreg"]
    with pytest.raises(ValueError, match="^cosine distance undefined for a zero vector$"):
        run_experiment(replace(cfg, models=["gcn", "logreg"]))


def test_importing_the_package_does_not_import_multiprocessing():
    # the star import loads every module of the package, harness and graph among them
    assert "multiprocessing" not in modules_after("from gcnbench import *")


def test_importing_the_package_does_not_import_concurrent_futures():
    assert "concurrent.futures" not in modules_after("from gcnbench import *")


def test_config_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        quick_config(models=["gcn", "svm"])


def test_unlabeled_truth_never_leaks_into_training(tmp_path):
    ds = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=1)
    split = make_split(ds, 9, seed=3, stratified=False)
    tampered = list(ds.truth)
    for i in split.unlabeled:
        tampered[int(i)] = (tampered[int(i)] + 1) % 3
    ds_tampered = EmbeddingDataset(ids=ds.ids, X=ds.X.copy(), C=3, truth=tampered)

    S = normalize(knn_graph(ds, 5))
    hp = Hyperparams(lr=0.2, epochs=30, hidden=8)
    model = init_model(ds.L1, hp.hidden, ds.C, hp.seed)
    paths = []
    for d in (ds, ds_tampered):
        trained, _ = train(model, S, d.X, build_label_matrix(d, split), split.labeled, hp)
        path = tmp_path / f"gcn-{len(paths)}.json"
        save_checkpoint(trained, path, hyperparams=hp)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    truth_a, truth_b = full_truth(ds), full_truth(ds_tampered)
    lr_a, _ = train_logreg(ds.X[split.labeled], truth_a[split.labeled], 3)
    lr_b, _ = train_logreg(ds_tampered.X[split.labeled], truth_b[split.labeled], 3)
    assert np.array_equal(lr_a.W, lr_b.W) and np.array_equal(lr_a.b, lr_b.b)


def test_run_experiment_tampered_unlabeled_truth_changes_only_accuracy(tmp_path):
    ds = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=2)
    split = make_split(ds, 9, seed=derive_seed(0, 9, 0), stratified=False)
    tampered = list(ds.truth)
    for i in split.unlabeled:
        tampered[int(i)] = (tampered[int(i)] + 1) % 3
    clean_path, tampered_path = tmp_path / "clean.csv", tmp_path / "tampered.csv"
    save_dataset(ds, clean_path)
    save_dataset(EmbeddingDataset(ids=ds.ids, X=ds.X.copy(), C=3, truth=tampered), tampered_path)

    reports = [run_experiment(quick_config(budgets=[9], stratified=False, synth=None,
                                           dataset_path=str(p)))
               for p in (clean_path, tampered_path)]
    for row_a, row_b in zip(reports[0].rows, reports[1].rows):
        assert (row_a.model, row_a.budget, row_a.repeat, row_a.seed) == \
               (row_b.model, row_b.budget, row_b.repeat, row_b.seed)
        assert row_a.accuracy_pct != row_b.accuracy_pct


def test_normalize_features_flag():
    normed_cfg = quick_config(normalize_features=True)
    normed_a = run_experiment(normed_cfg)
    normed_b = run_experiment(normed_cfg)
    strip = lambda rows: [(r.model, r.budget, r.repeat, r.seed, r.accuracy_pct) for r in rows]
    assert strip(normed_a.rows) == strip(normed_b.rows)
    # unit-norm features change the neighbor geometry: node 1 points the same
    # way as node 0 but sits euclidean-far until rows are rescaled
    from gcnbench.dataset import l2_normalize_rows
    from gcnbench.graph import knn_graph
    X = np.array([[1.0, 0.0], [100.0, 1.0], [1.5, 1.5], [0.9, 2.0]])
    raw = knn_graph(X, 1).edge_set()
    normed = knn_graph(l2_normalize_rows(X), 1).edge_set()
    assert (0, 2) in raw and (0, 1) not in raw
    assert (0, 1) in normed and raw != normed


def test_aggregates_match_recomputation():
    report = run_experiment(quick_config(budgets=[9, 12], repeats=4))
    for agg in report.aggregates():
        accs = [r.accuracy_pct for r in report.rows
                if r.model == agg.model and r.budget == agg.budget]
        assert agg.repeats == 4
        mean = sum(accs) / len(accs)
        std = (sum((a - mean) ** 2 for a in accs) / len(accs)) ** 0.5
        assert abs(agg.mean_pct - mean) <= 1e-12
        assert abs(agg.std_pct - std) <= 1e-12


def test_markdown_layout_models_by_budgets():
    budgets = [10, 20, 30, 40, 50]
    values = [76.42, 87.7, 91.79, 90.17, 90.22]
    rows = [CellResult(model="gcn", budget=b, repeat=0, seed=b, accuracy_pct=v, wall_ms=1.0)
            for b, v in zip(budgets, values)]
    text = render_report(EvalReport(rows=rows), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| model | l=10 | l=20 | l=30 | l=40 | l=50 |"
    assert lines[2] == "| gcn | 76.42 | 87.70 | 91.79 | 90.17 | 90.22 |"
    assert len(lines) == 3  # single data row, logreg filtered out entirely
    # models that do not share every budget: a missing (model, budget) is an empty cell, where
    # it once raised "no rows for model 'gcn' at budget 30"; aggregate_csv renders it too
    ragged = EvalReport(rows=rows[:2] + [CellResult("logreg", 30, 0, 30, 88.5, 1.0)])
    assert render_report(ragged, "markdown").splitlines() == [
        "| model | l=10 | l=20 | l=30 |", "|---|---|---|---|",
        "| gcn | 76.42 | 87.70 |  |", "| logreg |  |  | 88.50 |"]
    assert aggregate_csv(ragged).count("\n") == 4


def test_report_csv_round_trip():
    report = run_experiment(quick_config(budgets=[9], repeats=2))
    text = render_report(report, "csv")
    parsed = parse_report_csv(text)
    assert parsed == report
    assert render_report(parsed, "csv") == text


def test_a_gcn_fit_propagates_the_features_once(monkeypatch):
    # d=5 is neither the hidden width nor C, so an X-wide product is S @ X; the fit reads the
    # one its caller made, and makes none of its own
    ds = synth_blobs(n=60, d=5, C=3, sep=5.0, seed=0)
    S = normalize(knn_graph(ds, k=5))
    split = make_split(ds, 9, seed=1)
    hp = Hyperparams(lr=0.2, epochs=30, hidden=8)
    propagated = (S, S.matmul(ds.X))
    widths = _spy_on_matmul(monkeypatch)
    trained, trace, pred = harness.fit_predict("gcn", ds, propagated, split, hp)
    assert widths and ds.L1 not in widths
    monkeypatch.undo()
    want, want_trace = train(init_model(ds.L1, hp.hidden, ds.C, hp.seed), S, ds.X,
                             build_label_matrix(ds, split), split.labeled, hp)
    assert trace == want_trace
    assert np.array_equal(trained.theta1, want.theta1) and np.array_equal(trained.theta2, want.theta2)
    assert np.array_equal(pred, predict(forward(trained, S, ds.X)))


def _spy_on_matmul(monkeypatch) -> list:
    """The operand width of every PropagationMatrix.matmul call from now on, in call order."""
    widths, matmul = [], PropagationMatrix.matmul

    def spy(self, M):
        widths.append(M.shape[1])
        return matmul(self, M)

    monkeypatch.setattr(PropagationMatrix, "matmul", spy)
    return widths


def test_a_sweep_propagates_the_features_once(cpus, monkeypatch):
    # four GCN cells in process: one S @ X (d=4 is neither the hidden width 8 nor C=3) before
    # them, and one S @ H1 each to predict
    cfg = quick_config(budgets=[9, 18], repeats=2)
    cpus(1)
    widths = _spy_on_matmul(monkeypatch)
    report = run_experiment(cfg)
    assert widths == [4] + [8] * 4
    monkeypatch.undo()
    ds = _config_dataset(cfg)
    S, truth, hp = normalize(knn_graph(ds, k=5)), full_truth(ds), cfg.gcn_hp
    gcn_rows = [row for row in report.rows if row.model == "gcn"]
    assert len(gcn_rows) == 4
    for row in gcn_rows:
        split = make_split(ds, row.budget, seed=row.seed)
        trained, _ = train(init_model(ds.L1, hp.hidden, ds.C, hp.seed), S, ds.X,
                           build_label_matrix(ds, split), split.labeled, hp)
        pred = predict(forward(trained, S, ds.X))
        assert row.accuracy_pct == accuracy(pred[split.unlabeled], truth[split.unlabeled])


@pytest.mark.parametrize("text, message", [
    ("", "not a report CSV: bad header"),
    ("model,budget\ngcn,9\n", "not a report CSV: bad header"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,50.0,1.0\ngcn,9,1,2,50.0\n", "line 3: expected 6 fields, got 5"),
    (harness.REPORT_HEADER + "\ngcn,x,0,1,50.0,1.0\n", "line 2: budget 'x' is not a plain integer >= 0"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,50.0,1.0\nmlp,9,0,1,50.0,1.0\n",
     r"line 3: unknown model 'mlp', expected one of \('gcn', 'logreg'\)"),
    (harness.REPORT_HEADER + "\n,9,0,1,50.0,1.0\n", r"line 2: unknown model '', expected one of \('gcn', 'logreg'\)"),
    (harness.REPORT_HEADER + "\ngcn,9,-1,1,50.0,1.0\n", "line 2: repeat '-1' is not a plain integer >= 0"),
    (harness.REPORT_HEADER + "\ngcn,9,0, 1,50.0,1.0\n", "line 2: seed ' 1' is not a plain integer >= 0"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,fifty,1.0\n", "line 2: accuracy_pct 'fifty' is not a finite number"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,nan,1.0\n", "line 2: accuracy_pct 'nan' is not a finite number"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,100.5,1.0\n", r"line 2: accuracy_pct 100.5 outside \[0, 100\]"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,50.0,inf\n", "line 2: wall_ms 'inf' is not a finite number"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,50.0,-1.0\n", "line 2: wall_ms -1.0 is negative"),
    (harness.REPORT_HEADER + "\ngcn,9,0,1,50.0,1.0\ngcn,9,0,2,60.0,1.0\n",
     r"line 3: duplicate report row for \('gcn', 9, 0\)"),
    # blank lines are skipped but counted: this once said line 3
    (harness.REPORT_HEADER + "\ngcn,9,0,1,50.0,1.0\n\n\ngcn,9,1,2,500.0,1.0\n",
     r"line 5: accuracy_pct 500.0 outside \[0, 100\]"),
], ids=["empty", "bad-header", "short-row", "budget-not-int", "unknown-model", "empty-model",
        "negative-repeat", "padded-seed", "accuracy-not-number", "accuracy-nan", "accuracy-above-100",
        "wall-inf", "wall-negative", "duplicate-row", "bad-row-after-blank-lines"])
def test_parse_report_csv_names_a_malformed_report(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_report_csv(text)


def test_render_rejects_empty_or_unknown():
    with pytest.raises(ValueError):
        render_report(EvalReport(rows=[]), "csv")
    with pytest.raises(ValueError, match="^cannot render an empty report$"):
        aggregate_csv(EvalReport(rows=[]))
    report = EvalReport(rows=[CellResult("gcn", 5, 0, 1, 50.0, 1.0)])
    with pytest.raises(ValueError):
        render_report(report, "yaml")


def test_report_validation():
    with pytest.raises(ValueError, match="duplicate"):
        EvalReport(rows=[CellResult("gcn", 5, 0, 1, 50.0, 1.0),
                         CellResult("gcn", 5, 0, 2, 60.0, 1.0)])
    with pytest.raises(ValueError, match="accuracy"):
        EvalReport(rows=[CellResult("gcn", 5, 0, 1, 150.0, 1.0)])


def test_config_from_dict_defaults_and_validation():
    cfg = config_from_dict({
        "dataset": {"synth": {"n": 50, "d": 3, "classes": 2, "sep": 4.0, "seed": 1}},
        "budgets": [5, 10],
    })
    assert cfg.models == ["gcn", "logreg"]
    assert cfg.repeats == 10 and cfg.stratified and not cfg.normalize_features
    assert cfg.graph.method == "knn" and cfg.graph.k == 5
    assert cfg.gcn_hp.lr == 0.2 and cfg.logreg_hp.epochs == 500

    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5], "modles": []})
    with pytest.raises(ValueError, match="version"):
        config_from_dict({"version": 2, "dataset": {"path": "x.csv"}, "budgets": [5]})
    with pytest.raises(ValueError):
        config_from_dict({"dataset": {}, "budgets": [5]})
    with pytest.raises(ValueError, match="unknown graph method"):
        config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5],
                          "graph": {"method": "voronoi"}})
    with pytest.raises(ValueError, match="unknown graph method"):
        config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5],
                          "graph": {"method": "voronoi", "k": 3, "eps": 0.5}})
    for graph, unread in (({"method": "knn", "k": 3, "eps": 0.5}, "eps"),
                          ({"eps": 0.5}, "eps"),
                          ({"method": "epsilon", "eps": 0.5, "k": 7}, "k"),
                          ({"method": "full", "k": 7, "metric": "cosine"}, "k, metric"),
                          ({"method": "full", "eps": 0.5}, "eps")):
        with pytest.raises(ValueError, match=rf"^graph method '\w+' does not read {unread}$"):
            config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5], "graph": graph})
    for graph in ({"method": "knn", "k": 3, "metric": "cosine"},
                  {"method": "epsilon", "eps": 0.5, "metric": "cosine"}, {"method": "full"}):
        assert config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5],
                                 "graph": graph}).graph.method == graph["method"]
    with pytest.raises(ValueError, match="unknown gcn keys"):
        config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5],
                          "gcn": {"learning_rate": 0.1}})
    for key in ("hidden", "seed"):
        with pytest.raises(ValueError, match=rf"^unknown logreg keys: \['{key}'\]$"):
            config_from_dict({"dataset": {"path": "x.csv"}, "budgets": [5], "logreg": {key: 5}})


@pytest.mark.parametrize("override, field", [
    ({"stratified": "false"}, "stratified"),
    ({"normalize_features": 1}, "normalize_features"),
    ({"repeats": 2.5}, "repeats"),
    ({"seed": True}, "seed"),
    # derive_seed mixes 64 bits, so -1 and 2**64 ran the sweeps of 2**64 - 1 and 0
    ({"seed": -1}, "seed"),
    ({"seed": 2 ** 64}, "seed"),
    ({"budgets": [9.7]}, "budgets"),
    ({"budgets": 6}, "budgets"),
    ({"gcn": {"epochs": "5"}}, "epochs"),
    ({"logreg": {"lr": float("inf")}}, "lr"),
    ({"gcn": {"weight_decay": float("nan")}}, "weight_decay"),
    ({"graph": {"k": "5"}}, "k"),
    ({"graph": {"method": "epsilon", "eps": float("nan")}}, "eps"),
    ({"dataset": {"synth": {"n": 60, "d": 4.0, "classes": 3}}}, "synth d"),
    ({"models": 5}, "models"),
    ({"dataset": {"path": 7}}, "dataset path"),
], ids=["stratified-str", "normalize-int", "repeats-float", "seed-bool", "seed-negative",
        "seed-past-64-bits", "budget-float",
        "budgets-int", "epochs-str", "lr-inf", "weight-decay-nan", "k-str", "eps-nan",
        "synth-d-float", "models-int", "path-int"])
def test_config_values_are_type_checked_not_coerced(override, field):
    raw = {"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9], **override}
    with pytest.raises(ValueError, match=f"^{field} must be"):
        _config_dataset(config_from_dict(raw))


@pytest.mark.parametrize("raw, section", [
    (5, "config"),
    ([1, 2], "config"),
    (None, "config"),
    ({"dataset": [1], "budgets": [9]}, "dataset"),
    ({"budgets": [9]}, "dataset"),
    ({"dataset": {"synth": 5}, "budgets": [9]}, "synth"),
    ({"dataset": {"path": "x.csv"}, "budgets": [9], "graph": "knn"}, "graph"),
    ({"dataset": {"path": "x.csv"}, "budgets": [9], "gcn": [1]}, "gcn"),
    ({"dataset": {"path": "x.csv"}, "budgets": [9], "logreg": None}, "logreg"),
], ids=["top-int", "top-list", "top-null", "dataset-list", "dataset-missing", "synth-int",
        "graph-str", "gcn-list", "logreg-null"])
def test_config_sections_must_be_objects(raw, section):
    with pytest.raises(ValueError, match=f"^{section} must be a JSON object"):
        config_from_dict(raw)


def test_synth_spec_without_sep_matches_cli_synth_default(tmp_path):
    from gcnbench.cli import main
    from gcnbench.dataset import load_dataset

    path = tmp_path / "blobs.csv"
    assert main(["synth", "--n", "60", "--d", "4", "--classes", "3", "--out", str(path)]) == 0
    cfg = config_from_dict({"dataset": {"synth": {"n": 60, "d": 4, "classes": 3}}, "budgets": [9]})
    assert np.array_equal(_config_dataset(cfg).X, load_dataset(path).X)


def checkpoint_of_version(tmp_path, version):
    path = tmp_path / "model.json"
    save_checkpoint(init_model(3, 2, 2, seed=0), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**payload, "version": version}), encoding="utf-8")
    return load_checkpoint(path)


def blobs():
    return synth_blobs(n=30, d=3, C=3, seed=0)


@pytest.mark.parametrize("call, name", [
    (lambda tmp: synth_blobs(n=30.0, d=3, C=3), "n"),
    (lambda tmp: synth_blobs(n=30, d=True, C=3), "d"),
    (lambda tmp: synth_blobs(n=30, d=3, C=np.float64(3)), "C"),
    (lambda tmp: synth_blobs(n=30, d=3, C=3, seed=1.5), "seed"),
    (lambda tmp: synth_blobs(n=30, d=3, C=3, sep=True), "sep"),
    (lambda tmp: synth_blobs(n=30, d=3, C=3, sep="6"), "sep"),
    (lambda tmp: make_split(blobs(), 6.0, 0), "l"),
    (lambda tmp: make_split(blobs(), 6, 1.5), "seed"),
    (lambda tmp: make_split(blobs(), 6, 0, stratified=1), "stratified"),
    (lambda tmp: init_model(3.0, 4, 3, 0), "L1"),
    (lambda tmp: init_model(3, True, 3, 0), "L2"),
    (lambda tmp: init_model(3, 4, "3", 0), "C"),
    (lambda tmp: init_model(3, 4, 3, 0.5), "seed"),
    (lambda tmp: full_graph("3"), "n"),
    (lambda tmp: config_from_dict({"version": True, "dataset": {"path": "x.csv"}, "budgets": [5]}),
     "config version"),
    (lambda tmp: config_from_dict({"version": 1.0, "dataset": {"path": "x.csv"}, "budgets": [5]}),
     "config version"),
    (lambda tmp: checkpoint_of_version(tmp, True), "checkpoint version"),
    (lambda tmp: checkpoint_of_version(tmp, 1.0), "checkpoint version"),
], ids=["synth-n-float", "synth-d-bool", "synth-c-numpy-float", "synth-seed-float", "synth-sep-bool",
        "synth-sep-str", "split-l-float", "split-seed-float", "split-stratified-int",
        "init-l1-float", "init-l2-bool", "init-c-str", "init-seed-float", "full-n-str",
        "config-version-bool", "config-version-float", "checkpoint-version-bool",
        "checkpoint-version-float"])
def test_library_counts_and_seeds_are_type_checked(tmp_path, call, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(tmp_path)
