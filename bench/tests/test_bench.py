"""Tests of the benchmark itself: span arithmetic, wrapper binding, checks and counts.

Run with ``python -m pytest bench/tests``.  The count tests run every
workload once untraced and once traced at the default seed, which takes
about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_self_time_subtracts_direct_children_only():
    #   root 0..10
    #     a 1..4
    #       b 2..3
    #     c 5..9
    tree = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["c", 5.0, 9.0, 0]]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    summary = spans.summarize(tree + [["b", 6.0, 6.5, 3]])
    assert summary["b"] == (2, 1.5, 1.5)
    assert summary["c"] == (1, 4.0, 3.5)


def _namespaces():
    import gcnbench

    modules = [m for name, m in sys.modules.items() if name.startswith("gcnbench")]
    bound = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    bound[("PropagationMatrix", "matmul")] = gcnbench.PropagationMatrix.__dict__["matmul"]
    return bound


def _tiny_sweep(tmp_path):
    from gcnbench import harness

    X, truth = workloads.blobs(60, 4, 3, workloads.SEP, seed=5)
    workloads.write_csv(tmp_path / "tiny.csv", X, truth, 3)
    return harness.config_from_dict({
        "dataset": {"path": str(tmp_path / "tiny.csv")}, "budgets": [6], "repeats": 1,
        "gcn": {"epochs": 3}, "logreg": {"epochs": 4},
    })


def test_wrappers_bind_every_namespace_and_are_restored(tmp_path):
    from gcnbench import cli, gcn, harness

    cfg = _tiny_sweep(tmp_path)
    before = _namespaces()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        # harness and cli hold their own references to train; both must be wrapped
        assert harness.train is gcn.train
        assert harness.train.__wrapped__ is before[("gcnbench.gcn", "train")]
        assert cli.train is harness.train
        harness.run_experiment(cfg)
    assert _namespaces() == before
    m = spans.layer_metrics(tracer)
    # one gcn cell: 3 epochs -> 4 forwards in train, 1 more to predict
    assert m["graph.matmul_features.calls"] == 5
    assert m["graph.matmul.calls"] == 5 * 2 + 3
    assert m["gcn.backward.calls"] == 3
    assert m["gcn.epochs"] == 3
    assert m["baseline.logreg_loss_grad.calls"] == 5
    assert m["dataset.load_dataset.calls"] == 1
    assert tracer._stack == []


def test_wrappers_are_restored_when_the_operation_raises():
    from gcnbench import harness

    before = _namespaces()
    with pytest.raises(OSError):
        with spans.installed(spans.Tracer()):
            harness.run_experiment(harness.ExperimentConfig(budgets=[1], dataset_path="missing.csv"))
    assert _namespaces() == before


def test_generator_matches_the_package_writer(tmp_path):
    import gcnbench

    gcnbench.save_dataset(gcnbench.synth_blobs(n=50, d=12, C=5, sep=6.0, seed=7), tmp_path / "a.csv")
    X, truth = workloads.blobs(50, 12, 5, 6.0, seed=7)
    workloads.write_csv(tmp_path / "b.csv", X, truth, 5)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("body, problem", [
    ("#nodes=4\n0\t1\n1\t2\n2\t3\n", None),
    ("#nodes=4\n1\t2\n0\t1\n2\t3\n", "not sorted"),
    ("#nodes=4\n0\t1\n0\t1\n2\t3\n", "not sorted"),
    ("#nodes=4\n1\t0\n2\t3\n", "outside"),
    ("#nodes=5\n0\t1\n1\t2\n2\t3\n", "expected 4"),
])
def test_edge_file_invariants(tmp_path, body, problem):
    path = tmp_path / "g.edges"
    path.write_text(body)
    found = workloads.edge_problem(path, 4)
    assert (found is None) if problem is None else (problem in found)


def test_knn_degree_invariant(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("#nodes=4\n0\t1\n1\t2\n2\t3\n")
    assert workloads.edge_problem(path, 4, min_degree=1) is None
    assert "degree 1 < 2" in workloads.edge_problem(path, 4, min_degree=2)


def _copy_bench(dest, with_sources):
    """A checkout holding BENCHMARK.json, bench/ and, if asked, the package sources."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def test_corrupted_reference_fails_the_command(tmp_path):
    _copy_bench(tmp_path, with_sources=True)
    path = tmp_path / "bench" / "references.json"
    refs = json.loads(path.read_text())
    refs["readme-sweep"]["cells"][3][3] += 1e-9
    path.write_text(json.dumps(refs))
    proc = _run(["--workload", "readme-sweep", "--seed", "0", "--seconds", "0"], cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "check failed: cell ('logreg', 9, 1)" in proc.stdout


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    _copy_bench(tmp_path, with_sources=False)
    proc = _run(["--workload", "readme-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# Counts per traced operation at the default seed, at this version of the package.
EXPECTED_COUNTS = {
    "readme-sweep": {"graph.matmul.calls": 12080, "graph.matmul_features.calls": 4040,
                     "gcn.forward.calls": 4040, "gcn.backward.calls": 4000, "gcn.epochs": 4000,
                     "baseline.logreg_loss_grad.calls": 10020, "dataset.load_dataset.calls": 1,
                     "graph.normalize.calls": 1, "graph.distance_evals": 300 ** 2,
                     "harness.cells": 40},
    "wide-gcn": {"graph.matmul.calls": 1208, "graph.matmul_features.calls": 404,
                 "gcn.forward.calls": 404, "gcn.backward.calls": 400, "gcn.epochs": 400,
                 "baseline.logreg_loss_grad.calls": 1002, "dataset.load_dataset.calls": 1,
                 "graph.normalize.calls": 1, "graph.distance_evals": 2000 ** 2,
                 "harness.cells": 4},
    "cli-pipeline": {"graph.matmul.calls": 36, "graph.matmul_features.calls": 13,
                     "gcn.forward.calls": 13, "gcn.backward.calls": 10, "gcn.epochs": 10,
                     "baseline.logreg_loss_grad.calls": 501, "dataset.load_dataset.calls": 6,
                     "graph.normalize.calls": 2, "graph.distance_evals": 2 * 5000 ** 2,
                     "harness.cells": 0},
}


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_default_seed_counts(workload):
    # a subprocess, so that BLAS runs single-threaded as in every measured run
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert result["correct"] is True and result["failed"] == 0
    counts = {k: result["metrics"][k]["value"] for k in EXPECTED_COUNTS[workload]}
    assert counts == EXPECTED_COUNTS[workload]
