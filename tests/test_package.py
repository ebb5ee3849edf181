"""The package namespace: its public names, resolved on first use, and what each use imports."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gcnbench
from gcnbench import dataset

PUBLIC_NAMES = [
    "ConfusionCounts", "EmbeddingDataset", "EvalReport", "ExperimentConfig", "ForwardCache",
    "GcnModel", "Gradients", "GraphBuildConfig", "Hyperparams", "LabeledSplit", "LogRegModel",
    "PropagationMatrix", "SparseAdjacency", "accuracy", "backward", "baseline", "build_graph",
    "build_label_matrix", "checkpoint", "confusion_counts", "dataset", "epsilon_graph", "forward",
    "full_graph", "gcn", "graph", "harness", "init_model", "knn_graph", "load_checkpoint",
    "load_dataset", "load_graph", "loss", "make_split", "normalize", "predict", "predict_logreg",
    "relu", "render_report", "run_experiment", "save_checkpoint", "save_dataset", "save_graph",
    "softmax", "synth_blobs", "train", "train_logreg",
]
SUBMODULES = ["baseline", "checkpoint", "dataset", "gcn", "graph", "harness"]


def test_all_lists_the_public_names():
    assert sorted(gcnbench.__all__) == PUBLIC_NAMES
    assert sorted(dir(gcnbench)) == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_each_name_is_its_modules_object(name):
    value = getattr(gcnbench, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"gcnbench.{name}"]
    else:
        assert value.__module__ in {f"gcnbench.{m}" for m in SUBMODULES}
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gcnbench import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC_NAMES
    assert all(value is getattr(gcnbench, name) for name, value in namespace.items())


def test_type_checkers_see_the_same_names_from_the_same_modules():
    tree = ast.parse(pathlib.Path(gcnbench.__file__).read_text(encoding="utf-8"))
    block, = [node for node in tree.body
              if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"]
    seen = {}
    for node in block.body:
        assert isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names:
            assert alias.asname is None and alias.name not in seen
            seen[alias.name] = f"gcnbench.{node.module}" if node.module else f"gcnbench.{alias.name}"
    assert sorted(seen) == PUBLIC_NAMES
    for name, module in seen.items():
        value = getattr(gcnbench, name)
        assert (value.__name__ if name in SUBMODULES else value.__module__) == module


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        gcnbench.no_such_name
    assert not hasattr(gcnbench, "check_indices")  # a module's own helper is not public


def test_a_submodule_imports_by_name():
    from gcnbench import harness

    assert harness is sys.modules["gcnbench.harness"]


def test_a_name_is_looked_up_on_every_access(monkeypatch):
    # the benchmark's tracer rebinds module functions and restores them on exit, so the
    # package must never hold on to the object it found first
    original = gcnbench.load_dataset

    def stub(path):
        raise AssertionError

    with monkeypatch.context() as patch:
        patch.setattr(dataset, "load_dataset", stub)
        assert gcnbench.load_dataset is stub
    assert gcnbench.load_dataset is original is dataset.load_dataset
    assert "load_dataset" not in vars(gcnbench)


def modules_after(statement, *args):
    """The modules a fresh interpreter holds after ``import gcnbench`` and ``statement``,
    which reads its arguments from sys.argv[1:]; the test process's own imports do not count."""
    src = os.path.dirname(os.path.dirname(gcnbench.__file__))
    code = "import sys, gcnbench\n" + statement + "\nprint(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def package_modules_after(statement, *args):
    return [m for m in modules_after(statement, *args) if m.split(".")[0] == "gcnbench"]


def test_importing_the_package_imports_no_submodule():
    assert package_modules_after("") == ["gcnbench"]


def test_loading_a_dataset_imports_only_its_checks_and_reader(tmp_path):
    path = tmp_path / "blobs.csv"
    gcnbench.save_dataset(gcnbench.synth_blobs(n=30, d=4, C=3, seed=0), path)
    sidecar = tmp_path / ("blobs.csv" + dataset.SIDECAR_SUFFIX)
    expected = ["gcnbench", "gcnbench.checks", "gcnbench.dataset"]
    assert not sidecar.exists()
    assert package_modules_after("gcnbench.load_dataset(sys.argv[1])", str(path)) == expected  # a parse
    assert sidecar.exists()
    assert package_modules_after("gcnbench.load_dataset(sys.argv[1])", str(path)) == expected  # a hit


def test_a_graph_builder_imports_the_graph_but_not_the_model_or_harness():
    assert package_modules_after("gcnbench.knn_graph") == ["gcnbench", "gcnbench.checks", "gcnbench.graph"]


@pytest.mark.parametrize("commands, expected", [
    ([["synth", "--n", "30", "--d", "4", "--classes", "3", "--out", "b.csv"]], []),
    ([["synth", "--n", "30", "--d", "4", "--classes", "3", "--out", "b.csv"],
      ["build-graph", "--data", "b.csv", "--method", "knn", "--out", "b.edges"]], ["gcnbench.graph"]),
], ids=["synth", "build-graph"])
def test_a_cli_command_imports_only_the_modules_it_uses(tmp_path, monkeypatch, commands, expected):
    monkeypatch.chdir(tmp_path)
    statement = ("import json\nfrom gcnbench.cli import main\n"
                 "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0")
    assert package_modules_after(statement, json.dumps(commands)) == sorted(
        ["gcnbench", "gcnbench.checks", "gcnbench.cli", "gcnbench.dataset", *expected])
