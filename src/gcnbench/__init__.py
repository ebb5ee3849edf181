"""Semi-supervised classification of embedding vectors over similarity graphs.

Each public name is imported from its module on first use (PEP 562), so
``import gcnbench`` imports no submodule and ``gcnbench.load_dataset`` only
``checks`` and ``dataset``; ``from gcnbench import *`` imports them all.
"""

import importlib
from typing import TYPE_CHECKING

# each module's public names; the module names themselves are public too
_PUBLIC = {
    "baseline": ("LogRegModel", "predict_logreg", "train_logreg"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "dataset": ("EmbeddingDataset", "LabeledSplit", "build_label_matrix", "load_dataset",
                "make_split", "save_dataset", "synth_blobs"),
    "gcn": ("ForwardCache", "GcnModel", "Gradients", "Hyperparams", "backward", "forward",
            "init_model", "loss", "predict", "relu", "softmax", "train"),
    "graph": ("GraphBuildConfig", "PropagationMatrix", "SparseAdjacency", "build_graph",
              "epsilon_graph", "full_graph", "knn_graph", "load_graph", "normalize", "save_graph"),
    "harness": ("ConfusionCounts", "EvalReport", "ExperimentConfig", "accuracy",
                "confusion_counts", "render_report", "run_experiment"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_PUBLIC, *_HOME])

if TYPE_CHECKING:  # the same names for type checkers and editors; never run
    from . import baseline, checkpoint, dataset, gcn, graph, harness
    from .baseline import LogRegModel, predict_logreg, train_logreg
    from .checkpoint import load_checkpoint, save_checkpoint
    from .dataset import (EmbeddingDataset, LabeledSplit, build_label_matrix, load_dataset,
                          make_split, save_dataset, synth_blobs)
    from .gcn import (ForwardCache, GcnModel, Gradients, Hyperparams, backward, forward,
                      init_model, loss, predict, relu, softmax, train)
    from .graph import (GraphBuildConfig, PropagationMatrix, SparseAdjacency, build_graph,
                        epsilon_graph, full_graph, knn_graph, load_graph, normalize, save_graph)
    from .harness import (ConfusionCounts, EvalReport, ExperimentConfig, accuracy,
                          confusion_counts, render_report, run_experiment)


def __getattr__(name):
    # looked up on every access, never stored here: a caller that rebinds a module's
    # function (a test's monkeypatch, the benchmark's tracer) is seen through the package
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
