"""Spans around gcnbench's public functions, recorded from outside the package.

A traced run replaces each function named in TARGETS with a wrapper that
records a span (name, start, end, parent).  Modules such as ``harness`` and
``cli`` import functions by name, so a wrapper is bound in every gcnbench
namespace that holds the original, not only in its defining module; methods
are wrapped on their class.  ``installed`` restores every original on exit.

Per-layer metrics are derived from the spans after the run: a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager


def _matmul_name(tracer, args, kwargs):
    operand = args[1] if len(args) > 1 else kwargs.get("M")
    return "graph.matmul_features" if tracer.is_features(operand) else "graph.matmul"


def _cli_name(tracer, args, kwargs):
    return "cli." + args[0][0]


def _count_matmul(tracer, args, kwargs, result):
    S, M = args[0], (args[1] if len(args) > 1 else kwargs["M"])
    cols = M.shape[1] if getattr(M, "ndim", 1) == 2 else 1
    tracer.counts["graph.matmul.flops"] += 2 * S.nnz * cols
    tracer.counts["graph.matmul.bytes"] += 8 * S.nnz * cols


def _count_graph(tracer, args, kwargs, result):
    tracer.counts["graph.distance_evals"] += result.n * result.n
    tracer.counts["graph.edges"] += result.num_edges


def _count_epochs(tracer, args, kwargs, result):
    hp = args[5] if len(args) > 5 else kwargs["hp"]
    tracer.counts["gcn.epochs"] += hp.epochs


def _remember_features(tracer, args, kwargs, result):
    tracer.features.append(weakref.ref(result.X))


# (module, attribute path, span name or naming function, observer or None)
TARGETS = [
    ("dataset", "load_dataset", "dataset.load_dataset", _remember_features),
    ("dataset", "make_split", "dataset.make_split", None),
    ("dataset", "build_label_matrix", "dataset.build_label_matrix", None),
    ("graph", "knn_graph", "graph.knn_graph", _count_graph),
    ("graph", "epsilon_graph", "graph.epsilon_graph", _count_graph),
    ("graph", "normalize", "graph.normalize", None),
    ("graph", "save_graph", "graph.save_graph", None),
    ("graph", "load_graph", "graph.load_graph", None),
    ("graph", "PropagationMatrix.matmul", _matmul_name, _count_matmul),
    ("gcn", "forward", "gcn.forward", None),
    ("gcn", "backward", "gcn.backward", None),
    ("gcn", "loss", "gcn.loss", None),
    ("gcn", "softmax", "gcn.softmax", None),
    ("gcn", "train", "gcn.train", _count_epochs),
    ("baseline", "train_logreg", "baseline.train_logreg", None),
    ("baseline", "logreg_loss_grad", "baseline.logreg_loss_grad", None),
    ("baseline", "predict_logreg", "baseline.predict_logreg", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("cli", "main", _cli_name, None),
]


class Tracer:
    """In-memory span recorder for one single-threaded traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.features = []  # weak references to every loaded dataset's X
        self._stack = []

    def is_features(self, array) -> bool:
        return any(ref() is array for ref in self.features)

    def wrap(self, fn, name, observe=None):
        """fn, recording one span per call and then calling observe on the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(self, args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _package_modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


@contextmanager
def installed(tracer: Tracer, package: str = "gcnbench"):
    """Bind a traced wrapper wherever the package refers to a target; restore on exit."""
    importlib.import_module(package)
    patches = []  # (namespace owner, attribute, original)
    try:
        for module_name, path, name, observe in TARGETS:
            owner = importlib.import_module(f"{package}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                continue
            wrapper = tracer.wrap(original, name, observe)
            holders = [owner] + [m for m in _package_modules(package) if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, original in reversed(patches):
            setattr(holder, key, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """Per span name: (calls, inclusive seconds, self seconds)."""
    out = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + own)
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced operation (see bench/README.md)."""
    agg = summarize(tracer.spans)

    def calls(name):
        return agg.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    counts = tracer.counts
    epochs = counts["gcn.epochs"]
    return {
        "graph.matmul.s": own("graph.matmul") + own("graph.matmul_features"),
        "graph.matmul.calls": calls("graph.matmul") + calls("graph.matmul_features"),
        "graph.matmul.flops": counts["graph.matmul.flops"],
        "graph.matmul.bytes": counts["graph.matmul.bytes"],
        "graph.matmul_features.calls": calls("graph.matmul_features"),
        "graph.matmul_features.s": own("graph.matmul_features"),
        "gcn.forward.s": own("gcn.forward"),
        "gcn.forward.calls": calls("gcn.forward"),
        "gcn.backward.s": own("gcn.backward"),
        "gcn.backward.calls": calls("gcn.backward"),
        "gcn.loss.s": own("gcn.loss"),
        "gcn.softmax.s": own("gcn.softmax"),
        "gcn.train.s": total("gcn.train"),
        "gcn.train.self_s": own("gcn.train"),
        "gcn.epochs": epochs,
        "gcn.epoch_ms": 1000.0 * total("gcn.train") / epochs if epochs else 0.0,
        "graph.knn_graph.s": own("graph.knn_graph"),
        "graph.epsilon_graph.s": own("graph.epsilon_graph"),
        "graph.distance_evals": counts["graph.distance_evals"],
        "graph.normalize.s": own("graph.normalize"),
        "graph.normalize.calls": calls("graph.normalize"),
        "graph.edges": counts["graph.edges"],
        "dataset.load_dataset.s": own("dataset.load_dataset"),
        "dataset.load_dataset.calls": calls("dataset.load_dataset"),
        "graph.save_graph.s": own("graph.save_graph"),
        "graph.load_graph.s": own("graph.load_graph"),
        "checkpoint.save_checkpoint.s": own("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.s": own("checkpoint.load_checkpoint"),
        "baseline.train_logreg.s": own("baseline.train_logreg"),
        "baseline.logreg_loss_grad.calls": calls("baseline.logreg_loss_grad"),
        "baseline.logreg_loss_grad.s": own("baseline.logreg_loss_grad"),
        "baseline.predict_logreg.s": own("baseline.predict_logreg"),
        "dataset.make_split.s": own("dataset.make_split"),
        "dataset.build_label_matrix.s": own("dataset.build_label_matrix"),
        "harness.run_experiment.self_s": own("harness.run_experiment"),
        "cli.build-graph.s": total("cli.build-graph"),
        "cli.train.s": total("cli.train"),
        "cli.eval.s": total("cli.eval"),
    }
