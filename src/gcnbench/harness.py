"""Metrics, the label-budget experiment runner, and report rendering.

An experiment sweeps a list of label budgets over a dataset with ground
truth: for each (budget, repeat) cell it draws a fresh labeled/unlabeled
split from a seed derived deterministically from (base seed, budget,
repeat), trains every configured model, and scores it on all unlabeled
nodes.  The graph depends only on X: it is built once, if a model uses it.

Given the config, everything a run produces is bit-reproducible on the same
NumPy/BLAS build at the same BLAS thread count; the one intentionally
volatile field is the measured wall time per cell.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baseline import LOGREG_DEFAULTS, predict_logreg, train_logreg
from .dataset import (
    EmbeddingDataset,
    build_label_matrix,
    full_truth,
    l2_normalize_rows,
    labeled_classes,
    load_dataset,
    make_split,
    synth_blobs,
)
from .gcn import GcnModel, Hyperparams, forward, init_model, predict, train
from .graph import GraphBuildConfig, build_graph, check_type, graph_config, normalize

# Every model a run can fit, with its default hyperparameters; only the GCN uses the graph.
DEFAULT_HYPERPARAMS = {"gcn": Hyperparams(), "logreg": LOGREG_DEFAULTS}
MODEL_NAMES = tuple(DEFAULT_HYPERPARAMS)
GRAPH_MODELS = ("gcn",)
REPORT_HEADER = "model,budget,repeat,seed,accuracy_pct,wall_ms"
AGGREGATE_HEADER = "model,budget,mean_pct,std_pct,repeats"

_MASK64 = (1 << 64) - 1


@dataclass
class ConfusionCounts:
    """One-vs-rest confusion counts against a chosen positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(pred, truth, positive: int) -> ConfusionCounts:
    """Binarize multiclass predictions against ``positive`` and count TP/FP/TN/FN."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    p = pred == positive
    t = truth == positive
    return ConfusionCounts(
        tp=int((p & t).sum()),
        fp=int((p & ~t).sum()),
        tn=int((~p & ~t).sum()),
        fn=int((~p & t).sum()),
    )


def accuracy(pred, truth) -> float:
    """Fraction of correct predictions as a percentage.

    For two classes this equals 100 * (TP + TN) / (TP + FP + TN + FN); the
    fraction-correct form is the standard multiclass generalization.
    """
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if len(pred) == 0:
        raise ValueError("cannot score an empty prediction vector")
    return 100.0 * int((pred == truth).sum()) / len(pred)


@dataclass
class ExperimentConfig:
    """A label-budget sweep: dataset, graph recipe, models, budgets, repeats.

    Exactly one of ``dataset_path`` and ``synth`` (a generated dataset's {"n", "d",
    "classes", "sep", "seed"}) must be set.  Model ``m`` trains with ``m_hp``.
    """

    budgets: list[int]
    dataset_path: str | None = None
    synth: dict | None = None
    graph: GraphBuildConfig = field(default_factory=GraphBuildConfig)
    models: list[str] = field(default_factory=lambda: list(MODEL_NAMES))
    repeats: int = 10
    seed: int = 0
    stratified: bool = True
    normalize_features: bool = False
    gcn_hp: Hyperparams = DEFAULT_HYPERPARAMS["gcn"]
    logreg_hp: Hyperparams = DEFAULT_HYPERPARAMS["logreg"]

    def __post_init__(self):
        if (self.dataset_path is None) == (self.synth is None):
            raise ValueError("config needs exactly one of a dataset path or a synth spec")
        if self.dataset_path is not None and not isinstance(self.dataset_path, str):
            raise ValueError(f"dataset path must be a string, got {self.dataset_path!r}")
        if self.synth is not None:
            missing = {"n", "d", "classes"} - set(_check_keys("synth", self.synth, _SYNTH_KEYS))
            if missing:
                raise ValueError(f"synth spec is missing {sorted(missing)}")
            for key, value in self.synth.items():
                check_type(f"synth {key}", value, float if key == "sep" else int)
        if not isinstance(self.models, (list, tuple)):
            raise ValueError(f"models must be a list of model names, got {self.models!r}")
        if not self.models:
            raise ValueError("config lists no models")
        for name in self.models:
            if name not in MODEL_NAMES:
                raise ValueError(f"unknown model {name!r}, expected one of {MODEL_NAMES}")
        if len(set(self.models)) != len(self.models):
            raise ValueError("duplicate model name")
        if not isinstance(self.budgets, (list, tuple)):
            raise ValueError(f"budgets must be a list of integers, got {self.budgets!r}")
        if not self.budgets:
            raise ValueError("config lists no label budgets")
        for k, l in enumerate(self.budgets):
            check_type("budgets", l, int)
            if l in self.budgets[:k]:
                raise ValueError(f"duplicate label budget {l}")
        for name, kind in (("repeats", int), ("seed", int), ("stratified", bool),
                           ("normalize_features", bool)):
            check_type(name, getattr(self, name), kind)
        if self.repeats < 1:
            raise ValueError(f"need repeats >= 1, got {self.repeats}")


_SYNTH_KEYS = {"n", "d", "classes", "sep", "seed"}
# the hyperparameters each model reads: logreg has no hidden layer and no random init
_HP_KEYS = {"gcn": {"lr", "epochs", "seed", "hidden", "weight_decay"},
            "logreg": {"lr", "epochs", "weight_decay"}}
_GRAPH_KEYS = {"method", "k", "eps", "metric"}
_PASSTHROUGH_KEYS = ("models", "repeats", "seed", "stratified", "normalize_features")
_CONFIG_KEYS = {"version", "dataset", "graph", "budgets", *_PASSTHROUGH_KEYS, *MODEL_NAMES}


def _check_keys(section, raw, allowed):
    if not isinstance(raw, dict):
        raise ValueError(f"{section} must be a JSON object, got {raw!r}")
    extra = set(raw) - allowed
    if extra:
        raise ValueError(f"unknown {section} keys: {sorted(extra)}")
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from the JSON schema (version 1); unknown keys are rejected."""
    _check_keys("config", raw, _CONFIG_KEYS)
    if raw.get("version", 1) != 1:
        raise ValueError(f"unsupported config version {raw.get('version')!r}")
    dataset = _check_keys("dataset", raw.get("dataset"), {"path", "synth"})
    path, synth = dataset.get("path"), dataset.get("synth")
    given = {key: raw[key] for key in _PASSTHROUGH_KEYS if key in raw}
    given["graph"] = graph_config(_check_keys("graph", raw.get("graph", {}), _GRAPH_KEYS))
    for name, default in DEFAULT_HYPERPARAMS.items():
        given[f"{name}_hp"] = replace(default, **_check_keys(name, raw.get(name, {}), _HP_KEYS[name]))
    return ExperimentConfig(budgets=raw.get("budgets", []), dataset_path=path, synth=synth, **given)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


@dataclass
class CellResult:
    model: str
    budget: int
    repeat: int
    seed: int
    accuracy_pct: float
    wall_ms: float


@dataclass
class AggregateRow:
    model: str
    budget: int
    mean_pct: float
    std_pct: float
    repeats: int


@dataclass
class EvalReport:
    """Raw per-cell rows; aggregates are recomputed from them on demand."""

    rows: list[CellResult]

    def __post_init__(self):
        seen = set()
        for row in self.rows:
            key = (row.model, row.budget, row.repeat)
            if key in seen:
                raise ValueError(f"duplicate report row for {key}")
            seen.add(key)
            if not 0.0 <= row.accuracy_pct <= 100.0:
                raise ValueError(f"accuracy {row.accuracy_pct} outside [0, 100]")

    def models(self) -> list[str]:
        out = []
        for row in self.rows:
            if row.model not in out:
                out.append(row.model)
        return out

    def budgets(self) -> list[int]:
        out = []
        for row in self.rows:
            if row.budget not in out:
                out.append(row.budget)
        return out

    def aggregates(self) -> list[AggregateRow]:
        """Mean and population std of accuracy per (model, budget)."""
        out = []
        for model in self.models():
            for budget in self.budgets():
                accs = [r.accuracy_pct for r in self.rows
                        if r.model == model and r.budget == budget]
                if not accs:
                    continue
                out.append(AggregateRow(
                    model=model,
                    budget=budget,
                    mean_pct=float(np.mean(accs)),
                    std_pct=float(np.std(accs)),
                    repeats=len(accs),
                ))
        return out

    def mean_accuracy(self, model: str, budget: int) -> float:
        for agg in self.aggregates():
            if agg.model == model and agg.budget == budget:
                return agg.mean_pct
        raise ValueError(f"no rows for model {model!r} at budget {budget}")


def derive_seed(base: int, budget: int, repeat: int) -> int:
    """Per-cell split seed: base XOR a splitmix64-style mix of (budget, repeat).

    Pure integer arithmetic, fixed here so identical configs reproduce
    identical splits on any platform.
    """
    h = (budget * 0x9E3779B97F4A7C15 + repeat * 0xBF58476D1CE4E5B9 + 0x94D049BB133111EB) & _MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return (base ^ h) & _MASK64


def _config_dataset(cfg: ExperimentConfig) -> EmbeddingDataset:
    if cfg.dataset_path is not None:
        return load_dataset(cfg.dataset_path)
    s = dict(cfg.synth)
    return synth_blobs(n=s.pop("n"), d=s.pop("d"), C=s.pop("classes"), **s)


def fit_predict(name: str, ds: EmbeddingDataset, S, split, hp: Hyperparams):
    """Fit ``name`` on the split's labeled rows; returns (model, loss trace, all-n predictions)."""
    if name == "gcn":
        model = init_model(ds.L1, hp.hidden, ds.C, hp.seed)
        trained, trace = train(model, S, ds.X, build_label_matrix(ds, split), split.labeled, hp)
    else:
        trained, trace = train_logreg(ds.X[split.labeled], labeled_classes(ds, split), ds.C, hp)
    return trained, trace, predict_nodes(trained, ds.X, S)


def predict_nodes(model, X, S):
    """Predictions for every row of X from a trained GCN (propagated by ``S``) or logreg model."""
    if isinstance(model, GcnModel):
        return predict(forward(model, S, X))
    return predict_logreg(model, X)


def run_experiment(cfg: ExperimentConfig) -> EvalReport:
    """Run the full sweep; deterministic given the config (wall times aside).

    The graph, built only if a model uses one, and every cell's split come first,
    in this process and in sweep order, so a bad budget or split is raised before
    any fit.  The cells then run on the CPUs this process may use
    (os.sched_getaffinity): in this process when that is one CPU, else in a pool of
    forked workers that inherit the dataset and graph, and whose rows come back in
    sweep order.  Either way the rows, and the first failing cell's error, are those
    of the serial sweep.  A worker that dies is a ChildProcessError naming its exit code.
    """
    ds = _config_dataset(cfg)
    if cfg.normalize_features:
        ds = EmbeddingDataset(ids=ds.ids, X=l2_normalize_rows(ds.X), C=ds.C,
                              truth=ds.truth, class_names=ds.class_names)
    truth = full_truth(ds)
    for l in cfg.budgets:
        if not ds.C <= l < ds.n:
            raise ValueError(f"budget {l} outside [C={ds.C}, n={ds.n})")
    uses_graph = any(name in GRAPH_MODELS for name in cfg.models)
    S = normalize(build_graph(ds, cfg.graph)) if uses_graph else None
    cells = []
    for budget in cfg.budgets:
        for repeat in range(cfg.repeats):
            cell_seed = derive_seed(cfg.seed, budget, repeat)
            split = make_split(ds, budget, seed=cell_seed, stratified=cfg.stratified)
            cells.extend((name, budget, repeat, cell_seed, split) for name in cfg.models)
    shared = (cfg, ds, S, truth)
    try:
        workers = min(len(cells), len(os.sched_getaffinity(0)))
    except AttributeError:  # a platform without CPU affinity
        workers = 1
    if workers == 1:
        return EvalReport(rows=[_cell(shared, cell) for cell in cells])
    import multiprocessing  # here, so that importing the package does not pay for it

    # fork, not spawn: the workers inherit ``shared`` with no fresh import and no copy of
    # the graph; only cells and rows are pickled
    others = multiprocessing.active_children()
    pool = multiprocessing.get_context("fork").Pool(workers, initializer=_start_worker,
                                                    initargs=shared)
    started = [p for p in multiprocessing.active_children() if p not in others]
    try:
        rows, results = [], pool.imap(_worker_cell, cells)
        while len(rows) < len(cells):
            try:
                rows.append(results.next(timeout=0.5))
            except multiprocessing.TimeoutError:
                # the pool replaces a dead worker but never returns its cell: no row would come
                dead = [p.exitcode for p in started if p.exitcode is not None]
                if dead:
                    raise ChildProcessError(f"a sweep worker exited with code {dead[0]}") from None
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return EvalReport(rows=rows)


def _cell(shared, cell) -> CellResult:
    """Fit and score one (model, budget, repeat) cell of the sweep ``shared`` describes."""
    cfg, ds, S, truth = shared
    name, budget, repeat, cell_seed, split = cell
    start = time.perf_counter()
    _, _, pred = fit_predict(name, ds, S, split, getattr(cfg, f"{name}_hp"))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return CellResult(model=name, budget=budget, repeat=repeat, seed=cell_seed,
                      accuracy_pct=accuracy(pred[split.unlabeled], truth[split.unlabeled]),
                      wall_ms=wall_ms)


# a pool worker's (cfg, ds, S, truth), inherited from the sweep that forked it; only
# _start_worker sets it, and only in a worker process
_worker_shared = None


def _start_worker(*shared):
    import signal

    global _worker_shared
    _worker_shared = shared
    # Ctrl-C reaches the whole process group; the parent alone handles it, by terminating the pool
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _worker_cell(cell) -> CellResult:
    return _cell(_worker_shared, cell)


def render_report(report: EvalReport, format: str) -> str:
    """Render the report: csv emits one row per cell, markdown the mean-accuracy table.

    The markdown table puts models on rows and budgets on columns, mirroring
    how such sweeps are usually tabulated.
    """
    if not report.rows:
        raise ValueError("cannot render an empty report")
    if format == "csv":
        lines = [REPORT_HEADER]
        for r in report.rows:
            lines.append(f"{r.model},{r.budget},{r.repeat},{r.seed},"
                         f"{float(r.accuracy_pct)!r},{float(r.wall_ms)!r}")
        return "\n".join(lines) + "\n"
    if format == "markdown":
        budgets = report.budgets()
        header = "| model | " + " | ".join(f"l={b}" for b in budgets) + " |"
        rule = "|" + "---|" * (len(budgets) + 1)
        lines = [header, rule]
        for model in report.models():
            cells = [f"{report.mean_accuracy(model, b):.2f}" for b in budgets]
            lines.append(f"| {model} | " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {format!r}")


def aggregate_csv(report: EvalReport) -> str:
    """CSV of per-(model, budget) mean and population std of accuracy."""
    if not report.rows:
        raise ValueError("cannot render an empty report")
    lines = [AGGREGATE_HEADER]
    for agg in report.aggregates():
        lines.append(f"{agg.model},{agg.budget},{float(agg.mean_pct)!r},"
                     f"{float(agg.std_pct)!r},{agg.repeats}")
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str) -> EvalReport:
    """Inverse of render_report(., "csv")."""
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines or lines[0] != REPORT_HEADER:
        raise ValueError("not a report CSV: bad header")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 6:
            raise ValueError(f"line {lineno}: expected 6 fields, got {len(cells)}")
        rows.append(CellResult(model=cells[0], budget=int(cells[1]), repeat=int(cells[2]),
                               seed=int(cells[3]), accuracy_pct=float(cells[4]),
                               wall_ms=float(cells[5])))
    return EvalReport(rows=rows)
