"""The benchmark's workloads: seeded inputs, one timed operation each, and output checks.

Inputs are generated here, not by the package, so a change to gcnbench can
never change what it is measured on.  The generator follows ``synth_blobs``
(centers ``sep`` apart on scaled basis vectors, unit-variance noise, class
sizes within 1), and the CSV writer follows ``save_dataset`` byte for byte.

An operation is one ``run_experiment`` sweep or one pass of six ``cli.main``
commands.  Each sweep cell and each command counts as one attempted unit;
it fails if it raises, exits nonzero or gives a wrong output.  At the
default seed, outputs must equal the references recorded in
``references.json``; at other seeds they must satisfy invariants.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import traceback
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
SEP = 6.0

SWEEPS = {
    # The README's experiment.json: what users run first.  Per-call overhead dominates.
    "readme-sweep": {"n": 300, "d": 8, "classes": 3, "k": 5, "budgets": [9, 30], "repeats": 10},
    # 64-wide features: the propagation product S @ X is about 90% of the time.
    "wide-gcn": {"n": 2000, "d": 64, "classes": 10, "k": 10, "budgets": [50], "repeats": 2},
}
# Graph construction and file I/O at n=5000; training is kept short on purpose.
PIPELINE = {"n": 5000, "d": 128, "classes": 10, "k": 10, "eps": 0.7, "labeled": 50,
            "epochs": 10}
NAMES = (*SWEEPS, "cli-pipeline")
MODELS = ("gcn", "logreg")


def blobs(n: int, d: int, C: int, sep: float, seed: int):
    """Features and class indices of C unit-variance Gaussian clusters (d >= C)."""
    if d < C:
        raise ValueError("the benchmark generator needs d >= C")
    centers = np.zeros((C, d))
    for c in range(C):
        centers[c, c] = sep / math.sqrt(2.0)
    truth = [c for c in range(C) for _ in range(n // C + (1 if c < n % C else 0))]
    rng = np.random.default_rng(seed)
    return centers[truth] + rng.standard_normal((n, d)), truth


def write_csv(path: Path, X, truth, C: int) -> str:
    """Write the embedding CSV format; returns the file's SHA-256."""
    lines = [f"#classes={C}", ",".join(["id", "label"] + [f"e{j}" for j in range(X.shape[1])])]
    for i, (row, t) in enumerate(zip(X.tolist(), truth)):
        lines.append(",".join([f"s{i}", str(t)] + [repr(v) for v in row]))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def write_inputs(workload: str, seed: int, work: Path) -> dict:
    """Generate the workload's files from the seed; returns their paths and the CSV digest."""
    s = SWEEPS.get(workload, PIPELINE)
    X, truth = blobs(s["n"], s["d"], s["classes"], SEP, seed)
    csv = work / "data.csv"
    inputs = {"workload": workload, "seed": seed, "csv": str(csv),
              "csv_sha256": write_csv(csv, X, truth, s["classes"])}
    if workload in SWEEPS:
        config = {
            "version": 1,
            "dataset": {"path": str(csv)},
            "graph": {"method": "knn", "k": s["k"], "metric": "euclidean"},
            "models": list(MODELS),
            "budgets": s["budgets"],
            "repeats": s["repeats"],
            "seed": seed,
        }
        inputs["config"] = str(work / "experiment.json")
        Path(inputs["config"]).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    else:
        inputs["commands"] = pipeline_commands(csv, work, seed)
    return inputs


def pipeline_commands(csv: Path, work: Path, seed: int) -> list[list[str]]:
    p = PIPELINE
    knn, eps = str(work / "knn.edges"), str(work / "eps.edges")
    gcn, logreg = str(work / "gcn.json"), str(work / "logreg.json")
    data = ["--data", str(csv)]
    train = ["--labeled", str(p["labeled"]), "--seed", str(seed)]
    return [
        ["build-graph", *data, "--method", "knn", "--k", str(p["k"]), "--out", knn],
        ["build-graph", *data, "--method", "epsilon", "--metric", "cosine",
         "--eps", str(p["eps"]), "--out", eps],
        ["train", *data, "--graph", knn, "--model", "gcn", *train,
         "--epochs", str(p["epochs"]), "--out", gcn],
        ["eval", "--checkpoint", gcn, *data, "--graph", knn],
        ["train", *data, "--model", "logreg", *train, "--out", logreg],
        ["eval", "--checkpoint", logreg, *data],
    ]


# --- operations (run in the measured process) --------------------------------


def make_operation(inputs: dict):
    """A zero-argument callable running one operation; it returns raw outputs or an error."""
    if "config" in inputs:
        from gcnbench import harness

        cfg = harness.load_config(inputs["config"])

        def sweep():
            try:
                report = harness.run_experiment(cfg)
            except Exception:  # a failed sweep fails every cell; the check counts them
                traceback.print_exc()
                return None
            return [(r.model, r.budget, r.repeat, r.accuracy_pct) for r in report.rows]

        return sweep

    from gcnbench import cli

    def pipeline():
        outputs = []
        for argv in inputs["commands"]:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
            except Exception:  # an uncaught exception is a failed command
                traceback.print_exc()
                rc = -1
            outputs.append((rc, buf.getvalue()))
        return outputs

    return pipeline


# --- output checks -----------------------------------------------------------


class Outcome:
    """Checked result of one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: dict[str, list[float]] = {m: [] for m in MODELS}
        self.observed = None  # what would be recorded as the reference
        self.cells = 0

    def unit(self, ok: bool, problem: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def check(inputs: dict, outputs, reference: dict | None) -> Outcome:
    """Score one operation's outputs against the reference (default seed) or invariants."""
    if "config" in inputs:
        return _check_sweep(inputs["workload"], outputs, reference)
    return _check_pipeline(inputs, outputs, reference)


def _check_sweep(workload, rows, reference) -> Outcome:
    s = SWEEPS[workload]
    expected = [(m, b, r) for b in s["budgets"] for r in range(s["repeats"]) for m in MODELS]
    out = Outcome()
    got = {} if rows is None else {(m, b, r): acc for m, b, r, acc in rows}
    out.cells = len(got)
    if rows is not None:
        out.observed = {"cells": [list(row) for row in rows]}
    want = None if reference is None else {(m, b, r): acc for m, b, r, acc in reference["cells"]}
    for key in expected:
        acc = got.get(key)
        if acc is None:
            out.unit(False, f"cell {key} was not scored")
        elif want is not None:
            out.unit(acc == want.get(key), f"cell {key}: accuracy {acc!r}, reference {want.get(key)!r}")
        else:
            out.unit(0.0 <= acc <= 100.0, f"cell {key}: accuracy {acc!r} outside [0, 100]")
        if acc is not None:
            out.accuracy[key[0]].append(acc)
    extra = set(got) - set(expected)
    if extra:
        out.unit(False, f"unexpected cells {sorted(extra)}")
    return out


_ACCURACY = re.compile(r"accuracy: ([0-9.]+)%")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_edges(path):
    """(n, edges) of an edge-list file, parsed independently of the package."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if not lines[0].startswith("#nodes=") or lines[-1] != "":
        raise ValueError("edge file lacks a #nodes header or a final newline")
    pairs = [ln.split("\t") for ln in lines[1:-1]]
    return int(lines[0][len("#nodes="):]), np.array(pairs, dtype=np.int64).reshape(-1, 2)


def edge_problem(path, n: int, min_degree: int = 0) -> str | None:
    """Why an edge file is not a canonical graph on n nodes, or None if it is."""
    try:
        nodes, e = read_edges(path)
    except (OSError, ValueError) as exc:
        return f"{path}: {exc}"
    if nodes != n:
        return f"{path}: {nodes} nodes, expected {n}"
    if len(e) and (e.min() < 0 or e.max() >= n or (e[:, 0] >= e[:, 1]).any()):
        return f"{path}: edge outside 0 <= i < j < n"
    a, b = e[:-1], e[1:]
    if ((a[:, 0] > b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] >= b[:, 1]))).any():
        return f"{path}: edges not sorted and unique"
    degree = np.bincount(e.ravel(), minlength=n)
    if degree.min() < min_degree:
        return f"{path}: node {int(degree.argmin())} has degree {int(degree.min())} < {min_degree}"
    return None


def _check_pipeline(inputs, outputs, reference) -> Outcome:
    p = PIPELINE
    out = Outcome()
    out.observed = {"commands": []}
    for index, (argv, (rc, stdout)) in enumerate(zip(inputs["commands"], outputs)):
        command = argv[0]
        record = {"command": command, "rc": rc}
        problem = None if rc == 0 else f"{command} #{index + 1} exited {rc}"
        if problem is None and command == "build-graph":
            path = argv[argv.index("--out") + 1]
            problem = edge_problem(path, p["n"], p["k"] if "knn" in argv else 0)
            record["sha256"] = None if problem else _sha256(path)
        elif problem is None:
            found = _ACCURACY.findall(stdout)
            record["accuracy"] = found[-1] if found else None
            if not found or not 0.0 <= float(found[-1]) <= 100.0:
                problem = f"{command} #{index + 1} printed no valid accuracy: {stdout!r}"
            elif command == "eval":
                model = "gcn" if "--graph" in argv else "logreg"
                out.accuracy[model].append(float(found[-1]))
        if problem is None and reference is not None:
            want = reference["commands"][index]
            if want != record:
                problem = f"{command} #{index + 1}: got {record}, reference {want}"
        out.observed["commands"].append(record)
        out.unit(problem is None, problem or "")
    return out
