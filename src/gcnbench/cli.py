"""Command-line interface.

Subcommands: synth, build-graph, train, experiment, eval.  Usage errors
exit with 2; I/O and validation failures, and any other exception a command
raises, print a one-line diagnostic on stderr and exit with 1.  A setting out
of its range is named by the flag that gave it (``--model-seed must be >= 0``).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import replace

from . import checkpoint, harness
from .dataset import full_truth, load_dataset, make_split, save_dataset, synth_blobs
from .graph import METHODS, METRICS, build_graph, graph_config, load_graph, normalize, save_graph
from .harness import accuracy


def _build_parser():
    parser = argparse.ArgumentParser(prog="gcnbench",
                                     description="Similarity-graph semi-supervised classification benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic blobs dataset as embedding CSV")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--d", type=int, required=True, help="embedding dimension")
    p.add_argument("--classes", type=int, required=True, help="class count")
    p.add_argument("--sep", type=float, default=None, help="center separation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("build-graph", help="build a similarity graph from an embedding CSV")
    p.add_argument("--data", required=True, help="embedding CSV path")
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--k", type=int, default=None, help="neighbor count for knn")
    p.add_argument("--eps", type=float, default=None, help="distance threshold for epsilon")
    p.add_argument("--metric", choices=METRICS, default=None)
    p.add_argument("--out", required=True, help="output edge-list path")

    p = sub.add_parser("train", help="train one model on a labeled split and save a checkpoint")
    p.add_argument("--data", required=True, help="embedding CSV path (needs labels)")
    p.add_argument("--graph", default=None, help="edge-list path (gcn only, and required there)")
    p.add_argument("--model", choices=harness.MODEL_NAMES, default="gcn")
    p.add_argument("--labeled", type=int, required=True, help="label budget l")
    p.add_argument("--seed", type=int, default=0, help="split seed")
    p.add_argument("--uniform", action="store_true", help="uniform instead of stratified split")
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None, help="gcn hidden width")
    p.add_argument("--weight-decay", type=float, default=None)
    p.add_argument("--model-seed", type=int, default=None, help="gcn initialization seed")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("experiment", help="run a label-budget sweep from a JSON config")
    p.add_argument("--config", required=True, help="experiment JSON path")
    p.add_argument("--out", required=True, help="raw report CSV path")
    p.add_argument("--agg-out", default=None, help="aggregate CSV path")
    p.add_argument("--md-out", default=None, help="markdown table path")

    p = sub.add_parser("eval", help="score a checkpoint on a labeled dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="embedding CSV path (needs labels)")
    p.add_argument("--graph", default=None, help="edge-list path (gcn only, and required there)")
    return parser


def _given(**options):
    return {name: value for name, value in options.items() if value is not None}


@contextmanager
def _flags(flags: dict):
    """Re-raise a ``<name> must ...`` ValueError of the block as ``<flag> must ...``, where
    ``flags`` maps the library's setting names to the flags the user typed; the bounds
    themselves stay in the library's checks."""
    try:
        yield
    except ValueError as exc:
        name, must, rest = str(exc).partition(" must ")
        if must and name in flags:
            raise ValueError(f"{flags[name]}{must}{rest}") from exc
        raise


def _check_output_dirs(args):
    """Each output path's directory must exist; checked before a command reads or computes anything."""
    for option in ("out", "agg_out", "md_out"):
        folder = os.path.dirname(getattr(args, option, None) or "")
        if folder and not os.path.isdir(folder):
            raise ValueError(f"--{option.replace('_', '-')} directory {folder!r} does not exist")


def _cmd_synth(args):
    with _flags({"n": "--n", "d": "--d", "C": "--classes", "sep": "--sep", "seed": "--seed"}):
        ds = synth_blobs(n=args.n, d=args.d, C=args.classes, **_given(sep=args.sep, seed=args.seed))
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} d={ds.L1} classes={ds.C}")


def _cmd_build_graph(args):
    flags = {"k": "--k", "eps": "--eps"}
    with _flags(flags):
        cfg = graph_config(_given(method=args.method, k=args.k, eps=args.eps, metric=args.metric), "--")
    ds = load_dataset(args.data)
    with _flags(flags):
        A = build_graph(ds, cfg)
    save_graph(A, args.out)
    print(f"wrote {args.out}: n={A.n} edges={A.num_edges}")


def _inputs(args, model_name, task):
    """--data, and the normalized --graph for a model that needs one (else None).
    Whether --graph fits the model is checked before any file is read."""
    uses_graph = model_name in harness.GRAPH_MODELS
    if uses_graph and args.graph is None:
        raise ValueError(f"{task} needs --graph")
    if not uses_graph and args.graph is not None:
        raise ValueError(f"--graph applies only to {', '.join(harness.GRAPH_MODELS)}; "
                         f"{model_name} uses no graph")
    ds = load_dataset(args.data)
    if not uses_graph:
        return ds, None
    A = load_graph(args.graph)
    if A.n != ds.n:
        raise ValueError(f"graph has {A.n} nodes, dataset has {ds.n}")
    return ds, normalize(A)


def _cmd_train(args):
    given = _given(lr=args.lr, epochs=args.epochs, weight_decay=args.weight_decay,
                   hidden=args.hidden, seed=args.model_seed)
    if not given.keys() <= harness._HP_KEYS[args.model]:
        raise ValueError("--hidden and --model-seed apply only to --model gcn")
    with _flags({"lr": "--lr", "epochs": "--epochs", "hidden": "--hidden",
                 "weight_decay": "--weight-decay", "seed": "--model-seed"}):
        hp = replace(harness.DEFAULT_HYPERPARAMS[args.model], **given)
    ds, S = _inputs(args, args.model, "gcn training")
    with _flags({"l": "--labeled", "seed": "--seed"}):
        split = make_split(ds, args.labeled, seed=args.seed, stratified=not args.uniform)
    trained, trace, pred = harness.fit_predict(args.model, ds, S, split, hp)
    checkpoint.save_checkpoint(trained, args.out, hyperparams=hp)
    print(f"wrote {args.out}: final loss {trace[-1]:.6f}")
    if split.u and ds.truth is not None and None not in ds.truth:
        acc = accuracy(pred[split.unlabeled], full_truth(ds)[split.unlabeled])
        print(f"unlabeled accuracy: {acc:.2f}% over {split.u} nodes")


def _cmd_experiment(args):
    cfg = harness.load_config(args.config)
    report = harness.run_experiment(cfg)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(harness.render_report(report, "csv"))
    print(f"wrote {args.out}: {len(report.rows)} rows")
    if args.agg_out:
        with open(args.agg_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(harness.aggregate_csv(report))
        print(f"wrote {args.agg_out}")
    markdown = harness.render_report(report, "markdown")
    if args.md_out:
        with open(args.md_out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(markdown)
        print(f"wrote {args.md_out}")
    print(markdown, end="")


def _cmd_eval(args):
    model, meta = checkpoint.load_checkpoint(args.checkpoint)
    ds, S = _inputs(args, meta["kind"], "evaluating a gcn checkpoint")
    truth = full_truth(ds)
    pred = harness.predict_nodes(model, ds.X, S)
    print(f"accuracy: {accuracy(pred, truth):.2f}% over {ds.n} nodes")


_COMMANDS = {
    "synth": _cmd_synth,
    "build-graph": _cmd_build_graph,
    "train": _cmd_train,
    "experiment": _cmd_experiment,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        _check_output_dirs(args)
        _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a defect, not bad input; still one line and exit 1
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
