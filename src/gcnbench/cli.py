"""Command-line interface.

Subcommands: synth, build-graph, train, experiment, eval.  Usage errors
exit with 2; I/O and validation failures, and any other exception a command
raises, print a one-line diagnostic on stderr and exit with 1.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import checkpoint, harness
from .dataset import full_truth, load_dataset, make_split, save_dataset, synth_blobs
from .graph import METHODS, METRICS, GraphBuildConfig, build_graph, load_graph, normalize, save_graph
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
    p.add_argument("--graph", default=None, help="edge-list path (required for gcn)")
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
    p.add_argument("--graph", default=None, help="edge-list path (required for gcn)")
    return parser


def _given(**options):
    return {name: value for name, value in options.items() if value is not None}


def _cmd_synth(args):
    ds = synth_blobs(n=args.n, d=args.d, C=args.classes, **_given(sep=args.sep, seed=args.seed))
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: n={ds.n} d={ds.L1} classes={ds.C}")


def _cmd_build_graph(args):
    cfg = GraphBuildConfig(**_given(method=args.method, k=args.k, eps=args.eps, metric=args.metric))
    ds = load_dataset(args.data)
    A = build_graph(ds, cfg)
    save_graph(A, args.out)
    print(f"wrote {args.out}: n={A.n} edges={A.num_edges}")


def _propagation(args, ds, model_name, task):
    """The normalized --graph for a model that needs one, else None."""
    if model_name not in harness.GRAPH_MODELS:
        return None
    if args.graph is None:
        raise ValueError(f"{task} needs --graph")
    A = load_graph(args.graph)
    if A.n != ds.n:
        raise ValueError(f"graph has {A.n} nodes, dataset has {ds.n}")
    return normalize(A)


def _cmd_train(args):
    if args.model != "gcn" and (args.hidden is not None or args.model_seed is not None):
        raise ValueError("--hidden and --model-seed apply only to --model gcn")
    ds = load_dataset(args.data)
    S = _propagation(args, ds, args.model, "gcn training")
    split = make_split(ds, args.labeled, seed=args.seed, stratified=not args.uniform)
    hp = replace(harness.DEFAULT_HYPERPARAMS[args.model],
                 **_given(lr=args.lr, epochs=args.epochs, weight_decay=args.weight_decay,
                          hidden=args.hidden, seed=args.model_seed))
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
    ds = load_dataset(args.data)
    truth = full_truth(ds)
    S = _propagation(args, ds, meta["kind"], "evaluating a gcn checkpoint")
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
