"""The measured process: one fresh interpreter per measurement, started by run.py.

    worker.py --setup CSV
        prints the seconds taken to import gcnbench and load the CSV.
    worker.py --inputs INPUTS.json --seconds S --trace 0|1
        repeats the workload's operation until S seconds of operations have
        run (at least one), checks every output, and with --trace 1 adds one
        traced operation.  Prints one JSON object as its last line.

Only os, sys and time are imported before the setup clock starts, so the
probe also times every standard module the package imports; BLAS is pinned
to one thread before NumPy is loaded.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))


def setup_seconds(csv: str) -> float:
    start = time.perf_counter()
    import gcnbench

    gcnbench.load_dataset(csv)
    return time.perf_counter() - start


def measure(inputs: dict, seconds: float, trace: bool) -> dict:
    import resource
    import statistics

    import workloads

    reference = inputs.get("reference")
    operation = workloads.make_operation(inputs)
    run_s, outcomes = [], []
    while not run_s or sum(run_s) < seconds:
        start = time.perf_counter()
        outputs = operation()
        run_s.append(time.perf_counter() - start)
        outcomes.append(workloads.check(inputs, outputs, reference))
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        import spans

        tracer = spans.Tracer()
        with spans.installed(tracer):
            start = time.perf_counter()
            outputs = operation()
            traced_s = time.perf_counter() - start
        traced = workloads.check(inputs, outputs, reference)
        outcomes.append(traced)
        layers = spans.layer_metrics(tracer)
        layers["harness.cells"] = traced.cells
        layers["harness.failed_cells"] = traced.failed if "config" in inputs else 0
        layers["trace.overhead_pct"] = 100.0 * (traced_s / statistics.median(run_s) - 1.0)
        result["layers"] = layers
    first = outcomes[0]
    result.update(
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        problems=[p for o in outcomes for p in o.problems][:20],
        accuracy={m: statistics.fmean(v) if v else None for m, v in first.accuracy.items()},
        observed=first.observed,
    )
    return result


def main() -> int:
    if sys.argv[1:2] == ["--setup"] and len(sys.argv) == 3:
        # argparse and json are left out here: the probe must import them itself
        print('{"setup_s": %r}' % setup_seconds(sys.argv[2]))
        return 0
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", metavar="INPUTS.json", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    print(json.dumps(measure(inputs, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
