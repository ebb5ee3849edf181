"""Run one gcnbench benchmark workload and print its metrics.

    python3 bench/run.py --workload wide-gcn --seed 0 --seconds 30 --trace 0

Generates the workload's inputs from --seed, times the import plus CSV load
in fresh processes (setup_s), and runs the workload's operation in one
fresh measured process for at least --seconds.  With --trace 1 it also runs
one traced operation and reports the per-layer metrics instead.  Metric
names and units come from BENCHMARK.json.  The last line of stdout is one
JSON object; the exit code is 1 when an output check fails, 2 when the
package sources are missing and 3 when a measured process overruns the
deadline.  --record rewrites this workload's entry in references.json from
a run at the default seed.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
SETUP_PROBES = 6
# time allowed beyond --seconds: the last and the traced operation (up to
# about 20 s each on the largest workloads), the set-up probes and start-up
DEADLINE_MARGIN_S = 140.0


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
    }


def _child(args, deadline) -> dict:
    """Run a worker process to completion and return its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def _report(name, value, unit):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{name:34s} {shown:>16s} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gcnbench benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gcnbench" / "__init__.py").is_file():
        print(f"error: no gcnbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record and args.seed != workloads.DEFAULT_SEED:
        parser.error(f"references are recorded at the default seed {workloads.DEFAULT_SEED}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    references = {}
    if REFERENCES.is_file():
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    reference = None  # checks fall back to invariants
    if args.seed == workloads.DEFAULT_SEED and not args.record:
        reference = references.get(args.workload)
        if reference is None:
            print(f"error: {REFERENCES} has no {args.workload} entry", file=sys.stderr)
            return 1

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        inputs = workloads.write_inputs(args.workload, args.seed, work)
        if reference is not None and inputs["csv_sha256"] != reference["csv_sha256"]:
            problems.append(f"input CSV digest {inputs['csv_sha256']} differs from the reference")
        inputs["reference"] = reference
        (work / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
        # half the set-up probes run before the measured process and half after,
        # so that one slow phase of a shared machine does not hit all of them
        setup = [_child(["--setup", inputs["csv"]], deadline)["setup_s"]
                 for _ in range(SETUP_PROBES // 2)]
        result = _child(["--inputs", str(work / "inputs.json"),
                         "--seconds", str(0.0 if args.record else args.seconds),
                         "--trace", str(args.trace)], deadline)
        setup += [_child(["--setup", inputs["csv"]], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: timed out: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record:
        references[args.workload] = {"csv_sha256": inputs["csv_sha256"], **result["observed"]}
        entries = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(references.items()))
        REFERENCES.write_text("{\n" + ",\n".join(entries) + "\n}\n", encoding="utf-8")
        print(f"recorded {args.workload} in {REFERENCES}")
        return 0

    accuracy = result["accuracy"]
    values = {
        "run_s": statistics.median(result["run_s"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "gcn_acc_pct": accuracy["gcn"],
        "logreg_acc_pct": accuracy["logreg"],
        **result.get("layers", {}),
    }
    attempted, failed = result["attempted"], result["failed"]
    problems += result["problems"]
    correct = not problems and failed == 0

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"run_s samples {len(result['run_s'])}: "
          + " ".join(f"{s:.4f}" for s in result["run_s"]))
    print(f"setup_s samples {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup))
    print(f"fail_frac {failed / attempted:g} ({failed} of {attempted} cells or commands failed)")
    for problem in problems:
        print(f"check failed: {problem}")
    for name in ("gcn_acc_pct", "logreg_acc_pct"):
        if not any(m["name"] == name for m in metrics):
            _report(name, values[name], "%")
    out = {}
    for m in metrics:
        value = values[m["name"]]
        _report(m["name"], value, m["unit"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
