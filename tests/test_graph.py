import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from gcnbench import gcn, graph
from gcnbench.baseline import LogRegModel, logreg_loss_grad, predict_logreg, train_logreg
from gcnbench.checks import check_floats
from gcnbench.dataset import EmbeddingDataset, LabeledSplit, l2_normalize_rows, synth_blobs
from gcnbench.graph import (
    DISTANCE_BLOCK_ROWS,
    MATMUL_BLOCK_BYTES,
    METRICS,
    GraphBuildConfig,
    PropagationMatrix,
    SparseAdjacency,
    build_graph,
    epsilon_graph,
    full_graph,
    knn_graph,
    load_graph,
    normalize,
    save_graph,
)
from gcnbench.harness import accuracy, confusion_counts
from oracles import (
    edge_list_oracle,
    epsilon_oracle_edges,
    epsilon_row_loop_edges,
    knn_oracle_edges,
    knn_row_loop_edges,
    normalize_oracle_dense,
)


def test_knn_collinear_points():
    X = np.array([[0.0], [1.0], [10.0]])
    A = knn_graph(X, k=1)
    assert A.edge_set() == {(0, 1), (1, 2)}


def test_knn_complete_when_k_is_n_minus_1():
    ds = synth_blobs(n=12, d=3, C=2, sep=1.0, seed=0)
    A = knn_graph(ds, k=11)
    assert A.num_edges == 12 * 11 // 2


def test_knn_duplicate_points_break_ties_to_lower_index():
    # nodes 1 and 2 coincide; both are distance 1 from node 0, and k=1
    # admits only the lower index before symmetrization
    X = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
    A = knn_graph(X, k=1)
    assert A.edge_set() == knn_oracle_edges(X, 1)
    assert (0, 1) in A.edge_set() and (0, 2) not in A.edge_set()
    assert all(i != j for i, j in A.edge_set())


def test_knn_matches_oracle_on_random_data():
    rng = np.random.default_rng(42)
    for n, d in ((30, 2), (60, 5)):
        X = rng.standard_normal((n, d))
        for k in (1, 3, 7):
            assert knn_graph(X, k).edge_set() == knn_oracle_edges(X, k)


def test_knn_every_node_connected():
    ds = synth_blobs(n=50, d=2, C=2, sep=8.0, seed=3)
    for k in (1, 5):
        assert knn_graph(ds, k).degrees().min() >= 1


def test_knn_k_out_of_range():
    ds = synth_blobs(n=10, d=2, C=2, sep=1.0, seed=0)
    with pytest.raises(ValueError):
        knn_graph(ds, 0)
    with pytest.raises(ValueError):
        knn_graph(ds, 10)


def test_epsilon_extremes_and_strictness():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    assert epsilon_graph(X, 0.5).num_edges == 0
    assert epsilon_graph(X, 10.0).num_edges == 3
    # pair at distance exactly eps stays disconnected
    assert epsilon_graph(X, 1.0).edge_set() == set()
    assert epsilon_graph(X, 1.0000001).edge_set() == {(0, 1)}


def test_epsilon_monotone_in_eps():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((40, 3))
    previous = set()
    for eps in (0.5, 1.0, 1.5, 2.5, 4.0):
        current = epsilon_graph(X, eps).edge_set()
        assert previous <= current
        previous = current


def test_epsilon_rejects_nonpositive_eps():
    with pytest.raises(ValueError, match=r"^eps must be > 0, got 0\.0$"):
        epsilon_graph(np.eye(3), 0.0)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("data", ["random", "duplicate-rows"])
@pytest.mark.parametrize("method", ["knn", "epsilon"])
def test_builders_match_oracles(method, data, metric):
    rng = np.random.default_rng(17)
    if data == "random":
        X = rng.standard_normal((40, 4))
    else:
        # 40 rows drawn from 6 distinct vectors: exact ties inside and across groups
        X = rng.standard_normal((6, 4))[rng.integers(0, 6, size=40)]
    if method == "knn":
        for k in (1, 4, 9):
            assert knn_graph(X, k, metric).edge_set() == knn_oracle_edges(X, k, metric)
    else:
        for eps in (1e-9, 0.4, 1.0) if metric == "cosine" else (1e-9, 1.5, 3.0):
            assert epsilon_graph(X, eps, metric).edge_set() == epsilon_oracle_edges(X, eps, metric)


@pytest.fixture
def refined_rows(monkeypatch):
    """The rows the builders recompute exactly, recorded as they ask for them."""
    asked = []
    exact = graph._distance_rows

    def recording(X, norms, rows):
        asked.extend(int(i) for i in rows)
        return exact(X, norms, rows)

    monkeypatch.setattr(graph, "_distance_rows", recording)
    return asked


def assert_builders_equal_the_row_loop(X, k, eps, metric):
    assert np.array_equal(knn_graph(X, k, metric).edges, knn_row_loop_edges(X, k, metric))
    assert np.array_equal(epsilon_graph(X, eps, metric).edges, epsilon_row_loop_edges(X, eps, metric))


@pytest.mark.parametrize("metric, eps", [("euclidean", 10.5), ("cosine", 0.7)])
def test_builders_equal_the_row_loop_on_wide_gcn_data(metric, eps):
    X = synth_blobs(n=2000, d=64, C=10, sep=6.0, seed=0).X  # the wide-gcn benchmark data, seed 0
    assert_builders_equal_the_row_loop(X, 10, eps, metric)


@pytest.mark.parametrize("metric", METRICS)
# B = DISTANCE_BLOCK_ROWS = 64: n at B - 1, B, B + 1, 2B - 1, 2B, 2B + 1, 2B + 5 and 4B + 5
@pytest.mark.parametrize("n", [2, 63, 64, 65, 127, 128, 129, 133, 261])
def test_builders_equal_the_row_loop_across_block_edges(n, metric, refined_rows):
    assert DISTANCE_BLOCK_ROWS == 64
    rng = np.random.default_rng(n)
    # half the rows repeat others: exact ties at the k-th distance, decided by the exact rows
    X = rng.standard_normal((n, 5))
    X[n // 2:] = X[rng.integers(0, max(1, n // 2), size=n - n // 2)]
    assert_builders_equal_the_row_loop(X, min(4, n - 1), 0.5 if metric == "cosine" else 2.0, metric)
    assert refined_rows or n == 2  # two nodes leave no tie to break


def bound_blocks(X, metric, upper):
    """Every block's (first, lo, hi) from _distance_bounds, copied out of its reused buffers."""
    return graph._distance_bounds(X, graph._row_norms(X, metric), upper,
                                  lambda first, lo, hi: (first, lo.copy(), hi.copy()))


def rows_the_bounds_leave_open(X, method, param, metric):
    """The rows a builder must refine, by the filter rule restated one row at a time: k-NN
    leaves a row open unless exactly k entries other than self have lo <= T, the k-th smallest
    of their hi; epsilon unless every pair right of the diagonal is in (hi below eps) or out
    (lo at or above eps), against eps^2 rounded down and up for euclidean.  X is in range."""
    eps_in = eps_out = param
    if metric == "euclidean":
        eps_in, eps_out = np.nextafter(param * param, -np.inf), np.nextafter(param * param, np.inf)
    open_rows = []
    for first, lo, hi in bound_blocks(X, metric, upper=method == "epsilon"):
        for r, i in enumerate(range(first, first + len(lo))):
            if method == "knn":
                others = np.arange(len(X)) != i
                T = np.sort(hi[r, others])[param - 1]
                undecided = np.count_nonzero(lo[r, others] <= T) != param
            else:  # the columns start at node first
                undecided = ((lo[r, r + 1:] < eps_out) & ~(hi[r, r + 1:] < eps_in)).any()
            if undecided:
                open_rows.append(i)
    return open_rows


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("method", ["knn", "epsilon"])
@pytest.mark.parametrize("data", ["offset", "duplicate-rows", "block-edges"])
def test_builders_refine_exactly_the_rows_the_bounds_leave_open(data, method, metric, refined_rows):
    rng = np.random.default_rng(3)
    if data == "offset":  # the estimate cancels: many rows open
        X = rng.standard_normal((150, 8)) + 1e6
    elif data == "duplicate-rows":
        X = rng.standard_normal((6, 4))[rng.integers(0, 6, size=40)]
    else:
        n = 2 * DISTANCE_BLOCK_ROWS + 5
        X = rng.standard_normal((n, 5))
        X[n // 2:] = X[rng.integers(0, n // 2, size=n - n // 2)]
    if method == "knn":
        param = 5
        knn_graph(X, param, metric)
    else:
        param = {("offset", "cosine"): 2e-12, ("offset", "euclidean"): 3.0}.get(
            (data, metric), 0.5 if metric == "cosine" else 2.0)
        epsilon_graph(X, param, metric)
    assert refined_rows == rows_the_bounds_leave_open(X, method, param, metric)


def use_cpus(monkeypatch, count):
    """Make usable_cpus() report ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("method", ["knn", "epsilon"])
@pytest.mark.parametrize("data", ["duplicate-rows", "offset"])
def test_builders_give_the_same_edges_and_refine_the_same_rows_on_1_2_and_3_cpus(
        data, method, metric, refined_rows, monkeypatch):
    rng = np.random.default_rng(3)
    if data == "offset":  # many rows open; 150 rows are 3 blocks
        X = rng.standard_normal((150, 8)) + 1e6
        eps = 2e-12 if metric == "cosine" else 3.0
    else:  # exact ties, and one block of 5 rows
        n = 2 * DISTANCE_BLOCK_ROWS + 5
        X = rng.standard_normal((n, 5))
        X[n // 2:] = X[rng.integers(0, n // 2, size=n - n // 2)]
        eps = 0.5 if metric == "cosine" else 2.0
    build, param = (knn_graph, 5) if method == "knn" else (epsilon_graph, eps)
    threads, run_blocks = set(), graph._run_blocks

    def recording(block, firsts, size):
        def traced(*args):
            threads.add(threading.get_ident())
            return block(*args)
        return run_blocks(traced, firsts, size)

    monkeypatch.setattr(graph, "_run_blocks", recording)
    runs = []
    for count in (1, 2, 3):
        use_cpus(monkeypatch, count)
        threads.clear()
        before = threading.active_count()
        runs.append((build(X, param, metric).edges, list(refined_rows)))
        refined_rows.clear()
        assert threading.active_count() == before
        # one CPU decides every block in the calling thread, more decide none there
        assert (threading.get_ident() in threads) == (count == 1)
    assert runs[0][1] or (data, method) == ("duplicate-rows", "epsilon")  # no pair near eps there
    for edges, rows in runs[1:]:
        assert np.array_equal(edges, runs[0][0])
        assert rows == runs[0][1]


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_failing_block_stops_every_thread_and_its_error_propagates(cpus, monkeypatch):
    use_cpus(monkeypatch, cpus)
    before, started, failed = threading.active_count(), [], threading.Event()

    def block(first, lo_buf, hi_buf):
        started.append(first)
        if first == 1:
            failed.set()
            raise RuntimeError("block 1 failed")
        failed.wait(5.0)
        if first == 0:  # fails after block 1, and is still the error raised
            raise RuntimeError("block 0 failed")
        time.sleep(0.05)  # the failing threads stop the others meanwhile
        return first

    with pytest.raises(RuntimeError, match="^block 0 failed$"):
        graph._run_blocks(block, range(20), 8)
    assert {0, 1} <= set(started) and len(started) <= cpus
    assert threading.active_count() == before


def test_ctrl_c_in_the_calling_thread_stops_every_thread(monkeypatch):
    use_cpus(monkeypatch, 2)
    before, started = threading.active_count(), []

    def block(first, lo_buf, hi_buf):
        started.append(first)
        if first == 0:
            os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.2)  # the calling thread takes the interrupt meanwhile
        return first

    with pytest.raises(KeyboardInterrupt):
        graph._run_blocks(block, range(20), 8)
    assert 0 in started and len(started) <= 2
    assert threading.active_count() == before


def test_the_blocks_run_on_each_usable_cpu_and_never_more_threads_than_blocks(monkeypatch):
    use_cpus(monkeypatch, 3)
    threads, buffers = set(), set()

    def block(first, lo_buf, hi_buf):
        threads.add(threading.get_ident())
        buffers.add((id(lo_buf), id(hi_buf)))
        assert lo_buf.shape == hi_buf.shape == (8,)
        time.sleep(0.05)  # so that every thread takes a block
        return first

    assert graph._run_blocks(block, range(0, 70, 10), 8) == list(range(0, 70, 10))
    assert len(threads) == 3 and len(buffers) == 3
    threads.clear()
    assert graph._run_blocks(block, range(2), 8) == [0, 1]
    assert len(threads) == 2
    threads.clear()
    assert graph._run_blocks(block, range(1), 8) == [0]
    assert threads == {threading.get_ident()}


def test_every_block_runs_once_on_more_threads_than_cores_under_fast_switching(monkeypatch):
    use_cpus(monkeypatch, 8)
    ran, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = graph._run_blocks(lambda first, lo_buf, hi_buf: ran.append(first) or -first,
                                    range(1000), 1)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-first for first in range(1000)]
    assert sorted(ran) == list(range(1000))


def test_usable_cpus_counts_the_affinity_mask_and_is_1_without_one(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert graph.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert graph.usable_cpus() == 1


@pytest.mark.parametrize("metric, eps", [("euclidean", 3.0), ("cosine", 2e-12)])
def test_builders_equal_the_row_loop_where_the_gemm_estimate_cancels(metric, eps, refined_rows):
    # at 1e6 from the origin |a|^2 + |b|^2 - 2 a.b loses about 12 digits to cancellation
    X = np.random.default_rng(3).standard_normal((150, 8)) + 1e6
    assert_builders_equal_the_row_loop(X, 5, eps, metric)
    assert len(set(refined_rows)) >= 50


def test_rounding_that_crosses_the_kth_distance_and_eps_is_refined(refined_rows):
    # node 1 is at distance 1 from node 0 and node 2 at 1 + 2^-29; at 1e6 the estimate
    # |a|^2 + |b|^2 - 2ab ranks node 2 nearer and puts it inside eps = 1 + 2^-30
    X = np.array([[1e6], [1e6 + 1.0], [1e6 - 1.0 - 2.0 ** -29], [1e6 + 50.0]])
    eps = 1.0 + 2.0 ** -30
    sq = X[:, 0] ** 2
    estimate = sq[0] + sq - 2.0 * X[0, 0] * X[:, 0]
    assert estimate[2] < estimate[1] and estimate[2] < eps * eps
    assert knn_graph(X, 1).edge_set() == {(0, 1), (0, 2), (1, 3)}
    assert 0 in refined_rows
    refined_rows.clear()
    assert epsilon_graph(X, eps).edge_set() == {(0, 1)}
    assert 0 in refined_rows
    assert_builders_equal_the_row_loop(X, 1, eps, "euclidean")


@pytest.mark.parametrize("metric, data", [
    ("euclidean", "random"), ("euclidean", "offset"), ("euclidean", "underflow"),
    ("euclidean", "huge"), ("euclidean", "mixed-scales"),
    ("cosine", "random"), ("cosine", "offset"), ("cosine", "near-parallel"),
    ("cosine", "mixed-scales"),
])
def test_distance_bounds_hold_in_exact_arithmetic(metric, data):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 6))
    X = {"random": X, "offset": X + 1e6, "underflow": X * 1e-160, "huge": X * 1e100,
         "mixed-scales": X * 10.0 ** rng.integers(-60, 60, size=(40, 1)),
         "near-parallel": 1.0 + 1e-7 * X}[data]
    X[-3:] = X[:3]  # duplicate rows: distance 0
    norms = graph._row_norms(X, metric)
    exact = dict(graph._distance_rows(X, norms, range(len(X))))
    blocks = bound_blocks(X, metric, upper=False)
    assert blocks
    for first, lo, hi in blocks:
        for r in range(len(lo)):
            for j, e in enumerate(exact[first + r].tolist()):
                e = Fraction(e) ** 2 if metric == "euclidean" else Fraction(e)
                assert Fraction(lo[r, j]) <= e <= Fraction(hi[r, j]), (first + r, j)


@pytest.mark.parametrize("metric, scale", [("euclidean", 1e152), ("cosine", 1e-100)])
def test_builders_use_only_exact_rows_outside_the_proven_range(metric, scale, refined_rows):
    # the bound is proven for d <= 10^6 only; beyond it every row is exact, at any scale
    X = np.random.default_rng(6).standard_normal((3, 10 ** 6 + 1))
    assert bound_blocks(X, metric, upper=True) == []
    assert np.array_equal(knn_graph(X * scale, 1, metric).edges, knn_row_loop_edges(X, 1, metric))
    assert sorted(set(refined_rows)) == [0, 1, 2]


@pytest.mark.parametrize("metric, scale", [("euclidean", 1e152), ("cosine", 1e-100), ("cosine", 1e100)])
def test_data_far_from_norm_1_is_scaled_into_the_proven_range_and_refines_no_row(
        metric, scale, refined_rows):
    X = np.random.default_rng(6).standard_normal((30, 3))
    assert np.array_equal(knn_graph(X * scale, 3, metric).edges, knn_row_loop_edges(X, 3, metric))
    eps = 0.5 if metric == "cosine" else 0.5 * scale
    assert np.array_equal(epsilon_graph(X * scale, eps, metric).edges,
                          epsilon_row_loop_edges(X, 0.5, metric))
    assert refined_rows == []


def adjacency(X, n, edges):
    return SparseAdjacency(n=n, edges=edges)


@pytest.mark.parametrize("build, args, message", [
    (knn_graph, (2.5,), "k must be"),
    (knn_graph, (True,), "k must be"),
    (knn_graph, ("3",), "k must be"),
    (epsilon_graph, (float("nan"),), "eps must be"),
    (epsilon_graph, (float("inf"),), "eps must be"),
    (epsilon_graph, ("1.0",), "eps must be"),
    (epsilon_graph, (10 ** 400,), "eps must be"),
    (knn_graph, (2, "manhattan"), "unknown metric 'manhattan'"),
    (epsilon_graph, (1.0, "manhattan"), "unknown metric 'manhattan'"),
    (knn_graph, (2, "cosine"), "cosine distance undefined for a zero vector"),
    (epsilon_graph, (1.0, "cosine"), "cosine distance undefined for a zero vector"),
    (adjacency, (3, [[0.5, 1.7]]), "edges must hold integers, got float"),
    (adjacency, (3, [[True, 2]]), "edges must hold integers, got bool"),
    (adjacency, (3, np.array([[0.0, 1.0]])), "edges must hold integers, got float64"),
    (adjacency, (3.9, []), "n must be an integer"),
], ids=["k-float", "k-bool", "k-str", "eps-nan", "eps-inf", "eps-str", "eps-int-beyond-float",
        "knn-metric", "eps-metric", "knn-cosine-zero-row", "eps-cosine-zero-row",
        "adjacency-float-endpoints", "adjacency-bool-endpoint", "adjacency-float-array",
        "adjacency-float-n"])
def test_builder_arguments_are_type_checked(build, args, message):
    X = np.eye(4)
    X[3] = 0.0  # a zero row, which only cosine has no distance for
    with pytest.raises(ValueError, match=f"^{message}"):
        build(X, *args)


def _index_entry_points():
    """{entry: (argument name, shape, call)} for every input read as label or row indices, on
    n=4 nodes and C=2 classes, where [0, 1] is valid everywhere.  shape is the size in the
    vector's shape message, "any" or 2 where the length is another input's, or None for the
    edges, whose own m x 2 check names no shape."""
    ds = synth_blobs(n=4, d=2, C=2, sep=3.0, seed=0)
    S = normalize(SparseAdjacency(n=4, edges=[(0, 1), (1, 2), (2, 3)]))
    Y, model = np.eye(2)[[0, 1, 0, 1]], gcn.init_model(2, 3, 2, 0)
    cache = gcn.forward(model, S, ds.X)
    X2 = np.array([[1.0, 0.0], [0.0, 1.0]])
    return {
        # the form as the single pair of an m x 2 edge array
        "SparseAdjacency": ("edges", None,
                            lambda v: SparseAdjacency(n=4, edges=[v] if isinstance(v, list) else v[None])),
        "take_rows": ("rows", "any", S.take_rows),
        "train": ("labeled", "any", lambda v: gcn.train(model, S, ds.X, Y, v, gcn.Hyperparams(epochs=1))),
        "loss": ("labeled", "any", lambda v: gcn.loss(cache, Y, v)),
        "backward": ("labeled", "any", lambda v: gcn.backward(model, S, ds.X, cache, Y, v)),
        "train_logreg": ("y_l", 2, lambda v: train_logreg(X2, v, 2, gcn.Hyperparams(epochs=1))),
        "logreg_loss_grad": ("y", 2, lambda v: logreg_loss_grad(np.zeros((2, 2)), np.zeros(2), X2, v)),
        "accuracy-pred": ("pred", "any", lambda v: accuracy(v, [0, 1])),
        "accuracy-truth": ("truth", 2, lambda v: accuracy([0, 1], v)),
        "confusion_counts": ("pred", "any", lambda v: confusion_counts(v, [0, 1], 1)),
        "split-labeled": ("labeled", "any", lambda v: LabeledSplit(labeled=v, unlabeled=[2, 3])),
        "split-unlabeled": ("unlabeled", "any", lambda v: LabeledSplit(labeled=[2, 3], unlabeled=v)),
        "PropagationMatrix-indices": ("indices", "any", lambda v: PropagationMatrix(
            n=4, indptr=[0, 1, 2], indices=v, data=[1.0, 1.0], rows=[0, 1])),
        "PropagationMatrix-rows": ("rows", "any", lambda v: PropagationMatrix(
            n=4, indptr=[0, 1, 2], indices=[0, 1], data=[1.0, 1.0], rows=v)),
    }


MALFORMED_INDICES = {
    "bool": [True, 1],
    "floats": [0.0, 1.0],
    "strings": ["0", "1"],
    "2-d": [[0, 1], [1, 0]],
    "uint64-past-int64": np.array([2 ** 64 - 1, 1], dtype=np.uint64),
    "int-past-int64": [2 ** 70, 1],
    # outside 0..3 (nodes) and 0..1 (classes); the scores know no class count, so take any
    # integer past the end, but no negative one
    "negative": [-1, 0],
    "past-the-end": [0, 99],
}
UNBOUNDED = ("accuracy-pred", "accuracy-truth", "confusion_counts")


@pytest.mark.parametrize("entry, form", [
    (entry, form) for entry in _index_entry_points() for form in MALFORMED_INDICES
    if entry not in UNBOUNDED or form != "past-the-end"])
def test_every_index_input_rejects_each_malformed_form_naming_it(entry, form):
    # each was once truncated, wrapped, promoted from bool, reshaped or read past the end
    name, shape, call = _index_entry_points()[entry]
    two_d = form == "2-d" and shape is not None
    with pytest.raises(ValueError, match=rf"^{name} must have shape \({shape},\), got \(2, 2\)$" if two_d
                       else rf"\b{name}\b"):
        call(MALFORMED_INDICES[form])


@pytest.mark.parametrize("entry", _index_entry_points())
@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, np.int64])
def test_every_index_input_reads_in_range_integers_of_any_width(entry, dtype):
    *_, call = _index_entry_points()[entry]
    call(np.array([0, 1], dtype=dtype))


@pytest.mark.parametrize("values, message", [
    ([0.5, 1], "^x must hold integers, got float$"),
    (np.array([True]), "^x must hold integers, got bool$"),
    ([object()], "^x must hold integers, got object$"),
    (np.array([2 ** 63], dtype=np.uint64), "^x holds an integer outside the 64-bit range$"),
    ([-2 ** 63 - 1], "^x holds an integer outside the 64-bit range$"),
    ([3, 5, -1], r"^x holds 5, outside 0\.\.4$"),
], ids=["float", "bool-array", "object", "uint64-2^63", "below-int64", "first-outside"])
def test_check_indices_names_the_first_fault(values, message):
    with pytest.raises(ValueError, match=message):
        graph.check_indices("x", values, 5)


@pytest.mark.parametrize("edges", [[0, 1], [[[0, 1], [1, 2]]], [[0, 1, 2]]], ids=["flat", "3-d", "triple"])
def test_edges_must_be_pairs(edges):
    # each was reshaped into pairs: [[[0, 1], [1, 2]]] read as the two edges it holds
    with pytest.raises(ValueError, match=r"^edges must be an m x 2 array of pairs, got shape \("):
        SparseAdjacency(n=3, edges=edges)
    assert SparseAdjacency(n=3, edges=[]).edges.shape == (0, 2)


def test_check_indices_keeps_the_shape_and_the_values():
    assert graph.check_indices("x", [], 3).dtype == np.int64
    big = graph.check_indices("x", np.array([[2 ** 63 - 1], [0]], dtype=np.uint64))
    assert big.shape == (2, 1) and big.dtype == np.int64 and big[0, 0] == 2 ** 63 - 1
    edges = np.array([[0, 1]], dtype=np.int64)
    assert graph.check_indices("x", edges) is edges  # an int64 array is not copied


def _float_entry_points():
    """{entry: (argument name, a valid value, call)} for every input read as a float array, on
    n=4 nodes with d=2 features, 3 hidden units and C=2 classes."""
    ds = synth_blobs(n=4, d=2, C=2, sep=3.0, seed=0)
    S = normalize(SparseAdjacency(n=4, edges=[(0, 1), (1, 2), (2, 3)]))
    Y, model = np.eye(2)[[0, 1, 0, 1]], gcn.init_model(2, 3, 2, 0)
    cache = gcn.forward(model, S, ds.X)
    logreg = LogRegModel(W=np.ones((2, 2)), b=np.zeros(2))
    return {
        "EmbeddingDataset": ("embedding", ds.X, lambda v: EmbeddingDataset(ids=list("abcd"), X=v, C=2)),
        "l2_normalize_rows": ("X", ds.X, l2_normalize_rows),
        "knn_graph": ("feature", ds.X, lambda v: knn_graph(v, 1)),
        "matmul": ("operand", ds.X, S.matmul),
        "PropagationMatrix": ("data", S.data, lambda v: PropagationMatrix(4, S.indptr, S.indices, v, S.rows)),
        "GcnModel-theta1": ("theta1", model.theta1, lambda v: gcn.GcnModel(theta1=v, theta2=model.theta2)),
        "GcnModel-theta2": ("theta2", model.theta2, lambda v: gcn.GcnModel(theta1=model.theta1, theta2=v)),
        "forward": ("X", ds.X, lambda v: gcn.forward(model, S, v)),
        "loss": ("Y", Y, lambda v: gcn.loss(cache, v, [0, 1])),
        "backward": ("X", ds.X, lambda v: gcn.backward(model, S, v, cache, Y, [0, 1])),
        "LogRegModel-W": ("W", logreg.W, lambda v: LogRegModel(W=v, b=logreg.b)),
        "LogRegModel-b": ("b", logreg.b, lambda v: LogRegModel(W=logreg.W, b=v)),
        "train_logreg": ("X_l", ds.X[:2], lambda v: train_logreg(v, [0, 1], 2, gcn.Hyperparams(epochs=1))),
        "predict_logreg": ("X", ds.X, lambda v: predict_logreg(logreg, v)),
    }


def _first_entry(a, value):
    """a as nested lists, its first entry replaced by value."""
    entries = a.tolist()
    (entries if a.ndim == 1 else entries[0])[0] = value
    return entries


def _ragged(a):
    """a as nested lists that no array shape fits."""
    return _first_entry(a, [1.0, 2.0]) if a.ndim == 1 else [*a.tolist()[:-1], a[-1, 1:].tolist()]


def _last_entry(a, value):
    a = a.copy()
    a.flat[-1] = value
    return a


MALFORMED_FLOATS = {
    "bool-array": lambda a: a > 0,
    "list-with-true": lambda a: _first_entry(a, True),
    "complex-array": lambda a: a + 0j,
    "string-array": lambda a: a.astype(str),
    "list-with-none": lambda a: _first_entry(a, None),
    "ragged-list": _ragged,
    "int-beyond-float64": lambda a: _first_entry(a, 10 ** 400),
    "nan": lambda a: _last_entry(a, np.nan),
    "inf": lambda a: _last_entry(a, -np.inf),
    "one-more-dimension": lambda a: a[..., None],
}


@pytest.mark.parametrize("entry, form", [
    (entry, form) for entry in _float_entry_points() for form in MALFORMED_FLOATS])
def test_every_float_input_rejects_each_malformed_form_naming_it(entry, form):
    # each was once read as 1.0 or parsed from its string, lost its imaginary part with only a
    # warning, put a NaN row in class 0 or failed inside NumPy without naming the input
    name, valid, call = _float_entry_points()[entry]
    call(valid)
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(MALFORMED_FLOATS[form](valid))


@pytest.mark.parametrize("values, message", [
    ([[1.0, True]], "^x must hold real numbers, got bool$"),
    (np.ones((1, 2), dtype=np.complex64), "^x must hold real numbers, got complex64$"),
    ([[1.0, "0.5"]], "^x must hold real numbers, got str$"),
    ([[1.0, 2.0], [3.0]], "^x must hold real numbers, got list$"),
    ([np.zeros((2, 2)), np.zeros((2, 3))], "^x must hold real numbers, got a ragged array$"),
    ([[10 ** 400, 0.0]], "^x holds a number outside the float64 range$"),
    (np.ones((2, 3)), r"^x must have shape \(any, 2\), got \(2, 3\)$"),
    (np.ones(2), r"^x must have shape \(any, 2\), got \(2,\)$"),
    ([[0.0, 1.0], [2.0, np.inf], [np.nan, 0.0]], "^x row 1: non-finite value$"),
], ids=["bool", "complex", "string", "ragged-list", "ragged-arrays", "int-beyond-float64",
        "width", "dimensions", "first-non-finite-row"])
def test_check_floats_names_the_first_fault(values, message):
    with pytest.raises(ValueError, match=message):
        check_floats("x", values, (None, 2))


def test_check_floats_reads_real_numbers_of_any_kind_as_float64():
    X = np.arange(6.0).reshape(3, 2)
    assert check_floats("x", X, (3, None)) is X  # a float64 array is not copied
    for values in (X.astype(np.float32), X.astype(np.int8), X.astype(np.uint64), X.tolist(),
                   [[Fraction(0), 1], [2, np.float16(3)], [4, 5]]):
        got = check_floats("x", values, (None, 2))
        assert got.dtype == np.float64 and np.array_equal(got, X)
    with pytest.raises(ValueError, match=r"^b must have shape \(2,\), got \(3,\)$"):
        check_floats("b", [1.0, 2.0, 3.0], (2,))
    assert check_floats("x", np.ones((0, 2), dtype=bool), (None, 2)).shape == (0, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", [
    lambda X: knn_graph(X, 2),
    lambda X: knn_graph(X, 2, "cosine"),
    lambda X: epsilon_graph(X, 1.0),
    lambda X: epsilon_graph(X, 0.5, "cosine"),
    lambda X: build_graph(X, GraphBuildConfig(method="full")),
], ids=["knn-euclidean", "knn-cosine", "epsilon-euclidean", "epsilon-cosine", "full"])
def test_builders_reject_non_finite_features(build, value):
    X = np.random.default_rng(0).standard_normal((6, 3))
    X[2, 1] = value
    X[4, 0] = np.nan
    with pytest.raises(ValueError, match="^feature row 2: non-finite value$"):
        build(X)


@pytest.mark.parametrize("build", [
    lambda X: knn_graph(X, 2),
    lambda X: epsilon_graph(X, 1.0),
    lambda X: build_graph(X, GraphBuildConfig(method="full")),
], ids=["knn", "epsilon", "full"])
def test_builders_reject_features_that_are_not_a_matrix(build):
    with pytest.raises(ValueError, match=r"^feature must have shape \(any, any\), got \(6,\)$"):
        build(np.arange(6.0))


@pytest.mark.parametrize("scale", [1e160, 1e307, 1e-300])
@pytest.mark.parametrize("build", [
    lambda X: knn_graph(X, 5, "cosine"),
    lambda X: epsilon_graph(X, 0.5, "cosine"),
], ids=["knn", "epsilon"])
def test_cosine_builds_the_unscaled_graph_far_from_norm_1(build, scale):
    # cosine ignores scale; unscaled, the epsilon graph has 582 edges
    X = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=0).X
    assert build(X * scale).edge_set() == build(X).edge_set()


def test_cosine_rows_scaled_by_powers_of_two_give_the_same_edges_bit_for_bit():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((40, 5))
    scaled = X * 2.0 ** rng.integers(-900, 900, size=(40, 1))  # exact: every entry stays normal
    assert np.array_equal(knn_graph(scaled, 4, "cosine").edges, knn_row_loop_edges(X, 4, "cosine"))
    assert np.array_equal(epsilon_graph(scaled, 0.5, "cosine").edges,
                          epsilon_row_loop_edges(X, 0.5, "cosine"))


@pytest.mark.parametrize("scale", [1e160, 1e307])
@pytest.mark.parametrize("build", [
    lambda X, scale: knn_graph(X * scale, 5),
    lambda X, scale: epsilon_graph(X * scale, 2.0 * scale),
], ids=["knn", "epsilon"])
def test_euclidean_builds_the_unscaled_graph_far_from_norm_1(build, scale):
    # distances far beyond float64 unscaled: X is scaled down by a power of two, eps with it
    X = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=0).X
    assert build(X, scale).edge_set() == build(X, 1.0).edge_set()


def test_euclidean_builders_scale_tiny_features_up_instead_of_underflowing():
    # unscaled, the k-NN graph has 199 edges and the epsilon graph 138; the raw
    # formula on X * 1e-200 ties whole rows at distance 0 and gives 285 and 1,770
    X = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=0).X
    assert knn_graph(X * 1e-200, 5).edge_set() == knn_graph(X, 5).edge_set()
    assert epsilon_graph(X * 1e-300, 2e-300).edge_set() == epsilon_graph(X, 2.0).edge_set()
    # an eps beyond every distance still admits every pair, and one below every nonzero
    # distance none but those at distance 0
    assert epsilon_graph(X * 1e-300, 1e100).num_edges == 60 * 59 // 2
    assert epsilon_graph(X * 1e300, 1e-300).num_edges == 0
    assert epsilon_graph(np.vstack([X, X[:2]]) * 1e300, 1e-300).edge_set() == {(0, 60), (1, 61)}


@pytest.mark.parametrize("power", [-500, -900, -1000, 600, 1000])
def test_euclidean_features_scaled_by_a_power_of_two_give_the_same_edges_bit_for_bit(power):
    X = np.random.default_rng(9).uniform(1.0, 2.0, size=(40, 5))  # exact: every entry stays normal
    scaled = X * 2.0 ** power
    assert np.array_equal(knn_graph(scaled, 4).edges, knn_row_loop_edges(X, 4))
    assert np.array_equal(epsilon_graph(scaled, 1.5 * 2.0 ** power).edges,
                          epsilon_row_loop_edges(X, 1.5))


def test_euclidean_features_too_far_apart_in_scale_are_an_error():
    X = synth_blobs(n=60, d=4, C=3, sep=5.0, seed=0).X
    X[7] *= 1e-200  # one power of two still brings every entry into range: 2^300 does
    assert np.array_equal(knn_graph(X, 5).edges, knn_row_loop_edges(X * 2.0 ** 300, 5))
    assert np.array_equal(epsilon_graph(X, 2.0).edges, epsilon_row_loop_edges(X * 2.0 ** 300, 2.0 ** 301))
    X *= 1e300
    X[7] *= 1e-300  # no power of two lifts row 7 to 2^-458 and keeps the others below 2^400
    for build in (lambda: knn_graph(X, 5), lambda: epsilon_graph(X, 2.0)):
        with pytest.raises(ValueError, match="^feature row 7: euclidean distance underflows float64"):
            build()


def test_euclidean_features_transient_is_about_one_matrix():
    # the per-row smallest nonzero |x| is one reduction over |X|: no second copy of X
    X = synth_blobs(n=2000, d=128, C=4).X
    tracemalloc.start()
    try:
        graph._features(X, "euclidean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * X.nbytes


def test_epsilon_graph_needs_a_node():
    with pytest.raises(ValueError, match="n must be >= 1"):
        epsilon_graph(np.empty((0, 3)), 1.0)
    with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
        full_graph(0)


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 3), (6, 15)])
def test_full_graph_edge_counts(n, expected):
    assert full_graph(n).num_edges == expected


def test_builders_produce_symmetric_loop_free_graphs():
    ds = synth_blobs(n=25, d=3, C=2, sep=2.0, seed=5)
    for A in (knn_graph(ds, 4), epsilon_graph(ds, 2.0), full_graph(25)):
        assert (A.edges[:, 0] < A.edges[:, 1]).all()
        dense = np.zeros((A.n, A.n))
        for i, j in A.edges:
            dense[i, j] = dense[j, i] = 1.0
        assert np.array_equal(dense, dense.T)
        assert np.trace(dense) == 0.0


def test_normalize_single_edge():
    S = normalize(SparseAdjacency(n=2, edges=[(0, 1)]))
    assert np.array_equal(S.to_dense(), [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_isolated_node():
    S = normalize(SparseAdjacency(n=1, edges=np.empty((0, 2), dtype=np.int64)))
    assert np.array_equal(S.to_dense(), [[1.0]])


def test_normalize_path_graph_values():
    S = normalize(SparseAdjacency(n=3, edges=[(0, 1), (1, 2)])).to_dense()
    oracle = normalize_oracle_dense(3, [(0, 1), (1, 2)])
    assert np.abs(S - oracle).max() <= 1e-12
    assert S[0, 0] == 0.5 and S[1, 1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert S[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), abs=1e-15)


def test_normalize_matches_dense_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(2, 40))
        X = rng.standard_normal((n, 3))
        A = knn_graph(X, k=min(3, n - 1))
        S = normalize(A)
        dense = S.to_dense()
        assert np.abs(dense - normalize_oracle_dense(n, A.edge_set())).max() <= 1e-12
        assert np.abs(dense - dense.T).max() <= 1e-12
        assert S.nnz == 2 * A.num_edges + n
        assert (S.data > 0.0).all() and (S.data <= 1.0).all()
        d_hat = A.degrees() + 1
        assert (dense.sum(axis=1) <= np.sqrt(d_hat) + 1e-12).all()
        assert np.array_equal(np.diag(dense), 1.0 / d_hat)


@pytest.mark.parametrize("kind", ["random", "empty", "star"])
def test_normalize_lays_out_the_entries_of_a_lexsort_by_row_then_column(kind):
    rng = np.random.default_rng(12)
    if kind == "random":
        pairs = np.unique(np.sort(rng.integers(0, 60, size=(200, 2)), axis=1), axis=0)
        A = SparseAdjacency(n=60, edges=pairs[pairs[:, 0] < pairs[:, 1]])
    elif kind == "empty":
        A = SparseAdjacency(n=7, edges=np.empty((0, 2), dtype=np.int64))
    else:
        A = SparseAdjacency(n=30, edges=[(0, j) for j in range(1, 30)])
    S = normalize(A)
    e, n, d_hat = A.edges, A.n, A.degrees() + 1.0
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(n)])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    assert np.array_equal(S.indices, cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    assert np.array_equal(S.indptr, indptr)
    data = np.where(rows == cols, 1.0 / d_hat[rows], 1.0 / np.sqrt(d_hat[rows] * d_hat[cols]))
    assert np.array_equal(S.data, data)


@pytest.mark.parametrize("shape", [(3,), (), (3, 5, 1)])
def test_matmul_rejects_an_operand_that_is_not_2d(shape):
    S = normalize(SparseAdjacency(n=3, edges=[(0, 1)]))
    message = re.escape(f"operand must have shape (3, any), got {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        S.matmul(np.ones(shape))


def test_matmul_rejects_an_operand_with_the_wrong_row_count():
    S = normalize(SparseAdjacency(n=3, edges=[(0, 1)]))
    with pytest.raises(ValueError, match=r"^operand must have shape \(3, any\), got \(4, 2\)$"):
        S.matmul(np.ones((4, 2)))
    with pytest.raises(ValueError, match=r"^operand must have shape \(3, any\), got \(4, 2\)$"):
        S.take_rows([2, 0]).matmul(np.ones((4, 2)))


def test_propagation_matmul_equals_dense_product():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((30, 4))
    S = normalize(knn_graph(X, 5))
    M = rng.standard_normal((30, 6))
    assert np.abs(S.matmul(M) - S.to_dense() @ M).max() <= 1e-12


def read_only(M):
    M = M.copy()
    M.flags.writeable = False
    return M


# M's values in other layouts: each must be read as M itself, whatever its strides
@pytest.mark.parametrize("layout", [
    lambda M: M, np.asfortranarray, lambda M: np.ascontiguousarray(M[::-1])[::-1],
    lambda M: np.repeat(M, 2, axis=1)[:, ::2], read_only, lambda M: M.tolist(),
], ids=["c-contiguous", "fortran", "row-reversed", "strided-columns", "read-only", "nested-list"])
def test_propagation_matmul_keeps_operand_and_old_scale_then_sum_bits(layout):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((40, 5))
    S = normalize(knn_graph(X, 6))
    M = rng.standard_normal((40, 7))
    operand = layout(M)
    before = np.array(operand)
    out = S.matmul(operand)
    assert np.array_equal(operand, before) and np.array_equal(operand, M)
    reference = np.add.reduceat(S.data[:, None] * M[S.indices], S.indptr[:-1], axis=0)
    assert np.array_equal(out, reference)


def one_shot_product(S, M):
    """The unblocked kernel: one gather M[indices] for all rows, scaled in place, one reduceat."""
    contrib = M[S.indices]
    contrib *= S.data[:, None]
    return np.add.reduceat(contrib, S.indptr[:-1], axis=0)


def random_propagation(n, seed, edge_share=0.3):
    """A random graph on n nodes whose first quarter of the nodes is isolated."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, k=1)
    keep = (rng.random(len(i)) < edge_share) & (i >= n // 4)
    return normalize(SparseAdjacency(n=n, edges=np.column_stack([i[keep], j[keep]])))


@pytest.mark.parametrize("n", [1, 7, 127, 128, 129, 389])
@pytest.mark.parametrize("cols", [1, 16])
def test_blocked_matmul_matches_the_one_shot_kernel(n, cols):
    S = random_propagation(n, seed=n, edge_share=min(1.0, 8.0 / n))
    assert (np.diff(S.indptr)[:n // 4] == 1).all()  # isolated nodes: the diagonal alone
    M = np.random.default_rng(cols).standard_normal((n, cols))
    expected = one_shot_product(S, M)
    assert np.array_equal(S.matmul(M), expected)
    rows = np.random.default_rng(0).permutation(n)[:max(1, n // 3)]
    assert np.array_equal(S.take_rows(rows).matmul(M), expected[rows])
    assert np.array_equal(S.take_rows(np.arange(n)[::-1]).matmul(M), expected[::-1])


def byte_rule_block(S, cols):
    """Rows per block of PropagationMatrix.matmul: a gather of about MATMUL_BLOCK_BYTES."""
    segment = -(-S.nnz // len(S.rows))
    return max(1, MATMUL_BLOCK_BYTES // (8 * cols * segment))


@pytest.mark.parametrize("cols", [1, 16, 768])
def test_blocked_matmul_matches_the_one_shot_kernel_at_the_block_edges(cols):
    # a ring: every stored row has 3 entries, so every cut has the same block B
    B = MATMUL_BLOCK_BYTES // (8 * cols * 3)
    n = 2 * B + 1
    S = normalize(SparseAdjacency(n=n, edges=[(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]))
    assert byte_rule_block(S, cols) == B
    rng = np.random.default_rng(cols)
    M = rng.standard_normal((n, cols))
    expected = one_shot_product(S, M)
    assert np.array_equal(S.matmul(M), expected)  # blocks of B, B and 1 rows
    order = rng.permutation(n)
    for m in (B - 1, B, B + 1):
        cut = S.take_rows(order[:m])
        assert byte_rule_block(cut, cols) == B
        assert np.array_equal(cut.matmul(M), expected[order[:m]])


@pytest.mark.parametrize("cols", [1, 16, 768])
@pytest.mark.parametrize("build", [
    lambda X: epsilon_graph(X, 1.0),
    lambda X: full_graph(len(X)),
    lambda X: SparseAdjacency(n=len(X), edges=[(0, j) for j in range(1, len(X))]),
], ids=["epsilon", "full", "star"])
def test_blocked_matmul_matches_the_one_shot_kernel_on_long_and_uneven_rows(build, cols):
    X = synth_blobs(n=300, d=4, C=3, sep=2.0, seed=0).X
    S = normalize(build(X))
    M = np.random.default_rng(cols).standard_normal((300, cols))
    expected = one_shot_product(S, M)
    assert np.array_equal(S.matmul(M), expected)
    rows = np.random.default_rng(0).permutation(300)[:100]
    assert np.array_equal(S.take_rows(rows).matmul(M), expected[rows])


def test_matmul_rows_may_repeat_and_be_empty():
    S = random_propagation(50, seed=1)
    M = np.random.default_rng(2).standard_normal((50, 4))
    expected = one_shot_product(S, M)
    assert np.array_equal(S.take_rows([3, 49, 3, 0]).matmul(M), expected[[3, 49, 3, 0]])
    empty = S.take_rows(np.array([], dtype=np.int64)).matmul(M)
    assert empty.shape == (0, 4)
    assert S.take_rows([]).matmul(M).shape == (0, 4)


@pytest.mark.parametrize("rows", [[50], [-1], [0, 50]])
def test_matmul_rejects_rows_outside_the_matrix(rows):
    S = random_propagation(50, seed=1)
    with pytest.raises(ValueError, match=r"^rows holds (50|-1), outside 0\.\.49$"):
        S.take_rows(rows)


@pytest.mark.parametrize("rows", [[], [7], [3, 49, 3, 0], np.arange(50)[::-1]],
                         ids=["empty", "one", "repeats", "reversed"])
def test_a_cut_is_the_dense_matrix_on_its_rows_and_counts_their_entries(rows):
    S, rows = random_propagation(50, seed=3), np.asarray(rows, dtype=np.int64)
    cut = S.take_rows(rows)
    dense = cut.to_dense()
    chosen = np.isin(np.arange(50), rows)
    assert np.array_equal(cut.rows, rows)
    assert np.array_equal(dense[chosen], S.to_dense()[chosen])
    assert not dense[~chosen].any()
    assert cut.nnz == np.diff(S.indptr)[rows].sum()


def test_an_entry_cut_keeps_its_rows_and_the_chosen_entries_in_order():
    S = random_propagation(50, seed=3)
    cut = S.take_rows([7, 30, 3, 30, 45])
    rng = np.random.default_rng(4)
    keep = rng.random(cut.nnz) < 0.5
    keep[cut.indptr[:-1]] = True  # each row's first entry, so none is left empty
    kept = cut.take_entries(keep)
    assert np.array_equal(kept.rows, cut.rows)
    assert np.array_equal(kept.indices, cut.indices[keep])
    assert np.array_equal(kept.data, cut.data[keep])
    assert np.array_equal(np.diff(kept.indptr),
                          np.add.reduceat(keep.astype(np.int64), cut.indptr[:-1]))
    assert (np.diff(kept.indptr) < np.diff(cut.indptr)).any()
    # the dense product of each stored row restricted to its kept entries
    dense = np.zeros((len(cut.rows), 50))
    stored_row = np.repeat(np.arange(len(cut.rows)), np.diff(cut.indptr))
    dense[stored_row[keep], cut.indices[keep]] = cut.data[keep]
    M = rng.standard_normal((50, 4))
    assert np.allclose(kept.matmul(M), dense @ M, rtol=1e-12, atol=1e-15)
    empty = S.take_rows([]).take_entries(np.zeros(0, dtype=bool))
    assert len(empty.rows) == 0 and empty.nnz == 0
    assert empty.matmul(M).shape == (0, 4)


def test_an_entry_cut_rejects_an_emptied_row_or_a_wrong_length_mask():
    cut = random_propagation(50, seed=3).take_rows([7, 30])
    keep = np.ones(cut.nnz, dtype=bool)
    keep[cut.indptr[1]:cut.indptr[2]] = False
    with pytest.raises(ValueError, match=r"^indptr must rise at every stored row, not at row 1 \(node 30\)$"):
        cut.take_entries(keep)
    with pytest.raises(ValueError, match="one flag per stored entry"):
        cut.take_entries(keep[:-1])


@pytest.mark.parametrize("keep", [
    ["no", "", "x", "y", "z"],  # once read as truth values: it kept the 4 non-empty entries
    np.array([1, 0, 1, 1, 1]),
    [1, 0, 1, 1, 1],
    np.array([1.0, 0.0, 1.0, 1.0, 1.0]),
    np.array([True, False, True, True, True], dtype=object),
], ids=["strings", "int-array", "int-list", "float-array", "object-bools"])
def test_an_entry_cut_reads_only_a_bool_mask(keep):
    P = PropagationMatrix(n=3, indptr=[0, 2, 3, 5], indices=[0, 1, 1, 1, 2], data=[0.5] * 5, rows=[0, 1, 2])
    with pytest.raises(ValueError, match=r"^keep must be a bool array with one flag per stored entry \(5\), got "):
        P.take_entries(keep)
    kept = P.take_entries([True, False, True, True, True])
    assert kept.indices.tolist() == [0, 1, 1, 2] and kept.indptr.tolist() == [0, 1, 2, 4]


def test_a_propagation_matrix_rejects_an_empty_stored_row():
    # matmul's reduceat read the empty row 0 as row 1's sum: [[7], [7]] for [[5], [7]]
    with pytest.raises(ValueError, match=r"^indptr must rise at every stored row, not at row 0 \(node 0\)$"):
        PropagationMatrix(n=2, indptr=[0, 0, 1], indices=[1], data=[1.0], rows=[0, 1])
    with pytest.raises(ValueError, match=r"^indptr must rise at every stored row, not at row 1 \(node 1\)$"):
        PropagationMatrix(n=2, indptr=[0, 2, 1], indices=[1], data=[1.0], rows=[0, 1])
    for indptr, indices, message in (([1, 1, 1], [], "indptr must run from 0 to nnz=0 in 2 steps"),
                                     ([0, 1], [1], r"indptr must have shape \(3,\), got \(2,\)"),
                                     ([0, 1, 3], [0, 1], "indptr must run from 0 to nnz=2 in 2 steps"),
                                     ([[0, 1, 2]], [0, 1], r"indptr must have shape \(3,\), got \(1, 3\)")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PropagationMatrix(n=2, indptr=indptr, indices=indices, data=[1.0] * len(indices), rows=[0, 1])


def test_a_propagation_matrix_rejects_an_index_past_n():
    # a column past n was an IndexError inside matmul, a row past n a wrong to_dense
    with pytest.raises(ValueError, match=r"^indices holds 2, outside 0\.\.1$"):
        PropagationMatrix(n=2, indptr=[0, 1, 2], indices=[0, 2], data=[1.0, 1.0], rows=[0, 1])
    with pytest.raises(ValueError, match=r"^rows holds 2, outside 0\.\.1$"):
        PropagationMatrix(n=2, indptr=[0, 1, 2], indices=[0, 1], data=[1.0, 1.0], rows=[0, 2])
    with pytest.raises(ValueError, match=r"^data must have shape \(2,\), got \(1,\)$"):
        PropagationMatrix(n=2, indptr=[0, 1, 2], indices=[0, 1], data=[1.0], rows=[0, 1])
    with pytest.raises(ValueError, match=r"^indices must have shape \(any,\), got \(1, 1\)$"):
        PropagationMatrix(n=2, indptr=[0, 1], indices=[[0]], data=[[1.0]], rows=[0])


def test_blocked_matmul_matches_the_one_shot_kernel_on_the_wide_gcn_graph():
    ds = synth_blobs(n=2000, d=64, C=10, sep=6.0, seed=0)  # the wide-gcn benchmark data, seed 0
    S = normalize(knn_graph(ds, 10))
    rows = np.random.default_rng(0).permutation(2000)[:700]
    for M in (ds.X, np.random.default_rng(1).standard_normal((2000, 16))):
        expected = one_shot_product(S, M)
        assert np.array_equal(S.matmul(M), expected)
        assert np.array_equal(S.take_rows(rows).matmul(M), expected[rows])


def test_graph_config_validation():
    with pytest.raises(ValueError):
        GraphBuildConfig(method="voronoi")
    with pytest.raises(ValueError):
        GraphBuildConfig(method="knn", k=0)
    with pytest.raises(ValueError):
        GraphBuildConfig(method="epsilon")
    with pytest.raises(ValueError):
        GraphBuildConfig(metric="manhattan")
    cfg = GraphBuildConfig(method="epsilon", eps=1.5)
    X = np.array([[0.0], [1.0], [2.0]])
    assert build_graph(X, cfg).edge_set() == {(0, 1), (1, 2)}


def test_save_graph_format_example(tmp_path):
    path = tmp_path / "g.edges"
    save_graph(SparseAdjacency(n=3, edges=[(1, 2), (0, 1)]), path)
    assert path.read_text() == "#nodes=3\n0\t1\n1\t2\n"


@pytest.mark.parametrize("kind", ["empty", "isolated-nodes", "knn"])
def test_save_graph_writes_the_bytes_of_one_formatted_line_per_edge(kind, tmp_path):
    A = {"empty": lambda: SparseAdjacency(n=4, edges=np.empty((0, 2), dtype=np.int64)),
         "isolated-nodes": lambda: SparseAdjacency(n=12, edges=[(0, 11), (3, 7), (7, 10)]),
         "knn": lambda: knn_graph(synth_blobs(n=300, d=4, C=3, sep=4.0, seed=2), 5)}[kind]()
    path = tmp_path / "g.edges"
    save_graph(A, path)
    lines = [f"#nodes={A.n}"] + [f"{i}\t{j}" for i, j in A.edges.tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("edges", [[(2, 3), (0, 1), (2, 3)], [(0, 1), (0, 1)],
                                   [(1, 2), (0, 4), (1, 2), (0, 1)]],
                         ids=["unsorted", "sorted", "unsorted-apart"])
def test_sparse_adjacency_rejects_a_duplicate_edge_in_any_order(edges):
    with pytest.raises(ValueError, match="^duplicate edge$"):
        SparseAdjacency(n=5, edges=edges)


def test_graph_round_trip(tmp_path):
    ds = synth_blobs(n=50, d=3, C=2, sep=2.0, seed=8)
    A = knn_graph(ds, 5)
    path = tmp_path / "knn.edges"
    save_graph(A, path)
    loaded = load_graph(path)
    assert loaded.n == A.n and loaded.edge_set() == A.edge_set()
    second = tmp_path / "again.edges"
    save_graph(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_graph_round_trip_keeps_isolated_nodes(tmp_path):
    A = SparseAdjacency(n=5, edges=[(0, 1)])
    path = tmp_path / "iso.edges"
    save_graph(A, path)
    assert load_graph(path).n == 5


def read_outcome(parse):
    """(n, edges) of the graph ``parse()`` returns, or the message of the ValueError it raises."""
    try:
        A = parse()
    except ValueError as exc:
        return str(exc)
    return A.n, A.edges.tolist()


@pytest.mark.parametrize("text", [
    "#nodes=6\n0\t1\n2\t5\n",     # the writer's form
    "0\t1\n2\t5",                   # no header, no final newline
    "#nodes=6\n",                     # header alone
    "#nodes=6\n2\t5\n0\t1\n",     # unsorted
    "#nodes=06\n0\t1\n2\t0005\n",  # leading zeros, 1-18 digits a number
    "#nodes=06\n 0\t+1\n2\t0005\n",  # spellings int() accepts, outside the form
    "#nodes=6\n2\t5\n0\t1\n1\t4\n0\t3\n",  # shuffled lines
    "2\t5\n0\t1\n1\t4\n",              # no header, shuffled
    "#nodes=6\n0\t1\n2\t5",          # no final newline
    "#nodes=6",                          # header alone, no final newline
    "#nodes=6\n0\t1\n2\t0000000000000000005\n",  # a 19-digit endpoint
    "#nodes=6\n0\t1\n5\t9\x1c\n",    # a control character
    "#nodes=6\n0\t1\n2\t\u0665\n",  # a non-ASCII digit
    "#nodes=6\n2\t5\n0\t1\n2\t5\n",  # a duplicate out of order: the line is named
])
def test_load_graph_reads_what_the_line_parser_reads(tmp_path, text):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    expected = read_outcome(lambda: edge_list_oracle(text))
    assert read_outcome(lambda: load_graph(path)) == expected
    assert isinstance(expected, str) or expected[0] == 6


@pytest.mark.parametrize("text, message", [
    ("#nodes=6\n0\t1\n2\t+5\n", "line 3: malformed edge line '2\\t+5'"),
    ("#nodes=6\n0\t1\n 2\t5\n", "line 3: malformed edge line ' 2\\t5'"),
    ("#nodes=6\n0\t1\n2\t5 \n", "line 3: malformed edge line '2\\t5 '"),
    ("#nodes=20\n0\t1\n2\t1_0\n", "line 3: malformed edge line '2\\t1_0'"),
    ("#nodes=6\n0\t1\n2\t\u0665\n", "line 3: malformed edge line '2\\t\u0665'"),
    ("#nodes=6\n0\t1\n-1\t5\n", "line 3: malformed edge line '-1\\t5'"),
    ("#nodes=6\n0\t1\n2\t0000000000000000005\n",
     "line 3: malformed edge line '2\\t0000000000000000005'"),
    ("#nodes=+6\n0\t1\n", "line 1: malformed #nodes header '#nodes=+6'"),
    ("#nodes= 6\n0\t1\n", "line 1: malformed #nodes header '#nodes= 6'"),
], ids=["sign", "leading-space", "trailing-space", "underscore", "non-ascii-digit", "negative",
        "19-digits", "header-sign", "header-space"])
def test_load_graph_rejects_spellings_outside_the_form(tmp_path, text, message):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_graph(path)
    assert str(info.value) == message
    assert read_outcome(lambda: edge_list_oracle(text)) == message


def test_load_graph_reads_a_shuffled_writer_file_in_one_pass(tmp_path):
    A = knn_graph(synth_blobs(n=300, d=4, C=3, sep=2.0, seed=1), 5)
    path = tmp_path / "knn.edges"
    save_graph(A, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    order = np.random.default_rng(0).permutation(len(lines))
    path.write_text("\n".join([header] + [lines[i] for i in order]) + "\n", encoding="utf-8")
    loaded = load_graph(path)
    assert loaded.n == A.n and np.array_equal(loaded.edges, A.edges)


@pytest.mark.parametrize("line, edit, message", [
    (702, "699\t700", "line 702: duplicate edge 699 700"),
    (1500, "1500\t1500", "line 1500: self-loop 1500"),
    (1999, "1999 2000", "line 1999: malformed edge line '1999 2000'"),
    (2502, "2500\t2400", "line 2502: edge must satisfy 0 <= i < j, got 2500, 2400"),
])
def test_load_graph_names_the_first_bad_line_of_a_long_file(tmp_path, line, edit, message):
    lines = ["#nodes=3000"] + [f"{i}\t{i + 1}" for i in range(2500)]
    lines.insert(line - 1, edit)
    lines.append("9000\t9000")  # a later bad line, in sorted order, is not the one named
    path = tmp_path / "long.edges"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_graph(path)
    assert str(info.value) == message


def test_load_graph_rejects_bad_files(tmp_path):
    cases = {
        "self.edges": ("#nodes=4\n3\t3\n", "self-loop"),
        "dup.edges": ("#nodes=4\n0\t1\n0\t1\n", "duplicate"),
        "malformed.edges": ("#nodes=4\n0 1\n", "malformed"),
        "order.edges": ("#nodes=4\n2\t1\n", "i < j"),
        "range.edges": ("#nodes=2\n0\t5\n", "outside"),
        "huge.edges": ("#nodes=2\n0\t99999999999999999999\n", "^line 2: malformed edge line"),
        "empty.edges": ("", "^empty edge list without a #nodes header$"),
    }
    for name, (text, message) in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_graph(path)
