"""Property tests over the file formats and GCN training.

Every writer is byte-stable (write, read, write again gives the same bytes
and the same values, bit for bit), and every reader turns a damaged file
into a ValueError and never into another exception.  The vectorized
edge-list reader gives the line-by-line parser's graph or message.  Training, which
propagates only the rows the loss and gradients depend on, is bit-identical
to the full-graph oracle loop.  Relabelling the nodes relabels the whole
pipeline: edges, propagation matrix and network output.  The examples are
derandomized, so the suite stays deterministic.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gcnbench.baseline import LogRegModel
from gcnbench.checkpoint import load_checkpoint, save_checkpoint
from gcnbench.dataset import EmbeddingDataset, load_dataset, save_dataset, synth_blobs
from gcnbench.gcn import GcnModel, Hyperparams, forward, init_model, train
from gcnbench.graph import (
    METRICS,
    SparseAdjacency,
    _parse_edge_lines,
    epsilon_graph,
    knn_graph,
    load_graph,
    normalize,
    save_graph,
)
from gcnbench.harness import (
    REPORT_HEADER,
    CellResult,
    EvalReport,
    parse_report_csv,
    predict_nodes,
    render_report,
)
from oracles import train_oracle

# tmp_path is shared by the examples of one test; each example overwrites its files
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def matrices(rows, cols):
    return st.lists(st.lists(FINITE, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def datasets(draw):
    n, d, C = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    id_chars = st.characters(exclude_categories=("Cs",), exclude_characters=",\n\r")
    ids = st.text(id_chars, min_size=1, max_size=6)
    labels = st.lists(st.none() | st.integers(0, C - 1), min_size=n, max_size=n)
    return EmbeddingDataset(ids=draw(st.lists(ids, min_size=n, max_size=n)),
                            X=np.array(draw(matrices(n, d))).reshape(n, d), C=C,
                            truth=draw(st.none() | labels))


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    if n == 1:
        return SparseAdjacency(n=1, edges=[])
    pair = st.integers(0, n - 2).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, n - 1)))
    return SparseAdjacency(n=n, edges=draw(st.lists(pair, unique=True, max_size=20)))


@st.composite
def models(draw):
    din, hidden, C = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return GcnModel(theta1=draw(matrices(din, hidden)), theta2=draw(matrices(hidden, C)))
    return LogRegModel(W=draw(matrices(din, C)), b=draw(st.lists(FINITE, min_size=C, max_size=C)))


HYPERPARAMS = st.none() | st.builds(
    Hyperparams, lr=st.floats(0, 10), epochs=st.integers(0, 1000), seed=st.integers(0, 2 ** 64),
    hidden=st.integers(1, 64), weight_decay=st.floats(0, 1))


@st.composite
def reports(draw):
    names = st.sampled_from(["gcn", "logreg"]) | st.text(
        st.characters(exclude_categories=("Cs",), exclude_characters=",\n"), max_size=5)
    keys = draw(st.lists(st.tuples(names, st.integers(0, 10 ** 6), st.integers(0, 100)),
                         min_size=1, max_size=8, unique=True))
    return EvalReport(rows=[CellResult(model=model, budget=budget, repeat=repeat,
                                       seed=draw(st.integers(0, 2 ** 64 - 1)),
                                       accuracy_pct=draw(st.floats(0, 100)),
                                       wall_ms=draw(st.floats(0, allow_infinity=False)))
                            for model, budget, repeat in keys])


@PROPERTY
@given(report=reports())
def test_report_round_trip(report):
    text = render_report(report, "csv")
    assert text.startswith(REPORT_HEADER + "\n")
    assert render_report(parse_report_csv(text), "csv").encode("utf-8") == text.encode("utf-8")


@st.composite
def training_runs(draw):
    """A model, graph, features, one-hot targets and a label set in any order: none,
    all nodes or a random subset."""
    A = draw(graphs())
    n = A.n
    din, hidden, C = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(2, 4))
    X = np.array(draw(st.lists(st.lists(st.floats(-3, 3), min_size=din, max_size=din),
                               min_size=n, max_size=n)))
    labeled = draw(st.just([]) | st.just(list(range(n)))
                   | st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    Y = np.zeros((n, C))
    Y[labeled, draw(st.lists(st.integers(0, C - 1), min_size=len(labeled),
                             max_size=len(labeled)))] = 1.0
    hp = Hyperparams(lr=draw(st.floats(0.01, 0.5)), epochs=draw(st.integers(0, 8)),
                     weight_decay=draw(st.just(0.0) | st.floats(1e-4, 0.1)))
    model = init_model(din, hidden, C, seed=draw(st.integers(0, 1000)))
    return model, normalize(A), X, Y, np.array(labeled, dtype=np.int64), hp


@PROPERTY
@given(run=training_runs())
def test_train_is_bit_identical_to_the_full_graph_oracle(run):
    model, S, X, Y, labeled, hp = run
    trained, trace = train(model, S, X, Y, labeled, hp)
    expected, expected_trace = train_oracle(model, S, X, Y, labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace


def approximate_distances(X, metric):
    if metric == "euclidean":
        return np.sqrt(((X[:, None] - X[None]) ** 2).sum(axis=2))
    U = X / np.linalg.norm(X, axis=1, keepdims=True)
    return 1.0 - U @ U.T


@PROPERTY
@given(n=st.integers(2, 30), d=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_the_pipeline_is_equivariant_under_node_permutation(n, d, seed, data):
    X = np.random.default_rng(seed).standard_normal((n, d))
    perm = np.array(data.draw(st.permutations(range(n))))
    inverse = np.argsort(perm)  # node i of X is node inverse[i] of X[perm]
    k = data.draw(st.integers(1, n - 1))
    eps = {"euclidean": data.draw(st.floats(0.5, 4.0)), "cosine": data.draw(st.floats(0.05, 1.5))}
    off_diagonal = ~np.eye(n, dtype=bool)
    for metric in METRICS:
        # no ties: the ranks and the eps test do not hang on the last bits of a distance
        D = approximate_distances(X, metric)[off_diagonal].reshape(n, n - 1)
        assume((np.diff(np.sort(D, axis=1), axis=1) > 1e-9).all())
        assume((np.abs(D - eps[metric]) > 1e-9).all())

    def relabelled(A):
        return SparseAdjacency(n=n, edges=np.sort(inverse[A.edges], axis=1)).edges

    for metric in METRICS:
        assert np.array_equal(knn_graph(X[perm], k, metric).edges, relabelled(knn_graph(X, k, metric)))
        assert np.array_equal(epsilon_graph(X[perm], eps[metric], metric).edges,
                              relabelled(epsilon_graph(X, eps[metric], metric)))
    S, S_perm = normalize(knn_graph(X, k)), normalize(knn_graph(X[perm], k))
    assert np.array_equal(S_perm.to_dense(), S.to_dense()[np.ix_(perm, perm)])
    # not bitwise: reduceat sums each row's segment in another column order
    model = init_model(d, 4, 3, seed=data.draw(st.integers(0, 1000)))
    assert np.abs(forward(model, S_perm, X[perm]).Z - forward(model, S, X).Z[perm]).max() <= 1e-12


@PROPERTY
@given(ds=datasets())
def test_csv_round_trip(tmp_path, ds):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    save_dataset(ds, first)
    loaded = load_dataset(first)
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert same_bits(loaded.X, ds.X)
    assert (loaded.ids, loaded.C, loaded.truth) == (ds.ids, ds.C, ds.truth)


@PROPERTY
@given(A=graphs())
def test_edge_list_round_trip(tmp_path, A):
    first, second = tmp_path / "first.edges", tmp_path / "second.edges"
    save_graph(A, first)
    loaded = load_graph(first)
    save_graph(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.n == A.n and np.array_equal(loaded.edges, A.edges)


@PROPERTY
@given(model=models(), hp=HYPERPARAMS)
def test_checkpoint_round_trip(tmp_path, model, hp):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_checkpoint(model, first, hyperparams=hp)
    loaded, meta = load_checkpoint(first)
    saved_hp = meta["hyperparams"]
    save_checkpoint(loaded, second, hyperparams=None if saved_hp is None else Hyperparams(**saved_hp))
    assert first.read_bytes() == second.read_bytes()
    params = ("theta1", "theta2") if isinstance(model, GcnModel) else ("W", "b")
    assert all(same_bits(getattr(loaded, p), getattr(model, p)) for p in params)


# Byte edits biased toward the characters and tokens the readers give meaning to.
TOKENS = [b"", b",", b"\n", b"\r", b"\t", b"#", b"-", b"0", b"1", b"7", b"e", b".", b" ", b"nan",
          b"inf", b"-1", b"99999999999999999999", b"#classes=", b"#nodes=", b"label", b"id",
          b"x", b"\xff", b"{", b"]", b'"', b"null"]
EDITS = st.lists(st.tuples(st.integers(0), st.integers(0, 4),
                           st.sampled_from(TOKENS) | st.binary(max_size=3)), min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    """Apply (position, bytes to delete, bytes to insert) edits, positions taken modulo the length."""
    for pos, cut, insert in edits:
        pos %= len(data) + 1
        data = data[:pos] + insert + data[pos + cut:]
    return data


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    """A partially labeled dataset, its CSV and k-NN edge-list bytes, and its propagation matrix."""
    ds = synth_blobs(n=8, d=3, C=3, sep=4.0, seed=0)
    ds = EmbeddingDataset(ids=ds.ids, X=ds.X, C=ds.C, truth=[None] + ds.truth[1:])
    where = tmp_path_factory.mktemp("sample")
    csv, edges = where / "sample.csv", where / "sample.edges"
    save_dataset(ds, csv)
    A = knn_graph(ds, k=2)
    save_graph(A, edges)
    return ds, csv.read_bytes(), edges.read_bytes(), normalize(A)


@PROPERTY
@given(edits=EDITS)
def test_damaged_csv_fails_only_with_value_error(tmp_path, sample, edits):
    _, csv, _, _ = sample
    path = tmp_path / "damaged.csv"
    path.write_bytes(mutate(csv, edits))
    try:
        ds = load_dataset(path)
    except ValueError:
        return
    again = tmp_path / "again.csv"
    save_dataset(ds, again)
    reread = load_dataset(again)
    assert same_bits(reread.X, ds.X) and (reread.ids, reread.truth) == (ds.ids, ds.truth)


@PROPERTY
@given(edits=EDITS)
def test_damaged_edge_list_fails_only_with_value_error(tmp_path, sample, edits):
    _, _, edges, _ = sample
    path = tmp_path / "damaged.edges"
    path.write_bytes(mutate(edges, edits))
    try:
        load_graph(path)
    except ValueError:
        pass


def parse_outcome(parse, path):
    try:
        A = parse(path)
    except ValueError as exc:
        return str(exc)
    return A.n, A.edges.tolist()


@PROPERTY
@given(edits=EDITS)
def test_damaged_edge_list_reads_as_the_line_parser_reads_it(tmp_path, sample, edits):
    _, _, edges, _ = sample
    path = tmp_path / "damaged.edges"
    path.write_bytes(mutate(edges, edits))
    try:
        text = path.read_text(encoding="utf-8")
    except ValueError:
        return
    assert parse_outcome(load_graph, path) == parse_outcome(lambda _: _parse_edge_lines(text), path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


def slots(node):
    """Every (container, key) pair inside a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from slots(child)


@PROPERTY
@given(kind=st.sampled_from(["gcn", "logreg"]), data=st.data())
def test_damaged_checkpoint_fails_only_with_value_error(tmp_path, sample, kind, data):
    ds, _, _, S = sample
    model = init_model(ds.L1, 4, ds.C, seed=0) if kind == "gcn" else LogRegModel(
        W=np.ones((ds.L1, ds.C)), b=np.zeros(ds.C))
    path = tmp_path / "damaged.json"
    save_checkpoint(model, path, hyperparams=Hyperparams())
    payload = json.loads(path.read_text(encoding="utf-8"))
    container, key = data.draw(st.sampled_from(list(slots(payload))))
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(JSON_VALUES)
    text = json.dumps(payload).encode("utf-8")
    path.write_bytes(mutate(text, data.draw(EDITS)) if data.draw(st.booleans()) else text)
    try:
        predict_nodes(load_checkpoint(path)[0], ds.X, S)
    except ValueError:
        pass
