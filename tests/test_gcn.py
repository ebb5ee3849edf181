import json
import re

import numpy as np
import pytest

from gcnbench import gcn, graph
from gcnbench.checkpoint import load_checkpoint, save_checkpoint
from gcnbench.dataset import build_label_matrix, full_truth, make_split, synth_blobs
from gcnbench.gcn import (
    ForwardCache,
    GcnModel,
    Hyperparams,
    backward,
    forward,
    init_model,
    loss,
    predict,
    relu,
    softmax,
    train,
)
from gcnbench.graph import PropagationMatrix, SparseAdjacency, full_graph, knn_graph, normalize
from gcnbench.harness import accuracy
from oracles import assert_gradients_match, fd_gcn_gradients, forward_oracle_dense, train_oracle


def small_instance(seed, n=12, L1=7, L2=5, C=3, labeled=4):
    ds = synth_blobs(n=n, d=L1, C=C, sep=2.0, seed=seed)
    S = normalize(knn_graph(ds, k=min(5, n - 1)))
    split = make_split(ds, labeled, seed=seed + 1, stratified=False)
    Y = build_label_matrix(ds, split)
    model = init_model(L1, L2, C, seed=seed + 2)
    return ds, S, split, Y, model


def test_init_model_respects_glorot_bound():
    model = init_model(20, 8, 4, seed=0)
    assert np.abs(model.theta1).max() <= np.sqrt(6.0 / 28)
    assert np.abs(model.theta2).max() <= np.sqrt(6.0 / 12)


def test_init_model_seed_determinism():
    a = init_model(6, 4, 3, seed=5)
    b = init_model(6, 4, 3, seed=5)
    assert np.array_equal(a.theta1, b.theta1) and np.array_equal(a.theta2, b.theta2)
    c = init_model(6, 4, 3, seed=6)
    assert not np.array_equal(a.theta1, c.theta1)


def test_relu_cases():
    assert relu(-3.0) == 0.0
    assert relu(5.0) == 5.0
    assert relu(0.0) == 0.0
    assert np.array_equal(relu(np.array([-1.0, 0.0, 2.5])), [0.0, 0.0, 2.5])


def test_softmax_symmetry_and_shift_invariance():
    assert np.array_equal(softmax([0.0, 0.0]), [0.5, 0.5])
    rng = np.random.default_rng(0)
    z = rng.standard_normal(6)
    assert np.abs(softmax(z + 17.3) - softmax(z)).max() <= 1e-15


def test_softmax_extreme_logits_match_extended_precision():
    z = np.array([1000.0, 0.0])
    got = softmax(z)
    assert np.isfinite(got).all()
    # extended-precision oracle: longdouble arithmetic, rounded back to float64
    ld = np.exp(np.longdouble(z) - np.longdouble(z).max())
    expected = (ld / ld.sum()).astype(np.float64)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("z, kind", [
    (np.array([[1 + 2j, 0]]), "complex128"),  # once a ComplexWarning, and the imaginary part lost
    ([["1", "2"]], "str"),  # once parsed as the numbers 1 and 2
    ([[True, 0.5]], "bool"),
    ([[None, 0.5]], "NoneType"),
    (np.array([[0.5, False]], dtype=object), "bool"),
    ([1.0, "2"], "str"),
], ids=["complex", "string", "bool", "none", "object-bool", "1d-string"])
def test_softmax_rejects_an_entry_that_is_no_real_number(z, kind):
    with pytest.raises(ValueError, match=rf"^z must hold real numbers, got {kind}$"):
        softmax(z)


@pytest.mark.parametrize("z", [[[0.0, np.nan]], [[0.0, 1.0], [np.inf, 0.0]], [[[0.0], [-np.inf]]]])
def test_softmax_rejects_a_non_finite_entry_of_any_shape(z):
    with pytest.raises(ValueError, match=rf"^z row {len(z) - 1}: non-finite value$"):
        softmax(z)


def test_softmax_reads_any_shape():
    z = np.arange(24.0).reshape(2, 3, 4)
    assert np.array_equal(softmax(z), softmax(z.tolist()))
    assert np.array_equal(softmax(z, axis=0)[:, 1, 2], softmax(z[:, 1, 2]))
    assert softmax([[7]]).tolist() == [[1.0]]


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    z = rng.uniform(-700.0, 700.0, size=(50, 9))
    assert np.abs(softmax(z).sum(axis=1) - 1.0).max() <= 1e-12


def test_forward_on_isolated_node_is_graph_free_network():
    S = normalize(SparseAdjacency(n=1, edges=np.empty((0, 2), dtype=np.int64)))
    model = init_model(4, 3, 2, seed=0)
    x = np.array([[0.5, -1.0, 2.0, 0.25]])
    cache = forward(model, S, x)
    direct = softmax(relu(x @ model.theta1) @ model.theta2)
    assert np.abs(cache.Z - direct).max() <= 1e-15


def test_forward_zero_theta2_gives_uniform_rows():
    ds, S, split, Y, model = small_instance(0)
    model = GcnModel(theta1=model.theta1, theta2=np.zeros_like(model.theta2))
    cache = forward(model, S, ds.X)
    assert np.array_equal(cache.Z, np.full_like(cache.Z, 1.0 / 3.0))


def test_forward_matches_dense_oracle():
    ds, S, split, Y, model = small_instance(3)
    cache = forward(model, S, ds.X)
    oracle = forward_oracle_dense(S.to_dense(), ds.X, model.theta1, model.theta2)
    assert np.abs(cache.Z - oracle).max() <= 1e-12


def test_forward_shape_mismatch():
    ds, S, split, Y, model = small_instance(1)
    with pytest.raises(ValueError):
        forward(model, S, ds.X[:, :3])


def test_loss_uniform_prediction_closed_form():
    ds, S, split, Y, model = small_instance(2)
    model = GcnModel(theta1=model.theta1, theta2=np.zeros_like(model.theta2))
    cache = forward(model, S, ds.X)
    assert abs(loss(cache, Y, split.labeled) - 4 * np.log(3.0)) <= 1e-12


def test_loss_empty_labeled_set():
    ds, S, split, Y, model = small_instance(4)
    cache = forward(model, S, ds.X)
    assert loss(cache, Y, np.array([], dtype=np.int64)) == 0.0
    grads = backward(model, S, ds.X, cache, Y, np.array([], dtype=np.int64))
    assert np.array_equal(grads.g_theta1, np.zeros_like(model.theta1))
    assert np.array_equal(grads.g_theta2, np.zeros_like(model.theta2))


@pytest.mark.parametrize("labeled, rows, message", [
    ([0.5], 12, "labeled must hold integers, got float"),
    ([[0, 1]], 12, r"labeled must have shape \(any,\), got \(1, 2\)"),
    ([True, False], 12, "labeled must hold integers, got bool"),
    ([3, -1], 12, "labeled holds -1, outside 0..11"),
    ([0, 12], 12, "labeled holds 12, outside 0..11"),
    ([4, 2, 4, 2], 12, "duplicate labeled index 2"),
    ([0, 1], 11, r"Y must have shape \(12, 3\), got \(11, 3\)"),
], ids=["float", "2-d", "bool", "negative", "past-n", "duplicate", "y-shape"])
@pytest.mark.parametrize("call", ["train", "loss", "backward"])
def test_malformed_labeled_indices_or_targets_are_named_errors(call, labeled, rows, message):
    # each would otherwise truncate, wrap around, count a row twice or fail inside NumPy
    ds, S, split, Y, model = small_instance(5)
    cache = forward(model, S, ds.X)
    run = {"train": lambda: train(model, S, ds.X, Y[:rows], labeled, Hyperparams(epochs=2)),
           "loss": lambda: loss(cache, Y[:rows], labeled),
           "backward": lambda: backward(model, S, ds.X, cache, Y[:rows], labeled)}[call]
    with pytest.raises(ValueError, match=f"^{message}$"):
        run()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", ["train", "loss", "backward"])
def test_non_finite_targets_are_named_errors(call, bad):
    # they once read as a diverged fit at epoch 0, or as a NaN loss or gradient
    ds, S, split, Y, model = small_instance(5)
    cache = forward(model, S, ds.X)
    Y = Y.copy()
    Y[split.labeled[0], 0] = bad
    run = {"train": lambda: train(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=2)),
           "loss": lambda: loss(cache, Y, split.labeled),
           "backward": lambda: backward(model, S, ds.X, cache, Y, split.labeled)}[call]
    with pytest.raises(ValueError, match=f"^Y row {split.labeled[0]}: non-finite value$"):
        run()


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", ["train", "forward"])
def test_non_finite_features_are_named_errors(call, bad):
    ds, S, split, Y, model = small_instance(5)
    X = ds.X.copy()
    X[3, 1] = bad
    run = {"train": lambda: train(model, S, X, Y, split.labeled, Hyperparams(epochs=2)),
           "forward": lambda: forward(model, S, X)}[call]
    with pytest.raises(ValueError, match="^X row 3: non-finite value$"):
        run()


def test_train_checks_the_labeled_set_once_per_call(monkeypatch):
    ds, S, split, Y, model = small_instance(6)
    checks = []
    check = gcn._targets
    monkeypatch.setattr(gcn, "_targets", lambda *args: checks.append(1) or check(*args))
    train(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=5))
    assert len(checks) == 1


def test_loss_perfect_fit_approaches_zero():
    A2 = np.array([[800.0, 0.0, 0.0], [0.0, 800.0, 0.0]])
    cache = ForwardCache(A1=A2, H1=A2, A2=A2, Z=softmax(A2), SX=A2, SH1=A2)
    Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert 0.0 <= loss(cache, Y, [0, 1]) <= 1e-12


def test_loss_positive_for_finite_parameters():
    for seed in range(5):
        ds, S, split, Y, model = small_instance(seed + 20)
        assert loss(forward(model, S, ds.X), Y, split.labeled) > 0.0


def test_backward_matches_finite_differences():
    ds, S, split, Y, model = small_instance(7)
    cache = forward(model, S, ds.X)
    grads = backward(model, S, ds.X, cache, Y, split.labeled)
    fd1, fd2 = fd_gcn_gradients(model, S, ds.X, Y, split.labeled)
    assert_gradients_match(grads.g_theta1, fd1)
    assert_gradients_match(grads.g_theta2, fd2)


def test_backward_weight_decay_term():
    ds, S, split, Y, model = small_instance(8)
    cache = forward(model, S, ds.X)
    plain = backward(model, S, ds.X, cache, Y, split.labeled)
    decayed = backward(model, S, ds.X, cache, Y, split.labeled, weight_decay=0.3)
    assert np.abs(decayed.g_theta1 - plain.g_theta1 - 0.3 * model.theta1).max() <= 1e-15
    assert np.abs(decayed.g_theta2 - plain.g_theta2 - 0.3 * model.theta2).max() <= 1e-15
    # each once gave the undecayed gradient, as weight_decay=0 does
    for bad, message in ((-1.0, "must be >= 0, got -1.0"), (np.nan, "must be a finite number, got nan"),
                         (True, "must be a finite number, got True")):
        with pytest.raises(ValueError, match=f"^weight_decay {message}$"):
            backward(model, S, ds.X, cache, Y, split.labeled, weight_decay=bad)


def test_backward_zero_theta2_kills_theta1_gradient():
    ds, S, split, Y, model = small_instance(9)
    model = GcnModel(theta1=model.theta1, theta2=np.zeros_like(model.theta2))
    cache = forward(model, S, ds.X)
    grads = backward(model, S, ds.X, cache, Y, split.labeled)
    assert np.array_equal(grads.g_theta1, np.zeros_like(model.theta1))
    assert np.abs(grads.g_theta2).max() > 0.0


def test_backward_rejects_stale_cache():
    ds, S, split, Y, model = small_instance(10)
    other = init_model(7, 9, 3, seed=0)  # different hidden width
    cache = forward(model, S, ds.X)
    with pytest.raises(ValueError):
        backward(other, S, ds.X, cache, Y, split.labeled)


def test_train_lr_zero_is_identity():
    ds, S, split, Y, model = small_instance(11)
    trained, trace = train(model, S, ds.X, Y, split.labeled, Hyperparams(lr=0.0, epochs=5))
    assert np.array_equal(trained.theta1, model.theta1)
    assert np.array_equal(trained.theta2, model.theta2)
    assert trace == [trace[0]] * 6


def _counted_step(calls, step):
    """_Epoch's method ``step``, appending its name to ``calls`` at each call."""
    original = getattr(gcn._Epoch, step)

    def counted(self, *args):
        calls.append(step)
        return original(self, *args)
    return counted


@pytest.mark.parametrize("epochs", [0, 1, 4])
def test_train_computes_no_gradient_after_its_last_step(monkeypatch, epochs):
    ds, S, split, Y, model = small_instance(12)
    calls = []
    for step in ("value", "gradients"):
        monkeypatch.setattr(gcn._Epoch, step, _counted_step(calls, step))
    _, trace = train(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=epochs))
    # a value every epoch, the initial one included, and gradients only before a step
    assert len(trace) == epochs + 1
    assert calls == ["value"] + ["gradients", "value"] * epochs


def test_descend_asks_for_gradients_only_before_a_step():
    asked = []

    def objective(params):
        return float(params[0].sum()), lambda: asked.append(1) or (np.ones(2),)

    for epochs in (0, 3):
        params, trace = gcn._descend((np.zeros(2),), objective, Hyperparams(lr=0.5, epochs=epochs))
        assert len(asked) == epochs and trace == [0.0, -1.0, -2.0, -3.0][:epochs + 1]
        assert np.array_equal(params[0], np.full(2, -0.5 * epochs))
        asked.clear()


def test_train_zero_epochs():
    ds, S, split, Y, model = small_instance(12)
    trained, trace = train(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=0))
    assert len(trace) == 1
    assert np.array_equal(trained.theta1, model.theta1)


def test_train_does_not_mutate_input_model():
    ds, S, split, Y, model = small_instance(13)
    before = model.theta1.copy()
    train(model, S, ds.X, Y, split.labeled, Hyperparams(lr=0.1, epochs=3))
    assert np.array_equal(model.theta1, before)


def test_train_monotone_on_separated_blobs():
    ds = synth_blobs(n=300, d=8, C=3, sep=6.0, seed=0)
    S = normalize(knn_graph(ds, k=5))
    split = make_split(ds, 9, seed=1, stratified=True)
    Y = build_label_matrix(ds, split)
    model = init_model(ds.L1, 16, ds.C, seed=2)
    trained, trace = train(model, S, ds.X, Y, split.labeled, Hyperparams(lr=0.2, epochs=200))
    assert len(trace) == 201
    assert max(np.diff(trace)) <= 1e-9
    truth = full_truth(ds)
    pred = predict(forward(trained, S, ds.X))
    assert accuracy(pred[split.unlabeled], truth[split.unlabeled]) >= 95.0


def test_train_divergence_guard():
    ds, S, split, Y, model = small_instance(14)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged"):
        train(model, S, ds.X, Y, split.labeled, Hyperparams(lr=1e30, epochs=50))


def test_train_divergence_guard_names_the_epoch_of_non_finite_parameters():
    ds, S, split, Y, model = small_instance(14)
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match="^training diverged: non-finite parameters at epoch 1$"):
        train(model, S, ds.X * 1e200, Y, split.labeled, Hyperparams(lr=1e200, epochs=5))


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_train_is_bit_identical_to_the_per_epoch_forward_loop(weight_decay):
    ds, S, split, Y, model = small_instance(18, n=40, labeled=9)
    hp = Hyperparams(lr=0.2, epochs=25, weight_decay=weight_decay)
    trained, trace = train(model, S, ds.X, Y, split.labeled, hp)
    expected, expected_trace = train_oracle(model, S, ds.X, Y, split.labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace


def test_train_propagates_the_features_once(monkeypatch):
    ds, S, split, Y, model = small_instance(19)
    products, cuts, entry_cuts = [], [], []
    original_matmul, original_take_rows = PropagationMatrix.matmul, PropagationMatrix.take_rows
    original_take_entries = PropagationMatrix.take_entries

    def counting_matmul(self, M):
        products.append((self, M is ds.X))
        return original_matmul(self, M)

    def counting_take_rows(self, rows):
        cuts.append(original_take_rows(self, rows))
        return cuts[-1]

    def counting_take_entries(self, keep):
        entry_cuts.append((self, original_take_entries(self, keep)))
        return entry_cuts[-1][1]

    monkeypatch.setattr(PropagationMatrix, "matmul", counting_matmul)
    monkeypatch.setattr(PropagationMatrix, "take_rows", counting_take_rows)
    monkeypatch.setattr(PropagationMatrix, "take_entries", counting_take_entries)
    for epochs in (1, 6):
        for record in (products, cuts, entry_cuts):
            record.clear()
        train(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=epochs))
        # S @ X, once per run, is the one product through matmul: the epochs sum their cuts'
        # gathered rows themselves, and no product on X follows
        assert products == [(S, True)]
        # the rows of S at L and at N1, each cut once per run, whatever the epoch count
        assert len(cuts) == 4
        assert np.array_equal(cuts[0].rows, split.labeled)
        assert np.array_equal(cuts[1].rows, np.unique(cuts[0].indices))
        # N1's cut is cut once more, to the entries the layer-1 gradient reads; its rows are
        # then put in the order one-entry, two-entry, whole, and the whole rows cut apart
        assert len(entry_cuts) == 1 and entry_cuts[0][0] is cuts[1]
        S_N1 = entry_cuts[0][1]
        assert np.array_equal(np.sort(cuts[2].rows), S_N1.rows)
        kept = np.minimum(np.diff(cuts[2].indptr), 3)
        assert np.array_equal(kept, np.sort(kept))
        assert np.array_equal(cuts[3].rows, cuts[2].rows[kept == 3])


def n1_case(case):
    """(ds, S, labeled, Y, model, epochs) whose N1 entry cut has the named shape; "kblocks"
    has 1000 rows of 64 columns, whose layer-1 gradient BLAS sums in more than one K-block."""
    if case in ("wide", "kblocks"):
        n, d, epochs = (400, 32, 60) if case == "wide" else (1000, 64, 20)
        ds = synth_blobs(n=n, d=d, C=5, sep=2.0, seed=20)
        split = make_split(ds, 40, seed=21)
        model = init_model(d, 16, 5, seed=22)
        return ds, normalize(knn_graph(ds, k=8)), split.labeled, build_label_matrix(ds, split), \
            model, epochs
    ds, S, split, Y, model = small_instance(18, n=40, labeled=9)
    labeled = split.labeled
    if case == "full":  # every row touches all 9 labeled rows, so every row stays whole
        S = normalize(full_graph(ds.n))
    elif case == "one":
        labeled = split.labeled[:1]
    elif case == "pairs":  # two neighbours of row 0: it keeps both entries, and no row has three
        labeled = [j for j in S.indices[S.indptr[0]:S.indptr[1]] if j != 0][:2]
    elif case == "empty":
        labeled = []
    # Y's other rows are never read
    return ds, S, labeled, np.eye(ds.C)[full_truth(ds)], model, 25


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("case", ["knn", "full", "one", "pairs", "empty", "wide", "blocks"])
def test_train_sums_an_n1_row_with_at_most_two_labeled_entries_over_those_alone(
        monkeypatch, case, weight_decay):
    ds, S, labeled, Y, model, epochs = n1_case(case)
    hp = Hyperparams(lr=0.2, epochs=epochs, weight_decay=weight_decay)
    if case == "blocks":  # the knn case with one row per block of every cut's sum
        monkeypatch.setattr(graph, "MATMUL_BLOCK_BYTES", 1)
        assert len(list(S.take_rows(labeled).row_blocks(model.dims[1]))) == len(labeled)
    entry_cuts = []
    original_take_entries = PropagationMatrix.take_entries

    def recording_take_entries(self, keep):
        entry_cuts.append((self, original_take_entries(self, keep)))
        return entry_cuts[-1][1]

    monkeypatch.setattr(PropagationMatrix, "take_entries", recording_take_entries)
    trained, trace = train(model, S, ds.X, Y, labeled, hp)
    expected, expected_trace = train_oracle(model, S, ds.X, Y, labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace
    [(rows_cut, entry_cut)] = entry_cuts
    whole, kept = np.diff(rows_cut.indptr), np.diff(entry_cut.indptr)
    hits = np.add.reduceat(np.isin(rows_cut.indices, labeled).astype(np.int64),
                           rows_cut.indptr[:-1])
    assert np.array_equal(kept, np.where(hits <= 2, hits, whole))
    # the fit reaches the shape its case is for
    if case == "one":
        assert len(kept) > 1 and (kept == 1).all()
    elif case == "pairs":
        assert (kept == 2).any() and (hits <= 2).all()
    elif case == "full":
        assert (hits > 2).all()
    elif case == "empty":
        assert len(kept) == 0
        if not weight_decay:
            assert trace == [0.0] * (epochs + 1)
    else:
        assert (hits > 2).any() and set(kept[kept < whole]) == {1, 2}


class _MatmulRecorder:
    """NumPy as gcn sees it, with every np.matmul call's operand shapes recorded."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.shapes.append((a.shape, b.shape))
        return np.matmul(a, b, **kwargs)


def _cut_form(model, M, W, blocks):
    """The cut whose check _Epoch makes with these operands: "layer-1" (SX @ theta1 on N1),
    "layer-1-gradient" (SX^T @ G1 over N1) or "layer-2" (SH1 @ theta2 and G2 @ theta2^T on
    L, and SH1^T @ G2 over L), for a model whose three widths differ."""
    d, h, C = model.dims
    assert len({d, h, C}) == 3
    if blocks is None and W.shape == (d, h):
        return "layer-1"
    return "layer-1-gradient" if blocks is not None and M.shape[1] == d else "layer-2"


def _isolated(ds, node):
    """The propagation matrix of ds's 5-NN graph with ``node``'s edges removed."""
    edges = knn_graph(ds, k=5).edges
    return normalize(SparseAdjacency(ds.n, edges[(edges != node).all(axis=1)]))


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("case", ["knn", "wide", "one", "empty", "full", "isolated"])
@pytest.mark.parametrize("branch", ["checked", "full-product"])
def test_train_computes_layer_1_on_n1_alone_where_the_check_shows_the_full_products_bits(
        monkeypatch, branch, case, weight_decay):
    if case == "isolated":
        # L is one node without neighbours, so N1 is that one row, a GEMV shape where no
        # cut is taken
        ds, S, labeled, Y, model, epochs = n1_case("one")
        S = _isolated(ds, labeled[0])
    else:
        ds, S, labeled, Y, model, epochs = n1_case(case)
    hp = Hyperparams(lr=0.2, epochs=epochs, weight_decay=weight_decay)
    N1 = np.unique(S.take_rows(labeled).indices)
    SX = S.matmul(ds.X)
    if case in ("knn", "wide", "one", "empty"):
        # shapes where the check passes, so that forcing the full product changes the path
        assert gcn._rows_product_matches(SX, N1, model.theta1.copy())
    check, results = gcn._rows_product_matches, []

    def recording_check(M, rows, W, blocks=None, pad=0):
        # layer 1's check, picked out by its operands, takes the full-product branch through
        # the check's one seam; the other cuts' checks run as they are
        if _cut_form(model, M, W, blocks) != "layer-1":
            return check(M, rows, W, blocks, pad)
        results.append(branch == "checked" and check(M, rows, W))
        return results[-1]

    monkeypatch.setattr(gcn, "_rows_product_matches", recording_check)
    recorder = _MatmulRecorder()
    monkeypatch.setattr(gcn, "np", recorder)
    trained, trace = train(model, S, ds.X, Y, labeled, hp)
    monkeypatch.undo()
    expected, expected_trace = train_oracle(model, S, ds.X, Y, labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace
    if case == "full":  # N1 is every row: no check, and no copy of SX
        assert len(N1) == S.n and results == []
    else:  # one check per fit
        assert len(results) == 1
    # every epoch's layer-1 product, the last epochs + 1 products by theta1, has N1's rows
    # where the check passed and all n where it did not
    rows = len(N1) if results and results[0] else S.n
    layer_1 = [a[0] for a, b in recorder.shapes if b == model.theta1.shape]
    assert layer_1[-(epochs + 1):] == [rows] * (epochs + 1)
    assert len(layer_1) == epochs + 1 + 2 * (branch == "checked" and case not in ("full", "isolated"))
    if branch == "checked" and case != "isolated":
        assert rows == len(N1)


def _cut_rows(epoch):
    """The rows each cut of an _Epoch runs on: N1's, L's padded, or all n."""
    return {"layer-1": len(epoch.SX1), "layer-1-gradient": len(epoch.G1), "layer-2": len(epoch.SH1)}


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("case", ["knn", "wide", "kblocks"])
@pytest.mark.parametrize("form", ["layer-1", "layer-1-gradient", "layer-2"])
@pytest.mark.parametrize("branch", ["checked", "full-product"])
def test_each_cut_and_the_full_product_in_its_place_give_the_full_graph_steps(
        monkeypatch, branch, form, case, weight_decay):
    ds, S, labeled, Y, model, epochs = n1_case(case)
    hp = Hyperparams(lr=0.2, epochs=epochs, weight_decay=weight_decay)
    check, results, first_blocks = gcn._rows_product_matches, [], {}

    def forcing_check(M, rows, W, blocks=None, pad=0):
        # the named cut takes the full-product branch through the check's one seam
        named = _cut_form(model, M, W, blocks)
        if blocks is not None:
            first_blocks.setdefault(named, blocks)
        passed = (branch == "checked" or named != form) and check(M, rows, W, blocks, pad)
        results.append((named, blocks is not None, passed))
        return passed

    monkeypatch.setattr(gcn, "_rows_product_matches", forcing_check)
    trained, trace = train(model, S, ds.X, Y, labeled, hp)
    epoch = gcn._Epoch(model, S, S.matmul(ds.X), *gcn._targets(Y, labeled, S.n, ds.C), weight_decay)
    monkeypatch.undo()
    expected, expected_trace = train_oracle(model, S, ds.X, Y, labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace
    # the fit and the epoch built alike made the same checks, and each cut runs on its own
    # rows where a check of its form passed, and on all n where none did
    results, again = results[:len(results) // 2], results[len(results) // 2:]
    assert results == again
    l, N1 = len(labeled), len(np.unique(S.take_rows(labeled).indices))
    cut = {"layer-1": N1, "layer-1-gradient": N1, "layer-2": l + -l % 4}
    def passed(named, sums):
        return [ok for name, contraction, ok in results if name == named and contraction == sums]

    # layer 2's one cut of three products is taken where both row products and one
    # candidate of the contraction pass
    taken = {"layer-1": any(passed("layer-1", False)),
             "layer-1-gradient": any(passed("layer-1-gradient", True)),
             "layer-2": all(passed("layer-2", False)) and any(passed("layer-2", True))}
    for named, rows in _cut_rows(epoch).items():
        assert rows == (cut[named] if taken[named] else S.n)
        if branch == "full-product" and named == form:
            assert rows == S.n
    if case == "kblocks":
        # the layer-1 gradient's first candidate is N1 split where BLAS splits 1000 rows
        N1_rows = np.unique(S.take_rows(labeled).indices)
        at = np.searchsorted(N1_rows, [0, 384, 704, 1000]).tolist()
        assert first_blocks["layer-1-gradient"] == [slice(a, b) for a, b in zip(at, at[1:])]
        assert len(first_blocks["layer-1-gradient"]) == 3


@pytest.mark.parametrize("n, bounds", [
    (2000, [0, 384, 768, 1152, 1536, 1776, 2000]),
    (1000, [0, 384, 704, 1000]),
    (768, [0, 384, 768]),
    (384, [0, 384]),
    (100, [0, 100]),
    (1, [0, 1]),
])
def test_k_blocks_are_the_openblas_level_3_drivers(n, bounds):
    assert gcn._k_blocks(n) == bounds


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("case", ["one", "hidden-1"])
def test_no_cut_is_taken_at_one_labeled_row_or_a_hidden_width_of_1(case, weight_decay):
    ds, S, labeled, Y, model, epochs = n1_case("one")
    if case == "one":  # one labeled row without neighbours: every cut has one row
        S = _isolated(ds, labeled[0])
    else:
        model = init_model(ds.X.shape[1], 1, ds.C, seed=3)
    epoch = gcn._Epoch(model, S, S.matmul(ds.X), *gcn._targets(Y, labeled, S.n, ds.C), weight_decay)
    assert _cut_rows(epoch) == dict.fromkeys(_cut_rows(epoch), S.n)
    hp = Hyperparams(lr=0.2, epochs=epochs, weight_decay=weight_decay)
    trained, trace = train(model, S, ds.X, Y, labeled, hp)
    expected, expected_trace = train_oracle(model, S, ds.X, Y, labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("branch", ["checked", "full-product"])
def test_an_epochs_steps_at_the_initial_parameters_are_forward_and_backward(
        monkeypatch, branch, weight_decay):
    ds, S, labeled, Y, model, _ = n1_case("knn")
    SX = S.matmul(ds.X)
    N1 = np.unique(S.take_rows(labeled).indices)
    # a shape where the check passes, so that forcing the full product changes the path
    assert len(N1) < S.n and gcn._rows_product_matches(SX, N1, model.theta1.copy())
    check = gcn._rows_product_matches
    monkeypatch.setattr(gcn, "_rows_product_matches",
                        lambda *args, **kwargs: branch == "checked" and check(*args, **kwargs))
    epoch = gcn._Epoch(model, S, SX, *gcn._targets(Y, labeled, S.n, ds.C), weight_decay)
    assert len(epoch.SX1) == (len(N1) if branch == "checked" else S.n)
    value, gradients = epoch.value((model.theta1.copy(), model.theta2.copy()))
    hp = Hyperparams(epochs=0, weight_decay=weight_decay)
    assert [value] == train_oracle(model, S, ds.X, Y, labeled, hp)[1]
    g_theta1, g_theta2 = gradients()
    expected = backward(model, S, ds.X, forward(model, S, ds.X), Y, labeled, weight_decay)
    assert np.array_equal(g_theta1, expected.g_theta1)
    assert np.array_equal(g_theta2, expected.g_theta2)


def test_train_diverges_at_the_epoch_of_full_graph_steps():
    # the summed loss on 180 of 200 rows is too steep for the default lr
    ds = synth_blobs(n=200, d=8, C=3, sep=6.0, seed=0)
    S = normalize(knn_graph(ds, k=5, metric="cosine"))
    split = make_split(ds, 180, seed=1)
    Y = build_label_matrix(ds, split)
    model = init_model(8, 16, 3, seed=2)
    with pytest.raises(ValueError, match=r"^training diverged: non-finite loss at epoch \d+$") as error:
        train(model, S, ds.X, Y, split.labeled, Hyperparams())
    epoch = int(str(error.value).rsplit(" ", 1)[1])
    # forward()/backward() steps reach the same non-finite loss at that epoch, with finite
    # parameters and loss before it
    with np.errstate(all="ignore"):
        _, trace = train_oracle(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=epoch))
    assert np.isfinite(trace[:-1]).all() and not np.isfinite(trace[-1])


def test_train_deterministic():
    ds, S, split, Y, model = small_instance(15)
    hp = Hyperparams(lr=0.2, epochs=20)
    a, trace_a = train(model, S, ds.X, Y, split.labeled, hp)
    b, trace_b = train(model, S, ds.X, Y, split.labeled, hp)
    assert np.array_equal(a.theta1, b.theta1) and np.array_equal(a.theta2, b.theta2)
    assert trace_a == trace_b


def test_predict_cases():
    Z = np.array([[0.1, 0.7, 0.2], [0.5, 0.5, 0.0]])
    cache = ForwardCache(A1=Z, H1=Z, A2=Z, Z=Z, SX=Z, SH1=Z)
    assert predict(cache).tolist() == [1, 0]


def test_predict_matches_logit_argmax():
    rng = np.random.default_rng(3)
    A2 = rng.standard_normal((40, 5)) * 3.0
    cache = ForwardCache(A1=A2, H1=A2, A2=A2, Z=softmax(A2), SX=A2, SH1=A2)
    assert np.array_equal(predict(cache), np.argmax(A2, axis=1))


def test_node_permutation_equivariance():
    ds, S, split, Y, model = small_instance(16, n=20, labeled=5)
    rng = np.random.default_rng(0)
    perm = rng.permutation(20)
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(20)
    A = knn_graph(ds.X, k=5)
    permuted_edges = {(min(inverse[i], inverse[j]), max(inverse[i], inverse[j]))
                      for i, j in A.edge_set()}
    S_perm = normalize(SparseAdjacency(n=20, edges=sorted(permuted_edges)))
    Z = forward(model, S, ds.X).Z
    Z_perm = forward(model, S_perm, ds.X[perm]).Z
    assert np.abs(Z_perm - Z[perm]).max() <= 1e-12


def test_loss_handles_underflowing_rows():
    # softmax([0, -1e4]) underflows to [1, 0], yet the loss of label 1 is log(1 + e^-1e4) + 1e4,
    # exactly 1e4 in float64, and finite: no log of the underflowed 0
    A2 = np.array([[0.0, -1e4], [3.0, 3.0]])
    cache = gcn.ForwardCache(A1=A2, H1=A2, A2=A2, Z=softmax(A2), SX=A2, SH1=A2)
    assert softmax(A2)[0, 1] == 0.0
    assert loss(cache, np.array([[0.0, 1.0], [1.0, 0.0]]), [0]) == 1e4
    value, G = gcn._cross_entropy(A2[:1], np.array([[0.0, 1.0]]))
    assert value == 1e4 and np.array_equal(G, [[1.0, -1.0]])


def test_gcn_checkpoint_round_trip(tmp_path):
    ds, S, split, Y, model = small_instance(17)
    hp = Hyperparams(lr=0.15, epochs=7, seed=17, hidden=5, weight_decay=0.001)
    trained, _ = train(model, S, ds.X, Y, split.labeled, hp)
    path = tmp_path / "model.json"
    save_checkpoint(trained, path, hyperparams=hp)
    loaded, meta = load_checkpoint(path)
    assert np.array_equal(loaded.theta1, trained.theta1)
    assert np.array_equal(loaded.theta2, trained.theta2)
    assert meta["kind"] == "gcn" and meta["hyperparams"]["lr"] == 0.15
    second = tmp_path / "model2.json"
    save_checkpoint(loaded, second, hyperparams=Hyperparams(**meta["hyperparams"]))
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(path)
    save_checkpoint(init_model(3, 2, 2, seed=0), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**payload, "kind": "svm"}), encoding="utf-8")
    with pytest.raises(ValueError, match="^unknown checkpoint kind 'svm'$"):
        load_checkpoint(path)
    with pytest.raises(ValueError, match="^cannot checkpoint dict$"):
        save_checkpoint({"theta1": [[1.0]]}, tmp_path / "dict.json")
    assert not (tmp_path / "dict.json").exists()


@pytest.mark.parametrize("call, message", [
    (lambda: GcnModel(theta1=np.ones(3), theta2=np.ones((3, 2))),
     "theta1 must have shape (any, any), got (3,)"),
    (lambda: GcnModel(theta1=np.ones((3, 4)), theta2=np.ones(4)),
     "theta2 must have shape (4, any), got (4,)"),
    (lambda: GcnModel(theta1=np.ones((3, 4)), theta2=np.ones((5, 2))),
     "theta2 must have shape (4, any), got (5, 2)"),
    (lambda: init_model(3, 0, 2, seed=0), "L2 must be >= 1, got 0"),
    (lambda: init_model(0, 4, 2, seed=0), "L1 must be >= 1, got 0"),
    # NumPy's own "expected non-negative integer" named no input
    (lambda: init_model(3, 4, 2, seed=-1), "seed must be >= 0, got -1"),
    (lambda: knn_graph(np.eye(4), 4), "k must be <= 3, got 4"),
], ids=["theta1-1d", "theta2-1d", "shape-mismatch", "init-no-hidden", "init-no-input",
        "init-negative-seed", "knn-k-is-n"])
def test_model_shapes_name_each_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(lr=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(epochs=-1)
    with pytest.raises(ValueError):
        Hyperparams(hidden=0)
    with pytest.raises(ValueError):
        Hyperparams(weight_decay=-1e-3)
