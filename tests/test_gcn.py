import numpy as np
import pytest

from gcnbench import gcn
from gcnbench.checkpoint import load_checkpoint, save_checkpoint
from gcnbench.dataset import build_label_matrix, full_truth, make_split, synth_blobs
from gcnbench.gcn import (
    ForwardCache,
    GcnModel,
    Hyperparams,
    backward,
    forward,
    init_model,
    log_softmax,
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
    ([0.5], 12, "labeled must be 1-D integer row indices, got 1-D float64"),
    ([[0, 1]], 12, "labeled must be 1-D integer row indices, got 2-D int64"),
    ([True, False], 12, "labeled must be 1-D integer row indices, got 1-D bool"),
    ([3, -1], 12, "labeled index -1 outside 0..11"),
    ([0, 12], 12, "labeled index 12 outside 0..11"),
    ([4, 2, 4, 2], 12, "duplicate labeled index 2"),
    ([0, 1], 11, r"Y must be 12x3, got \(11, 3\)"),
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
    epochs = 6
    train(model, S, ds.X, Y, split.labeled, Hyperparams(epochs=epochs))
    # the rows of S at L and at N1, each cut once per run
    assert len(cuts) == 2
    assert np.array_equal(cuts[0].rows, split.labeled)
    # N1's cut is cut once more, to the entries the layer-1 gradient reads, on the same rows
    assert len(entry_cuts) == 1 and entry_cuts[0][0] is cuts[1]
    S_N1 = entry_cuts[0][1]
    assert np.array_equal(S_N1.rows, cuts[1].rows)
    # S @ X is full; every product after it runs on L's cut or on N1's entry cut, the first
    # epoch's too: the loss on L, then each epoch the layer-1 gradient on N1 and the loss
    assert products[0][0] is S and products[0][1]
    assert len(products) == 2 * epochs + 2
    assert not any(features for _, features in products[1:])
    assert [P for P, _ in products[1:]] == [cuts[0]] + [S_N1, cuts[0]] * epochs


@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("graph", ["full", "knn"])
def test_train_sums_an_n1_row_with_at_most_two_labeled_entries_over_those_alone(
        monkeypatch, graph, weight_decay):
    ds, S, split, Y, model = small_instance(18, n=40, labeled=9)
    if graph == "full":  # every row touches all 9 labeled rows, so every row stays whole
        S = normalize(full_graph(ds.n))
    entry_cuts = []
    original_take_entries = PropagationMatrix.take_entries

    def recording_take_entries(self, keep):
        entry_cuts.append((self, original_take_entries(self, keep)))
        return entry_cuts[-1][1]

    monkeypatch.setattr(PropagationMatrix, "take_entries", recording_take_entries)
    hp = Hyperparams(lr=0.2, epochs=25, weight_decay=weight_decay)
    trained, trace = train(model, S, ds.X, Y, split.labeled, hp)
    expected, expected_trace = train_oracle(model, S, ds.X, Y, split.labeled, hp)
    assert np.array_equal(trained.theta1, expected.theta1)
    assert np.array_equal(trained.theta2, expected.theta2)
    assert trace == expected_trace
    [(rows_cut, entry_cut)] = entry_cuts
    whole, kept = np.diff(rows_cut.indptr), np.diff(entry_cut.indptr)
    hits = np.add.reduceat(np.isin(rows_cut.indices, split.labeled).astype(np.int64),
                           rows_cut.indptr[:-1])
    assert np.array_equal(kept, np.where(hits <= 2, hits, whole))
    assert (hits > 2).any()
    if graph == "full":
        assert np.array_equal(kept, whole)
    else:
        assert set(kept[kept < whole]) == {1, 2}


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


def test_log_softmax_handles_underflowing_rows():
    a = np.array([[0.0, -2000.0]])
    lz = log_softmax(a)
    assert np.isfinite(lz[0, 1]) and lz[0, 1] == pytest.approx(-2000.0, abs=1e-9)


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


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(lr=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(epochs=-1)
    with pytest.raises(ValueError):
        Hyperparams(hidden=0)
    with pytest.raises(ValueError):
        Hyperparams(weight_decay=-1e-3)
