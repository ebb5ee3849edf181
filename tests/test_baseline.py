import numpy as np
import pytest

from gcnbench.baseline import LOGREG_DEFAULTS, LogRegModel, logreg_loss_grad, predict_logreg, train_logreg
from gcnbench.checkpoint import load_checkpoint, save_checkpoint
from gcnbench.dataset import full_truth, make_split, synth_blobs
from gcnbench.gcn import Hyperparams
from gcnbench.harness import accuracy
from oracles import assert_gradients_match


def test_zero_epochs_gives_zero_model_predicting_class_zero():
    X = np.array([[1.0, 2.0], [3.0, -1.0]])
    model, trace = train_logreg(X, [0, 1], C=3, hp=Hyperparams(lr=0.5, epochs=0))
    assert np.array_equal(model.W, np.zeros((2, 3)))
    assert np.array_equal(model.b, np.zeros(3))
    assert len(trace) == 1
    assert predict_logreg(model, X).tolist() == [0, 0]


def test_single_point_converges_to_its_class():
    x = np.array([[1.5, -0.5, 2.0]])
    model, _ = train_logreg(x, [2], C=3, hp=Hyperparams(lr=0.5, epochs=200))
    logits = x @ model.W + model.b
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert probs[0, 2] > 0.9


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 4))
    y = rng.integers(0, 3, size=9)
    W = rng.standard_normal((4, 3)) * 0.5
    b = rng.standard_normal(3) * 0.5
    _, g_W, g_b = logreg_loss_grad(W, b, X, y, weight_decay=0.01)
    h = 1e-5
    fd_W = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        orig = W[idx]
        W[idx] = orig + h
        up = logreg_loss_grad(W, b, X, y, 0.01)[0]
        W[idx] = orig - h
        down = logreg_loss_grad(W, b, X, y, 0.01)[0]
        W[idx] = orig
        fd_W[idx] = (up - down) / (2 * h)
    fd_b = np.zeros_like(b)
    for j in range(3):
        orig = b[j]
        b[j] = orig + h
        up = logreg_loss_grad(W, b, X, y, 0.01)[0]
        b[j] = orig - h
        down = logreg_loss_grad(W, b, X, y, 0.01)[0]
        b[j] = orig
        fd_b[j] = (up - down) / (2 * h)
    assert_gradients_match(g_W, fd_W)
    assert_gradients_match(g_b, fd_b)


def test_separable_blobs_reach_perfect_training_accuracy():
    ds = synth_blobs(n=40, d=2, C=2, sep=8.0, seed=1)
    truth = full_truth(ds)
    model, _ = train_logreg(ds.X, truth, C=2)
    assert accuracy(predict_logreg(model, ds.X), truth) == 100.0


def test_training_never_reads_unlabeled_rows():
    ds = synth_blobs(n=60, d=3, C=3, sep=4.0, seed=2)
    truth = full_truth(ds)
    split = make_split(ds, 9, seed=0)
    garbage = ds.X.copy()
    garbage[split.unlabeled] = 1e6
    a, _ = train_logreg(ds.X[split.labeled], truth[split.labeled], C=3)
    b, _ = train_logreg(garbage[split.labeled], truth[split.labeled], C=3)
    assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)


def test_loss_trace_non_increasing_at_small_lr():
    ds = synth_blobs(n=30, d=4, C=3, sep=2.0, seed=3)
    truth = full_truth(ds)
    _, trace = train_logreg(ds.X, truth, C=3, hp=Hyperparams(lr=0.05, epochs=300))
    assert max(np.diff(trace)) <= 1e-9


def test_predict_column_shift_invariance():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 3))
    model = LogRegModel(W=rng.standard_normal((3, 4)), b=rng.standard_normal(4))
    shifted = LogRegModel(W=model.W, b=model.b + 9.75)
    assert np.array_equal(predict_logreg(model, X), predict_logreg(shifted, X))


def test_predict_shape_mismatch():
    model = LogRegModel(W=np.zeros((3, 2)), b=np.zeros(2))
    with pytest.raises(ValueError):
        predict_logreg(model, np.zeros((4, 5)))


def test_train_validation_errors():
    with pytest.raises(ValueError):
        train_logreg(np.zeros((0, 2)), [], C=2)
    with pytest.raises(ValueError):
        train_logreg(np.zeros((2, 2)), [0, 3], C=2)
    with pytest.raises(ValueError, match="^1 labels for 2 rows$"):
        train_logreg(np.zeros((2, 2)), [0], C=2)
    with pytest.raises(ValueError, match="^need C >= 2, got 1$"):
        train_logreg(np.zeros((2, 2)), [0, 0], C=1)


def test_default_hyperparameters():
    assert (LOGREG_DEFAULTS.lr, LOGREG_DEFAULTS.epochs, LOGREG_DEFAULTS.weight_decay) == (0.5, 500, 1e-4)


def test_logreg_checkpoint_round_trip(tmp_path):
    ds = synth_blobs(n=25, d=3, C=2, sep=3.0, seed=6)
    model, _ = train_logreg(ds.X, full_truth(ds), C=2)
    path = tmp_path / "logreg.json"
    save_checkpoint(model, path, hyperparams=LOGREG_DEFAULTS)
    loaded, meta = load_checkpoint(path)
    assert meta["kind"] == "logreg"
    assert np.array_equal(loaded.W, model.W) and np.array_equal(loaded.b, model.b)
    second = tmp_path / "logreg2.json"
    save_checkpoint(loaded, second, hyperparams=LOGREG_DEFAULTS)
    assert path.read_bytes() == second.read_bytes()
