import re

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
    # these once gave a loss of -1.307, NaN and the loss of weight_decay=1.0
    for bad, message in ((-1.0, "must be >= 0, got -1.0"), (np.nan, "must be a finite number, got nan"),
                         (True, "must be a finite number, got True")):
        with pytest.raises(ValueError, match=f"^weight_decay {message}$"):
            logreg_loss_grad(np.ones((2, 2)), np.zeros(2), np.eye(2), [0, 1], bad)


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
    with pytest.raises(ValueError, match=r"^y_l must have shape \(2,\), got \(1,\)$"):
        train_logreg(np.zeros((2, 2)), [0], C=2)
    with pytest.raises(ValueError, match="^C must be >= 2, got 1$"):
        train_logreg(np.zeros((2, 2)), [0, 0], C=1)


@pytest.mark.parametrize("y", [[0], [0, 1, 1], [[0, 1]], [[0], [1]]], ids=["short", "long", "row", "column"])
def test_loss_grad_needs_one_class_index_per_row(y):
    # [0] once broadcast against both rows and was divided by l=1
    with pytest.raises(ValueError, match=r"^y must have shape \(2,\), got "):
        logreg_loss_grad(np.zeros((2, 2)), np.zeros(2), np.eye(2), y)


def _stepwise_logreg(X, y, C, hp):
    """train_logreg's descent restated with its own loop and its own softmax and P - onehot
    arithmetic: the W and b that the shared loop must reproduce bit for bit."""
    W, b = np.zeros((X.shape[1], C)), np.zeros(C)
    for _ in range(hp.epochs):
        logits = X @ W + b
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        G = e / e.sum(axis=1, keepdims=True)
        G[np.arange(len(y)), y] -= 1.0
        G /= len(y)
        W, b = W - hp.lr * (X.T @ G + hp.weight_decay * W), b - hp.lr * G.sum(axis=0)
    return W, b


@pytest.mark.parametrize("l, d, C, lr, weight_decay", [
    (1, 3, 2, 0.5, 0.0),
    (7, 4, 3, 0.5, 1e-4),
    (20, 9, 5, 1.0, 0.01),
    (50, 32, 10, 0.5, 1e-4),
    (13, 2, 4, 2.0, 0.5),
])
def test_fit_is_bit_identical_to_a_stepwise_restatement(l, d, C, lr, weight_decay):
    rng = np.random.default_rng(l * d * C)
    X, y = rng.standard_normal((l, d)) * 2.0, rng.integers(0, C, size=l)
    hp = Hyperparams(lr=lr, epochs=40, weight_decay=weight_decay)
    model, trace = train_logreg(X, y, C, hp)
    W, b = _stepwise_logreg(X, y, C, hp)
    assert np.array_equal(model.W, W) and np.array_equal(model.b, b)
    X_new = rng.standard_normal((30, d))
    assert np.array_equal(predict_logreg(model, X_new), np.argmax(X_new @ W + b, axis=1))
    assert len(trace) == 41 and trace[-1] == logreg_loss_grad(W, b, X, y, weight_decay)[0]


def test_lr_zero_keeps_the_zero_model_and_a_constant_trace():
    X = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
    model, trace = train_logreg(X, [0, 1, 2], C=3, hp=Hyperparams(lr=0.0, epochs=5))
    assert np.array_equal(model.W, np.zeros((2, 3))) and np.array_equal(model.b, np.zeros(3))
    assert trace == [trace[0]] * 6 and abs(trace[0] - np.log(3.0)) <= 1e-15


def test_divergence_names_the_epoch_of_non_finite_parameters():
    # the first step overflows W to inf; its loss would be NaN only after that
    X = np.random.default_rng(8).standard_normal((6, 3)) * 1e200
    with pytest.raises(ValueError, match="^training diverged: non-finite parameters at epoch 1$"):
        train_logreg(X, [0, 1, 2, 0, 1, 2], C=3, hp=Hyperparams(lr=1e200, epochs=5))


def _loss_grad(X, y, C, hp):
    """logreg_loss_grad at train_logreg's zero start, for a two-column X."""
    return logreg_loss_grad(np.zeros((2, C)), np.zeros(C), X, y, hp.weight_decay)


@pytest.mark.parametrize("fit, X_l, y_l, C, message", [
    (train_logreg, [[0.0], [1.0]], [0.9, 1.7], 2, "y_l must hold integers, got float"),
    (train_logreg, [[0.0], [1.0]], [True, False], 2, "y_l must hold integers, got bool"),
    (train_logreg, [[0.0], [1.0]], ["0", "1"], 2, "y_l must hold integers, got str"),
    (train_logreg, [[0.0], [1.0]], [[0], [1]], 2, "y_l must have shape (2,), got (2, 1)"),
    (train_logreg, [[0.0], [1.0]], [0, 1], 2.5, "C must be an integer, got 2.5"),
    (train_logreg, [[0.0], [1.0]], [0, 1], "3", "C must be an integer, got '3'"),
    (train_logreg, [[0.0], [np.nan]], [0, 1], 2, "X_l row 1: non-finite value"),
    (train_logreg, [[0.0], [np.inf]], [0, 1], 2, "X_l row 1: non-finite value"),
    (_loss_grad, [[np.nan, 0.0]], [0], 2, "X row 0: non-finite value"),
    (_loss_grad, [[np.inf, 0.0]], [0], 2, "X row 0: non-finite value"),
    (_loss_grad, [[1 + 1j, 0.0]], [0], 2, "X must hold real numbers, got complex"),
    (_loss_grad, [["a", 0.0]], [0], 2, "X must hold real numbers, got str"),
    # a float64 X is read as is, and named once its loss is NaN
    (_loss_grad, np.array([[0.0, 1.0], [np.nan, 0.0]]), [0, 1], 2, "X row 1: non-finite value"),
], ids=["float-labels", "bool-labels", "string-labels", "2-d-labels", "float-C", "string-C",
        "nan-X", "inf-X", "loss-grad-nan-X", "loss-grad-inf-X", "loss-grad-complex-X",
        "loss-grad-string-X", "loss-grad-float64-nan-X"])
def test_malformed_inputs_are_named_errors(fit, X_l, y_l, C, message):
    # each once trained on truncated labels, failed inside NumPy or read as a diverged fit;
    # logreg_loss_grad once returned a NaN loss for a NaN or infinity, and NumPy's TypeError
    # or message for a complex or string entry
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(X_l, y_l, C, Hyperparams(epochs=3))


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
