"""Supervised multinomial logistic-regression baseline.

Trained on labeled rows only with full-batch gradient descent on the mean
cross-entropy, optionally with an L2 penalty on the weights (never on the
bias).  The objective is convex, so the model starts at zero and needs no
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checks import check_floats, check_indices, check_type
from .gcn import Hyperparams, _cross_entropy, _descend

LOGREG_DEFAULTS = Hyperparams(lr=0.5, epochs=500, weight_decay=1e-4)


@dataclass
class LogRegModel:
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.W = check_floats("W", self.W, (None, None))
        self.b = check_floats("b", self.b, (self.W.shape[1],))


def logreg_loss_grad(W, b, X, y, weight_decay: float = 0.0):
    """Mean multinomial cross-entropy with L2 penalty, and its gradients.

    Returns (loss, g_W, g_b).  The gradient is (P - onehot(y)) / l contracted
    against X, plus wd * W; exactness is covered by a finite-difference test.
    X is read by checks.check_floats, but a float64 X (train_logreg's, every epoch)
    only once its loss is non-finite, after NumPy may have warned of the product.
    """
    check_type("weight_decay", weight_decay, float, 0)
    if not (isinstance(X, np.ndarray) and X.dtype == np.float64):
        X = check_floats("X", X, (None, W.shape[0]))
    l = len(X)
    y = check_indices("y", y, W.shape[1], (l,))
    value, G = _cross_entropy(X @ W + b, np.eye(W.shape[1])[y])
    G /= l
    value = value / l + 0.5 * weight_decay * float((W ** 2).sum())
    if not math.isfinite(value):
        check_floats("X", X, None)
    return value, X.T @ G + weight_decay * W, G.sum(axis=0)


def train_logreg(X_l, y_l, C: int, hp: Hyperparams = LOGREG_DEFAULTS) -> tuple[LogRegModel, list[float]]:
    """Fit W, b by full-batch gradient descent from zero initialization.

    Returns the model and the loss trace (epochs+1 entries, initial first).
    Deterministic: the convex objective makes the zero start canonical.
    """
    X_l = check_floats("X_l", X_l, (None, None))
    if len(X_l) < 1:
        raise ValueError("need at least one labeled row")
    check_type("C", C, int, 2)
    y_l = check_indices("y_l", y_l, C, (len(X_l),))

    def objective(params):
        value, g_W, g_b = logreg_loss_grad(*params, X_l, y_l, hp.weight_decay)
        return value, lambda: (g_W, g_b)

    (W, b), trace = _descend((np.zeros((X_l.shape[1], C)), np.zeros(C)), objective, hp)
    return LogRegModel(W=W, b=b), trace


def predict_logreg(model: LogRegModel, X) -> np.ndarray:
    """Argmax over softmax(x @ W + b) per row; softmax preserves the argmax,
    so the logits are ranked directly.  Ties break toward the lowest index."""
    X = check_floats("X", X, (None, model.W.shape[0]))
    return np.argmax(X @ model.W + model.b, axis=1)
