"""Supervised multinomial logistic-regression baseline.

Trained on labeled rows only with full-batch gradient descent on the mean
cross-entropy, optionally with an L2 penalty on the weights (never on the
bias).  The objective is convex, so the model starts at zero and needs no
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import check_indices, check_type
from .gcn import Hyperparams, _cross_entropy, _descend

LOGREG_DEFAULTS = Hyperparams(lr=0.5, epochs=500, weight_decay=1e-4)


@dataclass
class LogRegModel:
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        try:
            self.W = np.asarray(self.W, dtype=np.float64)
            self.b = np.asarray(self.b, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("parameters must be arrays of numbers") from None
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[1],):
            raise ValueError(f"shape mismatch: W is {self.W.shape}, b is {self.b.shape}")
        if not (np.isfinite(self.W).all() and np.isfinite(self.b).all()):
            raise ValueError("parameters must be finite")


def logreg_loss_grad(W, b, X, y, weight_decay: float = 0.0):
    """Mean multinomial cross-entropy with L2 penalty, and its gradients.

    Returns (loss, g_W, g_b).  The gradient is (P - onehot(y)) / l contracted
    against X, plus wd * W; exactness is covered by a finite-difference test.
    """
    X = np.asarray(X, dtype=np.float64)
    y = check_indices("y", y, W.shape[1])
    l = len(X)
    if y.shape != (l,):
        raise ValueError(f"y must hold one class index per row of X ({l}), got shape {y.shape}")
    value, G = _cross_entropy(X @ W + b, np.eye(W.shape[1])[y])
    G /= l
    value = value / l + 0.5 * weight_decay * float((W ** 2).sum())
    return value, X.T @ G + weight_decay * W, G.sum(axis=0)


def train_logreg(X_l, y_l, C: int, hp: Hyperparams = LOGREG_DEFAULTS) -> tuple[LogRegModel, list[float]]:
    """Fit W, b by full-batch gradient descent from zero initialization.

    Returns the model and the loss trace (epochs+1 entries, initial first).
    Deterministic: the convex objective makes the zero start canonical.
    """
    X_l = np.asarray(X_l, dtype=np.float64)
    if X_l.ndim != 2 or len(X_l) < 1:
        raise ValueError("need at least one labeled row")
    if not np.isfinite(X_l).all():
        raise ValueError("X_l must be finite")
    check_type("C", C, int)
    if C < 2:
        raise ValueError(f"need C >= 2, got {C}")
    y_l = check_indices("y_l", y_l, C)
    if y_l.shape != (len(X_l),):
        raise ValueError(f"y_l must hold one class index per row of X_l ({len(X_l)}), got shape {y_l.shape}")

    def objective(params):
        value, g_W, g_b = logreg_loss_grad(*params, X_l, y_l, hp.weight_decay)
        return value, lambda: (g_W, g_b)

    (W, b), trace = _descend((np.zeros((X_l.shape[1], C)), np.zeros(C)), objective, hp)
    return LogRegModel(W=W, b=b), trace


def predict_logreg(model: LogRegModel, X) -> np.ndarray:
    """Argmax over softmax(x @ W + b) per row; softmax preserves the argmax,
    so the logits are ranked directly.  Ties break toward the lowest index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.W.shape[0]:
        raise ValueError(f"X must have {model.W.shape[0]} columns, got shape {X.shape}")
    return np.argmax(X @ model.W + model.b, axis=1)
