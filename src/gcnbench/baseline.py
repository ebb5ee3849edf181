"""Supervised multinomial logistic-regression baseline.

Trained on labeled rows only with full-batch gradient descent on the mean
cross-entropy, optionally with an L2 penalty on the weights (never on the
bias).  The objective is convex, so the model starts at zero and needs no
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gcn import Hyperparams, log_softmax, softmax

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
    y = np.asarray(y, dtype=np.int64)
    l = len(y)
    logits = X @ W + b
    log_p = log_softmax(logits)
    value = -float(log_p[np.arange(l), y].mean()) + 0.5 * weight_decay * float((W ** 2).sum())
    G = softmax(logits)
    G[np.arange(l), y] -= 1.0
    G /= l
    return value, X.T @ G + weight_decay * W, G.sum(axis=0)


def train_logreg(X_l, y_l, C: int, hp: Hyperparams = LOGREG_DEFAULTS) -> tuple[LogRegModel, list[float]]:
    """Fit W, b by full-batch gradient descent from zero initialization.

    Returns the model and the loss trace (epochs+1 entries, initial first).
    Deterministic: the convex objective makes the zero start canonical.
    """
    X_l = np.asarray(X_l, dtype=np.float64)
    y_l = np.asarray(y_l, dtype=np.int64)
    if X_l.ndim != 2 or len(X_l) < 1:
        raise ValueError("need at least one labeled row")
    if len(y_l) != len(X_l):
        raise ValueError(f"{len(y_l)} labels for {len(X_l)} rows")
    if C < 2:
        raise ValueError(f"need C >= 2, got {C}")
    if y_l.min() < 0 or y_l.max() >= C:
        raise ValueError(f"class index outside [0, {C})")
    W = np.zeros((X_l.shape[1], C))
    b = np.zeros(C)
    # an overflow here ends as a non-finite loss, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        value, g_W, g_b = logreg_loss_grad(W, b, X_l, y_l, hp.weight_decay)
        trace = [value]
        for epoch in range(hp.epochs):
            W = W - hp.lr * g_W
            b = b - hp.lr * g_b
            value, g_W, g_b = logreg_loss_grad(W, b, X_l, y_l, hp.weight_decay)
            trace.append(value)
            if not np.isfinite(value):
                raise ValueError(f"training diverged: non-finite loss at epoch {epoch + 1}")
    return LogRegModel(W=W, b=b), trace


def predict_logreg(model: LogRegModel, X) -> np.ndarray:
    """Argmax over softmax(x @ W + b) per row; softmax preserves the argmax,
    so the logits are ranked directly.  Ties break toward the lowest index."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.W.shape[0]:
        raise ValueError(f"X must have {model.W.shape[0]} columns, got shape {X.shape}")
    return np.argmax(X @ model.W + model.b, axis=1)
