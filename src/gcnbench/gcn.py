"""Two-layer graph convolutional network: forward pass, masked cross-entropy,
analytic backpropagation, and full-batch gradient-descent training.

The network computes

    Z = softmax(S @ relu(S @ X @ theta1) @ theta2)

where S is the renormalized propagation matrix, and is trained on the cross-entropy
summed over labeled rows only, through S cut once per run to those rows and their
neighbours.  All math is float64, and runs are bit-reproducible on the same NumPy/BLAS
build at the same BLAS thread count, which together fix the summation order of every product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import PropagationMatrix, check_indices, check_type


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs; frozen because the per-model defaults are shared instances."""

    lr: float = 0.2
    epochs: int = 200
    seed: int = 0
    hidden: int = 16
    weight_decay: float = 0.0

    def __post_init__(self):
        for name, kind, low, what in (("lr", float, 0, "learning rate"),
                                      ("epochs", int, 0, "epoch count"),
                                      ("seed", int, 0, "model seed"),
                                      ("hidden", int, 1, "hidden width"),
                                      ("weight_decay", float, 0, "weight decay")):
            value = getattr(self, name)
            check_type(name, value, kind)
            if value < low:
                raise ValueError(f"{what} must be >= {low}, got {value}")


@dataclass
class GcnModel:
    """The two parameter matrices of the network."""

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        try:
            self.theta1 = np.asarray(self.theta1, dtype=np.float64)
            self.theta2 = np.asarray(self.theta2, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("parameters must be matrices of numbers") from None
        if self.theta1.ndim != 2 or self.theta2.ndim != 2:
            raise ValueError("parameter matrices must be 2-D")
        if self.theta1.shape[1] != self.theta2.shape[0]:
            raise ValueError(
                f"shape mismatch: theta1 is {self.theta1.shape}, theta2 is {self.theta2.shape}"
            )
        if not (np.isfinite(self.theta1).all() and np.isfinite(self.theta2).all()):
            raise ValueError("parameters must be finite")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.theta1.shape[0], self.theta1.shape[1], self.theta2.shape[1])


@dataclass
class ForwardCache:
    """Layer intermediates kept for backprop.

    SX = S @ X and SH1 = S @ H1 are stored alongside the activations because
    the gradient of each parameter matrix contracts against them.  SX has no
    parameters, so train() computes it once per run and reuses it every epoch.
    forward() fills every row; train(), through S cut to the labeled rows, fills
    SH1, A2 and Z only there and leaves zero rows where the loss never reads.
    """

    A1: np.ndarray
    H1: np.ndarray
    A2: np.ndarray
    Z: np.ndarray
    SX: np.ndarray
    SH1: np.ndarray


@dataclass
class Gradients:
    g_theta1: np.ndarray
    g_theta2: np.ndarray


def init_model(L1: int, L2: int, C: int, seed: int) -> GcnModel:
    """Glorot-uniform initialization: entries in +-sqrt(6/(fan_in+fan_out))."""
    for name, value in (("L1", L1), ("L2", L2), ("C", C), ("seed", seed)):
        check_type(name, value, int)
    if min(L1, L2, C) < 1:
        raise ValueError(f"dimensions must be positive, got {(L1, L2, C)}")
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (L1 + L2))
    lim2 = np.sqrt(6.0 / (L2 + C))
    theta1 = rng.uniform(-lim1, lim1, size=(L1, L2))
    theta2 = rng.uniform(-lim2, lim2, size=(L2, C))
    return GcnModel(theta1=theta1, theta2=theta2)


def relu(x):
    """max(0, x), elementwise."""
    return np.maximum(x, 0.0)


def softmax(z, axis=-1):
    """Row probabilities e^z_i / sum_j e^z_j, computed with max-subtraction.

    The shift leaves the result mathematically unchanged and prevents
    overflow for large inputs.
    """
    _, e, total = _shifted_exp(z, axis)
    return e / total


def _shifted_exp(z, axis):
    """z - max(z), its exponential and that exponential's sum along axis."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=axis, keepdims=True)


def forward(model: GcnModel, S: PropagationMatrix, X) -> ForwardCache:
    """Run both graph-convolution layers.

    A1 = (S @ X) @ theta1, H1 = relu(A1), A2 = (S @ H1) @ theta2,
    Z = row-softmax(A2).  The sparse product is applied first in each
    layer; that multiplication order is fixed.
    """
    return _layers(model, S, S.matmul(_features(model, S, X)))


def _features(model: GcnModel, S: PropagationMatrix, X) -> np.ndarray:
    """X as float64, checked to be finite and to hold one row per node of S and one column
    per model input."""
    X = np.asarray(X, dtype=np.float64)
    L1, _, _ = model.dims
    if X.ndim != 2 or X.shape != (S.n, L1):
        raise ValueError(f"X must be {S.n}x{L1}, got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    return X


def _propagate(P: PropagationMatrix, M: np.ndarray) -> np.ndarray:
    """P @ M on P's rows (all of S, or a cut) and zero rows elsewhere.

    The result always has all n rows, so the dense products that follow keep their full-n
    shapes: a GEMM on a subset of rows may round differently, while zero rows in a full-n
    GEMM leave its other rows and its sums over n bit-identical."""
    out = np.zeros((P.n, M.shape[1]))
    out[P.rows] = P.matmul(M)
    return out


def _layers(model: GcnModel, S2: PropagationMatrix, SX: np.ndarray) -> ForwardCache:
    """forward() from an already propagated SX = S @ X; SH1 and Z only on S2's rows (S or a
    cut).  softmax works row by row, so the rows it computes are the full call's bits."""
    A1 = SX @ model.theta1
    H1 = relu(A1)
    SH1 = _propagate(S2, H1)
    A2 = SH1 @ model.theta2
    Z = np.zeros_like(A2)
    Z[S2.rows] = softmax(A2[S2.rows])
    return ForwardCache(A1=A1, H1=H1, A2=A2, Z=Z, SX=SX, SH1=SH1)


def _targets(Y, labeled, n: int, C: int) -> tuple[np.ndarray, np.ndarray]:
    """(Y, labeled) as a finite float64 n x C matrix and int64 row indices, checked: labeled is a
    vector of distinct row indices in 0..n-1 (graph.check_indices), so no index is truncated,
    wraps around or counts twice.  An empty labeled set is valid."""
    y = np.asarray(Y, dtype=np.float64)
    if y.shape != (n, C):
        raise ValueError(f"Y must be {n}x{C}, got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("Y must be finite")
    rows = check_indices("labeled", labeled, n)
    if rows.ndim != 1:
        raise ValueError(f"labeled must be a vector of row indices, got shape {rows.shape}")
    unique, counts = np.unique(rows, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate labeled index {unique[np.argmax(counts > 1)]}")
    return y, rows


def loss(cache: ForwardCache, Y, labeled) -> float:
    """Cross-entropy summed over labeled rows; unlabeled rows contribute nothing.
    Y is n x C like cache.A2, and labeled distinct row indices (see _targets)."""
    y, labeled = _targets(Y, labeled, *cache.A2.shape)
    return _cross_entropy(cache.A2[labeled], y[labeled])[0]


def _cross_entropy(logits: np.ndarray, Y: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy of logits against Y summed over rows (0.0 for none), and its
    gradient by the logits, softmax(logits) - Y, for rows of Y that sum to 1."""
    # -log(softmax) and softmax from one exponential: log(total) - shifted, which never takes
    # the log of an underflowed 0, and e / total
    shifted, e, total = _shifted_exp(logits, -1)
    return float((Y * (np.log(total) - shifted)).sum()), e / total - Y


def backward(model: GcnModel, S: PropagationMatrix, X, cache: ForwardCache, Y, labeled,
             weight_decay: float = 0.0) -> Gradients:
    """Analytic gradients of the masked cross-entropy by the chain rule.

    G2 = (softmax(A2) - Y) = (Z - Y) on labeled rows and 0 elsewhere; g_theta2 = SH1^T @ G2.
    G1 = (S @ (G2 @ theta2^T)) masked by the ReLU indicator A1 > 0
    (S is symmetric, so no transpose is needed); g_theta1 = SX^T @ G1.
    With weight decay, wd * theta is added to each gradient, matching the
    objective used by train().
    """
    X = np.asarray(X, dtype=np.float64)
    L1, L2, C = model.dims
    if cache.Z.shape != (S.n, C) or cache.A1.shape != (S.n, L2) or X.shape != (S.n, L1):
        raise ValueError("cache does not match this model/graph/feature combination")
    y, labeled = _targets(Y, labeled, S.n, C)
    G_L = _cross_entropy(cache.A2[labeled], y[labeled])[1]
    return Gradients(*_gradients(model, S, cache, G_L, labeled, weight_decay))


def _gradients(model: GcnModel, S1: PropagationMatrix, cache: ForwardCache, G_L: np.ndarray,
               labeled: np.ndarray, weight_decay: float) -> tuple[np.ndarray, np.ndarray]:
    """backward() without its checks, from G_L = the loss gradient by A2[labeled], as a
    tuple.  G1 is propagated only on S1's rows (S or a cut), which must hold every row of S
    that touches a labeled row, or G1 loses entries."""
    G2 = np.zeros_like(cache.A2)
    G2[labeled] = G_L
    g_theta2 = cache.SH1.T @ G2
    G1 = _propagate(S1, G2 @ model.theta2.T) * (cache.A1 > 0)
    g_theta1 = cache.SX.T @ G1
    if weight_decay > 0:
        g_theta1 = g_theta1 + weight_decay * model.theta1
        g_theta2 = g_theta2 + weight_decay * model.theta2
    return g_theta1, g_theta2


def train(model: GcnModel, S: PropagationMatrix, X, Y, labeled,
          hp: Hyperparams) -> tuple[GcnModel, list[float]]:
    """Full-batch gradient descent: theta <- theta - lr * grad for hp.epochs steps.

    Returns the trained model (the input model is left untouched) and a
    trace of epochs+1 objective values, the initial one first.  The trace
    records the training objective, i.e. the masked cross-entropy plus the
    weight-decay penalty 0.5 * wd * (|theta1|^2 + |theta2|^2) when enabled.
    S @ X and the cuts of S are computed once per run.  Every epoch, the
    first included, propagates only the rows the result depends on: S @ H1
    on the labeled rows L, which are all the masked loss reads, and the
    layer-1 gradient on N1, the rows of S that touch L, where alone it can be
    nonzero.  That gradient's operand is exactly +-0 off L, and adding +-0 to a
    nonzero partial sum changes nothing, so an N1 row with at most two entries
    in L's columns sums those alone; one or two terms add the same in any order,
    and a row with more sums its full segment.  The parameters and trace are
    thus bit-identical to full-graph forward()/backward() steps, except that an
    exactly zero sum may carry the other sign.  Y and labeled are checked once, as
    loss() checks them.  Raises if the parameters or the objective become non-finite.
    """
    return _train(model, S, S.matmul(_features(model, S, X)), Y, labeled, hp)


def _train(model: GcnModel, S: PropagationMatrix, SX: np.ndarray, Y, labeled,
           hp: Hyperparams) -> tuple[GcnModel, list[float]]:
    """train() from an already propagated SX = S @ X, which the caller may reuse to predict."""
    y, labeled = _targets(Y, labeled, S.n, model.dims[2])
    wd = hp.weight_decay
    S_L = S.take_rows(labeled)
    # N1: S is symmetric, so the rows that touch L are the columns of L's rows
    S_N1 = S.take_rows(np.unique(S_L.indices))
    # an N1 row with at most two entries in L's columns keeps only those (see above)
    in_L = np.zeros(S.n, dtype=bool)
    in_L[labeled] = True
    hits = in_L[S_N1.indices]
    per_row = np.diff(np.concatenate([[0], np.cumsum(hits)])[S_N1.indptr])
    S_N1 = S_N1.take_entries(hits | np.repeat(per_row > 2, np.diff(S_N1.indptr)))

    def objective(params):
        current = GcnModel(*params)
        cache = _layers(current, S_L, SX)
        value, G_L = _cross_entropy(cache.A2[labeled], y[labeled])
        if wd > 0:
            value += 0.5 * wd * sum(float((p ** 2).sum()) for p in params)
        return value, lambda: _gradients(current, S_N1, cache, G_L, labeled, wd)

    params, trace = _descend((model.theta1.copy(), model.theta2.copy()), objective, hp)
    return GcnModel(*params), trace


def _descend(params: tuple, objective, hp: Hyperparams) -> tuple[tuple, list[float]]:
    """Full-batch descent of every model: hp.epochs steps of p <- p - lr * g for each array p.
    objective(params) returns (value, gradients); gradients(), one g per p, is called only
    before a step.  Returns the final params and the epochs+1 values, the initial first."""
    trace = []
    # an overflow here ends as a non-finite parameter or value, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs + 1):
            if epoch:
                params = tuple(p - hp.lr * g for p, g in zip(params, gradients()))
                if not all(np.isfinite(p).all() for p in params):
                    raise ValueError(f"training diverged: non-finite parameters at epoch {epoch}")
            value, gradients = objective(params)
            trace.append(value)
            if not np.isfinite(value):
                raise ValueError(f"training diverged: non-finite loss at epoch {epoch}")
    return params, trace


def _train_predict(model: GcnModel, S: PropagationMatrix, X, Y, labeled,
                   hp: Hyperparams) -> tuple[GcnModel, list[float], np.ndarray]:
    """train(), then predict(forward()) of the trained model, from one S @ X: the same
    bits as the two calls, which each compute that product."""
    SX = S.matmul(_features(model, S, X))
    trained, trace = _train(model, S, SX, Y, labeled, hp)
    return trained, trace, predict(_layers(trained, S, SX))


def predict(cache: ForwardCache) -> np.ndarray:
    """Per-row argmax of Z; ties break toward the lowest class index."""
    return np.argmax(cache.Z, axis=1)
