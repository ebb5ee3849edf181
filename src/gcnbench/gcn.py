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

from .graph import PropagationMatrix, check_type


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
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(z, axis=-1):
    """log of softmax as a log-sum-exp composite; never takes ln of an underflowed 0."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def forward(model: GcnModel, S: PropagationMatrix, X) -> ForwardCache:
    """Run both graph-convolution layers.

    A1 = (S @ X) @ theta1, H1 = relu(A1), A2 = (S @ H1) @ theta2,
    Z = row-softmax(A2).  The sparse product is applied first in each
    layer; that multiplication order is fixed.
    """
    return _layers(model, S, S.matmul(_features(model, S, X)))


def _features(model: GcnModel, S: PropagationMatrix, X) -> np.ndarray:
    """X as float64, checked to hold one row per node of S and one column per model input."""
    X = np.asarray(X, dtype=np.float64)
    L1, _, _ = model.dims
    if X.ndim != 2 or X.shape != (S.n, L1):
        raise ValueError(f"X must be {S.n}x{L1}, got {X.shape}")
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
    """(Y, labeled) as a float64 n x C matrix and int64 row indices, checked: labeled holds
    distinct integers in 0..n-1, so no index is truncated, wraps around or counts twice.
    An empty labeled set is valid."""
    y = np.asarray(Y, dtype=np.float64)
    if y.shape != (n, C):
        raise ValueError(f"Y must be {n}x{C}, got {y.shape}")
    rows = np.asarray(labeled)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ValueError(f"labeled must be 1-D integer row indices, got {rows.ndim}-D {rows.dtype}")
    rows = rows.astype(np.int64)
    outside = rows[(rows < 0) | (rows >= n)]
    if len(outside):
        raise ValueError(f"labeled index {outside[0]} outside 0..{n - 1}")
    unique, counts = np.unique(rows, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"duplicate labeled index {unique[np.argmax(counts > 1)]}")
    return y, rows


def loss(cache: ForwardCache, Y, labeled) -> float:
    """Cross-entropy summed over labeled rows; unlabeled rows contribute nothing.
    Y is n x C like cache.A2, and labeled distinct row indices (see _targets)."""
    return _loss(cache, *_targets(Y, labeled, *cache.A2.shape))


def _loss(cache: ForwardCache, y: np.ndarray, labeled: np.ndarray) -> float:
    """loss() without its checks."""
    if len(labeled) == 0:
        return 0.0
    log_z = log_softmax(cache.A2[labeled])
    return float(-(y[labeled] * log_z).sum())


def backward(model: GcnModel, S: PropagationMatrix, X, cache: ForwardCache, Y, labeled,
             weight_decay: float = 0.0) -> Gradients:
    """Analytic gradients of the masked cross-entropy by the chain rule.

    G2 = (Z - Y) on labeled rows and 0 elsewhere; g_theta2 = SH1^T @ G2.
    G1 = (S @ (G2 @ theta2^T)) masked by the ReLU indicator A1 > 0
    (S is symmetric, so no transpose is needed); g_theta1 = SX^T @ G1.
    With weight decay, wd * theta is added to each gradient, matching the
    objective used by train().
    """
    X = np.asarray(X, dtype=np.float64)
    L1, L2, C = model.dims
    if cache.Z.shape != (S.n, C) or cache.A1.shape != (S.n, L2) or X.shape != (S.n, L1):
        raise ValueError("cache does not match this model/graph/feature combination")
    return _gradients(model, S, cache, *_targets(Y, labeled, S.n, C), weight_decay)


def _gradients(model: GcnModel, S1: PropagationMatrix, cache: ForwardCache, y: np.ndarray,
               labeled: np.ndarray, weight_decay: float) -> Gradients:
    """backward() without its checks; G1 is propagated only on S1's rows (S or a cut), which
    must hold every row of S that touches a labeled row, or G1 loses entries."""
    G2 = np.zeros_like(cache.Z)
    G2[labeled] = cache.Z[labeled] - y[labeled]
    g_theta2 = cache.SH1.T @ G2
    G1 = _propagate(S1, G2 @ model.theta2.T) * (cache.A1 > 0)
    g_theta1 = cache.SX.T @ G1
    if weight_decay > 0:
        g_theta1 = g_theta1 + weight_decay * model.theta1
        g_theta2 = g_theta2 + weight_decay * model.theta2
    return Gradients(g_theta1=g_theta1, g_theta2=g_theta2)


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
    y, labeled = _targets(Y, labeled, S.n, model.dims[2])
    SX = S.matmul(_features(model, S, X))
    current = GcnModel(theta1=model.theta1.copy(), theta2=model.theta2.copy())
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

    trace = []
    # an overflow here ends as a non-finite parameter or objective, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs + 1):
            if epoch:
                grads = _gradients(current, S_N1, cache, y, labeled, wd)
                t1 = current.theta1 - hp.lr * grads.g_theta1
                t2 = current.theta2 - hp.lr * grads.g_theta2
                if not (np.isfinite(t1).all() and np.isfinite(t2).all()):
                    raise ValueError(f"training diverged: non-finite parameters at epoch {epoch}")
                # t1, t2 keep their shapes and were just checked finite: no new GcnModel
                current.theta1, current.theta2 = t1, t2
            cache = _layers(current, S_L, SX)
            value = _loss(cache, y, labeled)
            if wd > 0:
                value += 0.5 * wd * (float((current.theta1 ** 2).sum())
                                     + float((current.theta2 ** 2).sum()))
            trace.append(value)
            if not np.isfinite(value):
                raise ValueError(f"training diverged: non-finite loss at epoch {epoch}")
    return current, trace


def predict(cache: ForwardCache) -> np.ndarray:
    """Per-row argmax of Z; ties break toward the lowest class index."""
    return np.argmax(cache.Z, axis=1)
