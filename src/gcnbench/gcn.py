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

from .checks import check_floats, check_indices, check_type
from .graph import PropagationMatrix, _gather_buffer, _sum_rows


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs; frozen because the per-model defaults are shared instances."""

    lr: float = 0.2
    epochs: int = 200
    seed: int = 0
    hidden: int = 16
    weight_decay: float = 0.0

    def __post_init__(self):
        for name, kind, low in (("lr", float, 0), ("epochs", int, 0), ("seed", int, 0),
                                ("hidden", int, 1), ("weight_decay", float, 0)):
            check_type(name, getattr(self, name), kind, low)


@dataclass
class GcnModel:
    """The two parameter matrices of the network."""

    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        self.theta1 = check_floats("theta1", self.theta1, (None, None))
        self.theta2 = check_floats("theta2", self.theta2, (self.theta1.shape[1], None))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.theta1.shape[0], self.theta1.shape[1], self.theta2.shape[1])


@dataclass
class ForwardCache:
    """Layer intermediates kept for backprop.

    SX = S @ X and SH1 = S @ H1 are stored alongside the activations because
    the gradient of each parameter matrix contracts against them.  forward() fills
    every row.  train() builds no cache: it computes SX once per run, and its epochs
    write the rest into buffers of their own (see _Epoch).
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
    for name, value, low in (("L1", L1, 1), ("L2", L2, 1), ("C", C, 1), ("seed", seed, 0)):
        check_type(name, value, int, low)
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

    z, of any shape, is read by checks.check_floats, so an entry that is no finite real
    number is a ValueError naming z.  The shift leaves the result mathematically unchanged
    and prevents overflow for large inputs.
    """
    _, e, total = _shifted_exp(check_floats("z", z, None), axis)
    return e / total


def _shifted_exp(z, axis):
    """z - max(z), its exponential and that exponential's sum along axis, for a float64 z."""
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
    """X as a finite float64 array (checks.check_floats) with one row per node of S and one
    column per model input."""
    return check_floats("X", X, (S.n, model.dims[0]))


def _layers(model: GcnModel, S: PropagationMatrix, SX: np.ndarray) -> ForwardCache:
    """forward() from an already propagated SX = S @ X."""
    A1 = SX @ model.theta1
    H1 = relu(A1)
    SH1 = S.matmul(H1)
    A2 = SH1 @ model.theta2
    return ForwardCache(A1=A1, H1=H1, A2=A2, Z=softmax(A2), SX=SX, SH1=SH1)


def _targets(Y, labeled, n: int, C: int) -> tuple[np.ndarray, np.ndarray]:
    """(Y, labeled) as a finite float64 n x C matrix and int64 row indices, checked (checks):
    labeled is a vector of distinct row indices in 0..n-1, so no index is truncated, wraps
    around or counts twice.  An empty labeled set is valid."""
    y = check_floats("Y", Y, (n, C))
    rows = check_indices("labeled", labeled, n, (None,))
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
    _features(model, S, X)
    check_type("weight_decay", weight_decay, float, 0)
    _, L2, C = model.dims
    if cache.Z.shape != (S.n, C) or cache.A1.shape != (S.n, L2):
        raise ValueError("cache does not match this model/graph/feature combination")
    y, labeled = _targets(Y, labeled, S.n, C)
    G2 = np.zeros_like(cache.A2)
    G2[labeled] = _cross_entropy(cache.A2[labeled], y[labeled])[1]
    g_theta2 = cache.SH1.T @ G2
    G1 = S.matmul(G2 @ model.theta2.T) * (cache.A1 > 0)
    g_theta1 = cache.SX.T @ G1
    if weight_decay > 0:
        g_theta1 = g_theta1 + weight_decay * model.theta1
        g_theta2 = g_theta2 + weight_decay * model.theta2
    return Gradients(g_theta1, g_theta2)


def train(model: GcnModel, S: PropagationMatrix, X, Y, labeled,
          hp: Hyperparams) -> tuple[GcnModel, list[float]]:
    """Full-batch gradient descent: theta <- theta - lr * grad for hp.epochs steps.

    Returns the trained model (the input model is left untouched) and a
    trace of epochs+1 objective values, the initial one first.  The trace
    records the training objective, i.e. the masked cross-entropy plus the
    weight-decay penalty 0.5 * wd * (|theta1|^2 + |theta2|^2) when enabled.
    Y and labeled are checked once, as loss() checks them.  Raises if the
    parameters or the objective become non-finite.

    S @ X is computed once per run, and the epochs are one _Epoch's steps: the
    parameters and trace are bit-identical to full-graph forward()/backward()
    steps, except that an exactly zero sum may carry the other sign (see _Epoch).
    """
    return _train(model, S, S.matmul(_features(model, S, X)), Y, labeled, hp)


def _train(model: GcnModel, S: PropagationMatrix, SX: np.ndarray, Y, labeled,
           hp: Hyperparams) -> tuple[GcnModel, list[float]]:
    """train() from an already propagated SX = S @ X, which the caller may reuse to predict."""
    epoch = _Epoch(model, S, SX, *_targets(Y, labeled, S.n, model.dims[2]), hp.weight_decay)
    params, trace = _descend((model.theta1.copy(), model.theta2.copy()), epoch.value, hp)
    return GcnModel(*params), trace


class _Epoch:
    """train()'s epoch as two steps, value and gradients, over what does not depend on
    theta, prepared once per fit when the epoch is built: the labeled rows of Y, the cuts
    of S and the buffers every epoch reuses.  An epoch reads the layer-1 product
    A1 = (S @ X) @ theta1 only on N1, the rows of S that touch the labeled rows L, so it
    computes A1 on N1's rows of S @ X alone wherever that gives the full product's rows
    bit for bit, which a check of one product of each form decides once per fit (see
    _rows_product_matches); where it does not, and where N1 is every row, A1 is computed
    on all n.  The other four dense products of forward() and backward() run at full n.
    It sums sparse rows, in S.matmul's kernel graph._sum_rows, only where the result
    depends on them: S @ relu(A1) on L, which are all the masked loss reads, and the
    layer-1 gradient S @ B, B = G2 @ theta2^T, on N1, where alone it can be nonzero.  B is
    exactly +-0 off L, and adding +-0 to a nonzero partial sum changes nothing, so an N1
    row with at most two entries in L's columns sums those alone: one term is itself and
    two add the same in any order.
    """

    def __init__(self, model: GcnModel, S: PropagationMatrix, SX: np.ndarray, y, labeled, wd):
        self.SX, self.labeled, self.y_L, self.wd = SX, labeled, y[labeled], wd
        S_L = S.take_rows(labeled)
        # N1: S is symmetric, so the rows that touch L are the columns of L's rows
        N1 = np.unique(S_L.indices)
        S_N1 = S.take_rows(N1)
        # an N1 row with at most two entries in L's columns keeps only those
        in_L = np.zeros(S.n, dtype=bool)
        in_L[labeled] = True
        hits = in_L[S_N1.indices]
        per_row = np.diff(np.concatenate([[0], np.cumsum(hits)])[S_N1.indptr])
        S_N1 = S_N1.take_entries(hits | np.repeat(per_row > 2, np.diff(S_N1.indptr)))
        # N1's rows in the order one-entry, two-entry, whole: the entries of the first two kinds
        # come first, a row's pair side by side, and the whole rows are a cut of their own
        kept = np.diff(S_N1.indptr)
        ones, twos = self.ones, self.twos = int((kept == 1).sum()), int((kept == 2).sum())
        S_N1 = self.S_N1 = S_N1.take_rows(np.argsort(np.minimum(kept, 3), kind="stable"))
        L2, C = model.dims[1:]
        few = ones + 2 * twos
        self.few_cols, self.few_weights = S_N1.indices[:few], _widened(S_N1.data[:few], L2)
        S_whole = self.S_whole = S_N1.take_rows(np.arange(ones + twos, len(S_N1.rows)))
        # layer 1 on N1's rows of SX alone, which hold all an epoch reads of A1, where that gives
        # the full product's rows bit for bit; A1's row of node N1[i] is then row i, and the L-row
        # sum and the ReLU mask read A1 at those positions
        cut = len(N1) < S.n and _rows_product_matches(SX, N1, model.theta1.copy())
        self.SX1 = SX[N1] if cut else SX
        self.L_cols, self.N1_at = (np.searchsorted(N1, c) if cut else c for c in (S_L.indices, S_N1.rows))
        # buffers every epoch writes in place: SH1 and G2 stay zero off L, and G1 off N1
        self.A1, self.A1_N1 = np.empty((len(self.SX1), L2)), np.empty((len(N1), L2))
        self.SH1, self.B, self.G1 = (np.zeros((S.n, L2)) for _ in range(3))
        self.A2, self.G2 = np.zeros((S.n, C)), np.zeros((S.n, C))
        self.SH1_L, self.G1_N1 = np.empty((len(labeled), L2)), np.empty((len(N1), L2))
        self.at_few, self.mask = np.empty((len(self.few_cols), L2)), np.empty((len(N1), L2), dtype=bool)
        self.L_blocks, self.whole_blocks = list(S_L.row_blocks(L2)), list(S_whole.row_blocks(L2))
        self.L_weights, self.whole_weights = _widened(S_L.data, L2), _widened(S_whole.data, L2)
        self.at = _gather_buffer(self.L_blocks + self.whole_blocks, L2)

    def value(self, params):
        """The objective at params = (theta1, theta2), and a callable for its gradients there."""
        theta1, theta2 = params
        np.matmul(self.SX1, theta1, out=self.A1)
        np.maximum(self.A1, 0.0, out=self.A1)  # H1; the ReLU mask reads it, as relu(a) > 0 where a > 0
        _sum_rows(self.L_cols, self.L_weights, self.L_blocks, self.A1, self.at, self.SH1_L)
        self.SH1[self.labeled] = self.SH1_L
        np.matmul(self.SH1, theta2, out=self.A2)
        value, G_L = _cross_entropy(self.A2[self.labeled], self.y_L)
        if self.wd > 0:
            value += 0.5 * self.wd * sum(float((p ** 2).sum()) for p in params)
        return value, lambda: self.gradients(theta1, theta2, G_L)

    def gradients(self, theta1, theta2, G_L):
        """(g_theta1, g_theta2) at value()'s parameters, from its gradient G_L on L's logits."""
        ones, twos, at_few, G1_N1 = self.ones, self.twos, self.at_few, self.G1_N1
        self.G2[self.labeled] = G_L
        np.matmul(self.G2, theta2.T, out=self.B)
        # G1 = (S @ B) * (A1 > 0) on N1's rows: a one-entry row's sum is that entry and a
        # two-entry row's the pair's sum, which is what _sum_rows gives
        np.take(self.B, self.few_cols, axis=0, out=at_few, mode="clip")
        np.multiply(at_few, self.few_weights, out=at_few)
        G1_N1[:ones] = at_few[:ones]
        np.add(at_few[ones::2], at_few[ones + 1::2], out=G1_N1[ones:ones + twos])
        _sum_rows(self.S_whole.indices, self.whole_weights, self.whole_blocks, self.B, self.at,
                  G1_N1[ones + twos:])
        np.take(self.A1, self.N1_at, axis=0, out=self.A1_N1, mode="clip")
        np.greater(self.A1_N1, 0.0, out=self.mask)
        np.multiply(G1_N1, self.mask, out=G1_N1)
        self.G1[self.S_N1.rows] = G1_N1
        g_theta1, g_theta2 = self.SX.T @ self.G1, self.SH1.T @ self.G2
        if self.wd > 0:
            g_theta1 = g_theta1 + self.wd * theta1
            g_theta2 = g_theta2 + self.wd * theta2
        return g_theta1, g_theta2


def _rows_product_matches(M: np.ndarray, rows: np.ndarray, W: np.ndarray) -> bool:
    """Whether M[rows] @ W equals (M @ W)[rows] bit for bit, for a product an epoch cuts by
    rows (today layer 1's SX @ theta1), each made as an _Epoch makes it: np.matmul of
    C-contiguous arrays into a C-contiguous buffer.  BLAS picks its kernel by shape and
    thread count, not by value, so this one pair of products decides for every epoch of a fit.  It does not hold on every build and shape:
    on OpenBLAS 0.3.31 one row, or up to about 65 rows at 768 columns, or a hidden width of 1,
    can take another kernel than the full product."""
    full = np.matmul(M, W, out=np.empty((len(M), W.shape[1])))[rows]
    part = np.matmul(M[rows], W, out=np.empty_like(full))
    return np.array_equal(part.view(np.int64), full.view(np.int64))


def _widened(weights: np.ndarray, cols: int) -> np.ndarray:
    """Each weight repeated across ``cols`` columns: a product with a gathered block then runs
    over whole rows, not a broadcast column, at about half the time, with the same bits."""
    return np.repeat(weights[:, None], cols, axis=1)


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
