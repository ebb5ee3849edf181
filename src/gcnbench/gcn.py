"""Two-layer graph convolutional network: forward pass, masked cross-entropy,
analytic backpropagation, and full-batch gradient-descent training.

The network computes

    Z = softmax(S @ relu(S @ X @ theta1) @ theta2)

where S is the renormalized propagation matrix, and is trained on the cross-entropy
summed over labeled rows only.  A training epoch reads only those rows and their
neighbours: it sums S cut once per run to them, and runs each dense product on the rows
it reads, wherever a check made once per run shows that this gives the full product's
bits.  All math is float64, and runs are bit-reproducible on the same NumPy/BLAS build at
the same BLAS thread count, which together fix the summation order of every product.
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
    of S and of the dense operands, and the buffers every epoch reuses.

    The loss reads only the labeled rows L, and the gradient only N1, the rows of S that
    touch L, so each of the five dense products of forward() and backward() runs on the
    rows it reads: layer 1, A1 = (S @ X) @ theta1, on N1's rows of S @ X; the layer-1
    gradient's contraction (S @ X)^T @ G1 over N1's rows, as G1 is zero off N1; and layer
    2's SH1 @ theta2 and B = G2 @ theta2^T on L's rows and its contraction SH1^T @ G2 over
    them, as SH1 and G2 are zero off L.  Layer 2 takes L's rows in ascending order with
    zero rows appended to a multiple of 4, and a contraction adds the products of its row
    blocks in order (_contract): one block, or the blocks in which BLAS itself splits the
    full product's inner dimension (_k_blocks).  Each cut is taken only where a check of
    one product of its form, made once per fit, shows the full product's bits
    (_rows_product_matches); where it does not, the same code runs over all n rows in one
    block, which is the full product.

    It sums sparse rows, in S.matmul's kernel graph._sum_rows, only where the result
    depends on them: S @ relu(A1) on L, which are all the masked loss reads, and the
    layer-1 gradient S @ B on N1, where alone it can be nonzero.  B is exactly +-0 off L,
    and adding +-0 to a nonzero partial sum changes nothing, so an N1 row with at most two
    entries in L's columns sums those alone: one term is itself and two add the same in
    any order.  The N1 rows read B through their columns remapped once per fit, each
    column in L to its row of B and every other column to a last row of B that stays zero.
    """

    def __init__(self, model: GcnModel, S: PropagationMatrix, SX: np.ndarray, y, labeled, wd):
        self.y_L, self.wd = y[labeled], wd
        n, (L2, C) = S.n, model.dims[1:]
        S_L = S.take_rows(labeled)
        # N1: S is symmetric, so the rows that touch L are the columns of L's rows
        N1 = np.unique(S_L.indices)
        S_N1 = S.take_rows(N1)
        # an N1 row with at most two entries in L's columns keeps only those
        in_L = np.zeros(n, dtype=bool)
        in_L[labeled] = True
        hits = in_L[S_N1.indices]
        per_row = np.diff(np.concatenate([[0], np.cumsum(hits)])[S_N1.indptr])
        S_N1 = S_N1.take_entries(hits | np.repeat(per_row > 2, np.diff(S_N1.indptr)))
        # N1's rows in the order one-entry, two-entry, whole: the entries of the first two kinds
        # come first, a row's pair side by side, and the whole rows are a cut of their own
        kept = np.diff(S_N1.indptr)
        ones, twos = self.ones, self.twos = int((kept == 1).sum()), int((kept == 2).sum())
        S_N1 = S_N1.take_rows(np.argsort(np.minimum(kept, 3), kind="stable"))
        S_whole = S_N1.take_rows(np.arange(ones + twos, len(S_N1.rows)))
        # the checks multiply the fit's SX and initial theta, and draws on the rows an epoch
        # keeps of the operands that are zero elsewhere; a cut not taken runs on every row
        theta1, theta2 = model.theta1.copy(), model.theta2.copy()
        draw = np.random.default_rng(0)
        L_sorted = np.sort(labeled)
        SH1, G2, G1 = (_drawn(n, rows, cols, draw)
                       for rows, cols in ((L_sorted, L2), (L_sorted, C), (N1, L2)))
        every, one_block = np.arange(n), [slice(0, n)]
        # layer 1 on N1's rows of SX, which hold all an epoch reads of A1: A1's row of node
        # N1[i] is then row i, and the L-row sum and the ReLU mask read A1 at those positions
        layer_1 = len(N1) < n and _rows_product_matches(SX, N1, theta1)
        # the layer-1 gradient over N1's rows: G1's row of node N1[i] is then row i
        g1_blocks = _contraction_blocks(SX, N1, G1)
        SX_N1 = SX[N1] if layer_1 or g1_blocks else SX
        self.SX1 = SX_N1 if layer_1 else SX
        self.L_cols, self.N1_at = (np.searchsorted(N1, c) if layer_1 else c for c in (S_L.indices, S_N1.rows))
        G1_rows, self.g1_blocks, self.SX_G1 = (N1, g1_blocks, SX_N1) if g1_blocks else (every, one_block, SX)
        self.G1_at = np.searchsorted(G1_rows, S_N1.rows)
        # layer 2's three products on L's rows, ascending and padded, as one cut: node
        # labeled[i]'s rows of SH1, the logits and G2 are then row L_at[i]
        pad = -len(L_sorted) % 4
        rows_cut = len(L_sorted) < n and all(_rows_product_matches(M, L_sorted, W, pad=pad)
                                             for M, W in ((SH1, theta2), (G2, theta2.T)))
        g2_blocks = rows_cut and _contraction_blocks(SH1, L_sorted, G2, pad)
        L_rows, self.g2_blocks, pad = (L_sorted, g2_blocks, pad) if g2_blocks else (every, one_block, 0)
        self.L_at = np.searchsorted(L_rows, labeled)
        # the N1 rows' columns as rows of B, whose last row stays zero
        B_at = np.full(n, len(L_rows) + pad)
        B_at[L_rows] = np.arange(len(L_rows))
        few = ones + 2 * twos
        self.few_cols, self.few_weights = B_at[S_N1.indices[:few]], _widened(S_N1.data[:few], L2)
        self.whole_cols = B_at[S_whole.indices]
        # buffers every epoch writes in place: SH1 and G2 stay zero off L, B in its last row
        # and G1 off N1, where they have those rows
        self.A1, self.A1_N1 = np.empty((len(self.SX1), L2)), np.empty((len(N1), L2))
        self.SH1, self.G2, self.A2 = (np.zeros((len(L_rows) + pad, k)) for k in (L2, C, C))
        self.B = np.zeros((len(L_rows) + pad + 1, L2))
        self.G1 = np.zeros((len(G1_rows), L2))
        self.SH1_L, self.G1_N1 = np.empty((len(labeled), L2)), np.empty((len(N1), L2))
        self.at_few, self.mask = np.empty((few, L2)), np.empty((len(N1), L2), dtype=bool)
        self.L_blocks, self.whole_blocks = list(S_L.row_blocks(L2)), list(S_whole.row_blocks(L2))
        self.L_weights, self.whole_weights = _widened(S_L.data, L2), _widened(S_whole.data, L2)
        self.at = _gather_buffer(self.L_blocks + self.whole_blocks, L2)

    def value(self, params):
        """The objective at params = (theta1, theta2), and a callable for its gradients there."""
        theta1, theta2 = params
        np.matmul(self.SX1, theta1, out=self.A1)
        np.maximum(self.A1, 0.0, out=self.A1)  # H1; the ReLU mask reads it, as relu(a) > 0 where a > 0
        _sum_rows(self.L_cols, self.L_weights, self.L_blocks, self.A1, self.at, self.SH1_L)
        self.SH1[self.L_at] = self.SH1_L
        np.matmul(self.SH1, theta2, out=self.A2)
        value, G_L = _cross_entropy(self.A2[self.L_at], self.y_L)
        if self.wd > 0:
            value += 0.5 * self.wd * sum(float((p ** 2).sum()) for p in params)
        return value, lambda: self.gradients(theta1, theta2, G_L)

    def gradients(self, theta1, theta2, G_L):
        """(g_theta1, g_theta2) at value()'s parameters, from its gradient G_L on L's logits."""
        ones, twos, at_few, G1_N1 = self.ones, self.twos, self.at_few, self.G1_N1
        self.G2[self.L_at] = G_L
        np.matmul(self.G2, theta2.T, out=self.B[:-1])
        # G1 = (S @ B) * (A1 > 0) on N1's rows: a one-entry row's sum is that entry and a
        # two-entry row's the pair's sum, which is what _sum_rows gives
        np.take(self.B, self.few_cols, axis=0, out=at_few, mode="clip")
        np.multiply(at_few, self.few_weights, out=at_few)
        G1_N1[:ones] = at_few[:ones]
        np.add(at_few[ones::2], at_few[ones + 1::2], out=G1_N1[ones:ones + twos])
        _sum_rows(self.whole_cols, self.whole_weights, self.whole_blocks, self.B, self.at,
                  G1_N1[ones + twos:])
        np.take(self.A1, self.N1_at, axis=0, out=self.A1_N1, mode="clip")
        np.greater(self.A1_N1, 0.0, out=self.mask)
        np.multiply(G1_N1, self.mask, out=G1_N1)
        self.G1[self.G1_at] = G1_N1
        g_theta1 = _contract(self.SX_G1, self.G1, self.g1_blocks)
        g_theta2 = _contract(self.SH1, self.G2, self.g2_blocks)
        if self.wd > 0:
            g_theta1 = g_theta1 + self.wd * theta1
            g_theta2 = g_theta2 + self.wd * theta2
        return g_theta1, g_theta2


def _drawn(n: int, rows: np.ndarray, cols: int, draw) -> np.ndarray:
    """An n x cols operand for a check, uniform in [-1, 1) from ``draw`` on ``rows`` and zero
    elsewhere, as an epoch's G1 is off N1 and its SH1 and G2 are off L."""
    M = np.zeros((n, cols))
    M[rows] = draw.uniform(-1.0, 1.0, (len(rows), cols))
    return M


def _rows_product_matches(M: np.ndarray, rows: np.ndarray, W: np.ndarray, blocks=None,
                          pad: int = 0) -> bool:
    """Whether a product an epoch cuts to ``rows`` of the n-row M, ascending, with ``pad``
    zero rows appended, gives the full product's bits: with ``blocks`` None, M[rows] @ W
    against the rows of M @ W (layer 1, SH1 @ theta2 and G2 @ theta2^T), and otherwise the
    contraction of M[rows] and W[rows] over those rows, summed in ``blocks`` of them
    (_contract), against M^T @ W, for a W zero off ``rows`` (the gradients' SX^T @ G1 and
    SH1^T @ G2).  Each is made as an _Epoch makes it: np.matmul of C-contiguous arrays, or
    their transposes, into a C-contiguous buffer.

    BLAS picks its kernel by shape and thread count, not by value, so this one pair of
    products decides for every epoch of a fit.  It does not hold on every build and shape:
    on OpenBLAS 0.3.31 one row, or up to about 65 rows at 768 columns, can take another
    kernel than the full product, and a contraction is summed in one pass only up to about
    10^6 multiply-adds, and otherwise in K-blocks (_k_blocks).  A cut product with a
    dimension of 1 (one labeled row, a hidden width of 1) runs a vector kernel, where one
    draw can give the full product's bits by coincidence and a later epoch's values not,
    so no such cut is taken."""
    if 1 in (len(rows), M.shape[1], W.shape[1]):
        return False
    cut = _padded(M, rows, pad)
    if blocks is None:
        full = np.matmul(M, W, out=np.empty((len(M), W.shape[1])))[rows]
        part = np.matmul(cut, W, out=np.empty((len(cut), W.shape[1])))[:len(rows)]
    else:
        full = np.matmul(M.T, W)
        part = _contract(cut, _padded(W, rows, pad), blocks)
    return np.array_equal(part.view(np.int64), full.view(np.int64))


def _padded(M: np.ndarray, rows: np.ndarray, pad: int) -> np.ndarray:
    """M's ``rows`` with ``pad`` zero rows appended, C-contiguous, as an epoch's cuts are."""
    return np.concatenate([M[rows], np.zeros((pad, M.shape[1]))])


def _contraction_blocks(M: np.ndarray, rows: np.ndarray, W: np.ndarray, pad: int = 0):
    """The blocks of positions in ``rows``, with ``pad`` zero rows appended to the last one,
    in which an epoch sums the contraction M^T @ W over ``rows`` (_contract): the blocks in
    which BLAS splits the full product's n rows (_k_blocks), or else one block, whichever
    the check shows first to give the full product's bits (_rows_product_matches).  None
    where neither does, or where ``rows`` are all n.  Where n spans several K-blocks, a
    large product is summed in them and a small one in one pass, so the K-blocks are tried
    first: the check then costs least where the full product costs most."""
    if len(rows) == len(M):
        return None
    at = np.searchsorted(rows, _k_blocks(len(M)))
    at[at == len(rows)] += pad
    split = [slice(a, b) for a, b in zip(at[:-1].tolist(), at[1:].tolist()) if b > a]
    for blocks in (split, [slice(0, len(rows) + pad)])[len(split) < 2:]:
        if _rows_product_matches(M, rows, W, blocks, pad):
            return blocks
    return None


# OpenBLAS's level-3 GEMM driver (driver/level3/level3.c) splits a product's inner dimension
# into blocks of GEMM_Q rows, and a rest of more than one and less than two blocks into two
# halves, the first rounded up to GEMM_UNROLL_M rows: its double-precision values for the
# SkylakeX kernels of OpenBLAS 0.3.31
_GEMM_Q, _GEMM_UNROLL_M = 384, 16


def _k_blocks(n: int) -> list[int]:
    """The bounds 0 = b_0 < b_1 < ... = n of the blocks in which OpenBLAS's level-3 driver
    sums an inner dimension of n, each block's product added to the sum of those before:
    for n = 2000, 0, 384, 768, 1152, 1536, 1776, 2000.  Where a build's blocks differ, the
    check fails and the epoch keeps another form of the product."""
    bounds = [0]
    while bounds[-1] < n:
        rest = n - bounds[-1]
        if rest >= 2 * _GEMM_Q:
            rest = _GEMM_Q
        elif rest > _GEMM_Q:
            rest = -(-(rest // 2) // _GEMM_UNROLL_M) * _GEMM_UNROLL_M
        bounds.append(bounds[-1] + rest)
    return bounds


def _contract(M: np.ndarray, W: np.ndarray, blocks: list) -> np.ndarray:
    """M^T @ W as the products of its row blocks added in order, the first to none: with one
    block of all rows the full product, and with BLAS's own blocks (_k_blocks) the full
    product's own grouping of the sum."""
    total = np.matmul(M[blocks[0]].T, W[blocks[0]])
    for block in blocks[1:]:
        total += np.matmul(M[block].T, W[block])
    return total


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


def predict(cache: ForwardCache) -> np.ndarray:
    """Per-row argmax of Z; ties break toward the lowest class index."""
    return np.argmax(cache.Z, axis=1)
