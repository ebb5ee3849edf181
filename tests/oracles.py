"""Independent reference implementations the tests check the library against.

Everything here deliberately avoids the library's computational paths:
neighbor search uses pure-Python sorting over exact pairwise distances, and
the row loops (one exact distance row per node, as the builders were before
their GEMM filter) give the edge arrays the builders must match bit for bit;
the propagation matrix is assembled from explicit dense matrices, the
network forward pass is naive triple loops, and training recomputes the
whole forward pass, S @ X included, every epoch.  The edge-list reader is a
plain line-by-line parser of the stated form.
"""

import math

import numpy as np

from gcnbench.gcn import GcnModel, backward, forward, loss
from gcnbench.graph import SparseAdjacency


def _oracle_distance(a, b, metric):
    if metric == "euclidean":
        return math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b)))
    dot = math.fsum(x * y for x, y in zip(a, b))
    return 1.0 - dot / math.sqrt(math.fsum(x * x for x in a) * math.fsum(y * y for y in b))


def knn_oracle_edges(X, k, metric="euclidean"):
    """Sort-based brute-force k-NN with OR-symmetrization; ties go to the lower index."""
    pts = [[float(v) for v in row] for row in np.asarray(X)]
    n = len(pts)
    edges = set()
    for i in range(n):
        dists = sorted((_oracle_distance(pts[i], pts[j], metric), j) for j in range(n) if j != i)
        for _, j in dists[:k]:
            edges.add((min(i, j), max(i, j)))
    return edges


def epsilon_oracle_edges(X, eps, metric="euclidean"):
    """Every pair i < j at distance strictly below eps, the sums taken with math.fsum."""
    pts = [[float(v) for v in row] for row in np.asarray(X)]
    n = len(pts)
    return {(i, j) for i in range(n) for j in range(i + 1, n)
            if _oracle_distance(pts[i], pts[j], metric) < eps}


def _exact_rows(X, metric):
    """Rows of the exact distance matrix, one at a time, by the formulas the builders refine with."""
    if metric == "euclidean":
        return (np.sqrt(((X - x) ** 2).sum(axis=1)) for x in X)
    norms = np.linalg.norm(X, axis=1)
    return (1.0 - (X @ x) / (norms * norm) for x, norm in zip(X, norms))


def knn_row_loop_edges(X, k, metric="euclidean"):
    """The k-NN builder as one exact distance row and one stable argsort per node:
    the canonical (m, 2) edge array the blocked builder must equal bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    n = len(X)
    nearest = np.empty((n, k), dtype=np.int64)
    for i, d in enumerate(_exact_rows(X, metric)):
        d[i] = np.inf
        nearest[i] = np.argsort(d, kind="stable")[:k]
    pairs = np.column_stack([np.repeat(np.arange(n), k), nearest.ravel()])
    pairs.sort(axis=1)
    return np.unique(pairs, axis=0)


def epsilon_row_loop_edges(X, eps, metric="euclidean"):
    """The epsilon builder as one exact distance row and one strict < eps test per node."""
    X = np.asarray(X, dtype=np.float64)
    edges = [(i, j) for i, d in enumerate(_exact_rows(X, metric))
             for j in (i + 1 + np.flatnonzero(d[i + 1:] < eps)).tolist()]
    return np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)


def normalize_oracle_dense(n, edges):
    """Explicit dense renormalization: inverse-sqrt degree scaling of adjacency plus identity."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i, j] = A[j, i] = 1.0
    A_hat = A + np.eye(n)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(A_hat.sum(axis=1)))
    return d_inv_sqrt @ A_hat @ d_inv_sqrt


def _mm(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for k in range(inner):
                s += A[i][k] * B[k][j]
            out[i][j] = s
    return out


def forward_oracle_dense(S_dense, X, theta1, theta2):
    """Naive-loop evaluation of softmax(S @ relu(S @ X @ theta1) @ theta2)."""
    S = [[float(v) for v in row] for row in np.asarray(S_dense)]
    Xl = [[float(v) for v in row] for row in np.asarray(X)]
    t1 = [[float(v) for v in row] for row in np.asarray(theta1)]
    t2 = [[float(v) for v in row] for row in np.asarray(theta2)]
    H = _mm(_mm(S, Xl), t1)
    for row in H:
        for j, v in enumerate(row):
            row[j] = v if v > 0.0 else 0.0
    logits = _mm(_mm(S, H), t2)
    Z = []
    for row in logits:
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        total = math.fsum(exps)
        Z.append([e / total for e in exps])
    return np.array(Z)


def fd_gcn_gradients(model, S, X, Y, labeled, h=1e-5):
    """Central finite differences of the masked cross-entropy in every parameter entry."""
    out = []
    for theta in (model.theta1, model.theta2):
        g = np.zeros_like(theta)
        for idx in np.ndindex(theta.shape):
            orig = theta[idx]
            theta[idx] = orig + h
            up = loss(forward(model, S, X), Y, labeled)
            theta[idx] = orig - h
            down = loss(forward(model, S, X), Y, labeled)
            theta[idx] = orig
            g[idx] = (up - down) / (2 * h)
        out.append(g)
    return out


def assert_gradients_match(analytic, fd, rel=1e-4, abs_small=1e-8, small=1e-4):
    """Entrywise check: relative error <= rel, absolute <= abs_small for tiny entries."""
    analytic = np.asarray(analytic)
    fd = np.asarray(fd)
    assert analytic.shape == fd.shape
    for idx in np.ndindex(analytic.shape):
        a, f = analytic[idx], fd[idx]
        if abs(f) < small:
            assert abs(a - f) <= abs_small, f"entry {idx}: {a} vs fd {f}"
        else:
            assert abs(a - f) / abs(f) <= rel, f"entry {idx}: {a} vs fd {f}"


def train_oracle(model, S, X, Y, labeled, hp):
    """Gradient descent that calls forward() and backward() and builds a new GcnModel
    every epoch; returns (model, objective trace) like gcn.train."""
    current = GcnModel(theta1=model.theta1.copy(), theta2=model.theta2.copy())
    wd = hp.weight_decay

    def objective(m, cache):
        value = loss(cache, Y, labeled)
        if wd > 0:
            value += 0.5 * wd * (float((m.theta1 ** 2).sum()) + float((m.theta2 ** 2).sum()))
        return value

    cache = forward(current, S, X)
    trace = [objective(current, cache)]
    for _ in range(hp.epochs):
        grads = backward(current, S, X, cache, Y, labeled, weight_decay=wd)
        current = GcnModel(theta1=current.theta1 - hp.lr * grads.g_theta1,
                           theta2=current.theta2 - hp.lr * grads.g_theta2)
        cache = forward(current, S, X)
        trace.append(objective(current, cache))
    return current, trace


def _edge_file_number(field):
    """A number of the edge-list form, 1-18 ASCII digits; None for any other spelling."""
    if field.isascii() and field.isdigit() and len(field) <= 18:
        return int(field)
    return None


def edge_list_oracle(text):
    """The edge-list reader one line at a time: raises on the first bad line, naming it."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    n = None
    pairs = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            if not line.startswith("#nodes=") or lineno != 1:
                raise ValueError(f"line {lineno}: unrecognized comment {line!r}")
            n = _edge_file_number(line[len("#nodes="):])
            if n is None:
                raise ValueError(f"line {lineno}: malformed #nodes header {line!r}")
            continue
        fields = line.split("\t")
        i, j = map(_edge_file_number, fields) if len(fields) == 2 else (None, None)
        if i is None or j is None:
            raise ValueError(f"line {lineno}: malformed edge line {line!r}")
        if i == j:
            raise ValueError(f"line {lineno}: self-loop {i}")
        if i > j:
            raise ValueError(f"line {lineno}: edge must satisfy 0 <= i < j, got {i}, {j}")
        if (i, j) in seen:
            raise ValueError(f"line {lineno}: duplicate edge {i} {j}")
        seen.add((i, j))
        pairs.append((i, j))
    if n is None:
        if not pairs:
            raise ValueError("empty edge list without a #nodes header")
        n = max(j for _, j in pairs) + 1
    return SparseAdjacency(n=n, edges=pairs)
