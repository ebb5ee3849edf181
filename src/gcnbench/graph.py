"""Similarity graphs over embedding vectors and the renormalized propagation matrix.

Three constructions are supported: k-nearest-neighbor with OR-symmetrization,
epsilon-neighborhood (strict <), and the fully connected graph.  Neighbor
search is exact brute force, which is fine at desk scale (n up to ~10^4).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

METRICS = ("euclidean", "cosine")
METHODS = ("knn", "epsilon", "full")
# rows per block of PropagationMatrix.matmul; bounds its gather temporary to one block's nnz
MATMUL_BLOCK_ROWS = 128


def check_type(name: str, value, kind: type) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``kind``: int, float or bool.
    A bool is no int or float, an int serves as a float, and a float must be finite."""
    abc, expected = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
                     bool: (bool, "true or false")}[kind]
    if (not isinstance(value, abc) or isinstance(value, bool) != (kind is bool)
            or (kind is float and not -np.inf < value < np.inf)):
        raise ValueError(f"{name} must be {expected}, got {value!r}")


@dataclass
class GraphBuildConfig:
    """How to turn embedding vectors into a similarity graph."""

    method: str = "knn"
    k: int = 5
    eps: float | None = None
    metric: str = "euclidean"

    def __post_init__(self):
        check_type("k", self.k, int)
        if self.eps is not None:
            check_type("eps", self.eps, float)
        if self.method not in METHODS:
            raise ValueError(f"unknown graph method {self.method!r}, expected one of {METHODS}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
        if self.method == "knn" and self.k < 1:
            raise ValueError(f"knn needs k >= 1, got k={self.k}")
        if self.method == "epsilon" and (self.eps is None or self.eps <= 0):
            raise ValueError(f"epsilon graph needs eps > 0, got {self.eps}")


@dataclass
class SparseAdjacency:
    """Undirected unweighted graph: unordered pairs {i, j}, i < j, no self-loops.

    Edges are stored canonically as an (m, 2) array sorted lexicographically,
    so equal graphs compare equal entry-for-entry.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        try:
            edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError("edge endpoint outside the 64-bit integer range") from None
        if len(edges):
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoint outside 0..n-1")
            if (edges[:, 0] >= edges[:, 1]).any():
                raise ValueError("edges must satisfy i < j (no self-loops)")
            canon = np.unique(edges, axis=0)
            if len(canon) != len(edges):
                raise ValueError("duplicate edge")
            edges = canon
        self.edges = edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def edge_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.edges}


@dataclass
class PropagationMatrix:
    """Sparse symmetric smoothing operator: adjacency plus self-loops, degree-renormalized.

    With A_hat = A + I and d_hat the row sums of A_hat, the entry for a
    connected pair (i, j) is 1/sqrt(d_hat_i * d_hat_j) and the diagonal is
    1/d_hat_i.  Stored in CSR form; every row holds at least the diagonal.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    d_hat: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)

    def matmul(self, M: np.ndarray, rows=None) -> np.ndarray:
        """S @ M for dense M, or only its rows ``rows`` (any order) as (S @ M)[rows].

        Rows go in blocks of at most MATMUL_BLOCK_ROWS.  A block gathers M at its rows'
        full column segments, scales that copy in place and sums each segment with
        np.add.reduceat, in an order fixed for a given NumPy build that is not a
        sequential ascending-column sum.  Every row is summed over its whole segment
        whatever the block or ``rows``, so each row's bits match the full product, and
        the gather temporary holds one block's nnz x cols.  M is left unmodified."""
        M = np.asarray(M, dtype=np.float64)
        if M.shape[0] != self.n:
            raise ValueError(f"operand has {M.shape[0]} rows, matrix is {self.n}x{self.n}")
        rows = np.arange(self.n) if rows is None else np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= self.n):
            raise ValueError(f"row index outside 0..{self.n - 1}")
        out = np.empty((len(rows),) + M.shape[1:])
        for first in range(0, len(rows), MATMUL_BLOCK_ROWS):
            block = rows[first:first + MATMUL_BLOCK_ROWS]
            lengths = self.indptr[block + 1] - self.indptr[block]
            ends = np.cumsum(lengths)
            offsets = ends - lengths
            # the position in indices/data of every entry of the block's row segments
            entries = np.arange(ends[-1]) + np.repeat(self.indptr[block] - offsets, lengths)
            contrib = M[self.indices[entries]]
            contrib *= self.data[entries, None]
            # reduceat is safe because the diagonal keeps every row segment non-empty
            out[first:first + len(block)] = np.add.reduceat(contrib, offsets, axis=0)
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        dense[rows, self.indices] = self.data
        return dense


def pairwise_distance(a, b, metric: str = "euclidean") -> float:
    """Distance between two vectors: euclidean or cosine distance 1 - cos(a, b).  Its cosine
    divides by sqrt(aa * bb), not by _distance_rows' norms * norm, so the last bit may differ."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("vectors must be finite")
    if metric == "euclidean":
        return float(np.sqrt(((a - b) ** 2).sum()))
    if metric == "cosine":
        aa, bb = float(a @ a), float(b @ b)
        if aa == 0.0 or bb == 0.0:
            raise ValueError("cosine distance undefined for a zero vector")
        # sqrt(aa * bb) keeps the distance of a vector to itself at exactly 0
        return float(1.0 - (a @ b) / np.sqrt(aa * bb))
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _features(ds) -> np.ndarray:
    X = np.asarray(getattr(ds, "X", ds), dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    return X


def _distance_rows(X, metric):
    """Iterate over the rows of the exact n x n distance matrix of X, each a fresh array.
    The metric and zero cosine vectors are checked before the first row; a cosine
    self-distance may miss 0 by rounding (pairwise_distance keeps it at exactly 0)."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "euclidean":
        return (np.sqrt(((X - x) ** 2).sum(axis=1)) for x in X)
    norms = np.linalg.norm(X, axis=1)
    if (norms == 0.0).any():
        raise ValueError("cosine distance undefined for a zero vector")
    return (1.0 - (X @ x) / (norms * norm) for x, norm in zip(X, norms))


def knn_graph(ds, k: int, metric: str = "euclidean") -> SparseAdjacency:
    """k-nearest-neighbor graph with OR-symmetrization.

    {i, j} is an edge if j is among the k nearest neighbors of i or i is
    among the k nearest of j.  Ties at the k-th distance admit the lower
    index, so each node contributes exactly its k nearest before the union.
    Exact O(n^2) brute force: one distance row and one stable argsort per node.
    """
    check_type("k", k, int)
    X = _features(ds)
    n = len(X)
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1={n - 1}, got k={k}")
    nearest = np.empty((n, k), dtype=np.int64)
    for i, d in enumerate(_distance_rows(X, metric)):
        d[i] = np.inf
        # stable sort keeps the lower index first among exact ties
        nearest[i] = np.argsort(d, kind="stable")[:k]
    pairs = np.column_stack([np.repeat(np.arange(n), k), nearest.ravel()])
    pairs.sort(axis=1)
    return SparseAdjacency(n=n, edges=np.unique(pairs, axis=0))


def epsilon_graph(ds, eps: float, metric: str = "euclidean") -> SparseAdjacency:
    """Connect every pair at distance strictly smaller than eps."""
    check_type("eps", eps, float)
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    X = _features(ds)
    n = len(X)
    # flat int lists: one small array per row fragmented the heap (+5 MB peak RSS at n=5000)
    rows, cols = [], []
    for i, d in enumerate(_distance_rows(X, metric)):
        js = (i + 1 + np.flatnonzero(d[i + 1:] < eps)).tolist()
        rows += [i] * len(js)
        cols += js
    return SparseAdjacency(n=n, edges=np.column_stack([rows, cols]))


def full_graph(n: int) -> SparseAdjacency:
    """The complete graph on n nodes: all n(n-1)/2 edges."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    i, j = np.triu_indices(n, k=1)
    return SparseAdjacency(n=n, edges=np.column_stack([i, j]))


def build_graph(ds, config: GraphBuildConfig) -> SparseAdjacency:
    """Dispatch to the construction selected by the config."""
    if config.method == "knn":
        return knn_graph(ds, config.k, config.metric)
    if config.method == "epsilon":
        return epsilon_graph(ds, config.eps, config.metric)
    return full_graph(len(_features(ds)))


def normalize(A: SparseAdjacency) -> PropagationMatrix:
    """Renormalize the adjacency: add self-loops, then scale by inverse sqrt degrees.

    Degrees are computed fully before any scaling, and the CSR entries are
    laid out row-major in ascending column order, so the construction is
    bit-reproducible.  nnz = 2 * |edges| + n; isolated nodes get d_hat = 1.
    """
    n = A.n
    d_hat = (A.degrees() + 1).astype(np.float64)
    e = A.edges
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(n)])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    data = np.where(rows == cols, 1.0 / d_hat[rows], 1.0 / np.sqrt(d_hat[rows] * d_hat[cols]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return PropagationMatrix(n=n, indptr=indptr, indices=cols, data=data, d_hat=d_hat)


# --- edge-list file format ---------------------------------------------------
#
#   #nodes=<n>
#   0\t1
#   1\t2
#
# One edge per line as "i<TAB>j" with i < j, 0-based, lines sorted; the
# writer always emits the #nodes header (the loader needs it whenever
# isolated nodes exist).


def save_graph(A: SparseAdjacency, path) -> None:
    """Write the canonical edge-list file for an adjacency."""
    lines = [f"#nodes={A.n}"]
    lines.extend(f"{i}\t{j}" for i, j in A.edges.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> SparseAdjacency:
    """Read an edge-list file; raises on self-loops, duplicates, malformed lines."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\r") for ln in fh.read().split("\n")]
    if lines and lines[-1] == "":
        lines.pop()
    n = None
    pairs = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        if line.startswith("#"):
            if not line.startswith("#nodes=") or lineno != 1:
                raise ValueError(f"line {lineno}: unrecognized comment {line!r}")
            try:
                n = int(line[len("#nodes="):])
            except ValueError:
                raise ValueError(f"line {lineno}: malformed #nodes header {line!r}") from None
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: malformed edge line {line!r}")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: malformed edge line {line!r}") from None
        if i == j:
            raise ValueError(f"line {lineno}: self-loop {i}")
        if i > j or i < 0:
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
