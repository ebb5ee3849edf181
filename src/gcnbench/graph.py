"""Similarity graphs over embedding vectors and the renormalized propagation matrix.

Three constructions are supported: k-nearest-neighbor with OR-symmetrization,
epsilon-neighborhood (strict <), and the fully connected graph.  Neighbor
search is exact and O(n^2), which is fine at desk scale (n up to ~10^4): blocks
of rows get distance bounds from one GEMM each, and only rows those bounds
leave undecided are recomputed with the exact per-row formula (filter and
refine, _distance_bounds).
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass

import numpy as np

METRICS = ("euclidean", "cosine")
# the GraphBuildConfig settings each method reads besides its name
METHOD_SETTINGS = {"knn": ("k", "metric"), "epsilon": ("eps", "metric"), "full": ()}
METHODS = tuple(METHOD_SETTINGS)
# bytes of gathered entries x columns per block of PropagationMatrix.matmul
MATMUL_BLOCK_BYTES = 512 * 1024
# rows per block of the k-NN and epsilon filters: two block x n float buffers
DISTANCE_BLOCK_ROWS = 128


def check_type(name: str, value, kind: type) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a ``kind``: int, float or bool.
    A bool is no int or float, an int serves as a float, and a float must be finite
    (an int too, once converted: 10**400 is not)."""
    abc, expected = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
                     bool: (bool, "true or false")}[kind]
    if (not isinstance(value, abc) or isinstance(value, bool) != (kind is bool)
            or (kind is float and not abs(value) <= np.finfo(np.float64).max.item())):
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


def graph_config(settings: dict, prefix: str = "") -> GraphBuildConfig:
    """GraphBuildConfig from the settings a user gave; one that its method never reads
    is a ValueError naming it, with ``prefix`` (a CLI flag's "--") before each name."""
    cfg = GraphBuildConfig(**settings)
    unread = [name for name in settings if name not in ("method", *METHOD_SETTINGS[cfg.method])]
    if unread:
        names = ", ".join(prefix + name for name in unread)
        raise ValueError(f"graph method {cfg.method!r} does not read {names}")
    return cfg


@dataclass
class SparseAdjacency:
    """Undirected unweighted graph: unordered pairs {i, j}, i < j, no self-loops.

    Edges are stored canonically as an (m, 2) array sorted lexicographically,
    so equal graphs compare equal entry-for-entry.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        check_type("n", self.n, int)
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        edges = self.edges
        if isinstance(edges, np.ndarray) and edges.dtype != object:
            kinds = {edges.dtype.type}
        else:
            # each endpoint's own type: np.asarray would promote [[True, 2]] to int64
            edges = np.array(edges, dtype=object)
            kinds = set(map(type, edges.flat))
        wrong = sorted(t.__name__ for t in kinds if not issubclass(t, numbers.Integral) or t is bool)
        if edges.size and wrong:
            raise ValueError(f"edge endpoints must be integers, got {wrong[0]}")
        try:
            edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        except OverflowError:
            raise ValueError("edge endpoint outside the 64-bit integer range") from None
        if len(edges):
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValueError("edge endpoint outside 0..n-1")
            if (edges[:, 0] >= edges[:, 1]).any():
                raise ValueError("edges must satisfy i < j (no self-loops)")
            if not _strictly_increasing(edges):
                edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
                if not _strictly_increasing(edges):
                    raise ValueError("duplicate edge")
        self.edges = edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)

    def edge_set(self) -> set:
        return {(int(i), int(j)) for i, j in self.edges}


def _strictly_increasing(edges) -> bool:
    """Whether the (m, 2) pairs are sorted and unique, as the builders and edge loader give them."""
    i, j = edges[:, 0], edges[:, 1]
    return bool(((i[1:] > i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] > j[:-1]))).all())


@dataclass
class PropagationMatrix:
    """Sparse symmetric smoothing operator: adjacency plus self-loops, degree-renormalized.

    With A_hat = A + I and d_hat the row sums of A_hat, the entry for a
    connected pair (i, j) is 1/sqrt(d_hat_i * d_hat_j) and the diagonal is
    1/d_hat_i.  Stored in CSR form, and no stored row is empty: a full or take_rows
    matrix holds every diagonal, and take_entries rejects a cut that leaves a row empty.
    Stored row r is node rows[r]'s: all n in order, or those of a take_rows cut.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.data)

    def take_rows(self, rows) -> PropagationMatrix:
        """The cut to stored rows ``rows`` (any order, repeats allowed), full segments kept."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= len(self.rows)):
            raise ValueError(f"row index outside 0..{len(self.rows) - 1}")
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        # the position in indices/data of every entry of the chosen row segments
        entries = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        return PropagationMatrix(self.n, indptr, self.indices[entries], self.data[entries],
                                 self.rows[rows])

    def take_entries(self, keep) -> PropagationMatrix:
        """The same stored rows with only the entries where ``keep`` (one bool per stored
        entry) is true, in their order.  Raises if a row would be left with no entry."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.data.shape:
            raise ValueError(f"need one flag per stored entry ({self.nnz}), got {keep.shape}")
        indptr = np.concatenate([[0], np.cumsum(keep)])[self.indptr]
        empty = np.flatnonzero(indptr[1:] == indptr[:-1])
        if len(empty):
            raise ValueError(f"row {self.rows[empty[0]]} would keep no entry")
        return PropagationMatrix(self.n, indptr, self.indices[keep], self.data[keep], self.rows)

    def matmul(self, M: np.ndarray) -> np.ndarray:
        """The stored rows of S @ M for dense M: all of S @ M, or a cut's rows in its order.

        Rows go in contiguous blocks whose gather holds about MATMUL_BLOCK_BYTES: a block
        is max(1, MATMUL_BLOCK_BYTES // (8 * cols * ceil(nnz / stored rows))) rows, fixed
        per call.  A block gathers M at its rows' column segments, scales that copy in place
        and sums each segment with np.add.reduceat, in an order fixed for a given NumPy build
        that is not a sequential ascending-column sum.  Every row is summed over its whole
        stored segment whatever the block, so the product does not depend on the block size,
        and a take_rows cut's rows match the full product bit for bit.  M is left unmodified."""
        M = np.asarray(M, dtype=np.float64)
        if M.shape[0] != self.n:
            raise ValueError(f"operand has {M.shape[0]} rows, matrix is {len(self.rows)}x{self.n}")
        out = np.empty((len(self.rows),) + M.shape[1:])
        segment = -(-self.nnz // max(1, len(self.rows)))  # mean stored entries per row, rounded up
        block = max(1, MATMUL_BLOCK_BYTES // max(1, 8 * M[0].size * segment))
        for i in range(0, len(self.rows), block):
            ptr = self.indptr[i:i + block + 1]
            contrib = M[self.indices[ptr[0]:ptr[-1]]]
            contrib *= self.data[ptr[0]:ptr[-1], None]
            # reduceat is safe because no stored row segment is empty (see the class docstring)
            out[i:i + block] = np.add.reduceat(contrib, ptr[:-1] - ptr[0], axis=0)
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[np.repeat(self.rows, np.diff(self.indptr)), self.indices] = self.data
        return dense


def _features(ds, metric=None):
    """The builders' one input step: (X, shift) with X a 2-D, all-finite float matrix
    whose distances are the input's times 2^shift, scaled by powers of two, which is
    exact, into the range _distance_bounds and _distance_rows are proven for.

    Cosine ignores each row's scale: a row whose largest |x| lies outside 2^-240..2^240
    is scaled into [0.5, 1), so every row norm lies within 2^-250..2^250 for d <= 10^6.
    Euclidean scales all of X by the power of two nearest 1 that puts every nonzero |x|
    in [2^-458, 2^400): entries that differ then do so by at least 2^-510, so no squared
    difference underflows, and nothing overflows.  Data no power of two fits is a
    ValueError.  Data already in range is left as it is, bit for bit."""
    X = np.asarray(getattr(ds, "X", ds), dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-D feature matrix")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"feature row {int(np.argmin(finite))}: non-finite value")
    shift = 0
    if metric == "cosine":
        peak = np.maximum(X.max(axis=1, initial=0.0), -X.min(axis=1, initial=0.0))
        far = (peak < 2.0 ** -240) | (peak > 2.0 ** 240)
        if far.any():
            X = X.copy()
            X[far] = np.ldexp(X[far], -np.frexp(peak[far])[1][:, None])
    elif metric == "euclidean":
        low = np.abs(X).min(axis=1, where=X != 0.0, initial=np.inf)  # smallest nonzero |x|
        high = max(X.max(initial=0.0), -X.min(initial=0.0))
        if low.min(initial=np.inf) < 2.0 ** -458 or high >= 2.0 ** 400:
            # 2^s puts every nonzero |x| in [2^-458, 2^400) exactly when least <= s <= most
            least = -457 - int(np.frexp(low.min())[1])
            most = 400 - int(np.frexp(high)[1])
            if least > most:
                raise ValueError(f"feature row {int(np.argmin(low))}: euclidean distance underflows "
                                 f"float64; the features span too many orders of magnitude")
            shift = min(max(0, least), most)
            X = np.ldexp(X, shift)
    return X, shift


def _row_norms(X, metric):
    """The row norms cosine divides by (None for euclidean), checked before any distance."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "euclidean":
        return None
    norms = np.linalg.norm(X, axis=1)
    if (norms == 0.0).any():
        raise ValueError("cosine distance undefined for a zero vector")
    return norms


def _distance_rows(X, norms, rows):
    """Yield (i, row i of the exact n x n distance matrix of X) for each i in ``rows``.

    This is the exact formula, one fresh row at a time: euclidean
    sqrt(sum((X - x)^2)), or cosine 1 - (X @ x) / (norms * norm) (``norms`` from
    _row_norms; None means euclidean).  The blocked builders call it only for
    the rows their rounding bounds cannot decide.  A cosine self-distance may
    miss 0 by rounding; the builders never use it.  X comes from _features, where
    nothing in the formula over- or underflows."""
    for i in rows:
        x = X[i]
        if norms is None:
            yield i, np.sqrt(((X - x) ** 2).sum(axis=1))
        else:
            yield i, 1.0 - (X @ x) / (norms * norms[i])


def _distance_bounds(X, norms, upper):
    """Yield (first, lo, hi) for blocks of DISTANCE_BLOCK_ROWS rows from row ``first``:
    lo <= e <= hi for every pair, where e is what _distance_rows computes, squared
    for euclidean.  Columns are 0..n-1, or first..n-1 if ``upper``.  lo and hi are
    views of two buffers reused by the next block.  X must come from _features,
    which puts it in the range where the bound below is proven; yields nothing for
    d > 10^6, where it is not.

    The bound.  Let u = 2^-53, d the width of X and a, b two rows.  Every
    rounded operation is off by at most u times its result, and a dot product
    or sum of squares over d terms, whatever order and fused multiply-adds BLAS
    uses, by at most d u sum_k |a_k b_k| <= d u |a| |b| (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3).  To first order in u:

    - euclidean, N = |a|^2 + |b|^2 and D = |a - b|^2 <= 2N.  The exact e^2 is
      within (d + 4) u D <= (2d + 8) u N of D (difference, square, d - 1 sums,
      sqrt, squared), and the estimate |a|^2 + |b|^2 - 2 a.b within (2d + 4) u N
      (d u N from the norms, d u N from 2 a.b, 2 u N from each of two sums).
      The margin c N, c = (4d + 24) u, is folded into the norms: hi adds
      |a|^2 (1 + c) + p and |b|^2 (1 + c) + p to -2 a.b, lo the same with 1 - c
      and -p.  Rounding the folded norms costs 3 u N, which leaves 9 u N for the
      higher-order terms.  p = 2^-1000 exceeds the (4d + 2) 2^-1075 that
      underflowing products can add.  Proven for d <= 10^6 and |x|^2 <= 2^1000,
      where nothing overflows.
    - cosine, t = 1 - cos(a, b) and |cos| <= 1.  Each norm is within
      (d/2 + 1) u of the true one, so the exact 1 - (a.b) / (|a| |b|) is within
      (2d + 6) u of t, and the estimate's (a / |a|) . b / |b| within (2d + 4) u
      of cos.  With m = (4d + 24) u, hi = (1 + m) - estimate and
      lo = (1 - m) - estimate cost 3 u to round, which leaves 11 u.  Proven for
      d <= 10^6 and row norms within 2^-250..2^250, where no norm product
      under- or overflows and underflowing products add under d 2^-825.
    """
    n, d = X.shape
    if d > 10 ** 6:
        return
    margin = (4 * d + 24) * 2.0 ** -53
    if norms is None:
        sq = np.einsum("ij,ij->i", X, X)
        add_lo = sq * (1.0 - margin) - 2.0 ** -1000
        add_hi = sq * (1.0 + margin) + 2.0 ** -1000
    size = min(DISTANCE_BLOCK_ROWS, n) * n
    lo_buf, hi_buf = np.empty(size), np.empty(size)
    for first in range(0, n, DISTANCE_BLOCK_ROWS):
        block = slice(first, min(first + DISTANCE_BLOCK_ROWS, n))
        cols = slice(first if upper else 0, n)
        shape = (block.stop - first, n - cols.start)
        lo = lo_buf[:shape[0] * shape[1]].reshape(shape)
        hi = hi_buf[:shape[0] * shape[1]].reshape(shape)
        if norms is None:
            # -2 a.b exactly as -2 times the dot product, as the scale is a power of two
            np.matmul(-2.0 * X[block], X[cols].T, out=lo)
            np.add(lo, add_hi[cols], out=hi)
            hi += add_hi[block, None]
            lo += add_lo[cols]
            lo += add_lo[block, None]
        else:
            np.matmul(X[block] / norms[block, None], X[cols].T, out=lo)
            lo /= norms[cols]
            np.subtract(1.0 + margin, lo, out=hi)
            np.subtract(1.0 - margin, lo, out=lo)
        yield first, lo, hi


def knn_graph(ds, k: int, metric: str = "euclidean") -> SparseAdjacency:
    """k-nearest-neighbor graph with OR-symmetrization.

    {i, j} is an edge if j is among the k nearest neighbors of i or i is
    among the k nearest of j.  Ties at the k-th distance admit the lower
    index, so each node contributes exactly its k nearest before the union.
    Exact, by filter and refine: for each block of rows, one GEMM gives
    bounds lo <= distance <= hi (_distance_bounds).  With T the k-th smallest
    hi of a row, self excluded, every true neighbor has lo <= T; when exactly
    k entries do, they are the k nearest.  Any other row gets its exact
    distance row and the stable argsort, so the edges are those of one exact
    row and one stable argsort per node, bit for bit.
    """
    check_type("k", k, int)
    X, _ = _features(ds, metric)
    n = len(X)
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1={n - 1}, got k={k}")
    norms = _row_norms(X, metric)
    nearest = np.empty((n, k), dtype=np.int64)
    decided = np.zeros(n, dtype=bool)
    for first, lo, hi in _distance_bounds(X, norms, upper=False):
        rows = np.arange(len(lo))
        lo[rows, first + rows] = hi[rows, first + rows] = np.inf
        hi.partition(k - 1, axis=1)
        # one flat scan of the candidates (lo <= T), split into (row, column) in row-major order
        row, col = np.divmod(np.flatnonzero(lo <= hi[:, k - 1:k]), n)
        sure = np.bincount(row, minlength=len(lo)) == k
        nearest[first + rows[sure]] = col[sure[row]].reshape(-1, k)
        decided[first:first + len(lo)] = sure
    for i, d in _distance_rows(X, norms, np.flatnonzero(~decided)):
        d[i] = np.inf
        # stable sort keeps the lower index first among exact ties
        nearest[i] = np.argsort(d, kind="stable")[:k]
    # one sort of the unordered pairs as keys min * n + max, which also drops repeats
    i, j = np.repeat(np.arange(n), k), nearest.ravel()
    keys = np.unique(np.minimum(i, j) * n + np.maximum(i, j))
    return SparseAdjacency(n=n, edges=np.column_stack(np.divmod(keys, n)))


def epsilon_graph(ds, eps: float, metric: str = "euclidean") -> SparseAdjacency:
    """Connect every pair at distance strictly smaller than eps.

    Exact, by filter and refine like knn_graph: a pair j > i is in when its
    bound hi < eps and out when lo >= eps (squared for euclidean, against
    eps^2 rounded outward); a row with any other pair gets its exact distance
    row and the strict < eps test."""
    check_type("eps", eps, float)
    if eps <= 0:
        raise ValueError(f"need eps > 0, got {eps}")
    X, shift = _features(ds, metric)
    # the clip keeps eps normal, so exactly scaled, and eps^2 finite; it changes no comparison,
    # as no distance of _features' X lies between 2^-600 and 2^-510 or beyond 2^412
    with np.errstate(over="ignore"):
        eps = float(np.clip(np.ldexp(eps, shift), 2.0 ** -600, 2.0 ** 500))
    n = len(X)
    norms = _row_norms(X, metric)
    eps_in = eps_out = eps
    if norms is None:  # euclidean bounds are squared: eps^2 rounded down for "in", up for "out"
        eps_in, eps_out = np.nextafter(eps * eps, -np.inf), np.nextafter(eps * eps, np.inf)
    below_diagonal = np.tri(min(DISTANCE_BLOCK_ROWS, n), dtype=bool)
    blocks, decided = [], np.zeros(n, dtype=bool)
    for first, lo, hi in _distance_bounds(X, norms, upper=True):
        r = len(lo)
        # columns start at first: the block's j <= i form the lower triangle on the left
        lo[:, :r][below_diagonal[:r, :r]] = hi[:, :r][below_diagonal[:r, :r]] = np.inf
        # lo <= hi and eps_in <= eps_out, so every pair inside (hi < eps_in) is also near
        # (lo < eps_out): a row is sure when it has as many pairs inside as near
        i, j = np.divmod(np.flatnonzero(hi < eps_in), lo.shape[1])
        near = np.flatnonzero(lo < eps_out) // lo.shape[1]
        sure = np.bincount(i, minlength=r) == np.bincount(near, minlength=r)
        keep = sure[i]
        blocks.append(np.column_stack([first + i[keep], first + j[keep]]))
        decided[first:first + r] = sure
    # flat int lists: one small array per row fragmented the heap (+5 MB peak RSS at n=5000)
    rows, cols = [], []
    for i, d in _distance_rows(X, norms, np.flatnonzero(~decided)):
        js = (i + 1 + np.flatnonzero(d[i + 1:] < eps)).tolist()
        rows += [i] * len(js)
        cols += js
    blocks.append(np.column_stack([np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)]))
    return SparseAdjacency(n=n, edges=np.concatenate(blocks))


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
    return full_graph(len(_features(ds)[0]))


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
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return PropagationMatrix(n=n, indptr=indptr, indices=cols, data=data, rows=np.arange(n))


# --- edge-list file format ---------------------------------------------------
#
#   #nodes=<n>
#   0\t1
#   1\t2
#
# One edge per line as "i<TAB>j" with i < j, 0-based, lines sorted; the
# writer always emits the #nodes header (the loader needs it whenever
# isolated nodes exist).  load_graph reads a file of _EDGE_FILE's form in one
# pass: 1-18 ASCII digits a number, so every number fits int64 and is read exactly.
_EDGE_FILE = re.compile(r"(?:#nodes=([0-9]{1,18})\n)?((?:[0-9]{1,18}\t[0-9]{1,18}\n)*)")


def save_graph(A: SparseAdjacency, path) -> None:
    """Write the canonical edge-list file for an adjacency."""
    lines = [f"#nodes={A.n}"]
    lines.extend(f"{i}\t{j}" for i, j in A.edges.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> SparseAdjacency:
    """Read an edge-list file; raises on self-loops, duplicates, malformed lines.

    A file of _EDGE_FILE's form, its lines in any order, is parsed in one vectorized
    pass and checked as a whole by SparseAdjacency.  Any other file, or one that
    breaks a rule, goes through the line-by-line parser, which names the first bad line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    match = _EDGE_FILE.fullmatch(text if text.endswith("\n") else text + "\n")
    if match:
        header, body = match.groups()
        edges = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
        n = int(header) if header is not None else int(edges.max(initial=-1)) + 1
        try:
            return SparseAdjacency(n=n, edges=edges)
        except ValueError:
            pass
    return _parse_edge_lines(text)


def _parse_edge_lines(text) -> SparseAdjacency:
    """The line-by-line edge-list parser: raises on the first bad line, naming it."""
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
