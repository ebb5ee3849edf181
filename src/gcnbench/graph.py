"""Similarity graphs over embedding vectors and the renormalized propagation matrix.

Three constructions are supported: k-nearest-neighbor with OR-symmetrization,
epsilon-neighborhood (strict <), and the fully connected graph.  Neighbor
search is exact and O(n^2), which is fine at desk scale (n up to ~10^4): blocks
of rows get distance bounds from one GEMM each, on one thread per usable CPU,
and only rows those bounds leave undecided are recomputed with the exact
per-row formula (filter and refine, _distance_bounds).
"""

from __future__ import annotations

import os
import re
import threading
from dataclasses import dataclass

import numpy as np

from .checks import check_floats, check_indices, check_type

METRICS = ("euclidean", "cosine")
# the GraphBuildConfig settings each method reads besides its name
METHOD_SETTINGS = {"knn": ("k", "metric"), "epsilon": ("eps", "metric"), "full": ()}
METHODS = tuple(METHOD_SETTINGS)
# bytes of gathered entries x columns per block of the sparse row sum, _sum_rows
MATMUL_BLOCK_BYTES = 512 * 1024
# rows per block of the k-NN and epsilon filters: each thread holds two block x n float buffers
DISTANCE_BLOCK_ROWS = 64


def usable_cpus() -> int:
    """How many CPUs this process may run on (os.sched_getaffinity), or 1 on a platform
    without CPU affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


@dataclass
class GraphBuildConfig:
    """How to turn embedding vectors into a similarity graph."""

    method: str = "knn"
    k: int = 5
    eps: float | None = None
    metric: str = "euclidean"

    def __post_init__(self):
        check_type("k", self.k, int, 1 if self.method == "knn" else None)
        if self.eps is not None:
            check_type("eps", self.eps, float)
        if self.method not in METHODS:
            raise ValueError(f"unknown graph method {self.method!r}, expected one of {METHODS}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}, expected one of {METRICS}")
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
        check_type("n", self.n, int, 1)
        edges = check_indices("edges", self.edges, self.n)
        if edges.size and edges.shape[1:] != (2,):
            raise ValueError(f"edges must be an m x 2 array of pairs, got shape {edges.shape}")
        edges = edges.reshape(-1, 2)
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
    1/d_hat_i.  Stored in CSR form, checked on construction: indptr runs from 0 to nnz
    and rises at every stored row, so no stored row is empty (a full or take_rows matrix
    holds every diagonal), indices and rows lie in 0..n-1 and data is finite.  Stored
    row r is node rows[r]'s: all n in order, or those of a take_rows cut.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.indices = check_indices("indices", self.indices, self.n, (None,))
        self.rows = check_indices("rows", self.rows, self.n, (None,))
        self.data = check_floats("data", self.data, self.indices.shape)
        ptr = self.indptr = check_indices("indptr", self.indptr, shape=(len(self.rows) + 1,))
        if ptr[0] != 0 or ptr[-1] != self.nnz:
            raise ValueError(f"indptr must run from 0 to nnz={self.nnz} in {len(self.rows)} steps")
        r = np.flatnonzero(np.diff(ptr) < 1)  # an empty stored row, or a negative count
        if len(r):
            raise ValueError(f"indptr must rise at every stored row, not at row {r[0]} (node {self.rows[r[0]]})")

    @property
    def nnz(self) -> int:
        return len(self.data)

    def take_rows(self, rows) -> PropagationMatrix:
        """The cut to stored rows ``rows`` (any order, repeats allowed), full segments kept."""
        rows = check_indices("rows", rows, len(self.rows), (None,))
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        # the position in indices/data of every entry of the chosen row segments
        entries = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        return PropagationMatrix(self.n, indptr, self.indices[entries], self.data[entries],
                                 self.rows[rows])

    def take_entries(self, keep) -> PropagationMatrix:
        """The same stored rows with only the entries where ``keep`` (one bool per stored
        entry) is true, in their order.  Raises if ``keep`` is no bool array of that length
        (a string, int or float mask is not read as truth values) or a row would be left with
        no entry."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != self.data.shape:
            raise ValueError(f"keep must be a bool array with one flag per stored entry ({self.nnz}), "
                             f"got {keep.dtype} of shape {keep.shape}")
        indptr = np.concatenate([[0], np.cumsum(keep)])[self.indptr]
        return PropagationMatrix(self.n, indptr, self.indices[keep], self.data[keep], self.rows)

    def row_blocks(self, cols: int):
        """Yield the stored rows in contiguous blocks whose gather of a ``cols``-column operand
        holds about MATMUL_BLOCK_BYTES, as (rows, entries, starts): the block's stored rows and
        their entries in indices/data, two slices, and each row's first entry counted from the
        block's first.  A block is max(1, MATMUL_BLOCK_BYTES // (8 * cols * ceil(nnz / stored
        rows))) rows, the last one fewer."""
        segment = -(-self.nnz // max(1, len(self.rows)))  # mean stored entries per row, rounded up
        block = max(1, MATMUL_BLOCK_BYTES // max(1, 8 * cols * segment))
        for i in range(0, len(self.rows), block):
            ptr = self.indptr[i:i + block + 1]
            yield slice(i, i + len(ptr) - 1), slice(ptr[0], ptr[-1]), ptr[:-1] - ptr[0]

    def matmul(self, M: np.ndarray) -> np.ndarray:
        """The stored rows of S @ M for a dense 2-D M (n x cols), summed by _sum_rows: all of
        S @ M, or a cut's rows in its order, which match the full product's bit for bit.  M is
        left unmodified."""
        M = check_floats("operand", M, (self.n, None))
        out = np.empty((len(self.rows), M.shape[1]))
        blocks = list(self.row_blocks(M.shape[1]))
        _sum_rows(self.indices, self.data[:, None], blocks, M, _gather_buffer(blocks, M.shape[1]), out)
        return out

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n, self.n))
        dense[np.repeat(self.rows, np.diff(self.indptr)), self.indices] = self.data
        return dense


def _sum_rows(cols: np.ndarray, weights: np.ndarray, blocks: list, M: np.ndarray, at: np.ndarray,
              out: np.ndarray) -> None:
    """The package's one sparse row sum: out = P @ M' on the stored rows of P, a PropagationMatrix
    or a cut of one, by blocks = list(P.row_blocks(M.shape[1])).  M holds the rows of M' that P
    reads, M' row P.indices[e] being M row cols[e] (M is M' itself with cols = P.indices), and
    weights[e] scales that row: P.data[:, None], or P.data widened to M's columns.

    Each block gathers its entries' rows of M into ``at`` (a _gather_buffer), scales them in
    place and sums each row's segment with np.add.reduceat, which is safe as no stored row
    segment is empty.  Its order is fixed for a NumPy build but is not a sequential sum, and a
    row is summed over its whole segment in any block, so the bits do not depend on the block
    size.  The gather is an np.take with mode="clip", as under mode="raise" NumPy gathers
    through a buffered copy of ``out``; it clips nothing: matmul's indices are P.indices, which
    __post_init__ checks lie in 0..n-1, for an M that check_floats gives n rows, and
    gcn._Epoch's are a checked cut's columns or positions in its N1 rows."""
    for rows, entries, starts in blocks:
        block = at[:entries.stop - entries.start]
        np.take(M, cols[entries], axis=0, out=block, mode="clip")
        np.multiply(block, weights[entries], out=block)
        np.add.reduceat(block, starts, axis=0, out=out[rows])


def _gather_buffer(blocks: list, cols: int) -> np.ndarray:
    """A buffer for _sum_rows' gather of a ``cols``-column operand by any of ``blocks``."""
    return np.empty((max((e.stop - e.start for _, e, _ in blocks), default=0), cols))


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
    X = check_floats("feature", getattr(ds, "X", ds), (None, None))
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


def _distance_bounds(X, norms, upper, decide):
    """The list of decide(first, lo, hi), in block order, over blocks of DISTANCE_BLOCK_ROWS
    rows from row ``first``: lo <= e <= hi for every pair, where e is what _distance_rows
    computes, squared for euclidean.  Columns are 0..n-1, or first..n-1 if ``upper``.
    lo and hi are views of two buffers that the thread's next block reuses, so decide
    keeps copies, and as the blocks run at once on _run_blocks' threads, decide writes
    only its own block's part of shared arrays.  Each block's bits are those of one GEMM
    of its fixed rows, whatever the thread count.  X must come from _features, which
    puts it in the range where the bound below is proven; decides no block for
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
        return []
    margin = (4 * d + 24) * 2.0 ** -53
    if norms is None:
        sq = np.einsum("ij,ij->i", X, X)
        add_lo = sq * (1.0 - margin) - 2.0 ** -1000
        add_hi = sq * (1.0 + margin) + 2.0 ** -1000

    def bounds(first, lo_buf, hi_buf):
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
        return decide(first, lo, hi)

    return _run_blocks(bounds, range(0, n, DISTANCE_BLOCK_ROWS), min(DISTANCE_BLOCK_ROWS, n) * n)


def _run_blocks(block, firsts, size):
    """[block(first, lo_buf, hi_buf) for first in firsts], on min(usable_cpus(), len(firsts))
    threads.  Each thread reuses its own pair of ``size``-float buffers, allocated here in
    the calling thread; a single thread is the calling one.  Once a block raises, or the
    calling thread is interrupted (Ctrl-C), no thread starts another block.  Every thread
    is joined before this returns or raises, and the error raised is the first failing
    block's."""
    buffers = [(np.empty(size), np.empty(size)) for _ in range(min(usable_cpus(), len(firsts)))]
    if len(buffers) <= 1:
        return [block(first, *buffers[0]) for first in firsts]
    results, errors = [None] * len(firsts), {}
    todo, lock, stop = iter(range(len(firsts))), threading.Lock(), threading.Event()

    def work(lo_buf, hi_buf):
        while not stop.is_set():
            with lock:
                b = next(todo, None)
            if b is None:
                return
            try:
                results[b] = block(firsts[b], lo_buf, hi_buf)
            except BaseException as error:
                errors[b] = error
                stop.set()

    started = []
    try:
        for pair in buffers:
            started.append(threading.Thread(target=work, args=pair))
            started[-1].start()
        for thread in started:
            thread.join()
    finally:
        stop.set()  # a no-op unless the calling thread was interrupted or a start failed
        for thread in started:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


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
    row and one stable argsort per node, bit for bit.  The blocks are decided
    on every usable CPU; the exact rows follow serially, in row order.
    """
    X, _ = _features(ds, metric)
    n = len(X)
    check_type("k", k, int, 1, n - 1)
    norms = _row_norms(X, metric)
    nearest = np.empty((n, k), dtype=np.int64)
    decided = np.zeros(n, dtype=bool)

    def decide(first, lo, hi):
        rows = np.arange(len(lo))
        lo[rows, first + rows] = hi[rows, first + rows] = np.inf
        hi.partition(k - 1, axis=1)
        # one flat scan of the candidates (lo <= T), split into (row, column) in row-major order
        row, col = np.divmod(np.flatnonzero(lo <= hi[:, k - 1:k]), n)
        sure = np.bincount(row, minlength=len(lo)) == k
        nearest[first + rows[sure]] = col[sure[row]].reshape(-1, k)
        decided[first:first + len(lo)] = sure

    _distance_bounds(X, norms, False, decide)
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
    decided = np.zeros(n, dtype=bool)

    def decide(first, lo, hi):
        r = len(lo)
        # columns start at first: the block's j <= i form the lower triangle on the left
        lo[:, :r][below_diagonal[:r, :r]] = hi[:, :r][below_diagonal[:r, :r]] = np.inf
        # lo <= hi and eps_in <= eps_out, so every pair inside (hi < eps_in) is also near
        # (lo < eps_out): a row is sure when it has as many pairs inside as near
        i, j = np.divmod(np.flatnonzero(hi < eps_in), lo.shape[1])
        near = np.flatnonzero(lo < eps_out) // lo.shape[1]
        sure = np.bincount(i, minlength=r) == np.bincount(near, minlength=r)
        keep = sure[i]
        decided[first:first + r] = sure
        return np.column_stack([first + i[keep], first + j[keep]])

    blocks = _distance_bounds(X, norms, True, decide)
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
    check_type("n", n, int, 1)
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
    order = np.argsort(rows * n + cols)  # row-major: the keys are unique, so any sort will do
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
# isolated nodes exist).  _EDGE_FILE is the one form load_graph reads, lines in
# any order: 1-18 ASCII digits a number, so every number fits int64 and is read exactly.
_EDGE_FILE = re.compile(r"(?:#nodes=([0-9]{1,18})\n)?((?:[0-9]{1,18}\t[0-9]{1,18}\n)*)")


def save_graph(A: SparseAdjacency, path) -> None:
    """Write the canonical edge-list file for an adjacency."""
    names = list(map(str, range(A.n)))  # one string per node, not one f-string per edge
    i, j = A.edges.T.tolist()
    lines = map("\t".join, zip(map(names.__getitem__, i), map(names.__getitem__, j)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([f"#nodes={A.n}", *lines]) + "\n")


def load_graph(path) -> SparseAdjacency:
    """Read an edge-list file of _EDGE_FILE's form, its lines in any order; raises on any
    other line, a self-loop, i > j or a repeated pair, naming the first bad line.

    One vectorized pass parses the longest prefix of whole lines in the form, and a file
    that is all prefix is checked as a whole by SparseAdjacency.  Only a file that fails
    is looked at again: its first bad line is the first prefix line that breaks i < j or
    repeats an earlier pair, else the first line outside the form.  An endpoint outside
    0..n-1 is SparseAdjacency's error, which names no line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise ValueError("empty edge list without a #nodes header")
    text += "" if text.endswith("\n") else "\n"
    match = _EDGE_FILE.match(text)
    header, body = match.groups()
    edges = np.fromstring(body, dtype=np.int64, sep=" ").reshape(-1, 2)
    end = match.end()
    if end == len(text):
        try:
            return SparseAdjacency(n=int(header) if header else int(edges.max()) + 1, edges=edges)
        except ValueError as error:
            fault = error
    i, j = edges.T
    order = np.lexsort((j, i))  # stable: of equal pairs, the earliest line comes first
    repeats = order[1:][(edges[order[1:]] == edges[order[:-1]]).all(axis=1)]
    k = int(np.concatenate([np.flatnonzero(i >= j), repeats]).min(initial=len(edges)))
    if k < len(edges):
        a, b = edges[k].tolist()
        if a == b:
            rule = f"self-loop {a}"
        elif a > b:
            rule = f"edge must satisfy 0 <= i < j, got {a}, {b}"
        else:
            rule = f"duplicate edge {a} {b}"
        raise ValueError(f"line {k + 1 + (header is not None)}: {rule}")
    if end == len(text):
        raise fault
    lineno = text.count("\n", 0, end) + 1
    line = text[end:text.index("\n", end)]
    if not line.startswith("#"):
        kind = "malformed edge line"
    elif lineno == 1 and line.startswith("#nodes="):
        kind = "malformed #nodes header"
    else:
        kind = "unrecognized comment"
    raise ValueError(f"line {lineno}: {kind} {line!r}")
