"""Embedding datasets: CSV ingest/emit, synthetic blobs, splits, label matrices.

All sampling goes through NumPy's default PCG64 generator, so a seed
reproduces the exact same split or dataset on any platform.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

from .checks import check_floats, check_indices, check_type


@dataclass
class EmbeddingDataset:
    """n embedding vectors with optional ground-truth class indices.

    ``truth`` is either None (no labels at all) or a length-n list whose
    entries are class indices in [0, C) or None for individually unlabeled
    rows.  ``class_names`` records the string-to-index mapping when the
    source file carried non-integer labels.  Every rule on the data is
    checked here; a fault in row i reads ``data row i+1:``, as in the CSV.
    """

    ids: list[str]
    X: np.ndarray
    C: int
    truth: list[int | None] | None = None
    class_names: list[str] | None = None

    def __post_init__(self):
        try:
            self.X = check_floats("embedding", self.X, (None, None))
        except ValueError as error:
            # the rule counts a non-finite row from 0, the CSV from 1
            row = str(error).removeprefix("embedding row ").partition(":")[0]
            if not row.isdigit():
                raise
            raise ValueError(f"data row {int(row) + 1}: non-finite embedding value") from None
        n, d = self.X.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one row and one column, got shape {self.X.shape}")
        if len(self.ids) != n:
            raise ValueError(f"{len(self.ids)} ids for {n} rows")
        for i, text_id in enumerate(self.ids):
            if not text_id or "," in text_id or "\n" in text_id or "\r" in text_id:
                raise ValueError(f"data row {i + 1}: id must be non-empty, with no comma or line break")
        check_type("C", self.C, int, 2)
        if self.truth is not None:
            if len(self.truth) != n:
                raise ValueError(f"{len(self.truth)} truth entries for {n} rows")
            # None marks an unlabeled row.  The class indices are checked all at once, and one
            # by one only after a fault, to name the first bad row
            classes = [0 if t is None else t for t in self.truth]
            try:
                check_indices("truth", classes, self.C)
            except ValueError:
                for i, t in enumerate(classes):
                    try:
                        check_indices("class index", [t], self.C)
                    except ValueError as error:
                        raise ValueError(f"data row {i + 1}: {error}") from None
                raise
            self.truth = [None if t is None else int(t) for t in self.truth]

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def L1(self) -> int:
        return self.X.shape[1]


@dataclass
class LabeledSplit:
    """Partition of node indices 0..n-1 into labeled and unlabeled sets."""

    labeled: np.ndarray
    unlabeled: np.ndarray

    def __post_init__(self):
        self.labeled = check_indices("labeled", self.labeled, shape=(None,))
        self.unlabeled = check_indices("unlabeled", self.unlabeled, shape=(None,))
        if len(self.labeled) < 1:
            raise ValueError("labeled set must be non-empty")
        n = len(self.labeled) + len(self.unlabeled)
        merged = np.sort(np.concatenate([self.labeled, self.unlabeled]))
        if not np.array_equal(merged, np.arange(n)):
            raise ValueError("labeled and unlabeled must partition 0..n-1")

    @property
    def l(self) -> int:
        return len(self.labeled)

    @property
    def u(self) -> int:
        return len(self.unlabeled)


def full_truth(ds: EmbeddingDataset) -> np.ndarray:
    """Ground-truth class indices as an int array; every row must be labeled."""
    if ds.truth is None or any(t is None for t in ds.truth):
        raise ValueError("dataset lacks ground truth for some rows")
    return np.asarray(ds.truth, dtype=np.int64)


def l2_normalize_rows(X) -> np.ndarray:
    """Scale every row to unit Euclidean norm (off by default everywhere)."""
    X = check_floats("X", X, (None, None))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    if (norms == 0.0).any():
        raise ValueError("cannot L2-normalize a zero row")
    return X / norms


# --- CSV format -------------------------------------------------------------
#
#   #classes=<C>                       (writer always emits it; optional on read)
#   id,label,e0,e1,...,e{L1-1}         ("label" column optional)
#   t1,0,0.25,-1.5,...
#
# Labels are integers in [0, C) or empty.  Non-integer label strings are
# accepted on read and mapped to 0..C-1 through a sorted lexicographic
# dictionary recorded in ``class_names``; the writer always emits integers.
# Floats are written with the shortest decimal that round-trips float64
# (at most 17 significant digits), so load(save(ds)) reproduces X bit-exactly.


def load_dataset(path) -> EmbeddingDataset:
    """Read an embedding CSV file one row at a time, or its sidecar when that is current.

    C is taken from the ``#classes=`` comment when present, otherwise
    inferred as max class index + 1 (floored at 2).  The parser only
    parses the rows and EmbeddingDataset checks them once every row is
    parsed; a fault in a data row raises ValueError starting with
    ``data row N:``.

    The result of a successful parse is kept in a sidecar file, ``<path>.gcnbench``,
    so that later loads of the same bytes skip the parse.  Its rules:

    - It is used only when ``path`` is a ``str`` or ``os.PathLike`` naming a regular
      file, and only on a platform with ``os.getuid``.
    - It holds the format version and the SHA-256 of the bytes parsed, then X as
      ``.npy``, then ids, C, truth and class names as one UTF-8 JSON object.
    - A load hashes the file and reads the sidecar only when it is a regular file the
      current user owns, of this version and with this digest.  X is read without
      unpickling, and EmbeddingDataset checks every rule again.  Any other sidecar is
      ignored, and the parse replaces it.
    - It is written to a temporary file in the same directory and renamed into place.
      A write that fails with OSError is skipped, so an unwritable directory only
      costs the parse.  A file that fails to parse gets no sidecar.

    SIDECAR_VERSION must be bumped whenever parsing semantics change, so that no
    sidecar outlives the rules that produced it.
    """
    name = os.fspath(path) if isinstance(path, (str, os.PathLike)) else None
    sidecar = name + SIDECAR_SUFFIX if isinstance(name, str) and hasattr(os, "getuid") else None
    with open(path, "rb", buffering=0) as raw:
        if sidecar is None or not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            return _parse_csv(raw)
        cached = _read_sidecar(sidecar, raw)
        if cached is not None:
            return cached
        raw.seek(0)
        digest = hashlib.sha256()
        ds = _parse_csv(_Hashing(raw, digest))
    _write_sidecar(sidecar, digest.hexdigest(), ds)
    return ds


def _parse_csv(raw) -> EmbeddingDataset:
    """The dataset an embedding CSV holds, parsed from the unbuffered binary reader ``raw``."""
    declared_c = None
    # universal-newline text mode: "\r\n" and "\r" arrive as "\n"
    with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
        lines = (line.removesuffix("\n") for line in fh)
        for line in lines:
            if not line.startswith("#"):
                break
            if not line.startswith("#classes="):
                raise ValueError(f"unrecognized comment line before header: {line!r}")
            if declared_c is not None:
                raise ValueError("duplicate #classes comment")
            try:
                declared_c = int(line[len("#classes="):])
            except ValueError:
                raise ValueError(f"malformed #classes comment: {line!r}") from None
        else:
            raise ValueError("missing header line")
        header = line.split(",")
        if header[0] != "id":
            raise ValueError("header must start with 'id'")
        has_label = len(header) > 1 and header[1] == "label"
        embed_cols = header[2:] if has_label else header[1:]
        if not embed_cols:
            raise ValueError("header declares no embedding columns")
        for j, name in enumerate(embed_cols):
            if name != f"e{j}":
                raise ValueError(f"embedding column {j} must be named 'e{j}', got {name!r}")
        width = len(header)
        skip = 1 + int(has_label)

        ids = []
        raw_labels = []
        # rows are parsed into one block that doubles when full and is trimmed once at the end
        X = np.empty((1024, len(embed_cols)))
        for r, line in enumerate(lines, start=1):
            cells = line.split(",")
            if len(cells) != width:
                raise ValueError(f"data row {r}: expected {width} columns, got {len(cells)}")
            ids.append(cells[0])
            if has_label:
                raw_labels.append(cells[1] if cells[1] != "" else None)
            if r > len(X):
                X.resize((2 * len(X), X.shape[1]), refcheck=False)
            try:
                X[r - 1] = cells[skip:]
            except ValueError:
                raise ValueError(f"data row {r}: non-numeric embedding cell") from None
    if not ids:
        raise ValueError("file contains no data rows")
    X.resize((len(ids), X.shape[1]), refcheck=False)

    truth, class_names = _decode_labels(raw_labels if has_label else None)
    if declared_c is not None:
        C = declared_c
    elif truth is not None and any(t is not None for t in truth):
        C = max(2, max(t for t in truth if t is not None) + 1)
    else:
        raise ValueError("class count unknown: file has no labels and no #classes comment")

    return EmbeddingDataset(ids=ids, X=X, C=C, truth=truth, class_names=class_names)


def _decode_labels(raw_labels):
    """Map raw label cells to class indices; strings go through a sorted dictionary."""
    if raw_labels is None:
        return None, None
    present = set(s for s in raw_labels if s is not None)
    if not present:
        return [None] * len(raw_labels), None
    try:
        as_int = {s: int(s) for s in present}
    except ValueError:
        names = sorted(present)
        index = {name: j for j, name in enumerate(names)}
        return [None if s is None else index[s] for s in raw_labels], names
    return [None if s is None else as_int[s] for s in raw_labels], None


# --- sidecar ----------------------------------------------------------------
#
#   gcnbench-sidecar <version> <SHA-256 of the CSV bytes, 64 hex digits>\n
#   X as .npy (format.write_array, no pickle)
#   {"ids": [...], "C": C, "truth": [...] or null, "class_names": [...] or null}

SIDECAR_SUFFIX = ".gcnbench"
# bump whenever parsing semantics change: a sidecar of another version is parsed again
SIDECAR_VERSION = 1
_SIDECAR_HEAD = b"gcnbench-sidecar %d " % SIDECAR_VERSION


class _Hashing(io.RawIOBase):
    """A reader that passes on ``raw``'s bytes and feeds each one to ``digest``."""

    def __init__(self, raw, digest):
        self._raw, self._digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self._digest.update(memoryview(buffer)[:n])
        return n


def _file_digest(raw) -> bytes:
    """The hex SHA-256 of the bytes left in the binary reader ``raw``."""
    digest = hashlib.sha256()
    reader, chunk = _Hashing(raw, digest), bytearray(1 << 16)
    while reader.readinto(chunk):
        pass
    return digest.hexdigest().encode("ascii")


def _read_sidecar(sidecar: str, raw) -> EmbeddingDataset | None:
    """The dataset that ``sidecar`` records for the bytes of ``raw``, or None if it is absent,
    not trusted, of another version or digest, or malformed."""
    try:
        # O_NONBLOCK: a FIFO in the sidecar's place must not wait for a writer
        fd = os.open(sidecar, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
    except OSError:
        return None
    with open(fd, "rb") as fh:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode) or info.st_uid != os.getuid():
            return None
        head = fh.read(len(_SIDECAR_HEAD) + 65)
        if head[:len(_SIDECAR_HEAD)] != _SIDECAR_HEAD or head[-1:] != b"\n":
            return None
        if head[len(_SIDECAR_HEAD):-1] != _file_digest(raw):
            return None
        try:
            X = np.lib.format.read_array(fh, allow_pickle=False)
            meta = json.loads(fh.read().decode("utf-8"))
            return EmbeddingDataset(ids=meta["ids"], X=X, C=meta["C"], truth=meta["truth"],
                                    class_names=meta["class_names"])
        except (ValueError, TypeError, KeyError):
            return None


def _write_sidecar(sidecar: str, digest: str, ds: EmbeddingDataset) -> None:
    """Record ``ds`` as the parse of the bytes whose hex SHA-256 is ``digest``.
    A write that fails with OSError leaves no file behind and is otherwise ignored."""
    folder, name = os.path.split(sidecar)
    try:
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=folder or os.curdir)
    except OSError:
        return
    try:
        with open(fd, "wb") as fh:
            fh.write(_SIDECAR_HEAD + digest.encode("ascii") + b"\n")
            np.lib.format.write_array(fh, ds.X, allow_pickle=False)
            meta = {"ids": ds.ids, "C": ds.C, "truth": ds.truth, "class_names": ds.class_names}
            fh.write(json.dumps(meta).encode("utf-8"))
        os.replace(tmp, sidecar)
        tmp = None
    except OSError:
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def save_dataset(ds: EmbeddingDataset, path) -> None:
    """Write the embedding CSV format row by row; load(save(ds)) reproduces X bit-exactly."""
    label_col = ds.truth is not None
    header = ["id"] + (["label"] if label_col else []) + [f"e{j}" for j in range(ds.L1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#classes={ds.C}\n{','.join(header)}\n")
        for i, row in enumerate(ds.X):
            cells = [ds.ids[i]]
            if label_col:
                t = ds.truth[i]
                cells.append("" if t is None else str(t))
            # repr of a Python float is its shortest round-trip decimal
            cells.extend(map(repr, row.tolist()))
            fh.write(",".join(cells) + "\n")


def synth_blobs(n: int, d: int, C: int, sep: float = 6.0, seed: int = 0) -> EmbeddingDataset:
    """Sample n points from C isotropic unit-variance Gaussian clusters.

    Cluster centers are mutually ``sep`` apart: scaled standard-basis
    vectors when d >= C (every pair exactly ``sep`` apart), otherwise
    evenly spaced along the first axis.  Class sizes differ by at most 1
    and the ground truth is recorded.
    """
    check_type("C", C, int, 2)
    check_type("n", n, int, C)
    check_type("d", d, int, 1)
    check_type("sep", sep, float, 0)
    check_type("seed", seed, int, 0)

    centers = np.zeros((C, d))
    if d >= C:
        for c in range(C):
            centers[c, c] = sep / math.sqrt(2.0)
    else:
        centers[:, 0] = np.arange(C) * sep

    sizes = [n // C + (1 if c < n % C else 0) for c in range(C)]
    truth = [c for c in range(C) for _ in range(sizes[c])]
    rng = np.random.default_rng(seed)
    X = centers[truth] + rng.standard_normal((n, d))
    ids = [f"s{i}" for i in range(n)]
    return EmbeddingDataset(ids=ids, X=X, C=C, truth=truth)


def make_split(ds: EmbeddingDataset, l: int, seed: int, stratified: bool = True) -> LabeledSplit:
    """Sample l labeled indices without replacement; deterministic given seed.

    Only rows with ground truth are drawn, or any row when the dataset has
    no ground truth at all.  Stratified sampling (the default) keeps
    per-class labeled counts within 1 of each other and requires ground
    truth and l >= C.  On a fully labeled dataset the draws are those of
    sampling from all n rows.
    """
    check_type("l", l, int, 1)
    check_type("seed", seed, int, 0)
    check_type("stratified", stratified, bool)
    n = ds.n
    # class index per row, -1 where a row has no ground truth
    truth = None if ds.truth is None else np.array([-1 if t is None else t for t in ds.truth])
    candidates = np.arange(n) if truth is None else np.flatnonzero(truth >= 0)
    if l > len(candidates):
        raise ValueError(f"need l <= {len(candidates)}, the rows that can be labeled, got {l}")
    rng = np.random.default_rng(seed)
    if stratified:
        if truth is None:
            raise ValueError("stratified split needs ground truth")
        if l < ds.C:
            raise ValueError(f"stratified split needs l >= C={ds.C}, got l={l}")
        base, extra = divmod(l, ds.C)
        bonus = set(rng.permutation(ds.C)[:extra].tolist())
        picks = []
        for c in range(ds.C):
            pool = np.flatnonzero(truth == c)
            quota = base + (1 if c in bonus else 0)
            if quota > len(pool):
                raise ValueError(f"class {c} has {len(pool)} points but the split needs {quota}")
            picks.append(rng.choice(pool, size=quota, replace=False))
        labeled = np.sort(np.concatenate(picks))
    else:
        labeled = np.sort(rng.choice(candidates, size=l, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[labeled] = False
    return LabeledSplit(labeled=labeled, unlabeled=np.flatnonzero(mask))


def labeled_classes(ds: EmbeddingDataset, split: LabeledSplit) -> np.ndarray:
    """Class indices of the split's labeled nodes; only those nodes need ground truth."""
    if ds.truth is None:
        raise ValueError("dataset has no ground truth")
    classes = [ds.truth[i] for i in split.labeled.tolist()]
    if None in classes:
        raise ValueError(f"labeled node {split.labeled[classes.index(None)]} has no ground truth")
    return np.asarray(classes, dtype=np.int64)


def build_label_matrix(ds: EmbeddingDataset, split: LabeledSplit) -> np.ndarray:
    """The float64 n-by-C training targets: one-hot rows for labeled nodes, zero rows elsewhere."""
    Y = np.zeros((ds.n, ds.C))
    Y[split.labeled, labeled_classes(ds, split)] = 1.0
    return Y
