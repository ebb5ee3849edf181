import io
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest

from gcnbench import dataset
from gcnbench.cli import main
from gcnbench.dataset import (
    EmbeddingDataset,
    LabeledSplit,
    build_label_matrix,
    full_truth,
    l2_normalize_rows,
    labeled_classes,
    load_dataset,
    make_split,
    save_dataset,
    synth_blobs,
)
from gcnbench.graph import knn_graph, load_graph, save_graph


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_two_row_file(tmp_path):
    path = write_csv(tmp_path, "id,label,e0,e1,e2\na,0,1.0,2.0,3.0\nb,1,4.0,5.0,6.0\n")
    ds = load_dataset(path)
    assert (ds.n, ds.L1, ds.C) == (2, 3, 2)
    assert ds.ids == ["a", "b"]
    assert ds.truth == [0, 1]
    assert np.array_equal(ds.X, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])


def test_load_reports_bad_column_count_row(tmp_path):
    rows = [f"t{r},0,0.0,0.0,0.0,0.0" for r in range(1, 9)]
    rows[4] = "t5,0,0.0,0.0,0.0"  # data row 5 drops one embedding cell
    path = write_csv(tmp_path, "id,label,e0,e1,e2,e3\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="row 5"):
        load_dataset(path)


def test_load_reports_non_numeric_cell(tmp_path):
    path = write_csv(tmp_path, "id,label,e0\na,0,1.0\nb,1,oops\n")
    with pytest.raises(ValueError, match="row 2.*non-numeric"):
        load_dataset(path)


def test_load_rejects_class_index_beyond_declared_c(tmp_path):
    path = write_csv(tmp_path, "#classes=2\nid,label,e0\na,0,1.0\nb,2,2.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_dataset(path)


@pytest.mark.parametrize("text, message", [
    ("#classes=3\n#classes=3\nid,label,e0\na,0,1.0\n", "duplicate #classes comment"),
    ("#classes=three\nid,label,e0\na,0,1.0\n", "malformed #classes comment: '#classes=three'"),
    ("#note\nid,label,e0\na,0,1.0\n", "unrecognized comment line before header: '#note'"),
    ("#classes=3\n", "missing header line"),
    ("", "missing header line"),
    ("name,label,e0\na,0,1.0\n", "header must start with 'id'"),
    ("id,label\na,0\n", "header declares no embedding columns"),
    ("id,label,e0,e2\na,0,1.0,2.0\n", "embedding column 1 must be named 'e1', got 'e2'"),
    ("#classes=3\nid,label,e0\n", "file contains no data rows"),
], ids=["duplicate-classes", "malformed-classes", "other-comment", "no-header", "empty",
        "header-without-id", "no-embedding-columns", "misnamed-column", "no-rows"])
def test_load_rejects_a_malformed_file_naming_the_fault(tmp_path, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_dataset(write_csv(tmp_path, text))


@pytest.mark.parametrize("rows, row, message", [
    (["a,0,1.0", ",1,2.0", "c,0,3.0"], 2, "id must be non-empty"),
    (["a,0,1.0", "b,1,2.0", "c,0,nan"], 3, "non-finite embedding value"),
    (["a,0,-inf", "b,1,2.0"], 1, "non-finite embedding value"),
    (["a,0,1.0", "b,1,2.0", "c,3,3.0"], 3, r"class index holds 3, outside 0\.\.2$"),
    (["a,0,1.0", "b,-1,2.0"], 2, r"class index holds -1, outside 0\.\.2$"),
    (["a,x,1.0", "b,y,2.0", "c,z,3.0", "d,w,4.0"], 3, r"class index holds 3, outside 0\.\.2$"),
], ids=["empty-id", "nan", "inf", "index-at-c", "negative-index", "too-many-names"])
def test_dataset_rule_faults_name_the_data_row(tmp_path, capsys, rows, row, message):
    path = write_csv(tmp_path, "#classes=3\nid,label,e0\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=f"^data row {row}: {message}"):
        load_dataset(path)
    assert main(["train", "--data", str(path), "--model", "logreg", "--labeled", "1",
                 "--uniform", "--out", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err.startswith(f"error: data row {row}: ")


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.csv")


def test_load_corpus_scale_file(tmp_path):
    # news-corpus shape: a couple thousand high-dimensional rows, 5 classes
    rng = np.random.default_rng(0)
    n, d, C = 2126, 1024, 5
    ds = EmbeddingDataset(
        ids=[f"t{i}" for i in range(n)],
        X=rng.random((n, d)).round(3),
        C=C,
        truth=rng.integers(0, C, size=n).tolist(),
    )
    path = tmp_path / "corpus.csv"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert (loaded.n, loaded.L1, loaded.C) == (2126, 1024, 5)


def test_string_labels_map_through_sorted_dictionary(tmp_path):
    path = write_csv(
        tmp_path,
        "id,label,e0\na,sport,1.0\nb,business,2.0\nc,tech,3.0\nd,business,4.0\n",
    )
    ds = load_dataset(path)
    assert ds.class_names == ["business", "sport", "tech"]
    assert ds.truth == [1, 0, 2, 0]
    assert ds.C == 3


def test_partially_labeled_file(tmp_path):
    path = write_csv(tmp_path, "#classes=2\nid,label,e0\na,0,1.0\nb,,2.0\n")
    ds = load_dataset(path)
    assert ds.truth == [0, None]


def test_unlabeled_file_needs_classes_comment(tmp_path):
    ok = write_csv(tmp_path, "#classes=4\nid,e0,e1\na,1.0,2.0\n", name="ok.csv")
    assert load_dataset(ok).C == 4
    bad = write_csv(tmp_path, "id,e0,e1\na,1.0,2.0\n", name="bad.csv")
    with pytest.raises(ValueError, match="class count unknown"):
        load_dataset(bad)


def test_csv_round_trip_is_bit_exact_and_byte_stable(tmp_path):
    rng = np.random.default_rng(3)
    ds = EmbeddingDataset(
        ids=[f"v{i}" for i in range(20)],
        X=rng.standard_normal((20, 6)) * 1e3,
        C=4,
        truth=[int(v) for v in rng.integers(0, 4, size=20)],
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    save_dataset(ds, first)
    loaded = load_dataset(first)
    assert np.array_equal(loaded.X, ds.X)
    assert loaded.ids == ds.ids and loaded.truth == ds.truth and loaded.C == ds.C
    save_dataset(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_csv_and_edge_list_with_other_line_breaks_load_as_their_lf_twins(tmp_path, newline):
    ds = synth_blobs(n=30, d=3, C=3, seed=0)
    save_dataset(ds, tmp_path / "lf.csv")
    save_graph(knn_graph(ds, k=3), tmp_path / "lf.edges")
    header, *pairs = (tmp_path / "lf.edges").read_text(encoding="utf-8").splitlines()
    # reversed lines are not in the writer's form, so they go through the line-by-line parser
    (tmp_path / "lf-reversed.edges").write_text("\n".join([header, *pairs[::-1]]), encoding="utf-8")
    for name in ("lf.csv", "lf.edges", "lf-reversed.edges"):
        (tmp_path / f"other-{name}").write_bytes((tmp_path / name).read_bytes().replace(b"\n", newline))

    loaded = load_dataset(tmp_path / "other-lf.csv")
    assert np.array_equal(loaded.X, ds.X) and (loaded.ids, loaded.truth, loaded.C) == (ds.ids, ds.truth, ds.C)
    for name in ("lf.edges", "lf-reversed.edges"):
        lf, other = load_graph(tmp_path / name), load_graph(tmp_path / f"other-{name}")
        assert other.n == lf.n and np.array_equal(other.edges, lf.edges)


def traced_peak(run) -> int:
    """The most bytes that Python objects and NumPy arrays made by ``run()`` held at once."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_dataset_peak_is_about_one_matrix(tmp_path):
    # rows are parsed as the file is read, into one block that grows by doubling:
    # no whole-file text, no list of lines, no list of rows copied into X at the end
    ds = synth_blobs(n=2000, d=128, C=4)
    save_dataset(ds, tmp_path / "blobs.csv")
    # the first load parses and writes the sidecar, the second reads it
    assert traced_peak(lambda: load_dataset(tmp_path / "blobs.csv")) <= 1.3 * ds.X.nbytes
    assert (tmp_path / "blobs.csv.gcnbench").is_file()
    assert traced_peak(lambda: load_dataset(tmp_path / "blobs.csv")) <= 1.3 * ds.X.nbytes


def test_save_dataset_peak_is_at_most_one_matrix(tmp_path):
    # each row is written as soon as it is formatted
    ds = synth_blobs(n=2000, d=128, C=4)
    assert traced_peak(lambda: save_dataset(ds, tmp_path / "blobs.csv")) <= ds.X.nbytes


def test_synth_blobs_balanced_and_deterministic():
    ds = synth_blobs(n=300, d=5, C=3, sep=4.0, seed=11)
    counts = np.bincount(full_truth(ds))
    assert counts.tolist() == [100, 100, 100]
    again = synth_blobs(n=300, d=5, C=3, sep=4.0, seed=11)
    assert np.array_equal(ds.X, again.X)
    assert ds.truth == again.truth and ds.ids == again.ids
    other = synth_blobs(n=300, d=5, C=3, sep=4.0, seed=12)
    assert not np.array_equal(ds.X, other.X)


def test_synth_blobs_uneven_sizes_differ_by_at_most_one():
    ds = synth_blobs(n=10, d=2, C=4, sep=1.0, seed=0)
    counts = np.bincount(full_truth(ds), minlength=4)
    assert counts.max() - counts.min() <= 1 and counts.sum() == 10


def test_synth_blobs_sep_zero_centers_coincide():
    ds = synth_blobs(n=3000, d=4, C=3, sep=0.0, seed=5)
    truth = full_truth(ds)
    for c in range(3):
        # with coincident centers every class is a standard normal around 0
        assert np.abs(ds.X[truth == c].mean(axis=0)).max() < 0.25


def test_synth_blobs_center_separation():
    ds = synth_blobs(n=9000, d=8, C=3, sep=6.0, seed=2)
    truth = full_truth(ds)
    means = np.stack([ds.X[truth == c].mean(axis=0) for c in range(3)])
    for a in range(3):
        for b in range(a + 1, 3):
            assert abs(np.linalg.norm(means[a] - means[b]) - 6.0) < 0.2


def test_synth_blobs_rejects_n_below_c():
    with pytest.raises(ValueError):
        synth_blobs(n=2, d=2, C=3, sep=1.0, seed=0)


@pytest.mark.parametrize("sep, message", [
    (float("nan"), "sep must be a finite number, got nan"),
    (float("inf"), "sep must be a finite number, got inf"),
    (-1.0, "sep must be >= 0, got -1.0"),
], ids=["nan", "inf", "-1.0"])
def test_synth_blobs_rejects_a_separation_that_is_not_finite_and_non_negative(sep, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        synth_blobs(n=6, d=2, C=3, sep=sep)


def test_make_split_is_partition():
    ds = synth_blobs(n=57, d=3, C=4, sep=2.0, seed=9)
    for seed in range(5):
        split = make_split(ds, 13, seed=seed)
        merged = np.sort(np.concatenate([split.labeled, split.unlabeled]))
        assert np.array_equal(merged, np.arange(57))
        assert split.l == 13 and split.u == 44


def test_make_split_stratified_balance():
    ds = synth_blobs(n=100, d=2, C=5, sep=3.0, seed=1)
    split = make_split(ds, 10, seed=0, stratified=True)
    counts = np.bincount(full_truth(ds)[split.labeled], minlength=5)
    assert counts.tolist() == [2, 2, 2, 2, 2]
    uneven = make_split(ds, 12, seed=0, stratified=True)
    counts = np.bincount(full_truth(ds)[uneven.labeled], minlength=5)
    assert counts.max() - counts.min() <= 1 and counts.sum() == 12


def test_make_split_exhaustive_budget():
    ds = synth_blobs(n=10, d=2, C=2, sep=1.0, seed=0)
    split = make_split(ds, 10, seed=3)
    assert split.u == 0 and split.l == 10


def test_make_split_two_seeds_differ():
    ds = synth_blobs(n=2126, d=4, C=5, sep=2.0, seed=0)
    a = make_split(ds, 10, seed=1)
    b = make_split(ds, 10, seed=2)
    assert not np.array_equal(a.labeled, b.labeled)


def test_make_split_deterministic():
    ds = synth_blobs(n=80, d=2, C=3, sep=2.0, seed=4)
    a = make_split(ds, 9, seed=123)
    b = make_split(ds, 9, seed=123)
    assert np.array_equal(a.labeled, b.labeled)


def test_make_split_errors():
    ds = synth_blobs(n=20, d=2, C=3, sep=2.0, seed=0)
    with pytest.raises(ValueError):
        make_split(ds, 0, seed=0)
    with pytest.raises(ValueError):
        make_split(ds, 21, seed=0)
    with pytest.raises(ValueError):
        make_split(ds, 2, seed=0, stratified=True)  # l < C
    unlabeled = EmbeddingDataset(ids=["a", "b", "c"], X=np.eye(3), C=2)
    with pytest.raises(ValueError, match="ground truth"):
        make_split(unlabeled, 2, seed=0, stratified=True)
    assert make_split(unlabeled, 2, seed=0, stratified=False).l == 2


def test_build_label_matrix_one_hot_rows():
    ds = EmbeddingDataset(ids=["a", "b", "c"], X=np.eye(3), C=3, truth=[2, 0, 1])
    split = make_split(ds, 3, seed=0, stratified=True)
    Y = build_label_matrix(ds, split)
    assert np.array_equal(Y[0], [0.0, 0.0, 1.0])
    assert Y.sum() == 3.0


def test_build_label_matrix_unlabeled_rows_zero():
    ds = synth_blobs(n=40, d=3, C=4, sep=2.0, seed=7)
    split = make_split(ds, 4, seed=1)
    Y = build_label_matrix(ds, split)
    assert Y.sum() == 4.0
    assert np.array_equal(Y[split.unlabeled].sum(axis=1), np.zeros(36))
    truth = full_truth(ds)
    for i in split.labeled:
        assert Y[i, truth[i]] == 1.0 and Y[i].sum() == 1.0


def test_build_label_matrix_requires_truth_on_labeled():
    ds = EmbeddingDataset(ids=["a", "b"], X=np.eye(2), C=2, truth=[0, None])
    # make_split no longer labels a row without ground truth, so the split is given directly
    split = LabeledSplit(labeled=[0, 1], unlabeled=[])
    with pytest.raises(ValueError, match="no ground truth"):
        build_label_matrix(ds, split)


def partially_labeled(n=20, missing=(2, 7, 11, 18)):
    ds = synth_blobs(n=n, d=3, C=2, sep=4.0, seed=0)
    return EmbeddingDataset(ids=ds.ids, X=ds.X, C=2,
                            truth=[None if i in missing else t for i, t in enumerate(ds.truth)])


@pytest.mark.parametrize("stratified", [True, False])
def test_make_split_labels_only_rows_with_ground_truth(stratified):
    ds = partially_labeled()
    for seed in range(20):
        split = make_split(ds, 16, seed=seed, stratified=stratified)
        assert not {2, 7, 11, 18} & set(split.labeled.tolist())
        assert len(labeled_classes(ds, split)) == 16
    with pytest.raises(ValueError, match="^l must be <= 16, the rows that can be labeled, got 17$"):
        make_split(ds, 17, seed=0, stratified=stratified)


def test_make_split_on_full_truth_draws_as_from_all_rows():
    ds = synth_blobs(n=30, d=2, C=3, sep=2.0, seed=0)
    for seed in range(5):
        expected = np.sort(np.random.default_rng(seed).choice(30, size=7, replace=False))
        assert np.array_equal(make_split(ds, 7, seed=seed, stratified=False).labeled, expected)


def test_l2_normalize_rows():
    X = np.array([[3.0, 4.0], [0.0, 2.0]])
    normed = l2_normalize_rows(X)
    assert np.allclose(np.linalg.norm(normed, axis=1), 1.0)
    assert np.array_equal(normed[0], [0.6, 0.8])
    with pytest.raises(ValueError, match="zero row"):
        l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_dataset_invariant_violations_rejected():
    with pytest.raises(ValueError):
        EmbeddingDataset(ids=["a"], X=np.array([[np.nan]]), C=2)
    with pytest.raises(ValueError):
        EmbeddingDataset(ids=["a", "b"], X=np.eye(2), C=1)
    with pytest.raises(ValueError):
        EmbeddingDataset(ids=["a", "b"], X=np.eye(2), C=2, truth=[0, 5])
    with pytest.raises(ValueError):
        EmbeddingDataset(ids=["has,comma", "b"], X=np.eye(2), C=2)


@pytest.mark.parametrize("truth, row, kind", [
    ([0.9, 1.7, True], 1, "float"),
    ([0, None, 1.0], 3, "float"),
    ([1, True, 0], 2, "bool"),
    ([np.int64(1), np.True_, 0], 2, "bool"),
    ([0, "1", 1], 2, "str"),
    ([0, 1, 2 ** 70], 3, None),
], ids=["floats", "float-after-none", "bool", "numpy-bool", "string", "past-int64"])
def test_truth_entries_must_be_integers_and_name_their_data_row(truth, row, kind):
    # int() once truncated 0.9 to 0 and 1.7 to 1, and read True as class 1
    fault = f"must hold integers, got {kind}" if kind else "holds an integer outside the 64-bit range"
    with pytest.raises(ValueError, match=f"^data row {row}: class index {fault}$"):
        EmbeddingDataset(ids=["a", "b", "c"], X=np.eye(3), C=3, truth=truth)


def test_class_count_and_truth_take_any_integer_type():
    # np.int64(3) was once "not an integer"; numpy truth entries are read as Python ints
    ds = EmbeddingDataset(ids=["a", "b", "c"], X=np.eye(3), C=np.int64(3),
                          truth=[np.int64(2), None, np.uint8(0)])
    assert ds.C == 3 and ds.truth == [2, None, 0] and type(ds.truth[0]) is int
    for C, message in ((2.0, "C must be an integer, got 2.0"), (True, "C must be an integer, got True"),
                       (1, "C must be >= 2, got 1")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EmbeddingDataset(ids=["a"], X=np.eye(1), C=C)


@pytest.mark.parametrize("call, message", [
    (lambda: EmbeddingDataset(ids=["a", "b"], X=np.ones(2), C=2),
     "embedding must have shape (any, any), got (2,)"),
    (lambda: EmbeddingDataset(ids=["a", "b"], X=np.ones((2, 0)), C=2),
     "need at least one row and one column, got shape (2, 0)"),
    (lambda: EmbeddingDataset(ids=["a"], X=np.eye(2), C=2), "1 ids for 2 rows"),
    (lambda: EmbeddingDataset(ids=["a", "b"], X=np.eye(2), C=2, truth=[0]), "1 truth entries for 2 rows"),
    (lambda: LabeledSplit(labeled=[], unlabeled=[0, 1]), "labeled set must be non-empty"),
    (lambda: LabeledSplit(labeled=[0, 2], unlabeled=[2]), "labeled and unlabeled must partition 0..n-1"),
    (lambda: synth_blobs(n=6, d=2, C=1), "C must be >= 2, got 1"),
    (lambda: synth_blobs(n=6, d=0, C=2), "d must be >= 1, got 0"),
    (lambda: labeled_classes(EmbeddingDataset(ids=["a", "b"], X=np.eye(2), C=2),
                             LabeledSplit(labeled=[0], unlabeled=[1])), "dataset has no ground truth"),
], ids=["x-1d", "x-no-columns", "ids-length", "truth-length", "split-empty", "split-not-partition",
        "synth-one-class", "synth-no-dimension", "labeled-classes-no-truth"])
def test_dataset_values_name_each_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# --- the sidecar: a load's parse, kept next to the CSV -------------------------


def same_dataset(a, b) -> bool:
    return (np.array_equal(a.X.view(np.int64), b.X.view(np.int64))
            and (a.ids, a.truth, a.C, a.class_names) == (b.ids, b.truth, b.C, b.class_names))


def count_parses(monkeypatch) -> list:
    """Make the CSV parser record each call in the returned list."""
    calls, parse = [], dataset._parse_csv

    def counted(raw):
        calls.append(raw)
        return parse(raw)

    monkeypatch.setattr(dataset, "_parse_csv", counted)
    return calls


@pytest.fixture
def named_csv(tmp_path):
    """A CSV with string labels, a partially labeled row and the path of its sidecar."""
    path = write_csv(tmp_path, "id,label,e0,e1\na,sport,0.1,-2.5\nb,,1e-300,3.0\n"
                               "c,tech,0.30000000000000004,7.0\nd,sport,-0.0,1.5\n")
    return path, tmp_path / ("data.csv" + dataset.SIDECAR_SUFFIX)


def test_a_second_load_reads_the_sidecar_instead_of_parsing(named_csv, monkeypatch):
    path, sidecar = named_csv
    first = load_dataset(path)
    assert sidecar.is_file()

    def no_parse(raw):
        raise AssertionError("parsed again")

    monkeypatch.setattr(dataset, "_parse_csv", no_parse)
    second = load_dataset(str(path))
    assert same_dataset(second, first) and second.class_names == ["sport", "tech"]
    assert second.truth == [0, None, 1, 0]


def test_a_csv_rewritten_with_the_same_size_and_mtime_is_parsed_again(named_csv):
    path, sidecar = named_csv
    load_dataset(path)
    before, old = os.stat(path), sidecar.read_bytes()
    path.write_text(path.read_text(encoding="utf-8").replace("7.0", "8.0"), encoding="utf-8")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(path).st_size == before.st_size and os.stat(path).st_mtime_ns == before.st_mtime_ns
    assert load_dataset(path).X[2, 1] == 8.0
    assert sidecar.read_bytes() != old
    assert load_dataset(path).X[2, 1] == 8.0


class Unpickled:
    """An object whose unpickling prints; a sidecar holding it must never be unpickled."""

    def __reduce__(self):
        return print, ("unpickled",)


def _pickled_x() -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.array([Unpickled()], dtype=object))
    return buffer.getvalue()


PICKLED_X = _pickled_x()


@pytest.mark.parametrize("damage", [
    lambda good: good[:len(good) // 2],
    lambda good: good[:80],
    lambda good: b"not a sidecar\n",
    lambda good: b"",
    lambda good: good.replace(b"gcnbench-sidecar %d " % dataset.SIDECAR_VERSION,
                              b"gcnbench-sidecar %d " % (dataset.SIDECAR_VERSION - 1), 1),
    lambda good: good[:good.index(b"\n") + 1] + PICKLED_X + good[good.index(b"{"):],
    lambda good: good[:good.rindex(b"{")] + b'{"ids": 5}',
], ids=["truncated", "header-only", "garbage", "empty", "old-version", "pickled-objects",
        "bad-json"])
def test_a_bad_sidecar_is_ignored_and_rewritten(named_csv, monkeypatch, capsys, damage):
    path, sidecar = named_csv
    first = load_dataset(path)
    good = sidecar.read_bytes()
    sidecar.write_bytes(damage(good))
    parses = count_parses(monkeypatch)
    assert same_dataset(load_dataset(path), first)
    assert len(parses) == 1 and sidecar.read_bytes() == good
    assert capsys.readouterr().out == ""


def test_a_sidecar_owned_by_another_user_is_ignored(named_csv, monkeypatch):
    path, sidecar = named_csv
    first = load_dataset(path)
    assert sidecar.is_file()
    uid = os.getuid()
    monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    parses = count_parses(monkeypatch)
    assert same_dataset(load_dataset(path), first) and len(parses) == 1


def test_without_getuid_no_sidecar_is_read_or_written(named_csv, monkeypatch):
    path, sidecar = named_csv
    first = load_dataset(path)
    good = sidecar.read_bytes()
    sidecar.unlink()
    monkeypatch.delattr(os, "getuid")
    parses = count_parses(monkeypatch)
    assert same_dataset(load_dataset(path), first) and not sidecar.exists()
    sidecar.write_bytes(good)
    assert same_dataset(load_dataset(path), first) and len(parses) == 2


def test_a_bytes_path_gets_no_sidecar(named_csv):
    path, sidecar = named_csv
    load_dataset(os.fsencode(path))
    assert not sidecar.exists()


def fail(*args, **kwargs):
    raise PermissionError("denied")


@pytest.mark.parametrize("step", ["mkstemp", "replace"])
def test_a_failed_sidecar_write_is_ignored_and_leaves_no_file(named_csv, monkeypatch, step):
    # tests may run as root, for whom no directory is read-only: the failure is patched in
    path, sidecar = named_csv
    monkeypatch.setattr(tempfile if step == "mkstemp" else os, step, fail)
    ds = load_dataset(path)
    assert ds.class_names == ["sport", "tech"]
    assert os.listdir(path.parent) == [path.name]


def test_a_fifo_is_parsed_and_gets_no_sidecar(tmp_path):
    ds = synth_blobs(n=40, d=3, C=3, seed=1)
    save_dataset(ds, tmp_path / "blobs.csv")
    fifo = tmp_path / "fifo.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write((tmp_path / "blobs.csv").read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        loaded = load_dataset(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert same_dataset(loaded, load_dataset(tmp_path / "blobs.csv"))
    assert sorted(os.listdir(tmp_path)) == ["blobs.csv", "blobs.csv.gcnbench", "fifo.csv"]


def test_a_file_that_fails_to_parse_gets_no_sidecar(tmp_path):
    path = write_csv(tmp_path, "#classes=3\nid,label,e0\na,0,1.0\nb,1,x\n")
    for _ in range(2):
        with pytest.raises(ValueError, match="^data row 2: non-numeric embedding cell$"):
            load_dataset(path)
    assert os.listdir(tmp_path) == ["data.csv"]
