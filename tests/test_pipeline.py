"""End-to-end Ray pipeline tests, including the equality gate
(FIXTURES §5): the distributed extraction must match a single-threaded
reference-kernel run row for row under stable (conv_id, turn_idx)
order."""

import json
import os

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def turns_table():
    from pdf4py_ray.sources.transcripts import synth_transcripts

    return synth_transcripts(SF_DIR, ray_data=False)


def reference_extraction(turns: pa.Table) -> list:
    """Single-threaded kernel run — the equality-gate oracle."""
    from pdf4py_ray.stages.extract import ExtractTurns

    ex = ExtractTurns()
    rows = []
    for row in turns.to_pylist():
        kind, text, spans, n_objects, n_bytes, status, error = ex.extract_one(
            row["text"] or "", row["tool"] or ""
        )
        rows.append(
            {
                "conv_id": row["conv_id"],
                "turn_idx": row["turn_idx"],
                "kind": kind,
                "extracted_text": text,
                "status": status,
            }
        )
    rows.sort(key=lambda r: (r["conv_id"], r["turn_idx"]))
    return rows


def table_source(table: pa.Table, concurrency=2):
    """An extraction source over an in-memory turns table (no split
    points, no identity) for tests of the stage and the terminals."""
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import SYNTH_BATCH_SIZE, Source

    return Source(rd.from_arrow(table), None, {}, concurrency, SYNTH_BATCH_SIZE)


def test_synthesis_deterministic(turns_table):
    from pdf4py_ray.sources.transcripts import synth_transcripts

    again = synth_transcripts(SF_DIR, ray_data=False)
    assert turns_table.equals(again)
    assert turns_table.schema.names == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def test_payload_mix(turns_table):
    from pdf4py_ray.stages.extract import classify_payload

    kinds = {}
    for row in turns_table.to_pylist():
        k, _ = classify_payload(row["text"] or "", row["tool"] or "")
        kinds[k] = kinds.get(k, 0) + 1
    assert kinds.get("pdf", 0) > 0 and kinds.get("html", 0) > 0 and kinds.get("text", 0) > 0


def test_equality_gate_pipeline_vs_kernel(ray_session, turns_table):
    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset, SORT_KEYS

    expected = reference_extraction(turns_table)

    out = extraction_dataset(table_source(turns_table)).sort(SORT_KEYS)
    got = out.select_columns(["conv_id", "turn_idx", "kind", "extracted_text", "status"]).take_all()

    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
        assert g["extracted_text"] == e["extracted_text"], (g["conv_id"], g["turn_idx"])
        assert g["status"] == e["status"]


def test_error_rows_do_not_poison(ray_session, turns_table):
    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset

    out = extraction_dataset(table_source(turns_table))
    statuses = set(r["status"] for r in out.select_columns(["status"]).take_all())
    assert "error" in statuses  # the corrupt payloads surfaced as rows
    assert "ok" in statuses


def test_spans_index_into_text(ray_session, turns_table):
    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset

    for row in extraction_dataset(table_source(turns_table.slice(0, 60))).take_all():
        text = row["extracted_text"]
        for span in row["spans"] or []:
            assert 0 <= span["start"] <= span["end"] <= len(text)


def _split_digest(splits: list) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(splits).encode()).hexdigest()


def test_resumable_write_and_manifests(ray_session, tmp_path):
    import pyarrow.dataset as pads
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import (
        __PIPELINE_VERSION__,
        _split_points_from_docs,
        extract,
        synth_source,
    )

    out_dir = str(tmp_path / "out")
    local = pafs.LocalFileSystem()
    extract(synth_source(SF_DIR, concurrency=2), out_dir)
    done = checkpoint.committed_buckets(local, out_dir)
    assert done, "no manifests written"
    m = done[min(done)]
    assert m["rows"] > 0
    assert m["lineage"] == {"pipeline_version": __PIPELINE_VERSION__, "input": SF_DIR,
                            "split_digest": _split_digest(_split_points_from_docs(SF_DIR))}
    total_rows = sum(m["rows"] for m in done.values())
    written = pads.dataset(out_dir, format="parquet", partitioning="hive")
    n_written = sum(1 for _ in written.to_table(columns=["status"]).column(0))
    assert total_rows == n_written

    # resume: all buckets committed → second run writes nothing new
    dirs = checkpoint.bucket_dirs(local, out_dir)
    mtimes = {b: os.path.getmtime(dirs[b] + "/_MANIFEST.json") for b in done}
    extract(synth_source(SF_DIR, concurrency=2), out_dir)
    for b, t in mtimes.items():
        assert os.path.getmtime(dirs[b] + "/_MANIFEST.json") == t


def source_of(kind: str, tmp_path):
    """A constructor of a ``kind`` source over a small input: the
    synthesized sf0.001 turns, the same turns as a Parquet directory, or
    a directory of twelve PDFs and a corrupt one."""
    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.pipelines import extract_pipeline as xp
    from pdf4py_ray.sources.pdf_files import pdf_source

    if kind == "synth":
        return lambda: xp.synth_source(SF_DIR, concurrency=2)
    if kind == "parquet":
        turns_dir = xp.materialize_turns(SF_DIR, str(tmp_path / "turns"))
        return lambda: xp.parquet_source(turns_dir, concurrency=2)
    (tmp_path / "pdfs").mkdir()
    for i in range(12):
        (tmp_path / "pdfs" / f"doc{i:02d}.pdf").write_bytes(pdfgen.minimal_pdf((f"text {i:02d}",)))
    (tmp_path / "pdfs" / "bad.pdf").write_bytes(b"%PDF-1.7\nnot really a pdf")
    return lambda: pdf_source(str(tmp_path / "pdfs"), concurrency=2)


def _tree(root: str) -> dict:
    return {os.path.relpath(os.path.join(d, n), root): open(os.path.join(d, n), "rb").read()
            for d, _, names in os.walk(root) for n in names}


def _mtimes(root: str) -> dict:
    return {os.path.relpath(os.path.join(d, n), root): os.stat(os.path.join(d, n)).st_mtime_ns
            for d, _, names in os.walk(root) for n in names}


@pytest.mark.parametrize("kind", ["synth", "parquet", "pdf"])
def test_resume_after_a_crash_equals_a_clean_run(ray_session, tmp_path, kind):
    """Crash injection, for each source: three buckets lose their commit
    record; one of them also holds a stray fragment and another lost
    its ``sorted.parquet``. The resumed write gives a tree byte-equal to
    the clean run's and leaves every committed bucket's files
    untouched."""
    import shutil

    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import extract

    make = source_of(kind, tmp_path)
    out_dir, clean = str(tmp_path / "out"), str(tmp_path / "clean")
    extract(make(), out_dir)
    shutil.copytree(out_dir, clean)
    dirs = checkpoint.bucket_dirs(pafs.LocalFileSystem(), out_dir)
    assert len(dirs) > 4
    victims = sorted(dirs)[1:4]
    for b in victims:
        os.remove(dirs[b] + "/_MANIFEST.json")
    stray = pq.read_table(dirs[victims[0]] + "/sorted.parquet").slice(0, 2)
    pq.write_table(stray, dirs[victims[0]] + "/fragment-0.parquet")
    os.remove(dirs[victims[1]] + "/sorted.parquet")

    def stats(b):
        return {n: os.stat(os.path.join(dirs[b], n)).st_mtime_ns for n in os.listdir(dirs[b])}

    committed = {b: stats(b) for b in dirs if b not in victims}
    extract(make(), out_dir)

    assert _tree(out_dir) == _tree(clean)
    for b, before in committed.items():
        assert stats(b) == before


@pytest.mark.parametrize("kind", ["parquet", "pdf"])
def test_resume_of_a_committed_output_runs_nothing(ray_session, tmp_path, kind, monkeypatch):
    """Every manifest lists the buckets of its write; once all of them
    are committed, a resumed ``extract`` returns the committed row count
    without building a pipeline."""
    from pdf4py_ray.pipelines import extract_pipeline as xp

    make = source_of(kind, tmp_path)
    out_dir = str(tmp_path / "out")
    n = xp.extract(make(), out_dir)
    before = _mtimes(out_dir)

    def no_pipeline(source):
        raise AssertionError("a committed output built a pipeline")

    monkeypatch.setattr(xp, "extraction_dataset", no_pipeline)
    assert xp.extract(make(), out_dir) == n
    assert _mtimes(out_dir) == before


def _change_listing(kind: str, tmp_path, change: str) -> None:
    """Rewrite one input file (same conv_ids, other text), or add one."""
    import glob

    import pyarrow.parquet as pq

    from pdf4py_ray.kernel import pdfgen

    if kind == "pdf":
        name, text = ("doc03.pdf", "TEXT 03") if change == "rewrite" else ("doc99.pdf", "text 99")
        (tmp_path / "pdfs" / name).write_bytes(pdfgen.minimal_pdf((text,)))
        return
    path = sorted(glob.glob(str(tmp_path / "turns" / "*.parquet")))[0]
    t = pq.read_table(path)
    if change == "rewrite":
        pq.write_table(t.set_column(t.schema.get_field_index("text"), "text",
                                    pa.array(["changed"] * t.num_rows, pa.string())), path)
    else:
        pq.write_table(t.set_column(0, "conv_id", pa.array(
            [f"zz-{c}" for c in t["conv_id"].to_pylist()], pa.string())),
            str(tmp_path / "turns" / "added.parquet"))


@pytest.mark.parametrize("change", ["rewrite", "add"])
@pytest.mark.parametrize("kind", ["parquet", "pdf"])
def test_resume_reuses_no_bucket_of_a_changed_listing(ray_session, tmp_path, kind, change):
    """A listed input's identity is its listing: after one file is
    rewritten or added, a resumed write keeps no committed bucket. It
    raises when the split points moved, else it rewrites every bucket
    into the tree a clean run over the changed input gives."""
    from pdf4py_ray.pipelines.extract_pipeline import extract

    make = source_of(kind, tmp_path)
    out_dir, clean = str(tmp_path / "out"), str(tmp_path / "clean")
    before_splits = make().split_points()
    extract(make(), out_dir)
    old = _mtimes(out_dir)
    _change_listing(kind, tmp_path, change)
    if make().split_points() != before_splits:
        with pytest.raises(ValueError, match="Cannot resume"):
            extract(make(), out_dir)
        return
    extract(make(), out_dir)
    extract(make(), clean)
    assert _tree(out_dir) == _tree(clean)
    assert not {f for f, t in _mtimes(out_dir).items() if old.get(f) == t}


def test_materialize_and_extract_from_parquet(ray_session, tmp_path):
    """The production-shaped path (turn Parquet in) must agree with the
    in-memory synthesis path row for row."""
    from pdf4py_ray.pipelines.extract_pipeline import (
        extract,
        extraction_from_parquet,
        materialize_turns,
        synth_source,
    )

    turns_dir = materialize_turns(SF_DIR, str(tmp_path / "turns"))
    # idempotent: second call is a no-op (done marker)
    assert materialize_turns(SF_DIR, turns_dir) == turns_dir

    via_parquet = extraction_from_parquet(
        turns_dir, num_partitions=8, concurrency=2
    ).select_columns(["conv_id", "turn_idx", "extracted_text", "status"]).take_all()
    via_memory = extract(
        synth_source(SF_DIR, concurrency=2)
    ).select_columns(["conv_id", "turn_idx", "extracted_text", "status"]).take_all()
    assert via_parquet == via_memory


def test_extract_from_a_single_parquet_file(ray_session, tmp_path):
    """A single Parquet file is an input like a directory holding it,
    sorted or not."""
    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines.extract_pipeline import extract, extraction_dataset, parquet_source

    (tmp_path / "turns").mkdir()
    path = str(tmp_path / "turns" / "part-0.parquet")
    pq.write_table(pa.table({
        "conv_id": [f"conv-{i % 3}" for i in range(6)],
        "turn_idx": pa.array(range(6), pa.int32()),
        "text": [f"turn {i}" for i in range(6)], "tool": [""] * 6,
    }), path)
    cols = ["conv_id", "turn_idx", "extracted_text", "status"]
    for sort in (True, False):
        rows = [(extract if sort else extraction_dataset)(parquet_source(p, concurrency=2))
                .select_columns(cols).take_all() for p in (path, str(tmp_path / "turns"))]
        if not sort:
            rows = [sorted(r, key=lambda row: (row["conv_id"], row["turn_idx"])) for r in rows]
        assert len(rows[0]) == 6 and rows[0] == rows[1]


def test_salted_partitioning_spreads_hot_conversation():
    from pdf4py_ray.stages.partition import conv_partition

    parts = {conv_partition("conv-00000000", t, 32, salt_turns=8) for t in range(28)}
    assert len(parts) > 1  # long conversation spread over sub-partitions
    parts_nosalt = {conv_partition("conv-00000000", t, 32, salt_turns=None) for t in range(28)}
    assert len(parts_nosalt) == 1


def test_resume_cleans_crashed_partial_partitions(ray_session, tmp_path):
    """A crashed mid-write run leaves a bucket dir with parquet files
    but no manifest; resume must delete it before rewriting so rows
    are not duplicated."""
    import pyarrow.dataset as pads
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import extract, synth_source

    out_dir = str(tmp_path / "out")
    local = pafs.LocalFileSystem()
    extract(synth_source(SF_DIR, concurrency=2), out_dir)
    done = checkpoint.committed_buckets(local, out_dir)
    victim = min(done)
    total = pads.dataset(out_dir, format="parquet", partitioning="hive").count_rows()

    # simulate the crash: parquet files present, manifest gone
    os.remove(os.path.join(checkpoint.bucket_dirs(local, out_dir)[victim], "_MANIFEST.json"))
    extract(synth_source(SF_DIR, concurrency=2), out_dir)
    assert checkpoint.committed_buckets(local, out_dir) == done
    after = pads.dataset(out_dir, format="parquet", partitioning="hive").count_rows()
    assert after == total  # no duplicated rows from appended files


def test_resume_rejects_changed_partitioning(ray_session, tmp_path, monkeypatch):
    """Resuming over manifests that record other split points raises;
    ``resume=False`` rewrites every bucket under the new ones."""
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines import extract_pipeline as xp

    out_dir = str(tmp_path / "out")
    xp.extract(xp.synth_source(SF_DIR, concurrency=2), out_dir)
    n = sum(m["rows"] for m in checkpoint.committed_buckets(pafs.LocalFileSystem(), out_dir).values())
    coarser = xp._split_points_from_docs(SF_DIR)[::2]
    monkeypatch.setattr(xp, "_split_points_from_docs", lambda sf_dir: coarser)
    with pytest.raises(ValueError, match="Cannot resume"):
        xp.extract(xp.synth_source(SF_DIR, concurrency=2), out_dir)
    # resume=False rewrites from scratch instead
    xp.extract(xp.synth_source(SF_DIR, concurrency=2), out_dir, resume=False)
    committed = checkpoint.committed_buckets(pafs.LocalFileSystem(), out_dir)
    assert sorted(committed) == list(range(len(coarser) + 1))
    assert {m["lineage"]["split_digest"] for m in committed.values()} == {_split_digest(coarser)}
    assert sum(m["rows"] for m in committed.values()) == n


def test_range_sorted_equals_full_sort(ray_session, turns_table):
    """Bucket-ascending concatenation of range_sorted output must equal
    Ray's global sort exactly (the stable-order gate contract)."""
    from pdf4py_ray.pipelines.extract_pipeline import (
        SORT_KEYS,
        extraction_dataset,
        range_sorted,
    )

    base = extraction_dataset(table_source(turns_table))
    full = base.sort(SORT_KEYS).select_columns(
        ["conv_id", "turn_idx", "extracted_text"]).take_all()

    convs = sorted({r["conv_id"] for r in turns_table.select(["conv_id"]).to_pylist()})
    splits = convs[1::3]  # arbitrary valid split points
    ranged = range_sorted(
        extraction_dataset(table_source(turns_table)),
        splits,
    ).select_columns(["sort_bucket", "conv_id", "turn_idx", "extracted_text"]).take_all()

    # concatenate buckets ascending, preserving intra-bucket emit order
    by_bucket = {}
    for r in ranged:
        by_bucket.setdefault(r["sort_bucket"], []).append(r)
    merged = [r for b in sorted(by_bucket) for r in by_bucket[b]]
    assert [(r["conv_id"], r["turn_idx"], r["extracted_text"]) for r in merged] == [
        (r["conv_id"], r["turn_idx"], r["extracted_text"]) for r in full
    ]


def test_stable_sorted_write_ordered_output(ray_session, tmp_path, turns_table):
    """Reading sort_bucket dirs ascending must equal the full sort —
    the ordered-write (external sort) gate contract. Every bucket is
    committed, and its manifest describes its ``sorted.parquet``."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import (
        SORT_KEYS,
        extraction_dataset,
        stable_sorted_write,
    )

    convs = sorted({r["conv_id"] for r in turns_table.select(["conv_id"]).to_pylist()})
    splits = convs[1::4]
    out = str(tmp_path / "ssw")
    ds = extraction_dataset(table_source(turns_table))
    n = stable_sorted_write(ds, out, splits)
    assert n == len(turns_table)

    parts = sorted(
        glob.glob(out + "/sort_bucket=*/sorted.parquet"),
        key=lambda p: int(p.split("sort_bucket=")[1].split("/")[0]),
    )
    got_tbl = pa.concat_tables(pq.read_table(p, columns=["conv_id", "turn_idx"]) for p in parts)
    got = list(zip(got_tbl["conv_id"].to_pylist(), got_tbl["turn_idx"].to_pylist()))
    full = extraction_dataset(table_source(turns_table))
    want = [(r["conv_id"], r["turn_idx"])
            for r in full.sort(SORT_KEYS).select_columns(["conv_id", "turn_idx"]).take_all()]
    assert got == want

    local = pafs.LocalFileSystem()
    dirs = checkpoint.bucket_dirs(local, out)
    committed = checkpoint.committed_buckets(local, out)
    assert sorted(committed) == sorted(dirs) == list(range(len(splits) + 1))
    assert sum(m["rows"] for m in committed.values()) == n
    bounds = [None, *splits, None]
    for b, m in committed.items():
        t = pq.read_table(dirs[b] + "/sorted.parquet")
        assert m["sort_bucket"] == b and m["bounds"] == bounds[b:b + 2]
        assert m["rows"] == t.num_rows
        assert m["errors"] == t["status"].to_pylist().count("error")
        assert m["payload_bytes"] == sum(t["n_bytes"].to_pylist())
        lo, hi = m["bounds"]
        assert all((lo is None or lo <= c) and (hi is None or c < hi)
                   for c in t["conv_id"].to_pylist())
    assert sum(m["errors"] for m in committed.values()) > 0


def test_stable_sorted_write_through_fs_uri(ray_session, tmp_path, turns_table):
    """The gate sort must run against a pyarrow.fs-resolved URI (the
    object-storage API-portability proxy): a file:// run and a bare
    POSIX-path run produce byte-identical sorted buckets."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines.extract_pipeline import (
        extraction_dataset,
        stable_sorted_write,
    )

    convs = sorted({r["conv_id"] for r in turns_table.select(["conv_id"]).to_pylist()})
    splits = convs[1::4]

    outs = []
    for out_dir in [str(tmp_path / "posix"), f"file://{tmp_path}/uri"]:
        ds = extraction_dataset(table_source(turns_table))
        n = stable_sorted_write(ds, out_dir, splits)
        assert n == len(turns_table)
        base = out_dir.replace("file://", "")
        local = pafs.LocalFileSystem()
        buckets = sorted(
            (fi.path for fi in local.get_file_info(pafs.FileSelector(base))
             if fi.base_name.startswith("sort_bucket=")),
            key=lambda p: int(p.rsplit("=", 1)[1]),
        )
        tbl = pa.concat_tables(
            pq.read_table(f"{b}/sorted.parquet", columns=["conv_id", "turn_idx"])
            for b in buckets
        )
        # fragments are cleaned up in both modes
        for b in buckets:
            names = [fi.base_name for fi in local.get_file_info(pafs.FileSelector(b))]
            assert sorted(names) == ["_MANIFEST.json", "sorted.parquet"], names
        outs.append(list(zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist())))
    assert outs[0] == outs[1]


def _ordered_rows(n: int) -> pa.Table:
    return pa.table({
        "conv_id": [f"c{i:02d}" for i in range(n)],
        "turn_idx": pa.array([0] * n, pa.int32()),
        "status": ["ok"] * n,
        "n_bytes": pa.array([1] * n, pa.int64()),
    })


def _written_conv_ids(out: str) -> list:
    import glob

    import pyarrow.parquet as pq

    return sorted(c for p in glob.glob(out + "/sort_bucket=*/*.parquet")
                  for c in pq.read_table(p, columns=["conv_id"])["conv_id"].to_pylist())


def test_stable_sorted_write_into_a_used_directory(ray_session, tmp_path):
    """A second write into the same directory holds exactly its own
    rows: the buckets only the first write had are gone."""
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import stable_sorted_write

    out = str(tmp_path / "out")
    assert stable_sorted_write(rd.from_arrow(_ordered_rows(20)), out, ["c05", "c10", "c15"]) == 20
    assert stable_sorted_write(rd.from_arrow(_ordered_rows(8)), out, ["c05"]) == 8
    assert _written_conv_ids(out) == _ordered_rows(8)["conv_id"].to_pylist()


def test_stable_sorted_write_drops_fragments_of_a_crashed_write(ray_session, tmp_path):
    """Fragments that a write left behind when it died between its hive
    write and its compaction are not merged into the next write."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import stable_sorted_write

    (tmp_path / "out" / "sort_bucket=0").mkdir(parents=True)
    pq.write_table(_ordered_rows(3), str(tmp_path / "out" / "sort_bucket=0" / "frag-0.parquet"))
    out = str(tmp_path / "out")
    assert stable_sorted_write(rd.from_arrow(_ordered_rows(8)), out, ["c05"]) == 8
    assert _written_conv_ids(out) == _ordered_rows(8)["conv_id"].to_pylist()


def test_run_extraction_range_sort_equals_full_sort(ray_session):
    """The synthesized path's range sort, over split points from the
    documents table, yields Ray's global sort row for row."""
    from pdf4py_ray.pipelines.extract_pipeline import (
        SORT_KEYS,
        extract,
        extraction_dataset,
        synth_source,
    )

    full = extraction_dataset(synth_source(SF_DIR)).sort(SORT_KEYS)
    cols = full.columns()
    ranged = extract(synth_source(SF_DIR)).select_columns(cols).take_all()
    assert ranged == full.select_columns(cols).take_all()


@pytest.mark.parametrize("keys, num_buckets, want", [
    ([f"c{i:03d}" for i in range(100)], 4, ["c025", "c050", "c075"]),
    (["a", "b", "b", "c"], 64, ["b", "c"]),
    (["k"] * 100, 8, ["k"]),
    ([1, 1, 1, 2, 2, 9, 9, 9], 4, [1, 2, 9]),
    ([], 8, []),
    (["only"], 8, []),
])
def test_quantile_splits_strictly_increasing(keys, num_buckets, want):
    from pdf4py_ray.pipelines.extract_pipeline import quantile_splits

    splits = quantile_splits(keys, num_buckets)
    assert splits == want
    assert all(a < b for a, b in zip(splits, splits[1:]))


def test_sample_split_points_small_sample_has_no_duplicates(tmp_path):
    """Fewer sampled conv_ids than buckets: the split points are the
    distinct ids after the smallest, each once."""
    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines.extract_pipeline import sample_split_points

    pq.write_table(pa.table({"conv_id": ["c", "a", "b", "b", "c"]}),
                   str(tmp_path / "part-0.parquet"))
    assert sample_split_points(str(tmp_path), num_buckets=64) == ["b", "c"]


def test_split_sample_reads_the_head_of_each_file(tmp_path):
    """The sample is the first ``SPLIT_SAMPLE_ROWS`` conv_ids of each
    file, across row groups; an empty file contributes nothing."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines.extract_pipeline import (
        SPLIT_SAMPLE_ROWS,
        quantile_splits,
        sample_split_points,
    )

    rng = np.random.default_rng(0)
    ids = [f"c{x:05d}" for x in rng.integers(0, 50000, 3 * SPLIT_SAMPLE_ROWS)]
    path = str(tmp_path / "a.parquet")
    pq.write_table(pa.table({"conv_id": ids}), path, row_group_size=1000)
    pq.write_table(pa.table({"conv_id": pa.array([], pa.string())}), str(tmp_path / "b.parquet"))
    assert pq.ParquetFile(path).num_row_groups > SPLIT_SAMPLE_ROWS // 1000
    want = quantile_splits(sorted(ids[:SPLIT_SAMPLE_ROWS]), 64)
    assert len(want) == 63
    assert sample_split_points(str(tmp_path), num_buckets=64) == want


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 1 << 44), st.integers(1, 512), st.integers(1, 1 << 30))
def test_read_task_count_is_one_per_slot_within_one_wave(input_bytes, slots, block_bytes):
    """One read task per slot while the input is at most one block
    target per slot; above that, Ray Data's own sizing (``None``)."""
    from pdf4py_ray.pipelines.extract_pipeline import read_task_count

    tasks = read_task_count(input_bytes, slots, block_bytes)
    if input_bytes <= slots * block_bytes:
        assert tasks == slots
    else:
        assert tasks is None


def test_input_parquet_files_lists_a_file_or_a_tree(tmp_path):
    """A single Parquet file is its own listing; a directory lists its
    ``.parquet`` files recursively, sorted by path, with their sizes.
    Split sampling reads the same listing."""
    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines.extract_pipeline import input_files, sample_split_points

    (tmp_path / "sub").mkdir()
    for name, ids in (("b.parquet", ["b"]), ("sub/a.parquet", ["a", "c"])):
        pq.write_table(pa.table({"conv_id": ids}), str(tmp_path / name))
    (tmp_path / "_DONE.json").write_text("{}")

    _, files = input_files(str(tmp_path), ".parquet")
    assert [os.path.relpath(f.path, tmp_path) for f in files] == ["b.parquet", "sub/a.parquet"]
    assert [f.size for f in files] == [os.path.getsize(tmp_path / "b.parquet"),
                                       os.path.getsize(tmp_path / "sub/a.parquet")]
    _, (one,) = input_files(str(tmp_path / "b.parquet"), ".parquet")
    assert one.size == os.path.getsize(tmp_path / "b.parquet")
    assert sample_split_points(str(tmp_path), num_buckets=64) == ["b", "c"]


def test_input_files_suffix_ignores_case(tmp_path):
    """The suffix matches in any case, as Ray Data's extension filter
    does; other files are left out."""
    from pdf4py_ray.pipelines.extract_pipeline import input_files

    for name in ("x.parquet", "Y.PARQUET", "z.parquet.tmp", "w.pdf"):
        (tmp_path / name).write_bytes(b"")
    _, files = input_files(str(tmp_path), ".parquet")
    assert [f.base_name for f in files] == ["Y.PARQUET", "x.parquet"]


def test_sorted_parquet_split_points_do_not_follow_num_partitions(ray_session, tmp_path,
                                                                    monkeypatch):
    """The sorted Parquet path takes ``SORT_BUCKETS`` buckets whatever
    ``num_partitions`` is: 4 and 128 partitions give the same split
    points over 200 distinct conv_ids."""
    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines import extract_pipeline as xp

    pq.write_table(pa.table({
        "conv_id": [f"conv-{i:04d}" for i in range(200)],
        "turn_idx": pa.array([0] * 200, pa.int32()),
        "text": ["t"] * 200, "tool": [""] * 200,
    }), str(tmp_path / "part-0.parquet"))
    seen = []
    monkeypatch.setattr(xp, "range_sorted", lambda ds, splits: seen.append(splits) or ds)
    for num_partitions in (4, 128):
        xp.extraction_from_parquet(str(tmp_path), num_partitions=num_partitions, concurrency=2)
    assert len(seen[0]) == 63
    assert seen[0] == seen[1]


def _logical_ops(ds) -> list:
    """The logical operators of a linear plan, source first."""
    ops, op = [], ds._logical_plan.dag
    while op is not None:
        ops.append(op)
        op = op.input_dependencies[0] if op.input_dependencies else None
    return ops[::-1]


def test_parquet_extraction_plan_is_pinned(ray_session, tmp_path):
    """The plan the benchmark's Parquet extraction runs: read → part_id
    tag → extraction, two extraction tasks at once on whole blocks, one
    read task per slot, and Ray Data's per-operator reservation off on
    this dataset only."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import extraction_from_parquet

    for k in range(2):
        pq.write_table(pa.table({
            "conv_id": [f"conv-{k}-{i}" for i in range(4)],
            "turn_idx": pa.array(range(4), pa.int32()),
            "text": ["plain text turn"] * 4, "tool": [""] * 4,
        }), str(tmp_path / f"part-{k}.parquet"))
    ds = extraction_from_parquet(str(tmp_path), num_partitions=8, concurrency=2, sort=False)
    read, tag, stage = _logical_ops(ds)
    assert [op.name for op in (read, tag, stage)] == [
        "ReadParquet", "MapBatches(add_part_id)", "MapBatches(extract_turns)"]
    assert read._parallelism == 2
    assert stage._compute.size == 2 and stage._batch_size is None
    assert tag._compute.size is None and tag._batch_size is None
    assert ds.context.op_resource_reservation_enabled is False
    assert rd.DataContext.get_current().op_resource_reservation_enabled is True


@pytest.mark.parametrize("kind", ["synth", "parquet", "pdf"])
def test_swapped_extract_turns_runs_for_every_source(ray_session, tmp_path, monkeypatch, kind):
    """``ExtractTurns`` is read from the pipeline module when a pipeline
    is built, so a subclass swapped in there (as the benchmark's traced
    run does) is the one extraction stage of every source."""
    from pdf4py_ray.pipelines import extract_pipeline as xp

    class Marked(xp.ExtractTurns):
        def __call__(self, batch):
            out = super().__call__(batch)
            return out.append_column("marked", pa.array([True] * out.num_rows))

    make = source_of(kind, tmp_path)
    monkeypatch.setattr(xp, "ExtractTurns", Marked)
    rows = xp.extract(make()).select_columns(["marked", "status"]).take_all()
    assert rows and all(r["marked"] for r in rows)
