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
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset, SORT_KEYS

    expected = reference_extraction(turns_table)

    ds = rd.from_arrow(turns_table)
    out = extraction_dataset(ds, num_partitions=8, concurrency=2).sort(SORT_KEYS)
    got = out.select_columns(["conv_id", "turn_idx", "kind", "extracted_text", "status"]).take_all()

    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g["conv_id"], g["turn_idx"]) == (e["conv_id"], e["turn_idx"])
        assert g["extracted_text"] == e["extracted_text"], (g["conv_id"], g["turn_idx"])
        assert g["status"] == e["status"]


def test_error_rows_do_not_poison(ray_session, turns_table):
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset

    ds = rd.from_arrow(turns_table)
    out = extraction_dataset(ds, num_partitions=4, concurrency=2)
    statuses = set(r["status"] for r in out.select_columns(["status"]).take_all())
    assert "error" in statuses  # the corrupt payloads surfaced as rows
    assert "ok" in statuses


def test_spans_index_into_text(ray_session, turns_table):
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset

    ds = rd.from_arrow(turns_table.slice(0, 60))
    for row in extraction_dataset(ds, num_partitions=4, concurrency=2).take_all():
        text = row["extracted_text"]
        for span in row["spans"] or []:
            assert 0 <= span["start"] <= span["end"] <= len(text)


def test_resumable_write_and_manifests(ray_session, tmp_path):
    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import run_extraction

    out_dir = str(tmp_path / "out")
    run_extraction(SF_DIR, out_dir=out_dir, num_partitions=8, concurrency=2)
    done = checkpoint.completed_partitions(out_dir)
    assert done, "no manifests written"
    m = checkpoint.read_manifest(out_dir, sorted(done)[0])
    assert m["metrics"]["rows"] > 0
    assert m["lineage"]["stages"][-1] == "ExtractTurns"
    total_rows = sum(
        checkpoint.read_manifest(out_dir, p)["metrics"]["rows"] for p in done
    )
    import pyarrow.parquet as pq
    import pyarrow.dataset as pads

    written = pads.dataset(out_dir, format="parquet", partitioning="hive")
    n_written = sum(1 for _ in written.to_table(columns=["status"]).column(0))
    assert total_rows == n_written

    # resume: all partitions complete → second run writes nothing new
    import time

    mtimes = {p: os.path.getmtime(checkpoint.partition_dir(out_dir, p) + "/_MANIFEST.json") for p in done}
    run_extraction(SF_DIR, out_dir=out_dir, num_partitions=8, concurrency=2)
    for p, t in mtimes.items():
        assert os.path.getmtime(checkpoint.partition_dir(out_dir, p) + "/_MANIFEST.json") == t


def test_materialize_and_extract_from_parquet(ray_session, tmp_path):
    """The production-shaped path (turn Parquet in) must agree with the
    in-memory synthesis path row for row."""
    from pdf4py_ray.pipelines.extract_pipeline import (
        extraction_from_parquet,
        materialize_turns,
        run_extraction,
    )

    turns_dir = materialize_turns(SF_DIR, str(tmp_path / "turns"))
    # idempotent: second call is a no-op (done marker)
    assert materialize_turns(SF_DIR, turns_dir) == turns_dir

    via_parquet = extraction_from_parquet(
        turns_dir, num_partitions=8, concurrency=2
    ).select_columns(["conv_id", "turn_idx", "extracted_text", "status"]).take_all()
    via_memory = run_extraction(
        SF_DIR, out_dir=None, num_partitions=8, concurrency=2
    ).select_columns(["conv_id", "turn_idx", "extracted_text", "status"]).take_all()
    assert via_parquet == via_memory


def test_extract_from_a_single_parquet_file(ray_session, tmp_path):
    """A single Parquet file is an input like a directory holding it,
    sorted or not."""
    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines.extract_pipeline import extraction_from_parquet

    (tmp_path / "turns").mkdir()
    path = str(tmp_path / "turns" / "part-0.parquet")
    pq.write_table(pa.table({
        "conv_id": [f"conv-{i % 3}" for i in range(6)],
        "turn_idx": pa.array(range(6), pa.int32()),
        "text": [f"turn {i}" for i in range(6)], "tool": [""] * 6,
    }), path)
    cols = ["conv_id", "turn_idx", "extracted_text", "status"]
    for sort in (True, False):
        rows = [extraction_from_parquet(p, num_partitions=4, concurrency=2, sort=sort)
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
    """A crashed mid-write run leaves a partition dir with parquet
    files but no manifest; resume must delete it before rewriting so
    rows are not duplicated."""
    import pyarrow.dataset as pads

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import run_extraction

    out_dir = str(tmp_path / "out")
    run_extraction(SF_DIR, out_dir=out_dir, num_partitions=8, concurrency=2)
    done = checkpoint.completed_partitions(out_dir)
    victim = sorted(done)[0]
    total = pads.dataset(out_dir, format="parquet", partitioning="hive").count_rows()

    # simulate the crash: parquet files present, manifest gone
    os.remove(os.path.join(checkpoint.partition_dir(out_dir, victim), "_MANIFEST.json"))
    run_extraction(SF_DIR, out_dir=out_dir, num_partitions=8, concurrency=2)
    assert checkpoint.completed_partitions(out_dir) == done
    after = pads.dataset(out_dir, format="parquet", partitioning="hive").count_rows()
    assert after == total  # no duplicated rows from appended files


def test_resume_rejects_changed_partitioning(ray_session, tmp_path):
    import pytest as _pytest

    from pdf4py_ray.pipelines.extract_pipeline import run_extraction

    out_dir = str(tmp_path / "out")
    run_extraction(SF_DIR, out_dir=out_dir, num_partitions=8, concurrency=2)
    with _pytest.raises(ValueError, match="Cannot resume"):
        run_extraction(SF_DIR, out_dir=out_dir, num_partitions=16, concurrency=2)
    # resume=False rewrites from scratch instead
    run_extraction(SF_DIR, out_dir=out_dir, num_partitions=16, concurrency=2,
                   resume=False)


def test_range_sorted_equals_full_sort(ray_session, turns_table):
    """Bucket-ascending concatenation of range_sorted output must equal
    Ray's global sort exactly (the stable-order gate contract)."""
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import (
        SORT_KEYS,
        extraction_dataset,
        range_sorted,
    )

    ds = rd.from_arrow(turns_table)
    base = extraction_dataset(ds, num_partitions=8, concurrency=2)
    full = base.sort(SORT_KEYS).select_columns(
        ["conv_id", "turn_idx", "extracted_text"]).take_all()

    convs = sorted({r["conv_id"] for r in turns_table.select(["conv_id"]).to_pylist()})
    splits = convs[1::3]  # arbitrary valid split points
    ranged = range_sorted(
        extraction_dataset(rd.from_arrow(turns_table), num_partitions=8, concurrency=2),
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
    the ordered-write (external sort) gate contract."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import (
        SORT_KEYS,
        extraction_dataset,
        stable_sorted_write,
    )

    convs = sorted({r["conv_id"] for r in turns_table.select(["conv_id"]).to_pylist()})
    splits = convs[1::4]
    out = str(tmp_path / "ssw")
    ds = extraction_dataset(rd.from_arrow(turns_table), num_partitions=8, concurrency=2)
    n = stable_sorted_write(ds, out, splits)
    assert n == len(turns_table)

    parts = sorted(
        glob.glob(out + "/sort_bucket=*/sorted.parquet"),
        key=lambda p: int(p.split("sort_bucket=")[1].split("/")[0]),
    )
    got_tbl = pa.concat_tables(pq.read_table(p, columns=["conv_id", "turn_idx"]) for p in parts)
    got = list(zip(got_tbl["conv_id"].to_pylist(), got_tbl["turn_idx"].to_pylist()))
    full = extraction_dataset(rd.from_arrow(turns_table), num_partitions=8, concurrency=2)
    want = [(r["conv_id"], r["turn_idx"])
            for r in full.sort(SORT_KEYS).select_columns(["conv_id", "turn_idx"]).take_all()]
    assert got == want


def test_stable_sorted_write_through_fs_uri(ray_session, tmp_path, turns_table):
    """The gate sort must run against a pyarrow.fs-resolved URI (the
    object-storage API-portability proxy): a file:// run and a bare
    POSIX-path run produce byte-identical sorted buckets."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines.extract_pipeline import (
        extraction_dataset,
        stable_sorted_write,
    )

    convs = sorted({r["conv_id"] for r in turns_table.select(["conv_id"]).to_pylist()})
    splits = convs[1::4]

    outs = []
    for out_dir in [str(tmp_path / "posix"), f"file://{tmp_path}/uri"]:
        ds = extraction_dataset(rd.from_arrow(turns_table), num_partitions=8, concurrency=2)
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
            assert names == ["sorted.parquet"], names
        outs.append(list(zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist())))
    assert outs[0] == outs[1]


def test_run_extraction_range_sort_equals_full_sort(ray_session):
    """The synthesized path's range sort, over split points from the
    documents table, yields Ray's global sort row for row."""
    from pdf4py_ray.pipelines.extract_pipeline import (
        SORT_KEYS,
        extraction_dataset,
        run_extraction,
    )
    from pdf4py_ray.sources.transcripts import synth_transcripts

    full = extraction_dataset(synth_transcripts(SF_DIR)).sort(SORT_KEYS)
    cols = full.columns()
    ranged = run_extraction(SF_DIR, out_dir=None).select_columns(cols).take_all()
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
