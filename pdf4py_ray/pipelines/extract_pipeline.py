"""The flagship pipeline: transcript turns → extracted main content.

Lifecycle (SURVEY §3.4):

    read turns (Parquet scan, or synthesized)     # stateless, column-pruned;
                                                  # one task per slot if it fits
      → add part_id (hash(conv_id) % P, salted)   # task map_batches
      → ExtractTurns                              # task map_batches, pyarrow batches;
                                                  # one extractor per worker per build
      → then ONE of two terminals:
        · range_sorted    # tag sort_bucket, one bucket shuffle, per-bucket
                          # sort: consumed in order (the equality gate)
        · stable_sorted_write  # tag sort_bucket, hive write per bucket, one
                               # compaction task per bucket, which commits
                               # it with a manifest: ordered, resumable output

Both terminals tag rows with the same :func:`tag_sort_bucket`
over split points from :func:`quantile_splits`, so bucket ``b`` holds
exactly the ``conv_id`` values between split ``b-1`` and split ``b``
and bucket order is global ``(conv_id, turn_idx)`` order. The raw-PDF
source (``sources.pdf_files.extract_pdf_corpus``) ends in the same
:func:`range_sorted`: its listing comes from :func:`input_files`, and
its split points are exact, from the listed ``conv_id`` values. No
extraction path uses Ray's own ``Dataset.sort`` or ``repartition``.

Every stage is a task stage: Ray starts task workers once per
``ray.init`` and reuses them, so an execution pays no actor start and
leaves no idle pool holding CPUs. Everything stays a lazy streaming
``Dataset`` until a terminal consume; no mid-pipeline materialization.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.broadcast import task_stage
from ..sources.transcripts import synth_transcripts
from ..stages.extract import ExtractTurns
from ..stages.partition import add_part_id
from . import checkpoint

__PIPELINE_VERSION__ = "r1.0"

SORT_KEYS = ["conv_id", "turn_idx"]

# conv_id values read from the head of each sampled input file
SPLIT_SAMPLE_ROWS = 8192


def extraction_dataset(
    turns_ds,
    num_partitions: int = 32,
    salt_turns: Optional[int] = 16,
    concurrency: Optional[int] = None,
    batch_size: int = 32,
):
    """Wire the extraction stages onto an existing turns Dataset.

    ``concurrency`` caps the extraction tasks running at once; ``None``
    leaves it to Ray Data. ``ExtractTurns`` and ``add_part_id`` are
    read from this module when the pipeline is built, and each build
    gets its own extractor in each worker process.

    Ray Data copies its context when a dataset is created, so engine
    defaults (``config.apply_engine_defaults``) must be applied by the
    caller before it builds ``turns_ds``; the entry points do."""
    ds = turns_ds.map_batches(
        functools.partial(add_part_id, num_partitions=num_partitions, salt_turns=salt_turns),
        batch_format="pyarrow",
    )
    return ds.map_batches(
        task_stage("extract_turns", ExtractTurns),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


def run_extraction(
    sf_dir: str,
    out_dir: Optional[str] = None,
    concurrency: Optional[int] = None,
    batch_size: int = 32,
    sort: bool = True,
    resume: bool = True,
):
    """Run the flagship pipeline over a scale-factor directory, with
    split points from its documents table
    (:func:`_split_points_from_docs`).

    With ``out_dir`` None, returns the result Dataset: range-sorted
    (:func:`range_sorted`) when ``sort``, unordered otherwise. Else
    writes it with :func:`stable_sorted_write` and returns ``out_dir``;
    ``sort`` does not apply to the write. With ``resume``, the buckets
    that an earlier write of the same input committed are kept: their
    turns are dropped before extraction and the write leaves them
    alone. An output whose manifests record other split points raises
    ``ValueError``; ``resume=False`` rewrites every bucket.
    ``concurrency`` caps the extraction tasks (``None``: no cap).
    """
    turns = synth_transcripts(sf_dir)
    if out_dir is None:
        ds = extraction_dataset(turns, concurrency=concurrency, batch_size=batch_size)
        return range_sorted(ds, _split_points_from_docs(sf_dir)) if sort else ds

    splits = _split_points_from_docs(sf_dir)
    lineage = {"input": sf_dir} if resume else None
    if resume:
        done = _committed(*_resolve_fs(out_dir), _lineage(splits, lineage))
        if done:
            turns = turns.map_batches(
                functools.partial(_drop_buckets, splits=np.array(splits),
                                  done=pa.array(sorted(done), type=pa.int64())),
                batch_format="pyarrow",
            )
    ds = extraction_dataset(turns, concurrency=concurrency, batch_size=batch_size)
    stable_sorted_write(ds, out_dir, splits, lineage)
    return out_dir


def _drop_buckets(batch: pa.Table, splits: np.ndarray, done: pa.Array) -> pa.Table:
    """``batch`` without the rows that :func:`tag_sort_bucket` puts in a
    bucket of ``done``."""
    bucket = tag_sort_bucket(batch, splits)["sort_bucket"]
    return batch.filter(pc.invert(pc.is_in(bucket, value_set=done)))


def quantile_splits(sorted_keys, num_buckets: int) -> list:
    """Range-sort split points: at most ``num_buckets - 1`` keys at
    evenly spaced ranks of ``sorted_keys`` (ascending), strictly
    increasing: duplicates collapse, so a hot key or all-equal keys
    give fewer buckets, never an empty one between two equal splits.
    With fewer keys than buckets, every distinct key but the smallest
    starts a bucket."""
    n = len(sorted_keys)
    ranks = (np.arange(1, num_buckets) * n) // num_buckets
    return sorted({sorted_keys[i] for i in ranks[ranks > 0]})


def _split_points_from_docs(sf_dir: str, num_buckets: int = 64) -> list:
    """conv_id split points for the synthesized corpus: quantiles of
    the documents id column, formatted with the synthesis naming
    (``conv-{doc_id:08d}``, whose lexicographic order is the numeric
    order)."""
    import pyarrow.parquet as pq

    ids = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )["doc_id"].to_numpy()
    return [f"conv-{int(i):08d}" for i in quantile_splits(np.sort(ids), num_buckets)]


def sample_split_points(turns_dir: str, num_buckets: int = 64) -> list:
    """Range-sort split points: sample ``conv_id`` from a spread of up
    to 8 of the input parquet files (:func:`input_files`;
    column-pruned, the first ``SPLIT_SAMPLE_ROWS`` rows of each) and
    take the :func:`quantile_splits` of the sample. At 10^12 turns this
    reads a few row groups of one string column — O(sample), never
    O(corpus)."""
    return _sampled_split_points(turns_dir, *input_files(turns_dir, ".parquet"), num_buckets)


def _sampled_split_points(turns_dir: str, filesystem, files: list, num_buckets: int) -> list:
    import pyarrow.parquet as pq

    if not files:
        raise FileNotFoundError(f"no parquet files under {turns_dir}")
    step = max(1, len(files) // 8)
    vals: list = []
    for f in files[::step][:8]:
        with pq.ParquetFile(f.path, filesystem=filesystem) as pf:
            head = next(pf.iter_batches(batch_size=SPLIT_SAMPLE_ROWS, columns=["conv_id"]), None)
        if head is not None:
            vals.extend(head.column(0).to_pylist())
    vals.sort()
    return quantile_splits(vals, num_buckets)


def tag_sort_bucket(batch: pa.Table, splits: np.ndarray) -> pa.Table:
    """Append ``sort_bucket`` = ``searchsorted(splits, conv_id,
    side="right")``: bucket ``b`` holds the keys in
    ``[splits[b-1], splits[b])``. ``splits`` is the small unicode array
    of ``num_buckets - 1`` split points, bound with
    ``functools.partial`` so it ships with the task (no object-store
    round trip) and the search runs at C speed."""
    # one C-level Arrow→numpy conversion of the key column (object
    # dtype), never a per-row to_pylist materialization
    vals = batch[SORT_KEYS[0]].to_numpy(zero_copy_only=False)
    bucket = np.searchsorted(splits, vals, side="right").astype(np.int64)
    return batch.append_column("sort_bucket", pa.array(bucket, type=pa.int64()))


def _tagged(ds, split_points: list):
    return ds.map_batches(
        functools.partial(tag_sort_bucket, splits=np.array(split_points)),
        batch_format="pyarrow",
    )


def range_sorted(ds, split_points: list):
    """Stable global sort as ONE coarse bucket shuffle instead of Ray's
    sample→map→reduce sort operator (whose fixed all-to-all cost does
    not amortize at bench size — gate-shape scaling was 0.59 with it).

    Rows are tagged by :func:`tag_sort_bucket`; a single int64-key
    ``groupby`` co-locates each range; the per-bucket sort is one
    vectorized Arrow sort (:func:`_sort_table`), which keeps every
    column's Arrow type (``spans`` included). Consuming buckets in
    ascending order IS the stable global (conv_id, turn_idx) order;
    the output keeps the ``sort_bucket`` column."""
    return (
        _tagged(ds, split_points)
        .groupby("sort_bucket")
        .map_groups(_sort_table, batch_format="pyarrow")
    )


def _sort_table(t: pa.Table) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in SORT_KEYS])


def stable_sorted_write(ds, out_dir: str, split_points: list,
                        lineage: Optional[dict] = None) -> int:
    """Stable global sort as an EXTERNAL sort with no object-store
    all-to-all — the ordered-write gate/production shape, and the
    engine's one resumable output.

    Stage 0 (clean start): every ``sort_bucket=`` directory already
    under ``out_dir`` is deleted, except, when ``lineage`` is given, the
    buckets committed under it (:func:`_lineage`): a resumed write,
    whose ``ds`` must hold none of their rows. Debris of an earlier or
    crashed write never mixes into this one.

    Stage 1 (streaming, no shuffle): rows are tagged by
    :func:`tag_sort_bucket` and written with
    ``write_parquet(partition_cols=["sort_bucket"])`` — every task
    appends its own fragment files under each bucket's hive directory,
    so the data movement is task→storage, never task→task.

    Stage 2 (embarrassingly parallel): one Ray task per written bucket
    reads its fragments (bucket ≈ corpus/B rows), sorts in memory with
    the same :func:`_sort_table`, writes a single ``sorted.parquet``,
    removes the fragments and commits the bucket with its manifest
    (:mod:`.checkpoint`). Reading ``sort_bucket=0..B`` in order IS the
    stable global (conv_id, turn_idx) order.

    Both stages scale linearly with nodes (storage-bandwidth bound,
    not interconnect-barrier bound). All filesystem access goes
    through ``pyarrow.fs`` resolved from the output URI — POSIX paths
    and object-store URIs (``file://``, ``s3://``, …) take the same
    code path; the fragment cleanup uses per-file deletes and a
    filesystem ``move`` (atomic on local FS, copy+delete where the
    store lacks rename) rather than POSIX ``glob``/``os.replace``.
    ``ds`` is extraction output (it has ``status`` and ``n_bytes``);
    ``lineage`` values are JSON. Returns the total row count, kept
    buckets included."""
    filesystem, out_path = _resolve_fs(out_dir)
    full = _lineage(split_points, lineage)
    kept = _committed(filesystem, out_path, full) if lineage is not None else {}
    for b, d in checkpoint.bucket_dirs(filesystem, out_path).items():
        if b not in kept:
            filesystem.delete_dir(d)
    _tagged(ds, split_points).write_parquet(
        out_path, filesystem=filesystem, partition_cols=["sort_bucket"]
    )
    bounds = [None, *split_points, None]
    counts = ray.get([
        _compact_bucket.remote(filesystem, d, {"sort_bucket": b, "bounds": bounds[b:b + 2],
                                               "lineage": full})
        for b, d in sorted(checkpoint.bucket_dirs(filesystem, out_path).items())
        if b not in kept
    ])
    return int(sum(counts)) + sum(m["rows"] for m in kept.values())


def _lineage(split_points: list, lineage: Optional[dict]) -> dict:
    """A bucket manifest's lineage: the pipeline version, a digest of the
    split points (which fix every bucket's key range) and the caller's
    ``lineage`` (its input identity)."""
    digest = hashlib.sha256(json.dumps(split_points).encode()).hexdigest()
    return {"pipeline_version": __PIPELINE_VERSION__, "split_digest": digest, **(lineage or {})}


def _committed(filesystem, out_path: str, lineage: dict) -> dict:
    """``{bucket: manifest}`` of the buckets under ``out_path`` committed
    under ``lineage``. Raises ``ValueError`` when a committed bucket
    records other split points: its rows may belong to any bucket of
    this write."""
    committed = checkpoint.committed_buckets(filesystem, out_path)
    recorded = {m.get("lineage", {}).get("split_digest") for m in committed.values()}
    if recorded - {lineage["split_digest"]}:
        raise ValueError(
            f"Cannot resume: the manifests under {out_path} record other split "
            "points than this run's. Re-run over the original input, or with "
            "resume=False to rewrite from scratch."
        )
    return {b: m for b, m in committed.items() if m["lineage"] == lineage}


@ray.remote(num_cpus=1)
def _compact_bucket(filesystem, bucket_dir: str, manifest: dict) -> int:
    """One bucket of :func:`stable_sorted_write`: its fragments sorted
    into a single ``sorted.parquet`` (written to a temporary name, then
    moved), fragments deleted, and last the bucket's commit: ``manifest``
    (its number, bounds and lineage) with the bucket's rows, error rows
    and payload bytes. Returns the bucket's row count."""
    import pyarrow.parquet as pq
    from pyarrow import fs as pafs

    infos = filesystem.get_file_info(pafs.FileSelector(bucket_dir))
    frags = sorted(
        fi.path for fi in infos
        if fi.type == pafs.FileType.File and fi.base_name.endswith(".parquet")
        and not fi.base_name.startswith("sorted.parquet")
    )
    if not frags:
        return 0
    t = _sort_table(pa.concat_tables(pq.read_table(f, filesystem=filesystem) for f in frags))
    tmp = f"{bucket_dir}/sorted.parquet.tmp"
    pq.write_table(t, tmp, filesystem=filesystem)
    filesystem.move(tmp, f"{bucket_dir}/sorted.parquet")
    for f in frags:
        filesystem.delete_file(f)
    checkpoint.write_manifest(filesystem, bucket_dir, {
        **manifest,
        "rows": t.num_rows,
        "errors": pc.sum(pc.equal(t["status"], "error")).as_py() or 0,
        "payload_bytes": pc.sum(t["n_bytes"]).as_py() or 0,
    })
    return t.num_rows


def _resolve_fs(path: str):
    """(pyarrow FileSystem, in-filesystem path) for a path or URI.
    Bare paths resolve to LocalFileSystem; ``file://``, ``s3://`` etc.
    go through ``FileSystem.from_uri``. The returned filesystem object
    is picklable, so it can be passed to Ray tasks."""
    from pyarrow import fs as pafs

    if "://" in path:
        return pafs.FileSystem.from_uri(path)
    return pafs.LocalFileSystem(), os.path.abspath(path)


def materialize_turns(sf_dir: str, out_dir: str, repeat: int = 1) -> str:
    """One-time synthesis of the transcript turn table to Parquet.

    The mission input (BASELINE.json input_hint) is a *Parquet table of
    transcript turns*; synthesis only exists because the driver test
    data has no such table. Benchmarks materialize it once (untimed)
    and measure the actual pipeline: read_parquet → extract → sort.
    Idempotent via a done-marker."""
    import json
    import os

    marker = os.path.join(out_dir, "_DONE.json")
    if os.path.exists(marker):
        return out_dir
    ds = synth_transcripts(sf_dir, repeat=repeat)
    ds.write_parquet(out_dir)
    with open(marker, "w") as fh:
        json.dump({"sf_dir": sf_dir, "repeat": repeat}, fh)
    return out_dir


def input_files(path: str, suffix: str) -> tuple:
    """(pyarrow FileSystem, ``FileInfo`` list sorted by path) of the
    input files: ``path`` itself if it is a file, else the files under
    it, recursively, whose lower-cased name ends in ``suffix`` (given in
    lower case; Ray Data's extension filter also ignores case). One
    listing, from which a pipeline takes both its file set and its
    sizing; the infos carry on-disk sizes, so no file is opened."""
    from pyarrow import fs as pafs

    filesystem, root = _resolve_fs(path)
    info = filesystem.get_file_info(root)
    if info.type == pafs.FileType.File:
        return filesystem, [info]
    files = [
        fi for fi in filesystem.get_file_info(pafs.FileSelector(root, recursive=True))
        if fi.type == pafs.FileType.File and fi.base_name.lower().endswith(suffix)
    ]
    return filesystem, sorted(files, key=lambda fi: fi.path)


def read_task_count(input_bytes: int, slots: int, block_bytes: int) -> Optional[int]:
    """Read tasks for ``input_bytes`` of input files on ``slots``
    concurrent task slots: one per slot while the input is at most
    ``slots × block_bytes``, so every slot gets an equal share up front
    and none waits on the executor's poll to be refilled; above that,
    ``None`` (Ray Data's own read sizing). ``input_bytes`` is on-disk,
    compressed size compared against an in-memory block target, so a
    task may decode more than ``block_bytes``; Ray Data still cuts its
    output into blocks of the target."""
    return slots if input_bytes <= slots * block_bytes else None


def _task_slots(concurrency: Optional[int]) -> int:
    """``concurrency``, else the cluster's logical CPUs. Ray Data starts
    Ray lazily, at the read; ``get_runtime_context`` starts it the same
    way (Ray's auto-init), so the cluster is read only once Ray is up."""
    if concurrency:
        return concurrency
    ray.get_runtime_context()
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def extraction_from_parquet(
    turns_dir: str,
    num_partitions: int = 64,
    salt_turns: Optional[int] = 16,
    concurrency: Optional[int] = None,
    batch_size: Optional[int] = None,
    sort: bool = True,
):
    """The production-shaped pipeline: column-pruned Parquet scan of
    transcript turns → partition tag → extraction tasks → stable
    sort. This is what runs against the real 10^12-turn table.

    ``concurrency`` is the slot count: the number of extraction tasks
    that run at once (``None``: the cluster's logical CPUs, no cap).
    When the input files' summed on-disk size is at most ``slots ×
    target_max_block_size`` (Ray Data's own block target), the read
    plans one task per slot (:func:`read_task_count`), so each slot
    gets one equal share up front; a larger input keeps Ray Data's own
    read sizing. The pipeline's dataset runs without Ray Data's
    per-operator resource reservation (see :mod:`pdf4py_ray.config`);
    other pipelines keep it.

    ``sort`` (the default gate shape) applies :func:`range_sorted` —
    split points sampled from the input, one bucket shuffle,
    per-bucket vectorized sort, output stably ordered when consumed
    bucket-ascending; ``sort=False`` returns the unordered extraction
    (production shape; :func:`stable_sorted_write` orders it on
    write)."""
    import ray.data as rd

    from ..config import apply_engine_defaults

    # before the read: the read copies Ray Data's context, and every
    # stage after it inherits that copy
    apply_engine_defaults()
    filesystem, files = input_files(turns_dir, ".parquet")
    tasks = read_task_count(sum(fi.size for fi in files), _task_slots(concurrency),
                            rd.DataContext.get_current().target_max_block_size)
    turns = rd.read_parquet(
        turns_dir, columns=["conv_id", "turn_idx", "text", "tool"], override_num_blocks=tasks
    )
    # this pipeline only: its stages share the read's context copy
    turns.context.op_resource_reservation_enabled = False
    ds = extraction_dataset(
        turns,
        num_partitions=num_partitions,
        salt_turns=salt_turns,
        concurrency=concurrency,
        batch_size=batch_size,
    )
    if not sort:
        return ds
    splits = _sampled_split_points(turns_dir, filesystem, files, max(64, num_partitions))
    return range_sorted(ds, splits)
