"""The flagship pipeline: transcript turns → extracted main content.

Lifecycle (SURVEY §3.4):

    a Source (one of three constructors)        # turns Dataset, split points,
      · synth_source(sf_dir)                    # lineage identity
      · parquet_source(turns_dir)               # column-pruned scan, one read
                                                # task per slot if it fits
      · sources.pdf_files.pdf_source(path)      # listed files, read in place
      → extraction_dataset: ExtractTurns        # THE extraction stage: task
                                                # map_batches, pyarrow batches;
                                                # one extractor per worker per build
      → extract() picks ONE of two terminals:
        · range_sorted    # out_dir None: tag sort_bucket, one bucket
                          # shuffle, per-bucket sort, consumed in order
        · stable_sorted_write  # out_dir given: tag sort_bucket, hive write
                               # per bucket, one compaction task per bucket,
                               # which commits it with a manifest: ordered,
                               # resumable output

A source's split points are computed only when :func:`extract` asks
for them: from the documents table (synthesized input), from a sample
of the Parquet files, or exactly from the listed PDFs' ``conv_id``
values; each aims at ``SORT_BUCKETS`` buckets. Both terminals tag rows
with the same :func:`tag_sort_bucket`, so bucket ``b`` holds exactly
the ``conv_id`` values between split ``b-1`` and split ``b`` and bucket
order is global ``(conv_id, turn_idx)`` order. No extraction path uses
Ray's own ``Dataset.sort`` or ``repartition``.

Every source resumes the same way: a bucket commits under a lineage of
the pipeline version, the split points and the source's identity (its
input path, and for a listed input a digest of the listing's ``(path,
size, mtime)`` entries), so a commit names the exact input it covers
and a changed input reuses no bucket.

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
from typing import Callable, NamedTuple, Optional

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

# buckets every source's split points aim at
SORT_BUCKETS = 64
# conv_id values read from the head of each sampled input file
SPLIT_SAMPLE_ROWS = 8192
# turns per extraction batch of the synthesized input
SYNTH_BATCH_SIZE = 32


class Source(NamedTuple):
    """One extraction input, as :func:`extract` consumes it."""

    turns: object  # turns Dataset, built after config.apply_engine_defaults()
    split_points: Callable[[], list]  # called only by an ordered terminal
    lineage: dict  # the input's identity, recorded in every bucket manifest
    concurrency: Optional[int]  # cap on concurrent extraction tasks (None: none)
    batch_size: Optional[int]  # turns per extraction batch (None: whole blocks)


def extraction_dataset(source: Source):
    """The one extraction stage: ``ExtractTurns`` as a task stage over
    the source's turns, unordered. ``ExtractTurns`` is read from this
    module when the pipeline is built, and each build gets its own
    extractor in each worker process."""
    return source.turns.map_batches(
        task_stage("extract_turns", ExtractTurns),
        batch_format="pyarrow",
        batch_size=source.batch_size,
        concurrency=source.concurrency,
    )


def extract(source: Source, out_dir: Optional[str] = None, resume: bool = True):
    """Extract ``source`` in stable ``(conv_id, turn_idx)`` order.

    With ``out_dir`` None, returns the :func:`range_sorted` Dataset.
    Else writes it with :func:`stable_sorted_write` and returns the row
    count. With ``resume``, the buckets that an earlier write of the
    same input committed are kept: their turns are dropped before
    extraction and the write leaves them alone. An output whose
    manifests record other split points raises ``ValueError``;
    ``resume=False`` rewrites every bucket. When every bucket that the
    committed write holds is committed, the resume builds no pipeline
    and returns their row count."""
    splits = source.split_points()
    if out_dir is None:
        return range_sorted(extraction_dataset(source), splits)
    lineage = source.lineage if resume else None
    if resume:
        done = _committed(*_resolve_fs(out_dir), _lineage(splits, lineage))
        if done and all(m.get("buckets") == sorted(done) for m in done.values()):
            return sum(m["rows"] for m in done.values())
        if done:
            source = source._replace(turns=source.turns.map_batches(
                functools.partial(_drop_buckets, splits=np.array(splits),
                                  done=pa.array(sorted(done), type=pa.int64())),
                batch_format="pyarrow",
            ))
    return stable_sorted_write(extraction_dataset(source), out_dir, splits, lineage)


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


def _split_points_from_docs(sf_dir: str) -> list:
    """conv_id split points for the synthesized corpus: quantiles of
    the documents id column, formatted with the synthesis naming
    (``conv-{doc_id:08d}``, whose lexicographic order is the numeric
    order)."""
    import pyarrow.parquet as pq

    ids = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
    )["doc_id"].to_numpy()
    return [f"conv-{int(i):08d}" for i in quantile_splits(np.sort(ids), SORT_BUCKETS)]


def sample_split_points(turns_dir: str, num_buckets: int = SORT_BUCKETS) -> list:
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
    (:mod:`.checkpoint`), which also lists every bucket of this write,
    the kept ones included. Reading ``sort_bucket=0..B`` in order IS the
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
    dirs = checkpoint.bucket_dirs(filesystem, out_path)
    counts = ray.get([
        _compact_bucket.remote(filesystem, d, {"sort_bucket": b, "bounds": bounds[b:b + 2],
                                               "lineage": full, "buckets": sorted(dirs)})
        for b, d in sorted(dirs.items()) if b not in kept
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
    (its number, bounds, lineage and the write's buckets) with the
    bucket's rows, error rows and payload bytes. Returns the bucket's row count."""
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


def synth_source(sf_dir: str, concurrency: Optional[int] = None) -> Source:
    """Turns synthesized from a scale-factor directory's documents
    table (:func:`~pdf4py_ray.sources.transcripts.synth_transcripts`),
    with split points from that table (:func:`_split_points_from_docs`).
    Its identity is ``sf_dir``."""
    return Source(synth_transcripts(sf_dir), functools.partial(_split_points_from_docs, sf_dir),
                  {"input": sf_dir}, concurrency, SYNTH_BATCH_SIZE)


def parquet_source(turns_dir: str, concurrency: Optional[int] = None) -> Source:
    """The production-shaped source: a column-pruned Parquet scan of
    transcript turns (a file, or a directory's ``.parquet`` files,
    :func:`input_files`). This is what runs against the real
    10^12-turn table.

    ``concurrency`` is the slot count: the number of extraction tasks
    that run at once (``None``: the cluster's logical CPUs, no cap).
    When the input files' summed on-disk size is at most ``slots ×
    target_max_block_size`` (Ray Data's own block target), the read
    plans one task per slot (:func:`read_task_count`), so each slot
    gets one equal share up front; a larger input keeps Ray Data's own
    read sizing. The source's dataset runs without Ray Data's
    per-operator resource reservation (see :mod:`pdf4py_ray.config`);
    other pipelines keep it. Split points are sampled from the same
    listing (:func:`sample_split_points`); the identity is the listing
    (:func:`listing_lineage`)."""
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
    # this source only: its stages share the read's context copy
    turns.context.op_resource_reservation_enabled = False
    splits = functools.partial(_sampled_split_points, turns_dir, filesystem, files, SORT_BUCKETS)
    return Source(turns, splits, listing_lineage(turns_dir, files), concurrency, None)


def listing_lineage(path: str, files: list) -> dict:
    """The identity of a listed input: ``path`` and a digest of the
    listing's ``(path, size, mtime)`` entries, so rewriting, adding or
    removing a file changes it."""
    entries = [(fi.path, fi.size, fi.mtime_ns) for fi in files]
    return {"input": path, "listing": hashlib.sha256(json.dumps(entries).encode()).hexdigest()}


def extraction_from_parquet(
    turns_dir: str,
    num_partitions: int = 64,
    salt_turns: Optional[int] = 16,
    concurrency: Optional[int] = None,
    sort: bool = True,
):
    """:func:`parquet_source`'s extraction with a ``part_id`` tag
    (:func:`add_part_id`, read from this module when the pipeline is
    built) before the extraction stage: :func:`extract`'s range-sorted
    rows when ``sort``, else the unordered :func:`extraction_dataset`.
    Nothing consumes ``part_id``; this wrapper stays while the
    benchmark drives it."""
    source = parquet_source(turns_dir, concurrency)
    source = source._replace(turns=source.turns.map_batches(
        functools.partial(add_part_id, num_partitions=num_partitions, salt_turns=salt_turns),
        batch_format="pyarrow",
    ))
    return extract(source) if sort else extraction_dataset(source)
