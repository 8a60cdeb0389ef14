"""Per-bucket checkpoint manifests of the ordered write.

Layout (``extract_pipeline.stable_sorted_write``):

    out_dir/
      sort_bucket=0/ sorted.parquet  _MANIFEST.json
      sort_bucket=1/ ...

A bucket is *committed* iff its ``_MANIFEST.json`` exists and parses.
The compaction task writes it last, after ``sorted.parquet`` has been
moved into place and the bucket's fragments deleted (the commit record
of Delta Lake's log, one per bucket). It records the bucket's rows,
error rows, payload bytes, ``[lo, hi)`` split bounds, the lineage
(pipeline version, split-point digest, the caller's input identity)
and the sorted list of buckets its write holds. A resumed write keeps
the buckets committed under its own lineage, deletes every other
bucket directory, and writes only the rest; when every listed bucket
is committed, it writes nothing.

All access goes through a ``pyarrow.fs`` filesystem and an in-filesystem
path, so local paths and URIs (``file://``, ``s3://``, …) take the same
code.
"""

from __future__ import annotations

import json
from typing import Optional

from pyarrow import fs as pafs

MANIFEST_NAME = "_MANIFEST.json"
_BUCKET_PREFIX = "sort_bucket="


def bucket_dirs(filesystem, out_path: str) -> dict:
    """``{bucket: directory}`` of the ``sort_bucket=`` directories under
    ``out_path`` (none if it does not exist)."""
    infos = filesystem.get_file_info(pafs.FileSelector(out_path, allow_not_found=True))
    return {
        int(fi.base_name[len(_BUCKET_PREFIX):]): fi.path for fi in infos
        if fi.type == pafs.FileType.Directory and fi.base_name.startswith(_BUCKET_PREFIX)
    }


def committed_buckets(filesystem, out_path: str) -> dict:
    """``{bucket: manifest}`` of the committed buckets under ``out_path``."""
    manifests = {b: read_manifest(filesystem, d)
                 for b, d in bucket_dirs(filesystem, out_path).items()}
    return {b: m for b, m in manifests.items() if m is not None}


def write_manifest(filesystem, bucket_dir: str, manifest: dict) -> None:
    """Commit a bucket: write its manifest to a temporary name, then
    move it into place."""
    tmp = f"{bucket_dir}/{MANIFEST_NAME}.tmp"
    with filesystem.open_output_stream(tmp) as fh:
        fh.write(json.dumps(manifest, indent=1, sort_keys=True).encode())
    filesystem.move(tmp, f"{bucket_dir}/{MANIFEST_NAME}")


def read_manifest(filesystem, bucket_dir: str) -> Optional[dict]:
    """The bucket's manifest, or None if it is missing or does not parse."""
    try:
        with filesystem.open_input_stream(f"{bucket_dir}/{MANIFEST_NAME}") as fh:
            return json.loads(fh.read())
    except (OSError, ValueError):
        return None
