"""Per-partition checkpoint manifests for resumable output.

Layout (SURVEY §4.2 / north_rule "resumable from checkpoint with
per-partition lineage + metrics"):

    out_dir/
      part_id=0/ *.parquet  _MANIFEST.json
      part_id=1/ ...

A partition is *complete* iff its ``_MANIFEST.json`` exists and
parses; manifests are written via atomic rename after the partition's
parquet files land, and record row counts, byte counts, error counts
and the pipeline lineage (stage versions + input fingerprint). A
resumed run calls :func:`completed_partitions` and filters those
``part_id`` values out of the input before extraction, making the
write idempotent at partition granularity.
"""

from __future__ import annotations

import json
import os
import re
from typing import Optional

MANIFEST_NAME = "_MANIFEST.json"
_PART_RE = re.compile(r"^part_id=(\d+)$")


def partition_dir(out_dir: str, part_id: int) -> str:
    return os.path.join(out_dir, f"part_id={part_id}")


def completed_partitions(out_dir: str) -> set:
    """Partitions whose manifest exists and parses."""
    done = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        m = _PART_RE.match(name)
        if not m:
            continue
        path = os.path.join(out_dir, name, MANIFEST_NAME)
        try:
            with open(path) as fh:
                json.load(fh)
            done.add(int(m.group(1)))
        except (OSError, ValueError):
            continue
    return done


def write_manifest(out_dir: str, part_id: int, metrics: dict, lineage: dict) -> None:
    """Atomically (write + rename) persist one partition's manifest."""
    pdir = partition_dir(out_dir, part_id)
    os.makedirs(pdir, exist_ok=True)
    payload = {"part_id": part_id, "metrics": metrics, "lineage": lineage}
    tmp = os.path.join(pdir, MANIFEST_NAME + ".tmp")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(pdir, MANIFEST_NAME))


def clear_incomplete(out_dir: str) -> list:
    """Delete partition directories WITHOUT a valid manifest — debris
    from a crashed mid-write run. Without this, a resumed
    ``write_parquet`` would append fresh files next to the stale
    partial ones, duplicating rows that the post-write manifest pass
    would then bless. Returns the removed part_ids."""
    import shutil

    removed = []
    if not os.path.isdir(out_dir):
        return removed
    done = completed_partitions(out_dir)
    for name in os.listdir(out_dir):
        m = _PART_RE.match(name)
        if m and int(m.group(1)) not in done:
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)
            removed.append(int(m.group(1)))
    return removed


def clear_all(out_dir: str) -> None:
    """Delete every partition directory (a non-resume rewrite over an
    existing output would otherwise append duplicate files)."""
    import shutil

    if not os.path.isdir(out_dir):
        return
    for name in os.listdir(out_dir):
        if _PART_RE.match(name):
            shutil.rmtree(os.path.join(out_dir, name), ignore_errors=True)


def verify_resume_params(out_dir: str, done: set, params: dict) -> None:
    """Refuse to resume when the partitioning parameters differ from
    the original run's (recorded in manifest lineage): completed
    ``part_id`` values are filtered from the *input*, so a different
    ``num_partitions``/``salt_turns`` would skip the wrong row
    subsets."""
    probe = read_manifest(out_dir, sorted(done)[0])
    recorded = (probe or {}).get("lineage", {}).get("params")
    if recorded != params:
        raise ValueError(
            "Cannot resume: checkpoint manifests record partitioning "
            f"params {recorded!r} but this run uses {params!r}. Re-run "
            "with the original parameters, or with resume=False to "
            "rewrite from scratch."
        )


def read_manifest(out_dir: str, part_id: int) -> Optional[dict]:
    try:
        with open(os.path.join(partition_dir(out_dir, part_id), MANIFEST_NAME)) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None
