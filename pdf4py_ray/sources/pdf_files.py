"""Raw-PDF-corpus source: a local directory of ``*.pdf`` files (or one
file) as a :class:`~pdf4py_ray.pipelines.extract_pipeline.Source`.

This is the engine's analogue of the reference's test-corpus reader
(``tests/functional_tests.py:27-33`` — open every file under
``tests/pdfs``). The driver lists the files and their sizes
(``input_files``), the same list-on-driver / read-on-worker split Ray's
own file datasources use, and cuts the listing into at most
``SORT_BUCKETS`` blocks, so no file byte enters the object store. The
listing's rows are turns ``(conv_id, turn_idx, role, tool, ts, path,
n_bytes)``: the one extraction stage (``ExtractTurns``) reads each
``path`` in place through its ``pdf_path`` extractor, which mmaps the
file. The split points are exact, from the listing's own ``conv_id``
values, which the driver already holds; the identity is the listing
(``listing_lineage``), so a written corpus resumes like every source.

Each file is a single-turn conversation. Its ``conv_id`` is ``file-``
plus the file's path below the corpus root without the extension
(``a.pdf`` → ``file-a``, ``sub/a.pdf`` → ``file-sub/a``), so same-named
files in different directories stay distinct.
"""

from __future__ import annotations

import functools
import os
from datetime import datetime
from typing import Optional

import numpy as np
import pyarrow as pa

_EPOCH = datetime(2026, 1, 1)

# files per extraction batch
BATCH_SIZE = 8


def pdf_conv_id(path: str, root: str) -> str:
    """``file-`` + ``path`` relative to the corpus ``root``, without its
    extension and with ``/`` separators."""
    rel = os.path.splitext(os.path.relpath(path, root))[0]
    return "file-" + rel.replace(os.sep, "/")


def _corpus_root(path: str) -> str:
    """The directory conv_ids are relative to (URI scheme stripped); a
    single file is relative to its directory."""
    root = path.split("://", 1)[-1]
    return os.path.dirname(root) if os.path.isfile(root) else root


def pdf_source(path: str, concurrency: Optional[int] = None):
    """PDF file or directory (recursive) → a ``Source`` of one turn per
    file. ``concurrency`` caps the extraction tasks (``None``: no cap).

    ``path`` must be on the local filesystem (a bare path or a
    ``file://`` URI): the workers mmap the files; any other filesystem
    raises ``ValueError`` here, when the source is built."""
    import ray.data as rd

    from ..config import apply_engine_defaults
    from ..pipelines.extract_pipeline import (
        SORT_BUCKETS,
        Source,
        input_files,
        listing_lineage,
        quantile_splits,
    )
    from .transcripts import TURN_SCHEMA

    if "://" in path and not path.startswith("file://"):
        raise ValueError(f"PDF corpus must be on the local filesystem, got {path!r}")
    apply_engine_defaults()
    _, files = input_files(path, ".pdf")
    root = _corpus_root(path)
    n = len(files)
    conv_ids = [pdf_conv_id(fi.path, root) for fi in files]
    listing = pa.table(
        [conv_ids, np.zeros(n, dtype=np.int32), ["tool"] * n, ["pdf_reader"] * n, [_EPOCH] * n,
         [fi.path for fi in files], [fi.size for fi in files]],
        schema=pa.schema([TURN_SCHEMA.field(c) for c in ("conv_id", "turn_idx", "role", "tool", "ts")]
                         + [("path", pa.string()), ("n_bytes", pa.int64())]),
    )
    k = max(1, min(n, SORT_BUCKETS))
    bounds = [i * n // k for i in range(k + 1)]
    turns = rd.from_arrow([listing.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])])
    splits = functools.partial(quantile_splits, sorted(conv_ids), SORT_BUCKETS)
    return Source(turns, splits, listing_lineage(path, files), concurrency, BATCH_SIZE)
