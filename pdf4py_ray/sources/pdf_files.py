"""Raw-PDF-corpus source: a local directory of ``*.pdf`` files (or one
file) → extracted-text rows in stable ``(conv_id, turn_idx)`` order.

This is the engine's analogue of the reference's test-corpus reader
(``tests/functional_tests.py:27-33`` — open every file under
``tests/pdfs``). The driver lists the files and their sizes
(``input_files``), the same list-on-driver / read-on-worker split Ray's
own file datasources use, and cuts the listing into at most
``LISTING_BLOCKS`` blocks, so no file byte enters the object store.
``ExtractPdfFromPath`` runs as a task stage: each worker process builds
one extractor per pipeline build and mmaps the files it is given. The
output is :func:`range_sorted` over split points taken from the
listing's own ``conv_id`` values, which the driver already holds.

Each file is a single-turn conversation. Its ``conv_id`` is ``file-``
plus the file's path below the corpus root without the extension
(``a.pdf`` → ``file-a``, ``sub/a.pdf`` → ``file-sub/a``), so same-named
files in different directories stay distinct.
"""

from __future__ import annotations

import os
from datetime import datetime
from typing import Optional

import numpy as np
import pyarrow as pa

_EPOCH = datetime(2026, 1, 1)

# blocks the listing is cut into (one extraction task each, at most)
LISTING_BLOCKS = 64
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


class ExtractPdfFromPath:
    """Task stage: ``{path, n_bytes}`` rows of the corpus under ``root``
    → extracted-text rows with the transcript pipeline's output schema.

    Each worker binds the document to a read-only mmap locally
    (``PdfDocument.from_file``) — the OS pages in only the bytes the
    xref walk and referenced objects actually touch, so a multi-GB PDF
    costs its *used* pages, not its size. The engine-side analogue of
    the reference Lexer's ``io.BufferedReader`` binding
    (``pdf4py/_lexer.py:69-106``) lifted into a distributed source.
    Errors are total: a corrupt file yields a ``status="error"`` row,
    and the mmap/fd are released per file (``PdfDocument.close``) so
    long corpus scans don't leak fds."""

    def __init__(self, root: str) -> None:
        from ..kernel.document import PdfDocument
        from ..kernel.text import extract_document_text

        self._root = root
        self._open = PdfDocument.from_file
        self._extract = extract_document_text

    def extract_one(self, path: str):
        doc = None
        try:
            doc = self._open(path)
            text, spans, n_objects = self._extract(doc)
            status, error = ("ok", "") if text else ("empty", "")
        except Exception as exc:  # noqa: BLE001 — totality over corrupt files
            text, spans, n_objects = "", [], 0
            status, error = "error", f"{type(exc).__name__}: {exc}"[:200]
        finally:
            if doc is not None:
                doc.close()
        return text, spans, n_objects, status, error

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.extract import append_output
        from .transcripts import TURN_SCHEMA

        paths = batch["path"].to_pylist()
        rows = []
        for path, n_bytes in zip(paths, batch["n_bytes"].to_pylist()):
            text, spans, n_objects, status, error = self.extract_one(path)
            rows.append(("pdf", text, spans, n_objects, n_bytes, status, error))
        n = len(paths)
        keys = pa.table(
            [[pdf_conv_id(p, self._root) for p in paths],
             np.zeros(n, dtype=np.int32), ["tool"] * n, ["pdf_reader"] * n, [_EPOCH] * n],
            schema=pa.schema([TURN_SCHEMA.field(c) for c in
                              ("conv_id", "turn_idx", "role", "tool", "ts")]),
        )
        return append_output(keys, rows)


def extract_pdf_corpus(path: str, concurrency: Optional[int] = None):
    """PDF file or directory (recursive) → extracted-text Dataset,
    consumed in ascending ``(conv_id, turn_idx)`` order (the
    :func:`range_sorted` output, ``sort_bucket`` column included).
    ``concurrency`` caps the extraction tasks (``None``: no cap).

    ``path`` must be on the local filesystem (a bare path or a
    ``file://`` URI): the workers mmap the files; any other filesystem
    raises ``ValueError`` here, when the pipeline is built."""
    import ray.data as rd

    from ..config import apply_engine_defaults
    from ..functions.broadcast import task_stage
    from ..pipelines.extract_pipeline import input_files, quantile_splits, range_sorted

    if "://" in path and not path.startswith("file://"):
        raise ValueError(f"PDF corpus must be on the local filesystem, got {path!r}")
    apply_engine_defaults()
    _, files = input_files(path, ".pdf")
    root = _corpus_root(path)
    listing = pa.table({
        "path": pa.array([fi.path for fi in files], type=pa.string()),
        "n_bytes": pa.array([fi.size for fi in files], type=pa.int64()),
    })
    n, k = listing.num_rows, max(1, min(listing.num_rows, LISTING_BLOCKS))
    bounds = [i * n // k for i in range(k + 1)]
    ds = rd.from_arrow([listing.slice(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])])
    ds = ds.map_batches(
        task_stage("extract_pdf_from_path", ExtractPdfFromPath, root),
        batch_format="pyarrow",
        batch_size=BATCH_SIZE,
        concurrency=concurrency,
    )
    conv_ids = sorted(pdf_conv_id(fi.path, root) for fi in files)
    return range_sorted(ds, quantile_splits(conv_ids, LISTING_BLOCKS))
