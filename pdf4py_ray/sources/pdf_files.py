"""Raw-PDF-corpus source: a directory of ``*.pdf`` files → the turn
table the extraction pipeline consumes.

This is the engine's analogue of the reference's test-corpus reader
(``tests/functional_tests.py:27-33`` — open every file under
``tests/pdfs``): a user with a directory of PDFs gets the same
pipeline as transcript-embedded payloads. Built on
``ray.data.read_binary_files`` (streaming, one block per file group,
no driver-side file loop); each file becomes a single-turn
conversation whose payload is the standard base64 PDF envelope, so
``ExtractTurns`` needs no special casing. Its ``conv_id`` is ``file-``
plus the file's path below the corpus root without the extension
(``a.pdf`` → ``file-a``, ``sub/a.pdf`` → ``file-sub/a``), so
same-named files in different directories stay distinct.

The streaming variant ships only paths and runs ``ExtractPdfFromPath``
as a task stage: each worker process builds one extractor per pipeline
build and mmaps the files it is given.
"""

from __future__ import annotations

import base64
import functools
import json
import os
from datetime import datetime
from typing import Optional

import numpy as np
import pyarrow as pa

_EPOCH = datetime(2026, 1, 1)


def pdf_conv_id(path: str, root: str) -> str:
    """``file-`` + ``path`` relative to the corpus ``root``, without its
    extension and with ``/`` separators."""
    rel = os.path.splitext(os.path.relpath(path, root))[0]
    return "file-" + rel.replace(os.sep, "/")


def _corpus_root(path: str) -> str:
    """The directory conv_ids are relative to, in the form Ray Data
    reports file paths (URI scheme stripped); a single ``.pdf`` path
    is relative to its directory."""
    root = path.split("://", 1)[-1]
    return os.path.dirname(root) if root.lower().endswith(".pdf") else root


def pdf_files_to_turns(batch: pa.Table, root: str) -> pa.Table:
    """(bytes, path) rows of the corpus under ``root`` → transcript-turn
    rows."""
    from .transcripts import TURN_SCHEMA

    rows = []
    for data, path in zip(batch["bytes"].to_pylist(), batch["path"].to_pylist()):
        envelope = json.dumps({"pdf_b64": base64.b64encode(data).decode("ascii")})
        rows.append(
            {
                "conv_id": pdf_conv_id(path, root),
                "turn_idx": 0,
                "role": "tool",
                "text": envelope,
                "tool": "pdf_reader",
                "ts": _EPOCH,
            }
        )
    return pa.Table.from_pylist(rows, schema=TURN_SCHEMA)


def read_pdf_corpus(path: str):
    """Lazy Dataset of transcript turns, one per ``*.pdf`` under
    ``path`` (recursive)."""
    import ray.data as rd

    from ..config import apply_engine_defaults

    apply_engine_defaults()
    files = rd.read_binary_files(
        path, include_paths=True, file_extensions=["pdf"]
    )
    return files.map_batches(
        functools.partial(pdf_files_to_turns, root=_corpus_root(path)),
        batch_format="pyarrow",
    )


def extract_pdf_corpus(path: str, **kwargs):
    """End-to-end: PDF directory → extracted text Dataset (same stages
    as the transcript pipeline)."""
    from ..pipelines.extract_pipeline import SORT_KEYS, extraction_dataset

    ds = extraction_dataset(read_pdf_corpus(path), **kwargs)
    return ds.sort(SORT_KEYS)


# ------------------------------------------------------- streaming variant


def list_pdf_paths(path: str, parallelism: int = 64):
    """Metadata-only Dataset of ``{path, n_bytes}`` rows for every
    ``*.pdf`` under ``path`` (recursive, deterministic order).

    The driver lists paths and workers open the files — the same
    list-on-driver / read-on-worker split Ray's own file datasources
    use — so no file byte ever enters the object store from the
    listing. Rows are spread across ``parallelism`` blocks so the
    downstream extraction tasks get work from the first block."""
    import ray.data as rd

    paths, sizes = [], []
    for root, dirs, files in os.walk(path):
        dirs.sort()
        for f in sorted(files):
            if f.lower().endswith(".pdf"):
                p = os.path.join(root, f)
                paths.append(p)
                sizes.append(os.path.getsize(p))
    table = pa.table({
        "path": pa.array(paths, type=pa.string()),
        "n_bytes": pa.array(sizes, type=pa.int64()),
    })
    ds = rd.from_arrow(table)
    return ds.repartition(min(len(paths), parallelism)) if paths else ds


class ExtractPdfFromPath:
    """Task stage: ``{path}`` rows of the corpus under ``root`` →
    extracted-text rows with the transcript pipeline's output schema.

    Unlike ``read_pdf_corpus`` (which ships each file's bytes through
    the object store inside an Arrow cell), each worker binds the
    document to a read-only mmap locally (``PdfDocument.from_file``) —
    the OS pages in only the bytes the xref walk and referenced
    objects actually touch, so a multi-GB PDF costs its *used* pages,
    not its size. The engine-side analogue of the reference Lexer's
    ``io.BufferedReader`` binding (``/root/reference/pdf4py/_lexer.py:69-106``)
    lifted into a distributed source. Errors are total: a corrupt file
    yields a ``status="error"`` row, and the mmap/fd are released per
    file (``PdfDocument.close``) so long corpus scans don't leak fds."""

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


def extract_pdf_corpus_streaming(path: str, concurrency: Optional[int] = None,
                                 batch_size: int = 8, parallelism: int = 64):
    """End-to-end streaming: PDF directory → extracted text Dataset,
    no file bytes through the object store (paths shuffle, workers
    mmap). Output rows match ``extract_pdf_corpus`` minus ``part_id``
    (there is no turn table to partition). ``concurrency`` caps the
    extraction tasks (``None``: no cap)."""
    from ..config import apply_engine_defaults
    from ..functions.broadcast import task_stage
    from ..pipelines.extract_pipeline import SORT_KEYS

    apply_engine_defaults()
    ds = list_pdf_paths(path, parallelism=parallelism).map_batches(
        task_stage("extract_pdf_from_path", ExtractPdfFromPath, _corpus_root(path)),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )
    return ds.sort(SORT_KEYS)
