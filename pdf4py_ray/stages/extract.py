"""The extraction stage: transcript turns → extracted main content.

A task ``map_batches`` stage over zero-copy Arrow batches (SURVEY
§3.4). The stage holds no state worth an actor pool: each worker
process builds one ``ExtractTurns`` per pipeline build
(:func:`~pdf4py_ray.functions.broadcast.task_stage`) and reuses it for
every batch it runs. Each row is classified (PDF envelope / HTML /
plain text) and dispatched through the per-document kernel; errors are
*total* — a malformed payload yields a ``status="error"`` row and
never poisons the batch (the retry-safety requirement of SURVEY §4.2).

The extractor registry mirrors the reference's decoder registry
(``pdf4py/_decoders.py:7-14``) as the engine's user-extension surface:
``@register_extractor(kind)`` adds a payload kind without touching the
pipeline.
"""

from __future__ import annotations

import base64
import json
import re
from typing import Callable, Tuple

import numpy as np
import pyarrow as pa

from ..kernel.document import PdfDocument
from ..kernel.html_extract import extract_html_text, looks_like_html
from ..kernel.text import extract_document_text, extract_pdf_text

Span = Tuple[int, int, str]

SPAN_TYPE = pa.list_(
    pa.struct([("start", pa.int32()), ("end", pa.int32()), ("kind", pa.string())])
)

OUTPUT_FIELDS = [
    ("kind", pa.string()),
    ("extracted_text", pa.string()),
    ("spans", SPAN_TYPE),
    ("n_objects", pa.int32()),
    ("n_bytes", pa.int64()),
    ("status", pa.string()),
    ("error", pa.string()),
]

# ---------------------------------------------------------------- registry

_EXTRACTORS: dict = {}


def register_extractor(kind: str):
    """Register ``fn(payload) -> (text, spans, n_objects)`` for a kind."""

    def wrapper(fn: Callable):
        _EXTRACTORS[kind] = fn
        return fn

    return wrapper


@register_extractor("pdf")
def _extract_pdf(payload: bytes):
    return extract_pdf_text(payload)


@register_extractor("pdf_path")
def _extract_pdf_path(path: str):
    # bound to a read-only mmap: the OS pages in only the bytes the xref
    # walk and the referenced objects touch; the mmap and fd are released
    # per file, so a long corpus scan does not leak fds
    doc = PdfDocument.from_file(path)
    try:
        return extract_document_text(doc)
    finally:
        doc.close()


@register_extractor("html")
def _extract_html(payload: str):
    text, spans = extract_html_text(payload)
    return text, spans, 0


@register_extractor("text")
def _extract_plain(payload: str):
    return payload, ([(0, len(payload), "text")] if payload else []), 0


_PDF_ENVELOPE_RE = re.compile(r'^\s*\{.*"pdf_b64"')


def classify_payload(text: str, tool: str) -> Tuple[str, object]:
    """(kind, payload) for one turn row."""
    if text and _PDF_ENVELOPE_RE.match(text[:200]):
        try:
            envelope = json.loads(text)
            b64 = envelope.get("pdf_b64")
            if b64 is not None:
                return "pdf", base64.b64decode(b64)
        except (ValueError, TypeError):
            pass
    if text and text.startswith("%PDF-"):
        return "pdf", text.encode("latin-1", errors="replace")
    if text and looks_like_html(text):
        return "html", text
    return "text", text or ""


def spans_array(spans_per_row) -> pa.Array:
    """``SPAN_TYPE`` column from one ``[(start, end, kind), ...]`` per
    row, built from flat offset/start/end/kind arrays."""
    offsets = np.zeros(len(spans_per_row) + 1, dtype=np.int32)
    np.cumsum([len(spans) for spans in spans_per_row], out=offsets[1:])
    flat = [span for spans in spans_per_row for span in spans]
    starts, ends, kinds = zip(*flat) if flat else ((), (), ())
    values = pa.StructArray.from_arrays(
        [pa.array(starts, pa.int32()), pa.array(ends, pa.int32()),
         pa.array(kinds, pa.string())],
        fields=list(SPAN_TYPE.value_type),
    )
    return pa.ListArray.from_arrays(pa.array(offsets), values, type=SPAN_TYPE)


def append_output(table: pa.Table, rows) -> pa.Table:
    """``table`` plus the ``OUTPUT_FIELDS`` columns of ``(kind,
    extracted_text, spans, n_objects, n_bytes, status, error)`` row
    tuples, one per table row."""
    cols = list(zip(*rows)) or [()] * len(OUTPUT_FIELDS)
    for (name, typ), values in zip(OUTPUT_FIELDS, cols):
        col = spans_array(values) if name == "spans" else pa.array(values, type=typ)
        table = table.append_column(name, col)
    return table


class ExtractTurns:
    """Batch extractor: ``ExtractTurns()(batch)`` over
    ``batch_format="pyarrow"`` batches. A turn batch carries each
    payload in its ``text`` column; a batch of listed files
    (:mod:`pdf4py_ray.sources.pdf_files`) carries ``path`` and
    ``n_bytes`` instead, and each file is a PDF read in place (the
    ``pdf_path`` extractor)."""

    def __init__(self) -> None:
        self.registry = dict(_EXTRACTORS)
        self.classify = classify_payload

    def extract_one(self, text: str, tool: str):
        """Total per-row kernel: never raises."""
        kind, payload = self.classify(text, tool)
        n_bytes = len(payload) if isinstance(payload, (bytes, bytearray)) else len(payload or "")
        return self.run(kind, payload, n_bytes)

    def run(self, kind: str, payload, n_bytes: int):
        """The output row of one payload of ``kind``: the one place where
        a kernel error becomes a ``status="error"`` row."""
        try:
            extracted, spans, n_objects = self.registry[kind](payload)
            status, error = "ok", ""
            if not extracted:
                status = "empty"
        except Exception as exc:  # noqa: BLE001 — totality over a malformed payload
            extracted, spans, n_objects = "", [], 0
            status, error = "error", f"{type(exc).__name__}: {exc}"[:200]
        return kind, extracted, spans, n_objects, n_bytes, status, error

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "path" in batch.column_names:
            rows = [("pdf", *self.run("pdf_path", path, n_bytes)[1:]) for path, n_bytes
                    in zip(batch["path"].to_pylist(), batch["n_bytes"].to_pylist())]
            consumed = ["path", "n_bytes"]
        else:
            texts = batch["text"].to_pylist()
            tools = batch["tool"].to_pylist() if "tool" in batch.column_names else [""] * len(texts)
            rows = [self.extract_one(text or "", tool or "") for text, tool in zip(texts, tools)]
            # the raw payload column is heavy
            consumed = ["text"]
        return append_output(batch.drop_columns(consumed), rows)
