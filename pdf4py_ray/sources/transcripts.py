"""Deterministic multi-turn transcript synthesis.

The mission input (BASELINE.json ``input_hint``) is a Parquet table of
transcript turns ``(conv_id, turn_idx, role, text, tool, ts)`` whose
payloads embed PDF bytes and HTML. No such table ships with the test
data, so we synthesize it — *deterministically* — from the driver's
``documents`` table: each document becomes one conversation whose
payload turn carries the document text wrapped in a PDF (one of six
structural variants), an HTML page (two variants), or plain prose.
Every value is a pure function of ``(doc_id, text)``: any partitioning
of the generation job yields identical rows.

Skew: every 50th conversation is a "long" conversation with 24 extra
turns — the hot-key case the salted repartitioning must handle.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from datetime import datetime, timedelta

import pyarrow as pa

from ..kernel import pdfgen
from ..kernel.filters import lzw_encode
from ..kernel.model import Ref
from ..kernel.pdfgen import PdfWriter, RawStream

TURN_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
    ]
)

_EPOCH = datetime(2026, 1, 1)
LONG_CONV_EVERY = 50
LONG_CONV_EXTRA_TURNS = 24
CORRUPT_EVERY = 29

PDF_VARIANTS = ("classic", "xrefstream", "objstm", "flate", "lzw", "multiline",
                "enc_rc4", "enc_aesv2", "enc_aesv3", "incremental", "hybrid")


def _sanitize(text: str, limit: int = 200) -> str:
    """Restrict payload text to printable Latin-1 (PDF string safety)."""
    out = "".join(c if 0x20 <= ord(c) <= 0x7E else " " for c in text[:limit])
    return out.strip() or "empty document"


def _words_to_lines(text: str, per_line: int = 8) -> list:
    words = text.split()
    return [" ".join(words[i : i + per_line]) for i in range(0, len(words), per_line)] or [""]


def make_doc_pdf(text: str, variant: str) -> bytes:
    """A small PDF whose extractable text is ``text`` (single line) or
    its 8-word-wrapped lines (``multiline`` variant)."""
    if variant == "classic":
        return pdfgen.minimal_pdf((text,))
    if variant == "xrefstream":
        return pdfgen.minimal_pdf((text,), xref_stream=True)
    if variant == "objstm":
        return pdfgen.object_stream_pdf((text,))
    if variant in ("flate", "lzw"):
        raw = pdfgen._content(text)
        if variant == "flate":
            payload, fname = zlib.compress(raw), "FlateDecode"
        else:
            payload, fname = lzw_encode(raw), "LZWDecode"
        w = PdfWriter("1.4")
        font_ref = w.add(dict(pdfgen._BASE_FONT))
        c_ref = w.add(RawStream({"Filter": fname}, payload))
        pages_ref = Ref(40, 0)
        p_ref = w.add({"Type": "Page", "Parent": pages_ref, "Contents": c_ref,
                       "Resources": {"Font": {"F1": font_ref}}})
        w.add({"Type": "Pages", "Kids": [p_ref], "Count": 1}, num=40)
        root = w.add({"Type": "Catalog", "Pages": pages_ref})
        return w.tobytes(root)
    if variant == "enc_rc4":
        return pdfgen.encrypted_pdf(cfm="V2", text=text)
    if variant == "enc_aesv2":
        return pdfgen.encrypted_pdf(cfm="AESV2", text=text)
    if variant == "enc_aesv3":
        return pdfgen.encrypted_pdf_aesv3_page(text)
    if variant == "incremental":
        # fixed content; exercises the Prev-chained xref path
        return pdfgen.incremental_update_pdf()
    if variant == "hybrid":
        # fixed content; exercises the XRefStm hybrid path
        return pdfgen.hybrid_xrefstm_pdf()
    if variant == "multiline":
        lines = _words_to_lines(text)
        body = bytearray(b"BT /F1 12 Tf 14 TL 72 712 Td ")
        for i, line in enumerate(lines):
            safe = line.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")
            if i > 0:
                body += b"T* "
            body += b"(" + safe.encode("latin-1") + b") Tj "
        body += b"ET"
        w = PdfWriter("1.4")
        font_ref = w.add(dict(pdfgen._BASE_FONT))
        root = w.simple_page_tree([bytes(body)], {"Font": {"F1": font_ref}})
        return w.tobytes(root)
    raise ValueError(variant)


def make_doc_html(text: str, link_farm: bool) -> str:
    """An HTML page whose main content is ``text`` paragraphs."""
    paras = _words_to_lines(text, per_line=12)
    body = "\n".join(f"<p>{p}</p>" for p in paras)
    sidebar = (
        "<div id='side'><ul>"
        + "".join(f"<li><a href='/l{i}'>More {i}</a></li>" for i in range(6))
        + "</ul></div>"
        if link_farm
        else ""
    )
    return (
        "<!DOCTYPE html><html><head><title>doc</title></head><body>"
        "<nav><a href='/'>Home</a> <a href='/x'>Other</a></nav>"
        f"<article>{body}</article>{sidebar}"
        "<footer><a href='/tos'>Terms</a></footer></body></html>"
    )


def payload_plan(doc_id: int) -> tuple:
    """(payload_kind, variant) for a document — the synthesis contract.

    Covers all eleven structural PDF variants (classic xref, xref
    stream, object streams, Flate, LZW, multiline text, RC4 / AES-V2 /
    AES-V3 encryption opened with the empty user password like the
    reference's ``tests/encrypted_pdfs`` corpus, Prev-chained
    incremental update, hybrid XRefStm), two HTML shapes, and plain
    prose; every 29th doc is a truncated PDF (error-path row)."""
    if doc_id % CORRUPT_EVERY == 7:
        return ("pdf_corrupt", "classic")
    slot = doc_id % 14
    if slot < 11:
        return ("pdf", PDF_VARIANTS[slot])
    if slot == 11:
        return ("html", "article")
    if slot == 12:
        return ("html", "link_farm")
    return ("text", "plain")


def synth_turn_rows_for_doc(doc_id: int, text: str, rep: int = 0) -> list:
    """All turn rows of the conversation derived from one document.

    ``rep`` > 0 derives an extra independent conversation from the same
    document (bench scaling runs need a compute-bound input larger than
    the sf directory provides); rep=0 keeps the original naming so all
    goldens are unchanged.
    """
    conv_id = f"conv-{doc_id:08d}" if rep == 0 else f"conv-{doc_id:08d}-r{rep:02d}"
    safe = _sanitize(text)
    t0 = _EPOCH + timedelta(seconds=doc_id * 60 + rep)

    def row(idx, role, body, tool=""):
        return {
            "conv_id": conv_id,
            "turn_idx": idx,
            "role": role,
            "text": body,
            "tool": tool,
            "ts": t0 + timedelta(seconds=idx),
        }

    rows = [
        row(0, "user", f"Please summarise document {doc_id}: {safe[:60]}"),
        row(1, "assistant", f"Working on document {doc_id} now."),
    ]
    kind, variant = payload_plan(doc_id)
    if kind == "pdf":
        pdf = make_doc_pdf(safe, variant)
        envelope = json.dumps({"pdf_b64": base64.b64encode(pdf).decode("ascii")})
        rows.append(row(2, "tool", envelope, tool="pdf_reader"))
    elif kind == "pdf_corrupt":
        pdf = make_doc_pdf(safe, variant)[: 120]  # truncated → error row
        envelope = json.dumps({"pdf_b64": base64.b64encode(pdf).decode("ascii")})
        rows.append(row(2, "tool", envelope, tool="pdf_reader"))
    elif kind == "html":
        rows.append(row(2, "tool", make_doc_html(safe, variant == "link_farm"), tool="web_fetch"))
    else:
        rows.append(row(2, "assistant", text))
    rows.append(row(3, "assistant", f"Done with document {doc_id}."))

    if doc_id % LONG_CONV_EVERY == 0:  # skewed long conversation
        h = hashlib.sha256(conv_id.encode()).hexdigest()
        for k in range(LONG_CONV_EXTRA_TURNS):
            rows.append(row(4 + k, "user" if k % 2 else "assistant",
                            f"follow-up {k} {h[:12]} on {safe[:40]}"))
    return rows


def synth_transcripts(sf_dir: str, ray_data=True, repeat: int = 1):
    """The transcript turn table for a scale-factor directory.

    With ``ray_data=True`` returns a lazy ``ray.data.Dataset`` (the
    synthesis itself runs distributed as a ``map_batches`` stage);
    otherwise a single ``pyarrow.Table`` built in-process (test oracle
    path — FIXTURES §5 requires a single-threaded reference run).
    ``repeat`` multiplies the corpus with independent conversations
    (used by bench scaling runs to reach a compute-bound regime).
    """
    if ray_data:
        import ray
        import ray.data as rd

        from ..config import apply_engine_defaults

        apply_engine_defaults()
        # The documents table is small (the "small side"): read it ONCE
        # on the driver, ship it to the object store ONCE (ray.put),
        # and drive synthesis from a cheap descriptor Dataset — each
        # unit covers (rep, doc-chunk). Splitting the parquet read
        # instead would make every task re-decompress the single row
        # group (~0.2 s × n_tasks of pure waste). Workers fetch the
        # broadcast table zero-copy from shared memory.
        import pyarrow.parquet as pq

        docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        n_docs = len(docs)
        total_convs = n_docs * repeat
        n_units = min(1024, max(64, total_convs // 600))
        docs_ref = ray.put(docs)

        def synth_units(batch: pa.Table) -> pa.Table:
            table = ray.get(docs_ref)
            rows: list = []
            for unit in batch["id"].to_pylist():
                # unit → contiguous conv range [lo, hi) over rep-major order
                lo = unit * total_convs // n_units
                hi = (unit + 1) * total_convs // n_units
                for conv in range(lo, hi):
                    rep, idx = divmod(conv, n_docs)
                    doc_id = table["doc_id"][idx].as_py()
                    text = table["text"][idx].as_py() or ""
                    rows.extend(synth_turn_rows_for_doc(doc_id, text, rep))
            return pa.Table.from_pylist(rows, schema=TURN_SCHEMA)

        units = rd.range(n_units, override_num_blocks=n_units)
        return units.map_batches(synth_units, batch_format="pyarrow", batch_size=1)
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rows: list = []
    for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        for rep in range(repeat):
            rows.extend(synth_turn_rows_for_doc(doc_id, text or "", rep))
    return pa.Table.from_pylist(rows, schema=TURN_SCHEMA)


def table_rows(sf_dir: str, name: str) -> int:
    """Row count of one of the driver tables, from its Parquet footer
    (no data read): the ``rows_hint`` that sizes or skips exchanges."""
    import pyarrow.parquet as pq

    return pq.read_metadata(f"{sf_dir}/{name}.parquet").num_rows


def read_table(sf_dir: str, name: str, columns=None):
    """Column-pruned scan of one of the driver tables."""
    import ray.data as rd

    from ..config import apply_engine_defaults

    apply_engine_defaults()
    return rd.read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)
