"""The raw-PDF-directory source: files → turn rows → extraction."""

import pytest


@pytest.fixture(scope="module")
def pdf_dir(tmp_path_factory):
    from pdf4py_ray.kernel import pdfgen

    d = tmp_path_factory.mktemp("pdfs")
    (d / "a.pdf").write_bytes(pdfgen.minimal_pdf(("alpha text",)))
    (d / "b.pdf").write_bytes(pdfgen.minimal_pdf(("beta text",), xref_stream=True))
    (d / "c.pdf").write_bytes(pdfgen.object_stream_pdf(("gamma text",)))
    (d / "notes.txt").write_text("not a pdf")  # must be ignored
    return str(d)


def test_read_pdf_corpus_rows(ray_session, pdf_dir):
    from pdf4py_ray.sources.pdf_files import read_pdf_corpus

    rows = read_pdf_corpus(pdf_dir).take_all()
    assert {r["conv_id"] for r in rows} == {"file-a", "file-b", "file-c"}
    assert all(r["tool"] == "pdf_reader" and r["turn_idx"] == 0 for r in rows)


def test_extract_pdf_corpus_end_to_end(ray_session, pdf_dir):
    from pdf4py_ray.sources.pdf_files import extract_pdf_corpus

    out = {r["conv_id"]: r for r in
           extract_pdf_corpus(pdf_dir, num_partitions=4, concurrency=2).take_all()}
    assert out["file-a"]["extracted_text"] == "alpha text"
    assert out["file-b"]["extracted_text"] == "beta text"
    assert out["file-c"]["extracted_text"] == "gamma text"
    assert all(r["status"] == "ok" and r["kind"] == "pdf" for r in out.values())


def test_extract_pdf_corpus_streaming_matches_in_memory(ray_session, pdf_dir):
    """The mmap-per-worker streaming source must produce the same
    extraction rows as the bytes-through-object-store source."""
    from pdf4py_ray.sources.pdf_files import (
        extract_pdf_corpus,
        extract_pdf_corpus_streaming,
    )

    mem = {r["conv_id"]: r for r in
           extract_pdf_corpus(pdf_dir, num_partitions=4, concurrency=2).take_all()}
    stream = {r["conv_id"]: r for r in
              extract_pdf_corpus_streaming(pdf_dir, concurrency=2).take_all()}
    assert set(mem) == set(stream) == {"file-a", "file-b", "file-c"}
    for cid in mem:
        for col in ("extracted_text", "spans", "n_objects", "n_bytes",
                    "status", "kind", "role", "tool", "turn_idx"):
            assert mem[cid][col] == stream[cid][col], (cid, col)


def test_extract_pdf_corpus_streaming_error_totality(ray_session, tmp_path):
    """A corrupt file yields a status=error row and never poisons the
    batch; fds are released per file (PdfDocument.close)."""
    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.sources.pdf_files import extract_pdf_corpus_streaming

    d = tmp_path / "pdfs"
    d.mkdir()
    (d / "good.pdf").write_bytes(pdfgen.minimal_pdf(("fine",)))
    (d / "bad.pdf").write_bytes(b"%PDF-1.7\nnot really a pdf")
    rows = {r["conv_id"]: r for r in
            extract_pdf_corpus_streaming(str(d), concurrency=2).take_all()}
    assert rows["file-good"]["status"] == "ok"
    assert rows["file-good"]["extracted_text"] == "fine"
    assert rows["file-bad"]["status"] == "error"
    assert rows["file-bad"]["error"]


def test_nested_same_name_files_keep_distinct_conv_ids(ray_session, tmp_path):
    """``a/x.pdf`` and ``b/x.pdf`` are two conversations in both
    sources; a top-level file keeps its plain ``file-<stem>`` id."""
    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.sources.pdf_files import (
        extract_pdf_corpus,
        extract_pdf_corpus_streaming,
    )

    for sub, text in (("a", "from a"), ("b", "from b")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.pdf").write_bytes(pdfgen.minimal_pdf((text,)))
    (tmp_path / "top.pdf").write_bytes(pdfgen.minimal_pdf(("top level",)))
    want = {"file-a/x": "from a", "file-b/x": "from b", "file-top": "top level"}

    for ds in (extract_pdf_corpus(str(tmp_path), num_partitions=4, concurrency=2),
               extract_pdf_corpus_streaming(str(tmp_path), concurrency=2)):
        rows = ds.select_columns(["conv_id", "extracted_text"]).take_all()
        assert len(rows) == 3
        assert {r["conv_id"]: r["extracted_text"] for r in rows} == want
