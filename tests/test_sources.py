"""The raw-PDF-directory source: listed files → the one extraction
stage, which mmaps each file → range-sorted rows, each equal to the
in-process kernel oracle."""

import os

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


def _in_order(rows) -> list:
    """Rows as ``range_sorted`` output is consumed: buckets ascending,
    each bucket in its emit order."""
    return sorted(rows, key=lambda r: r["sort_bucket"])


def _oracle_row(path: str, root: str) -> dict:
    """The expected output row of one file: the kernel run in-process
    on the file's bytes."""
    from pdf4py_ray.kernel.text import extract_pdf_text

    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, spans, n_objects = extract_pdf_text(data)
        status, error = ("ok", "") if text else ("empty", "")
    except Exception as exc:  # noqa: BLE001 — the source is total too
        text, spans, n_objects = "", [], 0
        status, error = "error", f"{type(exc).__name__}: {exc}"[:200]
    rel = os.path.splitext(os.path.relpath(path, root))[0].replace(os.sep, "/")
    return {"conv_id": "file-" + rel, "turn_idx": 0, "kind": "pdf", "role": "tool",
            "tool": "pdf_reader", "extracted_text": text,
            "spans": [{"start": s, "end": e, "kind": k} for s, e, k in spans],
            "n_objects": n_objects, "n_bytes": len(data), "status": status, "error": error}


def _layout(kind: str, base) -> tuple:
    """(path given to the source, corpus root, files) of a test corpus."""
    from pdf4py_ray.kernel import pdfgen

    files = {
        "flat": {"a.pdf": pdfgen.minimal_pdf(("alpha text",)),
                 "b.pdf": pdfgen.minimal_pdf(("beta text",), xref_stream=True),
                 "c.pdf": pdfgen.object_stream_pdf(("gamma", "delta")),
                 "bad.pdf": b"%PDF-1.7\nnot really a pdf"},
        # walk order (a-b.pdf, a.pdf, a/x.pdf) differs from conv_id
        # order (file-a, file-a-b, file-a/x)
        "nested": {"a-b.pdf": pdfgen.minimal_pdf(("a dash b",)),
                   "a.pdf": pdfgen.minimal_pdf(("plain a",)),
                   "a/x.pdf": pdfgen.minimal_pdf(("nested x",), xref_stream=True)},
        "single": {"only.pdf": pdfgen.incremental_update_pdf()},
    }[kind]
    for name, data in files.items():
        (base / name).parent.mkdir(parents=True, exist_ok=True)
        (base / name).write_bytes(data)
    paths = [str(base / name) for name in files]
    return (paths[0] if kind == "single" else str(base)), str(base), paths


@pytest.mark.parametrize("kind", ["flat", "nested", "single"])
def test_pdf_corpus_rows_equal_kernel_oracle(ray_session, tmp_path, kind):
    """Every row equals the kernel run on the file's bytes, in
    ``(conv_id, turn_idx)`` order, for a directory, a nested tree and a
    single file (one row)."""
    from pdf4py_ray.pipelines.extract_pipeline import extract
    from pdf4py_ray.sources.pdf_files import pdf_source

    path, root, files = _layout(kind, tmp_path)
    want = sorted((_oracle_row(f, root) for f in files), key=lambda r: r["conv_id"])
    got = [{k: r[k] for k in want[0]} for r in _in_order(extract(pdf_source(path)).take_all())]
    assert got == want
    assert any(r["status"] == "error" for r in want) == (kind == "flat")


def test_extract_pdf_corpus_end_to_end(ray_session, pdf_dir):
    from pdf4py_ray.pipelines.extract_pipeline import extract
    from pdf4py_ray.sources.pdf_files import pdf_source

    out = {r["conv_id"]: r for r in extract(pdf_source(pdf_dir, concurrency=2)).take_all()}
    assert out["file-a"]["extracted_text"] == "alpha text"
    assert out["file-b"]["extracted_text"] == "beta text"
    assert out["file-c"]["extracted_text"] == "gamma text"
    assert all(r["status"] == "ok" and r["kind"] == "pdf" for r in out.values())


def test_extract_pdf_corpus_streaming_error_totality(ray_session, tmp_path):
    """A corrupt file yields a status=error row and never poisons the
    batch; fds are released per file (PdfDocument.close)."""
    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.pipelines.extract_pipeline import extract
    from pdf4py_ray.sources.pdf_files import pdf_source

    d = tmp_path / "pdfs"
    d.mkdir()
    (d / "good.pdf").write_bytes(pdfgen.minimal_pdf(("fine",)))
    (d / "bad.pdf").write_bytes(b"%PDF-1.7\nnot really a pdf")
    rows = {r["conv_id"]: r for r in extract(pdf_source(str(d), concurrency=2)).take_all()}
    assert rows["file-good"]["status"] == "ok"
    assert rows["file-good"]["extracted_text"] == "fine"
    assert rows["file-bad"]["status"] == "error"
    assert rows["file-bad"]["error"]


def test_nested_same_name_files_keep_distinct_conv_ids(ray_session, tmp_path):
    """``a/x.pdf`` and ``b/x.pdf`` are two conversations; a top-level
    file keeps its plain ``file-<stem>`` id."""
    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.pipelines.extract_pipeline import extract
    from pdf4py_ray.sources.pdf_files import pdf_source

    for sub, text in (("a", "from a"), ("b", "from b")):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "x.pdf").write_bytes(pdfgen.minimal_pdf((text,)))
    (tmp_path / "top.pdf").write_bytes(pdfgen.minimal_pdf(("top level",)))
    want = {"file-a/x": "from a", "file-b/x": "from b", "file-top": "top level"}

    ds = extract(pdf_source(str(tmp_path), concurrency=2))
    rows = ds.select_columns(["conv_id", "extracted_text"]).take_all()
    assert len(rows) == 3
    assert {r["conv_id"]: r["extracted_text"] for r in rows} == want


def test_pdf_corpus_plan_has_one_range_sort(ray_session, tmp_path):
    """The listing is cut into blocks without a repartition, and the
    only sort is ``range_sorted``'s bucket shuffle, after the one
    extraction stage. Only local paths build: the workers mmap the
    files."""
    from ray.data._internal.logical.operators.all_to_all_operator import Repartition, Sort

    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.pipelines.extract_pipeline import extract
    from pdf4py_ray.sources.pdf_files import pdf_source

    for i in range(3):
        (tmp_path / f"{i}.pdf").write_bytes(pdfgen.minimal_pdf((f"doc {i}",)))
    ops, stack = [], [extract(pdf_source(str(tmp_path)))._logical_plan.dag]
    while stack:
        ops.append(stack.pop())
        stack.extend(ops[-1].input_dependencies)
    assert not [op for op in ops if isinstance(op, Repartition)]
    sorts = [op for op in ops if isinstance(op, Sort)]
    assert [op._sort_key.get_columns() for op in sorts] == [["sort_bucket"]]
    assert any(op.name == "MapBatches(extract_turns)" for op in ops)

    with pytest.raises(ValueError):
        pdf_source("mock://corpus/pdfs")
