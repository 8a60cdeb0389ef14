"""Whole-document tests over the synthetic fixture corpus — the
analogue of the reference's functional suite
(``/root/reference/tests/functional_tests.py:8-93``): parse every
object, decode every stream, check versions / page counts / xref
chains."""

import os
import re
import subprocess
import sys
import textwrap

import pytest

from pdf4py_ray.kernel import pdfgen
from pdf4py_ray.kernel.document import PdfDocument
from pdf4py_ray.kernel.errors import PdfSyntaxError
from pdf4py_ray.kernel.model import LiteralString, Ref, Stream
from pdf4py_ray.kernel.text import extract_document_text
from pdf4py_ray.sources.transcripts import PDF_VARIANTS, make_doc_pdf


def walk_all(doc: PdfDocument) -> int:
    """Parse every object and force-decode every stream; returns count."""
    n = 0
    for _entry, obj in doc.iter_objects():
        if isinstance(obj, Stream):
            obj.data()
        n += 1
    return n


ALL_FIXTURES = {
    "minimal": lambda: pdfgen.minimal_pdf(),
    "multi_page": lambda: pdfgen.minimal_pdf(("page one", "page two", "page three")),
    "xref_stream": lambda: pdfgen.minimal_pdf(("xref stream doc",), xref_stream=True),
    "object_streams": pdfgen.object_stream_pdf,
    "stream_length_ref": pdfgen.stream_length_ref_pdf,
    "incremental": pdfgen.incremental_update_pdf,
    "hybrid": pdfgen.hybrid_xrefstm_pdf,
    "flate": lambda: pdfgen.filter_pdf("FlateDecode"),
    "flate_png": lambda: pdfgen.filter_pdf("FlateDecode+PNG"),
    "lzw": lambda: pdfgen.filter_pdf("LZWDecode"),
    "asciihex": lambda: pdfgen.filter_pdf("ASCIIHexDecode"),
    "ascii85": lambda: pdfgen.filter_pdf("ASCII85Decode"),
    "rle": lambda: pdfgen.filter_pdf("RunLengthDecode"),
}


@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_walk_every_fixture(name):
    doc = PdfDocument(ALL_FIXTURES[name]())
    assert walk_all(doc) > 0


def test_header_version():
    assert PdfDocument(pdfgen.minimal_pdf()).version == "PDF-1.4"
    assert PdfDocument(pdfgen.minimal_pdf(xref_stream=True)).version == "PDF-1.5"


def test_page_count_and_order():
    doc = PdfDocument(pdfgen.minimal_pdf(("a", "b", "c")))
    pages = doc.pages()
    assert len(pages) == 3
    contents = [doc.page_content(p) for p in pages]
    assert b"(a)" in contents[0] and b"(b)" in contents[1] and b"(c)" in contents[2]


def test_resources_inherited():
    doc = PdfDocument(pdfgen.minimal_pdf(("x",)))
    page = doc.pages()[0]
    assert "Resources" in page


def test_xref_stream_roundtrip():
    doc = PdfDocument(pdfgen.minimal_pdf(("via xref stream",), xref_stream=True))
    assert b"(via xref stream)" in doc.page_content(doc.pages()[0])


def test_object_streams_resolution():
    doc = PdfDocument(pdfgen.object_stream_pdf(("objstm text",)))
    assert doc.catalog()["Type"] == "Catalog"
    assert b"(objstm text)" in doc.page_content(doc.pages()[0])


def test_object_stream_decoded_once_per_document(monkeypatch):
    """Every compressed object of the 140-page ObjStm PDF lives in one
    container; extracting the document decodes that container once (a
    rescan per lookup decodes it once per compressed object), and a
    second document decodes its own copy again."""
    from pdf4py_ray.kernel import document
    from pdf4py_ray.kernel.text import extract_pdf_text

    container_decodes = []
    base = document.decode_chain

    def counting(stream_dict, data):
        if stream_dict.get("Type") == "ObjStm":
            container_decodes.append(len(data))
        return base(stream_dict, data)

    monkeypatch.setattr(document, "decode_chain", counting)
    texts = tuple(f"page {i} of the object stream" for i in range(140))
    data = pdfgen.object_stream_pdf(texts)
    text, spans, _ = extract_pdf_text(data)
    assert text == "\n".join(texts)
    assert sum(kind == "page" for _, _, kind in spans) == 140
    assert len(container_decodes) == 1
    extract_pdf_text(data)
    assert len(container_decodes) == 2


def _objstm_doc(header: bytes, body: bytes, n: int, numbers) -> PdfDocument:
    return PdfDocument(pdfgen.object_stream_header_pdf(header, body, n, numbers))


def test_object_stream_first_entry_wins():
    doc = _objstm_doc(b"10 0 10 8 ", b"(first) (second)", 2, [10])
    assert doc.get_object(Ref(10, 0)) == LiteralString(b"first")


def test_object_stream_malformed_pair_only_fails_numbers_after_it():
    doc = _objstm_doc(b"10 0 /X 8 11 17 ", b"(before) (bad)   (after)", 3, [10, 11, 12])
    assert doc.get_object(Ref(10, 0)) == LiteralString(b"before")
    for number in (11, 12):  # after the malformed pair, or absent
        with pytest.raises(PdfSyntaxError, match="Expected integer pairs in object-stream header"):
            doc.get_object(Ref(number, 0))
    assert doc.get_object(Ref(10, 0)) == LiteralString(b"before")


def test_object_stream_missing_number():
    doc = _objstm_doc(b"10 0 11 6 ", b"(ten) (eleven)", 2, [10, 11, 12])
    assert doc.get_object(Ref(11, 0)) == LiteralString(b"eleven")
    with pytest.raises(PdfSyntaxError, match="Compressed object not found in its object stream"):
        doc.get_object(Ref(12, 0))
    assert doc.get_object(Ref(10, 0)) == LiteralString(b"ten")


def test_stream_inside_object_stream_is_syntax_error():
    """ISO 32000-1 §7.5.7 forbids streams in object streams; such a
    stream must not read the file's bytes at the payload offset."""
    doc = _objstm_doc(b"10 0 11 37 ", b"<< /Length 3 >>\nstream\nabc\nendstream (after)", 2,
                      [10, 11])
    with pytest.raises(PdfSyntaxError, match="inside an object stream"):
        doc.get_object(Ref(10, 0))
    assert doc.get_object(Ref(11, 0)) == LiteralString(b"after")


def test_stream_length_by_reference():
    doc = PdfDocument(pdfgen.stream_length_ref_pdf())
    assert b"(Length by reference)" in doc.page_content(doc.pages()[0])


def test_incremental_update_newest_wins():
    doc = PdfDocument(pdfgen.incremental_update_pdf())
    content = doc.page_content(doc.pages()[0])
    assert b"(Updated text)" in content
    assert b"Original" not in content


def test_hybrid_xrefstm_entries_found():
    doc = PdfDocument(pdfgen.hybrid_xrefstm_pdf())
    assert b"(Hybrid xref text)" in doc.page_content(doc.pages()[0])


def test_filter_decoded_content():
    for f in ("FlateDecode", "FlateDecode+PNG", "LZWDecode",
              "ASCIIHexDecode", "ASCII85Decode", "RunLengthDecode"):
        doc = PdfDocument(pdfgen.filter_pdf(f))
        label = f.split("+")[0]
        assert f"Filtered by {label}".encode() in doc.page_content(doc.pages()[0]), f


def test_object_cache_hit():
    doc = PdfDocument(pdfgen.minimal_pdf())
    a = doc.catalog()
    b = doc.catalog()
    assert a is b  # memoized via the explicit per-document cache


def test_missing_object_keyerror():
    doc = PdfDocument(pdfgen.minimal_pdf())
    with pytest.raises(KeyError):
        doc.xref[(999, 0)]


def test_object_cache_is_bounded_lru():
    """A document with more objects than the cache bound (reference:
    lru_cache(256), parser.py:415) never holds more than the bound —
    the guard against a pathological million-object PDF ballooning an
    extractor actor's heap — and still parses every object correctly."""
    w = pdfgen.PdfWriter()
    refs = [w.add({"V": i}) for i in range(400)]
    root = w.simple_page_tree([pdfgen._content("bounded cache")])
    doc = PdfDocument(w.tobytes(root))
    for ref in refs:
        assert doc.get_object(ref)["V"] == ref.number - 1
    from pdf4py_ray.kernel.document import _OBJECT_CACHE_SIZE

    assert len(doc._cache) <= _OBJECT_CACHE_SIZE
    # evicted objects re-parse to the same value
    assert doc.get_object(refs[0])["V"] == 0


def test_xref_stream_extends_warns(caplog):
    """Diagnostics parity: an /Extends chain in the xref stream dict is
    unsupported in the reference too (parser.py:559-563 logs a
    warning); ours must warn rather than silently ignore the key."""
    import logging

    from pdf4py_ray.kernel.model import Ref

    w = pdfgen.PdfWriter("1.5")
    root = w.simple_page_tree([pdfgen._content("extends")])
    data = w.tobytes(root, xref_stream=True,
                     trailer_extra={"Extends": Ref(1, 0)})
    with caplog.at_level(logging.WARNING):
        doc = PdfDocument(data)
    assert any("Extends" in rec.message for rec in caplog.records)
    assert len(doc.pages()) == 1  # the rest of the document still parses


def test_from_file_mmap_parses_without_loading(tmp_path):
    """PdfDocument.from_file binds an mmap (lazily paged — the
    streaming-source counterpart of the reference's BufferedReader
    lexer binding) and produces output identical to the in-memory
    parse, across classic-xref, xref-stream and encrypted documents."""
    import mmap

    for i, data in enumerate((
        pdfgen.minimal_pdf(("mapped page",)),
        pdfgen.minimal_pdf(("mapped xs",), xref_stream=True),
        pdfgen.object_stream_pdf(),
        pdfgen.encrypted_pdf(cfm="AESV2"),
    )):
        p = tmp_path / f"doc{i}.pdf"
        p.write_bytes(data)
        mem = PdfDocument(data)
        mapped = PdfDocument.from_file(str(p))
        assert isinstance(mapped.buf, mmap.mmap)  # no bytes() snapshot
        assert mapped.version == mem.version
        pages_a, pages_b = mem.pages(), mapped.pages()
        assert len(pages_a) == len(pages_b)
        for a, b in zip(pages_a, pages_b):
            assert mem.page_content(a) == mapped.page_content(b)


_XREF_CYCLE_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, {repo!r})
    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.stages.extract import ExtractTurns

    row = ExtractTurns().extract_one(pdfgen.{make_pdf}().decode("latin-1"), "")
    print(row[0], row[5], row[6])
""")


@pytest.mark.parametrize("make_pdf, message", [
    ("self_prev_pdf", "PdfSyntaxError: The xref chain revisits offset"),
    ("cyclic_prev_pdf", "PdfSyntaxError: The xref chain revisits offset"),
    ("kids_cycle_pdf", "PdfSyntaxError: The page tree revisits Pages object"),
], ids=["self_prev_pdf", "cyclic_prev_pdf", "kids_cycle_pdf"])
def test_cyclic_xref_chain_is_an_error_row(make_pdf, message):
    """A /Prev chain that comes back to an offset it has visited, or a
    page tree whose /Kids come back to a Pages node it has walked,
    becomes a ``status="error"`` row with its own message. It runs in a
    subprocess with a timeout because a parser without the visited set
    never returns (xref chain) or fails only by ``RecursionError``
    (page tree)."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = _XREF_CYCLE_SCRIPT.format(repo=repo, make_pdf=make_pdf)
    try:
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{make_pdf}: extraction still running after 30 s")
    assert proc.returncode == 0, proc.stderr[-2000:]
    kind, status, error = proc.stdout.strip().split(" ", 2)
    assert (kind, status) == ("pdf", "error")
    assert error.startswith(message)



# ------------------------------------------------ the classic xref table's token loop
# ``_parse_xref_table`` slices strictly fixed-width record blocks
# (``_xref_records_fast``) and tokenizes any other block record by record.
# Every generated table is fixed-width, so these tests force the loop.


def _classic_table_fixtures() -> dict:
    makers = {f"pdfgen:{name}": make for name, make in ALL_FIXTURES.items()}
    makers.update({"pdfgen:tounicode": pdfgen.tounicode_pdf,
                   "pdfgen:multiline": pdfgen.multiline_pdf,
                   "pdfgen:pagetree_nested": pdfgen.pagetree_nested_pdf})
    for variant in PDF_VARIANTS:
        makers[f"doc:{variant}"] = lambda v=variant: make_doc_pdf("token loop text", v)
    fixtures = {name: make() for name, make in makers.items()}
    return {name: data for name, data in fixtures.items()
            if re.search(rb"[\r\n]xref[\r\n]", data)}


def _index(data: bytes):
    doc = PdfDocument(data)
    return doc.xref.sections, doc.trailer, extract_document_text(doc)


def test_xref_token_loop_equals_fixed_width_slices(monkeypatch):
    fixtures = _classic_table_fixtures()
    assert len(fixtures) >= 10
    sliced = {name: _index(data) for name, data in fixtures.items()}
    blocks = []

    def refuse(self, start, count):
        blocks.append(count)
        return None  # as for a block that is not strictly fixed-width

    monkeypatch.setattr(PdfDocument, "_xref_records_fast", refuse)
    for name, data in fixtures.items():
        blocks.clear()
        assert _index(data) == sliced[name], name
        assert blocks, f"{name}: no record block went through the token loop"


def test_xref_19_byte_records_index_like_20_byte_records(monkeypatch):
    twenty = pdfgen.minimal_pdf(("nineteen", "byte records"))
    at = twenty.rindex(b"\nxref\n")
    end = twenty.index(b"trailer", at)
    table = twenty[at:end].replace(b" n \n", b" n\n").replace(b" f \n", b" f\n")
    # the table follows every object, so no offset moves
    nineteen = twenty[:at] + table + twenty[end:]
    assert len(nineteen) < len(twenty)
    real = PdfDocument._xref_records_fast
    sliced = []

    def spy(self, start, count):
        sliced.append(real(self, start, count))
        return sliced[-1]

    monkeypatch.setattr(PdfDocument, "_xref_records_fast", spy)
    assert _index(nineteen) == _index(twenty)
    assert sliced[0] is None and sliced[1] is not None  # only the loop takes 19-byte records
