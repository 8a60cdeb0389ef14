"""Whole-document parsing: header, xref chain, object graph, page tree.

Covers the reference's ``Parser`` + ``Document`` layers
(``pdf4py/parser.py:353-697``, ``pdf4py/_document.py:26-46``) as one
in-memory kernel over a single ``bytes`` buffer (an Arrow binary cell).

Parity quirks preserved (equality gate):

- trailer accumulation lets *older* xref sections overwrite newer keys
  (``parser.py:523`` — ``trailer.update`` runs newest→oldest);
- in a hybrid file the classic table's entries shadow its ``XRefStm``
  entries (fold order, ``parser.py:505-528``);
- classic-table free entries are stored with ``generation - 1``
  (``parser.py:644``) while xref-stream free entries keep the raw
  field value (``parser.py:598``);
- xref iteration yields entries of *all* generations, oldest section
  first (``parser.py:93-108`` — its freed-entry filter is a no-op);
- objects inside object streams are parsed without the string-decrypt
  hook (their container stream was already decrypted);
- an object-stream lookup behaves as the reference's scan of the
  container's header from its first pair: the first entry for a
  number wins, a malformed pair raises "Expected integer pairs in
  object-stream header." only for numbers that do not appear before
  it, and a number absent from the header raises "Compressed object
  not found in its object stream.";
- a stream stored inside an object stream is a ``PdfSyntaxError``
  (ISO 32000-1 §7.5.7 forbids it).

Object streams are decoded once per document, not once per lookup:
the first lookup into a container decodes it and reads its whole
header into a ``{number: offset}`` index (``_index_object_stream``),
which lives as long as the document. The index sits outside the
256-entry object LRU, which keeps the reference's size; evicting an
object there costs a re-parse from the decoded payload, never a
second decode. Outputs equal the reference's; only the cost differs.

Extension beyond the reference (SURVEY §2.7): page-tree traversal with
attribute inheritance (``Resources``/``MediaBox``/``CropBox``/
``Rotate``) and page content-stream retrieval, which the text layer
builds on.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Iterator, Optional

from .errors import PdfSyntaxError, PdfUnsupportedError
from .filters import decode_chain
from .model import (
    CompressedEntry,
    IndirectObject,
    InUseEntry,
    Keyword,
    Ref,
    Stream,
)
from .objects import ObjectParser
from .security.handler import StandardSecurityHandler
from .tokenizer import Tokenizer

TRAILER_FIELDS = frozenset({"Root", "ID", "Size", "Encrypt", "Info", "Prev"})

# page attributes inherited down the Pages tree (ISO 32000 §7.7.3.4)
_INHERITABLE = ("Resources", "MediaBox", "CropBox", "Rotate")


class XrefIndex:
    """The document's object index across incremental updates.

    ``sections`` is ordered newest→oldest; each section is a triple
    ``(in_use: dict, free: set, compressed: dict)`` keyed/peopled by
    ``(object_number, generation)``.
    """

    def __init__(self, sections: list) -> None:
        self.sections = sections

    def __getitem__(self, key: tuple):
        for in_use, free, compressed in self.sections:
            entry = in_use.get(key)
            if entry is not None:
                return entry
            entry = compressed.get(key)
            if entry is not None:
                return entry
            if key in free:
                return None  # freed object
        raise KeyError(f"Key not found: {key}")

    def __iter__(self) -> Iterator:
        for in_use, _free, compressed in reversed(self.sections):
            yield from in_use.values()
            yield from compressed.values()

    def __len__(self) -> int:
        return sum(len(s[0]) + len(s[2]) for s in self.sections)


class PdfDocument:
    """Random-access PDF object graph over one in-memory byte buffer."""

    def __init__(self, data, password=None) -> None:
        import mmap as _mmap

        # mmap buffers parse in place (lazily paged); anything else is
        # snapshotted to bytes
        self.buf = data if isinstance(data, _mmap.mmap) else bytes(data)
        self.tok = Tokenizer(self.buf)
        self.parser = ObjectParser(
            self.tok, stream_resolver=self._resolve_stream, content_stream_mode=False
        )
        # explicit object cache — the reference's lru_cache(256)
        # analogue (``parser.py:415``) with per-document lifetime.
        # Bounded like the reference's: an unbounded dict would let a
        # pathological PDF with millions of objects balloon an
        # extraction worker's heap.
        self._cache: "OrderedDict" = OrderedDict()
        # object-stream containers read so far: number -> the index
        # from ``_index_object_stream``; outside the LRU above, so a
        # document past 256 objects still decodes each container once
        self._objstm: dict = {}
        self.xref: Optional[XrefIndex] = None
        self.version = self._read_header()
        self.trailer = self._build_xref()
        enc = self.trailer.get("Encrypt")
        self.security = None
        if enc is not None:
            if isinstance(enc, Ref):
                enc = self.get_object(enc)
            self.security = StandardSecurityHandler(password, enc, self.trailer.get("ID"))
            self.parser.decrypt_hook = self.security.decrypt_string

    @classmethod
    def from_file(cls, path: str, password=None) -> "PdfDocument":
        """Parse a PDF from disk WITHOUT loading it into memory.

        The buffer is an ``mmap`` (read-only), so a multi-GB file is
        paged in lazily by the OS as the xref walk / object parses
        touch it — the engine's counterpart of the reference Lexer's
        streaming ``io.BufferedReader`` binding
        (``/root/reference/pdf4py/_lexer.py:69-106``), with O(1)
        random access preserved. The file handle stays open for the
        document's lifetime."""
        import mmap as _mmap

        fh = open(path, "rb")
        try:
            buf = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
        except Exception:
            fh.close()
            raise
        try:
            doc = cls(buf, password=password)
        except BaseException:
            # a parse failure (PdfSyntaxError on a corrupt file is
            # common) must not leak the fd/mmap until GC — an
            # fd-exhaustion risk in long-lived corpus-scan workers
            buf.close()
            fh.close()
            raise
        doc._file = fh  # keep the fd alive for the mmap's lifetime
        return doc

    def close(self) -> None:
        """Release the mmap + fd of a ``from_file`` document (no-op for
        in-memory buffers). Long-lived corpus-scan workers call this
        after each file so fds don't accumulate until GC."""
        fh = getattr(self, "_file", None)
        if fh is not None:
            try:
                self.buf.close()  # the mmap buffer
            except (AttributeError, ValueError, BufferError):
                pass
            fh.close()
            self._file = None

    # ------------------------------------------------------------ structure

    def _read_header(self) -> str:
        end = 0
        n = len(self.buf)
        while end < n and self.buf[end] not in (0x0A, 0x0D):
            end += 1
        return self.buf[:end].decode("utf-8")[1:]

    def _build_xref(self) -> dict:
        spos = self.tok.find_last_line(b"startxref")
        if spos < 0:
            raise PdfSyntaxError("'startxref' keyword not found.")
        self.tok.seek(spos)
        self.tok.next()  # the startxref keyword itself
        xrefpos = self.tok.next()
        if not isinstance(xrefpos, int):
            raise PdfSyntaxError("The offset after 'startxref' is not an integer.")

        sections_oldest_first: list = []
        trailer: dict = {}
        visited: set = set()  # a /Prev or /XRefStm cycle must not loop forever
        while xrefpos >= 0:
            self._visit_xref(visited, xrefpos)
            self.tok.seek(xrefpos)
            first = self.tok.next()
            if first == Keyword(b"xref"):
                tr, section = self._parse_xref_table()
                sections_oldest_first.insert(0, section)
                xrefstm_pos = tr.get("XRefStm")
                if xrefstm_pos is not None:
                    # hybrid file: the classic table stays newer than
                    # its xref stream (reference fold order)
                    self._visit_xref(visited, xrefstm_pos)
                    self.tok.seek(xrefstm_pos)
                    _, stm_section = self._parse_xref_stream()
                    sections_oldest_first.insert(0, stm_section)
            else:
                self.tok.push_back(first)
                tr, section = self._parse_xref_stream()
                sections_oldest_first.insert(0, section)
            xrefpos = tr.pop("Prev", -1)
            trailer.update(tr)  # older sections overwrite (parity quirk)

        self.xref = XrefIndex(list(reversed(sections_oldest_first)))
        return trailer

    @staticmethod
    def _visit_xref(visited: set, pos) -> None:
        if pos in visited:
            raise PdfSyntaxError(f"The xref chain revisits offset {pos}.")
        visited.add(pos)

    _XREF_BLANKS = b"\x00\t\n\x0c\r "

    def _xref_records_fast(self, start: int, count: int):
        """Slice a well-formed fixed-width record block (ISO 32000
        §7.5.4: exactly 20 bytes per record) without tokenizing —
        ~3 token calls per record otherwise dominate index builds on
        small documents. Returns parsed (offset, gen, kind) triples,
        or None when the block is not strictly fixed-width (caller
        falls back to the token loop)."""
        buf = self.buf
        n = len(buf)
        pos = self.tok.pos
        while pos < n and buf[pos] in self._XREF_BLANKS:
            pos += 1
        end = pos + 20 * count
        if end > n:
            return None
        out = []
        for i in range(pos, end, 20):
            rec = buf[i : i + 20]
            if (rec[10] != 0x20 or rec[16] != 0x20
                    or rec[17] not in (0x6E, 0x66)  # n / f
                    or not rec[:10].isdigit() or not rec[11:16].isdigit()):
                return None
            out.append((int(rec[:10]), int(rec[11:16]), chr(rec[17])))
        self.tok.seek(end)
        return out

    def _parse_xref_table(self):
        """Classic ``xref`` section: subsections of 20-byte records."""
        in_use: dict = {}
        free: set = set()
        tok = self.tok
        t = tok.next()
        while isinstance(t, int):
            start = t
            count = tok.next()
            if not isinstance(count, int):
                raise PdfSyntaxError("Expected the number of entries in the xref subsection.")
            records = self._xref_records_fast(start, count)
            if records is None:
                records = []
                for _ in range(count):
                    offset = tok.next()
                    gen = tok.next()
                    marker = tok.next()
                    if not isinstance(offset, int) or not isinstance(gen, int):
                        raise PdfSyntaxError("Malformed xref record.")
                    kind = getattr(marker, "value", None)
                    if kind not in ("n", "f"):
                        raise PdfSyntaxError("Expected 'n' or 'f' xref record marker.")
                    records.append((offset, gen, kind))
            for i, (offset, gen, kind) in enumerate(records):
                if start == 0 and i == 0:
                    continue  # head of the free list — unused
                if kind == "n":
                    in_use[(start + i, gen)] = InUseEntry(offset, start + i, gen)
                else:
                    free.add((start + i, gen - 1))
            t = tok.next()
        if t != Keyword(b"trailer"):
            raise PdfSyntaxError("Expecting 'trailer' section after 'xref' table.")
        tr = self.parser.parse_object()
        return tr, (in_use, free, {})

    def _parse_xref_stream(self):
        """PDF≥1.5 cross-reference *stream* (``W``/``Index`` layout)."""
        obj = self.parser.parse_object()
        if not isinstance(obj, IndirectObject) or not isinstance(obj.value, Stream):
            raise PdfSyntaxError("Expected an indirect stream object holding xref data.")
        d = obj.value.dictionary
        if d.get("Type") != "XRef":
            raise PdfSyntaxError("Stream at xref position is not of /Type /XRef.")
        tr = {k: v for k, v in d.items() if k in TRAILER_FIELDS}
        if "Extends" in d:
            # diagnostics parity with the reference's unsupported-
            # /Extends warning (``parser.py:559-563``): the chain's
            # extended entries are ignored, never silently
            logging.warning(
                "xref stream carries an /Extends chain, which is not "
                "supported; entries from the extended stream are ignored."
            )
        raw = obj.value.data()
        size = d["Size"]
        index = d.get("Index", [0, size])
        widths = list(d["W"])
        in_use: dict = {}
        free: set = set()
        compressed: dict = {}
        pos = 0
        for i in range(0, len(index) - 1, 2):
            start, count = index[i], index[i + 1]
            for j in range(count):
                if start == 0 and j == 0:
                    pos += sum(widths)
                    continue
                vals = [None, None, None]
                for k in range(3):
                    w = widths[k]
                    if w > 0:
                        vals[k] = int.from_bytes(raw[pos : pos + w], "big")
                        pos += w
                if vals[0] is None:
                    vals[0] = 1
                if vals[0] == 1 and vals[2] is None:
                    vals[2] = 0
                num = start + j
                if vals[0] == 0:
                    free.add((num, vals[2]))
                elif vals[0] == 1:
                    in_use[(num, vals[2])] = InUseEntry(vals[1], num, vals[2])
                else:
                    compressed[(num, 0)] = CompressedEntry(num, vals[1], vals[2])
        return tr, (in_use, free, compressed)

    # ------------------------------------------------------------ objects

    def _resolve_stream(self, d: dict, data_start: int, obj_id):
        if d.get("F") is not None:
            raise PdfUnsupportedError("Streams with data in an external file are not supported.")
        length = d.get("Length")
        if length is None:
            raise PdfSyntaxError("Stream dictionary lacks a 'Length' entry.")
        if isinstance(length, Ref):
            try:
                entry = self.xref[(length.number, length.generation)]
            except (KeyError, TypeError):
                raise PdfSyntaxError("Stream 'Length' references a missing object.")
            length = self.get_object(entry)
        if not isinstance(length, int):
            raise PdfSyntaxError("The stream 'Length' is not an integer.")

        def read() -> bytes:
            data = self.buf[data_start : data_start + length]
            if d.get("Type") != "XRef" and self.security is not None:
                data = self.security.decrypt_stream(data, d, obj_id)
            try:
                return decode_chain(d, data)
            except Exception as e:
                # reference parity: ANY decoder failure surfaces as a
                # syntax error (``parser.py:692-695`` wraps bare
                # ``except Exception``, including its own error types)
                raise PdfSyntaxError("Error while decoding data: " + str(e))

        return length, read

    def get_object(self, ref):
        """Resolve a ``Ref`` / xref entry to its object (memoized)."""
        if isinstance(ref, Ref):
            entry = self.xref[(ref.number, ref.generation)]
        else:
            entry = ref
        if entry is None:
            return None
        cached = self._cache.get(entry, _MISSING)
        if cached is not _MISSING:
            self._cache.move_to_end(entry)
            return cached

        if isinstance(entry, InUseEntry):
            obj_id = (entry.number, entry.generation)
            tok = self.tok
            tok._stack.append((tok.pos, tok.pending))
            tok.pending = []
            tok.pos = entry.offset
            try:
                value = self.parser.parse_object(obj_id).value
            finally:
                tok.back()
        elif isinstance(entry, CompressedEntry):
            value = self._parse_from_object_stream(entry)
        else:
            raise ValueError(f"Unsupported reference type: {entry!r}")
        self._cache[entry] = value
        if len(self._cache) > _OBJECT_CACHE_SIZE:
            self._cache.popitem(last=False)  # evict least-recently-used
        return value

    def _parse_from_object_stream(self, entry: CompressedEntry):
        index = self._objstm.get(entry.container)
        if index is None:
            index = self._objstm[entry.container] = self._index_object_stream(entry.container)
        sub, d, offsets, header_error = index
        offset = offsets.get(entry.number)
        if offset is None:
            if header_error is not None:
                raise header_error.with_traceback(None)
            raise PdfSyntaxError("Compressed object not found in its object stream.")
        sub.tok.seek(d["First"] + offset)
        return sub.parse_object()

    def _index_object_stream(self, number: int) -> tuple:
        """``(parser over the decoded payload, stream dict, {number:
        offset}, header error)`` for object-stream container
        ``number``: the container is decoded and its header read once
        per document. The first entry for a number wins; a header that
        stops parsing early keeps the error, raised for any number not
        indexed before it (a rescan from the first pair would meet
        the same error at the same place)."""
        container = self.get_object(Ref(number, 0))
        if not isinstance(container, Stream):
            raise PdfSyntaxError("Object-stream container is not a stream.")
        payload = container.data()
        d = container.dictionary
        # no decrypt hook: the container payload is already plaintext
        sub = ObjectParser(payload, stream_resolver=_stream_in_object_stream,
                           content_stream_mode=False)
        offsets: dict = {}
        header_error = None
        try:
            for _ in range(d["N"]):
                num = sub.parse_object()
                offset = sub.parse_object()
                if not isinstance(num, int) or not isinstance(offset, int):
                    raise PdfSyntaxError("Expected integer pairs in object-stream header.")
                offsets.setdefault(num, offset)
        except Exception as e:  # StopIteration included: N past the payload
            header_error = e
        return sub, d, offsets, header_error

    def deref(self, obj):
        """Follow ``Ref`` chains to a concrete value."""
        while isinstance(obj, Ref):
            obj = self.get_object(obj)
        return obj

    def iter_objects(self) -> Iterator:
        """Parse every in-use + compressed object (functional-walk order)."""
        for entry in self.xref:
            yield entry, self.get_object(entry)

    # ------------------------------------------------------------ pages

    def catalog(self) -> dict:
        return self.deref(self.trailer["Root"])

    def pages(self) -> list:
        """Leaf page dictionaries in tree (reading) order, with
        inheritable attributes resolved."""
        out: list = []
        self._walk_pages(self.catalog()["Pages"], {}, out, set())
        return out

    def _walk_pages(self, node, inherited: dict, out: list, visited: set) -> None:
        """Append the leaves under ``node`` to ``out``. ``visited`` holds
        the references of the ``Pages`` nodes walked so far: a tree
        reaches each once, so a revisit is a ``/Kids`` cycle (parsed
        objects are trees, so every cycle passes through a reference)."""
        ref, node = node, self.deref(node)
        inh = dict(inherited)
        for key in _INHERITABLE:
            if key in node:
                inh[key] = node[key]
        if node.get("Type") == "Pages":
            if isinstance(ref, Ref):
                if ref in visited:
                    raise PdfSyntaxError(
                        f"The page tree revisits Pages object {ref.number} {ref.generation} R.")
                visited.add(ref)
            for kid in node["Kids"]:
                self._walk_pages(kid, inh, out, visited)
        else:
            page = dict(node)
            for key, val in inh.items():
                page.setdefault(key, val)
            out.append(page)

    def page_content(self, page: dict) -> bytes:
        """Decoded content-stream bytes of a page; an array of streams
        is concatenated with a newline separator (ISO 32000 §7.8.2
        treats the pieces as one stream divided at lexical boundaries)."""
        contents = self.deref(page.get("Contents"))
        if contents is None:
            return b""
        if isinstance(contents, Stream):
            return contents.data()
        parts = []
        for piece in contents:
            piece = self.deref(piece)
            if isinstance(piece, Stream):
                parts.append(piece.data())
        return b"\n".join(parts)


_MISSING = object()

# reference parity: lru_cache(maxsize=256) on parse_reference
# (``/root/reference/pdf4py/parser.py:415``)
_OBJECT_CACHE_SIZE = 256


def _stream_in_object_stream(d: dict, data_start: int, obj_id):
    """Stream resolver of an object-stream container's parser: ISO
    32000-1 §7.5.7 forbids streams inside an object stream, and the
    document's resolver would slice the file, not the decoded payload."""
    raise PdfSyntaxError("Stream object found inside an object stream.")
