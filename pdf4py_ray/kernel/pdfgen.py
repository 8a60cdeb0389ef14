"""Deterministic synthetic-PDF generator for fixtures and transcripts.

Emits small PDFs exercising the same feature matrix as the reference's
real-file corpus (``/root/reference/tests/pdfs`` — classic xref tables,
xref streams, object streams, hybrid XRefStm, incremental updates, each
stream filter, encryption) without copying any reference bytes. All
output is a pure function of its inputs — no randomness, no clock.
"""

from __future__ import annotations

import zlib
from hashlib import md5, sha256

from .filters import lzw_encode
from .model import HexString, LiteralString, Ref
from .security.aes import cbc_encrypt
from .security.handler import PASSWORD_PAD
from .security.rc4 import rc4


class RawStream:
    """A stream object: dictionary + already-encoded payload bytes."""

    def __init__(self, dictionary: dict, payload: bytes) -> None:
        self.dictionary = dictionary
        self.payload = payload


def serialize(obj) -> bytes:
    """Serialize a Python value into PDF object syntax."""
    if obj is None:
        return b"null"
    if isinstance(obj, bool):
        return b"true" if obj else b"false"
    if isinstance(obj, int):
        return str(obj).encode()
    if isinstance(obj, float):
        return f"{obj:g}".encode()
    if isinstance(obj, str):  # a /Name
        out = bytearray(b"/")
        for b in obj.encode("utf-8"):
            if 0x21 <= b <= 0x7E and b not in b"()<>[]{}/%#":
                out.append(b)
            else:
                out.extend(f"#{b:02x}".encode())
        return bytes(out)
    if isinstance(obj, LiteralString):
        out = bytearray(b"(")
        for b in obj.value:
            if b in b"()\\":
                out.append(0x5C)
                out.append(b)
            elif b in (0x0A, 0x0D, 0x09, 0x08, 0x0C):
                out.extend(b"\\" + {0x0A: b"n", 0x0D: b"r", 0x09: b"t", 0x08: b"b", 0x0C: b"f"}[b])
            else:
                out.append(b)
        out.append(0x29)
        return bytes(out)
    if isinstance(obj, HexString):
        return b"<" + obj.value + b">"
    if isinstance(obj, Ref):
        return f"{obj.number} {obj.generation} R".encode()
    if isinstance(obj, list):
        return b"[ " + b" ".join(serialize(x) for x in obj) + b" ]"
    if isinstance(obj, dict):
        parts = [b"<<"]
        for k, v in obj.items():
            parts.append(serialize(k) + b" " + serialize(v))
        parts.append(b">>")
        return b"\n".join(parts)
    if isinstance(obj, RawStream):
        d = dict(obj.dictionary)
        d["Length"] = d.get("Length", len(obj.payload))
        return serialize(d) + b"\nstream\n" + obj.payload + b"\nendstream"
    raise TypeError(f"Cannot serialize {type(obj)} into PDF syntax.")


def png_predict_up(data: bytes, rowlen: int) -> bytes:
    """Forward PNG 'Up' filtering (for generating predictor streams)."""
    out = bytearray()
    prev = b"\x00" * rowlen
    for i in range(0, len(data), rowlen):
        row = data[i : i + rowlen]
        out.append(2)
        out.extend((a - b) & 0xFF for a, b in zip(row, prev))
        prev = row
    return bytes(out)


class PdfWriter:
    """Assembles object bodies + xref + trailer into final bytes."""

    def __init__(self, version: str = "1.4") -> None:
        self.version = version
        self.objects: dict = {}  # num -> python value
        self._next = 1

    def add(self, value, num: int | None = None) -> Ref:
        if num is None:
            num = self._next
        self.objects[num] = value
        self._next = max(self._next, num + 1)
        return Ref(num, 0)

    def simple_page_tree(self, content_streams: list, resources=None) -> Ref:
        """Catalog + flat Pages + one page per content stream; returns
        the catalog ref."""
        page_refs = []
        pages_ref = Ref(self._next + 2 * len(content_streams), 0)
        for content in content_streams:
            c_ref = self.add(RawStream({}, content))
            p_ref = self.add(
                {
                    "Type": "Page",
                    "Parent": pages_ref,
                    "Contents": c_ref,
                    **({"Resources": resources} if resources is not None else {}),
                }
            )
            page_refs.append(p_ref)
        real_pages = self.add(
            {"Type": "Pages", "Kids": page_refs, "Count": len(page_refs)}
        )
        assert real_pages == pages_ref, (real_pages, pages_ref)
        return self.add({"Type": "Catalog", "Pages": pages_ref})

    def tobytes(
        self,
        root: Ref,
        xref_stream: bool = False,
        compress_into_objstm: list | None = None,
        trailer_extra: dict | None = None,
        id_pair: tuple = (b"fixture-id-0", b"fixture-id-1"),
        compressed_entries: dict | None = None,
    ) -> bytes:
        """Emit the document. ``compress_into_objstm`` lists object
        numbers to move into an object stream (forces xref_stream).
        ``compressed_entries`` maps further object numbers to
        ``(objstm_num, index)`` xref entries into an object stream the
        caller added itself (forces xref_stream)."""
        buf = bytearray(f"%PDF-{self.version}\n".encode())
        offsets: dict = {}
        compressed: dict = dict(compressed_entries or {})  # num -> (objstm_num, index)
        if compressed:
            xref_stream = True
            self._next = max(self._next, max(compressed) + 1)

        objstm_members = compress_into_objstm or []
        if objstm_members:
            xref_stream = True

        emit_nums = [n for n in sorted(self.objects) if n not in objstm_members]
        for num in emit_nums:
            offsets[num] = len(buf)
            buf += f"{num} 0 obj\n".encode()
            buf += serialize(self.objects[num])
            buf += b"\nendobj\n"

        if objstm_members:
            objstm_num = self._next
            bodies = [serialize(self.objects[n]) for n in objstm_members]
            header = bytearray()
            first_parts = []
            pos = 0
            for n, body in zip(objstm_members, bodies):
                header += f"{n} {pos} ".encode()
                first_parts.append(body)
                pos += len(body) + 1
            payload = bytes(header) + b" ".join(first_parts)
            first = len(header)
            raw = zlib.compress(payload)
            offsets[objstm_num] = len(buf)
            for i, n in enumerate(objstm_members):
                compressed[n] = (objstm_num, i)
            buf += f"{objstm_num} 0 obj\n".encode()
            buf += serialize(
                RawStream(
                    {
                        "Type": "ObjStm",
                        "N": len(objstm_members),
                        "First": first,
                        "Filter": "FlateDecode",
                    },
                    raw,
                )
            )
            buf += b"\nendobj\n"
            self._next = objstm_num + 1

        trailer = {
            "Size": self._next,
            "Root": root,
            "ID": [HexString(id_pair[0].hex().encode()), HexString(id_pair[1].hex().encode())],
        }
        if trailer_extra:
            trailer.update(trailer_extra)

        if not xref_stream:
            xref_pos = len(buf)
            buf += b"xref\n"
            buf += f"0 {self._next}\n".encode()
            buf += b"0000000000 65535 f \n"
            for num in range(1, self._next):
                if num in offsets:
                    buf += f"{offsets[num]:010d} 00000 n \n".encode()
                else:
                    buf += b"0000000000 65535 f \n"  # unallocated gap number
            buf += b"trailer\n" + serialize(trailer)
        else:
            xref_num = self._next
            self._next += 1
            trailer["Size"] = self._next
            xref_pos = len(buf)
            rows = bytearray()
            rows += (0).to_bytes(1, "big") + (0).to_bytes(4, "big") + (65535).to_bytes(2, "big")
            for num in range(1, self._next):
                if num in compressed:
                    objstm_num, idx = compressed[num]
                    rows += (2).to_bytes(1, "big") + objstm_num.to_bytes(4, "big") + idx.to_bytes(2, "big")
                elif num == xref_num:
                    rows += (1).to_bytes(1, "big") + xref_pos.to_bytes(4, "big") + (0).to_bytes(2, "big")
                elif num in offsets:
                    rows += (1).to_bytes(1, "big") + offsets[num].to_bytes(4, "big") + (0).to_bytes(2, "big")
                else:  # unallocated gap number → free entry
                    rows += (0).to_bytes(1, "big") + (0).to_bytes(4, "big") + (65535).to_bytes(2, "big")
            filtered = png_predict_up(bytes(rows), 7)
            payload = zlib.compress(filtered)
            xd = {
                "Type": "XRef",
                "W": [1, 4, 2],
                "Index": [0, self._next],
                "Filter": "FlateDecode",
                "DecodeParms": {"Predictor": 12, "Columns": 7},
                **trailer,
            }
            buf += f"{xref_num} 0 obj\n".encode()
            buf += serialize(RawStream(xd, payload))
            buf += b"\nendobj\n"

        buf += f"\nstartxref\n{xref_pos}\n%%EOF\n".encode()
        return bytes(buf)


# --------------------------------------------------------------------------
# ready-made fixture documents


def _content(text: str, font: str = "F1", size: int = 12) -> bytes:
    safe = text.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")
    return (
        f"BT /{font} {size} Tf 72 712 Td ({safe}) Tj ET".encode("latin-1")
    )


_BASE_FONT = {"Type": "Font", "Subtype": "Type1", "BaseFont": "Helvetica"}


def minimal_pdf(texts=("Hello Ray Data world",), xref_stream: bool = False) -> bytes:
    """One page per text, classic table or xref stream."""
    w = PdfWriter("1.5" if xref_stream else "1.4")
    font_ref = w.add(dict(_BASE_FONT))
    resources = {"Font": {"F1": font_ref}}
    root = w.simple_page_tree([_content(t) for t in texts], resources)
    return w.tobytes(root, xref_stream=xref_stream)


def object_stream_pdf(texts=("Compressed catalog text",)) -> bytes:
    """Catalog/pages/font live inside an ObjStm (type-2 entries)."""
    w = PdfWriter("1.5")
    font_ref = w.add(dict(_BASE_FONT))
    resources = {"Font": {"F1": font_ref}}
    root = w.simple_page_tree([_content(t) for t in texts], resources)
    # compress the font, page and catalog dicts (not the content streams)
    members = [font_ref.number] + [
        n for n, v in w.objects.items() if isinstance(v, dict)
    ]
    members = sorted(set(members))
    return w.tobytes(root, compress_into_objstm=members)


def object_stream_header_pdf(header: bytes, body: bytes, n: int, numbers) -> bytes:
    """A one-page PDF plus an object stream whose header is written by
    hand: its payload is ``header + body``, ``/First`` is
    ``len(header)`` and ``/N`` is ``n``. Each of ``numbers`` (object
    numbers above the page tree's) gets a compressed xref entry into
    it, in order; nothing else lives in the stream."""
    w = PdfWriter("1.5")
    font_ref = w.add(dict(_BASE_FONT))
    root = w.simple_page_tree([_content("Outside the object stream")],
                              {"Font": {"F1": font_ref}})
    stm = w.add(RawStream({"Type": "ObjStm", "N": n, "First": len(header),
                           "Filter": "FlateDecode"}, zlib.compress(header + body)))
    return w.tobytes(root, compressed_entries={
        num: (stm.number, i) for i, num in enumerate(numbers)})


def stream_length_ref_pdf() -> bytes:
    """A content stream whose /Length is an indirect reference."""
    w = PdfWriter("1.4")
    content = _content("Length by reference")
    font_ref = w.add(dict(_BASE_FONT))
    len_ref = Ref(90, 0)
    c_ref = w.add(RawStream({"Length": len_ref}, content))
    pages_ref = Ref(91, 0)
    p_ref = w.add(
        {"Type": "Page", "Parent": pages_ref, "Contents": c_ref,
         "Resources": {"Font": {"F1": font_ref}}}
    )
    w.add(len(content), num=90)
    w.add({"Type": "Pages", "Kids": [p_ref], "Count": 1}, num=91)
    root = w.add({"Type": "Catalog", "Pages": pages_ref}, num=92)
    return w.tobytes(root)


def filter_pdf(filter_name: str) -> bytes:
    """One page whose content stream uses ``filter_name``."""
    raw = _content(f"Filtered by {filter_name}")
    params = None
    if filter_name == "FlateDecode":
        payload = zlib.compress(raw)
    elif filter_name == "FlateDecode+PNG":
        cols = 16
        pad = (-len(raw)) % cols
        raw = raw + b" " * pad  # pad rows; trailing spaces are harmless in a content stream
        payload = zlib.compress(png_predict_up(raw, cols))
        params = {"Predictor": 12, "Columns": cols}
        filter_name = "FlateDecode"
    elif filter_name == "LZWDecode":
        payload = lzw_encode(raw)
    elif filter_name == "ASCIIHexDecode":
        payload = raw.hex().encode() + b">"
    elif filter_name == "ASCII85Decode":
        # standard 4→5 base-85 groups, zero-padded final group with
        # trailing '~>' EOD — decodable by the reference-parity decoder
        # as long as the length is a multiple of 4
        pad = (-len(raw)) % 4
        raw = raw + b" " * pad
        out = bytearray()
        for i in range(0, len(raw), 4):
            v = int.from_bytes(raw[i : i + 4], "big")
            grp = bytearray(5)
            for k in range(4, -1, -1):
                v, rem = divmod(v, 85)
                grp[k] = rem + 33
            out.extend(grp)
        payload = bytes(out) + b"~>"
    elif filter_name == "RunLengthDecode":
        out = bytearray()
        for i in range(0, len(raw), 100):
            chunk = raw[i : i + 100]
            out.append(len(chunk) - 1)
            out.extend(chunk)
        out.append(128)
        payload = bytes(out)
    else:
        raise ValueError(filter_name)
    w = PdfWriter("1.4")
    font_ref = w.add(dict(_BASE_FONT))
    resources = {"Font": {"F1": font_ref}}
    d = {"Filter": filter_name}
    if params:
        d["DecodeParms"] = params
    c_ref = w.add(RawStream(d, payload))
    pages_ref = Ref(50, 0)
    p_ref = w.add({"Type": "Page", "Parent": pages_ref, "Contents": c_ref, "Resources": resources})
    w.add({"Type": "Pages", "Kids": [p_ref], "Count": 1}, num=50)
    root = w.add({"Type": "Catalog", "Pages": pages_ref})
    return w.tobytes(root)


def incremental_update_pdf() -> bytes:
    """Base doc + an appended update that redefines the content stream
    and chains xref sections via /Prev."""
    base = minimal_pdf(("Original text",))
    # object 1 = font, 2 = content, 3 = page, 4 = pages, 5 = catalog
    new_content = _content("Updated text")
    buf = bytearray(base)
    new_off = len(buf)
    buf += b"2 0 obj\n" + serialize(RawStream({}, new_content)) + b"\nendobj\n"
    prev_xref = base.rfind(b"\nxref\n") + 1  # the classic section, not 'startxref'
    xref_pos = len(buf)
    buf += b"xref\n0 1\n0000000000 65535 f \n"
    buf += f"2 1\n{new_off:010d} 00000 n \n".encode()
    trailer = {"Size": 6, "Root": Ref(5, 0), "Prev": prev_xref}
    buf += b"trailer\n" + serialize(trailer)
    buf += f"\nstartxref\n{xref_pos}\n%%EOF\n".encode()
    return bytes(buf)


def _chained_section(prev: int) -> bytes:
    """An appended classic xref section with no entries whose trailer
    chains to the section at offset ``prev``."""
    trailer = {"Size": 6, "Root": Ref(5, 0), "Prev": prev}
    return b"xref\n0 1\n0000000000 65535 f \ntrailer\n" + serialize(trailer) + b"\n"


def self_prev_pdf() -> bytes:
    """Hostile: an appended xref section whose /Prev is its own offset."""
    buf = bytearray(minimal_pdf(("Self prev",)))
    pos = len(buf)
    buf += _chained_section(pos)
    buf += f"startxref\n{pos}\n%%EOF\n".encode()
    return bytes(buf)


def cyclic_prev_pdf() -> bytes:
    """Hostile: two appended xref sections whose /Prev entries point at
    each other; ``startxref`` names the second."""
    buf = bytearray(minimal_pdf(("Cyclic prev",)))
    first = second = len(buf)
    # the first section's length depends on the digits of ``second``
    while first + len(_chained_section(second)) != second:
        second = first + len(_chained_section(second))
    buf += _chained_section(second) + _chained_section(first)
    buf += f"startxref\n{second}\n%%EOF\n".encode()
    return bytes(buf)


def kids_cycle_pdf() -> bytes:
    """Hostile: the root ``Pages`` node's ``/Kids`` hold a page and an
    inner ``Pages`` node whose only kid is the root again."""
    w = PdfWriter("1.4")
    font_ref = w.add(dict(_BASE_FONT))
    root_pages, inner_pages = Ref(90, 0), Ref(91, 0)
    c_ref = w.add(RawStream({}, _content("Kids cycle")))
    p_ref = w.add({"Type": "Page", "Parent": root_pages, "Contents": c_ref,
                   "Resources": {"Font": {"F1": font_ref}}})
    w.add({"Type": "Pages", "Kids": [p_ref, inner_pages], "Count": 2}, num=90)
    w.add({"Type": "Pages", "Parent": root_pages, "Kids": [root_pages], "Count": 1}, num=91)
    return w.tobytes(w.add({"Type": "Catalog", "Pages": root_pages}))


def hybrid_xrefstm_pdf() -> bytes:
    """Classic table whose trailer points at an /XRefStm stream; the
    page objects are only reachable through the stream's entries."""
    w = PdfWriter("1.4")
    font_ref = w.add(dict(_BASE_FONT))
    root = w.simple_page_tree([_content("Hybrid xref text")], {"Font": {"F1": font_ref}})
    # first build the body manually so we control both xref sections
    buf = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(w.objects):
        offsets[num] = len(buf)
        buf += f"{num} 0 obj\n".encode() + serialize(w.objects[num]) + b"\nendobj\n"
    size = max(w.objects) + 2
    xref_stm_num = size - 1
    # xref stream listing every object
    rows = bytearray()
    rows += bytes([0]) + (0).to_bytes(4, "big") + (65535).to_bytes(2, "big")
    for num in range(1, size - 1):
        rows += bytes([1]) + offsets[num].to_bytes(4, "big") + (0).to_bytes(2, "big")
    stm_pos_placeholder = len(buf)
    rows += bytes([1]) + stm_pos_placeholder.to_bytes(4, "big") + (0).to_bytes(2, "big")
    payload = zlib.compress(bytes(rows))
    xd = {
        "Type": "XRef", "W": [1, 4, 2], "Index": [0, size], "Size": size,
        "Filter": "FlateDecode", "Root": root,
    }
    buf += f"{xref_stm_num} 0 obj\n".encode() + serialize(RawStream(xd, payload)) + b"\nendobj\n"
    # classic table: only the free head (all real entries live in the stream)
    xref_pos = len(buf)
    buf += b"xref\n0 1\n0000000000 65535 f \n"
    trailer = {"Size": size, "Root": root, "XRefStm": stm_pos_placeholder}
    buf += b"trailer\n" + serialize(trailer)
    buf += f"\nstartxref\n{xref_pos}\n%%EOF\n".encode()
    return bytes(buf)


_TOUNICODE_CMAP = b"""/CIDInit /ProcSet findresource begin
12 dict begin
begincmap
1 begincodespacerange
<00> <FF>
endcodespacerange
2 beginbfchar
<01> <0048>
<02> <0069>
endbfchar
1 beginbfrange
<10> <12> <0061>
endbfrange
endcmap
CMapName currentdict /CMap defineresource pop
end
end"""


def tounicode_pdf() -> bytes:
    """A font with a ToUnicode CMap; content shows hex-string codes via
    Tj and a TJ array with kerning adjustments (FIXTURES §2)."""
    w = PdfWriter("1.4")
    cmap_ref = w.add(RawStream({"Filter": "FlateDecode"}, zlib.compress(_TOUNICODE_CMAP)))
    font_ref = w.add(
        {"Type": "Font", "Subtype": "TrueType", "BaseFont": "Custom", "ToUnicode": cmap_ref}
    )
    content = b"BT /F1 12 Tf 72 712 Td <0102> Tj [ <10> -200 <11> 30 <12> ] TJ ET"
    root = w.simple_page_tree([content], {"Font": {"F1": font_ref}})
    return w.tobytes(root)


def multiline_pdf() -> bytes:
    """Td/TD/T*/quote line-advance fixture for the text state machine."""
    content = (
        b"BT /F1 12 Tf 14 TL 72 712 Td (first line) Tj "
        b"0 -14 Td (second line) Tj T* (third line) Tj "
        b"(fourth line) ' ET "
        b"BT /F1 9 Tf 300 712 Td (column two) Tj ET"
    )
    w = PdfWriter("1.4")
    font_ref = w.add(dict(_BASE_FONT))
    root = w.simple_page_tree([content], {"Font": {"F1": font_ref}})
    return w.tobytes(root)


def pagetree_nested_pdf() -> bytes:
    """3-level Pages/Kids tree with 4 leaf pages — pins page ordering."""
    w = PdfWriter("1.4")
    font_ref = w.add(dict(_BASE_FONT))
    res = {"Font": {"F1": font_ref}}
    c_refs = [w.add(RawStream({}, _content(f"leaf {i}"))) for i in range(4)]
    # numbering: inner1, inner2, outer, catalog allocated after pages
    base = w._next
    p_refs = [
        w.add({"Type": "Page", "Parent": Ref(base + 4 + (0 if i < 2 else 1), 0),
               "Contents": c_refs[i], "Resources": res})
        for i in range(4)
    ]
    inner1 = w.add({"Type": "Pages", "Kids": p_refs[:2], "Count": 2})
    inner2 = w.add({"Type": "Pages", "Kids": p_refs[2:], "Count": 2})
    outer = w.add({"Type": "Pages", "Kids": [inner1, inner2], "Count": 4})
    root = w.add({"Type": "Catalog", "Pages": outer})
    return w.tobytes(root)


# --------------------------------------------------------------------------
# encrypted fixtures (standard security handler)


def _owner_key(owner_pw: bytes, length: int, rounds50: bool) -> bytes:
    digest = md5((owner_pw + PASSWORD_PAD)[:32]).digest()
    if rounds50:
        for _ in range(50):
            digest = md5(digest).digest()
    return digest[:length]


def _make_encrypt_dict_rc4(user_pw: bytes, owner_pw: bytes, id0: bytes,
                           length_bits: int = 128, v: int = 2, r: int = 3,
                           p: int = -44) -> tuple:
    """Returns (encrypt_dict, file_key) for V2/R3 RC4 (ISO 32000 Alg 3/5)."""
    length = length_bits // 8
    okey = _owner_key(owner_pw, length, rounds50=(r >= 3))
    O = (user_pw + PASSWORD_PAD)[:32]
    if r == 2:
        O = rc4(O, okey)
    else:
        for i in range(20):
            O = rc4(O, bytes(b ^ i for b in okey))
    enc = {"V": v, "R": r, "Length": length_bits, "P": p,
           "O": LiteralString(O), "U": LiteralString(b"\x00" * 32)}
    # file key (Algorithm 2)
    h = md5()
    h.update((user_pw + PASSWORD_PAD)[:32])
    h.update(O)
    h.update(p.to_bytes(4, "little", signed=True))
    h.update(id0)
    digest = h.digest()
    if r >= 3:
        for _ in range(50):
            digest = md5(digest[:length]).digest()
    key = digest[:length]
    # U entry (Algorithm 4/5)
    if r == 2:
        U = rc4(PASSWORD_PAD, key)
    else:
        U = rc4(md5(PASSWORD_PAD + id0).digest(), key)
        for counter in range(1, 20):
            U = rc4(U, bytes(b ^ counter for b in key))
        U = U + b"\x00" * 16
    enc["U"] = LiteralString(U)
    return enc, key


def _object_key(file_key: bytes, num: int, gen: int, aes: bool) -> bytes:
    ext = file_key + num.to_bytes(4, "little")[:3] + gen.to_bytes(4, "little")[:2]
    if aes:
        ext += b"\x73\x41\x6c\x54"
    return md5(ext).digest()[: min(len(file_key) + 5, 16)]


def encrypted_pdf(user_pw: bytes = b"", owner_pw: bytes = b"owner",
                  cfm: str = "V2", text: str = "Secret text") -> bytes:
    """An encrypted one-page PDF; ``cfm`` in {"V2" (RC4), "AESV2"}."""
    id0 = b"\x01" * 16
    aes = cfm == "AESV2"
    if aes:
        enc, key = _make_encrypt_dict_rc4(user_pw, owner_pw, id0, 128, v=4, r=4)
        enc["CF"] = {"StdCF": {"CFM": "AESV2", "Length": 16}}
        enc["StmF"] = "StdCF"
        enc["StrF"] = "StdCF"
    else:
        enc, key = _make_encrypt_dict_rc4(user_pw, owner_pw, id0)

    def enc_data(data: bytes, num: int, gen: int) -> bytes:
        k = _object_key(key, num, gen, aes)
        if aes:
            iv = md5(data + bytes([num])).digest()  # deterministic IV
            return iv + cbc_encrypt(data, k, iv)
        return rc4(data, k)

    w = PdfWriter("1.4")
    font_ref = w.add(dict(_BASE_FONT))
    content = _content(text)
    c_num = w._next
    c_ref = w.add(RawStream({}, enc_data(content, c_num, 0)))
    pages_ref = Ref(60, 0)
    title_num = 61
    p_ref = w.add({"Type": "Page", "Parent": pages_ref, "Contents": c_ref,
                   "Resources": {"Font": {"F1": font_ref}}})
    w.add({"Type": "Pages", "Kids": [p_ref], "Count": 1}, num=60)
    # an encrypted string object to exercise decrypt_string
    w.add({"Title": LiteralString(enc_data(b"Encrypted title", title_num, 0))}, num=title_num)
    root = w.add({"Type": "Catalog", "Pages": pages_ref, "Meta": Ref(title_num, 0)})
    enc_ref = w.add(enc)
    return w.tobytes(root, trailer_extra={"Encrypt": enc_ref},
                     id_pair=(id0, id0))


def encrypted_pdf_aesv3_page(text: str = "AES-256 page", password: str = "") -> bytes:
    """A V5/AESV3 document with a real page tree, openable with the
    (str) user password, whose page text round-trips through both
    implementations' V5 quirk: ``decrypt_stream`` dispatches crypt
    filters only for V == 4 (``securityhandler.py:271``), so V5
    streams ALWAYS take the RC4 object-key path — the fixture
    therefore RC4-encrypts its content stream with that same
    symmetric derivation. Strings go through StrF/AESV3 as spec'd."""
    file_key = sha256(b"fixture-aesv3-page-key").digest()
    pw = password.encode("utf-8")[:127]
    vsalt_u, ksalt_u = b"PAGEUUVV", b"PAGEUUKK"
    U = sha256(pw + vsalt_u).digest() + vsalt_u + ksalt_u
    UE = cbc_encrypt(file_key, sha256(pw + ksalt_u).digest(), b"\x00" * 16, padding=False)
    vsalt_o, ksalt_o = b"PAGEOOVV", b"PAGEOOKK"
    O = sha256(pw + vsalt_o + U).digest() + vsalt_o + ksalt_o
    OE = cbc_encrypt(file_key, sha256(pw + ksalt_o + U).digest(), b"\x00" * 16, padding=False)
    enc = {
        "V": 5, "R": 5, "Length": 256,
        "O": LiteralString(O), "U": LiteralString(U),
        "OE": LiteralString(OE), "UE": LiteralString(UE),
        "P": -44, "CF": {"StdCF": {"CFM": "AESV3", "Length": 32}},
        "StmF": "StdCF", "StrF": "StdCF",
    }
    w = PdfWriter("1.7")
    font_ref = w.add(dict(_BASE_FONT))
    content = _content(text)
    c_num = w._next
    # V5 stream path == RC4 with the md5-salted object key (quirk above)
    c_ref = w.add(RawStream({}, rc4(content, _object_key(file_key, c_num, 0, False))))
    pages_ref = Ref(70, 0)
    title_num = 71
    p_ref = w.add({"Type": "Page", "Parent": pages_ref, "Contents": c_ref,
                   "Resources": {"Font": {"F1": font_ref}}})
    w.add({"Type": "Pages", "Kids": [p_ref], "Count": 1}, num=70)
    # an AESV3-encrypted string object exercising StrF dispatch
    title = b"AESV3 title"
    iv = md5(title).digest()
    w.add({"Title": LiteralString(iv + cbc_encrypt(title, file_key, iv))}, num=title_num)
    root = w.add({"Type": "Catalog", "Pages": pages_ref, "Meta": Ref(title_num, 0)})
    enc_ref = w.add(enc)
    return w.tobytes(root, trailer_extra={"Encrypt": enc_ref})


def encrypted_pdf_aesv3(password: str = "", text: bytes = b"AES-256 secret") -> bytes:
    """A V5/AESV3 document testing string decryption (reference-parity:
    V5 *stream* decryption takes the RC4 path, so only strings are
    exercised — ``securityhandler.py:270-302``)."""
    file_key = sha256(b"fixture-aesv3-file-key").digest()
    pw = password.encode("utf-8")[:127]
    vsalt_u, ksalt_u = b"UUUUVVVV", b"UUUUKKKK"
    U = sha256(pw + vsalt_u).digest() + vsalt_u + ksalt_u
    UE = cbc_encrypt(file_key, sha256(pw + ksalt_u).digest(), b"\x00" * 16, padding=False)
    vsalt_o, ksalt_o = b"OOOOVVVV", b"OOOOKKKK"
    O = sha256(pw + vsalt_o + U).digest() + vsalt_o + ksalt_o
    OE = cbc_encrypt(file_key, sha256(pw + ksalt_o + U).digest(), b"\x00" * 16, padding=False)
    enc = {
        "V": 5, "R": 5, "Length": 256,
        "O": LiteralString(O), "U": LiteralString(U),
        "OE": LiteralString(OE), "UE": LiteralString(UE),
        "P": -44, "CF": {"StdCF": {"CFM": "AESV3", "Length": 32}},
        "StmF": "Identity", "StrF": "StdCF",
    }
    iv = md5(text).digest()
    enc_string = iv + cbc_encrypt(text, file_key, iv)
    w = PdfWriter("1.7")
    s_ref = w.add({"Payload": LiteralString(enc_string)})
    root = w.add({"Type": "Catalog", "Data": s_ref})
    enc_ref = w.add(enc)
    return w.tobytes(root, trailer_extra={"Encrypt": enc_ref})
