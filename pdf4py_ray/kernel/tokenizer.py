"""PDF byte-stream tokenizer.

A from-scratch lexer over an in-memory byte buffer. Unlike the
reference implementation (``pdf4py/_lexer.py:55-660``), which emulates
a file handle with ``read``/``seek``/1-byte-lookahead state, this
tokenizer scans an immutable ``bytes`` buffer with an integer cursor
and compiled regexes for the long runs (whitespace, comments, names,
numbers, hex digits) — the zero-copy Arrow ``binary`` cell *is* the
buffer. Token-level semantics are behavior-matched to the reference,
including its quirks (documented inline), because the correctness gate
is equality with the reference.

``Tokenizer.next`` takes the common tokens in one compiled match
(``_FAST_RE``) that also skips blanks and comments: names, plain
integers and reals that end at a non-regular byte, ``<<``, ``>>``,
``[``, ``]``, and operator runs whose first byte starts no number and
no fixed literal (``t f s n e o x``). Everything else — strings, hex
strings, keywords, ``true``/``false``/``null``, braces, the degenerate
number forms and every error — goes through ``_next_slow``, the full
dispatch, unchanged. A property test pins both paths equal on the
same input, token by token and error by error.

Produced token values:
  ``int`` / ``float`` / ``bool`` / ``None``            numbers, booleans, null
  ``str``                                              a /Name (hash-unescaped, UTF-8)
  ``LiteralString`` / ``HexString``                    raw string bytes
  ``Operator``                                         bare regular-character run
  ``Keyword``                                          obj/endobj/trailer/xref/startxref/endstream
  ``ARRAY_OPEN/ARRAY_CLOSE/DICT_OPEN/DICT_CLOSE/BRACE_*``  structural markers
  ``StreamStart``                                      raw stream payload position
"""

from __future__ import annotations

import re

from .errors import PdfLexError
from .model import (
    ARRAY_CLOSE,
    ARRAY_OPEN,
    BRACE_CLOSE,
    BRACE_OPEN,
    DICT_CLOSE,
    DICT_OPEN,
    HexString,
    Keyword,
    LiteralString,
    Operator,
    StreamStart,
)

# PDF whitespace set (ISO 32000 table 1; matches reference BLANKS,
# ``pdf4py/_charset.py:72``).
_WHITESPACE = b"\x00\t\n\x0c\r "
# Delimiters end a regular-character run (``pdf4py/_charset.py:38-39``).
_DELIMITERS = b"()<>[]{}/%"

# Regular characters: printable '!'..'~' minus delimiters. The
# reference additionally treats bytes > 0x7e as run terminators
# (``pdf4py/_lexer.py:412``); this class encodes exactly that.
_REGULAR_CLASS = bytes(
    c for c in range(0x21, 0x7F) if c not in _DELIMITERS
)
_RUN_RE = re.compile(b"[" + re.escape(_REGULAR_CLASS) + b"]+")

# Whitespace and %-to-end-of-line comments. The reference skips a
# comment up to the next LINE FEED only (CR alone does not end it,
# ``pdf4py/_lexer.py:296-299``).
_SKIP_RE = re.compile(rb"(?:[\x00\t\n\x0c\r ]+|%[^\n]*\n)*")
_TRAILING_COMMENT_RE = re.compile(rb"%[^\n]*\Z")

# Numbers: sign, integer digits, optional point, fraction digits — the
# reference accepts the degenerate forms "4." and "-.002"
# (``pdf4py/_lexer.py:429-465``).
_NUM_RE = re.compile(rb"[+-]?\d*(?:\.\d*)?")

# Fast path of ``Tokenizer.next``: one match skips blanks and comments
# (as ``_SKIP_RE``) and then captures one common token whose value
# the slow dispatch would produce from the same bytes:
#   name   ``/`` and its regular run (possibly empty);
#   real   a number with a point and at least one digit, and
#   int    a plain integer, each only where the next byte is not a
#          regular character (``12abc``, ``1.2.3`` and ``4e5`` go the
#          slow way);
#   dopen, dclose, aopen, aclose   ``<<`` ``>>`` ``[`` ``]``;
#   op     a regular run whose first byte is none of the number
#          starts (digits, ``+ - .``) and none of the fixed literals'
#          first bytes (``t f s n e o x``), so no keyword, boolean or
#          null can be taken for an operator.
# The empty last alternative matches anything else (strings, hex,
# keywords, literals, errors, end of input), which leaves the cursor
# after the blanks and falls through to ``_next_slow``.
_REG = re.escape(_REGULAR_CLASS)
_OP_FIRST = re.escape(bytes(c for c in _REGULAR_CLASS if c not in b"0123456789+-.tfsneox"))
_FAST_RE = re.compile(
    rb"(?:[\x00\t\n\x0c\r ]+|%[^\n]*\n)*"
    rb"(?:/(?P<name>[" + _REG + rb"]*)"
    rb"|(?P<real>[+-]?(?:\d+\.\d*|\.\d+))(?![" + _REG + rb"])"
    rb"|(?P<int>[+-]?\d+)(?![" + _REG + rb"])"
    rb"|(?P<dopen><<)|(?P<dclose>>>)|(?P<aopen>\[)|(?P<aclose>\])"
    rb"|(?P<op>[" + _OP_FIRST + rb"][" + _REG + rb"]*)"
    rb"|)"
)
_FAST_MARKERS = {"dopen": DICT_OPEN, "dclose": DICT_CLOSE,
                 "aopen": ARRAY_OPEN, "aclose": ARRAY_CLOSE}

# the plain bytes of a literal string, copied as one run
_LITERAL_RUN_RE = re.compile(rb"[^()\\]+")

_HEXDIGITS_RE = re.compile(rb"[0-9A-Fa-f\x00\t\n\x0c\r ]*")
_HEX_VALUE = {c: int(chr(c), 16) for c in b"0123456789abcdefABCDEF"}

# Literal-match order matters and is the reference's dispatch order
# (``pdf4py/_lexer.py:608-628`` and KEYWORDS at ``_charset.py:41-45``):
# e.g. "null" must be tried before the bare-operator fallback, and
# "endobj" before "obj".
_KEYWORDS = (b"endobj", b"obj", b"trailer", b"xref", b"startxref", b"endstream")

# first-byte gate over the fixed literals/keywords, preserving the
# reference's try order within each first byte (literals before
# keywords: "stream" before "startxref", "true" before "trailer")
_FIXED_BY_BYTE = {
    0x74: ((b"true", "true"), (b"trailer", "kw")),
    0x66: ((b"false", "false"),),
    0x73: ((b"stream", "stream"), (b"startxref", "kw")),
    0x6E: ((b"null", "null"),),
    0x65: ((b"endobj", "kw"), (b"endstream", "kw")),
    0x6F: ((b"obj", "kw"),),
    0x78: ((b"xref", "kw"),),
}

_ESCAPE_MAP = {
    ord("n"): 0x0A,
    ord("r"): 0x0D,
    ord("b"): 0x08,
    ord("t"): 0x09,
    ord("f"): 0x0C,
}


class Tokenizer:
    """Pull-based token stream over ``data`` with random-access support."""

    __slots__ = ("buf", "n", "pos", "pending", "_stack", "context_size")

    def __init__(self, data, context_size: int = 200) -> None:
        import mmap as _mmap

        if isinstance(data, memoryview):
            data = bytes(data)
        if not isinstance(data, (bytes, bytearray, _mmap.mmap)):
            raise ValueError("Tokenizer source must be bytes-like.")
        self.context_size = context_size  # reference Lexer default (``_lexer.py:69``)
        # an mmap buffer is used AS-IS: regex scanning, int indexing and
        # rfind all work against the map, slices come back as bytes, and
        # the OS pages data in lazily — the engine's analogue of the
        # reference Lexer's never-load-the-whole-file BufferedReader
        # binding (``_lexer.py:69-106``) with O(1) random access kept
        self.buf = data if isinstance(data, _mmap.mmap) else bytes(data)
        self.n = len(self.buf)
        self.pos = 0
        # tokens pushed back by the parser; consumed before the buffer
        self.pending: list = []
        # (pos, pending) snapshots for goto/back
        self._stack: list = []

    # ------------------------------------------------------------------ helpers

    # escape-sequence *values* the reference counts when positioning the
    # caret (they print as two characters: ``STRING_ESCAPE_SEQUENCES``,
    # ``_charset.py:63-69``)
    _ESCAPE_BYTES = b"\n\r\x08\t\x0c"

    def get_context(self, context_size=None):
        """Bytes around the cursor for diagnostics — reference
        ``Lexer.get_context`` semantics (``_lexer.py:165-202``):
        window of at most ``context_size`` bytes starting at
        ``max(pos - size//2, 0)``; returns ``(context, error_position,
        error_relative_position)`` where the relative position carries
        the reference's escaped-byte caret adjustment."""
        size = self.context_size if context_size is None else context_size
        side = size // 2
        start = self.pos - side
        if start < 0:
            side += start
            start = 0
        context = self.buf[start : start + size]
        escaped = sum(context[:side].count(x) for x in self._ESCAPE_BYTES)
        return context, self.pos, side + escaped + 1

    def error(self, msg: str) -> None:
        context, pos, rel = self.get_context()
        raise PdfLexError(
            f"{msg}\n\nPosition {pos}, context:\n\t{context}\n\t{' ' * rel}^"
        )

    def push_back(self, token) -> None:
        """Return ``token`` to the stream; LIFO like the reference's
        one-slot lexeme buffer (``pdf4py/_lexer.py:645-660``)."""
        self.pending.append(token)

    def seek(self, pos: int) -> None:
        """Plain cursor move; drops any pushed-back lookahead."""
        self.pos = pos
        self.pending.clear()

    def goto(self, pos: int):
        """Save the cursor, move to ``pos`` and return the token there.

        Counterpart of the reference's ``move_at_position``
        (``pdf4py/_lexer.py:230-253``)."""
        self._stack.append((self.pos, self.pending))
        self.pending = []
        self.pos = pos
        return self.next()

    def back(self) -> None:
        """Undo the most recent :meth:`goto` (``move_back`` analogue)."""
        if not self._stack:
            raise PdfLexError("goto/back stack is empty")
        self.pos, self.pending = self._stack.pop()

    def find_last_line(self, keyword: bytes) -> int:
        """Position of the last *line* that exactly equals ``keyword``.

        Scans line boundaries backwards from EOF; each CR or LF byte is
        a boundary (matching the reference's backwards scan,
        ``pdf4py/_lexer.py:125-162``). Returns -1 when absent.
        """
        buf = self.buf
        i = self.n
        while i > 0:
            j = i - 1
            while j >= 0 and buf[j] not in (0x0D, 0x0A):
                j -= 1
            if buf[j + 1 : i] == keyword:
                return j + 1
            i = j if j >= 0 else 0
            if j < 0:
                break
        return -1

    # ------------------------------------------------------------------ scanning

    def __iter__(self):
        return self

    def __next__(self):
        return self.next()

    def next(self):
        """Return the next token; raises StopIteration at end of input."""
        if self.pending:
            return self.pending.pop()

        m = _FAST_RE.match(self.buf, self.pos)
        self.pos = m.end()
        kind = m.lastgroup
        if kind == "int":
            return int(m["int"])
        if kind == "op":
            raw = m["op"]
            return Operator(raw.decode("utf-8") if 0x23 not in raw else self._unescape_name(raw))
        if kind == "name":
            raw = m["name"]
            return raw.decode("utf-8") if 0x23 not in raw else self._unescape_name(raw)
        if kind == "real":
            return float(m["real"])
        if kind is not None:
            return _FAST_MARKERS[kind]
        return self._next_slow()

    def _next_slow(self):
        """The full dispatch, for every token the fast path leaves
        (and, on its own, a complete tokenizer over the same input)."""
        buf = self.buf
        self.pos = _SKIP_RE.match(buf, self.pos).end()
        if self.pos >= self.n:
            raise StopIteration
        c = buf[self.pos]
        # only an unterminated trailing comment can leave '%' here
        if c == 0x25 and _TRAILING_COMMENT_RE.match(buf, self.pos):
            raise StopIteration

        if c == 0x28:  # (
            return self._scan_literal_string()
        if c == 0x3C:  # <
            if buf[self.pos:self.pos + 2] == b"<<":
                self.pos += 2
                return DICT_OPEN
            return self._scan_hex_string()
        if c == 0x3E:  # >
            if buf[self.pos:self.pos + 2] == b">>":
                self.pos += 2
                return DICT_CLOSE
            self.error("Unexpected '>'")
        if c == 0x2F:  # /
            self.pos += 1
            return self._scan_name()
        if 0x30 <= c <= 0x39:  # digit
            return self._scan_number(leading_digit=True)
        if c in (0x2B, 0x2D, 0x2E):  # + - .
            return self._scan_number(leading_digit=False)

        # fixed literals/keywords, reference dispatch order per first byte
        fixed = _FIXED_BY_BYTE.get(c)
        if fixed:
            for word, action in fixed:
                if buf[self.pos:self.pos + len(word)] == word:  # slice compare: mmap-safe
                    self.pos += len(word)
                    if action == "kw":
                        return Keyword(word)
                    if action == "stream":
                        return self._scan_stream_start()
                    return {"true": True, "false": False, "null": None}[action]

        if c == 0x5B:  # [
            self.pos += 1
            return ARRAY_OPEN
        if c == 0x5D:  # ]
            self.pos += 1
            return ARRAY_CLOSE
        if c == 0x7B:  # {
            self.pos += 1
            return BRACE_OPEN
        if c == 0x7D:  # }
            self.pos += 1
            return BRACE_CLOSE

        m = _RUN_RE.match(buf, self.pos)
        if m:
            self.pos = m.end()
            return Operator(self._unescape_name(m.group()))
        self.error(f"Invalid byte {c:#x} in input stream")

    # -- individual scanners ------------------------------------------------

    def _scan_literal_string(self) -> LiteralString:
        """Balanced-parenthesis literal string with escapes.

        Matches the reference exactly (``pdf4py/_lexer.py:332-370``):
        nested unescaped parens are kept; ``\\n \\r \\t \\b \\f`` map to
        control bytes; ``\\<other>`` yields ``<other>`` verbatim (so a
        backslash-newline is *kept* as a newline, a reference quirk);
        ``\\ddd`` is a 1-3 digit octal code.
        """
        buf = self.buf
        p = self.pos + 1
        depth = 1
        out = bytearray()
        n = self.n
        run = _LITERAL_RUN_RE.match
        while depth > 0:
            if p >= n:
                self.pos = p
                self.error("Unterminated literal string")
            m = run(buf, p)
            if m:
                out += m.group()
                p = m.end()
                continue
            c = buf[p]
            if c == 0x5C:  # backslash
                p += 1
                if p >= n:
                    self.pos = p
                    self.error("Unterminated escape in literal string")
                c = buf[p]
                if 0x30 <= c <= 0x39:
                    code = 0
                    k = 0
                    while k < 3 and p < n and 0x30 <= buf[p] <= 0x39:
                        code = (code << 3) | (buf[p] - 0x30)
                        p += 1
                        k += 1
                    out.append(code & 0xFF if code > 0xFF else code)
                    continue
                out.append(_ESCAPE_MAP.get(c, c))
                p += 1
                continue
            if c == 0x28:
                depth += 1
            elif c == 0x29:
                depth -= 1
                if depth == 0:
                    p += 1
                    break
            out.append(c)
            p += 1
        self.pos = p
        return LiteralString(bytes(out))

    def _scan_hex_string(self) -> HexString:
        """``< ... >`` — digits kept raw/undecoded (``_lexer.py:373-397``)."""
        m = _HEXDIGITS_RE.match(self.buf, self.pos + 1)
        body = m.group()
        end = m.end()
        if end >= self.n or self.buf[end] != 0x3E:
            self.pos = end
            self.error("Expected '>' to close hexadecimal string")
        self.pos = end + 1
        return HexString(bytes(body.translate(None, _WHITESPACE)))

    def _scan_name(self) -> str:
        m = _RUN_RE.match(self.buf, self.pos)
        if not m:
            return ""  # bare '/' is the empty name
        self.pos = m.end()
        return self._unescape_name(m.group())

    def _unescape_name(self, raw: bytes) -> str:
        """Apply ``#xx`` unescaping and UTF-8 decode (``_lexer.py:400-426``)."""
        if 0x23 not in raw:  # '#'
            return raw.decode("utf-8")
        out = bytearray()
        i = 0
        L = len(raw)
        while i < L:
            c = raw[i]
            if c == 0x23:
                h1 = _HEX_VALUE.get(raw[i + 1]) if i + 1 < L else None
                h2 = _HEX_VALUE.get(raw[i + 2]) if i + 2 < L else None
                if h1 is None or h2 is None:
                    self.error("Invalid '#xx' escape in name")
                out.append((h1 << 4) | h2)
                i += 3
            else:
                out.append(c)
                i += 1
        return out.decode("utf-8")

    def _scan_number(self, leading_digit: bool):
        m = _NUM_RE.match(self.buf, self.pos)
        text = m.group()
        # a sign or point run with no digit (``-``, ``.``, ``-.``) is not
        # a number (``_lexer.py:453-454``)
        if not leading_digit and not text.strip(b"+-."):
            self.error("Unexpected byte sequence where a number was expected")
        self.pos = m.end()
        if b"." in text:
            return float(text)
        return int(text)

    def _scan_stream_start(self) -> StreamStart:
        """After the ``stream`` keyword, locate the payload start.

        Reference rule (``pdf4py/_lexer.py:528-533``): an optional CR
        must be followed by LF; data then begins after that byte — i.e.
        exactly one EOL byte is consumed after an optional CR.
        """
        p = self.pos
        if p < self.n and self.buf[p] == 0x0D:
            p += 1
            if p >= self.n or self.buf[p] != 0x0A:
                self.pos = p
                self.error("CR after 'stream' keyword not followed by LF")
        start = p + 1
        self.pos = start
        return StreamStart(start)
