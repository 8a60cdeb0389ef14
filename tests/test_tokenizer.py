"""Tokenizer unit tests — ported token-corpus semantics from the
reference suite (``/root/reference/tests/unit_tests.py:6-156``),
re-expressed against our API."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf4py_ray.kernel.errors import PdfLexError
from pdf4py_ray.kernel.model import (
    ARRAY_CLOSE,
    ARRAY_OPEN,
    DICT_CLOSE,
    DICT_OPEN,
    HexString,
    Keyword,
    LiteralString,
    Operator,
    StreamStart,
)
from pdf4py_ray.kernel.tokenizer import Tokenizer


def toks(data: bytes) -> list:
    return list(Tokenizer(data))


def one(data: bytes):
    return Tokenizer(data).next()


def test_comment_skipped():
    assert toks(b"% a comment\n42") == [42]


def test_comment_runs_to_line_feed_only():
    # CR alone does not end a comment (reference parity)
    assert toks(b"% x \r still comment\n7") == [7]


def test_booleans_and_null():
    assert toks(b"true false null") == [True, False, None]


def test_integers():
    assert toks(b"123 43445 +17 -98 0") == [123, 43445, 17, -98, 0]


def test_reals():
    assert toks(b"34.5 -3.62 +123.6 4. -.002 0.0") == [34.5, -3.62, 123.6, 4.0, -0.002, 0.0]


def test_int_vs_float_types():
    got = toks(b"7 7.")
    assert isinstance(got[0], int) and isinstance(got[1], float)


def test_lone_sign_is_error():
    with pytest.raises(PdfLexError):
        toks(b"+ ")


@pytest.mark.parametrize("data", [b"-.", b"+.", b"-. 1"])
def test_sign_and_point_without_digit_is_lex_error(data):
    """A sign followed by a point has no digit: a positioned
    ``PdfLexError``, on the fast path and on the full dispatch alike."""
    for read in (Tokenizer.next, Tokenizer._next_slow):
        with pytest.raises(PdfLexError, match="number was expected"):
            read(Tokenizer(data))


def test_literal_string_plain():
    assert one(b"(This is a string)") == LiteralString(b"This is a string")


def test_literal_string_newlines_kept():
    s = one(b"(Strings may contain newlines\nand such.)")
    assert s.value == b"Strings may contain newlines\nand such."


def test_literal_string_balanced_parens():
    s = one(b"(has (nested (parens)) inside)")
    assert s.value == b"has (nested (parens)) inside"


def test_literal_string_escapes():
    s = one(rb"(esc \n \r \t \b \f \( \) \\ done)")
    assert s.value == b"esc \n \r \t \b \f ( ) \\ done"


def test_literal_string_octal():
    assert one(rb"(\053)").value == b"+"
    assert one(rb"(\53)").value == b"+"
    # three-digit max then literal digit
    assert one(rb"(\0533)").value == b"+3"


def test_literal_string_unknown_escape_is_verbatim():
    assert one(rb"(\q)").value == b"q"


def test_hex_string_kept_raw():
    s = one(b"<4E6F762073686D6F7A>")
    assert s == HexString(b"4E6F762073686D6F7A")


def test_hex_string_blanks_tolerated():
    assert one(b"<4E 6F\n76>").value == b"4E6F76"


def test_hex_string_unterminated():
    with pytest.raises(PdfLexError):
        one(b"<4E6F")


def test_names():
    cases = {
        b"/Name1": "Name1",
        b"/ASomewhatLongerName": "ASomewhatLongerName",
        b"/A;Name_With-Various***Characters?": "A;Name_With-Various***Characters?",
        b"/1.2": "1.2",
        b"/$$": "$$",
        b"/@pattern": "@pattern",
        b"/.notdef": ".notdef",
        b"/lime#20Green": "lime Green",
        b"/paired#28#29parentheses": "paired()parentheses",
        b"/The_Key_of_F#23_Minor": "The_Key_of_F#_Minor",
        b"/A#42": "AB",
    }
    for raw, expected in cases.items():
        assert one(raw) == expected


def test_name_ends_at_delimiter():
    t = Tokenizer(b"/Name(str)")
    assert t.next() == "Name"
    assert t.next() == LiteralString(b"str")


def test_operator_token():
    assert one(b"Tj ") == Operator("Tj")


def test_keyword_tokens():
    assert toks(b"obj endobj trailer xref startxref endstream") == [
        Keyword(b"obj"),
        Keyword(b"endobj"),
        Keyword(b"trailer"),
        Keyword(b"xref"),
        Keyword(b"startxref"),
        Keyword(b"endstream"),
    ]


def test_markers():
    assert toks(b"[ ] << >>") == [ARRAY_OPEN, ARRAY_CLOSE, DICT_OPEN, DICT_CLOSE]


def test_dict_open_not_hex():
    t = Tokenizer(b"<</K 1>>")
    assert t.next() is DICT_OPEN


def test_stream_start_position():
    data = b"stream\nPAYLOAD"
    t = Tokenizer(data)
    tok = t.next()
    assert isinstance(tok, StreamStart)
    assert data[tok.start : tok.start + 7] == b"PAYLOAD"


def test_stream_start_crlf():
    data = b"stream\r\nPAYLOAD"
    tok = Tokenizer(data).next()
    assert data[tok.start : tok.start + 7] == b"PAYLOAD"


def test_stream_cr_without_lf_is_error():
    with pytest.raises(PdfLexError):
        Tokenizer(b"stream\rPAYLOAD").next()


def test_eof_raises_stopiteration():
    t = Tokenizer(b"  ")
    with pytest.raises(StopIteration):
        t.next()


def test_pushback_lifo():
    t = Tokenizer(b"1 2")
    a = t.next()
    t.push_back(a)
    assert t.next() == 1
    assert t.next() == 2


def test_goto_and_back():
    t = Tokenizer(b"1 2 3 4")
    assert t.next() == 1
    assert t.goto(4) == 3
    t.back()
    assert t.next() == 2


def test_find_last_line():
    data = b"junk\nstartxref\n123\n%%EOF\n"
    t = Tokenizer(data)
    pos = t.find_last_line(b"startxref")
    assert data[pos : pos + 9] == b"startxref"
    t.seek(pos)
    assert t.next() == Keyword(b"startxref")
    assert t.next() == 123


def test_find_last_line_absent():
    assert Tokenizer(b"nothing here\n").find_last_line(b"startxref") == -1


def test_mixed_sequence():
    got = toks(b"<< /Type /Page >> [ 1 2.5 (s) ] BT")
    assert got == [
        DICT_OPEN, "Type", "Page", DICT_CLOSE,
        ARRAY_OPEN, 1, 2.5, LiteralString(b"s"), ARRAY_CLOSE,
        Operator("BT"),
    ]


def test_get_context_reference_semantics():
    # reference Lexer.get_context (_lexer.py:165-202): window of at most
    # context_size bytes from max(pos - size//2, 0), caret adjusted by
    # escaped-byte count in the left half
    from pdf4py_ray.kernel.tokenizer import Tokenizer

    buf = b"0123456789" * 10
    tok = Tokenizer(buf, context_size=20)
    tok.pos = 50
    ctx, pos, rel = tok.get_context()
    assert ctx == buf[40:60] and pos == 50 and rel == 11

    # near the start the window clips and the caret shifts left
    tok.pos = 3
    ctx, pos, rel = tok.get_context()
    assert ctx == buf[0:20] and rel == 4

    # per-call override
    ctx, _, _ = tok.get_context(context_size=6)
    assert ctx == buf[0:6]

    # escaped bytes left of the caret widen the printed offset
    tok2 = Tokenizer(b"a\nb\tc" + b"x" * 40, context_size=10)
    tok2.pos = 5
    ctx, _, rel = tok2.get_context()
    assert rel == 5 + 2 + 1  # two escape bytes in the left half


def test_error_message_carries_context():
    import pytest as _pytest

    from pdf4py_ray.kernel.errors import PdfLexError
    from pdf4py_ray.kernel.tokenizer import Tokenizer

    tok = Tokenizer(b"1 2 >")
    with _pytest.raises(PdfLexError) as ei:
        for _ in range(5):
            tok.next()
    assert "Position" in str(ei.value) and "context" in str(ei.value)


# -- fast path against the full dispatch -------------------------------------

# pieces that sit on the fast path's edges: literals with a regular tail,
# numbers running into letters or a second point, a lone sign or point,
# escaped and empty names, strings with escaped and nested parentheses,
# comments, and bytes above 0x7E
_PIECES = [
    b"trueX", b"nullx", b"12abc", b"-.", b"+", b"4.", b"/A#20B", b"/", b"<<", b">>",
    b"(a\\)b(c))", b"%c\n", b"\x80", b"\xfe", b"1.2.3", b"4e5", b"-.5", b"+17", b"0",
    b"true", b"false", b"null", b"obj", b"endobj", b"stream\n", b"endstream", b"xref",
    b"trailer", b"startxref", b"R", b"Tj", b"T*", b"'", b"#41", b"/#4", b"/N#41me",
    b"[", b"]", b"{", b"}", b"<41 42>", b"<", b">", b"(", b")", b"\\", b"%", b"%%EOF",
    b"q", b"BT", b"e", b"x", b" ", b"\n", b"\r", b"\t", b"\x00", b"\x0c",
]


def _tokenize(tok: Tokenizer, step) -> tuple:
    """Every token with the cursor after it, then how the input ended."""
    out = []
    try:
        while True:
            out.append((step(), tok.pos))
    except StopIteration:
        return out, None
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return out, (type(e).__name__, str(e))


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=12).map(b"".join))
def test_fast_path_equals_full_dispatch(data):
    fast = Tokenizer(data)
    slow = Tokenizer(data)
    assert _tokenize(fast, fast.next) == _tokenize(slow, slow._next_slow)


def test_fast_path_edge_tokens():
    assert toks(b"trueX nullx 12abc 4. /A#20B / -.5") == [
        True, Operator("X"), None, Operator("x"), 12, Operator("abc"), 4.0, "A B", "", -0.5]
