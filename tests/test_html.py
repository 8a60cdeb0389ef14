"""HTML main-content extraction goldens (FIXTURES §3), and the
one-pass scanner pinned to the ``html.parser`` DOM path."""

import sys

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf4py_ray.kernel import html_extract
from pdf4py_ray.kernel.html_extract import extract_html_text, looks_like_html
from pdf4py_ray.sources.transcripts import make_doc_html

ARTICLE_SIMPLE = """<!DOCTYPE html>
<html><head><title>t</title><style>.x{color:red}</style></head>
<body>
<nav><a href="/">Home</a> <a href="/a">About</a></nav>
<article>
<h1>The Headline</h1>
<p>This is the first paragraph of the main article content with enough
text to dominate the scoring.</p>
<p>A second paragraph continues the long-form body text here.</p>
</article>
<footer>Copyright 2026 <a href="/tos">Terms</a></footer>
</body></html>"""

LINK_FARM = """<html><body>
<div id="main">
<p>Real content sentence one with a reasonable amount of words in it.</p>
<p>Real content sentence two that keeps the density high and links low.</p>
</div>
<div id="sidebar">
<ul>
<li><a href="/1">Link one</a></li>
<li><a href="/2">Link two</a></li>
<li><a href="/3">Link three</a></li>
<li><a href="/4">Link four</a></li>
</ul>
</div>
</body></html>"""

DEEP_NESTING = """<html><body><div><div><div><div>
<article><p>Deeply nested but genuine content paragraph with plenty of
descriptive text inside it.</p></article>
</div></div></div></div></body></html>"""

MIXED_INLINE = """<html><body><article>
<p>Inline <b>bold</b> and <a href="/x">a link</a> inside <span>spans</span> flow.</p>
</article></body></html>"""

MALFORMED = """<html><body>
<div><p>Paragraph with an unclosed div and stray closers.</p>
</section></div></em>
<p>Second paragraph still extracted fine.</p>
</body></html>"""


def test_article_simple_strips_boilerplate():
    text, spans = extract_html_text(ARTICLE_SIMPLE)
    assert "The Headline" in text
    assert "first paragraph" in text
    assert "Home" not in text and "Copyright" not in text
    assert ".x{color:red}" not in text
    assert all(k == "line" for _, _, k in spans)
    # spans index the text exactly
    s, e, _ = spans[0]
    assert text[s:e] == text.split("\n")[0]


def test_link_farm_dropped():
    text, _ = extract_html_text(LINK_FARM)
    assert "Real content sentence one" in text
    assert "Link one" not in text


def test_deep_nesting_found():
    text, _ = extract_html_text(DEEP_NESTING)
    assert "Deeply nested but genuine content" in text


def test_mixed_inline_flows():
    text, _ = extract_html_text(MIXED_INLINE)
    assert "Inline bold and a link inside spans flow." in text


def test_malformed_tolerated():
    text, _ = extract_html_text(MALFORMED)
    assert "unclosed div" in text
    assert "Second paragraph still extracted fine." in text


def test_whitespace_collapsed():
    text, _ = extract_html_text("<html><body><p>a   b\n\n c</p></body></html>")
    assert text == "a b c"


def test_plain_wrapper_fallback():
    text, _ = extract_html_text("<p>only a paragraph</p>")
    assert text == "only a paragraph"


def test_sniffer():
    assert looks_like_html("<!DOCTYPE html><html>...")
    assert looks_like_html("  <div class='x'>hi</div>")
    assert not looks_like_html("plain prose with < symbols")
    assert not looks_like_html("%PDF-1.4 binary")


# ------------------------------------------------ scanner against the DOM path

FIXTURES = (ARTICLE_SIMPLE, LINK_FARM, DEEP_NESTING, MIXED_INLINE, MALFORMED)


def dom_result(doc: str):
    return html_extract._finish(html_extract._extract_dom(doc))


def test_common_pages_take_the_scanner():
    # a regex slip that sends these to the DOM path costs speed, not
    # output, so only this test sees it
    pages = [make_doc_html("alpha beta gamma " * k, farm) for k in (1, 7) for farm in (False, True)]
    for doc in pages + list(FIXTURES):
        lines = html_extract._scan(doc)
        assert lines is not None, doc[:120]
        assert html_extract._finish(lines) == dom_result(doc)


def test_deep_html_is_text_on_both_paths():
    # the DOM path used to recurse per element: 1200 levels raised
    # RecursionError and made the row an error row
    body = "<div>" * 5000 + "deep text" + "</div>" * 5000
    doc = f"<html><body>{body}</body></html>"
    fallback = doc.replace("deep text", "deep < text")  # a bare '<' leaves the grammar
    assert html_extract._scan(doc) is not None and html_extract._scan(fallback) is None
    assert extract_html_text(doc) == dom_result(doc) == ("deep text", [(0, 9, "line")])
    assert extract_html_text(fallback) == ("deep < text", [(0, 11, "line")])
    from pdf4py_ray.stages.extract import ExtractTurns

    batch = pa.table({"conv_id": ["c", "c"], "turn_idx": [0, 1], "text": [doc, fallback],
                      "tool": ["web_fetch", "web_fetch"]})
    out = ExtractTurns()(batch)
    assert out["status"].to_pylist() == ["ok", "ok"]


def test_odd_whitespace_class_is_complete():
    # chars that str.split()/strip() treat as whitespace and the collapse
    # regex does not: a plain-text chunk must contain none of them
    odd = {c for c in map(chr, range(sys.maxunicode + 1))
           if c.isspace() and not html_extract._WS_RE.match(c)}
    cls = html_extract.re.compile(f"[{html_extract._ODD_WS}]")
    assert {c for c in map(chr, range(0x3001)) if cls.match(c)} == odd


_NAMES = ["div", "DIV", "Div", "article", "section", "td", "main", "body", "p", "li", "ul",
          "span", "b", "a", "A", "nav", "footer", "head", "form", "br", "hr", "img", "BR",
          "title", "h1", "em", "table", "tr", "x-el"]
_ATTRS = ["", ' class="x"', " href='/l'", " data-k=v ", " disabled", ' id = "a&amp;b"',
          "\n  title='t'"]
_WORDS = ["alpha", "beta gamma", "  ", "\n", "\t x ", "a\xa0b", "\u2003w\u2003", "\x1cq",
          "&amp;", "&amp", "&#12", "&x", "&nbsp;", "&#x41;", "&lt;p&gt;", "z\x0bz", "\x85"]


def _start(name, attrs, close):
    return f"<{name}{attrs}{close}>"


_clean = st.one_of(
    st.sampled_from(_WORDS),
    st.builds(_start, st.sampled_from(_NAMES), st.sampled_from(_ATTRS),
              st.sampled_from(["", "", " ", "/", " /"])),
    st.builds(lambda n, sp: f"</{n}{sp}>", st.sampled_from(_NAMES), st.sampled_from(["", " "])),
    st.sampled_from(["<!-- c -->", "<!---->", "<!-- a-b -->", "<!DOCTYPE html>", "<!doctype x>",
                     "<script>var s = '</div>';</script>", "<STYLE>p {}</style >",
                     "<script type='t'>a</SCRIPT>"]),
    st.integers(1, 300).map(lambda k: "<div>" * k),
)
_dirty = st.sampled_from(["a < b", "<", "<?pi x?>", "<![CDATA[x]]>", "<!bogus>", "</ >", "</>",
                          "<!-->", "<script>", "<a href=/x/>", "<p class=a/b>", "<div/ >",
                          "<!-- a--->", "<a b='1'c>", "<script/>", "<td\xa0x>"])


@settings(max_examples=400, deadline=None)
@given(st.lists(_clean, max_size=40).map("".join))
@example("<body><td>x &amp</td>")
@example("<article><a>link</a><div/>text</article><div><div><a>x</a></div></div>")
@example("<div>ab</div><div>cd</div>")  # the first of equal candidates wins
@example("<div>a          b</div><div>abcd</div>")  # whitespace runs count once
@example("<div><a>xxxxxxxx</a></div><div>yyyy</div>")  # link text counts twice against
@example("<div><br>x</br>y</div>")  # a void tag is not pushed; its end tag is stray
def test_scanner_equals_dom_path(doc):
    lines = html_extract._scan(doc)
    assert lines is not None
    assert html_extract._finish(lines) == dom_result(doc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_clean, _dirty), max_size=40).map("".join))
def test_any_page_equals_dom_path(doc):
    assert extract_html_text(doc) == dom_result(doc)
