"""HTML main-content extraction goldens (FIXTURES §3), and both of
the scorer's tokenizers pinned to an ``html.parser`` element tree."""

import sys
from html.parser import HTMLParser
from typing import List, Tuple

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf4py_ray.kernel import html_extract
from pdf4py_ray.kernel.html_extract import (
    BLACKLIST,
    BLOCK_TAGS,
    CANDIDATE_TAGS,
    VOID_TAGS,
    _WS_RE,
    _collapsed_len,
    extract_html_text,
    looks_like_html,
)
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


# ------------------------------------------------ the oracle: an element tree
# The extraction policy applied to a whole html.parser element tree: the
# reference both of the scorer's tokenizers are pinned to. Its traversals
# use explicit stacks, so a deep page is text here too.


class _Node:
    __slots__ = ("tag", "children", "depth")

    def __init__(self, tag: str, depth: int) -> None:
        self.tag = tag
        self.children: list = []  # _Node | str
        self.depth = depth


class _DomBuilder(HTMLParser):
    """Tolerant DOM builder: unmatched end tags are ignored; unclosed
    tags are implicitly closed when an ancestor closes."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root", 0)
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        node = _Node(tag, len(self.stack))
        self.stack[-1].children.append(node)
        if tag not in VOID_TAGS:
            self.stack.append(node)

    def handle_startendtag(self, tag, attrs):
        self.stack[-1].children.append(_Node(tag, len(self.stack)))

    def handle_endtag(self, tag):
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return
        # stray end tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def _measure(root: _Node) -> Tuple[list, dict]:
    """The candidates under ``root`` in document order, skipping
    blacklisted subtrees, and ``{id(node): (total_chars, link_chars)}``
    for every node: text under the node, and the part of it under an
    ``a`` below the node. Whitespace runs count as one char."""
    cands: list = []
    sums: dict = {}
    stack = [(root, False)]  # (node, children done)
    while stack:
        node, done = stack.pop()
        if not done:
            stack.append((node, True))
            for child in reversed(node.children):
                if isinstance(child, _Node) and child.tag not in BLACKLIST:
                    stack.append((child, False))
            if node.tag in CANDIDATE_TAGS:
                cands.append(node)
            continue
        total = link = 0
        for child in node.children:
            if isinstance(child, str):
                total += _collapsed_len(child)
            elif child.tag not in BLACKLIST:
                t, l = sums[id(child)]
                total += t
                link += t if child.tag == "a" else l
        sums[id(node)] = (total, link)
    return cands, sums


def _render(node: _Node) -> List[Tuple[str, int]]:
    """Render a subtree to lines of (text, link_char_count)."""
    lines: List[Tuple[str, int]] = []
    buf: List[str] = []
    link_chars = 0

    def flush() -> None:
        nonlocal buf, link_chars
        text = _WS_RE.sub(" ", "".join(buf)).strip()
        if text:
            lines.append((text, link_chars))
        buf = []
        link_chars = 0

    stack = [(iter(node.children), False, False)]  # (children, in_link, is_block)
    while stack:
        children, in_link, is_block = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            if is_block:
                flush()
        elif isinstance(child, str):
            buf.append(child)
            if in_link:
                link_chars += _collapsed_len(child)
        elif child.tag not in BLACKLIST:
            block = child.tag in BLOCK_TAGS
            if block:
                flush()
            stack.append((iter(child.children), in_link or child.tag == "a", block))
    flush()
    return lines


def _extract_dom(html: str) -> List[Tuple[str, int]]:
    """The winner's rendered lines through ``html.parser``'s DOM."""
    builder = _DomBuilder()
    builder.feed(html)
    builder.close()
    root = builder.root
    candidates, sums = _measure(root)
    best, best_key = root, None
    for node in candidates:
        total, link = sums[id(node)]
        key = (total - 2 * link, node.depth)  # deepest wins among equal scores
        if best_key is None or key > best_key:
            best, best_key = node, key
    return _render(best)


# ------------------------------------------------ both tokenizers against the tree

FIXTURES = (ARTICLE_SIMPLE, LINK_FARM, DEEP_NESTING, MIXED_INLINE, MALFORMED)


def dom_result(doc: str):
    return html_extract._finish(_extract_dom(doc))


def test_common_pages_take_the_scanner():
    # a regex slip that sends these to the html.parser tokenizer costs
    # speed, not output, so only this test sees it
    pages = [make_doc_html("alpha beta gamma " * k, farm) for k in (1, 7) for farm in (False, True)]
    for doc in pages + list(FIXTURES):
        lines = html_extract._scan(doc)
        assert lines is not None, doc[:120]
        assert html_extract._finish(lines) == dom_result(doc)


def test_deep_html_is_text_on_both_paths():
    # the tree path used to recurse per element: 1200 levels raised
    # RecursionError and made the row an error row
    body = "<div>" * 5000 + "deep text" + "</div>" * 5000
    doc = f"<html><body>{body}</body></html>"
    fallback = doc.replace("deep text", "deep < text")  # a bare '<' leaves the grammar
    assert html_extract._scan(doc) is not None and html_extract._scan(fallback) is None
    assert extract_html_text(doc) == dom_result(doc) == ("deep text", [(0, 9, "line")])
    assert html_extract._finish(html_extract._parse(doc)) == extract_html_text(doc)
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


def test_parser_data_is_decoded_once():
    # html.parser hands over decoded data; a second unescape would turn
    # the page's literal "&lt;" into "<"
    doc = "<div>a &amp;lt; b < c &amp;amp; d</div>"
    assert html_extract._scan(doc) is None
    assert extract_html_text(doc) == ("a &lt; b < c &amp; d", [(0, 20, "line")])


_noise = st.text(alphabet="<>/&;!?[]-=\"' ab#", max_size=12)


def _outcome(extract, doc):
    """``(text, spans)``, or what ``html.parser`` raised: its markup
    base rejects some ``<!`` declarations (``<![;``) with an
    ``AssertionError``, and both paths must then raise the same."""
    try:
        return extract(doc)
    except AssertionError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_clean, _dirty, _noise), max_size=40).map("".join))
@example("<p>&amp;lt;</p>")
@example("<div>x &amp;&#60; y</div><?pi?><div>&amp;amp;</div>")
@example("<div>text</div><![;")
@example("<div>a \xa0 \xa0 b</div><div>abcd</div>")  # no-break spaces are text, not runs
def test_parser_tokens_equal_dom_path(doc):
    # the html.parser tokenizer, forced on every page, scanner-accepted
    # ones included
    parsed = _outcome(lambda d: html_extract._finish(html_extract._parse(d)), doc)
    assert parsed == _outcome(dom_result, doc)
