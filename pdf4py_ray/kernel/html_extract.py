"""HTML main-content extraction via element-tree heuristics.

New capability (BASELINE.json ``north_star``; the reference has no
HTML handling at all). Stdlib-only; candidate scoring uses text
density vs link density vs tag depth (the classic boilerplate-removal
signals from the public Boilerpipe/Readability literature).

Extraction policy (our spec, pinned by golden tests):

- ``script/style/nav/header/footer/aside/form/noscript/iframe/
  button/svg/template/head`` subtrees are dropped outright;
- candidate containers are ``body main article div section td``;
  score = text_length − 2 × link_text_length; the winner is the
  highest score, ties broken toward the *deepest* node, then the
  first in document order — so a tight ``<article>`` beats the
  ``<body>`` that merely contains it; with no candidate the whole
  document is rendered;
- block-level boundaries become newlines, whitespace is collapsed,
  lines that are >66% link text with fewer than 10 words are dropped
  as residual boilerplate;
- spans (character offsets into the final text) are emitted per
  output line with kind ``line``.

One scorer (:func:`_score`) applies the policy in one pass over a
token stream, and two tokenizers feed it the same tuples (text, start
tag, start-end tag, end tag, then ``_EOF``):

- **The regex tokenizer** (:func:`_scan`) is tried first. One
  compiled regex tokenizes the page (``findall``) and accepts a strict
  grammar and nothing else: text without ``<`` (passed through
  ``html.unescape`` when it holds ``&``); start tags with quoted or
  unquoted attributes and an optional ``/>``; ``</name>`` end tags;
  ``<!-- -->`` comments and ``<!doctype>``; ``script``/``style`` raw
  text up to its end tag, as ``html.parser`` finds it. A catch-all
  group takes the rest of the page at the first token outside the
  grammar, and such a page goes to the other tokenizer.
- **The ``html.parser`` tokenizer** (:func:`_parse`) takes any page
  (a bare ``<``, ``<?pi>``, ``<![CDATA[``, a bogus comment, an
  unclosed ``script``, unusual attribute syntax...). Its data arrives
  with character references already decoded, so the scorer's decode
  step is the identity for it.

The scorer keeps the open-element stack by the tolerant tree rules
(void and self-closing tags are not pushed, an end tag pops to the
nearest open match, a stray end tag is ignored, depth is the stack
height) and scores each candidate while the tokens stream past: a text
chunk's collapsed length counts toward every open candidate, as link
text only under an ``a`` opened inside that candidate, and not at all
while a blacklisted element is open. Only the winner's range of
recorded events is rendered. The stack is a list, so nesting depth is
bounded by memory, not by the interpreter's recursion limit. The tests
keep an ``html.parser`` element tree as the reference for both
tokenizers.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import List, Optional, Tuple

Span = Tuple[int, int, str]

BLACKLIST = frozenset(
    "script style noscript nav header footer aside form button iframe svg template head".split()
)
BLOCK_TAGS = frozenset(
    (
        "p div section article main body ul ol li table tbody thead tr td th "
        "h1 h2 h3 h4 h5 h6 blockquote pre br hr dl dt dd figure figcaption address"
    ).split()
)
VOID_TAGS = frozenset("br hr img input meta link area base col embed source track wbr".split())
CANDIDATE_TAGS = frozenset("body main article div section td".split())

_WS_RE = re.compile(r"[ \t\r\n\f\v]+")


def _collapsed_len(text: str) -> int:
    """Length of ``text`` with whitespace runs collapsed and stripped."""
    return len(_WS_RE.sub(" ", text).strip())


def _finish(lines: List[Tuple[str, int]]) -> Tuple[str, List[Span]]:
    """Rendered ``(line, link_chars)`` → ``(text, spans)``: residual
    link-farm lines dropped, one ``line`` span per kept line."""
    out: List[str] = []
    spans: List[Span] = []
    offset = 0
    for text, link_chars in lines:
        n = len(text)
        if link_chars / n > 0.66 and text.count(" ") < 9:
            continue  # residual link-farm line (under 10 words)
        if out:
            offset += 1  # the joining newline
        spans.append((offset, offset + n, "line"))
        out.append(text)
        offset += n
    return "\n".join(out), spans


def extract_html_text(html: str) -> Tuple[str, List[Span]]:
    """Main-content text + line spans from an HTML document."""
    lines = _scan(html)
    if lines is None:
        lines = _parse(html)
    return _finish(lines)


# ------------------------------------------- the tokenizers and the scorer

_BLOCK, _BLACK, _CAND, _LINK, _VOID = 1, 2, 4, 8, 16
_FLAGS: dict = {}
for _names, _bit in ((BLOCK_TAGS, _BLOCK), (BLACKLIST, _BLACK), (CANDIDATE_TAGS, _CAND),
                     (("a",), _LINK), (VOID_TAGS, _VOID)):
    for _name in _names:
        _FLAGS[_name] = _FLAGS.get(_name, 0) | _bit

# Whitespace that str.split()/strip() know and _WS_RE does not: a chunk
# free of it (and of '&') collapses as " ".join(chunk.split())
_ODD_WS = "\x1c-\x1f\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000"
_SP = "[ \t\n\r\f]"
_NAME = "[a-zA-Z][-.a-zA-Z0-9:_]*"
_ATTR = (rf"{_SP}+[a-zA-Z_:][-a-zA-Z0-9_:.]*"
         rf"(?:{_SP}*={_SP}*(?:\"[^\"<>]*\"|'[^'<>]*'|[^\s\"'=<>`/]+(?={_SP}|>)))?")
_RAW = "|".join(  # script/style raw text, ended where html.parser's CDATA mode ends it
    rf"<(?i:{tag})(?:{_ATTR})*{_SP}*>(?s:.*?)</\s*(?i:{tag})\s*>" for tag in ("script", "style"))
_TOKEN_RE = re.compile(
    rf"([^<&{_ODD_WS}]+)(?![^<])"                     # 1 plain text
    r"|([^<]+)"                                       # 2 text with '&' or odd whitespace
    rf"|{_RAW}"                                       # raw-text element (skipped: blacklisted)
    rf"|<(?!(?i:script|style)\b)({_NAME})(?:{_ATTR})*{_SP}*(/?)>"  # 3 start tag, 4 its '/'
    rf"|</({_NAME}){_SP}*>"                           # 5 end tag
    # comment (ignored); html.parser versions differ on `<!-->` and `<!--->`
    r"|<!--(?!-?>)(?:[^-]|-(?!-))*-->"
    r"|<![dD][oO][cC][tT][yY][pP][eE][^>]*>"           # doctype (ignored)
    r"|([\s\S]+)"                                     # 6 outside the grammar: ends the scan
)
_EOF = ("", "", "", "", "#eof", "")  # closes every open element


def _scan(html: str) -> Optional[List[Tuple[str, int]]]:
    """The winner's lines through the regex tokenizer, or ``None`` when
    ``html`` leaves its grammar."""
    tokens = _TOKEN_RE.findall(html)
    if tokens and tokens[-1][5]:  # only the catch-all group can end a page
        return None
    return _score(tokens, unescape)


class _Tokens(HTMLParser):
    """``html.parser``'s events as scanner tokens; data goes in the
    second slot, measured as decoded text."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tokens: list = []

    def handle_starttag(self, tag, attrs):
        self.tokens.append(("", "", tag, "", "", ""))

    def handle_startendtag(self, tag, attrs):
        self.tokens.append(("", "", tag, "/", "", ""))

    def handle_endtag(self, tag):
        self.tokens.append(("", "", "", "", tag, ""))

    def handle_data(self, data):
        if data:
            self.tokens.append(("", data, "", "", "", ""))


def _parse(html: str) -> List[Tuple[str, int]]:
    """The winner's lines through ``html.parser``'s tokens: any page."""
    parser = _Tokens()
    parser.feed(html)
    parser.close()
    return _score(parser.tokens, str)  # character references already decoded


def _score(tokens: list, decode) -> List[Tuple[str, int]]:
    """The winner's rendered ``(line, link_chars)`` lines in one pass
    over ``tokens``; ``decode`` turns a text token holding ``&`` into
    the text it stands for."""
    flags_of = _FLAGS.get
    tags = ["#root"]  # open elements; slot 0 is the root, depth = slot
    flags = [0]
    events: list = []  # rendered text chunks; None = a block boundary
    link_at: dict = {}  # event index → slot of the deepest open <a>
    cands: list = []  # open candidates: [slot, total at open, link, first event, order]
    a_slots: list = []  # slots of the open <a> elements
    blocked = 0  # open blacklisted elements
    total = 0  # collapsed text length seen outside blacklisted elements
    order = 0
    best = None  # ((score, depth, -order), first event, end event, slot)
    tokens.append(_EOF)
    for text, other, name, slash, end_name, _ in tokens:
        if text or other:
            if blocked:
                continue
            if text:
                c = len(" ".join(text.split()))
            else:
                text = decode(other) if "&" in other else other
                c = _collapsed_len(text)
            events.append(text)
            total += c
            if a_slots:
                a = a_slots[-1]
                link_at[len(events) - 1] = a
                for rec in cands:
                    if rec[0] >= a:
                        break
                    rec[2] += c
            continue
        if name:
            name = name.lower()
            f = flags_of(name, 0)
            leaf = slash or f & _VOID
            if blocked or f & _BLACK:
                if not leaf:
                    tags.append(name)
                    flags.append(f)
                    if f & _BLACK:
                        blocked += 1
                continue
            if f & _BLOCK:
                events.append(None)
            if f & _CAND:
                if leaf:  # an empty candidate scores 0
                    key = (0, len(tags), -order)
                    if best is None or key > best[0]:
                        best = (key, len(events), len(events), len(tags))
                else:
                    cands.append([len(tags), total, 0, len(events), order])
                order += 1
            if leaf:
                if f & _BLOCK:
                    events.append(None)
                continue
            if f & _LINK:
                a_slots.append(len(tags))
            tags.append(name)
            flags.append(f)
            continue
        if not end_name:
            continue  # comment, doctype or raw-text element
        if end_name == "#eof":
            i = 1
        else:
            end_name = end_name.lower()
            i = len(tags) - 1
            while i > 0 and tags[i] != end_name:
                i -= 1
            if i == 0:
                continue  # stray end tag
        while len(tags) > i:
            tags.pop()
            f = flags.pop()
            if not f:
                continue
            if f & _BLACK:
                blocked -= 1
                continue
            if blocked:
                continue
            if f & _CAND:
                slot, at_open, link, first, seq = cands.pop()
                key = (total - at_open - 2 * link, slot, -seq)
                if best is None or key > best[0]:
                    best = (key, first, len(events), slot)
            if f & _LINK:
                a_slots.pop()
            if f & _BLOCK:
                events.append(None)

    first, end, slot = best[1:] if best else (0, len(events), 0)
    lines: List[Tuple[str, int]] = []
    buf: List[str] = []
    link_chars = 0
    for idx in range(first, end + 1):
        text = events[idx] if idx < end else None
        if text is not None:
            buf.append(text)
            if link_at.get(idx, 0) > slot:
                link_chars += _collapsed_len(text)
        elif buf:
            line = _WS_RE.sub(" ", "".join(buf)).strip()
            if line:
                lines.append((line, link_chars))
            buf = []
            link_chars = 0
    return lines


_HTML_SNIFF_RE = re.compile(
    r"^\s*(?:<!doctype\s+html|<html[\s>]|<head[\s>]|<body[\s>]|<article[\s>]|<div[\s>]|<main[\s>])",
    re.IGNORECASE,
)


def looks_like_html(text: str) -> bool:
    return bool(_HTML_SNIFF_RE.match(text))
