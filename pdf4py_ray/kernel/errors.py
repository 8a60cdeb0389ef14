"""Kernel exception hierarchy.

Mirrors the error taxonomy of the reference library
(``/root/reference/pdf4py/exceptions.py:1-27``) so that per-row error
statuses surfaced by the Ray stages carry comparable categories, while
remaining an independent implementation.
"""


class PdfError(Exception):
    """Base class for all kernel errors."""


class PdfLexError(PdfError):
    """A lexical error in the input byte stream (unknown byte sequence)."""


class PdfSyntaxError(PdfError):
    """The token stream does not form a valid PDF object structure."""


class PdfUnsupportedError(PdfError):
    """A PDF feature the kernel does not implement (e.g. external file streams)."""


class PdfWrongPasswordError(PdfError):
    """Neither the user nor the owner password authenticated."""


class PdfDataError(PdfError):
    """Malformed payload data inside an otherwise well-formed structure."""
