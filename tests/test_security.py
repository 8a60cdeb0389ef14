"""Crypto tests: RC4 known vectors, AES NIST FIPS-197 vectors, CBC
round-trips, SASLprep cases, and end-to-end encrypted-document
parsing — the analogue of the reference's
``tests/aes_unit_tests.py`` + ``tests/decrypt_unit_tests.py``."""

import os
import subprocess
import sys
from binascii import unhexlify

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf4py_ray.kernel import pdfgen
from pdf4py_ray.kernel.document import PdfDocument
from pdf4py_ray.kernel.errors import PdfWrongPasswordError
from pdf4py_ray.kernel.model import LiteralString, Ref
from pdf4py_ray.kernel.security.aes import (
    cbc_decrypt,
    cbc_encrypt,
    decrypt_block,
    encrypt_block,
    expand_key,
)
from pdf4py_ray.kernel.security.handler import saslprep
from pdf4py_ray.kernel.security.rc4 import rc4


# -- RC4 (public test vectors from the RC4 literature) ---------------------

def test_rc4_known_vectors():
    assert rc4(b"Plaintext", b"Key") == unhexlify("BBF316E8D940AF0AD3")
    assert rc4(b"pedia", b"Wiki") == unhexlify("1021BF0420")
    assert rc4(b"Attack at dawn", b"Secret") == unhexlify("45A01F645FC35B383552544B9BF5")


def test_rc4_symmetric():
    data = bytes(range(256))
    assert rc4(rc4(data, b"k3y"), b"k3y") == data


# -- AES (FIPS-197 appendix vectors) ---------------------------------------

def test_aes128_fips197():
    key = unhexlify("000102030405060708090a0b0c0d0e0f")
    pt = unhexlify("00112233445566778899aabbccddeeff")
    ct = unhexlify("69c4e0d86a7b0430d8cdb78070b4c55a")
    rks = expand_key(key)
    assert encrypt_block(pt, rks) == ct
    assert decrypt_block(ct, rks) == pt


def test_aes192_fips197():
    key = unhexlify("000102030405060708090a0b0c0d0e0f1011121314151617")
    pt = unhexlify("00112233445566778899aabbccddeeff")
    ct = unhexlify("dda97ca4864cdfe06eaf70a0ec0d7191")
    rks = expand_key(key)
    assert encrypt_block(pt, rks) == ct
    assert decrypt_block(ct, rks) == pt


def test_aes256_fips197():
    key = unhexlify("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
    pt = unhexlify("00112233445566778899aabbccddeeff")
    ct = unhexlify("8ea2b7ca516745bfeafc49904b496089")
    rks = expand_key(key)
    assert encrypt_block(pt, rks) == ct
    assert decrypt_block(ct, rks) == pt


def test_cbc_roundtrip_padding():
    key = b"0123456789abcdef"
    iv = b"\x07" * 16
    for n in (0, 1, 15, 16, 17, 100):
        data = bytes(range(n % 256))[:n] or b""
        enc = cbc_encrypt(data, key, iv)
        assert len(enc) % 16 == 0
        assert cbc_decrypt(enc, key, iv) == data


def test_cbc_no_padding():
    key = b"0123456789abcdef" * 2
    iv = b"\x00" * 16
    data = b"x" * 32
    assert cbc_decrypt(cbc_encrypt(data, key, iv, padding=False), key, iv, padding=False) == data


def test_rc4_empty_key_raises():
    with pytest.raises(ZeroDivisionError, match="integer modulo by zero"):
        rc4(b"data", b"")


# -- cross-checks: round trips, and OpenSSL where ``cryptography`` is installed

_AES_KEY = st.sampled_from((16, 24, 32)).flatmap(lambda n: st.binary(min_size=n, max_size=n))
_IV = st.binary(min_size=16, max_size=16)


@settings(max_examples=100, deadline=None)
@given(key=_AES_KEY, iv=_IV, blocks=st.integers(0, 64), tail=st.integers(0, 15),
       padding=st.booleans(), data=st.data())
def test_cbc_roundtrip_every_key_size(key, iv, blocks, tail, padding, data):
    n = 16 * blocks + (tail if padding else 0)
    plain = data.draw(st.binary(min_size=n, max_size=n))
    assert cbc_decrypt(cbc_encrypt(plain, key, iv, padding), key, iv, padding) == plain


@pytest.fixture(scope="module")
def openssl_ciphers():
    return pytest.importorskip("cryptography.hazmat.primitives.ciphers")


@settings(max_examples=100, deadline=None)
@given(key=_AES_KEY, iv=_IV,
       cipher_text=st.integers(0, 64).flatmap(lambda b: st.binary(min_size=16 * b, max_size=16 * b)))
def test_cbc_decrypt_matches_openssl(openssl_ciphers, key, iv, cipher_text):
    c = openssl_ciphers
    want = c.Cipher(c.algorithms.AES(key), c.modes.CBC(iv)).decryptor().update(cipher_text)
    assert cbc_decrypt(cipher_text, key, iv, padding=False) == want


# ``cryptography``'s ARC4 takes 40-, 56-, 64-, 80- and 128-bit keys up to 16 bytes
@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from((5, 7, 8, 10, 16)).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       data=st.binary(max_size=600))
def test_rc4_matches_openssl(openssl_ciphers, key, data):
    decrepit = pytest.importorskip("cryptography.hazmat.decrepit.ciphers.algorithms")
    want = openssl_ciphers.Cipher(decrepit.ARC4(key), mode=None).encryptor().update(data)
    assert rc4(data, key) == want


def test_kernel_does_not_import_cryptography():
    code = (
        "import pkgutil, sys, importlib, pdf4py_ray.kernel as k\n"
        "for m in pkgutil.walk_packages(k.__path__, 'pdf4py_ray.kernel.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(sorted(n for n in sys.modules if n.split('.')[0] == 'cryptography'))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


# -- SASLprep (reference decrypt_unit_tests.py:61-70 semantics) ------------

def test_saslprep_cases():
    assert saslprep("I­X") == "IX"      # soft hyphen removed
    assert saslprep("user") == "user"
    assert saslprep("USER") == "USER"
    assert saslprep("ª") == "a"          # feminine ordinal → a (NFKC)
    assert saslprep("Ⅸ") == "IX"         # roman numeral → IX
    with pytest.raises(Exception):
        saslprep("")                     # control char forbidden


# -- end-to-end encrypted documents ---------------------------------------

def _walk(doc):
    from pdf4py_ray.kernel.model import Stream

    for _e, obj in doc.iter_objects():
        if isinstance(obj, Stream):
            obj.data()


def test_rc4_encrypted_document_empty_user_password():
    raw = pdfgen.encrypted_pdf(user_pw=b"", owner_pw=b"owner", cfm="V2")
    doc = PdfDocument(raw)
    _walk(doc)
    assert b"(Secret text)" in doc.page_content(doc.pages()[0])
    title = doc.get_object(Ref(61, 0))["Title"]
    assert title == LiteralString(b"Encrypted title")


def test_rc4_encrypted_document_owner_password():
    raw = pdfgen.encrypted_pdf(user_pw=b"user-pw", owner_pw=b"owner", cfm="V2")
    # both the user and the owner password must authenticate
    for pw in (b"user-pw", b"owner"):
        doc = PdfDocument(raw, password=pw)
        assert b"(Secret text)" in doc.page_content(doc.pages()[0])


def test_aesv2_encrypted_document():
    raw = pdfgen.encrypted_pdf(user_pw=b"", owner_pw=b"o", cfm="AESV2")
    doc = PdfDocument(raw)
    _walk(doc)
    assert b"(Secret text)" in doc.page_content(doc.pages()[0])


def test_aesv3_encrypted_string():
    raw = pdfgen.encrypted_pdf_aesv3(password="")
    doc = PdfDocument(raw)
    payload = doc.deref(doc.catalog()["Data"])["Payload"]
    assert payload == LiteralString(b"AES-256 secret")


def test_aesv3_with_password():
    raw = pdfgen.encrypted_pdf_aesv3(password="p@ss")
    doc = PdfDocument(raw, password="p@ss")
    payload = doc.deref(doc.catalog()["Data"])["Payload"]
    assert payload == LiteralString(b"AES-256 secret")


def test_wrong_password_raises():
    raw = pdfgen.encrypted_pdf(user_pw=b"right", owner_pw=b"alsoright", cfm="V2")
    with pytest.raises(PdfWrongPasswordError):
        PdfDocument(raw, password=b"wrong")
    raw5 = pdfgen.encrypted_pdf_aesv3(password="right")
    with pytest.raises(PdfWrongPasswordError):
        PdfDocument(raw5, password="wrong")
