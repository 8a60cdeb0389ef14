"""PDF standard security handler (ISO 32000 §7.6).

Key derivation, password authentication and per-object decryption for
encryption versions V∈{0,1,2,4,5} — RC4 family, AESV2 and AESV3.

Behavioral parity with the reference
(``pdf4py/_security/securityhandler.py:36-302``) including its quirks,
which the equality gate turns into spec:

- V=3 is rejected as unsupported;
- ``decrypt_stream`` dispatches through crypt filters only when
  ``V == 4`` exactly (so V=5 streams take the RC4-extended-key path);
- the crypt-filter short-circuit inspects a ``Filters`` key (sic, the
  spec key is ``Filter``) on the stream dictionary;
- encrypted strings are decrypted over their *stored* bytes (for hex
  strings: the ASCII hex digits).
"""

from __future__ import annotations

import stringprep
import unicodedata
from binascii import unhexlify
from hashlib import md5, sha256

from ..errors import PdfDataError, PdfSyntaxError, PdfUnsupportedError, PdfWrongPasswordError
from ..model import HexString, LiteralString
from .aes import cbc_decrypt
from .rc4 import rc4

# ISO 32000-1, Algorithm 2 padding string (public spec constant)
PASSWORD_PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
        0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
        0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


def saslprep(text: str) -> str:
    """RFC 4013 SASLprep (sans bidi checks, like the reference)."""
    out = []
    for ch in text:
        if stringprep.in_table_c12(ch):
            out.append(" ")
        elif stringprep.in_table_b1(ch):
            continue
        elif (
            stringprep.in_table_c21_c22(ch)
            or stringprep.in_table_c3(ch)
            or stringprep.in_table_c4(ch)
            or stringprep.in_table_c5(ch)
            or stringprep.in_table_c6(ch)
            or stringprep.in_table_c7(ch)
            or stringprep.in_table_c8(ch)
            or stringprep.in_table_c9(ch)
        ):
            raise PdfDataError("Invalid input character in password.")
        else:
            out.append(ch)
    return unicodedata.normalize("NFKC", "".join(out))


def _string_bytes(v) -> bytes:
    """Literal strings carry raw bytes; hex strings carry hex digits."""
    return v.value if isinstance(v, LiteralString) else unhexlify(v.value)


def derive_key_rc4(password: bytes, enc: dict, id_array: list) -> bytes:
    """ISO 32000 Algorithm 2 (V≤4 file key)."""
    R = enc["R"]
    if enc.get("V", 0) == 3:
        raise PdfUnsupportedError("Encryption V=3 uses an unpublished algorithm.")
    O = _string_bytes(enc["O"])
    length = enc.get("Length", 40)
    if length % 8:
        raise PdfDataError("Invalid encryption key length.")
    length //= 8
    h = md5()
    h.update((password + PASSWORD_PAD)[:32])
    h.update(O)
    h.update(enc["P"].to_bytes(4, "little", signed=True))
    h.update(id_array[0])
    if R >= 4 and not enc.get("EncryptMetadata", True):
        h.update(b"\xff\xff\xff\xff")
    digest = h.digest()
    if R >= 3:
        for _ in range(50):
            digest = md5(digest[:length]).digest()
    return digest[:length]


def authenticate_user_password(password: bytes, enc: dict, id_array: list):
    """ISO 32000 Algorithm 6; returns the file key or None."""
    R = enc["R"]
    U = _string_bytes(enc["U"])
    key = derive_key_rc4(password, enc, id_array)
    if R == 2:
        probe = rc4(PASSWORD_PAD, key)
    else:
        probe = rc4(md5(PASSWORD_PAD + id_array[0]).digest(), key)
        for counter in range(1, 20):
            probe = rc4(probe, bytes(b ^ counter for b in key))
    ok = (U[:16] == probe[:16]) if R >= 3 else (U == probe)
    return key if ok else None


def authenticate_owner_password(password: bytes, enc: dict, id_array: list):
    """ISO 32000 Algorithm 7: recover the user password from O."""
    R = enc["R"]
    O = _string_bytes(enc["O"])
    length = enc.get("Length", 40)
    if length % 8:
        raise PdfDataError("Invalid encryption key length.")
    length //= 8
    digest = md5((password + PASSWORD_PAD)[:32]).digest()
    if R >= 3:
        for _ in range(50):
            digest = md5(digest).digest()
    key = digest[:length]
    if R == 2:
        recovered = rc4(O, key)
    else:
        recovered = O
        for i in range(19, -1, -1):
            recovered = rc4(recovered, bytes(b ^ i for b in key))
    return authenticate_user_password(recovered, enc, id_array)


def derive_key_aesv3(password: str, enc: dict) -> bytes:
    """ISO 32000-2 Algorithm 2.A (V=5 / AES-256 file key)."""
    U = _string_bytes(enc["U"])
    O = _string_bytes(enc["O"])
    pw = saslprep(password).encode("utf-8")[:127]
    if sha256(pw + O[32:40] + U).digest() == O[:32]:
        inter = sha256(pw + O[-8:] + U).digest()
        OE = _string_bytes(enc["OE"])
        return cbc_decrypt(OE, inter, b"\x00" * 16, padding=False)
    if sha256(pw + U[32:40]).digest() == U[:32]:
        inter = sha256(pw + U[-8:]).digest()
        UE = _string_bytes(enc["UE"])
        return cbc_decrypt(UE, inter, b"\x00" * 16, padding=False)
    raise PdfWrongPasswordError()


def decrypt_object_data(key: bytes, data: bytes, obj_id: tuple, algo: str = "rc4") -> bytes:
    """ISO 32000 Algorithm 1: object-number-salted key, then RC4/AES-CBC."""
    n = len(key)
    ext = key + obj_id[0].to_bytes(4, "little")[:3] + obj_id[1].to_bytes(4, "little")[:2]
    if algo == "AES":
        ext += b"\x73\x41\x6c\x54"  # 'sAlT'
    obj_key = md5(ext).digest()[: min(n + 5, 16)]
    if algo == "AES":
        return cbc_decrypt(data[16:], obj_key, data[:16])
    return rc4(data, obj_key)


class StandardSecurityHandler:
    """Per-document decryption state (derive once, apply per object).

    In the Ray pipeline this object lives inside the extraction worker's
    per-document cache so the 50-round MD5 / SHA-256 derivation cost is
    paid once per document, not per string.
    """

    def __init__(self, password, enc: dict, id_array) -> None:
        self.enc = enc
        self.V = enc["V"]
        if self.V not in range(6):
            raise PdfDataError(f"Illegal 'V' value in Encrypt dictionary: {self.V}")
        if self.V == 5:
            password = "" if password is None else password
            if not isinstance(password, str):
                raise PdfDataError("AESV3 passwords must be str.")
            self.key = derive_key_aesv3(password, enc)
        else:
            password = b"" if password is None else password
            ids = [
                unhexlify(x.value) if isinstance(x, HexString) else x.value
                for x in id_array
            ]
            self.key = authenticate_user_password(password, enc, ids)
            if self.key is None:
                self.key = authenticate_owner_password(password, enc, ids)
                if self.key is None:
                    raise PdfWrongPasswordError()

    # -- crypt-filter dispatch (V≥4) ---------------------------------------

    def _apply_crypt_filter(self, name: str, data: bytes, obj_id: tuple) -> bytes:
        if name == "Identity":
            return data
        CF = self.enc.get("CF")
        if CF is None:
            raise PdfSyntaxError("No 'CF' entry in 'Encrypt' dictionary (but V >= 4).")
        cfm = CF[name].get("CFM", "None")
        if cfm == "V2":
            return decrypt_object_data(self.key, data, obj_id)
        if cfm == "AESV2":
            return decrypt_object_data(self.key, data, obj_id, "AES")
        if cfm == "AESV3":
            return cbc_decrypt(data[16:], self.key, data[:16])
        raise PdfUnsupportedError(f"Crypt filter CFM={cfm!r} is not supported.")

    def decrypt_string(self, data: bytes, obj_id: tuple) -> bytes:
        if self.V >= 4:
            strf = self.enc.get("StrF")
            if strf is None:
                raise PdfSyntaxError("No 'StrF' entry found in 'Encrypt' dictionary (but V >= 4).")
            return self._apply_crypt_filter(strf, data, obj_id)
        return decrypt_object_data(self.key, data, obj_id)

    def decrypt_stream(self, data: bytes, stream_dict: dict, obj_id: tuple) -> bytes:
        # parity: crypt-filter dispatch happens for V == 4 exactly, and
        # the explicit-Crypt-filter probe reads a 'Filters' key (sic) —
        # ``securityhandler.py:270-299``
        if self.V == 4:
            filters = stream_dict.get("Filters")
            if isinstance(filters, list):
                filters = filters[-1]
            if filters is None or filters != "Crypt":
                stmf = self.enc.get("StmF")
                if stmf is None:
                    raise PdfSyntaxError("No 'StmF' entry found in 'Encrypt' dictionary (but V = 4).")
            else:
                stmf = stream_dict.get("DecodeParams", {}).get("Name", "Identity")
            return self._apply_crypt_filter(stmf, data, obj_id)
        return decrypt_object_data(self.key, data, obj_id)
