"""RC4 stream cipher (public textbook algorithm, RFC-described KSA/PRGA).

Used by the PDF standard security handler for V≤4 / CFM=V2 documents
(reference analogue: ``pdf4py/_security/rc4.py``). The key schedule
walks ``zip(range(256), key * k)``, and the keystream XORs into a
``bytearray`` copy of the data with the state's entries bound to
locals: revision ≥ 3 password checks run 20 key schedules per
document (ISO 32000 Algorithm 6), so both loops are hot.
"""

from __future__ import annotations


def rc4(data: bytes, key: bytes) -> bytes:
    """Encrypt/decrypt ``data`` with RC4 under ``key`` (symmetric)."""
    if not key:  # the textbook loop's ``key[i % len(key)]`` error, kept
        raise ZeroDivisionError("integer modulo by zero")
    # key-scheduling
    S = list(range(256))
    j = 0
    for i, k in zip(range(256), key * (256 // len(key) + 1)):
        si = S[i]
        j = (j + si + k) & 0xFF
        S[i] = S[j]
        S[j] = si
    # keystream generation + xor
    out = bytearray(data)
    i = j = 0
    for n in range(len(out)):
        i = (i + 1) & 0xFF
        si = S[i]
        j = (j + si) & 0xFF
        sj = S[j]
        S[i] = sj
        S[j] = si
        out[n] ^= S[(si + sj) & 0xFF]
    return bytes(out)
