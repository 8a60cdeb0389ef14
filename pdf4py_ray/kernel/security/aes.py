"""AES-128/192/256 + CBC mode, from the public FIPS-197 specification.

The S-box and round constants are *derived algorithmically* at import
time (GF(2^8) inverse + affine transform) rather than written as
literals. Both directions are implemented: decrypt is needed for
encrypted-PDF parsing (reference analogue ``pdf4py/_security/aes.py``),
encrypt additionally powers the fixture generator.

Decryption uses the *equivalent inverse cipher* (FIPS-197 §5.3.5): its
rounds run InvSubBytes, InvShiftRows and InvMixColumns in the same
order as the cipher's forward rounds, with InvMixColumns applied to
the middle round keys once per key schedule. Over a column held as a
big-endian 32-bit word, one such round is four lookups in 32-bit
tables ``_TD0``..``_TD3`` and an XOR per column. ``_TD0[x]`` is the
column ``(14, 9, 13, 11) · InvSBox[x]`` and each next table is the
previous one rotated right by a byte; they are derived at import from
``INV_SBOX`` and the ``_MUL`` multiplication tables, so no literal
table is added. ``cbc_decrypt`` unpacks the whole ciphertext into
words, builds the decryption schedule once and runs every block in
one loop. The encrypt side (fixtures only) keeps the plain byte-wise
rounds.

Padding semantics match the reference: PKCS#7-style pad on encrypt;
on decrypt the last byte is taken as the pad length and stripped
without validation (``aes.py:228-230``).
"""

from __future__ import annotations

import struct


def _xtime(b: int) -> int:
    b <<= 1
    return (b ^ 0x1B) & 0xFF if b & 0x100 else b


def _gmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a = _xtime(a)
        b >>= 1
    return r


def _build_tables():
    # exp/log tables over GF(2^8) with generator 0x03
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= _xtime(x)  # multiply by 0x03
    exp[255] = exp[0]  # g^255 == 1, needed for inv(1)

    def inv(b: int) -> int:
        return 0 if b == 0 else exp[255 - log[b]]

    def affine(b: int) -> int:
        s = b
        for shift in (1, 2, 3, 4):
            s ^= ((b << shift) | (b >> (8 - shift))) & 0xFF
        return s ^ 0x63

    sbox = [affine(inv(b)) for b in range(256)]
    inv_sbox = [0] * 256
    for i, v in enumerate(sbox):
        inv_sbox[v] = i
    rcon = [0] * 32
    v = 1
    for i in range(1, 32):
        rcon[i] = v
        v = _xtime(v)
    return bytes(sbox), bytes(inv_sbox), rcon


SBOX, INV_SBOX, RCON = _build_tables()

# precomputed GF(2^8) multiplication tables for the MixColumns
# coefficients — turns the per-byte _gmul loop (the kernel's hottest
# path when decrypting AES PDFs) into byte-table lookups
_MUL = {c: bytes(_gmul(x, c) for x in range(256)) for c in (2, 3, 9, 11, 13, 14)}

_BLOCK = 16


def _key_words(key: bytes) -> list:
    """FIPS-197 key expansion (§5.2) → the schedule as 32-bit
    big-endian words, four per round key."""
    nk = len(key) // 4
    if nk not in (4, 6, 8):
        raise ValueError("AES key must be 16, 24 or 32 bytes.")
    S = SBOX
    w = list(struct.unpack(f">{nk}I", key[: 4 * nk]))  # a 17-byte key passes the check: 16 used
    for i in range(nk, 4 * (nk + 7)):
        t = w[-1]
        if i % nk == 0:  # SubWord(RotWord(t)) xor Rcon
            t = ((S[(t >> 16) & 0xFF] << 24) | (S[(t >> 8) & 0xFF] << 16)
                 | (S[t & 0xFF] << 8) | S[t >> 24]) ^ (RCON[i // nk] << 24)
        elif nk > 6 and i % nk == 4:  # SubWord(t)
            t = ((S[t >> 24] << 24) | (S[(t >> 16) & 0xFF] << 16)
                 | (S[(t >> 8) & 0xFF] << 8) | S[t & 0xFF])
        w.append(w[i - nk] ^ t)
    return w


def expand_key(key: bytes) -> list:
    """FIPS-197 key schedule → list of round-key 16-byte blocks."""
    w = _key_words(key)
    return [struct.pack(">4I", *w[i : i + 4]) for i in range(0, len(w), 4)]


def _shift_rows(s: list) -> list:
    # state is column-major: byte (row r, col c) at index 4*c + r
    return [s[4 * ((c + r) % 4) + r] for c in range(4) for r in range(4)]


def _mix_columns(s: list) -> list:
    m2, m3 = _MUL[2], _MUL[3]
    out = [0] * 16
    for c in range(0, 16, 4):
        a, b, d, e = s[c], s[c + 1], s[c + 2], s[c + 3]
        out[c] = m2[a] ^ m3[b] ^ d ^ e
        out[c + 1] = a ^ m2[b] ^ m3[d] ^ e
        out[c + 2] = a ^ b ^ m2[d] ^ m3[e]
        out[c + 3] = m3[a] ^ b ^ d ^ m2[e]
    return out


def encrypt_block(block: bytes, round_keys: list) -> bytes:
    nr = len(round_keys) - 1
    s = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, nr):
        s = [SBOX[b] for b in s]
        s = _shift_rows(s)
        s = _mix_columns(s)
        s = [b ^ k for b, k in zip(s, round_keys[rnd])]
    s = [SBOX[b] for b in s]
    s = _shift_rows(s)
    return bytes(b ^ k for b, k in zip(s, round_keys[nr]))


def _td_tables() -> tuple:
    m14, m9, m13, m11 = _MUL[14], _MUL[9], _MUL[13], _MUL[11]
    t0 = [(m14[v] << 24) | (m9[v] << 16) | (m13[v] << 8) | m11[v] for v in INV_SBOX]
    tables = [t0]
    for _ in range(3):
        tables.append([(w >> 8) | ((w & 0xFF) << 24) for w in tables[-1]])
    return tuple(tables)


_TD0, _TD1, _TD2, _TD3 = _td_tables()
# InvSBox values pre-shifted into each byte lane of a column word
_ISB24, _ISB16, _ISB8 = ([v << shift for v in INV_SBOX] for shift in (24, 16, 8))


def _decryption_schedule(words: list) -> list:
    """Round keys of the equivalent inverse cipher as 4-word tuples in
    the order decryption uses them (FIPS-197 §5.3.5), from the key
    schedule's words. The middle round keys go through InvMixColumns:
    the S-box lookup cancels the InvSBox folded into the ``_TD``
    tables."""
    T0, T1, T2, T3, S = _TD0, _TD1, _TD2, _TD3, SBOX
    middle = [T0[S[w >> 24]] ^ T1[S[(w >> 16) & 0xFF]] ^ T2[S[(w >> 8) & 0xFF]] ^ T3[S[w & 0xFF]]
              for w in words[4:-4]]
    rks = [tuple(words[-4:])]
    rks += [tuple(middle[i : i + 4]) for i in range(len(middle) - 4, -1, -4)]
    rks.append(tuple(words[:4]))
    return rks


def _cbc_decrypt_words(data: bytes, schedule: list, iv: bytes) -> bytes:
    """CBC-decrypt a whole block multiple ``data`` (no unpadding)."""
    n = len(data) // 4
    words = struct.unpack(f">{n}I", data)
    out = [0] * n
    (k0, k1, k2, k3), middle, (l0, l1, l2, l3) = schedule[0], schedule[1:-1], schedule[-1]
    p0, p1, p2, p3 = struct.unpack(">4I", iv)
    T0, T1, T2, T3 = _TD0, _TD1, _TD2, _TD3
    S24, S16, S8, S0 = _ISB24, _ISB16, _ISB8, INV_SBOX
    for i in range(0, n, 4):
        c0, c1, c2, c3 = words[i : i + 4]
        s0, s1, s2, s3 = c0 ^ k0, c1 ^ k1, c2 ^ k2, c3 ^ k3
        for r0, r1, r2, r3 in middle:
            s0, s1, s2, s3 = (
                T0[s0 >> 24] ^ T1[(s3 >> 16) & 0xFF] ^ T2[(s2 >> 8) & 0xFF] ^ T3[s1 & 0xFF] ^ r0,
                T0[s1 >> 24] ^ T1[(s0 >> 16) & 0xFF] ^ T2[(s3 >> 8) & 0xFF] ^ T3[s2 & 0xFF] ^ r1,
                T0[s2 >> 24] ^ T1[(s1 >> 16) & 0xFF] ^ T2[(s0 >> 8) & 0xFF] ^ T3[s3 & 0xFF] ^ r2,
                T0[s3 >> 24] ^ T1[(s2 >> 16) & 0xFF] ^ T2[(s1 >> 8) & 0xFF] ^ T3[s0 & 0xFF] ^ r3,
            )
        out[i] = (S24[s0 >> 24] | S16[(s3 >> 16) & 0xFF] | S8[(s2 >> 8) & 0xFF]
                  | S0[s1 & 0xFF]) ^ l0 ^ p0
        out[i + 1] = (S24[s1 >> 24] | S16[(s0 >> 16) & 0xFF] | S8[(s3 >> 8) & 0xFF]
                      | S0[s2 & 0xFF]) ^ l1 ^ p1
        out[i + 2] = (S24[s2 >> 24] | S16[(s1 >> 16) & 0xFF] | S8[(s0 >> 8) & 0xFF]
                      | S0[s3 & 0xFF]) ^ l2 ^ p2
        out[i + 3] = (S24[s3 >> 24] | S16[(s2 >> 16) & 0xFF] | S8[(s1 >> 8) & 0xFF]
                      | S0[s0 & 0xFF]) ^ l3 ^ p3
        p0, p1, p2, p3 = c0, c1, c2, c3
    return struct.pack(f">{n}I", *out)


def decrypt_block(block: bytes, round_keys: list) -> bytes:
    words = [w for rk in round_keys for w in struct.unpack(">4I", rk)]
    return _cbc_decrypt_words(block, _decryption_schedule(words), bytes(_BLOCK))


def cbc_encrypt(data: bytes, key: bytes, iv: bytes, padding: bool = True) -> bytes:
    rem = len(data) % _BLOCK
    if padding:
        pad = _BLOCK - rem
        data = data + bytes([pad]) * pad
    elif rem:
        raise ValueError("cbc_encrypt: length not a block multiple with padding off.")
    rks = expand_key(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), _BLOCK):
        block = bytes(a ^ b for a, b in zip(data[i : i + _BLOCK], prev))
        prev = encrypt_block(block, rks)
        out.extend(prev)
    return bytes(out)


def cbc_decrypt(data: bytes, key: bytes, iv: bytes, padding: bool = True) -> bytes:
    if len(data) % _BLOCK:
        raise ValueError("cbc_decrypt: ciphertext length not a block multiple.")
    schedule = _decryption_schedule(_key_words(key))
    if not data:
        return b""
    out = _cbc_decrypt_words(data, schedule, iv)
    if padding:
        pad = out[-1]
        # parity with the reference: strip without validation; a pad
        # byte of 0 strips everything (slice semantics, ``aes.py:230``)
        return out[:-pad] if pad else b""
    return out
