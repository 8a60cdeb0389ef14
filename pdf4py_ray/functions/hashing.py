"""Deterministic hashing utilities.

Python's builtin ``hash`` is process-salted and must never be used in
distributed kernels — every helper here is a pure function of its
input, stable across workers, nodes and runs.
"""

from __future__ import annotations

from hashlib import blake2b, md5

import numpy as np

try:  # CPython's own MD5 costs about half of OpenSSL's per short key
    from _md5 import md5 as _md5
except ImportError:  # pragma: no cover - interpreters built without it
    _md5 = md5

_MERSENNE_61 = (1 << 61) - 1
_FIB64 = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


def stable_hash64(data) -> int:
    """64-bit stable content hash (blake2b-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


def bucket_of(keys, num_buckets: int) -> np.ndarray:
    """int64 bucket in ``[0, num_buckets)`` of each integer key: the
    Fibonacci multiply ``key · 0x9E3779B97F4A7C15 mod 2^64`` (keys as
    uint64, wrapping), then ``mod num_buckets``. Every keyed shuffle
    (joins, per-user windows, component labels) co-locates with it."""
    with np.errstate(over="ignore"):
        return ((np.asarray(keys).astype(np.uint64) * _FIB64)
                % np.uint64(num_buckets)).astype(np.int64)


def md5_lower64(s) -> int:
    """Lower 64 bits of MD5 exactly as DuckDB's ``md5_number_lower``
    computes them (digest bytes 8..16, little-endian). Used as the
    word hash wherever a SQL oracle must recompute hashes in DuckDB;
    kernels with no oracle requirement keep the faster blake2b
    :func:`stable_hash64`."""
    if isinstance(s, str):
        s = s.encode("utf-8", "surrogatepass")
    return int.from_bytes(md5(s).digest()[8:16], "little")


def md5_lower64_array(strings) -> np.ndarray:
    """:func:`md5_lower64` of each string, as one uint64 array: one
    digest per string, the joined digests viewed as little-endian
    words, of which every second one is bytes 8..16."""
    digests = b"".join([_md5(s.encode("utf-8", "surrogatepass")).digest() for s in strings])
    return np.frombuffer(digests, dtype="<u8")[1::2].astype(np.uint64)


_POLY_P = np.uint64(0x100000001B3)  # FNV-1a 64-bit prime (odd → invertible mod 2^64)


def stable_hash64_column(values) -> np.ndarray:
    """Vector of stable 64-bit hashes for an iterable of strings —
    TRULY vectorized: the strings are flattened into one Arrow UTF-8
    buffer and hashed with numpy kernels over the flat byte array
    (per-byte term ``(byte+1) · p^(len-1-j) mod 2^64`` — natural
    uint64 wraparound, ONE multiply per pass — XOR-combined per string
    via ``bitwise_xor.reduceat``, then a splitmix64 finalizer per
    row), so the cost is O(total bytes) of C-speed work with no
    per-row Python digest.

    Values are deterministic across workers, nodes and runs (pure
    function of the bytes) but intentionally NOT equal to
    :func:`stable_hash64` — callers key on one or the other, never
    both. Position-from-end salting makes the hash order-dependent
    (p is odd, so ``(byte+1)·p^e`` is injective per position); the
    finalizer folds in the length so prefixes don't collide. Nulls /
    None hash as the empty string. ~10× the old blake2b-per-row loop
    on short-word columns (micro-benched in BASELINE.md)."""
    import pyarrow as pa

    n = len(values)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    arr = pa.array(values, type=pa.large_string(), from_pandas=True)
    if arr.null_count:
        arr = arr.fill_null("")
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64,
                         count=n + 1 + arr.offset)[arr.offset:]
    data_buf = arr.buffers()[2]
    data = (np.frombuffer(data_buf, dtype=np.uint8)
            if data_buf is not None else np.empty(0, dtype=np.uint8))
    return _hash64_bytes(data, offs)


def _hash64_bytes(data: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """The kernel of :func:`stable_hash64_column`: one hash per byte
    string ``data[offs[i]:offs[i+1]]`` of a uint8 buffer (Arrow
    large-binary layout, int64 offsets)."""
    base = offs[0]
    starts = offs[:-1] - base
    ends = offs[1:] - base
    lens = ends - starts
    flat = data[base:offs[-1]]
    total = len(flat)

    with np.errstate(over="ignore"):
        max_len = int(lens.max()) if total else 1
        pows = np.empty(max_len, dtype=np.uint64)  # p^0 .. p^{L-1} mod 2^64
        pows[0] = 1
        if max_len > 1:
            np.cumprod(np.full(max_len - 1, _POLY_P, dtype=np.uint64),
                       out=pows[1:])
        # exponent of each byte = its distance from its string's end
        exp = np.repeat(ends - 1, lens)
        np.subtract(exp, np.arange(total, dtype=np.int64), out=exp)
        terms = pows[exp] * (flat.astype(np.uint64) + np.uint64(1))
        if len(starts) and starts[-1] == total:
            # pad one zero so a start index == total (trailing empty
            # strings) is valid for reduceat; XOR with the pad is a no-op
            terms = np.append(terms, np.uint64(0))
        h = np.bitwise_xor.reduceat(terms, starts)
        # reduceat returns terms[start] for an EMPTY segment — overwrite
        h[lens == 0] = np.uint64(0)
        # splitmix64 finalizer (length folded in against prefix collisions)
        z = h + lens.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR bit-slicing) — the
    per-element ``bin(int(v)).count('1')`` it replaces is ~100× slower
    on large candidate arrays. Returns int64 counts."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = ((x & np.uint64(0x3333333333333333))
             + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333)))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


_M61 = np.uint64(_MERSENNE_61)


def mulmod61(a: np.ndarray, b) -> np.ndarray:
    """Vectorized ``a * b mod 2^61-1`` for uint64 inputs < 2^61.

    31-bit limb decomposition keeps every partial product inside
    uint64; the Mersenne identity ``2^61 ≡ 1`` folds the high limbs
    back without 128-bit arithmetic — bit-exact with Python's
    arbitrary-precision ``(a * b) % M`` (property-tested)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo_mask = np.uint64((1 << 31) - 1)
    a_hi, a_lo = a >> np.uint64(31), a & lo_mask
    b_hi, b_lo = b >> np.uint64(31), b & lo_mask
    p0 = a_lo * b_lo                       # < 2^62
    p1 = a_lo * b_hi + a_hi * b_lo         # < 2^62
    p2 = a_hi * b_hi                       # < 2^60
    # p1·2^31 = q·2^61 + r·2^31 ≡ q + r·2^31  (q = p1>>30, r = p1&(2^30-1))
    t1 = (p1 >> np.uint64(30)) + ((p1 & np.uint64((1 << 30) - 1)) << np.uint64(31))
    total = p0 + t1 + (p2 << np.uint64(1))  # < 2^64, no overflow
    total = (total >> np.uint64(61)) + (total & _M61)
    total = (total >> np.uint64(61)) + (total & _M61)
    return np.where(total >= _M61, total - _M61, total)


_FP_WORDS = 5  # words per fingerprint window


def rolling_min_fingerprint(hs_flat: np.ndarray, offsets: np.ndarray,
                            base: int) -> np.ndarray:
    """Per-document min rolling polynomial hash, fully vectorized over
    a CONCATENATED word-hash array.

    ``hs_flat`` holds every document's word hashes (mod 2^61-1) back to
    back; ``offsets`` (len = n_docs+1) delimits documents. For each
    document with ≥ ``k`` = 5 words the result is
    ``min_i sum_j hs[i+j]·base^(k-1-j) mod M`` — identical to the
    scalar loop in :class:`~..stages.textstats.TextStats` and to the
    DuckDB HUGEINT oracle. Documents with < ``k`` words get the
    sentinel ``M`` (caller falls back / zero-fills); windows crossing
    document boundaries are masked out. One pass of ``k`` shifted
    :func:`mulmod61` multiplies + one ``minimum.reduceat`` — no Python
    per-row loop."""
    M, k = _MERSENNE_61, _FP_WORDS
    n = len(hs_flat)
    n_docs = len(offsets) - 1
    out = np.full(n_docs, M, dtype=np.uint64)
    if n < k:
        return out
    powers = [pow(base, k - 1 - j, M) for j in range(k)]
    nw = n - k + 1
    acc = np.zeros(nw, dtype=np.uint64)
    for j in range(k):
        acc += mulmod61(hs_flat[j:j + nw], powers[j])  # sum < 5·2^61 < 2^64
    acc = (acc >> np.uint64(61)) + (acc & _M61)
    acc = np.where(acc >= _M61, acc - _M61, acc)
    lens = np.diff(offsets)
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    valid = doc_of[:nw] == doc_of[k - 1:k - 1 + nw]
    acc = np.where(valid, acc, np.uint64(M))
    ge = np.flatnonzero(lens >= k)
    if len(ge):
        starts = offsets[ge].astype(np.int64)
        out[ge] = np.minimum.reduceat(acc, starts)
    return out


def minhash_params(num_perm: int):
    """(a, b) coefficient vectors for the multiply-add hash family
    (seed 42)."""
    rng = np.random.RandomState(42)
    a = rng.randint(1, 1 << 62, size=num_perm, dtype=np.uint64) | np.uint64(1)  # odd
    b = rng.randint(0, 1 << 62, size=num_perm, dtype=np.uint64)
    return a, b


# shingle columns per vectorized multiply-add: a (num_perm, chunk)
# uint64 block of 4 MB at 64 permutations
MINHASH_CHUNK = 1 << 13


def minhash_signatures(hashes: np.ndarray, offsets: np.ndarray, a: np.ndarray,
                       b: np.ndarray, chunk: int = MINHASH_CHUNK) -> np.ndarray:
    """``(docs, num_perm)`` MinHash signatures of a batch of documents.

    Document ``i``'s shingle hashes are ``hashes[offsets[i]:offsets[i+1]]``
    (a repeated hash changes nothing). ``h_j(x) = a_j * x + b_j (mod
    2^64)`` with odd ``a_j``, minimised over each document's shingles.
    The hashes go through ``chunk`` at a time as one (num_perm × chunk)
    multiply-add, minimised per document with ``np.minimum.reduceat``;
    a document that straddles two chunks takes the minimum of both
    parts. A document without shingles keeps the all-max row."""
    hashes = np.asarray(hashes, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    sigs = np.full((len(offsets) - 1, len(a)), np.iinfo(np.uint64).max, dtype=np.uint64)
    docs = np.flatnonzero(offsets[1:] > offsets[:-1])
    starts, ends = offsets[docs], offsets[docs + 1]
    vals = np.empty((len(a), min(chunk, len(hashes))), dtype=np.uint64)
    for lo in range(0, len(hashes), chunk):
        hi = min(lo + chunk, len(hashes))
        first = np.searchsorted(ends, lo, side="right")  # docs ending after lo
        last = np.searchsorted(starts, hi)  # ... and starting before hi
        block = vals[:, : hi - lo]
        with np.errstate(over="ignore"):
            np.multiply(a[:, None], hashes[None, lo:hi], out=block)
        block += b[:, None]
        cut = np.maximum(starts[first:last], lo) - lo
        rows = docs[first:last]
        sigs[rows] = np.minimum(sigs[rows], np.minimum.reduceat(block, cut, axis=1).T)
    return sigs


def band_hash_matrix(sigs: np.ndarray, num_bands: int) -> np.ndarray:
    """``(docs, num_bands)`` int64 LSH band digests of a signature
    matrix: the 63-bit blake2b digest of each band's row bytes."""
    sigs = np.ascontiguousarray(sigs, dtype=np.uint64)
    step = sigs.shape[1] // num_bands * 8
    raw = memoryview(sigs.tobytes())
    digests = b"".join([blake2b(raw[i : i + step], digest_size=8).digest()
                        for i in range(0, len(raw), step)])
    return (np.frombuffer(digests, dtype=">u8") >> 1).astype(np.int64).reshape(
        len(sigs), num_bands)
