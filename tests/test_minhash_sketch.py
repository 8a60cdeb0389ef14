"""The batched MinHash sketch against a per-document reference."""

from hashlib import blake2b

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdf4py_ray.functions.hashing import (
    MINHASH_CHUNK,
    md5_lower64,
    minhash_params,
    minhash_signatures,
)
from pdf4py_ray.stages.dedup import (
    NUM_BANDS,
    NUM_PERM,
    SHINGLE_WORDS,
    MinHashSignatures,
    minhash_sketch,
)


def reference_sketch(text):
    """One document's (signature, band hashes), one shingle at a time."""
    a, b = minhash_params(NUM_PERM)
    words = (text or "").lower().split()
    if len(words) < SHINGLE_WORDS:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i:i + SHINGLE_WORDS])
                 for i in range(len(words) - SHINGLE_WORDS + 1)]
    x = np.fromiter((md5_lower64(g) for g in set(grams)), dtype=np.uint64)
    if len(x):
        with np.errstate(over="ignore"):
            sig = (a[:, None] * x[None, :] + b[:, None]).min(axis=1)
    else:
        sig = np.full(NUM_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    rows = NUM_PERM // NUM_BANDS
    bands = [int.from_bytes(blake2b(sig[i * rows:(i + 1) * rows].tobytes(),
                                    digest_size=8).digest(), "big") >> 1
             for i in range(NUM_BANDS)]
    return sig.astype(np.int64).tolist(), bands


def check_batch(texts):
    sigs, bands = minhash_sketch(texts, *minhash_params(NUM_PERM))
    got = list(zip(sigs.astype(np.int64).tolist(), bands.tolist()))
    assert got == [reference_sketch(t) for t in texts]


def test_sketch_stage_rows():
    # an Arrow string column holds no lone surrogates; minhash_sketch
    # (above) takes them as the scalar md5_lower64 does
    texts = ["one two three four", "", None, "déjà vu déjà vu", "one two three four"]
    batch = pa.table({"doc_id": pa.array([5, 3, 9, 1, 2], pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out = MinHashSignatures()(batch)
    assert out["doc_id"].to_pylist() == [5, 3, 9, 1, 2]
    got = list(zip(out["signature"].to_pylist(), out["band_hashes"].to_pylist()))
    assert got == [reference_sketch(t) for t in texts]


_WORD = st.sampled_from(["alpha", "Beta", "gamma", "ALPHA", "déjà", "日本", "\ud800", "x\udfff",
                         "a", "", "é́"])
_TEXT = st.one_of(
    st.none(),
    st.lists(_WORD, max_size=3).map(" ".join),  # empty and under 3 words
    st.lists(_WORD, max_size=40).map(" ".join),  # repeated shingles
    st.lists(_WORD, min_size=1, max_size=4).map(lambda w: "  ".join(w * 6)),
    st.text(max_size=60),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXT, max_size=12))
@example([])
@example(["", None, "one", "one two", "one two three", "\ud800 \ud800 \ud800 \ud800"])
def test_batched_sketch_equals_reference(texts):
    check_batch(texts)


def test_batch_crosses_the_shingle_chunk_boundary():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(400)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 900))) for _ in range(40)]
    texts[7] = ""  # an empty document between straddling ones
    n_shingles = sum(max(0, len(t.split()) - SHINGLE_WORDS + 1) for t in texts)
    assert n_shingles > 2 * MINHASH_CHUNK
    check_batch(texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, (1 << 64) - 1), max_size=9), max_size=8),
       st.integers(1, 20))
def test_chunked_minhash_equals_whole(docs, chunk):
    a, b = minhash_params(NUM_PERM)
    hashes = np.array([h for d in docs for h in d], dtype=np.uint64)
    offsets = np.cumsum([0] + [len(d) for d in docs])
    whole = minhash_signatures(hashes, offsets, a, b, chunk=max(1, len(hashes)))
    assert np.array_equal(minhash_signatures(hashes, offsets, a, b, chunk=chunk), whole)
    for row, d in zip(whole, docs):
        x = np.array(d, dtype=np.uint64)
        with np.errstate(over="ignore"):
            want = ((a[:, None] * x[None, :] + b[:, None]).min(axis=1) if len(d)
                    else np.full(NUM_PERM, np.iinfo(np.uint64).max, dtype=np.uint64))
        assert np.array_equal(row, want)
