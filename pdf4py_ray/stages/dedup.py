"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard, embedding-cosine near-dup.

Scale notes (the 100 TB design): per-batch vectorized sketches first,
then work over the *much smaller* sketch rows (never over raw text),
candidate pairs verified from the sketches themselves (no second pass
over the corpus). Below a bound worked out from memory, MinHash LSH
and verify run on the driver in numpy over the streamed sketch matrix,
with no exchange (:func:`minhash_dup_pairs`). Above it, every variant
follows the pre-aggregate / bucket-shuffle pattern: a ``groupby`` over
coarse buckets of sketch rows. Broadcast payloads are numeric numpy
arrays put in the object store once; each task reads them as a
zero-copy view, never re-shipped per batch. The embedding variant is
exact all-pairs by triangle block partitioning.
"""

from __future__ import annotations

import contextlib
from hashlib import blake2b

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.broadcast import sorted_lookup, task_stage
from ..functions.hashing import (
    band_hash_matrix,
    bucket_of,
    md5_lower64,
    md5_lower64_array,
    minhash_params,
    minhash_signatures,
    stable_hash64,
)

# ---------------------------------------------------------------- exact


def add_content_hash(batch: pa.Table) -> pa.Table:
    """63-bit content hash of ``text``; equal hashes are treated as exact
    duplicates (collision odds ~n²/2⁶⁴ — negligible below ~10⁹ docs;
    above that, widen the hash). NULL text maps to the sentinel -1:
    real hashes are ``>> 1`` (non-negative), so a NULL row can never
    collapse into the empty-string group — matching SQL ``GROUP BY``,
    which keeps NULL as its own group distinct from ``''``."""
    vals = batch["text"].to_pylist()
    hashes = np.fromiter(
        (-1 if v is None else stable_hash64(v) >> 1 for v in vals),
        dtype=np.int64, count=len(vals),
    )
    return batch.append_column("content_hash", pa.array(hashes, type=pa.int64()))


def exact_dedup_representatives(ds):
    """One representative (min ``doc_id``) per distinct ``text`` →
    hash-partitioned groupby over 8-byte hashes, not raw strings."""
    from ray.data.aggregate import Min

    hashed = ds.map_batches(add_content_hash, batch_format="pyarrow")
    reps = hashed.groupby("content_hash").aggregate(Min("doc_id", alias_name="doc_id"))
    return reps.select_columns(["doc_id"])


def exact_dup_groups(ds):
    """(content_hash, n_copies) for texts appearing more than once."""
    from ray.data.aggregate import Count

    hashed = ds.map_batches(add_content_hash, batch_format="pyarrow")
    counts = hashed.groupby("content_hash").aggregate(Count(alias_name="n_copies"))
    return counts.filter(expr="n_copies > 1")


# ---------------------------------------------------------------- minhash

NUM_PERM = 64
NUM_BANDS = 16
SHINGLE_WORDS = 3
COARSE_BUCKETS = 64  # coarse co-location groups for bucket-pair stages
# While the corpus fits, the driver holds its (n, NUM_PERM) int64
# signature matrix (8·NUM_PERM B/doc ≈ 1 GB at the limit) and runs LSH
# and verify on it; above the limit, pairs keyed-join their signatures.
# With the band hashes and the sorted (band key, doc) rows of candidate
# generation, the driver's peak is about 1.3 KB/doc (≈ 2.6 GB at the
# limit) plus the candidates below
_SIG_BROADCAST_DOCS = 2_000_000
# Raw candidate pairs the driver may generate within the matrix's own
# byte budget: generation keeps at most four int64 arrays of candidate
# length alive at once (32 B per candidate)
_DRIVER_CANDIDATES = _SIG_BROADCAST_DOCS * NUM_PERM * 8 // 32
# pairs per vectorized driver verify: 2 × 8 MB of gathered signatures
_VERIFY_CHUNK = 1 << 14


def _add_pair_bucket(batch: pd.DataFrame) -> pd.DataFrame:
    """Coarse co-location key for (id_a, id_b) pair rows — a single
    int64 groupby key; the fine multi-key combine happens in pandas
    inside each group (Ray's multi-key aggregate pays per-group Python
    overhead that dominates at high pair cardinality)."""
    a = batch["id_a"].to_numpy(dtype=np.uint64)
    b = batch["id_b"].to_numpy(dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = a * np.uint64(0x9E3779B97F4A7C15) + b
    batch["pair_bucket"] = (mixed % np.uint64(COARSE_BUCKETS)).astype(np.int64)
    return batch


def _shingles(text) -> list:
    """Word ``SHINGLE_WORDS``-grams of a lower-cased text; a text of
    fewer words is one shingle, an empty one none."""
    words = (text or "").lower().split()
    if len(words) < SHINGLE_WORDS:
        return [" ".join(words)] if words else []
    return list(map(" ".join, zip(*(words[i:] for i in range(SHINGLE_WORDS)))))


def minhash_sketch(texts, a: np.ndarray, b: np.ndarray):
    """``(signatures, band hashes)`` of a list of texts: a
    ``(n, NUM_PERM)`` uint64 and a ``(n, NUM_BANDS)`` int64 matrix.
    One md5-lower-64 digest per distinct shingle of the batch, one
    vectorized MinHash over all its shingles
    (:func:`~..functions.hashing.minhash_signatures`) and one pass of
    band digests."""
    grams: list = []
    offsets = [0]
    for text in texts:
        grams += _shingles(text)
        offsets.append(len(grams))
    # a dict, not pd.factorize: pandas takes strings that differ only in
    # lone surrogates for one value
    distinct: dict = {}
    codes = np.fromiter([distinct.setdefault(g, len(distinct)) for g in grams],
                        dtype=np.intp, count=len(grams))
    sigs = minhash_signatures(md5_lower64_array(distinct)[codes], offsets, a, b)
    return sigs, band_hash_matrix(sigs, NUM_BANDS)


class MinHashSignatures:
    """Batch sketcher: text → ONE sketch row per doc
    (doc_id, 64-perm signature, 16 band hashes). Runs as a task stage
    (:func:`~..functions.broadcast.task_stage`): the permutation
    parameters are built once per worker process per pipeline build.

    The shingle hashes are md5-lower-64 (not blake2b): DuckDB
    recomputes them, so ``d_minhash_pairs`` carries a full SQL
    recomputation oracle. Each batch is sketched as a whole
    (:func:`minhash_sketch`)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id") -> None:
        self.text_col = text_col
        self.id_col = id_col
        self.a, self.b = minhash_params(NUM_PERM)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sigs, bands = minhash_sketch(batch[self.text_col].to_pylist(), self.a, self.b)
        n = len(sigs)
        # flat values + offset-stepped ListArrays: no per-doc Python
        # list objects (~80 objects/doc in the naive construction)
        sig_off = pa.array(np.arange(0, (n + 1) * NUM_PERM, NUM_PERM,
                                     dtype=np.int32))
        band_off = pa.array(np.arange(0, (n + 1) * NUM_BANDS, NUM_BANDS,
                                      dtype=np.int32))
        return pa.table(
            {
                self.id_col: pa.array(ids, type=pa.int64()),
                "signature": pa.ListArray.from_arrays(
                    sig_off, pa.array(sigs.astype(np.int64).ravel(),
                                      type=pa.int64())),
                "band_hashes": pa.ListArray.from_arrays(
                    band_off, pa.array(bands.ravel(), type=pa.int64())),
            }
        )


def _list_matrix(col, width: int) -> np.ndarray:
    """``(rows, width)`` int64 matrix of a fixed-width list column: a
    reshape of the flat value buffer, no per-row Python objects."""
    return (col.combine_chunks().flatten().to_numpy(zero_copy_only=False)
            .astype(np.int64).reshape(-1, width))


def _band_keys(bands: np.ndarray) -> np.ndarray:
    """``(n, NUM_BANDS)`` band hashes → int64 LSH keys, same shape.

    (band, band_hash) is packed into ONE int64 key: band_hash is a
    63-bit blake2b digest, so mixing the band index in keeps the
    per-(band, bucket) equality semantics up to a ~2^-63 hash collision
    — and a colliding FALSE candidate is harmless, the signature verify
    filters it. One int64 key instead of (int32 band + int64 hash) cuts
    the band exchange ~30% and makes candidate generation a
    single-key self-merge."""
    with np.errstate(over="ignore"):
        mix = np.arange(bands.shape[1], dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        return (bands.astype(np.uint64) ^ mix).astype(np.int64)


def lsh_candidates(ids: np.ndarray, band_keys: np.ndarray, limit: int):
    """Driver-side LSH: the pairs of docs that share any band key.

    ``ids`` are the (n,) doc ids and ``band_keys`` their (n, bands)
    int64 keys (:func:`_band_keys`). The (key, doc) rows are lexsorted
    once, a repeated (key, doc) row is dropped (an id listed twice is
    one doc), and every pair within each run of equal keys is emitted —
    the self-merge the distributed path runs per coarse bucket. The
    candidate count Σ k(k−1)/2 over the run lengths k is known before
    any pair is built: above ``limit`` the result is ``None``.

    Returns ``(id_a, id_b, row_a, row_b)``: the deduplicated pairs
    with ``id_a < id_b``, sorted, and for each side the first input
    row holding that id."""
    uniq, first, doc = np.unique(ids, return_index=True, return_inverse=True)
    key = np.asarray(band_keys, dtype=np.int64).ravel()
    doc = np.repeat(doc.ravel(), band_keys.shape[1])
    order = np.lexsort((doc, key))
    key, doc = key[order], doc[order]
    fresh = np.ones(len(key), dtype=bool)
    fresh[1:] = (key[1:] != key[:-1]) | (doc[1:] != doc[:-1])
    key, doc = key[fresh], doc[fresh]
    start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    run = np.diff(np.r_[start, len(key)])
    n_cand = int((run * (run - 1) // 2).sum())
    if n_cand > limit:
        return None
    # row i pairs with each of the `after[i]` rows behind it in its run;
    # in-place steps keep at most four candidate-length arrays alive
    after = np.repeat(start + run, run) - np.arange(len(key)) - 1
    a = np.repeat(np.arange(len(key)), after)
    b = np.arange(n_cand)
    b -= np.repeat(np.cumsum(after) - after, after)
    b += a
    b += 1
    pair = doc[a]
    pair *= len(uniq)
    pair += doc[b]
    del a, b
    pair = np.unique(pair)  # one pair per doc pair, in (id_a, id_b) order
    ra, rb = np.divmod(pair, len(uniq))
    return uniq[ra], uniq[rb], first[ra], first[rb]


def _estimate_table(batch: pa.Table, sa: np.ndarray, sb: np.ndarray,
                    threshold: float) -> pa.Table:
    """(pairs, per-side signature matrices) → filtered pair table.
    One vectorized (n, NUM_PERM) comparison — never per-row Python."""
    est = (sa == sb).mean(axis=1) if len(sa) else np.empty(0)
    keep = est >= threshold
    out = batch.select(["id_a", "id_b"]).filter(pa.array(keep))
    return out.append_column("est_jaccard", pa.array(est[keep], type=pa.float64()))


def _driver_verify(id_a, id_b, row_a, row_b, sigs: np.ndarray,
                   threshold: float) -> pa.Table:
    """Driver verify of candidate pairs against the held signature
    matrix, ``_VERIFY_CHUNK`` pairs per vectorized comparison."""
    pairs = pa.table({"id_a": pa.array(id_a, type=pa.int64()),
                      "id_b": pa.array(id_b, type=pa.int64())})
    parts = [_estimate_table(pairs.slice(i, _VERIFY_CHUNK),
                             sigs[row_a[i : i + _VERIFY_CHUNK]],
                             sigs[row_b[i : i + _VERIFY_CHUNK]], threshold)
             for i in range(0, len(pairs), _VERIFY_CHUNK)]
    return pa.concat_tables(parts) if parts else _estimate_table(
        pairs, sigs[:0], sigs[:0], threshold)


def _gather_sketches(sketches, limit: int):
    """``(ids, (n, NUM_PERM) signatures, (n, NUM_BANDS) band hashes)``
    streamed to the driver block by block as the sketch stage produces
    them — or ``None`` as soon as more than ``limit`` rows have
    arrived. Closing the batch generator on that early return shuts the
    execution down; an abandoned one keeps running the stage."""
    ids, sigs, bands, n = [], [], [], 0
    with contextlib.closing(iter(sketches.iter_batches(batch_format="pyarrow",
                                                      batch_size=None))) as batches:
        for t in batches:
            n += len(t)
            if n > limit:
                return None
            if len(t):
                ids.append(t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64))
                sigs.append(_list_matrix(t["signature"], NUM_PERM))
                bands.append(_list_matrix(t["band_hashes"], NUM_BANDS))
    return (np.concatenate(ids or [np.empty(0, dtype=np.int64)]),
            np.vstack(sigs or [np.empty((0, NUM_PERM), dtype=np.int64)]),
            np.vstack(bands or [np.empty((0, NUM_BANDS), dtype=np.int64)]))


def _shuffle_lsh(band_rows, n_docs: int):
    """Distributed LSH over ``(doc_id, band_key)`` rows: a coarse
    bucket exchange co-locates equal keys, a pandas self-merge per
    bucket emits (id_a < id_b) pairs, and a second exchange on the pair
    drops the pairs found in several bands. Returns
    (id_a, id_b, pair_bucket) rows."""
    from .relational import shuffle_coalesced

    def add_bucket(batch: pa.Table) -> pa.Table:
        # millions of band_key buckets would mean per-group task
        # overhead; coarse-bucket them and group the fine keys
        # with pandas inside each coarse group
        key = batch["band_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (key % np.uint64(COARSE_BUCKETS)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket, type=pa.int64()))

    def bucket_pairs(coarse: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-coarse-group: self-merge each fine LSH bucket
        df = coarse[["band_key", "doc_id"]].drop_duplicates()
        m = df.merge(df, on="band_key", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        out = m[["doc_id_a", "doc_id_b"]].drop_duplicates()
        out.columns = ["id_a", "id_b"]
        return out

    def dedup_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return group.drop_duplicates(["id_a", "id_b"])

    bands = shuffle_coalesced(band_rows.map_batches(add_bucket, batch_format="pyarrow"),
                              COARSE_BUCKETS, n_docs * NUM_BANDS)
    raw_pairs = (
        bands.groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
        .map_batches(_add_pair_bucket, batch_format="pandas")
    )
    # Pair-exchange size hint: corpus rows is the LSH-regime ESTIMATE,
    # not an upper bound — raw candidates grow with Σ clique² and a
    # dup-heavy corpus can exceed corpus rows by orders of magnitude
    # (measured: 176M pairs from 320k docs of 4-copy cliques at
    # repeat=320 band collisions). The hint only gates/sizes the
    # barrier, so an undersized value costs exchange efficiency, never
    # correctness.
    return (
        shuffle_coalesced(raw_pairs, COARSE_BUCKETS, n_docs)
        .groupby("pair_bucket")
        .map_groups(dedup_pairs, batch_format="pandas")
    )


def _broadcast_verify(candidates, ids: np.ndarray, sigs: np.ndarray, threshold: float):
    """Verify candidate pairs as they stream out of the shuffle LSH:
    the held (sorted ids, row order, signature matrix) triple is put in
    the object store ONCE — ``ray.get`` per batch is a plasma zero-copy
    view — and every pair batch gathers its two signature rows by
    searchsorted: no pair collection, no extra shuffle (a keyed join
    ships |pairs| × 1 KB of signatures through the object store and was
    measured store-bandwidth-bound on a dup-heavy corpus). The matrix is
    deliberately not reordered (a fancy gather of the full matrix costs
    seconds of serial driver time at 10⁶ docs)."""
    import ray

    perm = np.argsort(ids, kind="mergesort")
    sig_ref = ray.put((ids[perm], perm, sigs))

    def verify(batch: pa.Table) -> pa.Table:
        sids, perm, smat = ray.get(sig_ref)  # zero-copy numpy views
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        sa = smat[perm[np.searchsorted(sids, a)]] if len(a) else smat[:0]
        sb = smat[perm[np.searchsorted(sids, b)]] if len(b) else smat[:0]
        return _estimate_table(batch, sa, sb, threshold)

    return candidates.map_batches(verify, batch_format="pyarrow")


def _joined_pairs(sketches, threshold: float, n_docs: int):
    """Above ``_SIG_BROADCAST_DOCS`` (the 10^12-doc regime, where no
    node can hold the matrix): shuffle LSH over the exploded band rows,
    then pairs pick up their signatures through two keyed bucket-shuffle
    joins against the (materialized) sketch table — 2× sketch shuffle
    instead of 16× band rows carrying signatures. Nothing is collected
    to the driver."""
    from .relational import hash_join

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keys = _band_keys(_list_matrix(batch["band_hashes"], NUM_BANDS))
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, NUM_BANDS), type=pa.int64()),
            "band_key": pa.array(keys.ravel(), type=pa.int64()),
        })

    candidates = _shuffle_lsh(sketches.map_batches(explode_bands, batch_format="pyarrow"),
                              n_docs)
    sig_type = pa.list_(pa.int64())
    cand_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                             ("pair_bucket", pa.int64())])

    # Every union input is materialized first: candidates and both sig
    # sides all derive from the SAME `sketches` dataset, and a single
    # streaming execution whose unions consume one upstream dataset
    # through multiple branches can deadlock Ray 2.49's executor under
    # a small CPU budget (observed: all operators idle, 0 tasks, the
    # joined verify stalled at 8 CPUs). Distinct materialized sources
    # union safely; the footprint is pairs + 2× sketch projections.
    candidates = candidates.materialize()

    def sig_side(suffix: str):
        def rename(batch: pa.Table) -> pa.Table:
            return pa.table({
                f"sid_{suffix}": batch["doc_id"],
                f"sig_{suffix}": batch["signature"],
            })
        schema = pa.schema([(f"sid_{suffix}", pa.int64()), (f"sig_{suffix}", sig_type)])
        return (sketches.map_batches(rename, batch_format="pyarrow")
                .materialize(), schema)

    sigs_a, siga_schema = sig_side("a")
    sigs_b, sigb_schema = sig_side("b")
    j1 = hash_join(candidates, sigs_a, "id_a", "sid_a", cand_schema, siga_schema,
                   num_buckets=COARSE_BUCKETS, salt=1, rows_hint=n_docs)
    j1_schema = pa.schema(list(cand_schema) + list(siga_schema))
    j2 = hash_join(j1, sigs_b, "id_b", "sid_b", j1_schema, sigb_schema,
                   num_buckets=COARSE_BUCKETS, salt=1, rows_hint=n_docs)

    def estimate(batch: pa.Table) -> pa.Table:
        return _estimate_table(batch, _list_matrix(batch["sig_a"], NUM_PERM),
                               _list_matrix(batch["sig_b"], NUM_PERM), threshold)

    return j2.map_batches(estimate, batch_format="pyarrow")


def minhash_dup_pairs(ds, text_col: str = "text", threshold: float = 0.8,
                      concurrency: int | None = None,
                      rows_hint: int | None = None, batch_size: int = 256):
    """Near-duplicate pairs via MinHash-LSH over ``(doc_id, text_col)``.

    The sketch stage (:class:`MinHashSignatures`, a task stage) writes
    one row per doc: a 64-int64 signature and 16 band hashes. What
    follows depends on the corpus size, in one of three regimes:

    * **Driver** (at most ``_SIG_BROADCAST_DOCS`` docs, the common
      case): the sketch rows stream straight to the driver, which
      bands, generates candidates (:func:`lsh_candidates`) and verifies
      them in numpy, with no exchange. The result is one in-memory
      table.
    * **Candidate-limit fallback** (same size, but the raw candidate
      count Σ k(k−1)/2 over equal-key runs exceeds
      ``_DRIVER_CANDIDATES``, a bound derived from the matrix's byte
      budget — a dup-heavy corpus): the band keys the driver already
      holds go through the distributed shuffle LSH, and the pairs are
      verified against the signature matrix broadcast once. The sketch
      is not run again.
    * **Keyed join** (above ``_SIG_BROADCAST_DOCS`` docs): the sketch
      table is materialized, the shuffle LSH runs over its exploded
      band rows, and pairs attach signatures through two keyed
      bucket-shuffle joins; nothing is collected to the driver.

    ``rows_hint`` (the known corpus row count, e.g. parquet metadata)
    picks the regime without a count and sizes the exchanges. With no
    hint the sketch table is materialized and counted first. A hint
    that understates the corpus is caught while streaming: the driver
    stops collecting past ``_SIG_BROADCAST_DOCS`` rows and the keyed
    join runs, re-running the sketch. ``concurrency`` caps the sketch
    tasks running at once (``None``: no cap).
    Returns (id_a, id_b, est_jaccard) with id_a < id_b, deduplicated;
    the three regimes give the same pairs.
    """
    import ray.data as rd

    sketches = ds.map_batches(
        task_stage("minhash_signatures", MinHashSignatures, text_col=text_col),
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=batch_size,
    )
    n_docs = rows_hint
    if n_docs is None:
        sketches = sketches.materialize()
        n_docs = sketches.count()
    held = (_gather_sketches(sketches, _SIG_BROADCAST_DOCS)
            if n_docs <= _SIG_BROADCAST_DOCS else None)
    if held is None:
        sketches = sketches.materialize()  # read by the band and both signature branches
        return _joined_pairs(sketches, threshold, sketches.count())

    ids, sigs, bands = held
    keys = _band_keys(bands)
    found = lsh_candidates(ids, keys, _DRIVER_CANDIDATES)
    if found is not None:
        return rd.from_arrow(_driver_verify(*found, sigs, threshold))
    from .relational import _shuffle_parts

    band_rows = pa.table({"doc_id": pa.array(np.repeat(ids, NUM_BANDS), type=pa.int64()),
                          "band_key": pa.array(keys.ravel(), type=pa.int64())})
    step = -(-len(band_rows) // _shuffle_parts(COARSE_BUCKETS, len(band_rows)))
    blocks = rd.from_arrow([band_rows.slice(i, step) for i in range(0, len(band_rows), step)])
    return _broadcast_verify(_shuffle_lsh(blocks, len(ids)), ids, sigs, threshold)


# ---------------------------------------------------------------- simhash


class SimHash64:
    """Batch stage: append a 64-bit SimHash fingerprint column of
    ``text``. Runs as a task stage
    (:func:`~..functions.broadcast.task_stage`)."""

    def __init__(self) -> None:
        self.bit_cols = np.arange(64, dtype=np.uint64)

    def simhash(self, text: str) -> int:
        # md5-lower-64 word hashes (not blake2b): DuckDB can recompute
        # them, so the driver value-gates d_simhash_pairs end to end
        words = (text or "").lower().split()
        if not words:
            return 0
        hashes = np.fromiter((md5_lower64(w) for w in words), dtype=np.uint64)
        bits = ((hashes[:, None] >> self.bit_cols[None, :]) & np.uint64(1)).astype(np.int64)
        acc = (2 * bits - 1).sum(axis=0)
        fp = (np.uint64(1) << self.bit_cols[acc > 0]).sum(dtype=np.uint64)
        return int(fp >> np.uint64(1))  # keep int64-positive

    def __call__(self, batch: pa.Table) -> pa.Table:
        fps = [self.simhash(t) for t in batch["text"].to_pylist()]
        return batch.append_column("simhash", pa.array(fps, type=pa.int64()))


def simhash_candidates(ds, max_hamming: int = 3, rows_hint: int | None = None):
    """Near-dup ``(doc_id, text)`` candidates with Hamming distance ≤
    ``max_hamming``: band the 63 usable bits into 4 blocks (pigeonhole:
    any pair within distance 3 agrees on ≥1 block), groupby block
    value, verify distance inside the bucket. ``rows_hint`` (known
    corpus rows) sizes the two pre-groupby exchanges. The fingerprint
    tasks run uncapped."""
    fps = ds.select_columns(["doc_id", "text"]).map_batches(
        task_stage("simhash64", SimHash64),
        batch_format="pyarrow", batch_size=512,
    ).select_columns(["doc_id", "simhash"])

    def explode_blocks(batch: pa.Table) -> pa.Table:
        # flat-buffer numpy replication (the explode_bands pattern) —
        # no per-row Python
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        fp = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(ids)
        blk = np.tile(np.arange(4, dtype=np.uint64), n)
        fp_rep = np.repeat(fp, 4)
        bval = (fp_rep >> (blk * np.uint64(16))) & np.uint64(0xFFFF)
        return pa.table({
            "block": pa.array(blk.astype(np.int64), type=pa.int64()),
            "block_val": pa.array(bval.astype(np.int64), type=pa.int64()),
            "doc_id": pa.array(np.repeat(ids, 4), type=pa.int64()),
            "simhash": pa.array(fp_rep.astype(np.int64), type=pa.int64()),
        })

    def add_bucket(batch: pa.Table) -> pa.Table:
        bv = batch["block_val"].to_numpy(zero_copy_only=False).astype(np.uint64)
        blk = batch["block"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            mixed = bv * np.uint64(0x9E3779B97F4A7C15) + blk
        bucket = (mixed % np.uint64(COARSE_BUCKETS)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket, type=pa.int64()))

    from ..functions.hashing import popcount64

    def bucket_pairs(coarse: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_d = [], [], []
        for _, group in coarse.groupby(["block", "block_val"], sort=False):
            if len(group) < 2:
                continue
            group = group.sort_values("doc_id").drop_duplicates("doc_id")
            ids = group["doc_id"].to_numpy(dtype=np.int64)
            fps_arr = group["simhash"].to_numpy().astype(np.uint64)
            for i in range(len(ids) - 1):
                # vectorized XOR + SWAR popcount over the tail — no
                # per-candidate bin(int(v)).count('1')
                ham = popcount64(fps_arr[i + 1 :] ^ fps_arr[i])
                sel = np.nonzero(ham <= max_hamming)[0]
                if len(sel):
                    out_a.append(np.full(len(sel), ids[i], dtype=np.int64))
                    out_b.append(ids[i + 1 + sel])
                    out_d.append(ham[sel])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64")})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_d)})

    def dedup_pairs(group: pd.DataFrame) -> pd.DataFrame:
        return (
            group.groupby(["id_a", "id_b"], sort=False)
            .agg(hamming=("hamming", "min"))
            .reset_index()
        )

    from .relational import shuffle_coalesced

    block_rows = rows_hint * 4 if rows_hint is not None else None
    pairs = (
        shuffle_coalesced(
            fps.map_batches(explode_blocks, batch_format="pyarrow")
            .map_batches(add_bucket, batch_format="pyarrow"),
            COARSE_BUCKETS, block_rows,
        )
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return (
        shuffle_coalesced(
            pairs.map_batches(_add_pair_bucket, batch_format="pandas"),
            COARSE_BUCKETS, rows_hint,
        )
        .groupby("pair_bucket")
        .map_groups(dedup_pairs, batch_format="pandas")
    )


# ---------------------------------------------------------------- n-gram jaccard


def char_grams(s: str) -> set:
    """Distinct character 5-grams; a short string yields its single
    prefix gram (matches the SQL oracle's substring semantics)."""
    return {s[i : i + 5] for i in range(max(1, len(s) - 4))}


def ngram_jaccard_pairs(ds, threshold: float = 0.5,
                        id_limit: int | None = None,
                        max_gram_df: int | None = None,
                        rows_hint: int | None = None):
    """Exact char-5-gram Jaccard pairs of ``(doc_id, text)`` rows via a
    distributed inverted index.

    Scale path (no quadratic all-pairs pass over text): per-doc
    *distinct* gram hashes are exploded to (gram, doc_id, n_grams)
    rows; a ``groupby(gram)`` emits one row per co-occurring pair;
    ``groupby(id_a, id_b)`` counts rows = |A ∩ B|, and
    |A ∪ B| = n_a + n_b − |A ∩ B| comes from the carried set sizes, so
    Jaccard needs no second pass over the corpus. ``id_limit`` bounds
    the candidate universe (the all-pairs semantics are only sensible
    on a bounded or pre-filtered set; unbounded corpora should use
    :func:`minhash_dup_pairs` + :func:`ngram_jaccard_verify`).

    ``max_gram_df`` is the OPT-IN hot-gram guard (default ``None`` —
    the op is documented as *exact*, so nothing is dropped unless the
    caller asks): a gram shared by k docs emits k² pair rows from the
    self-merge, so one stop-gram ("e the ") in a large corpus is
    quadratic. With a cap set, grams whose document frequency exceeds
    it are dropped before pairing (standard stop-gram filtering) and
    the drop is logged — never silent. All of a gram's postings share
    one coarse bucket (bucket = gram % B), so the df count is a local
    ``transform('size')``, no extra shuffle. With a cap, dropped grams
    shrink intersections (Jaccard biases low — candidates, not
    certificates); large-corpus callers should set one (10_000 is a
    reasonable ceiling) or pre-filter stop-grams.
    ``rows_hint`` (known input doc count) sizes the pair exchange; the
    gram exchange keeps its barrier (gram rows ≈ total characters — it
    pays at any realistic corpus size).
    Returns (id_a, id_b, jaccard) with id_a < id_b, jaccard ≥ threshold.
    """
    if id_limit is not None:
        ds = ds.filter(expr=f"doc_id < {id_limit}")

    def explode_grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out_gram, out_id, out_n = [], [], []
        for doc_id, text in zip(ids, texts):
            grams = char_grams(text or "")
            for g in grams:
                out_gram.append(stable_hash64(g) >> 1)
                out_id.append(doc_id)
                out_n.append(len(grams))
        return pa.table({
            "gram": pa.array(out_gram, type=pa.int64()),
            "doc_id": pa.array(out_id, type=pa.int64()),
            "n_grams": pa.array(out_n, type=pa.int64()),
        })

    def gram_pairs(coarse: pd.DataFrame) -> pd.DataFrame:
        # vectorized inverted-index pair counting: a self-merge on gram
        # (C-speed) instead of a Python loop over gram groups
        df = coarse[["gram", "doc_id", "n_grams"]].drop_duplicates(["gram", "doc_id"])
        if max_gram_df is None and len(df):
            # guard disabled: still DIAGNOSE a would-be-quadratic gram
            # (df k emits k² pair rows) so a silent blowup has a log line
            top_df = int(df.groupby("gram", sort=False)["gram"].size().max())
            if top_df > 10_000:
                print(
                    f"[ngram_jaccard_pairs] WARNING: hottest gram has "
                    f"df={top_df} (≈{top_df * top_df:,} pair rows) and "
                    f"max_gram_df is None — the exact all-pairs emit is "
                    f"quadratic in that df; set max_gram_df to cap it",
                    flush=True,
                )
        if max_gram_df is not None and len(df):
            gram_df = df.groupby("gram", sort=False)["gram"].transform("size")
            hot = gram_df > max_gram_df
            if hot.any():
                n_hot = int(df.loc[hot, "gram"].nunique())
                print(
                    f"[ngram_jaccard_pairs] dropped {n_hot} hot grams "
                    f"(df > {max_gram_df}) covering {int(hot.sum())} postings",
                    flush=True,
                )
                df = df[~hot]
        m = df.merge(df, on="gram", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        if not len(m):
            return pd.DataFrame({"id_a": pd.Series(dtype="int64"),
                                 "id_b": pd.Series(dtype="int64"),
                                 "intersection": pd.Series(dtype="int64"),
                                 "n_a": pd.Series(dtype="int64"),
                                 "n_b": pd.Series(dtype="int64")})
        out = (
            m.groupby(["doc_id_a", "doc_id_b"], sort=False)
            .agg(intersection=("gram", "size"),
                 n_a=("n_grams_a", "first"), n_b=("n_grams_b", "first"))
            .reset_index()
        )
        out.columns = ["id_a", "id_b", "intersection", "n_a", "n_b"]
        return out

    def add_bucket(batch: pa.Table) -> pa.Table:
        gram = batch["gram"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (gram % np.uint64(COARSE_BUCKETS)).astype(np.int64)
        return batch.append_column("bucket", pa.array(bucket, type=pa.int64()))

    def combine_and_finish(group: pd.DataFrame) -> pd.DataFrame:
        agg = (
            group.groupby(["id_a", "id_b"], sort=False)
            .agg(intersection=("intersection", "sum"),
                 n_a=("n_a", "max"), n_b=("n_b", "max"))
            .reset_index()
        )
        inter = agg["intersection"].to_numpy(dtype=np.int64)
        union = agg["n_a"].to_numpy(dtype=np.int64) + agg["n_b"].to_numpy(dtype=np.int64) - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 0.0)
        out = agg[["id_a", "id_b"]].copy()
        out["jaccard"] = jac
        return out[jac >= threshold]

    from .relational import _shuffle_parts, shuffle_coalesced

    grams = (
        ds.map_batches(explode_grams, batch_format="pyarrow")
        .map_batches(add_bucket, batch_format="pyarrow")
        .repartition(_shuffle_parts(COARSE_BUCKETS))  # gram rows: always large
    )
    return (
        shuffle_coalesced(
            grams.groupby("bucket")
            .map_groups(gram_pairs, batch_format="pandas")
            .map_batches(_add_pair_bucket, batch_format="pandas"),
            COARSE_BUCKETS, rows_hint,
        )
        .groupby("pair_bucket")
        .map_groups(combine_and_finish, batch_format="pandas")
    )


def _ngram_verify_joined(ds, pairs_ds, n_pairs: int):
    """Above-the-guard verify path: candidate texts attach through two
    keyed bucket-shuffle joins (no driver collect of pairs or texts);
    the exact per-pair Jaccard runs vectorized over the joined rows.
    Shuffle volume is O(|pairs| + corpus-scan for the two tag passes),
    output columns match the broadcast path (pair ids + jaccard)."""
    from .relational import hash_join

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    text_type = pa.string()

    def side(suffix: str):
        def rename(batch: pa.Table) -> pa.Table:
            return pa.table({
                f"tid_{suffix}": batch["doc_id"],
                f"text_{suffix}": batch["text"],
            })

        schema = pa.schema([(f"tid_{suffix}", pa.int64()),
                            (f"text_{suffix}", text_type)])
        return (
            ds.select_columns(["doc_id", "text"]).map_batches(
                rename, batch_format="pyarrow"
            ),
            schema,
        )

    texts_a, ta_schema = side("a")
    texts_b, tb_schema = side("b")
    pairs = pairs_ds.select_columns(["id_a", "id_b"])
    # LEFT joins: a candidate id absent from the corpus keeps its pair
    # row with NULL text (scored as ''), matching the broadcast path's
    # lookup.get(id, '') — both guards produce identical output
    j1 = hash_join(pairs, texts_a, "id_a", "tid_a", pair_schema, ta_schema,
                   rows_hint=n_pairs * 2, salt=1, how="left")
    j1_schema = pa.schema(list(pair_schema) + list(ta_schema))
    j2 = hash_join(j1, texts_b, "id_b", "tid_b", j1_schema, tb_schema,
                   rows_hint=n_pairs * 2, salt=1, how="left")

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        jac = []
        for ta, tb in zip(batch["text_a"], batch["text_b"]):
            ga = char_grams(ta if isinstance(ta, str) else "")
            gb = char_grams(tb if isinstance(tb, str) else "")
            union = len(ga | gb)
            jac.append(len(ga & gb) / union if union else 0.0)
        out = batch[["id_a", "id_b"]].copy()
        out["jaccard"] = jac
        return out

    return j2.map_batches(verify, batch_format="pandas")


# Candidate pairs up to which ngram_jaccard_verify collects the involved
# texts to the driver; above it, texts attach through keyed joins
_CANDIDATE_LIMIT = 500_000


def ngram_jaccard_verify(ds, pairs_ds):
    """Exact char-5-gram Jaccard for candidate pairs of ``(doc_id,
    text)`` rows.

    The candidate set is normally small by construction (LSH output),
    so up to ``_CANDIDATE_LIMIT`` pairs the candidate *ids* are broadcast once
    (``ray.put``), a distributed semi-join filters the corpus down to
    just the involved documents (never a driver-side corpus scan), and
    only those few texts are collected and re-broadcast for the
    vectorized pair verification. Beyond the guard (mirroring
    :func:`minhash_dup_pairs`'s 500k-candidate rule) nothing is
    collected: texts attach through keyed bucket-shuffle joins
    (:func:`_ngram_verify_joined`).
    """
    import ray

    pairs_ds = pairs_ds.materialize()  # consumed twice (count + verify)
    n_pairs = pairs_ds.count()
    if n_pairs > _CANDIDATE_LIMIT:
        return _ngram_verify_joined(ds, pairs_ds, n_pairs)
    pair_rows = pairs_ds.select_columns(["id_a", "id_b"]).take_all()
    involved = sorted({r["id_a"] for r in pair_rows} | {r["id_b"] for r in pair_rows})
    if not involved:
        import ray.data as rd

        return rd.from_items([])
    ids_ref = ray.put(np.array(involved, dtype=np.int64))

    def semi_join(batch: pa.Table) -> pa.Table:
        wanted = ray.get(ids_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(np.isin(ids, wanted)))

    matched = (
        ds.select_columns(["doc_id", "text"])
        .map_batches(semi_join, batch_format="pyarrow")
        .take_all()
    )  # bounded: ≤ 2×|pairs| rows survive the semi-join
    matched.sort(key=lambda row: row["doc_id"])
    # broadcast (sorted int64 ids, texts) as separate refs: the id
    # array ray.gets zero-copy per batch; the text tuple (strings —
    # not zero-copy-able) goes through the per-worker cached_get memo
    # so it unpickles once per worker, never per batch
    from ..functions.broadcast import cached_get

    tid_ref = ray.put(np.array([row["doc_id"] for row in matched], dtype=np.int64))
    txt_ref = ray.put(tuple(row["text"] or "" for row in matched))

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        tids = ray.get(tid_ref)  # zero-copy numpy view
        texts = cached_get(txt_ref)

        def _text(key_arr):
            pos, hit = sorted_lookup(tids, np.arange(len(tids)), key_arr)
            # an id absent from the corpus scores as '' (matches the
            # joined path's NULL→'' semantics)
            return [texts[j] if h else "" for j, h in zip(pos, hit)]

        a_txt = _text(batch["id_a"].to_numpy(dtype=np.int64))
        b_txt = _text(batch["id_b"].to_numpy(dtype=np.int64))
        jac = []
        for ta, tb in zip(a_txt, b_txt):
            ga, gb = char_grams(ta), char_grams(tb)
            union = len(ga | gb)
            jac.append(len(ga & gb) / union if union else 0.0)
        out = batch[["id_a", "id_b"]].copy()  # same projection as the joined path
        out["jaccard"] = jac
        return out

    return pairs_ds.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------- embeddings


# blocks of the triangle partition: ~sqrt(cluster parallelism)
_EMBED_BLOCKS = 8


def embedding_dup_pairs(ds, threshold: float = 0.95):
    """Embedding-cosine near-dup pairs (id_a < id_b, cosine ≥ threshold)
    of ``(vec_id, embedding)`` rows.

    EXACT all-pairs via triangle block partitioning — no driver-side
    materialization, no recall loss (an LSH pre-filter would drop true
    pairs whose vectors straddle a hyperplane). Each vector is assigned
    a block ``b`` and replicated to the ``B`` pair-groups
    ``{(min(b,j), max(b,j))}``; a ``groupby`` over the ``B(B+1)/2``
    group keys runs one vectorized matmul per group between its two
    block sides, so every pair is compared in exactly one group.
    Communication is O(N·B·dim) and per-task memory O((N/B)·dim);
    ``B`` = ``_EMBED_BLOCKS`` ~ sqrt(cluster parallelism) so the
    quadratic work (inherent to exact all-pairs) spreads across the
    cluster.
    """
    B = _EMBED_BLOCKS

    def explode_groups(batch: pa.Table) -> pa.Table:
        # Arrow-native ×B replication: one Table.take over repeated row
        # indices copies the list<float> column inside Arrow (no
        # per-row Python, no to_pylist of the vectors)
        n = batch.num_rows
        blocks = bucket_of(batch["vec_id"].to_numpy(zero_copy_only=False)
                           .astype(np.int64), B)
        rep = batch.select(["vec_id", "embedding"]).take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), B)))
        b_rep = np.repeat(blocks, B)
        j = np.tile(np.arange(B, dtype=np.int64), n)
        gi = np.minimum(b_rep, j)
        gj = np.maximum(b_rep, j)
        return pa.table({
            "pair_group": pa.array(gi * B + gj, type=pa.int64()),
            "vec_id": rep["vec_id"],
            "block": pa.array(b_rep, type=pa.int64()),
            "embedding": rep["embedding"],
        })

    def _norm(mat: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        return mat / norms[:, None]

    empty = pd.DataFrame({
        "id_a": pd.Series(dtype="int64"),
        "id_b": pd.Series(dtype="int64"),
        "cosine": pd.Series(dtype="float64"),
    })

    def group_pairs(g: pd.DataFrame) -> pd.DataFrame:
        key = int(g["pair_group"].iloc[0])
        gi, gj = divmod(key, B)
        ids = g["vec_id"].to_numpy(dtype=np.int64)
        blocks = g["block"].to_numpy(dtype=np.int64)
        mat = _norm(np.stack([np.asarray(v, dtype=np.float64) for v in g["embedding"]]))
        if gi == gj:
            sims = mat @ mat.T
            ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
            ids_i, ids_j, cos = ids[ii], ids[jj], sims[ii, jj]
        else:
            mask = blocks == gi
            if not mask.any() or mask.all():
                return empty
            mi, mj = mat[mask], mat[~mask]
            idi, idj = ids[mask], ids[~mask]
            sims = mi @ mj.T
            ii, jj = np.nonzero(sims >= threshold)
            ids_i, ids_j, cos = idi[ii], idj[jj], sims[ii, jj]
        if not len(ids_i):
            return empty
        return pd.DataFrame({
            "id_a": np.minimum(ids_i, ids_j).astype(np.int64),
            "id_b": np.maximum(ids_i, ids_j).astype(np.int64),
            "cosine": cos.astype(np.float64),
        })

    from .relational import _shuffle_parts

    n_groups = B * (B + 1) // 2
    return (
        ds.select_columns(["vec_id", "embedding"])
        .map_batches(explode_groups, batch_format="pyarrow")
        .repartition(_shuffle_parts(n_groups))
        .groupby("pair_group")
        .map_groups(group_pairs, batch_format="pandas")
    )


# ---------------------------------------------------------------- clustering


# Pairs up to which dedup_clusters labels components by union-find on
# the driver; above it, distributed_components labels them
_PAIR_LIMIT = 5_000_000
# (node, label) buckets of each distributed_components shuffle
_COMPONENT_BUCKETS = COARSE_BUCKETS
_MAX_ROUNDS = 100  # label-propagation rounds before giving up


def distributed_components(pairs_ds):
    """Connected-component labels over a pair graph too large for the
    driver: iterated distributed min-label propagation.

    Each round is two coarse-bucket shuffles over (node, label) rows —
    never over the corpus: (1) labels are co-located with the edges
    pointing AT their node (bucket by hash(edge.v)) and every edge
    emits its neighbor's current label as a candidate for ``u``;
    (2) candidates are re-bucketed by hash(node) and combined with a
    vectorized per-bucket min; (3) one pointer-jumping shuffle applies
    ``label(u) ← label(label(u))`` (every label value is itself a graph
    node, so the lookup always hits), which shortcuts long paths and
    makes the round count O(log diameter) instead of O(diameter).
    Labels only ever decrease and include the node's own current
    label, so ``sum(label)`` is strictly decreasing until fixpoint —
    the convergence probe is one cheap aggregate per round, no extra
    join. Near-dup components are cliquish, so typically 2-3 rounds.

    Returns a Dataset of (node:int64, label:int64) with
    label = min node id of the component. Nodes not in any pair are
    absent (callers default them to self). Each shuffle has
    ``_COMPONENT_BUCKETS`` buckets; no fixpoint within ``_MAX_ROUNDS``
    rounds raises ``RuntimeError``."""
    from ray.data.aggregate import Sum

    num_buckets = _COMPONENT_BUCKETS  # read while the plan is built

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return pa.table({
            "node": pa.array(u, type=pa.int64()),
            "label": pa.nulls(len(u), type=pa.int64()),
            "peer": pa.array(v, type=pa.int64()),
            "bucket": pa.array(bucket_of(v, num_buckets), type=pa.int64()),
            "side": pa.array(np.zeros(len(u), dtype=np.int8), type=pa.int8()),
        })

    edges = pairs_ds.select_columns(["id_a", "id_b"]).map_batches(
        both_dirs, batch_format="pyarrow"
    ).materialize()
    if edges.count() == 0:
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "node": pa.array([], type=pa.int64()),
            "label": pa.array([], type=pa.int64()),
        }))

    def init_labels(group: pa.Table) -> pa.Table:
        nodes = np.unique(group["node"].to_numpy(zero_copy_only=False)
                          .astype(np.int64))
        return pa.table({"node": pa.array(nodes, type=pa.int64()),
                         "label": pa.array(nodes, type=pa.int64())})

    def bucket_by_node(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "nbucket", pa.array(bucket_of(nodes, num_buckets), type=pa.int64())
        )

    labels = (
        edges.map_batches(bucket_by_node, batch_format="pyarrow")
        .groupby("nbucket")
        .map_groups(init_labels, batch_format="pyarrow")
        .materialize()
    )

    def tag_labels(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(nodes)
        return pa.table({
            "node": batch["node"],
            "label": batch["label"],
            "peer": pa.nulls(n, type=pa.int64()),
            "bucket": pa.array(bucket_of(nodes, num_buckets), type=pa.int64()),
            "side": pa.array(np.ones(n, dtype=np.int8), type=pa.int8()),
        })

    # The round kernels below stay in int64 numpy end to end: routing
    # node/label columns through pandas would promote them to float64
    # via the union's null padding (fillna/merge), silently corrupting
    # ids ≥ 2^53 — and 100 TB corpora legitimately use 64-bit hash ids.

    def propose(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lab = group.filter(pc.equal(group["side"], 1))
        edg = group.filter(pc.equal(group["side"], 0))
        # side-filtered slices are null-free → to_numpy stays int64
        lab_node = lab["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        lab_label = lab["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(lab_node, kind="mergesort")
        e_node = edg["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        peer = edg["peer"].to_numpy(zero_copy_only=False).astype(np.int64)
        # neighbor candidates: edge (u ← peer) picks up peer's label.
        # Every peer has a label row in this bucket (both are keyed by
        # hash(peer)/hash(node)); the mask is defensive only.
        cand, valid = sorted_lookup(lab_node[order], lab_label[order], peer)
        # own current label rides along (labels never increase)
        out_node = np.concatenate([e_node[valid], lab_node])
        out_label = np.concatenate([cand[valid], lab_label])
        return pa.table({"node": pa.array(out_node, type=pa.int64()),
                         "label": pa.array(out_label, type=pa.int64())})

    def min_label(group: pa.Table) -> pa.Table:
        node = group["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(node):
            # defensive, like propose/jump: reduceat on an empty group
            # would raise IndexError (starts=[0] via np.r_[True, ...])
            return pa.table({"node": pa.array([], type=pa.int64()),
                             "label": pa.array([], type=pa.int64())})
        label = group["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(node, kind="mergesort")
        ns, ls = node[order], label[order]
        starts = np.flatnonzero(np.r_[True, ns[1:] != ns[:-1]])
        return pa.table({
            "node": pa.array(ns[starts], type=pa.int64()),
            "label": pa.array(np.minimum.reduceat(ls, starts), type=pa.int64()),
        })

    def tag_for_jump(batch: pa.Table) -> pa.Table:
        # ONE pass emits both shuffle sides — side 0: (node, label)
        # keyed by LABEL (the lookup target); side 1: the label table
        # itself keyed by node. A two-branch union here would consume
        # the same upstream dataset twice in one streaming execution,
        # which Ray 2.49's executor can deadlock on under a small CPU
        # budget (observed: get_output_blocking stuck with all
        # operators idle); the double-emit is also one fewer scan.
        node = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        label = batch["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(node)
        key = np.concatenate([label, node])
        side = np.concatenate([np.zeros(n, dtype=np.int8),
                               np.ones(n, dtype=np.int8)])
        return pa.table({
            "node": pa.array(np.concatenate([node, node]), type=pa.int64()),
            "label": pa.array(np.concatenate([label, label]), type=pa.int64()),
            "bucket": pa.array(bucket_of(key, num_buckets), type=pa.int64()),
            "side": pa.array(side, type=pa.int8()),
        })

    def jump(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ask = group.filter(pc.equal(group["side"], 0))
        lut = group.filter(pc.equal(group["side"], 1))
        a_node = ask["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_label = ask["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        l_node = lut["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        l_label = lut["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(l_node, kind="mergesort")
        # label(u) ← label(label(u)): every label value is itself a
        # node, so the lookup always hits (mask defensive only)
        jumped, valid = sorted_lookup(l_node[order], l_label[order], a_label)
        return pa.table({
            "node": pa.array(a_node[valid], type=pa.int64()),
            "label": pa.array(jumped[valid], type=pa.int64()),
        })

    prev_sum = None
    for _ in range(_MAX_ROUNDS):
        tagged = edges.union(labels.map_batches(tag_labels, batch_format="pyarrow"))
        # pointer jumping: each node appears exactly once, so the jump
        # output needs no re-combine
        labels = (
            tagged.groupby("bucket")
            .map_groups(propose, batch_format="pyarrow")
            .map_batches(bucket_by_node, batch_format="pyarrow")
            .groupby("nbucket")
            .map_groups(min_label, batch_format="pyarrow")
            .map_batches(tag_for_jump, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(jump, batch_format="pyarrow")
            .materialize()
        )
        agg = labels.aggregate(Sum("label", alias_name="s"))
        total = (agg or {}).get("s") or 0
        if total == prev_sum:
            return labels
        prev_sum = total
    raise RuntimeError(
        f"label propagation did not converge in {_MAX_ROUNDS} rounds"
    )


def _attach_labels(batch: pa.Table, nodes: np.ndarray, labels: np.ndarray) -> pa.Table:
    """(doc_id, cluster_id, is_representative) for a batch of documents,
    given the component label of each node as sorted int64
    ``(nodes, labels)`` arrays; an unlabeled (never-paired) document is
    its own cluster. int64 numpy throughout: a pandas left-merge +
    fillna would round-trip the labels through float64 (lossy ≥ 2^53)."""
    ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    label, hit = sorted_lookup(nodes, labels, ids)
    cluster = np.where(hit, label, ids)
    out = batch.select(["doc_id"])
    out = out.append_column("cluster_id", pa.array(cluster, type=pa.int64()))
    return out.append_column(
        "is_representative", pa.array(cluster == ids, type=pa.bool_())
    )


def _assign_labels_distributed(docs_ds, labels_ds):
    """Left-join cluster labels onto the corpus as one bucket shuffle;
    unlabeled (never-paired) docs default to their own id."""

    def tag_docs(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(ids)
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "label": pa.nulls(n, type=pa.int64()),
            "bucket": pa.array(bucket_of(ids, COARSE_BUCKETS), type=pa.int64()),
            "side": pa.array(np.zeros(n, dtype=np.int8), type=pa.int8()),
        })

    def tag_labels(batch: pa.Table) -> pa.Table:
        nodes = batch["node"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(nodes)
        return pa.table({
            "doc_id": pa.array(nodes, type=pa.int64()),
            "label": batch["label"],
            "bucket": pa.array(bucket_of(nodes, COARSE_BUCKETS), type=pa.int64()),
            "side": pa.array(np.ones(n, dtype=np.int8), type=pa.int8()),
        })

    tagged = docs_ds.select_columns(["doc_id"]).map_batches(
        tag_docs, batch_format="pyarrow"
    ).union(labels_ds.map_batches(tag_labels, batch_format="pyarrow"))

    def assign(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        docs = group.filter(pc.equal(group["side"], 0))
        lab = group.filter(pc.equal(group["side"], 1))
        l_ids = lab["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        l_lab = lab["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(l_ids, kind="mergesort")
        return _attach_labels(docs, l_ids[order], l_lab[order])

    return tagged.groupby("bucket").map_groups(assign, batch_format="pyarrow")


def dedup_clusters(docs_ds, pairs_ds):
    """Near-dup clustering: connected components over the LSH pair
    graph; every document gets ``cluster_id`` = the smallest ``doc_id``
    in its component (itself when un-paired) and ``is_representative``.

    Scale shape: the PAIR set after LSH is orders of magnitude smaller
    than the corpus, so up to ``_PAIR_LIMIT`` pairs the component labels are
    computed once with union-find over the collected pairs and
    broadcast via ``ray.put``; the per-document labeling is a
    distributed vectorized map — the corpus itself never leaves the
    cluster. Beyond the guard (a high-dup-rate 100 TB corpus), the
    labels come from :func:`distributed_components` — iterated
    min-label propagation, two bucket shuffles over (node, label) rows
    per round — and attach through a distributed bucket left-join
    (:func:`_assign_labels_distributed`); nothing is ever collected to
    the driver. Setting ``_PAIR_LIMIT = 0`` before the call forces the
    distributed path."""
    import ray

    # materialize once: both the count and the consumer below read the
    # pair set, and without this the pair pipeline's terminal stage
    # would re-execute (pairs ≪ corpus, so the footprint is bounded)
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs > _PAIR_LIMIT:
        labels = distributed_components(pairs_ds)
        return _assign_labels_distributed(docs_ds, labels)
    parent: dict = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    for t in pairs_ds.select_columns(["id_a", "id_b"]).iter_batches(
            batch_format="pyarrow"):  # arrow→numpy batches, no row dicts
        for ia, ib in zip(t["id_a"].to_numpy(zero_copy_only=False),
                          t["id_b"].to_numpy(zero_copy_only=False)):
            ra, rb = find(int(ia)), find(int(ib))
            if ra != rb:
                if rb < ra:
                    ra, rb = rb, ra
                parent[rb] = ra  # smaller id wins → cluster_id = component min
    # sorted int64 (node, label) arrays: ``ray.get`` per batch is a
    # plasma zero-copy view, where a dict would be unpickled again by
    # every batch
    nodes = np.array(sorted(parent), dtype=np.int64)
    labels = np.array([find(int(x)) for x in nodes], dtype=np.int64)
    ref = ray.put((nodes, labels))

    def assign(batch: pa.Table) -> pa.Table:
        return _attach_labels(batch, *ray.get(ref))

    return docs_ds.map_batches(assign, batch_format="pyarrow")


def cluster_best(docs_ds, pairs_ds, rows_hint: int | None = None):
    """Representative selection after near-dup clustering: per cluster,
    keep the highest-quality document (``quality_score`` from
    :class:`~.textstats.TextStats`; ties break to the smallest id) —
    the "which copy survives dedup" decision of a training-data
    pipeline, made on content quality instead of the default
    min-id convention.

    Scale shape: cluster labels (:func:`dedup_clusters`) and quality
    scores join through the engine's bucket-shuffle
    :func:`~.relational.hash_join` on the near-unique doc id
    (``salt=1`` — no skew probe needed); the per-cluster argmax is one
    global (quality desc, id asc) sort *inside coarse cluster buckets*
    — a vectorized ``sort_values`` + stable ``groupby.head(1)`` per
    bucket, never a per-cluster task. Output:
    (cluster_id, best_doc_id, best_quality)."""
    from .relational import hash_join, shuffle_coalesced
    from .textstats import text_stats

    labels = dedup_clusters(docs_ds, pairs_ds).drop_columns(
        ["is_representative"]
    )
    def rename_id(batch: pa.Table) -> pa.Table:
        # Dataset.rename_columns in Ray 2.49 breaks on pandas-format
        # upstream blocks (its UDF assumes Arrow); rename explicitly
        return batch.rename_columns(
            ["q_doc_id" if c == "doc_id" else c for c in batch.column_names]
        )

    quality = (
        text_stats(docs_ds)
        .select_columns(["doc_id", "quality_score"])
        .map_batches(rename_id, batch_format="pyarrow")
    )
    l_schema = pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64())])
    r_schema = pa.schema([("q_doc_id", pa.int64()),
                          ("quality_score", pa.float64())])
    joined = hash_join(labels, quality, on="doc_id", right_on="q_doc_id",
                       left_schema=l_schema, right_schema=r_schema,
                       rows_hint=rows_hint, salt=1)

    def add_cbucket(batch: pa.Table) -> pa.Table:
        cl = batch["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.append_column(
            "cbucket", pa.array(bucket_of(cl, COARSE_BUCKETS), type=pa.int64())
        )

    def best(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["quality_score", "doc_id"],
                              ascending=[False, True], kind="mergesort")
        top = g.groupby("cluster_id", sort=False).head(1)
        return pd.DataFrame({
            "cluster_id": top["cluster_id"].to_numpy(dtype="int64"),
            "best_doc_id": top["doc_id"].to_numpy(dtype="int64"),
            "best_quality": top["quality_score"].to_numpy(dtype="float64"),
        })

    return (
        shuffle_coalesced(
            joined.map_batches(add_cbucket, batch_format="pyarrow"),
            COARSE_BUCKETS, rows_hint,
        )
        .groupby("cbucket")
        .map_groups(best, batch_format="pandas")
    )
