"""Text-analysis operators for training-data pipelines.

Language-ID (stopword-profile heuristic), quality scoring, token
counting (whitespace + a BPE-ish regex), and document fingerprinting
(min rolling hash of word 5-grams). All are ``map_batches`` task
stages; the heavy pieces (compiled regexes, stopword tables, word-hash
memos) live in a stage class built once per worker process
(:func:`~..functions.broadcast.task_stage`).

Every column here — including lang-ID (stopword argmax) and the
fingerprint (Rabin-Karp mod 2⁶¹−1 over md5-lower-64 word hashes) — is
defined to be *exactly* replicable in DuckDB SQL (see
``__ray_entry__.oracle_sql``), so the driver value-gates all of them.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.broadcast import task_stage
from ..functions.hashing import md5_lower64

# minimal stopword profiles (public common-word lists)
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "on", "with", "as"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine", "zu", "den", "von"},
    "fr": {"le", "la", "les", "et", "est", "pas", "une", "un", "des", "du", "que", "pour"},
    "es": {"el", "la", "los", "las", "y", "es", "no", "una", "un", "de", "que", "para"},
    "it": {"il", "la", "le", "e", "è", "non", "una", "un", "di", "che", "per", "con"},
}

# a BPE-ish pre-tokenizer: word pieces, numbers, punctuation runs
# (the common GPT-2-style pattern shape, public knowledge)
_BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+")
_WS_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[.,;:!?]")
_WORD_RE = re.compile(r"[a-zà-ÿ]+")

# rows per batch of the two task stages below
TEXT_STATS_BATCH_SIZE = 1024
HLL_BATCH_SIZE = 8192
_HASH_CACHE_MAX = 1_000_000  # entries of a stage's hash memo (~32 MB); reset beyond
_COARSE_BUCKETS = 64  # int64 groupby buckets of the combine shuffles
_SAMPLE_ROWS = 100  # rows of hash_sample
_QUANTILES = (0.25, 0.5, 0.75, 0.9, 0.99)  # of doc_len_quantiles


def _memo_hashes(cache: dict, values, hash_fn) -> np.ndarray:
    """``hash_fn(v)`` for each of ``values`` as uint64, through a stage
    instance's ``cache`` (values repeat heavily across batches)."""
    if len(cache) > _HASH_CACHE_MAX:
        cache.clear()
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        h = cache.get(v)
        if h is None:
            h = cache[v] = hash_fn(v)
        out[i] = h
    return out


class TextStats:
    """Task stage: append token/quality/lang/fingerprint columns.

    The per-row Python kernels of the first version (``Series.map``
    over word lists) are replaced by flat-array numpy: all words of a
    batch are concatenated, the vocabulary is deduplicated once
    (``np.unique``), md5 word hashes are computed per UNIQUE word with
    a per-instance cache (words repeat heavily across batches), and the
    rolling-hash fingerprint / stopword ratios / language argmax run
    as vectorized segment reductions over the flat array
    (:func:`~..functions.hashing.rolling_min_fingerprint`). Values are
    bit-identical to the scalar reference kernels kept below for
    short-document fallback and tests."""

    def __init__(self) -> None:
        self.bpe = _BPE_RE
        self.ws = _WS_RE
        self.punct = _PUNCT_RE
        self.word = _WORD_RE
        self.profiles = {lang: frozenset(ws) for lang, ws in STOPWORDS.items()}
        self.langs = list(STOPWORDS)  # insertion order = tie-break order
        self.stop_arrays = {
            lang: np.array(sorted(ws), dtype=object)
            for lang, ws in STOPWORDS.items()
        }
        self._hash_cache: dict = {}

    # -- scalar kernels (applied per row over pandas Series) ----------------

    def lang_of(self, words: list) -> str:
        if not words:
            return "und"
        best, best_score = "und", 0.0
        for lang, stops in self.profiles.items():
            score = sum(1 for w in words if w in stops) / len(words)
            if score > best_score:
                best, best_score = lang, score
        return best if best_score > 0.02 else "und"

    _FP_MOD = (1 << 61) - 1  # Mersenne prime: HUGEINT-safe in DuckDB
    _FP_BASE = 1099511628211

    def fingerprint_of(self, words: list, k: int = 5) -> int:
        """Document fingerprint: min rolling (Rabin-Karp) polynomial
        hash over word ``k``-grams, mod the Mersenne prime 2⁶¹−1 with
        md5-lower-64 word hashes — every step exactly replicable in
        DuckDB HUGEINT arithmetic, so the driver value-gates this
        column (``oracle_sql()['t_fingerprints']``). Stable across
        runs/workers/partitionings."""
        if not words:
            return 0
        M, B = self._FP_MOD, self._FP_BASE
        hs = [md5_lower64(w) % M for w in words]
        L = min(k, len(hs))
        powers = [pow(B, L - 1 - j, M) for j in range(L)]
        best = None
        for i in range(len(hs) - L + 1):
            acc = sum((hs[i + j] * powers[j]) % M for j in range(L)) % M
            if best is None or acc < best:
                best = acc
        return best

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from ..functions.hashing import rolling_min_fingerprint

        text = batch["text"].fillna("")
        stripped = text.str.strip()
        batch["n_chars"] = text.str.len().astype("int64")
        batch["n_tokens"] = np.where(
            stripped.str.len() > 0, stripped.str.count(self.ws) + 1, 0
        ).astype("int64")
        batch["n_bpe_tokens"] = text.str.count(self.bpe).astype("int64")
        n_punct = text.str.count(self.punct).astype("int64")
        batch["punct_ratio"] = np.where(
            batch["n_chars"] > 0, n_punct / batch["n_chars"], 0.0
        )
        words = text.str.lower().str.findall(self.word)
        lens = words.str.len().to_numpy(dtype=np.int64)
        nrows = len(batch)
        offsets = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=object)
        pos = 0
        for ws in words:
            flat[pos:pos + len(ws)] = ws
            pos += len(ws)

        if len(flat):
            uniq, codes = np.unique(flat, return_inverse=True)
        else:
            uniq = np.array([], dtype=object)
            codes = np.array([], dtype=np.int64)

        # stopword ratios per language: membership tested once per
        # UNIQUE word, expanded via codes, summed per row with cumsum
        # (empty-row-safe, unlike reduceat)
        denom = np.maximum(lens, 1)
        scores = np.zeros((len(self.langs), nrows))
        for li, lang in enumerate(self.langs):
            memb = np.isin(uniq, self.stop_arrays[lang]).astype(np.int64)
            cs = np.zeros(len(flat) + 1, dtype=np.int64)
            np.cumsum(memb[codes], out=cs[1:])
            scores[li] = (cs[offsets[1:]] - cs[offsets[:-1]]) / denom
        batch["stopword_ratio"] = np.where(lens > 0, scores[0], 0.0)
        # quality: bounded length term × clean-punctuation term
        batch["quality_score"] = np.minimum(1.0, batch["n_tokens"] / 100.0) * (
            1.0 - batch["punct_ratio"]
        )
        # argmax in language order = the scalar loop's first-wins tie
        # break; > 0.02 threshold else "und"
        best = scores.argmax(axis=0)
        lang_arr = np.array(self.langs, dtype=object)
        batch["lang_pred"] = np.where(
            scores[best, np.arange(nrows)] > 0.02, lang_arr[best], "und"
        )

        # md5-lower-64 (mod M) per unique word: the only irreducibly
        # per-word Python work left
        M = self._FP_MOD
        hs_flat = _memo_hashes(self._hash_cache, uniq, lambda w: md5_lower64(w) % M)[codes]
        fp = rolling_min_fingerprint(hs_flat, offsets, self._FP_BASE)
        fingerprints = np.where(fp == np.uint64(self._FP_MOD), 0, fp).astype("int64")
        short = np.flatnonzero((lens > 0) & (lens < 5))
        for r in short:  # rare: <5-word docs use the scalar reference
            fingerprints[r] = self.fingerprint_of(list(words.iloc[r]))
        batch["fingerprint"] = fingerprints
        return batch


def text_stats(ds):
    """Attach the TextStats columns of ``text`` to a Dataset."""
    return ds.map_batches(
        task_stage("text_stats", TextStats),
        batch_format="pandas",
        batch_size=TEXT_STATS_BATCH_SIZE,
    )


def train_test_split_counts(ds):
    """Deterministic id-based train/val/test assignment (the standard
    shard-stable split for training corpora: membership is a pure
    function of the id, so re-runs and resumes agree) → per-split
    counts. doc_id % 10 ∈ [0,8) train, 8 val, 9 test."""
    from ray.data.aggregate import Count

    def assign(batch: pa.Table) -> pa.Table:
        mod = batch["doc_id"].to_numpy(zero_copy_only=False) % 10
        split = np.where(mod < 8, "train", np.where(mod == 8, "val", "test"))
        return batch.append_column("split", pa.array(split, type=pa.string()))

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("split")
        .aggregate(Count(alias_name="n_docs"))
    )


def shuffled_sample(ds, n: int = 100, seed: int = 42):
    """Seeded global ``random_shuffle`` (the pre-epoch shuffle of a
    training pipeline — an all-to-all) + take-n. Kept as the
    epoch-shuffle API; :func:`hash_sample` is the deterministic,
    SQL-replicable sampler the driver value-gates."""
    return ds.random_shuffle(seed=seed).limit(n)


def hash_sample(ds):
    """Deterministic pseudo-random sample: rank rows by
    ``md5('{doc_id}-42')`` (lowercase hex — exactly DuckDB's ``md5``)
    and keep the ``n`` = 100 smallest. Distributed top-k, no all-to-all:
    each batch prunes itself to its local ``n`` smallest keys (the
    combiner), so the final ``sort + limit`` sees at most
    ``n × num_batches`` candidate rows — O(sample), never a shuffle of
    the corpus. Membership is a pure function of the id: re-runs,
    resumes and the SQL oracle (``ORDER BY md5(...) LIMIT n``) agree
    exactly.

    COST NOTE: the ranking key is one ``hashlib.md5`` per row in a
    Python comprehension — the price of bit-parity with DuckDB's
    ``md5()`` (~1 µs/row; ~280 CPU-hours per 10¹² rows, spread across
    the cluster). A non-SQL-gated sampler should swap in a vectorized
    integer hash (``functions.hashing.stable_hash64_column``)."""
    from hashlib import md5 as _md5

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(sort_key=[
            _md5(f"{i}-42".encode()).hexdigest() for i in batch["doc_id"]
        ])
        return batch.sort_values("sort_key", kind="mergesort").head(_SAMPLE_ROWS)

    return ds.map_batches(prune, batch_format="pandas").sort("sort_key").limit(_SAMPLE_ROWS)


def top_words(ds, k: int = 20, rows_hint: int | None = None):
    """Corpus-wide heavy hitters: top-``k`` words of ``text`` by
    occurrence count.

    Scale shape: the per-batch partial collapses occurrences to one
    (word, cnt) row per DISTINCT word per batch (the combiner), so the
    shuffle moves vocabulary-sized data, never corpus-sized. Words are
    coarse-bucketed by a stable 64-bit hash into a single-int64
    ``groupby`` (the string-key aggregate costs ~40 ms/group — see
    BASELINE.md) and summed vectorized per bucket. Each word lives in
    exactly one bucket, so the global top-k equals the top-k of the
    union of per-bucket top-ks: the terminal ``sort + limit`` sees at
    most 64 × ``k`` rows. Boundary ties break
    deterministically by (count desc, word asc) — same order as the
    SQL oracle's ``ORDER BY n DESC, word``."""
    from ..functions.hashing import stable_hash64_column

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        words = (
            batch["text"].fillna("").str.lower().str.findall(_WORD_RE)
            .explode().dropna()
        )
        vc = words.value_counts()
        out = pd.DataFrame({
            "word": vc.index.to_numpy(dtype=object),
            "cnt": vc.to_numpy(dtype="int64"),
        })
        out["bucket"] = (
            stable_hash64_column(out["word"].to_numpy())
            % np.uint64(_COARSE_BUCKETS)
        ).astype("int64")
        return out

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("word", as_index=False).agg(n=("cnt", "sum"))
        out["n"] = out["n"].astype("int64")
        return out.sort_values(["n", "word"], ascending=[False, True],
                               kind="mergesort").head(k)[["word", "n"]]

    from .relational import shuffle_coalesced

    return (
        shuffle_coalesced(
            ds.map_batches(partial, batch_format="pandas"),
            _COARSE_BUCKETS, rows_hint,  # combiner output ≈ vocabulary ≤ corpus rows
        )
        .groupby("bucket")
        .map_groups(combine, batch_format="pandas")
        .sort(["n", "word"], descending=[True, False])
        .limit(k)
    )


def doc_len_quantiles(ds, rows_hint: int | None = None):
    """Exact distributed quantiles (``_QUANTILES``) of per-document
    whitespace token counts of ``text``, via histogram combine: per-batch ``(n_tokens → count)``
    partials (one row per distinct length per batch — the combiner),
    coarse-bucket vectorized sum, then a driver scan of the full
    histogram, which is bounded by the number of DISTINCT document
    lengths (≤ max doc length — a few thousand rows even at 100 TB),
    never by corpus size. The quantile is the unambiguous lower-rank
    pick: the value at rank ``max(1, ceil(p·n))`` of the sorted
    lengths, bit-replicable in SQL as a window-rank join (both sides
    do the same IEEE-double ``p·n``). Returns a pandas DataFrame
    ``(p, n_tokens)``."""
    import math

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        stripped = text.str.strip()
        n_tokens = np.where(
            stripped.str.len() > 0, stripped.str.count(_WS_RE) + 1, 0
        ).astype("int64")
        vals, cnts = np.unique(n_tokens, return_counts=True)
        return pd.DataFrame({
            "n_tokens": vals,
            "cnt": cnts.astype("int64"),
            "bucket": vals % _COARSE_BUCKETS,
        })

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("n_tokens", as_index=False).agg(cnt=("cnt", "sum"))
        out["cnt"] = out["cnt"].astype("int64")
        return out

    from .relational import shuffle_coalesced

    rows = (
        shuffle_coalesced(
            ds.map_batches(partial, batch_format="pandas"), _COARSE_BUCKETS, rows_hint,
        )
        .groupby("bucket")
        .map_groups(combine, batch_format="pandas")
        .take_all()
    )  # bounded: one row per distinct document length
    h = pd.DataFrame(rows).sort_values("n_tokens")
    cum = h["cnt"].cumsum().to_numpy() if len(h) else np.array([], dtype=np.int64)
    n = int(cum[-1]) if len(cum) else 0
    lens = h["n_tokens"].to_numpy() if len(h) else np.array([], dtype=np.int64)
    out_p, out_v = [], []
    for p in _QUANTILES:
        rank = max(1, math.ceil(p * n))
        idx = int(np.searchsorted(cum, rank, side="left"))
        out_p.append(float(p))
        out_v.append(int(lens[idx]) if n else 0)
    return pd.DataFrame({"p": out_p, "n_tokens": pd.array(out_v, dtype="int64")})


def stratified_sample(ds, group_col: str = "lang_pred", n: int = 20,
                      seed: int = 42):
    """Deterministic stratified sample: the ``n`` rows with the
    smallest ``md5('{doc_id}-{seed}')`` rank *per group* (the balanced
    per-language/per-domain subset selection of a training-data
    pipeline). Same distributed-top-k shape as :func:`hash_sample`,
    per group: each batch prunes itself to its local ``n`` smallest
    keys per group (the combiner), so the group shuffle moves at most
    ``n × groups × num_batches`` rows — O(sample), never the corpus;
    the per-group finish is one vectorized sort + ``head(n)``.
    Membership is a pure function of (id, seed), so re-runs, resumes
    and the SQL oracle (``row_number() OVER (PARTITION BY g ORDER BY
    md5(...)) <= n``) agree exactly. Same per-row md5 cost note as
    :func:`hash_sample`. Returns (group, doc_id, sort_key) rows."""
    from hashlib import md5 as _md5

    def prune(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.assign(sort_key=[
            _md5(f"{i}-{seed}".encode()).hexdigest() for i in batch["doc_id"]
        ])
        batch = batch.sort_values("sort_key", kind="mergesort")
        return batch.groupby(group_col, sort=False).head(n)[
            [group_col, "doc_id", "sort_key"]
        ]

    def finish(group: pd.DataFrame) -> pd.DataFrame:
        return group.sort_values("sort_key", kind="mergesort").head(n)

    return (
        ds.map_batches(prune, batch_format="pandas")
        .groupby(group_col)
        .map_groups(finish, batch_format="pandas")
    )


def seq_pack(ds, max_len: int = 2048, num_ranges: int = 1024,
             rows_hint: int | None = None):
    """Distributed prefix sum over ``doc_id`` order + greedy sequence
    packing of ``text``.

    The training-data op Ray Data has no native operator for: a
    running total of per-document token counts in stable ``doc_id``
    order, from which each document gets its training-sequence
    ``pack_id = (cum_tokens − n_tokens) // max_len`` (documents are
    laid head-to-tail into fixed ``max_len`` token windows, split at
    window boundaries — the standard pre-tokenized packing layout).

    Scale shape — the classic two-phase scan, never a global sort:

    1. one pass computes ``(id, n_tokens)`` (16 bytes/doc — this tiny
       projection is what's materialized, never the text; the
       object-store bound is ~16 B × corpus rows ≈ 16 TB per 10¹²
       docs spread across the cluster store, spillable — stated in
       BASELINE.md) and range-partitions ids into ``num_ranges``
       ordered ranges over [min, max];
    2. per-range token sums (one aggregate over ≤``num_ranges`` rows)
       are exclusive-scanned on the driver — O(num_ranges), tiny —
       and broadcast;
    3. one bucket shuffle co-locates each range; inside a range the
       prefix sum is a vectorized sort + ``cumsum`` over
       ``N/num_ranges`` rows plus the range's scanned offset.

    Every value is integer arithmetic, bit-replicable by a SQL window
    ``SUM … ROWS UNBOUNDED PRECEDING``."""
    import ray
    from ray.data.aggregate import Max, Min

    def tokens_of(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        stripped = text.str.strip()
        n_tokens = np.where(
            stripped.str.len() > 0, stripped.str.count(_WS_RE) + 1, 0
        ).astype("int64")
        return pd.DataFrame({"doc_id": batch["doc_id"].to_numpy(dtype="int64"),
                             "n_tokens": n_tokens})

    counts = ds.map_batches(tokens_of, batch_format="pandas").materialize()
    mm = counts.aggregate(Min("doc_id", alias_name="lo"),
                          Max("doc_id", alias_name="hi"))
    if not mm or mm.get("lo") is None:
        return counts  # empty input: nothing to scan
    lo, hi = int(mm["lo"]), int(mm["hi"])
    span = max(1, hi - lo + 1)
    width = max(1, -(-span // num_ranges))  # ceil: ranges cover [lo, hi]

    def add_range(batch: pd.DataFrame) -> pd.DataFrame:
        batch["range"] = (batch["doc_id"].to_numpy(dtype="int64") - lo) // width
        return batch

    def range_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.groupby("range", as_index=False).agg(s=("n_tokens", "sum"))

    # add_range is a cheap vectorized tag: fuse it into both consumers
    # of `counts` instead of materializing a second intermediate
    partials = (
        counts.map_batches(add_range, batch_format="pandas")
        .map_batches(range_partial, batch_format="pandas")
        .take_all()
    )  # ≤ num_ranges × num_batches tiny rows
    per_range = np.zeros(num_ranges + 1, dtype=np.int64)
    for r in partials:
        per_range[int(r["range"])] += int(r["s"])
    offsets = np.zeros(num_ranges, dtype=np.int64)
    np.cumsum(per_range[:-1], out=offsets)
    offsets -= per_range[:num_ranges]  # exclusive scan
    offsets_ref = ray.put(offsets)

    def scan_range(group: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)
        g = group.sort_values("doc_id", kind="mergesort")
        nt = g["n_tokens"].to_numpy(dtype=np.int64)
        cum = np.cumsum(nt) + off[int(g["range"].iloc[0])]
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(dtype="int64"),
            "n_tokens": nt,
            "cum_tokens": cum,
            "pack_id": (cum - nt) // max_len,
        })

    from .relational import shuffle_coalesced

    return (
        shuffle_coalesced(
            counts.map_batches(add_range, batch_format="pandas"),
            num_ranges, rows_hint,
        )
        .groupby("range")
        .map_groups(scan_range, batch_format="pandas")
    )


class HllPartial:
    """Task stage: per-batch HyperLogLog register partials for
    approximate distinct counting (the sketch pattern: tiny mergeable
    state instead of a distinct shuffle).

    Register layout (b=10 → 1024 registers over the md5-lower-64 value
    hash): register index = top 10 bits, rank = leading zeros of the
    remaining 54 bits + 1. Every step is integer-exact, so a DuckDB
    oracle recomputes the register maxima bit-for-bit — the sketch
    itself is value-gated, while the cardinality estimate derived from
    it is pinned by tolerance tests."""

    B_BITS = 10
    REST_BITS = 54

    def __init__(self, key_col: str, val_col: str) -> None:
        self.key_col = key_col
        self.val_col = val_col
        # 2^0..2^(REST_BITS-1): searchsorted(…, 'right') == bit_length
        self._pow2 = (np.uint64(1) << np.arange(self.REST_BITS, dtype=np.uint64))
        self._hash_cache: dict = {}

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        vals = batch[self.val_col].to_numpy()
        uniq, codes = np.unique(vals, return_inverse=True)
        # md5 once per UNIQUE value, cached
        h_uniq = _memo_hashes(self._hash_cache, uniq, lambda v: md5_lower64(str(v)))
        rest = h_uniq & np.uint64((1 << self.REST_BITS) - 1)
        # vectorized bit_length: index of the first power of two > rest
        bitlen = np.searchsorted(self._pow2, rest, side="right")
        rank_uniq = (self.REST_BITS - bitlen + 1).astype(np.int64)
        idx_uniq = (h_uniq >> np.uint64(self.REST_BITS)).astype(np.int64)
        df = pd.DataFrame({
            self.key_col: batch[self.key_col].to_numpy(),
            "register_idx": idx_uniq[codes],
            "max_rank": rank_uniq[codes],
        })
        out = df.groupby([self.key_col, "register_idx"], as_index=False).agg(
            max_rank=("max_rank", "max")
        )
        out["register_idx"] = out["register_idx"].astype("int64")
        out["max_rank"] = out["max_rank"].astype("int64")
        return out


def hll_registers(ds):
    """Distinct-count sketch registers of ``user_id`` per
    ``event_type``: per-batch partials (each batch emits at most 1024
    register rows per key — the combiner), then one small groupby
    takes the elementwise max."""
    partials = ds.map_batches(
        task_stage("hll_partial", HllPartial, "event_type", "user_id"),
        batch_format="pandas",
        batch_size=HLL_BATCH_SIZE,
    )

    # one Ray group per KEY (few), elementwise max vectorized inside —
    # a multi-key Ray aggregate would pay per-group overhead across
    # keys × 1024 registers
    def combine(group: pd.DataFrame) -> pd.DataFrame:
        return group.groupby(["event_type", "register_idx"], as_index=False).agg(
            max_rank=("max_rank", "max")
        )

    return partials.groupby("event_type").map_groups(combine, batch_format="pandas")


def hll_estimate(registers: pd.DataFrame) -> pd.DataFrame:
    """Cardinality estimate per ``event_type`` from the
    :func:`hll_registers` maxima (standard HLL formula with the
    small-range linear-counting correction)."""
    import math

    m = 1 << HllPartial.B_BITS
    alpha = 0.7213 / (1 + 1.079 / m)
    out = []
    for key, grp in registers.groupby("event_type"):
        regs = np.zeros(m)
        regs[grp["register_idx"].to_numpy()] = grp["max_rank"].to_numpy()
        est = alpha * m * m / np.sum(np.exp2(-regs))
        zeros = int((regs == 0).sum())
        if est <= 2.5 * m and zeros:
            est = m * math.log(m / zeros)
        out.append({"event_type": key, "distinct_est": float(est)})
    return pd.DataFrame(out)
