"""Vectorized text-stats kernel parity: the numpy flat-array kernels
(mulmod61 rolling fingerprint, stopword/lang segment reductions, HLL
register partials) must be bit-identical to the scalar reference
kernels they replaced (which the DuckDB oracles replicate)."""

import random

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

M61 = (1 << 61) - 1
FP_BASE = 1099511628211


def test_mulmod61_matches_bigint():
    from pdf4py_ray.functions.hashing import mulmod61

    rng = random.Random(1)
    a = np.array([rng.randrange(M61) for _ in range(4096)], dtype=np.uint64)
    b = np.array([rng.randrange(M61) for _ in range(4096)], dtype=np.uint64)
    want = np.array([(int(x) * int(y)) % M61 for x, y in zip(a, b)], dtype=np.uint64)
    assert (mulmod61(a, b) == want).all()
    # scalar second operand broadcasts
    want1 = np.array([(int(x) * FP_BASE) % M61 for x in a], dtype=np.uint64)
    assert (mulmod61(a, FP_BASE) == want1).all()
    # boundary values
    edge = np.array([0, 1, M61 - 1, M61 - 2, 2**31, 2**31 - 1], dtype=np.uint64)
    for x in edge:
        got = mulmod61(edge, x)
        want = np.array([(int(e) * int(x)) % M61 for e in edge], dtype=np.uint64)
        assert (got == want).all()


def _stable_hash64_scalar(data: bytes) -> int:
    """The documented formula of ``stable_hash64_column`` in plain
    integers: XOR of ``(byte+1)·p^(len-1-j) mod 2^64``, then splitmix64
    over that plus ``len·golden`` (0 for the empty string)."""
    mask, p = (1 << 64) - 1, 0x100000001B3
    h = 0
    for j, byte in enumerate(data):
        h ^= ((byte + 1) * pow(p, len(data) - 1 - j, 1 << 64)) & mask
    z = (h + len(data) * 0x9E3779B97F4A7C15) & mask
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & mask
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_stable_hash64_column_bytes_0xff():
    """A 0xFF byte counts as 256, not as 0 wrapped in uint8, so two byte
    strings that differ only in that byte hash differently, and strings
    (UTF-8 has no 0xFF byte) hash exactly as their bytes."""
    import numpy as np

    from pdf4py_ray.functions.hashing import _hash64_bytes, stable_hash64_column

    values = [b"a\xffb", b"a\xfeb", b"\xff", b"\xff\xff", b"word", b""]
    data = np.frombuffer(b"".join(values), dtype=np.uint8)
    offs = np.cumsum([0] + [len(v) for v in values], dtype=np.int64)
    got = _hash64_bytes(data, offs)
    assert [int(v) for v in got] == [_stable_hash64_scalar(v) for v in values]
    assert len(set(got.tolist())) == len(values)
    words = ["word", "naïve", "日本", ""]
    assert [int(v) for v in stable_hash64_column(words)] == [
        _stable_hash64_scalar(w.encode()) for w in words]


def test_rolling_min_fingerprint_matches_scalar():
    from pdf4py_ray.functions.hashing import rolling_min_fingerprint

    def scalar_fp(hs, k=5):
        L = min(k, len(hs))
        powers = [pow(FP_BASE, L - 1 - j, M61) for j in range(L)]
        best = None
        for i in range(len(hs) - L + 1):
            acc = sum((hs[i + j] * powers[j]) % M61 for j in range(L)) % M61
            if best is None or acc < best:
                best = acc
        return best

    rng = random.Random(7)
    docs = [[rng.randrange(M61) for _ in range(rng.choice([0, 1, 4, 5, 6, 30]))]
            for _ in range(300)]
    flat = np.array([h for d in docs for h in d], dtype=np.uint64)
    offsets = np.cumsum([0] + [len(d) for d in docs])
    out = rolling_min_fingerprint(flat, np.asarray(offsets), FP_BASE)
    for i, d in enumerate(docs):
        if len(d) >= 5:
            assert int(out[i]) == scalar_fp(d)
        else:
            assert int(out[i]) == M61  # sentinel: caller falls back


def test_textstats_batch_matches_scalar_reference():
    from pdf4py_ray.stages.textstats import TextStats

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    # exercise the short-doc fallback and empty/NULL rows too
    extra = pd.DataFrame({"doc_id": [-1, -2, -3, -4],
                          "text": ["", None, "one two", "the of and to a in"]})
    t = pd.concat([t, extra], ignore_index=True)
    ts = TextStats()
    out = ts(t.copy())
    words = t["text"].fillna("").str.lower().str.findall(ts.word)
    en = ts.profiles["en"]
    assert (out["fingerprint"].to_numpy()
            == words.map(ts.fingerprint_of).astype("int64").to_numpy()).all()
    assert (out["lang_pred"].to_numpy() == words.map(ts.lang_of).to_numpy()).all()
    ref_sw = words.map(lambda ws: sum(1 for w in ws if w in en) / len(ws) if ws else 0.0)
    assert np.allclose(out["stopword_ratio"], ref_sw)


def test_hll_partial_matches_scalar_reference():
    from pdf4py_ray.functions.hashing import md5_lower64
    from pdf4py_ray.stages.textstats import HllPartial

    ev = pq.read_table("/root/testdata/sf0.001/events.parquet",
                       columns=["event_type", "user_id"]).to_pandas()
    hp = HllPartial("event_type", "user_id")
    got = {(r.event_type, r.register_idx): r.max_rank
           for r in hp(ev.copy()).itertuples()}
    mask = (1 << 54) - 1
    want = {}
    for key, vals in ev.groupby("event_type")["user_id"]:
        regs = {}
        for v in vals:
            h = md5_lower64(str(v))
            idx, rest = h >> 54, h & mask
            rank = 54 - rest.bit_length() + 1
            if rank > regs.get(idx, 0):
                regs[idx] = rank
        for idx, rank in regs.items():
            want[(key, idx)] = rank
    assert got == want


def test_top_words_matches_pandas_reference(ray_session):
    import ray.data as rd

    from pdf4py_ray.stages.textstats import _WORD_RE, top_words

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["doc_id", "text"]).to_pandas()
    got = top_words(rd.from_pandas(t), k=15).to_pandas()
    words = t["text"].fillna("").str.lower().str.findall(_WORD_RE).explode().dropna()
    ref = (words.value_counts().rename_axis("word").reset_index(name="n")
           .sort_values(["n", "word"], ascending=[False, True],
                        kind="mergesort").head(15).reset_index(drop=True))
    ref["n"] = ref["n"].astype("int64")
    assert list(got["word"]) == list(ref["word"])
    assert list(got["n"]) == list(ref["n"])


def test_doc_len_quantiles_matches_sorted_rank(ray_session):
    import math

    import ray.data as rd

    from pdf4py_ray.stages.textstats import doc_len_quantiles

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["text"]).to_pandas()
    # include empty/NULL rows to hit the n_tokens=0 bin
    t = pd.concat([t, pd.DataFrame({"text": ["", None, "a b c"]})],
                  ignore_index=True)
    got = doc_len_quantiles(rd.from_pandas(t))
    text = t["text"].fillna("")
    stripped = text.str.strip()
    n_tokens = np.sort(np.where(stripped.str.len() > 0,
                                stripped.str.count(r"\s+") + 1, 0))
    n = len(n_tokens)
    for p, v in zip(got["p"], got["n_tokens"]):
        assert v == int(n_tokens[max(1, math.ceil(p * n)) - 1])


def test_seq_pack_matches_window_cumsum(ray_session):
    import ray.data as rd

    from pdf4py_ray.stages.textstats import seq_pack

    rng = np.random.default_rng(7)
    # sparse, shuffled ids with gaps; texts of varying token counts
    ids = rng.choice(np.arange(0, 5000, 3), size=600, replace=False)
    texts = ["tok " * int(k) for k in rng.integers(0, 50, size=600)]
    df = pd.DataFrame({"doc_id": ids.astype("int64"), "text": texts})
    got = (seq_pack(rd.from_pandas(df.sample(frac=1, random_state=1)),
                    max_len=128, num_ranges=16)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    ref = df.sort_values("doc_id").reset_index(drop=True)
    stripped = ref["text"].str.strip()
    nt = np.where(stripped.str.len() > 0, stripped.str.count(r"\s+") + 1, 0)
    cum = np.cumsum(nt)
    assert (got["doc_id"].to_numpy() == ref["doc_id"].to_numpy()).all()
    assert (got["n_tokens"].to_numpy() == nt).all()
    assert (got["cum_tokens"].to_numpy() == cum).all()
    assert (got["pack_id"].to_numpy() == (cum - nt) // 128).all()


def test_stratified_sample_per_group_topn(ray_session):
    from hashlib import md5

    import ray.data as rd

    from pdf4py_ray.stages.textstats import stratified_sample

    df = pd.DataFrame({
        "doc_id": np.arange(400, dtype="int64"),
        "grp": np.array(["a", "b", "c", "d"])[np.arange(400) % 4],
    })
    got = (stratified_sample(rd.from_pandas(df), group_col="grp", n=5, seed=9)
           .to_pandas().sort_values(["grp", "sort_key"]).reset_index(drop=True))
    ref = df.assign(sort_key=[md5(f"{i}-9".encode()).hexdigest()
                              for i in df["doc_id"]])
    ref = (ref.sort_values("sort_key").groupby("grp", sort=False).head(5)
           [["grp", "doc_id", "sort_key"]]
           .sort_values(["grp", "sort_key"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["grp", "doc_id", "sort_key"]], ref)
    assert (got.groupby("grp").size() == 5).all()
