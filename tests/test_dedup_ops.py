"""Operator-quality tests: the dedup sketches and ANN must actually
find planted duplicates/neighbours (the driver-table corpus has none,
so these use purpose-built synthetic inputs)."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

BASE = (
    "the quick brown fox jumps over the lazy dog while the storm gathers "
    "slowly over the distant hills and the river keeps moving toward the sea "
    "carrying leaves and branches from last night"
)


@pytest.fixture(scope="module")
def near_dup_docs(ray_session):
    import ray.data as rd

    rows = []
    for i in range(40):
        rows.append({"doc_id": i, "text": f"document {i} " + "unique words " * 10 + str(i)})
    # planted near-dups: 100/101 nearly identical, 102 identical to 100
    rows.append({"doc_id": 100, "text": BASE})
    rows.append({"doc_id": 101, "text": BASE.replace("lazy", "sleepy")})
    rows.append({"doc_id": 102, "text": BASE})
    return rd.from_items(rows)


def test_exact_dedup_keeps_min_id(near_dup_docs):
    from pdf4py_ray.stages.dedup import exact_dedup_representatives

    reps = set(r["doc_id"] for r in exact_dedup_representatives(near_dup_docs).take_all())
    assert 100 in reps and 102 not in reps
    assert len(reps) == 42  # 40 uniques + near-dup 101 + merged {100,102}


def test_minhash_finds_near_dups(near_dup_docs):
    from pdf4py_ray.stages.dedup import minhash_dup_pairs

    pairs = {(r["id_a"], r["id_b"]): r["est_jaccard"]
             for r in minhash_dup_pairs(near_dup_docs, threshold=0.5).take_all()}
    assert (100, 102) in pairs and pairs[(100, 102)] == 1.0
    assert (100, 101) in pairs  # near-dup caught
    assert all(a >= 100 for a, b in pairs)  # no false positives among uniques


def test_simhash_finds_near_dups(near_dup_docs):
    from pdf4py_ray.stages.dedup import simhash_candidates

    pairs = {(r["id_a"], r["id_b"]): r["hamming"]
             for r in simhash_candidates(near_dup_docs, max_hamming=6).take_all()}
    assert pairs.get((100, 102)) == 0
    assert (100, 101) in pairs


def test_ngram_jaccard_verification(near_dup_docs):
    from pdf4py_ray.stages.dedup import minhash_dup_pairs, ngram_jaccard_verify

    pairs = minhash_dup_pairs(near_dup_docs, threshold=0.5)
    verified = {(r["id_a"], r["id_b"]): r["jaccard"]
                for r in ngram_jaccard_verify(near_dup_docs, pairs).take_all()}
    assert verified[(100, 102)] == 1.0
    assert 0.7 < verified[(100, 101)] < 1.0


def test_ngram_jaccard_pairs_inverted_index(near_dup_docs):
    """The distributed (no-candidate-set) path must agree with direct
    set computation on the planted dups."""
    from pdf4py_ray.stages.dedup import char_grams, ngram_jaccard_pairs

    got = {(r["id_a"], r["id_b"]): r["jaccard"]
           for r in ngram_jaccard_pairs(near_dup_docs, threshold=0.5).take_all()}
    assert got[(100, 102)] == 1.0
    # every reported pair matches the direct set computation exactly
    texts = {r["doc_id"]: r["text"] for r in near_dup_docs.take_all()}
    for (a, b), jac in got.items():
        ga, gb = char_grams(texts[a]), char_grams(texts[b])
        assert jac == len(ga & gb) / len(ga | gb), (a, b)
    assert (100, 101) in got and 0.7 < got[(100, 101)] < 1.0


def test_ngram_jaccard_id_limit(near_dup_docs):
    from pdf4py_ray.stages.dedup import ngram_jaccard_pairs

    got = ngram_jaccard_pairs(near_dup_docs, threshold=0.5, id_limit=100).take_all()
    assert got  # filler docs share boilerplate, so pairs exist below the limit
    assert all(r["id_a"] < 100 and r["id_b"] < 100 for r in got)


@pytest.fixture(scope="module")
def clustered_vectors(ray_session):
    import ray.data as rd

    rng = np.random.RandomState(7)
    rows = []
    centers = rng.standard_normal((4, 32)) * 3
    for i in range(200):
        c = i % 4
        v = centers[c] + rng.standard_normal(32) * 0.1
        rows.append({"vec_id": i, "embedding": v.astype(np.float32).tolist()})
    return rd.from_items(rows)


def test_knn_brute_finds_cluster_members(clustered_vectors):
    from pdf4py_ray.stages.similarity import knn_brute

    res = knn_brute(clustered_vectors, num_queries=4).take_all()
    by_query = {}
    for r in res:
        by_query.setdefault(r["query_id"], []).append(r["neighbor_id"])
    for q, neighbors in by_query.items():
        assert len(neighbors) == 5
        assert all(n % 4 == q % 4 for n in neighbors), (q, neighbors)


def test_knn_lsh_recall_vs_brute(clustered_vectors):
    from pdf4py_ray.stages.similarity import knn_brute, knn_lsh

    brute = {(r["query_id"], r["neighbor_id"])
             for r in knn_brute(clustered_vectors, num_queries=4).take_all()}
    lsh = {(r["query_id"], r["neighbor_id"])
           for r in knn_lsh(clustered_vectors, num_queries=4).take_all()}
    recall = len(brute & lsh) / len(brute)
    assert recall >= 0.8, recall


def test_knn_ivf_recall_vs_brute(clustered_vectors):
    from pdf4py_ray.stages.similarity import knn_brute, knn_ivf

    brute = {(r["query_id"], r["neighbor_id"])
             for r in knn_brute(clustered_vectors, num_queries=4).take_all()}
    ivf = {(r["query_id"], r["neighbor_id"])
           for r in knn_ivf(clustered_vectors, num_queries=4).take_all()}
    recall = len(brute & ivf) / len(brute)
    assert recall >= 0.8, recall


def test_knn_join_matches_bounded_ivf(clustered_vectors):
    """The corpus-×-corpus knn_join restricted to the first 4 query
    ids equals the bounded-query knn_ivf with the same centroids and
    probe rule — the distributed cell-keyed shuffle computes the same
    answer as the broadcast-query path."""
    from pdf4py_ray.stages.similarity import knn_ivf, knn_join

    ivf = {(r["query_id"], r["neighbor_id"])
           for r in knn_ivf(clustered_vectors, num_queries=4,
                            n_clusters=8, nprobe=3).take_all()}
    join = {(r["query_id"], r["neighbor_id"])
            for r in knn_join(clustered_vectors, n_clusters=8,
                              nprobe=3).take_all()
            if r["query_id"] < 4}
    assert join == ivf


def test_knn_join_every_vector_is_a_query(clustered_vectors):
    """knn_join answers EVERY vector: 200 queries × exactly k rows,
    no self-matches, and each cluster member's neighbours come from
    its own cluster (the data's cluster gap dominates)."""
    from pdf4py_ray.stages.similarity import knn_join

    rows = knn_join(clustered_vectors, n_clusters=8, nprobe=3).take_all()
    by_query = {}
    for r in rows:
        assert r["query_id"] != r["neighbor_id"]
        by_query.setdefault(r["query_id"], []).append(r["neighbor_id"])
    assert len(by_query) == 200
    assert all(len(v) == 5 for v in by_query.values())
    hits = sum(n % 4 == q % 4 for q, ns in by_query.items() for n in ns)
    assert hits / (200 * 5) >= 0.95


def test_embedding_dup_pairs(ray_session):
    import ray.data as rd

    from pdf4py_ray.stages.dedup import embedding_dup_pairs

    rng = np.random.RandomState(3)
    base = rng.standard_normal(16)
    rows = [
        {"vec_id": 0, "embedding": base.tolist()},
        {"vec_id": 1, "embedding": (base + rng.standard_normal(16) * 0.01).tolist()},
        {"vec_id": 2, "embedding": rng.standard_normal(16).tolist()},
    ]
    ds = rd.from_items(rows)
    pairs = {(r["id_a"], r["id_b"]) for r in embedding_dup_pairs(ds, threshold=0.95).take_all()}
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_textstats_columns(ray_session):
    import ray.data as rd

    from pdf4py_ray.stages.textstats import text_stats

    ds = rd.from_items(
        [
            {"doc_id": 0, "text": "The cat and the dog, in a house."},
            {"doc_id": 1, "text": ""},
            {"doc_id": 2, "text": "der hund und die katze ist nicht mit der maus"},
        ]
    )
    rows = {r["doc_id"]: r for r in text_stats(ds).take_all()}
    r0 = rows[0]
    assert r0["n_tokens"] == 8
    assert r0["n_chars"] == 32
    assert r0["lang_pred"] == "en"
    assert rows[2]["lang_pred"] == "de"
    assert rows[1]["n_tokens"] == 0 and rows[1]["fingerprint"] == 0
    assert rows[0]["fingerprint"] != rows[2]["fingerprint"]


def _pil_available() -> bool:
    try:
        import PIL  # noqa: F401

        return True
    except ImportError:
        return False


@pytest.mark.skipif(_pil_available(), reason="Pillow installed: real decode active")
def test_media_stub_raises_without_deterministic():
    from pdf4py_ray.stages.multimodal import DecodeMedia

    with pytest.raises(NotImplementedError):
        DecodeMedia(deterministic=False).decode_one(b"\xff\xd8\xff...")


def _tiny_png(width: int, height: int) -> bytes:
    """Hand-rolled minimal valid PNG (8-bit grayscale) — the PNG
    container format is public knowledge; no codec lib needed to WRITE
    one, only to decode it."""
    import struct
    import zlib

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + bytes(range(x, x + width)) for x in range(height))
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


def test_media_real_decode_png():
    """deterministic=False decodes REAL dimensions/format and
    histogram features for PNG in EVERY container: Pillow when
    installed, the built-in pure-python decoder otherwise — the two
    paths share the exact integer luminance arithmetic, so the
    expected feature vector below holds for both."""
    import numpy as np

    from pdf4py_ray.stages.multimodal import DecodeMedia

    fmt, n_bytes, h, w, ht, feats = DecodeMedia(
        deterministic=False).decode_one(_tiny_png(13, 7))
    assert (fmt, w, ht) == ("png", 13, 7)
    assert n_bytes > 0 and len(feats) == 8
    assert abs(float(feats.sum()) - 1.0) < 1e-6  # normalized histogram
    # exact expectation from the known gray pixels (row x: x..x+12):
    # histogram over values 0..18, folded into 8 bins of 32 values →
    # every pixel lands in bin 0
    expected = np.zeros(8, dtype=np.float32)
    expected[0] = 1.0
    assert np.allclose(feats, expected)


def _filtered_png_rgb(width: int, height: int) -> tuple[bytes, "np.ndarray"]:
    """RGB PNG exercising ALL five row filters (None/Sub/Up/Average/
    Paeth), with the expected pixel array returned alongside. The
    encoder applies each filter per the public W3C spec §9."""
    import struct
    import zlib

    import numpy as np

    rng = np.random.RandomState(7)
    px = rng.randint(0, 256, size=(height, width, 3)).astype(np.int64)
    bpp = 3
    rowlen = width * bpp
    flat = px.reshape(height, rowlen)

    def paeth(a, b, c):
        p = a + b - c
        pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
        if pa <= pb and pa <= pc:
            return a
        if pb <= pc:
            return b
        return c

    raw = bytearray()
    prev = np.zeros(rowlen, dtype=np.int64)
    for r in range(height):
        ft = r % 5
        cur = flat[r]
        enc = np.zeros(rowlen, dtype=np.int64)
        for i in range(rowlen):
            a = cur[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ft == 0:
                enc[i] = cur[i]
            elif ft == 1:
                enc[i] = cur[i] - a
            elif ft == 2:
                enc[i] = cur[i] - b
            elif ft == 3:
                enc[i] = cur[i] - (a + b) // 2
            else:
                enc[i] = cur[i] - paeth(int(a), int(b), int(c))
        raw.append(ft)
        raw.extend((enc % 256).astype(np.uint8).tobytes())
        prev = cur

    def chunk(tag: bytes, data: bytes) -> bytes:
        return (struct.pack(">I", len(data)) + tag + data
                + struct.pack(">I", zlib.crc32(tag + data) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    payload = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
               + chunk(b"IDAT", zlib.compress(bytes(raw)))
               + chunk(b"IEND", b""))
    return payload, px.astype(np.uint8)


def test_decode_png_all_filters_roundtrip():
    """The built-in PNG decoder reconstructs exact pixels through all
    five spec row filters (the kernel's PDF-quirk predictor would get
    Sub rows wrong — this decoder is spec-correct by design)."""
    import numpy as np

    from pdf4py_ray.stages.multimodal import decode_png

    payload, expected = _filtered_png_rgb(9, 10)
    w, h, c, pixels = decode_png(payload)
    assert (w, h, c) == (9, 10, 3)
    assert np.array_equal(pixels, expected)


def test_media_sniff():
    from pdf4py_ray.stages.multimodal import sniff_media_format

    assert sniff_media_format(b"\xff\xd8\xff\xe0JFIF") == "jpeg"
    assert sniff_media_format(b"\x89PNG\r\n") == "png"
    assert sniff_media_format(b"plain") == "unknown"


def test_dedup_clusters_union_find(ray_session):
    """Chained pairs merge into one component labeled by its min id;
    unpaired docs are their own representatives."""
    import ray.data as rd

    from pdf4py_ray.stages.dedup import dedup_clusters

    docs = rd.from_items([{"doc_id": i, "text": ""} for i in range(6)])
    pairs = rd.from_items([
        {"id_a": 1, "id_b": 3}, {"id_a": 3, "id_b": 5}, {"id_a": 0, "id_b": 4},
    ])
    out = {r["doc_id"]: (r["cluster_id"], r["is_representative"])
           for r in dedup_clusters(docs, pairs).take_all()}
    assert out == {
        0: (0, True), 1: (1, True), 2: (2, True),
        3: (1, False), 4: (0, False), 5: (1, False),
    }


def test_hll_estimate_accuracy(ray_session):
    """HLL estimate from the sketch registers lands within the
    standard-error envelope of the exact distinct count (b=10 →
    sigma ~ 3.25%; assert 4 sigma)."""
    import duckdb
    import ray.data as rd

    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import hll_estimate, hll_registers

    SF = "/root/testdata/sf0.01"
    regs = hll_registers(read_table(SF, "events", ["event_type", "user_id"])).to_pandas()
    est = hll_estimate(regs).set_index("event_type")["distinct_est"]
    exact = duckdb.sql(
        f"SELECT event_type, COUNT(DISTINCT user_id) AS n FROM "
        f"read_parquet('{SF}/events.parquet') GROUP BY event_type"
    ).df().set_index("event_type")["n"]
    assert set(est.index) == set(exact.index)
    for k in exact.index:
        rel_err = abs(est[k] - exact[k]) / exact[k]
        assert rel_err < 0.13, (k, est[k], exact[k])


def test_dedup_clusters_distributed_matches_union_find(ray_session, monkeypatch, spy):
    """``_PAIR_LIMIT = 0`` forces the min-label-propagation path; it must
    produce exactly the union-find labeling on a multi-component graph
    (chain, triangle-with-tail, isolated nodes)."""
    import ray.data as rd

    from pdf4py_ray.stages import dedup as D

    docs = rd.from_items([{"doc_id": i, "text": ""} for i in range(12)])
    pairs = rd.from_items([
        # chain 1-3-5-7 (diameter 3: needs >1 propagation round)
        {"id_a": 1, "id_b": 3}, {"id_a": 3, "id_b": 5}, {"id_a": 5, "id_b": 7},
        # triangle 0-4-8 with tail 8-10
        {"id_a": 0, "id_b": 4}, {"id_a": 4, "id_b": 8}, {"id_a": 0, "id_b": 8},
        {"id_a": 8, "id_b": 10},
    ])
    ran = spy(D, "distributed_components")
    want = {r["doc_id"]: (r["cluster_id"], r["is_representative"])
            for r in D.dedup_clusters(docs, pairs).take_all()}
    assert ran == []
    monkeypatch.setattr(D, "_PAIR_LIMIT", 0)
    got = {r["doc_id"]: (r["cluster_id"], r["is_representative"])
           for r in D.dedup_clusters(docs, pairs).take_all()}
    assert len(ran) == 1  # the forced path ran
    assert got == want
    assert got[7] == (1, False) and got[10] == (0, False) and got[2] == (2, True)


def test_distributed_components_chain_convergence(ray_session, monkeypatch):
    """A 24-node path graph (worst-case diameter for its size) still
    converges and labels every node with the chain minimum."""
    import ray.data as rd

    from pdf4py_ray.stages import dedup as D

    monkeypatch.setattr(D, "_COMPONENT_BUCKETS", 8)
    n = 24
    pairs = rd.from_items([{"id_a": i, "id_b": i + 1} for i in range(n - 1)])
    labels = {r["node"]: r["label"]
              for r in D.distributed_components(pairs).take_all()}
    assert labels == {i: 0 for i in range(n)}


def test_dedup_clusters_distributed_on_real_pairs(ray_session, monkeypatch, spy):
    """The forced-distributed path hash-matches the driver path on the
    sf0.01 MinHash pair graph (the oracle-gated clustering input)."""
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages import dedup as D

    docs = read_table("/root/testdata/sf0.01", "documents", ["doc_id", "text"])
    pairs = D.minhash_dup_pairs(docs).materialize()
    ran = spy(D, "distributed_components")
    a = D.dedup_clusters(docs, pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert ran == []
    monkeypatch.setattr(D, "_PAIR_LIMIT", 0)
    b = (D.dedup_clusters(docs, pairs).to_pandas()
         .sort_values("doc_id").reset_index(drop=True))
    assert len(ran) == 1  # the forced path ran
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)


def test_ngram_hot_gram_cap_bounds_pairs(ray_session):
    """A gram present in 90% of docs must not explode the pair count:
    with the df cap it contributes nothing, and only genuinely similar
    docs pair up. Docs sharing ONLY the hot gram yield no pair rows."""
    import ray.data as rd

    from pdf4py_ray.stages.dedup import ngram_jaccard_pairs

    hot = "COMMONGRAM "  # one shingle shared by 90% of docs
    rows = []
    for i in range(40):
        # per-doc unique tail of disjoint codepoints: no two docs share
        # any gram except through the hot prefix
        uniq = "".join(chr(0x4E00 + i * 16 + j) for j in range(10))
        rows.append({"doc_id": i, "text": (hot if i < 36 else "") + uniq})
    docs = rd.from_items(rows)
    capped = ngram_jaccard_pairs(docs, threshold=0.01, max_gram_df=8).take_all()
    uncapped = ngram_jaccard_pairs(docs, threshold=0.01, max_gram_df=None).take_all()
    # uncapped: every pair of the 36 hot docs shares >=1 gram -> 630+ pairs
    assert len(uncapped) >= 36 * 35 // 2
    # capped: the hot grams are dropped, no doc pair shares a rare gram
    assert len(capped) == 0


def test_ngram_cap_exact_when_under_threshold(near_dup_docs):
    """With every gram under the cap, results are exactly the uncapped
    ones (the driver-oracle regime)."""
    from pdf4py_ray.stages.dedup import ngram_jaccard_pairs

    a = sorted((r["id_a"], r["id_b"], r["jaccard"])
               for r in ngram_jaccard_pairs(near_dup_docs, max_gram_df=10_000).take_all())
    b = sorted((r["id_a"], r["id_b"], r["jaccard"])
               for r in ngram_jaccard_pairs(near_dup_docs, max_gram_df=None).take_all())
    assert a == b and len(a) > 0


def test_ngram_verify_joined_path_matches_broadcast(near_dup_docs, monkeypatch, spy):
    """``_CANDIDATE_LIMIT = 0`` forces the keyed hash_join fallback; it
    must agree with the broadcast semi-join path pair for pair."""
    from pdf4py_ray.stages import dedup as D

    pairs = D.minhash_dup_pairs(near_dup_docs, threshold=0.5).materialize()
    ran = spy(D, "_ngram_verify_joined")
    broad = {(r["id_a"], r["id_b"]): r["jaccard"]
             for r in D.ngram_jaccard_verify(near_dup_docs, pairs).take_all()}
    assert ran == []
    monkeypatch.setattr(D, "_CANDIDATE_LIMIT", 0)
    joined = {(r["id_a"], r["id_b"]): r["jaccard"]
              for r in D.ngram_jaccard_verify(near_dup_docs, pairs).take_all()}
    assert [a[-1] for a in ran] == [len(broad)]  # the forced path ran, on every pair
    assert broad == joined and len(joined) > 0


def test_distributed_components_moderate_graph(ray_session):
    """A 60k-edge synthetic cluster graph (20k nodes in ~4k random
    clusters, plus one 64-node chain for diameter) converges and
    matches a local union-find — the fallback at a realistic pair-graph
    size, not a toy."""
    import ray.data as rd

    from pdf4py_ray.stages.dedup import distributed_components

    rng = np.random.default_rng(3)
    edges = []
    node = 0
    for _ in range(4000):  # clusters of 2-8 nodes, star + a random chord
        size = int(rng.integers(2, 9))
        members = list(range(node, node + size))
        node += size
        for m in members[1:]:
            edges.append((members[0], m))
        if size > 3:
            edges.append((members[1], members[2]))
    chain_base = node
    for i in range(63):  # diameter-63 chain exercises pointer jumping
        edges.append((chain_base + i, chain_base + i + 1))

    # local union-find reference
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    want = {x: find(x) for x in {n for e in edges for n in e}}

    pairs = rd.from_pandas(pd.DataFrame(edges, columns=["id_a", "id_b"]))
    got = {r["node"]: r["label"]
           for r in distributed_components(pairs).take_all()}
    assert got == want


def test_minhash_joined_verify_matches_broadcast(near_dup_docs, monkeypatch):
    """Forcing the above-limit keyed-join verify (as a 10^12-doc corpus
    would use) produces exactly the default (driver) path's pairs at the
    default threshold — and the union inputs are materialized, so the
    joined plan cannot hit the executor's same-upstream union stall
    under a small CPU budget."""
    import pandas as pd

    from pdf4py_ray.stages import dedup as D

    base = (D.minhash_dup_pairs(near_dup_docs).to_pandas()
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    monkeypatch.setattr(D, "_SIG_BROADCAST_DOCS", 0)
    joined = (D.minhash_dup_pairs(near_dup_docs).to_pandas()
              .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        base[["id_a", "id_b", "est_jaccard"]],
        joined[["id_a", "id_b", "est_jaccard"]],
    )


def _brute_band_pairs(ids, keys) -> list:
    """Sorted (id_a < id_b) pairs of distinct ids whose rows share any
    band key — the LSH candidate definition, pair by pair."""
    out = set()
    for i in range(len(ids)):
        for j in range(len(ids)):
            if ids[i] < ids[j] and set(keys[i]) & set(keys[j]):
                out.add((int(ids[i]), int(ids[j])))
    return sorted(out)


@st.composite
def _band_corpus(draw):
    n = draw(st.integers(0, 14))
    bands = draw(st.integers(1, 5))
    ids = draw(st.lists(st.integers(-3, 9), min_size=n, max_size=n))
    keys = draw(st.lists(st.lists(st.integers(-2**63, 2**63 - 1) | st.integers(0, 5),
                                  min_size=bands, max_size=bands),
                         min_size=n, max_size=n))
    return (np.array(ids, dtype=np.int64),
            np.array(keys, dtype=np.int64).reshape(n, bands))


@settings(max_examples=300, deadline=None)
@given(_band_corpus())
@example((np.empty(0, np.int64), np.empty((0, 16), np.int64)))           # empty input
@example((np.array([7]), np.arange(16).reshape(1, 16)))                  # one doc
@example((np.array([3, 3, 1]), np.zeros((3, 4), np.int64)))               # duplicate ids
@example((np.arange(6)[::-1].copy(), np.tile(np.arange(16), (6, 1))))     # all identical
def test_lsh_candidates_match_brute_force(corpus):
    from pdf4py_ray.stages.dedup import lsh_candidates

    ids, keys = corpus
    want = _brute_band_pairs(ids, keys)
    id_a, id_b, row_a, row_b = lsh_candidates(ids, keys, limit=len(ids) ** 2 * keys.shape[1])
    assert list(zip(id_a.tolist(), id_b.tolist())) == want
    first = {}
    for row, doc in enumerate(ids.tolist()):
        first.setdefault(doc, row)
    assert [first[a] for a in id_a.tolist()] == row_a.tolist()
    assert [first[b] for b in id_b.tolist()] == row_b.tolist()


def test_lsh_candidates_limit_counts_raw_candidates():
    """The limit is checked against Σ k(k−1)/2 over equal-key runs
    before any pair is built: three identical docs in four bands are
    4 × 3 = 12 raw candidates (3 distinct pairs)."""
    from pdf4py_ray.stages.dedup import lsh_candidates

    ids, keys = np.array([5, 6, 7]), np.zeros((3, 4), np.int64)
    keys[:] = np.arange(4)
    assert lsh_candidates(ids, keys, limit=11) is None
    id_a, id_b, _, _ = lsh_candidates(ids, keys, limit=12)
    assert list(zip(id_a.tolist(), id_b.tolist())) == [(5, 6), (5, 7), (6, 7)]


def _regime_pairs(docs, **kwargs):
    """(sorted pair frame, names of the verify regimes that ran). The
    threshold is 0, so every LSH candidate is reported and the frames
    pin candidate generation as well as the estimates."""
    from pdf4py_ray.stages import dedup as D

    ran = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_driver_verify", "_broadcast_verify", "_joined_pairs"):
            real = getattr(D, name)
            mp.setattr(D, name, lambda *a, _n=name, _f=real: ran.append(_n) or _f(*a))
        frame = (D.minhash_dup_pairs(docs, threshold=0.0, **kwargs).to_pandas()
                 .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    return frame[["id_a", "id_b", "est_jaccard"]], ran


def test_minhash_three_regimes_agree(near_dup_docs, monkeypatch):
    """Driver LSH, the candidate-limit fallback (shuffle LSH over the
    held band keys + broadcast verify) and the keyed join each run when
    forced, and all three give the same pairs and estimates."""
    from pdf4py_ray.stages import dedup as D

    n = near_dup_docs.count()
    driver, ran = _regime_pairs(near_dup_docs, rows_hint=n)
    assert ran == ["_driver_verify"]
    pairs = set(zip(driver["id_a"], driver["id_b"]))
    assert {(100, 101), (100, 102), (101, 102)} < pairs  # and filler collisions
    unhinted, ran = _regime_pairs(near_dup_docs)
    assert ran == ["_driver_verify"]

    monkeypatch.setattr(D, "_DRIVER_CANDIDATES", 0)
    fallback, ran = _regime_pairs(near_dup_docs, rows_hint=n)
    assert ran == ["_broadcast_verify"]

    monkeypatch.setattr(D, "_SIG_BROADCAST_DOCS", 0)
    joined, ran = _regime_pairs(near_dup_docs, rows_hint=n)
    assert ran == ["_joined_pairs"]

    for other in (unhinted, fallback, joined):
        pd.testing.assert_frame_equal(driver, other)


def test_minhash_understated_rows_hint_falls_back(near_dup_docs, monkeypatch):
    """A ``rows_hint`` below the true corpus size picks the driver
    regime, but collection stops once the rows pass
    ``_SIG_BROADCAST_DOCS`` and the keyed join gives the same pairs."""
    from pdf4py_ray.stages import dedup as D

    base, _ = _regime_pairs(near_dup_docs)
    gathered = []
    real_gather = D._gather_sketches
    monkeypatch.setattr(D, "_SIG_BROADCAST_DOCS", 20)
    monkeypatch.setattr(D, "_gather_sketches",
                        lambda *a: gathered.append(real_gather(*a)) or gathered[-1])
    ran = []
    real_joined = D._joined_pairs
    monkeypatch.setattr(D, "_joined_pairs",
                        lambda *a: ran.append(a[-1]) or real_joined(*a))
    got = (D.minhash_dup_pairs(near_dup_docs, threshold=0.0, rows_hint=10).to_pandas()
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    assert gathered == [None]
    assert ran == [near_dup_docs.count()]  # the keyed join is sized by the real count
    pd.testing.assert_frame_equal(base, got[["id_a", "id_b", "est_jaccard"]])
