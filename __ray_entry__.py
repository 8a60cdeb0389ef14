"""Driver contract for the pdf4py_ray engine.

``entry()`` runs the flagship transcript-extraction pipeline at
sf0.001; ``queries()`` exposes one callable per implemented operator
(SURVEY §2 + the training-data operators); ``oracle_sql()`` gives the
DuckDB-checkable subset (value-hash gate). Non-SQL-expressible ops
(extraction, sketch dedup, LSH ANN, media stubs) are rows-only checks.

Ray is initialised by the driver BEFORE this module is imported; no
``ray.init``/``ray.shutdown`` happens here or in the library.

Float discipline for the oracle gate: every aggregated money/quantity
column is integer cents; ratio columns are single IEEE divisions of
exact integers — bit-identical between the Ray pipelines and DuckDB.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

_REPO_ROOT = os.path.dirname(os.path.abspath(__file__))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)


def _ship_package_by_value() -> None:
    """Make the library importable inside Ray workers even when the
    driver process was launched from another working directory: ship
    every ``pdf4py_ray`` module by value through cloudpickle.

    Benchmarks set PDF4PY_RAY_NO_BYVALUE=1 to skip this: by-value
    serialization re-ships module sources with every task/actor
    (~6 s on the sf0.1 headline) and is only needed when workers
    cannot import the package from disk."""
    if os.environ.get("PDF4PY_RAY_NO_BYVALUE"):
        return
    try:
        import importlib
        import pkgutil

        # Ray serializes with its *vendored* cloudpickle — register there
        from ray import cloudpickle

        import pdf4py_ray

        # every module of the package, so none is left out by name
        for info in pkgutil.walk_packages(pdf4py_ray.__path__, "pdf4py_ray."):
            importlib.import_module(info.name)
        for name, module in list(sys.modules.items()):
            if name == "pdf4py_ray" or name.startswith("pdf4py_ray."):
                cloudpickle.register_pickle_by_value(module)
    except Exception:  # pragma: no cover — workers sharing cwd still work
        pass


_ship_package_by_value()

from pdf4py_ray.sources.transcripts import table_rows  # noqa: E402 (needs the path above)

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline: synthesize transcript turns from sf0.001
    documents, extract main content (PDF/HTML/plain), stable-sort."""
    from pdf4py_ray.pipelines.extract_pipeline import extract, synth_source

    ds = extract(synth_source(SF_SMOKE))
    return ds.select_columns(
        ["conv_id", "turn_idx", "kind", "extracted_text", "status", "n_objects", "n_bytes"]
    )


# ---------------------------------------------------------------- queries


def _extract_turns(sf_dir: str):
    """Flagship extraction — value-gated against a committed golden
    parquet (regenerate with ``scripts/regen_goldens.py``); the span
    offsets live in ``x_extract_spans`` (list column, rows-only)."""
    from pdf4py_ray.pipelines.extract_pipeline import extract, synth_source

    ds = extract(synth_source(sf_dir))
    return ds.select_columns(
        ["conv_id", "turn_idx", "kind", "extracted_text", "status",
         "n_objects", "n_bytes"]
    )


def _extract_spans(sf_dir: str):
    """Span offsets flattened to scalar rows (conv_id, turn_idx,
    span_idx, start, end, kind) — golden-parquet value gate."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset, synth_source

    # unsorted: spans need no global order (the flattened rows carry
    # their own keys) and the pyarrow blocks keep the list type intact
    ds = extraction_dataset(synth_source(sf_dir))

    def flatten(batch: pa.Table) -> pa.Table:
        spans = batch["spans"].combine_chunks()
        rows = pc.list_parent_indices(spans)
        flat = pc.list_flatten(spans)
        lengths = pc.list_value_length(spans).fill_null(0).to_numpy()
        first = np.cumsum(lengths) - lengths  # each row's offset into `flat`
        return pa.table({
            "conv_id": batch["conv_id"].take(rows).cast(pa.string()),
            "turn_idx": batch["turn_idx"].take(rows).cast(pa.int32()),
            "span_idx": pa.array(np.arange(len(flat)) - first[rows.to_numpy()], pa.int32()),
            "start": flat.field("start"),
            "end": flat.field("end"),
            "kind": flat.field("kind"),
        })

    return ds.select_columns(["conv_id", "turn_idx", "spans"]).map_batches(
        flatten, batch_format="pyarrow"
    )


def _extract_metrics(sf_dir: str):
    from ray.data.aggregate import Count, Sum

    from pdf4py_ray.pipelines.extract_pipeline import extraction_dataset, synth_source

    ds = extraction_dataset(synth_source(sf_dir))
    return ds.groupby(["kind", "status"]).aggregate(
        Count(alias_name="n_turns"), Sum("n_bytes", alias_name="payload_bytes")
    )


def _extract_write(sf_dir: str):
    """Exercise the resumable sink: the ordered write into a scratch
    dir; returns the bucket manifests' metrics table (deterministic
    under the split points from the documents table)."""
    import shutil
    import tempfile

    import pandas as pd
    from pyarrow import fs as pafs

    from pdf4py_ray.pipelines import checkpoint
    from pdf4py_ray.pipelines.extract_pipeline import extract, synth_source

    out_dir = tempfile.mkdtemp(prefix="pdf4py_ray_write_")
    try:
        extract(synth_source(sf_dir), out_dir)
        committed = checkpoint.committed_buckets(pafs.LocalFileSystem(), out_dir)
        return pd.DataFrame([{"sort_bucket": b, "rows": m["rows"], "errors": m["errors"]}
                             for b, m in sorted(committed.items())])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def _range_join(sf_dir: str):
    from pdf4py_ray.stages.relational import range_join_orders_events

    return range_join_orders_events(sf_dir)


def _hll_registers(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import hll_registers

    return hll_registers(read_table(sf_dir, "events", ["event_type", "user_id"]))


def _asof_join(sf_dir: str):
    from pdf4py_ray.stages.relational import asof_join_events_orders

    return asof_join_events_orders(sf_dir)


def _dedup_clusters(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import dedup_clusters, minhash_dup_pairs

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    n_docs = table_rows(sf_dir, "documents")
    return dedup_clusters(docs, minhash_dup_pairs(docs, rows_hint=n_docs))


def _cluster_best(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import cluster_best, minhash_dup_pairs

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    n_docs = table_rows(sf_dir, "documents")
    return cluster_best(docs, minhash_dup_pairs(docs, rows_hint=n_docs),
                        rows_hint=2 * n_docs)


def _exact_dedup(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import exact_dedup_representatives

    return exact_dedup_representatives(read_table(sf_dir, "documents", ["doc_id", "text"]))


def _exact_dup_groups(sf_dir: str):
    import pandas as pd

    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import exact_dup_groups

    ds = exact_dup_groups(read_table(sf_dir, "documents", ["doc_id", "text"]))
    # a count keeps the result schema stable even when no dups exist
    return pd.DataFrame({"n_dup_groups": [int(ds.count())]})


def _minhash_pairs(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import minhash_dup_pairs

    return minhash_dup_pairs(read_table(sf_dir, "documents", ["doc_id", "text"]),
                             rows_hint=table_rows(sf_dir, "documents"))


def _simhash_pairs(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import simhash_candidates

    return simhash_candidates(read_table(sf_dir, "documents", ["doc_id", "text"]),
                              rows_hint=table_rows(sf_dir, "documents"))


def _ngram_jaccard(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        read_table(sf_dir, "documents", ["doc_id", "text"]),
        threshold=0.5, id_limit=256,
        rows_hint=min(256, table_rows(sf_dir, "documents")),
    )


def _ngram_verify(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import minhash_dup_pairs, ngram_jaccard_verify

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_dup_pairs(docs, rows_hint=table_rows(sf_dir, "documents"))
    return ngram_jaccard_verify(docs, pairs).select_columns(["id_a", "id_b"])


def _embedding_dups(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.dedup import embedding_dup_pairs

    ds = embedding_dup_pairs(
        read_table(sf_dir, "embeddings", ["vec_id", "embedding"]), threshold=0.2
    )
    return ds.select_columns(["id_a", "id_b"])


def _text_stats(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import text_stats

    ds = text_stats(read_table(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(
        ["doc_id", "n_chars", "n_tokens", "n_bpe_tokens", "punct_ratio",
         "stopword_ratio", "quality_score"]
    )


def _lang_id(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import text_stats

    ds = text_stats(read_table(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "lang_pred"])


def _fingerprints(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import text_stats

    ds = text_stats(read_table(sf_dir, "documents", ["doc_id", "text"]))
    return ds.select_columns(["doc_id", "fingerprint"])


def _top_words(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import top_words

    return top_words(read_table(sf_dir, "documents", ["text"]),
                     rows_hint=table_rows(sf_dir, "documents"))


def _len_quantiles(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import doc_len_quantiles

    return doc_len_quantiles(read_table(sf_dir, "documents", ["text"]),
                             rows_hint=table_rows(sf_dir, "documents"))


def _stratified_sample(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import stratified_sample, text_stats

    ds = text_stats(read_table(sf_dir, "documents", ["doc_id", "text"]))
    return stratified_sample(ds.select_columns(["doc_id", "lang_pred"]))


def _seq_pack(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import seq_pack

    return seq_pack(read_table(sf_dir, "documents", ["doc_id", "text"]),
                    rows_hint=table_rows(sf_dir, "documents"))


def _train_test_split(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import train_test_split_counts

    return train_test_split_counts(read_table(sf_dir, "documents", ["doc_id"]))


def _shuffled_sample(sf_dir: str):
    """Deterministic hash-rank sample (SQL-replicable); the seeded
    ``random_shuffle`` epoch-shuffle API stays available as
    ``textstats.shuffled_sample`` (covered by in-repo tests — Ray's
    shuffle order is not SQL-expressible)."""
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import hash_sample

    return hash_sample(read_table(sf_dir, "documents", ["doc_id", "text"]))


def _knn_brute(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.similarity import knn_brute

    ds = knn_brute(read_table(sf_dir, "embeddings", ["vec_id", "embedding"]),
                   num_queries=8)
    return ds.select_columns(["query_id", "neighbor_id"])


def _knn_ivf(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.similarity import knn_ivf

    ds = knn_ivf(read_table(sf_dir, "embeddings", ["vec_id", "embedding"]),
                 num_queries=8)
    return ds.select_columns(["query_id", "neighbor_id"])


def _knn_lsh(sf_dir: str):
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.similarity import knn_lsh

    ds = knn_lsh(read_table(sf_dir, "embeddings", ["vec_id", "embedding"]),
                 num_queries=8)
    return ds.select_columns(["query_id", "neighbor_id"])


def _knn_join(sf_dir: str):
    """Corpus-×-corpus ANN join — top-5 neighbours for EVERY vector
    via the IVF cell-keyed shuffle (no bounded query set)."""
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.similarity import knn_join

    ds = knn_join(read_table(sf_dir, "embeddings", ["vec_id", "embedding"]),
                  n_clusters=16, nprobe=4)
    return ds.select_columns(["query_id", "neighbor_id"])


def _media_decode(sf_dir: str):
    import ray.data as rd

    from pdf4py_ray.stages.multimodal import decode_media, synth_media_table

    return decode_media(rd.from_arrow(synth_media_table(96))).select_columns(
        ["media_id", "kind", "format", "n_bytes", "content_hash", "width", "height"]
    )


def _frame_sample(sf_dir: str):
    import ray.data as rd

    from pdf4py_ray.stages.multimodal import sample_frames, synth_media_table

    media = rd.from_arrow(synth_media_table(96)).filter(expr="kind == 'video'")
    return sample_frames(media)


def queries() -> dict[str, Callable[[str], Any]]:
    from pdf4py_ray.stages import relational as rel

    return {
        # flagship extraction (non-SQL: synthesized payload corpus)
        "x_extract_turns": _extract_turns,
        "x_extract_spans": _extract_spans,
        "x_extract_metrics": _extract_metrics,
        "x_extract_write": _extract_write,
        # relational engine layer (SURVEY §2.6)
        "q_pricing_summary": rel.pricing_summary,
        "q_revenue_by_segment": rel.revenue_by_segment,
        "q_orders_per_nation": rel.orders_per_nation,
        "q_event_gaps": rel.event_gaps,
        "q_users_per_event_type": rel.users_per_event_type,
        "q_customer_order_counts": rel.customer_order_counts,
        "q_customers_with_orders": rel.customers_with_orders,
        "q_customers_no_orders": rel.customers_without_orders,
        "q_customers_per_region": rel.customers_per_region,
        "q_local_supplier_revenue": rel.local_supplier_revenue,
        "q_parts_by_brand": rel.parts_by_brand,
        "q_top_orders": rel.top_orders,
        "q_top_orders_per_segment": rel.top_orders_per_segment,
        "q_region_nation_names": rel.region_nation_names,
        "q_revenue_filtered": rel.revenue_filtered,
        "q_distinct_event_types": rel.distinct_event_types,
        "q_daily_event_stats": rel.daily_event_stats,
        "q_trailing_event_avg": rel.trailing_event_avg,
        "q_user_sessions": rel.user_sessions,
        "q_asof_join": _asof_join,
        "q_range_join": _range_join,
        "t_hll_registers": _hll_registers,
        # dedup family
        "d_exact_dedup": _exact_dedup,
        "d_exact_dup_groups": _exact_dup_groups,
        "d_minhash_pairs": _minhash_pairs,
        "d_simhash_pairs": _simhash_pairs,
        "d_ngram_jaccard": _ngram_jaccard,
        "d_ngram_verify": _ngram_verify,
        "d_embedding_dups": _embedding_dups,
        "d_dedup_clusters": _dedup_clusters,
        "d_cluster_best": _cluster_best,
        # text analysis
        "t_text_stats": _text_stats,
        "t_lang_id": _lang_id,
        "t_fingerprints": _fingerprints,
        "t_top_words": _top_words,
        "t_len_quantiles": _len_quantiles,
        "t_seq_pack": _seq_pack,
        "t_stratified_sample": _stratified_sample,
        "t_train_test_split": _train_test_split,
        "t_shuffled_sample": _shuffled_sample,
        # similarity search
        "s_knn_brute": _knn_brute,
        "s_knn_lsh": _knn_lsh,
        "s_knn_ivf": _knn_ivf,
        "s_knn_join": _knn_join,
        # multimodal plumbing (stubbed decode)
        "m_media_decode": _media_decode,
        "m_frame_sample": _frame_sample,
    }


# ---------------------------------------------------------------- oracle SQL

_BPE_PATTERN = r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+"
_STOPWORDS_SQL = "'the','and','of','to','a','in','is','it','that','for','on','with','as'"


_GOLDEN_DIR = os.path.join(_REPO_ROOT, "tests", "golden")

# the driver executes oracle SQL against the sf0.01 views; the IVF
# oracle's centroid literals are data-dependent, so they are derived
# from the same table (overridable for ad-hoc checks at another sf)
_ORACLE_SF_DIR = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")

_EMBED_DIM = 64  # dimension of the embeddings table (TESTDATA.md)


def _sql_vec(vec) -> str:
    """Exact-round-trip DOUBLE[] literal (repr floats survive the
    text→binary round trip bit-for-bit)."""
    return "[" + ",".join(repr(float(x)) for x in vec) + "]"


_MEDIA_ORACLE_DIR = "/tmp/pdf4py_ray_media_oracle"


def _media_oracle_dir() -> str:
    """Independent re-derivation of the multimodal expected outputs.

    Rebuilds the synthetic media corpus and the deterministic decode /
    frame-sample results from their PUBLISHED SPEC (magic prefixes,
    ``blake2b-8`` big-endian content hash, hash-derived dimensions,
    4-chunk frame split) with code written against the spec — nothing
    imported from ``stages.multimodal`` — and writes them to a temp
    parquet the SQL oracle reads. Regenerated on every call so a stale
    file can never self-bless engine output."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    def h64(b: bytes) -> int:
        return int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "big")

    kinds = ["image", "audio", "video"]
    magics = [b"\xff\xd8\xff", b"RIFF", b"\x00\x00\x00 ftyp"]
    fmts = ["jpeg", "riff-wav", "mp4"]
    dec = {"media_id": [], "kind": [], "format": [], "n_bytes": [],
           "content_hash": [], "width": [], "height": []}
    frames = {"media_id": [], "frame_idx": [], "frame_hash": []}
    for i in range(96):
        k = i % 3
        body = magics[k] + bytes((i * 31 + j) % 256 for j in range(256 + i % 128))
        h = h64(body)
        dec["media_id"].append(i)
        dec["kind"].append(kinds[k])
        dec["format"].append(fmts[k])
        dec["n_bytes"].append(len(body))
        dec["content_hash"].append(h >> 1)
        dec["width"].append(16 + h % 1024)
        dec["height"].append(16 + (h >> 10) % 1024)
        if kinds[k] == "video":
            step = max(1, len(body) // 4)
            for fi in range(4):
                frames["media_id"].append(i)
                frames["frame_idx"].append(fi)
                frames["frame_hash"].append(h64(body[fi * step:(fi + 1) * step]) >> 1)
    os.makedirs(_MEDIA_ORACLE_DIR, exist_ok=True)
    decode_t = pa.table({
        "media_id": pa.array(dec["media_id"], type=pa.int64()),
        "kind": pa.array(dec["kind"], type=pa.string()),
        "format": pa.array(dec["format"], type=pa.string()),
        "n_bytes": pa.array(dec["n_bytes"], type=pa.int64()),
        "content_hash": pa.array(dec["content_hash"], type=pa.int64()),
        "width": pa.array(dec["width"], type=pa.int32()),
        "height": pa.array(dec["height"], type=pa.int32()),
    })
    frame_t = pa.table({
        "media_id": pa.array(frames["media_id"], type=pa.int64()),
        "frame_idx": pa.array(frames["frame_idx"], type=pa.int32()),
        "frame_hash": pa.array(frames["frame_hash"], type=pa.int64()),
    })
    for name, t in (("m_media_decode", decode_t), ("m_frame_sample", frame_t)):
        tmp = os.path.join(_MEDIA_ORACLE_DIR, f".{name}.{os.getpid()}.tmp")
        pq.write_table(t, tmp)
        os.replace(tmp, os.path.join(_MEDIA_ORACLE_DIR, f"{name}.parquet"))
    return _MEDIA_ORACLE_DIR


def _ann_lsh_sql() -> str:
    """Full SQL recomputation of the sign-LSH ANN query — no golden
    file. The hyperplanes are the engine's seeded family
    (``similarity._planes``: RandomState(42) standard normals),
    re-derived here and embedded as DOUBLE[] literals; sign(dot) is
    scale-invariant, so the SQL skips the normalization step (measured
    min |dot| ≈ 1.5e-4 across all sf levels — eleven orders of
    magnitude above float noise, signs cannot flip). The probe set
    (own bucket + 1-bit + 2-bit flips) is exactly Hamming ≤ 2 between
    bucket codes; candidates rank by cosine with the same
    (cosine DESC, id ASC) tie-break as the engine's global reduce."""
    import numpy as np

    planes = np.random.RandomState(42).standard_normal((_EMBED_DIM, 12))
    bucket_expr = "\n                 + ".join(
        f"(CASE WHEN list_dot_product(v, {_sql_vec(planes[:, i])}) > 0 "
        f"THEN {1 << i} ELSE 0 END)"
        for i in range(12)
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
        ), b AS (
          SELECT vec_id, v, CAST({bucket_expr} AS BIGINT) AS bucket FROM e
        )
        SELECT query_id, neighbor_id FROM (
          SELECT q.vec_id AS query_id, n.vec_id AS neighbor_id,
                 ROW_NUMBER() OVER (
                     PARTITION BY q.vec_id
                     ORDER BY list_cosine_similarity(q.v, n.v) DESC, n.vec_id
                 ) AS rnk
          FROM b q JOIN b n
            ON n.vec_id <> q.vec_id
           AND bit_count(xor(q.bucket, n.bucket)) <= 2
          WHERE q.vec_id < 8
        ) ranked WHERE rnk <= 5
    """


def _ivf_oracle_centroids():
    """Independent re-derivation of the IVF coarse centroids from the
    published spec (normalize the first ``IVF_SAMPLE`` file-order rows,
    Lloyd's k-means: RandomState(42) init choice, 8 iterations, argmax
    assignment, re-normalized means) — written against the spec, not
    imported from the engine, so an engine bucketing bug cannot
    self-bless. Verified bit-identical to the engine's centroids on the
    driver table."""
    import numpy as np
    import pyarrow.parquet as pq

    raw = np.array(
        pq.read_table(
            os.path.join(_ORACLE_SF_DIR, "embeddings.parquet"),
            columns=["embedding"],
        )["embedding"].to_pylist(),
        dtype=np.float64,
    )[:2048]
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    sample = raw / norms[:, None]
    rng = np.random.RandomState(42)
    k = min(16, len(sample))
    cents = sample[rng.choice(len(sample), size=k, replace=False)]
    for _ in range(8):
        assign = np.argmax(sample @ cents.T, axis=1)
        for j in range(k):
            members = sample[assign == j]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[j] = v / n
    return cents


def _ann_ivf_sql() -> str:
    """Full SQL recomputation of the IVF ANN query — no golden file.
    Centroids come from :func:`_ivf_oracle_centroids` as DOUBLE[]
    literals; each vector's cell is the argmax of its centroid dots
    (``list_position(dots, list_max(dots))`` = first-max, matching
    ``np.argmax``; raw dots — argmax is scale-invariant, measured
    min top-2 gap ≈ 3.4e-3); each query probes its 4 best cells
    (ROW_NUMBER over dot DESC), and candidates in probed cells rank by
    cosine with the engine's (cosine DESC, id ASC) tie-break."""
    cents = _ivf_oracle_centroids()
    dots = ",\n                 ".join(
        f"list_dot_product(v, {_sql_vec(c)})" for c in cents
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
        ), d AS (
          SELECT vec_id, v, [{dots}] AS dots FROM e
        ), cells AS (
          SELECT vec_id, v,
                 list_position(dots, list_max(dots)) - 1 AS cell
          FROM d
        ), probes AS (
          SELECT vec_id AS query_id, i AS cell_idx FROM (
            SELECT d.vec_id, g.i,
                   ROW_NUMBER() OVER (
                       PARTITION BY d.vec_id
                       ORDER BY d.dots[g.i + 1] DESC, g.i
                   ) AS rnk
            FROM d CROSS JOIN (SELECT unnest(range(0, {len(cents)})) AS i) g
            WHERE d.vec_id < 8
          ) pr WHERE rnk <= 4
        )
        SELECT query_id, neighbor_id FROM (
          SELECT p.query_id, n.vec_id AS neighbor_id,
                 ROW_NUMBER() OVER (
                     PARTITION BY p.query_id
                     ORDER BY list_cosine_similarity(q.v, n.v) DESC, n.vec_id
                 ) AS rnk
          FROM probes p
          JOIN cells n ON n.cell = p.cell_idx AND n.vec_id <> p.query_id
          JOIN e q ON q.vec_id = p.query_id
        ) ranked WHERE rnk <= 5
    """


def _ann_join_sql() -> str:
    """Full SQL recomputation of the corpus-×-corpus ANN join — the
    :func:`_ann_ivf_sql` machinery with the bounded-query filter
    removed: EVERY vector probes its 4 best cells and ranks the probed
    cells' members by cosine (same independent centroid re-derivation,
    same first-max cell assignment, same (cosine DESC, id ASC)
    tie-break as the engine's global reduce)."""
    cents = _ivf_oracle_centroids()
    dots = ",\n                 ".join(
        f"list_dot_product(v, {_sql_vec(c)})" for c in cents
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
        ), d AS (
          SELECT vec_id, v, [{dots}] AS dots FROM e
        ), cells AS (
          SELECT vec_id, v,
                 list_position(dots, list_max(dots)) - 1 AS cell
          FROM d
        ), probes AS (
          SELECT vec_id AS query_id, i AS cell_idx FROM (
            SELECT d.vec_id, g.i,
                   ROW_NUMBER() OVER (
                       PARTITION BY d.vec_id
                       ORDER BY d.dots[g.i + 1] DESC, g.i
                   ) AS rnk
            FROM d CROSS JOIN (SELECT unnest(range(0, {len(cents)})) AS i) g
          ) pr WHERE rnk <= 4
        )
        SELECT query_id, neighbor_id FROM (
          SELECT p.query_id, n.vec_id AS neighbor_id,
                 ROW_NUMBER() OVER (
                     PARTITION BY p.query_id
                     ORDER BY list_cosine_similarity(q.v, n.v) DESC, n.vec_id
                 ) AS rnk
          FROM probes p
          JOIN cells n ON n.cell = p.cell_idx AND n.vec_id <> p.query_id
          JOIN e q ON q.vec_id = p.query_id
        ) ranked WHERE rnk <= 5
    """


def oracle_sql() -> dict[str, str]:
    out = _oracle_sql_base()
    # connected components over the MinHash pair graph: recursive CTE
    # enumerates reachable labels, MIN per node = component minimum
    out["d_dedup_clusters"] = """
        WITH RECURSIVE pairs AS (SELECT id_a, id_b FROM (""" + out["d_minhash_pairs"] + """)),
        edges AS (
          SELECT id_a AS u, id_b AS v FROM pairs
          UNION ALL SELECT id_b, id_a FROM pairs
        ),
        cc AS (
          SELECT u AS node, u AS label FROM edges
          UNION
          SELECT e.u, c.label FROM edges e JOIN cc c ON e.v = c.node
        ),
        lab AS (SELECT node, MIN(label) AS root FROM cc GROUP BY node)
        SELECT d.doc_id, COALESCE(l.root, d.doc_id) AS cluster_id,
               COALESCE(l.root, d.doc_id) = d.doc_id AS is_representative
        FROM documents d LEFT JOIN lab l ON l.node = d.doc_id
    """
    # d_ngram_verify emits the MinHash candidate pairs (the exact-Jaccard
    # verification adds a column the query then drops), so its value
    # oracle is the pair-id projection of the MinHash recomputation
    out["d_ngram_verify"] = (
        "SELECT id_a, id_b FROM (" + out["d_minhash_pairs"] + ")"
    )
    # representative selection: per cluster the max-quality doc (tie →
    # min id); clusters from the recursive CTE, quality from the
    # t_text_stats expression — both already value-gated on their own
    # stratified sample: n smallest md5(id-seed) ranks per language
    # group — language from the already-gated t_lang_id expression
    out["t_stratified_sample"] = """
        WITH l AS (""" + out["t_lang_id"] + """),
        r AS (
          SELECT lang_pred, doc_id,
                 md5(CAST(doc_id AS VARCHAR) || '-42') AS sort_key,
                 row_number() OVER (
                   PARTITION BY lang_pred
                   ORDER BY md5(CAST(doc_id AS VARCHAR) || '-42')
                 ) AS rn
          FROM l
        )
        SELECT lang_pred, doc_id, sort_key FROM r WHERE rn <= 20
    """
    out["d_cluster_best"] = """
        WITH RECURSIVE pairs AS (SELECT id_a, id_b FROM (""" + out["d_minhash_pairs"] + """)),
        edges AS (
          SELECT id_a AS u, id_b AS v FROM pairs
          UNION ALL SELECT id_b, id_a FROM pairs
        ),
        cc AS (
          SELECT u AS node, u AS label FROM edges
          UNION
          SELECT e.u, c.label FROM edges e JOIN cc c ON e.v = c.node
        ),
        lab AS (SELECT node, MIN(label) AS root FROM cc GROUP BY node),
        clusters AS (
          SELECT d.doc_id, COALESCE(l.root, d.doc_id) AS cluster_id
          FROM documents d LEFT JOIN lab l ON l.node = d.doc_id
        ),
        q AS (SELECT doc_id, quality_score FROM (""" + out["t_text_stats"] + """))
        SELECT cluster_id, doc_id AS best_doc_id, quality_score AS best_quality
        FROM (
          SELECT c.cluster_id, c.doc_id, q.quality_score,
                 row_number() OVER (PARTITION BY c.cluster_id
                                    ORDER BY q.quality_score DESC, c.doc_id) AS rn
          FROM clusters c JOIN q ON q.doc_id = c.doc_id
        ) WHERE rn = 1
    """
    return out


def _oracle_sql_base() -> dict[str, str]:
    return {
        # the flagship is value-gated against a committed golden file
        # (sf0.01 output, generated by scripts/regen_goldens.py and
        # itself validated against the kernel's reference-corpus and
        # per-turn parity tests); read_parquet keeps schema + values
        # bit-identical for the driver's hash compare
        "x_extract_turns": f"""
            SELECT conv_id, turn_idx, kind, extracted_text, status,
                   n_objects, n_bytes
            FROM read_parquet('{_GOLDEN_DIR}/x_extract_turns_sf001.parquet')
        """,
        "x_extract_metrics": f"""
            SELECT kind, status, n_turns, payload_bytes
            FROM read_parquet('{_GOLDEN_DIR}/x_extract_metrics_sf001.parquet')
        """,
        "x_extract_spans": f"""
            SELECT conv_id, turn_idx, span_idx, start, "end", kind
            FROM read_parquet('{_GOLDEN_DIR}/x_extract_spans_sf001.parquet')
        """,
        "x_extract_write": f"""
            SELECT sort_bucket, rows, errors
            FROM read_parquet('{_GOLDEN_DIR}/x_extract_write_sf001.parquet')
        """,
        # multimodal: independently re-derived expectations (spec
        # recomputation at check time — see _media_oracle_dir), not
        # frozen engine output
        "m_media_decode": f"""
            SELECT media_id, kind, format, n_bytes, content_hash, width, height
            FROM read_parquet('{_media_oracle_dir()}/m_media_decode.parquet')
        """,
        "m_frame_sample": f"""
            SELECT media_id, frame_idx, frame_hash
            FROM read_parquet('{_media_oracle_dir()}/m_frame_sample.parquet')
        """,
        # seeded-LSH / seeded-IVF ANN: independent SQL recomputations
        # (plane / centroid literals re-derived from the published
        # seed spec, never read from engine output); recall vs brute
        # force is additionally pinned in tests
        "s_knn_lsh": _ann_lsh_sql(),
        "s_knn_ivf": _ann_ivf_sql(),
        "s_knn_join": _ann_join_sql(),
        "q_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(floor(l_quantity*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_cents,
                   CAST(SUM(CAST(floor(l_extendedprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_cents,
                   CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
                   CAST(COUNT(*) AS BIGINT) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "q_revenue_by_segment": """
            SELECT c_mktsegment,
                   CAST(SUM(CAST(floor(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "q_orders_per_nation": """
            SELECT c_nationkey,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(floor(o_totalprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_nationkey
        """,
        # exact COUNT(DISTINCT) per group — the exact counterpart of
        # the HLL sketch gate (t_hll_registers)
        "q_users_per_event_type": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events GROUP BY event_type
        """,
        # LAG window in exact integer microseconds; (ts, event_id)
        # tie-break pins the order on both sides
        "q_event_gaps": """
            SELECT event_id,
                   CAST(COALESCE(date_diff('microsecond',
                       LAG(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id), ts), 0)
                        AS BIGINT) AS gap_us
            FROM events
        """,
        # high-value filter (o_totalprice > 440000) keeps all three join
        # modes non-vacuous: unmatched customers genuinely exist
        "q_customer_order_counts": """
            SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders
            FROM customer LEFT JOIN (
              SELECT o_orderkey, o_custkey FROM orders
              WHERE o_totalprice > 440000.0
            ) o ON o.o_custkey = c_custkey
            GROUP BY c_custkey
        """,
        "q_customers_with_orders": """
            SELECT c_custkey FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_totalprice > 440000.0)
        """,
        "q_customers_no_orders": """
            SELECT c_custkey FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_totalprice > 440000.0)
        """,
        "q_customers_per_region": """
            SELECT r_name, CAST(COUNT(*) AS BIGINT) AS n_customers
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "q_top_orders": """
            SELECT o_orderkey, CAST(floor(o_totalprice*100 + 0.5) AS BIGINT) AS price_cents
            FROM orders ORDER BY price_cents DESC, o_orderkey LIMIT 10
        """,
        "q_local_supplier_revenue": """
            SELECT n_name,
                   CAST(SUM(CAST(floor(l_extendedprice*(1-l_discount)*100 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_cents
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE c_nationkey = s_nationkey
            GROUP BY n_name
        """,
        "q_parts_by_brand": """
            SELECT p_brand,
                   CAST(COUNT(*) AS BIGINT) AS n_parts,
                   CAST(SUM(CAST(floor(p_retailprice*100 + 0.5) AS BIGINT)) AS BIGINT) AS retail_cents
            FROM part GROUP BY p_brand
        """,
        "q_top_orders_per_segment": """
            SELECT c_mktsegment, o_orderkey, price_cents, rnk FROM (
                SELECT c_mktsegment, o_orderkey,
                       CAST(floor(o_totalprice*100 + 0.5) AS BIGINT) AS price_cents,
                       ROW_NUMBER() OVER (
                           PARTITION BY c_mktsegment
                           ORDER BY floor(o_totalprice*100 + 0.5) DESC, o_orderkey
                       ) AS rnk
                FROM orders JOIN customer ON o_custkey = c_custkey
            ) ranked WHERE rnk <= 3
        """,
        "q_asof_join": """
            SELECT event_id, user_id, o_orderkey FROM (
                SELECT e.event_id, e.user_id, o.o_orderkey,
                       ROW_NUMBER() OVER (
                           PARTITION BY e.event_id
                           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
                       ) AS rn
                FROM events e JOIN orders o
                  ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            ) t WHERE rn = 1
        """,
        "q_range_join": """
            SELECT o.o_orderkey,
                   CAST(COUNT(CASE WHEN e.ts >= o.o_orderdate
                                    AND e.ts < o.o_orderdate + INTERVAL 7 DAY
                                   THEN 1 END) AS BIGINT) AS n_events
            FROM orders o LEFT JOIN events e ON e.user_id = o.o_custkey
            GROUP BY o.o_orderkey
        """,
        "t_hll_registers": """
            -- bit-exact HyperLogLog register maxima: md5-lower-64 value
            -- hash, top-10-bit register index, leading-zero rank of the
            -- remaining 54 bits (highest-set-bit via integer list ops —
            -- float log2 is off-by-one near powers of two)
            WITH h AS (
              SELECT event_type,
                     CAST(md5_number_lower(CAST(user_id AS VARCHAR)) AS HUGEINT) AS hv
              FROM events
            ), r AS (
              SELECT event_type,
                     CAST(hv >> 54 AS BIGINT) AS register_idx,
                     CAST(54 - len(list_filter(range(0, 54),
                           i -> ((hv & ((CAST(1 AS HUGEINT) << 54) - 1)) >> i) > 0)) + 1
                          AS BIGINT) AS rank
              FROM h
            )
            SELECT event_type, register_idx, CAST(MAX(rank) AS BIGINT) AS max_rank
            FROM r GROUP BY event_type, register_idx
        """,
        "q_region_nation_names": """
            SELECT DISTINCT name FROM (
                SELECT r_name AS name FROM region
                UNION ALL SELECT n_name AS name FROM nation
            ) u
        """,
        "q_revenue_filtered": """
            SELECT CAST(COALESCE(SUM(CAST(floor(l_extendedprice*l_discount*100 + 0.5) AS BIGINT)), 0) AS BIGINT) AS revenue_cents
            FROM lineitem
            WHERE l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24
        """,
        "q_distinct_event_types": "SELECT DISTINCT event_type FROM events",
        "q_daily_event_stats": """
            SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(SUM(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents
            FROM events GROUP BY event_type, day
        """,
        "q_trailing_event_avg": """
            SELECT event_type, day,
                   AVG(sum_cents) OVER (
                       PARTITION BY event_type ORDER BY day
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW
                   ) AS avg_cents
            FROM (
                SELECT event_type, strftime(ts, '%Y-%m-%d') AS day,
                       CAST(SUM(CAST(floor(value*100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_cents
                FROM events GROUP BY event_type, day
            ) daily
        """,
        "q_user_sessions": """
            SELECT user_id,
                   CAST(1 + COALESCE(SUM(CASE WHEN gap > 1800.0 THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_sessions
            FROM (
                SELECT user_id,
                       epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) AS gap
                FROM events
            ) gaps
            GROUP BY user_id
        """,
        "d_exact_dedup": "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
        "d_exact_dup_groups": """
            SELECT CAST(COUNT(*) AS BIGINT) AS n_dup_groups FROM (
                SELECT text FROM documents GROUP BY text HAVING COUNT(*) > 1
            ) dup_groups
        """,
        "d_ngram_jaccard": """
            WITH docs AS (SELECT doc_id, COALESCE(text, '') AS text FROM documents WHERE doc_id < 256),
            grams AS (
                SELECT DISTINCT doc_id,
                       unnest([substring(text, CAST(i AS INT), 5)
                               FOR i IN range(1, greatest(1, length(text) - 4) + 1)]) AS gram
                FROM docs
            ),
            sizes AS (SELECT doc_id, COUNT(*) AS n_grams FROM grams GROUP BY doc_id),
            inter AS (
                SELECT a.doc_id AS id_a, b.doc_id AS id_b, COUNT(*) AS intersection
                FROM grams a JOIN grams b ON a.gram = b.gram AND a.doc_id < b.doc_id
                GROUP BY a.doc_id, b.doc_id
            )
            SELECT i.id_a, i.id_b,
                   CAST(i.intersection AS DOUBLE)
                       / (sa.n_grams + sb.n_grams - i.intersection) AS jaccard
            FROM inter i
            JOIN sizes sa ON sa.doc_id = i.id_a
            JOIN sizes sb ON sb.doc_id = i.id_b
            WHERE CAST(i.intersection AS DOUBLE)
                      / (sa.n_grams + sb.n_grams - i.intersection) >= 0.5
        """,
        "d_embedding_dups": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.2
        """,
        "t_text_stats": f"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CAST(CASE WHEN trim(text) = '' THEN 0
                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                        END AS BIGINT) AS n_tokens,
                   CAST(array_length(regexp_extract_all(text, '{_BPE_PATTERN}')) AS BIGINT) AS n_bpe_tokens,
                   CASE WHEN length(text) > 0
                        THEN CAST(array_length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE) / length(text)
                        ELSE 0.0 END AS punct_ratio,
                   CASE WHEN array_length(regexp_extract_all(lower(text), '[a-zà-ÿ]+')) > 0
                        THEN CAST(array_length(list_filter(regexp_extract_all(lower(text), '[a-zà-ÿ]+'),
                                                           w -> w IN ({_STOPWORDS_SQL}))) AS DOUBLE)
                             / array_length(regexp_extract_all(lower(text), '[a-zà-ÿ]+'))
                        ELSE 0.0 END AS stopword_ratio,
                   least(1.0, CAST(CASE WHEN trim(text) = '' THEN 0
                             ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                        END AS BIGINT) / 100.0)
                   * (1.0 - CASE WHEN length(text) > 0
                        THEN CAST(array_length(regexp_extract_all(text, '[.,;:!?]')) AS DOUBLE) / length(text)
                        ELSE 0.0 END) AS quality_score
            FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents) documents
        """,
        "t_lang_id": """
            WITH w AS (
              SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '[a-zà-ÿ]+') AS ws FROM documents
            ), s AS (
              SELECT doc_id,
                CASE WHEN len(ws)=0 THEN 0.0 ELSE CAST(len(list_filter(ws, x -> x IN ('the','and','of','to','a','in','is','it','that','for','on','with','as'))) AS DOUBLE)/len(ws) END AS s_en,
    CASE WHEN len(ws)=0 THEN 0.0 ELSE CAST(len(list_filter(ws, x -> x IN ('der','die','das','und','ist','nicht','mit','ein','eine','zu','den','von'))) AS DOUBLE)/len(ws) END AS s_de,
    CASE WHEN len(ws)=0 THEN 0.0 ELSE CAST(len(list_filter(ws, x -> x IN ('le','la','les','et','est','pas','une','un','des','du','que','pour'))) AS DOUBLE)/len(ws) END AS s_fr,
    CASE WHEN len(ws)=0 THEN 0.0 ELSE CAST(len(list_filter(ws, x -> x IN ('el','la','los','las','y','es','no','una','un','de','que','para'))) AS DOUBLE)/len(ws) END AS s_es,
    CASE WHEN len(ws)=0 THEN 0.0 ELSE CAST(len(list_filter(ws, x -> x IN ('il','la','le','e','è','non','una','un','di','che','per','con'))) AS DOUBLE)/len(ws) END AS s_it
              FROM w
            )
            SELECT doc_id,
              CASE WHEN greatest(s_en,s_de,s_fr,s_es,s_it) <= 0.02 THEN 'und'
                   WHEN s_en = greatest(s_en,s_de,s_fr,s_es,s_it) THEN 'en'
                   WHEN s_de = greatest(s_en,s_de,s_fr,s_es,s_it) THEN 'de'
                   WHEN s_fr = greatest(s_en,s_de,s_fr,s_es,s_it) THEN 'fr'
                   WHEN s_es = greatest(s_en,s_de,s_fr,s_es,s_it) THEN 'es'
                   ELSE 'it' END AS lang_pred
            FROM s
        """,
        "t_fingerprints": """
            -- Rabin-Karp min-fingerprint, word hashes = md5_number_lower,
            -- all arithmetic mod the Mersenne prime 2^61-1 (HUGEINT-exact)
            WITH w AS (
              SELECT doc_id, regexp_extract_all(lower(COALESCE(text, '')), '[a-zà-ÿ]+') AS ws FROM documents
            ), h AS (
              SELECT doc_id, list_transform(ws, x -> CAST(md5_number_lower(x) AS HUGEINT) % 2305843009213693951) AS hs FROM w
            )
            SELECT doc_id, CAST(CASE WHEN len(hs) = 0 THEN 0 ELSE
              list_min(list_transform(range(1, len(hs) - least(len(hs), 5) + 2),
                i -> list_sum(list_transform(range(0, least(len(hs), 5)),
                       j -> (hs[i + j] * ([1,1099511628211,956575116878633,1200626016367673003,2304344181287796448][least(len(hs),5) - j])) % 2305843009213693951)) % 2305843009213693951))
              END AS BIGINT) AS fingerprint
            FROM h
        """,
        "d_minhash_pairs": """
            -- full MinHash recomputation: md5-lower-64 shingle hashes,
            -- the engine's (a*x+b) mod 2^64 permutation family (the
            -- coefficient literals ARE the engine's seeded parameters),
            -- LSH candidacy = any of 16 four-slot bands equal, estimate
            -- = matching-permutation fraction >= 0.8
            WITH w AS (
              SELECT doc_id, list_filter(regexp_split_to_array(lower(COALESCE(text, '')), '\s+'), x -> x <> '') AS ws
              FROM documents
            ), g AS (
              SELECT doc_id, CASE
                WHEN len(ws) = 0 THEN []
                WHEN len(ws) < 3 THEN [array_to_string(ws, ' ')]
                ELSE list_distinct(list_transform(range(1, len(ws) - 1),
                       i -> concat_ws(' ', ws[i], ws[i+1], ws[i+2])))
              END AS grams FROM w
            ), h AS (
              SELECT doc_id, list_transform(grams, x -> CAST(md5_number_lower(x) AS HUGEINT)) AS xs FROM g
            ), sig AS (
              SELECT doc_id, CASE WHEN len(xs) = 0
                THEN list_transform(range(0, 64), i -> CAST(18446744073709551615 AS HUGEINT))
                ELSE list_transform(range(1, 65),
                       i -> list_min(list_transform(xs, x -> ([2297359619001564597,3702525538111689999,4279532810384561225,1819927849474927637,2878035897379592315,2877591057541362903,1071453510346823115,2143071682933157237,1865242737500154729,3838261603483033731,379716980844854581,4056620670284786009,1520798217888136607,3916965252892395907,3354078637317002173,3383216058915832993,1000592739665268027,456675647751657725,3356293238551440217,760543396461257179,2063321781277379071,2573207579743373313,777431531920034493,2146497176616232719,3801320372615379903,648881935158774719,3683331184091793261,262579006026876149,1704747971477620217,856858769658023397,1983852346201383559,3145614893971139401,1199990111390225683,3668790493110870617,3977708969185749007,1077240956986238971,1007446255075745115,1801732545371167619,3398499539507992669,3507694356149197757,2251208029941317037,4522715722929685257,634356285132873763,2938942686635002961,161962062168655411,2998006915245497733,1138368374822601727,370189644521515575,861652531725782789,3409962917989459421,4050621447597455763,463618807884355117,3495638428956528843,2671593069387285477,1805935812952358751,3170520047283612943,1632398491907562959,3615245731022333181,834296198785359551,1389599250197995221,2558144436660887277,393820126512235375,1452450688103961369,1969251275389991129][i] * x + [570641018389960891,787603798186516972,2599593106808018076,962864383515356972,1375216642409152344,4369792663271246344,410343612402300032,3665657328862104199,101865178233748542,1207550233880778226,3815844455732904327,4224436523279905186,392368560994791802,1365882634414198249,2000839474307464185,2137406799659846683,2086389863579132104,2274448960578859787,1492305152117099552,1172444636525752822,1124925287146532413,1386887510159385380,4235486339406973611,2537487463003466453,2531128382900250146,4099141802836590306,2206124335314378670,3933671957762042498,198948935564477444,1130364857072845302,386776297324261773,4497234992817625882,419346625420198094,3275053773611030361,468900105785203579,1990245566174715570,579766154391765855,2516327908049542384,1187158319135118332,158101386990278531,2906588525114374628,4598629964688595174,2958542714694731406,102400447934616092,4220581090707823116,1420028748837633862,733284897621110002,2974007798173947675,3314836524575861417,1072131779469420093,2460865043852536820,2240552382924550939,990075153342510699,3441610119876470099,2629749367499564989,725736267669063295,1059583932984535030,2694908889609426392,1254442603959937213,2030099650348479872,4204661625653757210,3267062174733965944,1254651014867448780,2042618724242302210][i]) % 18446744073709551616)))
              END AS s FROM h
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   list_sum(list_transform(range(1, 65),
                     i -> CASE WHEN a.s[i] = b.s[i] THEN 1 ELSE 0 END)) / 64.0 AS est_jaccard
            FROM sig a JOIN sig b ON a.doc_id < b.doc_id
            WHERE (list_sum(list_transform(range(1, 65),
                    i -> CASE WHEN a.s[i] = b.s[i] THEN 1 ELSE 0 END)) / 64.0) >= 0.8
              AND len(list_filter(range(0, 16),
                    j -> a.s[4*j+1] = b.s[4*j+1] AND a.s[4*j+2] = b.s[4*j+2]
                     AND a.s[4*j+3] = b.s[4*j+3] AND a.s[4*j+4] = b.s[4*j+4])) > 0
        """,
        "d_simhash_pairs": """
            -- full SimHash recomputation: md5-lower-64 word hashes, sign
            -- aggregation per bit, 63-bit fingerprints, Hamming <= 3
            WITH w AS (
              SELECT doc_id, list_filter(regexp_split_to_array(lower(COALESCE(text, '')), '\s+'), x -> x <> '') AS ws
              FROM documents
            ), h AS (
              SELECT doc_id, list_transform(ws, x -> CAST(md5_number_lower(x) AS HUGEINT)) AS hs FROM w
            ), fp AS (
              SELECT doc_id, CAST(CASE WHEN len(hs) = 0 THEN 0 ELSE
                list_sum(list_transform(range(0, 64),
                  k -> CASE WHEN list_sum(list_transform(hs, v -> 2 * CAST((v >> k) & 1 AS BIGINT) - 1)) > 0
                            THEN (CAST(1 AS HUGEINT) << k) ELSE 0 END))
                END AS HUGEINT) AS f128
              FROM h
            )
            SELECT a.doc_id AS id_a, b.doc_id AS id_b,
                   CAST(bit_count(xor(CAST(a.f128 >> 1 AS BIGINT), CAST(b.f128 >> 1 AS BIGINT))) AS BIGINT) AS hamming
            FROM fp a JOIN fp b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(CAST(a.f128 >> 1 AS BIGINT), CAST(b.f128 >> 1 AS BIGINT))) <= 3
        """,
        # heavy hitters: same word regex/lowering as t_lang_id; ties at
        # the k boundary break by (n DESC, word ASC) on both sides
        "t_top_words": """
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(COALESCE(text, '')), '[a-zà-ÿ]+')) AS word
              FROM documents
            )
            SELECT word, CAST(COUNT(*) AS BIGINT) AS n
            FROM w GROUP BY word
            ORDER BY n DESC, word LIMIT 20
        """,
        # exact lower-rank quantiles of the whitespace token count;
        # rank = max(1, ceil(p*n)) with the same IEEE-double p*n as the
        # engine's math.ceil
        "t_len_quantiles": """
            WITH t AS (
              SELECT CAST(CASE WHEN trim(text) = '' THEN 0
                          ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                     END AS BIGINT) AS n_tokens
              FROM (SELECT COALESCE(text, '') AS text FROM documents)
            ), r AS (
              SELECT n_tokens, row_number() OVER (ORDER BY n_tokens) AS rk,
                     COUNT(*) OVER () AS n
              FROM t
            )
            SELECT CAST(ps.p AS DOUBLE) AS p, r.n_tokens
            FROM (VALUES (0.25), (0.5), (0.75), (0.9), (0.99)) ps(p)
            JOIN r ON r.rk = GREATEST(1, CAST(CEIL(CAST(ps.p AS DOUBLE) * r.n) AS BIGINT))
            ORDER BY p
        """,
        # distributed prefix sum + sequence packing: integer window
        # cumsum in stable doc_id order, pack = (cum-n) // max_len
        "t_seq_pack": """
            WITH t AS (
              SELECT doc_id,
                     CAST(CASE WHEN trim(text) = '' THEN 0
                          ELSE array_length(regexp_split_to_array(trim(text), '\\s+'))
                     END AS BIGINT) AS n_tokens
              FROM (SELECT doc_id, COALESCE(text, '') AS text FROM documents)
            )
            SELECT doc_id, n_tokens,
                   CAST(SUM(n_tokens) OVER w AS BIGINT) AS cum_tokens,
                   CAST((SUM(n_tokens) OVER w - n_tokens) // 2048 AS BIGINT) AS pack_id
            FROM t
            WINDOW w AS (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING
                         AND CURRENT ROW)
        """,
        "t_train_test_split": """
            SELECT CASE WHEN doc_id % 10 < 8 THEN 'train'
                        WHEN doc_id % 10 = 8 THEN 'val'
                        ELSE 'test' END AS split,
                   CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY split
        """,
        # deterministic hash-rank sample: md5('{id}-{seed}') lowercase
        # hex ranks rows identically in Python hashlib and DuckDB
        "t_shuffled_sample": """
            SELECT doc_id, text,
                   md5(CAST(doc_id AS VARCHAR) || '-42') AS sort_key
            FROM documents
            ORDER BY sort_key
            LIMIT 100
        """,
        "s_knn_brute": """
            SELECT query_id, neighbor_id FROM (
                SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.vec_id
                           ORDER BY list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                                           CAST(e.embedding AS DOUBLE[])) DESC,
                                    e.vec_id
                       ) AS rnk
                FROM embeddings q JOIN embeddings e ON e.vec_id <> q.vec_id
                WHERE q.vec_id < 8
            ) ranked WHERE rnk <= 5
        """,
    }
