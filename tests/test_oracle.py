"""Pre-flight of the driver's correctness gate: run every ``queries()``
entry and compare row-count + order-insensitive values against its
``oracle_sql()`` DuckDB result (exact equality — the value-hash gate
tolerates no float drift)."""

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def entrymod():
    import __ray_entry__ as mod

    return mod


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'")
    return con


def result_to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    if len(df):
        df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df.reset_index(drop=True)


SQL_CHECKED = [
    "x_extract_turns",
    "x_extract_spans",
    "x_extract_write",
    "m_media_decode",
    "m_frame_sample",
    "x_extract_metrics",
    "d_minhash_pairs",
    "d_ngram_verify",
    "d_dedup_clusters",
    "d_simhash_pairs",
    "t_lang_id",
    "t_fingerprints",
    "q_pricing_summary",
    "q_revenue_by_segment",
    "q_orders_per_nation",
    "q_customers_per_region",
    "q_local_supplier_revenue",
    "q_parts_by_brand",
    "q_top_orders",
    "q_top_orders_per_segment",
    "q_region_nation_names",
    "q_revenue_filtered",
    "q_distinct_event_types",
    "q_daily_event_stats",
    "q_trailing_event_avg",
    "q_user_sessions",
    "q_asof_join",
    "q_range_join",
    "t_hll_registers",
    "d_exact_dedup",
    "d_exact_dup_groups",
    "d_ngram_jaccard",
    "d_embedding_dups",
    "d_cluster_best",
    "q_event_gaps",
    "q_users_per_event_type",
    "q_customer_order_counts",
    "q_customers_with_orders",
    "q_customers_no_orders",
    "t_text_stats",
    "t_top_words",
    "t_len_quantiles",
    "t_seq_pack",
    "t_stratified_sample",
    "t_train_test_split",
    "t_shuffled_sample",
    "s_knn_brute",
    "s_knn_lsh",
    "s_knn_ivf",
    "s_knn_join",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle(ray_session, entrymod, duck, name):
    ray_df = normalize(result_to_pandas(entrymod.queries()[name](SF_DIR)))
    sql_df = normalize(duck.execute(entrymod.oracle_sql()[name]).df())
    assert list(ray_df.columns) == list(sql_df.columns), (
        ray_df.columns, sql_df.columns)
    assert len(ray_df) == len(sql_df), f"{name}: {len(ray_df)} vs {len(sql_df)} rows"
    pd.testing.assert_frame_equal(ray_df, sql_df, check_dtype=False, check_exact=True)


def test_all_oracle_keys_exist_in_queries(entrymod):
    q = set(entrymod.queries())
    for key in entrymod.oracle_sql():
        assert key in q


def test_every_query_is_gated_or_listed(entrymod):
    """Every queries() entry is either SQL-oracle-gated (SQL_CHECKED,
    matching oracle_sql()) or explicitly listed as NO_ORACLE."""
    gated = set(entrymod.oracle_sql())
    assert gated == set(SQL_CHECKED)
    assert set(entrymod.queries()) == gated | set(NO_ORACLE)


# queries with no oracle_sql entry (driver records a rows-only check);
# everything else is covered by SQL_CHECKED above
NO_ORACLE = []


def test_epoch_shuffle_api_rows_only(ray_session):
    """The seeded random_shuffle epoch-shuffle API (not SQL-gatable:
    Ray's shuffle order is engine-internal) still runs, is seeded-
    deterministic across calls, and returns n distinct docs."""
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.textstats import shuffled_sample

    ds = read_table(SF_DIR, "documents", ["doc_id"])
    a = [r["doc_id"] for r in shuffled_sample(ds, n=50, seed=7).take_all()]
    b = [r["doc_id"] for r in shuffled_sample(ds, n=50, seed=7).take_all()]
    assert a == b and len(set(a)) == 50


def test_entry_smoke(ray_session, entrymod):
    ds = entrymod.entry()
    df = result_to_pandas(ds)
    assert len(df) > 0
    assert set(["conv_id", "turn_idx", "kind", "extracted_text", "status"]) <= set(df.columns)
    # stable sort by (conv_id, turn_idx)
    key = list(zip(df["conv_id"], df["turn_idx"]))
    assert key == sorted(key)
    assert (df["status"] == "ok").sum() > 0


def test_extract_turns_query(ray_session, entrymod):
    df = result_to_pandas(entrymod.queries()["x_extract_turns"]("/root/testdata/sf0.001"))
    assert len(df) > 0
    assert (df["status"] == "error").sum() > 0  # corrupt fixtures surface
    assert (df["kind"] == "pdf").sum() > 0


def test_extract_write_golden_recomputes_from_the_turns_golden():
    """``x_extract_write`` is not self-blessed: bucketing the rows of the
    committed ``x_extract_turns`` golden by the documents table's split
    points gives its ``(sort_bucket, rows, errors)`` table."""
    import bisect
    import collections
    import os

    import pyarrow.parquet as pq

    from pdf4py_ray.pipelines.extract_pipeline import _split_points_from_docs

    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    splits = _split_points_from_docs(SF_DIR)
    turns = pq.read_table(os.path.join(golden, "x_extract_turns_sf001.parquet"),
                          columns=["conv_id", "status"])
    rows, errors = collections.Counter(), collections.Counter()
    for conv, status in zip(turns["conv_id"].to_pylist(), turns["status"].to_pylist()):
        bucket = bisect.bisect_right(splits, conv)
        rows[bucket] += 1
        errors[bucket] += status == "error"
    want = [{"sort_bucket": b, "rows": rows[b], "errors": errors[b]} for b in sorted(rows)]
    got = pq.read_table(os.path.join(golden, "x_extract_write_sf001.parquet")).to_pylist()
    assert got == want
