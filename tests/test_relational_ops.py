"""Unit tests for the engine's relational primitives beyond the SQL
oracle: hash_join edge cases (the oracle only sees the happy path)."""

import pandas as pd
import pyarrow as pa
import pytest


def _ds(ray_session, table: pa.Table, nblocks: int = 2):
    import ray.data as rd

    return rd.from_arrow(table).repartition(nblocks)


@pytest.fixture(scope="module")
def sides(ray_session):
    left = pa.table({
        "l_key": pa.array([1, 2, 2, 3, 5], type=pa.int64()),
        "l_val": pa.array(["a", "b", "c", "d", "e"]),
    })
    right = pa.table({
        "r_key": pa.array([2, 3, 3, 4], type=pa.int64()),
        "r_val": pa.array([20, 30, 31, 40], type=pa.int64()),
    })
    return left, right


def test_hash_join_inner_semantics(ray_session, sides):
    from pdf4py_ray.stages.relational import hash_join

    left, right = sides
    out = hash_join(
        _ds(ray_session, left), _ds(ray_session, right),
        "l_key", "r_key", left.schema, right.schema, num_buckets=4,
    ).to_pandas()
    got = sorted(map(tuple, out[["l_key", "l_val", "r_val"]].itertuples(index=False)))
    # duplicate keys on both sides produce the full cross product per key
    expected = sorted([
        (2, "b", 20), (2, "c", 20),
        (3, "d", 30), (3, "d", 31),
    ])
    assert got == expected
    # dtypes survive the typed-null padding
    assert out["r_val"].dtype == "int64" and out["l_key"].dtype == "int64"


def test_hash_join_empty_side(ray_session, sides):
    from pdf4py_ray.stages.relational import hash_join

    left, _ = sides
    empty_right = pa.table({
        "r_key": pa.array([], type=pa.int64()),
        "r_val": pa.array([], type=pa.int64()),
    })
    out = hash_join(
        _ds(ray_session, left), _ds(ray_session, empty_right, 1),
        "l_key", "r_key", left.schema, empty_right.schema, num_buckets=4,
    ).to_pandas()
    assert len(out) == 0


def test_hash_join_rejects_shared_names(ray_session, sides):
    from pdf4py_ray.stages.relational import hash_join

    left, _ = sides
    with pytest.raises(AssertionError):
        hash_join(
            _ds(ray_session, left), _ds(ray_session, left),
            "l_key", "l_key", left.schema, left.schema,
        )


def test_hash_join_salted_skew_bounded(ray_session):
    """90%-one-key skew: with salt=8 the hot key's probe rows spread
    over 8 sub-buckets, bounding per-merge-task rows; results match
    the unsalted join exactly."""
    import numpy as np

    from pdf4py_ray.stages.relational import hash_join

    n = 2000
    keys = np.where(np.arange(n) % 10 < 9, 7, np.arange(n) % 50).astype(np.int64)
    left = pa.table({"l_key": keys, "l_val": np.arange(n, dtype=np.int64)})
    right = pa.table({
        "r_key": pa.array(list(range(50)), type=pa.int64()),
        "r_val": pa.array([v * 100 for v in range(50)], type=pa.int64()),
    })
    kw = dict(num_buckets=8)
    plain = hash_join(_ds(ray_session, left, 4), _ds(ray_session, right),
                      "l_key", "r_key", left.schema, right.schema, **kw).to_pandas()
    salted = hash_join(_ds(ray_session, left, 4), _ds(ray_session, right),
                       "l_key", "r_key", left.schema, right.schema, salt=8, **kw).to_pandas()
    key_fn = lambda df: sorted(map(tuple, df[["l_key", "l_val", "r_val"]].itertuples(index=False)))
    assert key_fn(plain) == key_fn(salted)

    # per-bucket bound: replicate the tagging logic and histogram the
    # probe side — the hot key (~1800 rows) must not land whole in one
    # sub-bucket
    h = (keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(8)
    salted_bucket = h.astype(np.int64) * 8 + (np.arange(n, dtype=np.int64) % 8)
    counts = np.bincount(salted_bucket, minlength=64)
    assert counts.max() <= (keys == 7).sum() // 8 + (n - (keys == 7).sum())


def test_hash_join_auto_buckets():
    from pdf4py_ray.stages.relational import _auto_buckets

    assert _auto_buckets(1_000) == 64            # parallelism floor
    assert _auto_buckets(100_000_000) == 1024    # ~100k rows/bucket, pow2
    assert _auto_buckets(10**12) == 4096         # ceiling


def test_broadcast_guard_falls_back_to_hash_join(ray_session, monkeypatch, spy):
    """join_auto with a tiny ``BROADCAST_ROW_LIMIT`` must produce the
    same rows through the hash_join path as through the broadcast path."""
    from pdf4py_ray.stages import relational as R

    left = pa.table({
        "l_key": pa.array([1, 2, 2, 3, 5], type=pa.int64()),
        "l_val": pa.array(["a", "b", "c", "d", "e"]),
    })
    right = pa.table({
        "r_key": pa.array([2, 3, 3, 4], type=pa.int64()),
        "r_val": pa.array([20, 30, 31, 40], type=pa.int64()),
    })
    results = []
    joins = spy(R, "hash_join")
    for limit, n_joins in ((1_000_000, 0), (1, 1)):  # broadcast path, then forced fallback
        monkeypatch.setattr(R, "BROADCAST_ROW_LIMIT", limit)
        out = R.join_auto(
            _ds(ray_session, left), _ds(ray_session, right),
            "l_key", "r_key", left.schema, right.schema,
        ).to_pandas()
        assert len(joins) == n_joins, limit  # the chosen path ran
        results.append(sorted(map(tuple, out[["l_key", "l_val", "r_val"]].itertuples(index=False))))
    assert results[0] == results[1]
    assert results[0] == sorted([(2, "b", 20), (2, "c", 20), (3, "d", 30), (3, "d", 31)])


def test_guarded_queries_match_on_forced_fallback(ray_session, monkeypatch, spy):
    """The four guarded driver queries return identical results with
    the broadcast path and with ``BROADCAST_ROW_LIMIT = 0`` (hash_join
    path). The hash_join calls made while each plan is built show which
    path ran: local_supplier_revenue joins lineitem ⨝ orders by
    hash_join on both paths."""
    from pdf4py_ray.stages import relational as R

    sf = "/root/testdata/sf0.001"
    default = R.BROADCAST_ROW_LIMIT
    joins = spy(R, "hash_join")
    for fn, sort_cols, n_broadcast, n_forced in [
        (R.revenue_by_segment, ["c_mktsegment"], 0, 1),
        (R.customers_per_region, ["r_name"], 0, 2),
        (R.top_orders_per_segment, ["c_mktsegment", "rnk"], 0, 1),
        (R.local_supplier_revenue, ["n_name"], 1, 4),
    ]:
        monkeypatch.setattr(R, "BROADCAST_ROW_LIMIT", default)
        joins.clear()
        a = fn(sf).to_pandas().sort_values(sort_cols).reset_index(drop=True)
        assert len(joins) == n_broadcast, fn.__name__
        monkeypatch.setattr(R, "BROADCAST_ROW_LIMIT", 0)
        joins.clear()
        b = fn(sf).to_pandas().sort_values(sort_cols).reset_index(drop=True)
        assert len(joins) == n_forced, fn.__name__  # the forced path ran
        pd.testing.assert_frame_equal(
            a[sorted(a.columns)], b[sorted(b.columns)], check_dtype=False
        )


def test_asof_join_tie_break_and_no_match(ray_session, tmp_path):
    """Equal order dates resolve to the larger orderkey; events with no
    prior order are dropped (inner as-of semantics)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdf4py_ray.stages.relational import asof_join_events_orders

    sf = tmp_path
    ts = pa.array(np.array([100, 50, 10], dtype="datetime64[us]"))
    pq.write_table(pa.table({
        "event_id": pa.array([1, 2, 3], type=pa.int64()),
        "user_id": pa.array([7, 7, 9], type=pa.int64()),
        "ts": ts,
    }), str(sf / "events.parquet"))
    odate = pa.array(np.array([40, 40, 90], dtype="datetime64[us]"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([500, 501, 502], type=pa.int64()),
        "o_custkey": pa.array([7, 7, 7], type=pa.int64()),
        "o_orderdate": odate,
    }), str(sf / "orders.parquet"))

    out = asof_join_events_orders(str(sf)).to_pandas().sort_values("event_id")
    got = list(map(tuple, out[["event_id", "o_orderkey"]].itertuples(index=False)))
    # event 1 (ts=100): latest order is 502 (date 90);
    # event 2 (ts=50): two orders tie at date 40 → larger key 501;
    # event 3: user 9 has no orders → dropped
    assert got == [(1, 502), (2, 501)]


def _salted_joins(monkeypatch, spy, sf: str, salt: int) -> tuple:
    """(as-of frame, range frame) with ``_TIME_SALT = salt``, and the
    tables whose time bounds were read while the two plans were built
    (only a salted plan reads them)."""
    from pdf4py_ray.stages import relational as R

    monkeypatch.setattr(R, "_TIME_SALT", salt)
    bounds = spy(R, "_ts_minmax_us")
    asof = (R.asof_join_events_orders(sf).to_pandas()
            .sort_values("event_id").reset_index(drop=True))
    rng = (R.range_join_orders_events(sf).to_pandas()
           .sort_values("o_orderkey").reset_index(drop=True))
    return asof, rng, [a[2] for a in bounds]


def test_asof_and_range_join_time_salt_match(ray_session, monkeypatch, spy):
    """``_TIME_SALT`` > 1 (epoch sub-bucketing + forward/window
    replication) must be result-identical to the unsalted plan on real
    tables."""
    sf = "/root/testdata/sf0.001"
    a, r, read = _salted_joins(monkeypatch, spy, sf, 1)
    assert read == []
    b, s, read = _salted_joins(monkeypatch, spy, sf, 4)
    assert read == ["events", "orders"] * 2  # the salted path ran for both joins
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
    pd.testing.assert_frame_equal(r, s[r.columns], check_dtype=False)


def test_time_salt_bounds_hot_key(ray_session, tmp_path, monkeypatch, spy):
    """90%-one-user skew: the hot user's events spread across the S
    epoch sub-buckets (no sub-bucket holds them all), and the salted
    results still match the unsalted ones exactly."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdf4py_ray.stages.relational import _epoch_of

    n = 2000
    rng = np.random.default_rng(7)
    user = np.where(np.arange(n) % 10 < 9, 42, np.arange(n) % 50).astype(np.int64)
    ts_us = rng.integers(0, 365 * 86_400_000_000, size=n)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(user),
        "ts": pa.array(ts_us.astype("datetime64[us]")),
    }), str(tmp_path / "events.parquet"))
    m = 300
    od_us = rng.integers(0, 365 * 86_400_000_000, size=m)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(m, dtype=np.int64)),
        "o_custkey": pa.array((np.arange(m) % 60).astype(np.int64)),
        "o_orderdate": pa.array(od_us.astype("datetime64[us]")),
    }), str(tmp_path / "orders.parquet"))
    sf = str(tmp_path)

    S = 8
    a, r, read = _salted_joins(monkeypatch, spy, sf, 1)
    assert read == []
    b, s, read = _salted_joins(monkeypatch, spy, sf, S)
    assert read == ["events", "orders"] * 2  # the salted path ran for both joins
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
    pd.testing.assert_frame_equal(r, s[r.columns], check_dtype=False)

    # replicate the epoch assignment: the hot user's ~1800 events must
    # spread over the S sub-buckets, max sub-bucket well under the total
    hot_ts = ts_us[user == 42]
    lo = int(min(ts_us.min(), od_us.min()))
    hi = int(max(ts_us.max(), od_us.max()))
    epochs = _epoch_of(hot_ts.astype(np.int64), lo, hi, S)
    counts = np.bincount(epochs, minlength=S)
    assert counts.max() < len(hot_ts) // 2


def test_hash_join_auto_salt(ray_session):
    """salt=None (default) detects a 90%-hot probe key and salts; the
    result is identical to the explicit-salt and unsalted joins."""
    import numpy as np

    from pdf4py_ray.stages.relational import _detect_salt, hash_join

    n = 4096
    keys = np.where(np.arange(n) % 10 < 9, 7, np.arange(n) % 50).astype(np.int64)
    left = pa.table({"l_key": keys, "l_val": np.arange(n, dtype=np.int64)})
    right = pa.table({
        "r_key": pa.array(list(range(50)), type=pa.int64()),
        "r_val": pa.array([v * 100 for v in range(50)], type=pa.int64()),
    })
    lds = _ds(ray_session, left, 4)
    assert _detect_salt(lds, "l_key") >= 8  # skew detected

    auto = hash_join(lds, _ds(ray_session, right), "l_key", "r_key",
                     left.schema, right.schema, num_buckets=8).to_pandas()
    plain = hash_join(lds, _ds(ray_session, right), "l_key", "r_key",
                      left.schema, right.schema, num_buckets=8, salt=1).to_pandas()
    key_fn = lambda df: sorted(map(tuple, df[["l_key", "l_val", "r_val"]].itertuples(index=False)))
    assert key_fn(auto) == key_fn(plain)

    # uniform keys: no salt triggered
    uni = pa.table({"l_key": pa.array((np.arange(4096) % 997).astype(np.int64)),
                    "l_val": pa.array(np.arange(4096, dtype=np.int64))})
    assert _detect_salt(_ds(ray_session, uni, 4), "l_key") == 1


def test_hash_join_outer_semi_anti_modes(ray_session):
    """left/semi/anti produce exactly the pandas reference, with and
    without salting (a probe row must see its key's full build side in
    its one sub-bucket)."""
    import pyarrow as pa
    import ray.data as rd

    from pdf4py_ray.stages.relational import hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 4, 4, 5], "lv": [10, 20, 30, 40, 41, 50]})
    right = pd.DataFrame({"rk": [2, 4, 4, 6], "rv": [200, 400, 401, 600]})
    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("rk", pa.int64()), ("rv", pa.int64())])

    for salt in (1, 4):
        lds, rds = rd.from_pandas(left), rd.from_pandas(right)
        outer = (hash_join(lds, rds, "k", "rk", ls, rs, num_buckets=8,
                           salt=salt, how="left").to_pandas()
                 .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
        ref = (left.merge(right, left_on="k", right_on="rk", how="left")
               .astype({"rk": "Int64", "rv": "Int64"})
               .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
        assert len(outer) == len(ref) == 8  # 4 matches ×? + unmatched 1,3,5
        assert outer["rv"].isna().sum() == 3
        assert (outer["lv"].to_numpy() == ref["lv"].to_numpy()).all()
        assert outer["rv"].fillna(-1).astype("int64").tolist() == \
            ref["rv"].fillna(-1).astype("int64").tolist()

        semi = sorted(hash_join(lds, rds, "k", "rk", ls, rs, num_buckets=8,
                                salt=salt, how="semi").to_pandas()["lv"])
        assert semi == [20, 40, 41]
        anti = sorted(hash_join(lds, rds, "k", "rk", ls, rs, num_buckets=8,
                                salt=salt, how="anti").to_pandas()["lv"])
        assert anti == [10, 30, 50]


def test_hash_join_left_keeps_int64_above_2_53(ray_session):
    """An unmatched probe row in the same bucket as a matched one must
    not turn the build side's int64 columns into float64: 2^53+1 came
    back as 2^53."""
    import ray.data as rd

    from pdf4py_ray.stages.relational import hash_join

    big = 2**53 + 1
    left = pa.table({"k": pa.array([1, 2], pa.int64())})
    right = pa.table({"rk": pa.array([1], pa.int64()), "rv": pa.array([big], pa.int64())})
    out = hash_join(rd.from_arrow(left), rd.from_arrow(right), "k", "rk",
                    left.schema, right.schema, num_buckets=1, salt=1, how="left")
    rows = sorted(out.take_all(), key=lambda r: r["k"])
    assert [(r["k"], r["rk"], r["rv"]) for r in rows] == [(1, 1, big), (2, None, None)]


def test_hash_join_oversize_single_key_bucket(ray_session, monkeypatch):
    """Spill guard: a 5M-row SINGLE-KEY probe side (the worst skew —
    salting spreads it over at most 16 sub-buckets, so each merge task
    still sees ~312k rows of one key) completes with the defensive
    chunked merge engaged and exact row/value totals. The chunk size is
    lowered so the test genuinely exercises the multi-chunk path."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from pdf4py_ray.stages import relational as R

    monkeypatch.setattr(R, "_MERGE_CHUNK_ROWS", 100_000)

    n = 5_000_000
    left = rd.range(n).map_batches(
        lambda b: pa.table({
            "k": pa.array(np.full(len(b["id"]), 7, dtype=np.int64)),
            "lv": pa.array(np.asarray(b["id"], dtype=np.int64)),
        }),
        batch_format="pyarrow",
    )
    right = rd.from_arrow(pa.table({
        "rk": pa.array([6, 7, 8], type=pa.int64()),
        "rv": pa.array([600, 700, 800], type=pa.int64()),
    }))
    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("rk", pa.int64()), ("rv", pa.int64())])

    # salt=None: the auto-probe must flag the hot key and salt it
    out = R.hash_join(left, right, "k", "rk", ls, rs,
                      rows_hint=n, salt=None)
    from ray.data.aggregate import Count, Sum

    agg = out.aggregate(Count(alias_name="n"), Sum("lv", alias_name="s_lv"),
                        Sum("rv", alias_name="s_rv"))
    assert agg["n"] == n                       # every probe row matched once
    assert agg["s_lv"] == n * (n - 1) // 2     # all distinct probe values kept
    assert agg["s_rv"] == n * 700              # the single build row replicated


def test_shuffle_coalesced_skips_small_inputs(ray_session):
    """The pre-groupby barrier is inserted only above the calibrated
    row threshold; below it the input plan is returned untouched, and
    an unknown size keeps the barrier (the scale-safe default)."""
    import ray.data as rd

    from pdf4py_ray.stages.relational import _COALESCE_MIN_ROWS, shuffle_coalesced

    ds = rd.range(10)
    assert shuffle_coalesced(ds, 64, _COALESCE_MIN_ROWS - 1) is ds  # skip
    assert shuffle_coalesced(ds, 64, _COALESCE_MIN_ROWS) is not ds  # barrier
    assert shuffle_coalesced(ds, 64, None) is not ds  # unknown → scale-safe


def test_topk_prune_bounds_sort_input(ray_session):
    """top_orders' per-batch combiner: the terminal sort sees at most
    k rows per input block (O(k × batches), never the whole table),
    and pruning changes nothing about the global top-k."""
    import numpy as np
    import ray.data as rd

    from pdf4py_ray.stages.relational import _topk_prune

    rng = np.random.RandomState(3)
    table = pa.table({
        "o_orderkey": pa.array(np.arange(1000, dtype=np.int64)),
        "price_cents": pa.array(
            rng.randint(0, 5000, size=1000).astype(np.int64)),
    })
    k, nblocks = 10, 8
    ds = rd.from_arrow(table).repartition(nblocks)
    pruned = ds.map_batches(lambda b: _topk_prune(b, k),
                            batch_format="pyarrow").materialize()
    assert pruned.count() <= k * nblocks  # the sort input is tiny
    got = (pruned.sort([("price_cents"), ("o_orderkey")],
                       descending=[True, False]).limit(k).to_pandas())
    exp = (table.to_pandas()
           .sort_values(["price_cents", "o_orderkey"],
                        ascending=[False, True]).head(k)
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["o_orderkey", "price_cents"]].reset_index(drop=True),
        exp[["o_orderkey", "price_cents"]])


def test_top_orders_end_to_end(ray_session):
    """top_orders (with the combiner) equals the unpruned full sort on
    a real table."""
    from pdf4py_ray.sources.transcripts import read_table
    from pdf4py_ray.stages.relational import _cents, top_orders

    sf = "/root/testdata/sf0.001"
    got = top_orders(sf).to_pandas()

    ds = read_table(sf, "orders", columns=["o_orderkey", "o_totalprice"])

    def add_cents(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "price_cents", _cents(batch["o_totalprice"])
        ).drop_columns(["o_totalprice"])

    exp = (ds.map_batches(add_cents, batch_format="pyarrow")
           .sort([("price_cents"), ("o_orderkey")], descending=[True, False])
           .limit(10).to_pandas())
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  exp.reset_index(drop=True))



@pytest.fixture
def dangling_sf(tmp_path):
    """A tiny star schema whose foreign keys miss their dimension table
    three times: customer 40's nation 7, order 102's customer 25 and one
    lineitem's supplier 9. A neighbour lookup would map each onto the
    next entry (nation 2, customer 30, supplier 3), whose nations match."""
    import pyarrow.parquet as pq

    tables = {
        "region": {"r_regionkey": [0, 1], "r_name": ["EAST", "WEST"]},
        "nation": {"n_nationkey": [0, 1, 2], "n_name": ["N0", "N1", "N2"],
                   "n_regionkey": [0, 1, 1]},
        "customer": {"c_custkey": [10, 20, 30, 40], "c_nationkey": [0, 1, 2, 7]},
        "supplier": {"s_suppkey": [1, 2, 3], "s_nationkey": [0, 1, 2]},
        "orders": {"o_orderkey": [100, 101, 102, 103], "o_custkey": [10, 20, 25, 30]},
        "lineitem": {"l_orderkey": [100, 101, 102, 103, 103],
                     "l_suppkey": [1, 2, 3, 3, 9],
                     "l_extendedprice": [1000.0, 200.0, 300.0, 50.0, 70.0],
                     "l_discount": [0.0, 0.1, 0.0, 0.0, 0.0]},
    }
    for name, cols in tables.items():
        pq.write_table(pa.table(cols), tmp_path / f"{name}.parquet")
    return str(tmp_path)


def test_broadcast_lookups_drop_dangling_keys(ray_session, dangling_sf, monkeypatch, spy):
    """A key missing from a broadcast dimension drops its row, as the
    shuffle-join fallback's inner joins do; it never borrows the
    neighbouring entry."""
    from pdf4py_ray.stages import relational as R

    joins = spy(R, "hash_join")
    # broadcast: only lineitem ⨝ orders is a hash_join; forced: 2 + 4
    for limit, n_joins in ((R.BROADCAST_ROW_LIMIT, 1), (0, 6)):
        monkeypatch.setattr(R, "BROADCAST_ROW_LIMIT", limit)
        joins.clear()
        got = R.customers_per_region(dangling_sf).to_pandas()
        assert dict(zip(got["r_name"], got["n_customers"])) == {"EAST": 1, "WEST": 2}, limit
        got = R.local_supplier_revenue(dangling_sf).to_pandas()
        assert dict(zip(got["n_name"], got["revenue_cents"])) == {
            "N0": 100000, "N1": 18000, "N2": 5000}, limit
        assert len(joins) == n_joins, limit  # the chosen path ran
