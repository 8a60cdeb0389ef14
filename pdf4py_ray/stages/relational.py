"""Relational/dataflow operator pipelines over the driver tables.

These exercise the engine layer of SURVEY §2.6 — scan with projection
pushdown, vectorized filter/map, partial aggregation before shuffle,
broadcast joins, native hash join, sort/limit, distinct, windowed
aggregation, sessionization — each with an ANSI-SQL oracle (see
``__ray_entry__.oracle_sql``).

Float discipline: distributed double sums are order-dependent, so all
money/quantity aggregations run on integer cents
(``round(x * 100) :: int64``) — associative, exact, and identically
computable in SQL. Ratios are single IEEE divisions of exact integers,
deterministic on both sides.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.broadcast import sorted_lookup
from ..functions.hashing import bucket_of
from ..sources.transcripts import read_table, table_rows


def _cents(arr) -> pa.Array:
    # floor(x*100 + 0.5): rounding-mode-independent for positive values
    # (pyarrow ties-to-even vs DuckDB half-away would otherwise diverge)
    return pc.cast(pc.floor(pc.add(pc.multiply(arr, 100.0), 0.5)), "int64")


# ------------------------------------------------------------------ Q1-style


def pricing_summary(sf_dir: str):
    """Per (returnflag, linestatus) pricing summary — integer-cent sums
    pre-aggregated inside each batch before the small groupby."""
    from ray.data.aggregate import Sum

    ds = read_table(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        qty = _cents(batch["l_quantity"])
        price = _cents(batch["l_extendedprice"])
        disc_price = pc.cast(
            pc.floor(
                pc.add(
                    pc.multiply(
                        pc.multiply(batch["l_extendedprice"], pc.subtract(1.0, batch["l_discount"])),
                        100.0,
                    ),
                    0.5,
                )
            ),
            "int64",
        )
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty_cents": qty,
                "price_cents": price,
                "disc_price_cents": disc_price,
            }
        )
        # per-batch combiner: one row per key per batch
        return pa.Table.from_pandas(
            t.to_pandas()
            .groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .agg(
                qty_cents=("qty_cents", "sum"),
                price_cents=("price_cents", "sum"),
                disc_price_cents=("disc_price_cents", "sum"),
                count_order=("qty_cents", "size"),
            ),
            preserve_index=False,
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_cents", alias_name="sum_qty_cents"),
            Sum("price_cents", alias_name="sum_price_cents"),
            Sum("disc_price_cents", alias_name="sum_disc_price_cents"),
            Sum("count_order", alias_name="count_order"),
        )
    )


# ------------------------------------------------------------------ joins

# A broadcast side above this row count would be an unguarded
# driver-side materialization (at sf100 the customer table is 15M
# rows); such joins fall back to the bucket-shuffle hash_join. The
# guarded queries read it on the driver while they build their plans.
BROADCAST_ROW_LIMIT = 2_000_000
# coarse buckets of the keyed aggregate and per-user window shuffles
_KEY_BUCKETS = 64


def join_auto(large, small, on: str, right_on: str,
              large_schema: pa.Schema, small_schema: pa.Schema,
              rows_hint: int | None = None, salt: int | None = None):
    """Inner join that picks its physical plan by the small side's
    *measured* size: a broadcast map-join (small side collected once,
    ``ray.put``, vectorized pandas merge per batch — no shuffle) when
    it has at most ``BROADCAST_ROW_LIMIT`` rows, else the bucket-shuffle
    :func:`hash_join`. ``small.count()`` is metadata-cheap on raw
    parquet reads. Pass ``rows_hint`` (e.g. parquet-footer counts)
    when ``large`` is a DERIVED pipeline: without it the fallback
    sizes buckets from the already-measured small side (×8 fan guess)
    rather than ``large.count()``, which would execute the whole
    upstream pipeline once just to pick a bucket count."""
    import ray

    from ..functions.broadcast import cached_get

    small_rows = small.count()
    if small_rows <= BROADCAST_ROW_LIMIT:
        small_df = small.to_pandas()
        ref = ray.put(small_df)

        def bj(batch: pd.DataFrame) -> pd.DataFrame:
            # cached_get: the DataFrame (object columns unpickle!) is
            # deserialized once per WORKER, not once per batch
            return batch.merge(cached_get(ref), left_on=on, right_on=right_on)

        return large.map_batches(bj, batch_format="pandas", batch_size=65536)
    return hash_join(large, small, on, right_on, large_schema, small_schema,
                     rows_hint=rows_hint if rows_hint is not None else small_rows * 8,
                     salt=salt)


def revenue_by_segment(sf_dir: str):
    """orders ⨝ customer — broadcast when customer fits under the
    guard, bucket-shuffle hash_join otherwise (see :func:`join_auto`)."""
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = join_auto(
        orders, cust, "o_custkey", "c_custkey",
        _projected_schema(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        _projected_schema(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["price_cents"] = np.floor(batch["o_totalprice"] * 100.0 + 0.5).astype("int64")
        return (
            batch.groupby("c_mktsegment", as_index=False)
            .agg(revenue_cents=("price_cents", "sum"), n_orders=("price_cents", "size"))
        )

    return (
        joined.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("c_mktsegment")
        .aggregate(
            Sum("revenue_cents", alias_name="revenue_cents"),
            Sum("n_orders", alias_name="n_orders"),
        )
    )


_JOIN_TARGET_ROWS_PER_BUCKET = 100_000  # pandas merge comfortably in-heap


def _auto_buckets(rows_hint: int) -> int:
    """Bucket count scaled to input size: ~100k rows per bucket,
    clamped to [64, 4096] (floor = keep every core of a 32-way node
    busy through the merge stage — measured 2.2× on a 750k-row join
    vs 16 buckets) and rounded to a power of two so the key space
    divides evenly."""
    want = max(1, rows_hint // _JOIN_TARGET_ROWS_PER_BUCKET)
    return int(min(4096, max(64, 1 << (want - 1).bit_length())))


def _shuffle_parts(num_buckets: int, rows_hint: int | None = None) -> int:
    """Shuffle-partition count for a bucket ``groupby``: Ray's sort
    shuffle inherits the *input block count* as its reduce-partition
    count, which is wrong at both ends — hundreds of tiny partitions
    for a small derived input (each costs ~10 ms of scheduler/barrier
    overhead), or (at 100 TB) hundreds of thousands of reducers for at
    most 4096 buckets. Coalescing to
    ``min(num_buckets, max(cpus, rows/100k))`` right-sizes the
    exchange: every reducer gets ≥1 bucket, parallelism never drops
    below the cluster width, and the count grows with data up to the
    bucket ceiling. Measured 1.4 s → 0.85 s on the sf0.1
    orders⨝customer join."""
    import ray

    cpus = 32
    if ray.is_initialized():
        cpus = int(ray.cluster_resources().get("CPU", 32))
    rows_parts = (rows_hint or 0) // _JOIN_TARGET_ROWS_PER_BUCKET
    return max(1, int(min(num_buckets, max(cpus, rows_parts))))


# Below this many input rows the repartition barrier costs more than
# the groupby it feeds saves: .repartition() is itself an all-to-all
# with ~0.5-1 s fixed cost in Ray 2.49, and a small input has at most
# a handful of blocks — already within a small factor of the right
# reducer count. Calibrated by measurement at sf0.1: the barrier paid
# on the ~165k-row orders⨝customer join (1.4 s → 0.85 s) and on the
# ~100k-row events joins (~40% faster), but cost the ≤80k-row dedup
# pair stages 1.5-1.8× when round 3 inserted it unconditionally.
_COALESCE_MIN_ROWS = 100_000


def shuffle_coalesced(ds, num_buckets: int, rows_hint: int | None = None):
    """Pre-groupby repartition barrier, inserted only when it pays.

    Ray's sort-based ``groupby`` shuffle inherits the *input block
    count* as its reduce-partition count — wrong at both ends (hundreds
    of ~10 ms-overhead partitions for a many-blocked input; more
    reducers than buckets at 100 TB). :func:`_shuffle_parts` right-sizes
    it, but the barrier itself has fixed all-to-all cost, so it is
    SKIPPED when ``rows_hint`` says the input is small
    (< ``_COALESCE_MIN_ROWS``). With no hint the barrier is kept — the
    scale-safe default for unknown-size inputs."""
    if rows_hint is not None and rows_hint < _COALESCE_MIN_ROWS:
        return ds
    return ds.repartition(_shuffle_parts(num_buckets, rows_hint))


_SALT_SAMPLE_ROWS = 65_536


def _detect_salt(left, on: str, sample_rows: int = _SALT_SAMPLE_ROWS) -> int:
    """Bounded probe-side skew probe: the first ``sample_rows`` key
    values (projection-pushed ``limit`` — streaming early-stop, never
    a full pass) are frequency-counted; a key holding more than 1/8 of
    the sample triggers salting, scaled to its share. Head sampling is
    biased toward the first blocks — for key-sorted inputs that biases
    toward MORE salting (bounded at 16× build replication), never
    toward missing a hot key that dominates globally but not locally…
    which the per-bucket merge would still survive via spill.

    NOTE: the probe executes ``left``'s upstream plan (``limit`` cannot
    early-stop through a shuffle), which is cheap for raw parquet reads
    but re-runs derived pipelines — callers joining on the output of
    another pipeline should pass ``salt`` explicitly (every internal
    call site on a near-unique key passes ``salt=1``)."""
    import logging

    try:
        sample = left.select_columns([on]).limit(sample_rows).to_pandas()[on]
    except (KeyError, ValueError, TypeError, OSError) as exc:
        logging.warning("hash_join salt probe failed (%s); assuming no skew", exc)
        return 1
    n = len(sample)
    if n < 1024:
        return 1
    share = sample.value_counts(sort=True).iloc[0] / n
    if share > 0.5:
        return 16
    if share > 0.25:
        return 8
    if share > 0.125:
        return 4
    return 1


def hash_join(left, right, on: str, right_on: str,
              left_schema: pa.Schema, right_schema: pa.Schema,
              num_buckets: int | None = None, rows_hint: int | None = None,
              salt: int | None = None, how: str = "inner"):
    """Distributed hash join as a bucket shuffle: both sides are
    tagged with ``hash(key) % num_buckets``, unioned (columns of the
    other side padded with typed nulls so the Arrow schema unifies),
    co-located with ONE single-int64-key ``groupby``, and merged
    per-bucket with a vectorized pandas merge. Column names of the two
    sides must be disjoint. This is the engine's large⨝large path —
    Ray 2.49's native ``Dataset.join`` runs its hash shuffle on
    aggregator actors with multi-second fixed overhead per partition,
    while this shape pays only the one shuffle it needs.

    ``num_buckets`` defaults to :func:`_auto_buckets` over
    ``rows_hint`` (pass the known input cardinality — e.g. parquet
    metadata row counts — to avoid an extra counting pass; with
    neither given, both sides are ``count()``-ed, which is
    metadata-cheap on raw parquet reads but executes derived
    pipelines).

    ``salt > 1`` bounds per-bucket size under key skew: each *left*
    (probe) row is routed to one of ``salt`` sub-buckets of its key's
    bucket, and every *right* (build) row is replicated into all
    ``salt`` sub-buckets — so one hot key's probe rows spread over
    ``salt`` merge tasks at the cost of ``salt``× build-side shuffle
    volume. Put the large skewed side on the left. ``salt=None`` (the
    default) AUTO-detects skew with :func:`_detect_salt` — a bounded
    head sample of probe keys; pass ``salt=1`` explicitly when the key
    is known near-unique (e.g. the dedup pair-id joins) to skip the
    probe.

    ``how`` ∈ {"inner", "left", "semi", "anti"}. All modes share the
    one bucket shuffle; they differ only in the per-bucket pandas
    kernel. "left" keeps unmatched probe rows (right columns null —
    emitted through pandas nullable dtypes so the Arrow schema stays
    typed); "semi"/"anti" emit probe rows with ≥1 / 0 build matches
    (EXISTS / NOT EXISTS) and carry only the left columns. Salting
    stays correct for every mode: a probe row lands in exactly one
    sub-bucket and the build side is replicated into all of them, so
    each probe row still sees the full set of its key's build rows."""
    assert how in ("inner", "left", "semi", "anti"), how
    left_names = [f.name for f in left_schema]
    right_names = [f.name for f in right_schema]
    assert not (set(left_names) & set(right_names)), "join sides must not share names"
    if salt is None:
        salt = _detect_salt(left, on)
    assert salt >= 1
    unified = list(left_schema) + list(right_schema)
    if num_buckets is None:
        if rows_hint is None:
            rows_hint = left.count() + right.count()
        num_buckets = _auto_buckets(rows_hint)

    def tagger(key: str, own: pa.Schema, side: int):
        def tag(batch: pa.Table) -> pa.Table:
            n = len(batch)
            bucket = bucket_of(batch[key].to_numpy(zero_copy_only=False), num_buckets)
            cols, names = [], []
            for f in unified:
                names.append(f.name)
                if f.name in own.names:
                    cols.append(batch[f.name])
                else:
                    cols.append(pa.nulls(n, type=f.type))
            if salt > 1:
                if side == 0:  # probe rows fan out across sub-buckets
                    sub = np.arange(n, dtype=np.int64) % salt
                    bucket = bucket * salt + sub
                else:  # build rows replicate into every sub-bucket
                    reps = pa.array(np.repeat(np.arange(n, dtype=np.int64), salt))
                    cols = [c.take(reps) for c in cols]
                    tiled = np.tile(np.arange(salt, dtype=np.int64), n)
                    bucket = np.repeat(bucket, salt) * salt + tiled
                    n = n * salt
            names += ["__bucket", "__side"]
            cols += [pa.array(bucket, type=pa.int64()),
                     pa.array(np.full(n, side, dtype=np.int8), type=pa.int8())]
            return pa.table(dict(zip(names, cols)))

        return tag

    tagged = left.map_batches(tagger(on, left_schema, 0), batch_format="pyarrow").union(
        right.map_batches(tagger(right_on, right_schema, 1), batch_format="pyarrow")
    ).repartition(_shuffle_parts(num_buckets * salt, rows_hint))

    out_schema = pa.schema(unified) if how in ("inner", "left") else left_schema
    # pandas nullable dtypes for right-side columns of a left join:
    # unmatched rows must stay typed (int64+null, not float64 NaN)
    _NULLABLE = {pa.int64(): "Int64", pa.int32(): "Int32",
                 pa.bool_(): "boolean", pa.float64(): "Float64"}
    right_nullable = {f.name: _NULLABLE[f.type] for f in right_schema
                      if f.type in _NULLABLE} if how == "left" else {}

    def merge(group: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        lhs = group.filter(_pc.equal(group["__side"], 0)).select(left_names).to_pandas()
        rhs = group.filter(_pc.equal(group["__side"], 1)).select(right_names).to_pandas()
        if right_nullable:
            # before the merge: pandas pads an unmatched probe row by
            # turning an int64 column into float64, which rounds > 2^53
            rhs = rhs.astype(right_nullable)
        if how in ("semi", "anti"):
            mask = lhs[on].isin(rhs[right_on].unique())
            merged = lhs[mask if how == "semi" else ~mask]
        else:
            # defensive oversize-bucket split: salting caps build-side
            # replication at 16×, so one key holding >16×100k probe
            # rows still lands a single giant pandas merge whose
            # intermediate indexers/output burst can exceed a task's
            # heap. Probe rows are independent, so merging in bounded
            # chunks is semantically identical for every join mode that
            # reaches here (inner/left) while capping the per-merge
            # working set.
            if len(lhs) > _MERGE_CHUNK_ROWS:
                merged = pd.concat(
                    [lhs.iloc[i:i + _MERGE_CHUNK_ROWS].merge(
                        rhs, left_on=on, right_on=right_on, how=how)
                     for i in range(0, len(lhs), _MERGE_CHUNK_ROWS)],
                    ignore_index=True,
                )
            else:
                merged = lhs.merge(rhs, left_on=on, right_on=right_on, how=how)
        # emit a TYPED Arrow table: a raw pandas return would let Ray
        # re-infer column types per block (e.g. ndarray cells become
        # tensor-extension arrays), breaking downstream schema unify
        return pa.Table.from_pandas(merged, schema=out_schema, preserve_index=False)

    return tagged.groupby("__bucket").map_groups(merge, batch_format="pyarrow")


# per-chunk probe rows for the defensive in-bucket merge split
_MERGE_CHUNK_ROWS = 1_000_000


_HIGH_VALUE_ORDER = 440_000.0  # price filter so every join mode is non-vacuous


def customer_order_counts(sf_dir: str):
    """customer LEFT JOIN high-value orders → per-customer count
    INCLUDING zero-order customers (the rows only an outer join can
    produce — the price filter guarantees unmatched customers exist),
    then the standard partial-agg + coarse-bucket combine."""
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    ).filter(expr=f"o_totalprice > {_HIGH_VALUE_ORDER}").drop_columns(
        ["o_totalprice"]
    )
    c_schema = _projected_schema(sf_dir, "customer", ["c_custkey"])
    o_schema = _projected_schema(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    rows = table_rows(sf_dir, "customer") + table_rows(sf_dir, "orders")
    j = hash_join(cust, orders, on="c_custkey", right_on="o_custkey",
                  left_schema=c_schema, right_schema=o_schema,
                  rows_hint=rows, salt=1, how="left")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # count() skips the nulls of unmatched customers → 0
        out = batch.groupby("c_custkey", as_index=False).agg(
            n_orders=("o_orderkey", "count"))
        out["n_orders"] = out["n_orders"].astype("int64")
        out["bucket"] = bucket_of(out["c_custkey"].to_numpy(), _KEY_BUCKETS)
        return out

    def combine(group: pd.DataFrame) -> pd.DataFrame:
        g = group.groupby("c_custkey", as_index=False).agg(
            n_orders=("n_orders", "sum"))
        g["n_orders"] = g["n_orders"].astype("int64")
        return g

    return (
        j.map_batches(partial, batch_format="pandas")
        .repartition(_shuffle_parts(_KEY_BUCKETS, rows))
        .groupby("bucket")
        .map_groups(combine, batch_format="pandas")
    )


def _customers_orders_exists(sf_dir: str, how: str):
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_totalprice"]
    ).filter(expr=f"o_totalprice > {_HIGH_VALUE_ORDER}").drop_columns(
        ["o_totalprice"]
    )
    c_schema = _projected_schema(sf_dir, "customer", ["c_custkey"])
    o_schema = _projected_schema(sf_dir, "orders", ["o_custkey"])
    rows = table_rows(sf_dir, "customer") + table_rows(sf_dir, "orders")
    return hash_join(cust, orders, on="c_custkey", right_on="o_custkey",
                     left_schema=c_schema, right_schema=o_schema,
                     rows_hint=rows, salt=1, how=how)


def customers_with_orders(sf_dir: str):
    """Semi join (EXISTS): customers with ≥1 high-value order."""
    return _customers_orders_exists(sf_dir, "semi")


def customers_without_orders(sf_dir: str):
    """Anti join (NOT EXISTS): customers with no high-value order."""
    return _customers_orders_exists(sf_dir, "anti")


def orders_per_nation(sf_dir: str):
    """orders ⨝ customer via the engine's bucket-shuffle
    :func:`hash_join`, then per-batch partial aggregation → groupby."""
    from ray.data.aggregate import Sum

    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    o_schema = _projected_schema(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    c_schema = _projected_schema(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = hash_join(orders, cust, "o_custkey", "c_custkey", o_schema, c_schema)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch["price_cents"] = np.floor(batch["o_totalprice"] * 100.0 + 0.5).astype("int64")
        return batch.groupby("c_nationkey", as_index=False).agg(
            n_orders=("price_cents", "size"), revenue_cents=("price_cents", "sum")
        )

    return (
        joined.map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("c_nationkey")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("revenue_cents", alias_name="revenue_cents"))
    )


def _projected_schema(sf_dir: str, table: str, columns: list) -> pa.Schema:
    import pyarrow.parquet as pq

    full = pq.read_schema(f"{sf_dir}/{table}.parquet")
    return pa.schema([full.field(c) for c in columns])


def customers_per_region(sf_dir: str):
    """3-way dimension join (nation ⨝ region pre-composed when both
    fit under the broadcast guard; hash_join fallback otherwise)."""
    import ray
    from ray.data.aggregate import Sum

    cust = read_table(sf_dir, "customer", columns=["c_nationkey"])
    nation_ds = read_table(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    region_ds = read_table(sf_dir, "region", columns=["r_regionkey", "r_name"])

    limit = BROADCAST_ROW_LIMIT
    if nation_ds.count() <= limit and region_ds.count() <= limit:
        # compose the two tiny dims into one lookup, broadcast once as a
        # (sorted int64 keys, int64 codes) numpy pair — ``ray.get`` is a
        # plasma zero-copy view per batch (a dict broadcast would
        # re-unpickle every batch); the handful of DISTINCT region
        # names rides in the closure as a factor table
        dim = nation_ds.to_pandas().merge(
            region_ds.to_pandas(), left_on="n_regionkey", right_on="r_regionkey"
        )[["n_nationkey", "r_name"]].sort_values("n_nationkey")
        names_arr, codes = np.unique(
            dim["r_name"].to_numpy(dtype=object), return_inverse=True
        )
        names = [str(x) for x in names_arr]
        ref = ray.put((dim["n_nationkey"].to_numpy(dtype=np.int64),
                       codes.astype(np.int64)))

        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            keys, code_arr = ray.get(ref)  # zero-copy numpy views
            code, hit = sorted_lookup(keys, code_arr,
                                      batch["c_nationkey"].to_numpy(dtype=np.int64))
            # inner-join semantics: a c_nationkey missing from nation drops
            cnt = np.bincount(code[hit], minlength=len(names))
            nz = np.nonzero(cnt)[0]
            return pd.DataFrame({"r_name": [names[i] for i in nz],
                                 "n_customers": cnt[nz].astype("int64")})

        tagged = cust.map_batches(tag, batch_format="pandas", batch_size=65536)
    else:
        c_schema = _projected_schema(sf_dir, "customer", ["c_nationkey"])
        n_schema = _projected_schema(sf_dir, "nation", ["n_nationkey", "n_regionkey"])
        r_schema = _projected_schema(sf_dir, "region", ["r_regionkey", "r_name"])
        j1 = hash_join(cust, nation_ds, "c_nationkey", "n_nationkey", c_schema, n_schema)
        j2 = hash_join(
            j1, region_ds, "n_regionkey", "r_regionkey",
            pa.schema(list(c_schema) + list(n_schema)), r_schema,
        )

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.groupby("r_name", as_index=False).agg(
                n_customers=("r_name", "size")
            )

        tagged = j2.map_batches(partial, batch_format="pandas", batch_size=65536)

    return (
        tagged.groupby("r_name")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
    )


# ------------------------------------------------------------------ scan shapes


def _topk_prune(batch: pa.Table, k: int) -> pa.Table:
    """Per-batch top-k combiner for :func:`top_orders`: any row outside
    a batch's own (price desc, orderkey asc) top-k cannot be in the
    global top-k, so the terminal sort's input is O(k × batches)
    instead of the whole orders table — at 10¹² rows the difference
    between a corpus-wide all-to-all and a trivial reduce."""
    idx = pc.sort_indices(
        batch,
        sort_keys=[("price_cents", "descending"), ("o_orderkey", "ascending")],
    )
    return batch.take(idx[:k])


_TOP_ORDERS = 10  # rows of top_orders


def top_orders(sf_dir: str):
    """Global top-10 by price: per-batch top-k prune (combiner) → tiny
    sort + limit, deterministic tie-break."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def add_cents(batch: pa.Table) -> pa.Table:
        t = batch.append_column("price_cents", _cents(batch["o_totalprice"])).drop_columns(
            ["o_totalprice"]
        )
        return _topk_prune(t, _TOP_ORDERS)

    return (
        ds.map_batches(add_cents, batch_format="pyarrow")
        .sort([("price_cents"), ("o_orderkey")], descending=[True, False])
        .limit(_TOP_ORDERS)
    )


def revenue_filtered(sf_dir: str):
    """TPC-H Q6 shape: vectorized filter + projected sum (one row)."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "lineitem", columns=["l_quantity", "l_extendedprice", "l_discount"])

    def partial(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.and_(
                pc.greater_equal(batch["l_discount"], 0.05),
                pc.less_equal(batch["l_discount"], 0.07),
            ),
            pc.less(batch["l_quantity"], 24.0),
        )
        hit = batch.filter(mask)
        rev = pc.cast(
            pc.floor(pc.add(pc.multiply(pc.multiply(hit["l_extendedprice"], hit["l_discount"]), 100.0), 0.5)),
            "int64",
        )
        total = pc.sum(rev).as_py() or 0
        return pa.table({"revenue_cents": pa.array([total], type=pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    result = partials.aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    return pd.DataFrame([result])


def distinct_event_types(sf_dir: str):
    """DISTINCT via unique() (a shuffle)."""
    ds = read_table(sf_dir, "events", columns=["event_type"])
    values = sorted(ds.unique("event_type"))
    import ray.data as rd

    return rd.from_items([{"event_type": v} for v in values])


# ------------------------------------------------------------------ windows


def daily_event_stats(sf_dir: str):
    """Tumbling 1-day window per event_type: count + integer-cent sum.

    Ray Data has no event-time windows; the tumbling window is the
    bucketed groupby (ray_guide: streaming-shaped workloads)."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch["day"] = batch["ts"].dt.strftime("%Y-%m-%d")
        batch["value_cents"] = np.floor(batch["value"] * 100.0 + 0.5).astype("int64")
        return batch.groupby(["event_type", "day"], as_index=False).agg(
            n_events=("value_cents", "size"), sum_value_cents=("value_cents", "sum")
        )

    return (
        ds.map_batches(bucket, batch_format="pandas", batch_size=65536)
        .groupby(["event_type", "day"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_cents", alias_name="sum_value_cents"),
        )
    )


def local_supplier_revenue(sf_dir: str):
    """TPC-H Q5 shape: revenue by nation where customer and supplier
    share a nation — a 5-way join. The one large⨝large edge
    (lineitem ⨝ orders) goes through the bucket-shuffle
    :func:`hash_join`; customer, supplier and nation attach through
    :func:`join_auto` (broadcast while they fit under the guard,
    shuffle join beyond it — at sf100 customer is 15M rows)."""
    from ray.data.aggregate import Sum

    line = read_table(sf_dir, "lineitem",
                      columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    l_schema = _projected_schema(sf_dir, "lineitem",
                                 ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    o_schema = _projected_schema(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = hash_join(line, orders, "l_orderkey", "o_orderkey", l_schema, o_schema)
    lo_schema = pa.schema(list(l_schema) + list(o_schema))

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    supp = read_table(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nation = read_table(sf_dir, "nation", columns=["n_nationkey", "n_name"])
    c_schema = _projected_schema(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    s_schema = _projected_schema(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    n_schema = _projected_schema(sf_dir, "nation", ["n_nationkey", "n_name"])

    import ray

    limit = BROADCAST_ROW_LIMIT
    if cust.count() <= limit and supp.count() <= limit and nation.count() <= limit:
        # all three dims fit: ONE fused stage does lookup + co-nation
        # filter + per-batch partial aggregation (no extra map stages).
        # The lookups are broadcast as SORTED int64 numpy (key, value)
        # arrays — ``ray.get`` per batch is a plasma zero-copy view
        # and the gather is ``searchsorted`` (a dict broadcast would
        # re-unpickle up to 3×2M entries on EVERY batch). Nation NAMES
        # (strings — not zero-copy-able) go through the per-worker
        # ``cached_get`` memo: one unpickle per worker.
        from ..functions.broadcast import cached_get

        def _sorted_pair(ds_, key, val):
            df = ds_.to_pandas().sort_values(key)
            return (df[key].to_numpy(dtype=np.int64),
                    df[val].to_numpy(dtype=np.int64))

        ck, cn = _sorted_pair(cust, "c_custkey", "c_nationkey")
        sk, sn = _sorted_pair(supp, "s_suppkey", "s_nationkey")
        nat_df = nation.to_pandas().sort_values("n_nationkey")
        nk = nat_df["n_nationkey"].to_numpy(dtype=np.int64)
        ref = ray.put((ck, cn, sk, sn, nk))
        names_ref = ray.put(list(map(str, nat_df["n_name"])))

        def fused(batch: pd.DataFrame) -> pd.DataFrame:
            ck_, cn_, sk_, sn_, nk_ = ray.get(ref)  # zero-copy views
            names = cached_get(names_ref)
            c_nat, c_hit = sorted_lookup(
                ck_, cn_, batch["o_custkey"].to_numpy(dtype=np.int64))
            s_nat, s_hit = sorted_lookup(
                sk_, sn_, batch["l_suppkey"].to_numpy(dtype=np.int64))
            code, n_hit = sorted_lookup(nk_, np.arange(len(nk_)), s_nat)
            # inner-join semantics: a key missing from a dimension drops
            # the row instead of borrowing its neighbour's nation
            hit = c_hit & s_hit & n_hit & (c_nat == s_nat)
            if not hit.any():
                return pd.DataFrame({"n_name": pd.Series(dtype="object"),
                                     "revenue_cents": pd.Series(dtype="int64")})
            rev = np.floor(
                batch["l_extendedprice"].to_numpy()[hit]
                * (1.0 - batch["l_discount"].to_numpy()[hit]) * 100.0 + 0.5
            ).astype(np.int64)
            # per-batch sums stay < 2^53 (≤65536 rows × ~1e7 cents), so
            # the float64 bincount accumulator is exact
            total = np.bincount(code[hit], weights=rev, minlength=len(nk_))
            nz = np.nonzero(total)[0]
            return pd.DataFrame({
                "n_name": [names[i] for i in nz],
                "revenue_cents": total[nz].astype("int64"),
            })

        pre = joined.map_batches(fused, batch_format="pandas", batch_size=65536)
        return (
            pre.groupby("n_name")
            .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        )

    # a dim outgrew the guard: chain bucket-shuffle joins instead —
    # bucket sizing from parquet-footer counts (lineitem rows bound the
    # joined cardinality), never a count() of the derived left side
    line_rows = table_rows(sf_dir, "lineitem")
    j2 = join_auto(joined, cust, "o_custkey", "c_custkey", lo_schema, c_schema,
                   rows_hint=line_rows + table_rows(sf_dir, "customer"), salt=1)
    j3 = join_auto(j2, supp, "l_suppkey", "s_suppkey",
                   pa.schema(list(lo_schema) + list(c_schema)), s_schema,
                   rows_hint=line_rows + table_rows(sf_dir, "supplier"), salt=1)

    nat_type = n_schema.field("n_nationkey").type

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hit = batch[batch["c_nationkey"] == batch["s_nationkey"]].copy()
        if not len(hit):
            return pd.DataFrame({
                "s_nationkey": pd.Series(dtype=batch["s_nationkey"].dtype),
                "revenue_cents": pd.Series(dtype="int64"),
            })
        hit["revenue_cents"] = np.floor(
            hit["l_extendedprice"] * (1.0 - hit["l_discount"]) * 100.0 + 0.5
        ).astype("int64")
        return hit.groupby("s_nationkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        )

    # per-batch pre-aggregation by nationkey BEFORE the nation join —
    # only ~|nations| rows per batch reach the final (tiny) join+groupby
    pre = j3.map_batches(partial, batch_format="pandas", batch_size=65536)
    pre_schema = pa.schema([("s_nationkey", nat_type), ("revenue_cents", pa.int64())])
    j4 = join_auto(pre, nation, "s_nationkey", "n_nationkey",
                   pre_schema, n_schema, salt=1)
    return (
        j4.groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


def parts_by_brand(sf_dir: str):
    """Simple dimensional aggregate over the part table."""
    from ray.data.aggregate import Count, Sum

    ds = read_table(sf_dir, "part", columns=["p_brand", "p_retailprice"])

    def cents(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "price_cents", _cents(batch["p_retailprice"])
        ).drop_columns(["p_retailprice"])

    return (
        ds.map_batches(cents, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(alias_name="n_parts"), Sum("price_cents", alias_name="retail_cents"))
    )


_SEGMENT_TOP = 3  # orders ranked per segment by top_orders_per_segment


def top_orders_per_segment(sf_dir: str):
    """Window-rank shape: top-3 orders by price within each customer
    segment (rank() OVER (PARTITION BY segment ORDER BY price DESC)).
    The segment attach goes through :func:`join_auto` (broadcast under
    the guard, shuffle join above); the rank itself is a per-group
    sort inside ``groupby(segment).map_groups`` — the partitioned
    window pattern."""
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = join_auto(
        orders, cust, "o_custkey", "c_custkey",
        _projected_schema(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
        _projected_schema(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
    )

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch["price_cents"] = np.floor(batch["o_totalprice"] * 100.0 + 0.5).astype("int64")
        out = batch[["c_mktsegment", "o_orderkey", "price_cents"]]
        # per-batch combiner: only each batch's local top-k survives
        return (
            out.sort_values(["price_cents", "o_orderkey"], ascending=[False, True])
            .groupby("c_mktsegment", sort=False)
            .head(_SEGMENT_TOP)
        )

    def global_topk(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["price_cents", "o_orderkey"],
                              ascending=[False, True]).head(_SEGMENT_TOP)
        g = g.copy()
        g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return (
        joined.map_batches(tag, batch_format="pandas", batch_size=65536)
        .groupby("c_mktsegment")
        .map_groups(global_topk, batch_format="pandas")
    )


def region_nation_names(sf_dir: str):
    """Set-op shape: UNION ALL of two scans + DISTINCT (a shuffle via
    ``Dataset.unique``)."""
    regions = read_table(sf_dir, "region", columns=["r_name"]).map_batches(
        lambda b: b.rename_columns(["name"]), batch_format="pyarrow"
    )
    nations = read_table(sf_dir, "nation", columns=["n_name"]).map_batches(
        lambda b: b.rename_columns(["name"]), batch_format="pyarrow"
    )
    names = sorted(regions.union(nations).unique("name"))
    return pd.DataFrame({"name": names})


def trailing_event_avg(sf_dir: str):
    """Sliding (trailing rows-frame) window: per event_type, the
    3-day moving average of the daily value sum —
    AVG(...) OVER (PARTITION BY type ORDER BY day ROWS BETWEEN 2
    PRECEDING AND CURRENT ROW). Daily sums are the partial aggregate
    (exact integer cents); the rolling frame runs per-group over the
    tiny per-type day series, so the shuffle moves only daily rows."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])

    def bucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch["day"] = batch["ts"].dt.strftime("%Y-%m-%d")
        batch["value_cents"] = np.floor(batch["value"] * 100.0 + 0.5).astype("int64")
        return batch.groupby(["event_type", "day"], as_index=False).agg(
            sum_cents=("value_cents", "sum")
        )

    daily = (
        ds.map_batches(bucket, batch_format="pandas", batch_size=65536)
        .groupby(["event_type", "day"])
        .aggregate(Sum("sum_cents", alias_name="sum_cents"))
    )

    def rolling(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("day").reset_index(drop=True)
        sums = g["sum_cents"].rolling(3, min_periods=1).sum().astype("int64")
        counts = g["sum_cents"].rolling(3, min_periods=1).count().astype("int64")
        # single IEEE division of exact integers — matches SQL AVG
        g["avg_cents"] = sums.to_numpy() / counts.to_numpy()
        return g[["event_type", "day", "avg_cents"]]

    return daily.groupby("event_type").map_groups(rolling, batch_format="pandas")


def users_per_event_type(sf_dir: str):
    """Exact COUNT(DISTINCT user_id) per event_type — the exact
    counterpart of the HLL sketch (``t_hll_registers``), as two-level
    aggregation: each batch dedupes its own (type, user) pairs first
    (the combiner — the shuffle moves distinct-pair rows, not events),
    one user-bucket shuffle makes the dedupe global (a pair lives in
    exactly one bucket), per-bucket partial counts, then a tiny final
    sum over ≤ types × buckets rows."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def local_dedupe(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.drop_duplicates()
        out["bucket"] = bucket_of(out["user_id"].to_numpy(), _KEY_BUCKETS)
        return out

    def count_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(["event_type", "user_id"])
        out = g.groupby("event_type", as_index=False).agg(n=("user_id", "count"))
        out["n"] = out["n"].astype("int64")
        return out

    return (
        ds.map_batches(local_dedupe, batch_format="pandas")
        .repartition(_shuffle_parts(_KEY_BUCKETS, table_rows(sf_dir, "events")))
        .groupby("bucket")
        .map_groups(count_bucket, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("n", alias_name="n_users"))
    )


def _add_user_bucket(batch: pa.Table) -> pa.Table:
    """Append ``bucket``, the coarse user bucket of each event row."""
    bucket = bucket_of(batch["user_id"].to_numpy(zero_copy_only=False), _KEY_BUCKETS)
    return batch.append_column("bucket", pa.array(bucket, type=pa.int64()))


def event_gaps(sf_dir: str):
    """Per-user LAG window: each event's time gap to the user's
    previous event (first event → 0), in exact integer microseconds —
    the remaining classic window shape (LAG/LEAD) next to the rolling
    frame (`trailing_event_avg`) and sessionization.

    Same physical plan as sessionization: one coarse user-bucket
    shuffle co-locates each user's events; inside a bucket the lag is
    one vectorized sort by (user, ts, event_id) + int64-µs ``diff``
    masked at user boundaries — never a per-user task. The (ts,
    event_id) tie-break makes the order — and therefore the gap —
    deterministic on both the engine and SQL sides."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def gaps_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        # pin the unit: pandas may carry ns where the oracle counts µs
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype("int64")
        gap = np.diff(ts_us, prepend=ts_us[0] if len(ts_us) else 0)
        first = ~g["user_id"].eq(g["user_id"].shift()).to_numpy()
        gap[first] = 0
        return pd.DataFrame({
            "event_id": g["event_id"].to_numpy(dtype="int64"),
            "gap_us": gap.astype("int64"),
        })

    return (
        ds.map_batches(_add_user_bucket, batch_format="pyarrow")
        .repartition(_shuffle_parts(_KEY_BUCKETS, table_rows(sf_dir, "events")))
        .groupby("bucket")
        .map_groups(gaps_bucket, batch_format="pandas")
    )


def user_sessions(sf_dir: str):
    """Sessionization: per-user ordered gap analysis; a gap of more
    than 30 minutes starts a new session.

    One Ray group per *user* would pay the executor's per-group task
    overhead (~40 ms/group measured here) — ruinous at 10⁹ users.
    Instead users are coarse-bucketed (``hash(user_id) % 64`` — one
    int64 shuffle key, all of a user's events co-located), and the
    per-user sessionization runs VECTORIZED inside each bucket: one
    sort + one ``diff`` + one pandas groupby-sum per bucket."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])

    def sessions_bucket(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["user_id", "ts"])
        gaps = g.groupby("user_id", sort=False)["ts"].diff().dt.total_seconds().fillna(0.0)
        breaks = (gaps > 30 * 60).astype("int64")
        out = breaks.groupby(g["user_id"], sort=False).sum() + 1
        return out.rename("n_sessions").reset_index()

    return (
        ds.map_batches(_add_user_bucket, batch_format="pyarrow")
        .repartition(_shuffle_parts(_KEY_BUCKETS, table_rows(sf_dir, "events")))
        .groupby("bucket")
        .map_groups(sessions_bucket, batch_format="pandas")
    )


def _ts_minmax_us(ds, sf_dir: str, table: str, col: str) -> tuple:
    """(min, max) of a timestamp column as int64 µs. Tries parquet
    row-group statistics first (footer-only, no data read); falls back
    to one Ray Min/Max aggregate when stats are absent."""
    import pyarrow.parquet as pq

    try:
        f = pq.ParquetFile(f"{sf_dir}/{table}.parquet")
        names = [f.metadata.schema.column(i).name
                 for i in range(f.metadata.num_columns)]
        idx = names.index(col)
        mins, maxs = [], []
        for rg in range(f.metadata.num_row_groups):
            st = f.metadata.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                raise ValueError("missing row-group stats")
            mins.append(st.min)
            maxs.append(st.max)
        lo = min(mins)
        hi = max(maxs)
        return (int(np.datetime64(lo, "us").astype("int64")),
                int(np.datetime64(hi, "us").astype("int64")))
    except Exception:
        from ray.data.aggregate import Max, Min

        agg = ds.aggregate(Min(col), Max(col))
        lo, hi = agg[f"min({col})"], agg[f"max({col})"]
        return (int(np.datetime64(lo, "us").astype("int64")),
                int(np.datetime64(hi, "us").astype("int64")))


# Equal-width time epochs the event joins split each key bucket into
# (1: no time salting)
_TIME_SALT = 1
_RANGE_DAYS = 7  # window of range_join_orders_events


def _time_bounds(events, orders, sf_dir: str, salt: int) -> tuple:
    """``(lo, hi)`` µs over both event-join sides when ``salt > 1``,
    else ``(0, 0)`` (unsalted plans never read the bounds)."""
    if salt == 1:
        return 0, 0
    e_lo, e_hi = _ts_minmax_us(events, sf_dir, "events", "ts")
    o_lo, o_hi = _ts_minmax_us(orders, sf_dir, "orders", "o_orderdate")
    return min(e_lo, o_lo), max(e_hi, o_hi)


def _epoch_of(ts_us: np.ndarray, lo: int, hi: int, salt: int) -> np.ndarray:
    """Equal-width time epoch ∈ [0, salt) over [lo, hi], clipped so
    out-of-range rows land in the edge epochs."""
    span = max(1, hi - lo + 1)
    e = ((ts_us.astype(np.int64) - lo) * salt) // span
    return np.clip(e, 0, salt - 1).astype(np.int64)


def asof_join_events_orders(sf_dir: str):
    """As-of join — Ray Data has no native one (SURVEY §2.6 custom-op
    list): each event is matched to the SAME user's most recent order
    with ``o_orderdate <= ts``.

    Plan: both sides are coarse-bucketed by ``hash(key) % B`` (one
    int64 shuffle key co-locates a user's events with their orders);
    inside each bucket one vectorized ``pandas.merge_asof``
    (direction="backward", by=user) does the per-key time alignment.
    Deterministic tie-break: orders pre-sorted by (date, orderkey), so
    equal-date ties resolve to the larger orderkey — the same order
    the SQL ROW_NUMBER oracle picks.

    The bucket count is :func:`_auto_buckets` over the two tables'
    parquet-footer row counts (no counting pass).

    ``_TIME_SALT`` = S > 1 (read while the plan is built) bounds
    per-bucket rows under key skew (one hot user): the time axis is cut
    into S equal-width epochs (bounds from parquet row-group stats —
    footer-only, :func:`_ts_minmax_us`), every event
    goes to the sub-bucket ``key_bucket·S + epoch(ts)``, and every
    order is replicated FORWARD into its own and all later epochs —
    so any event still sees every order at-or-before it, while the hot
    key's (typically event-heavy) rows spread over ``S`` merge tasks.
    Cost: ≤ ``S``× order-side shuffle volume; events are never
    duplicated, so no re-aggregation pass is needed."""
    events = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    rows_hint = table_rows(sf_dir, "events") + table_rows(sf_dir, "orders")
    num_buckets = _auto_buckets(rows_hint)
    S = _TIME_SALT
    lo, hi = _time_bounds(events, orders, sf_dir, S)

    def tag(key_col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            bucket = bucket_of(batch[key_col].to_numpy(zero_copy_only=False), num_buckets)
            n = len(batch)
            cols = {
                "event_id": batch["event_id"] if side == 0 else pa.nulls(n, pa.int64()),
                "user_id": batch["user_id"] if side == 0 else pa.nulls(n, pa.int64()),
                "ts": batch["ts"] if side == 0 else pa.nulls(n, pa.timestamp("us")),
                "o_orderkey": batch["o_orderkey"] if side == 1 else pa.nulls(n, pa.int64()),
                "o_custkey": batch["o_custkey"] if side == 1 else pa.nulls(n, pa.int64()),
                "o_orderdate": batch["o_orderdate"] if side == 1 else pa.nulls(n, pa.timestamp("us")),
                "bucket": pa.array(bucket, type=pa.int64()),
                "side": pa.array(np.full(n, side, dtype=np.int8), type=pa.int8()),
            }
            if S > 1:
                t = pa.table(cols)
                ts_col = "ts" if side == 0 else "o_orderdate"
                ts_us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
                epoch = _epoch_of(ts_us, lo, hi, S)
                bucket = t["bucket"].to_numpy(zero_copy_only=False)
                if side == 0:
                    return t.set_column(
                        t.schema.get_field_index("bucket"), "bucket",
                        pa.array(bucket * S + epoch, type=pa.int64()))
                # orders replicate forward: epoch e → sub-epochs e..S-1
                reps = (S - epoch).astype(np.int64)
                take = np.repeat(np.arange(len(t), dtype=np.int64), reps)
                sub = np.concatenate(
                    [np.arange(e, S, dtype=np.int64) for e in epoch]
                ) if len(t) else np.empty(0, dtype=np.int64)
                rt = t.take(take)
                return rt.set_column(
                    rt.schema.get_field_index("bucket"), "bucket",
                    pa.array(bucket[take] * S + sub, type=pa.int64()))
            return pa.table(cols)

        return fn

    tagged = events.map_batches(tag("user_id", 0), batch_format="pyarrow").union(
        orders.map_batches(tag("o_custkey", 1), batch_format="pyarrow")
    )

    def asof_bucket(group: pd.DataFrame) -> pd.DataFrame:
        ev = group[group["side"] == 0][["event_id", "user_id", "ts"]].sort_values("ts")
        od = group[group["side"] == 1][["o_orderkey", "o_custkey", "o_orderdate"]]
        if not len(ev) or not len(od):
            return pd.DataFrame({"event_id": pd.Series(dtype="int64"),
                                 "user_id": pd.Series(dtype="int64"),
                                 "o_orderkey": pd.Series(dtype="int64")})
        od = od.sort_values(["o_orderdate", "o_orderkey"], kind="mergesort")
        m = pd.merge_asof(
            ev.astype({"user_id": "int64"}),
            od.astype({"o_custkey": "int64", "o_orderkey": "int64"}),
            left_on="ts", right_on="o_orderdate",
            left_by="user_id", right_by="o_custkey",
            direction="backward", allow_exact_matches=True,
        )
        m = m[m["o_orderkey"].notna()]
        out = m[["event_id", "user_id", "o_orderkey"]].astype("int64")
        return out

    return (
        tagged.repartition(_shuffle_parts(num_buckets * S, rows_hint))
        .groupby("bucket")
        .map_groups(asof_bucket, batch_format="pandas")
    )


def range_join_orders_events(sf_dir: str):
    """Range (interval) join — the other custom-op shape Ray Data
    lacks: per order, the number of the same user's events inside
    ``[o_orderdate, o_orderdate + 7 days)``.

    Same physical plan as the as-of join: key-bucket shuffle co-locates
    a user's orders and events; inside each bucket a vectorized pandas
    merge on the key + interval mask + groupby count. The bucket count
    is :func:`_auto_buckets` over parquet-footer row counts.

    ``_TIME_SALT`` = S > 1 (read while the plan is built) bounds the
    per-key cross-product under skew: events go to their time epoch's
    sub-bucket, each order is replicated into every epoch its 7-day
    window INTERSECTS (≤ ``ceil(7 days/epoch_width)+1`` replicas — bounded, unlike the
    as-of join's forward fan), per-sub-bucket counts are partial, and
    one tiny order-keyed Sum re-aggregates them — exact regardless of
    where a window straddles an epoch boundary."""
    from ray.data.aggregate import Sum

    events = read_table(sf_dir, "events", columns=["user_id", "ts"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    rows_hint = table_rows(sf_dir, "events") + table_rows(sf_dir, "orders")
    num_buckets = _auto_buckets(rows_hint)
    S = _TIME_SALT
    lo, hi = _time_bounds(events, orders, sf_dir, S)
    days = _RANGE_DAYS
    window_us = days * 86_400_000_000

    def tag(key_col: str, side: int):
        def fn(batch: pa.Table) -> pa.Table:
            bucket = bucket_of(batch[key_col].to_numpy(zero_copy_only=False), num_buckets)
            n = len(batch)
            t = pa.table({
                "user_id": batch["user_id"] if side == 0 else pa.nulls(n, pa.int64()),
                "ts": batch["ts"] if side == 0 else pa.nulls(n, pa.timestamp("us")),
                "o_orderkey": batch["o_orderkey"] if side == 1 else pa.nulls(n, pa.int64()),
                "o_custkey": batch["o_custkey"] if side == 1 else pa.nulls(n, pa.int64()),
                "o_orderdate": batch["o_orderdate"] if side == 1 else pa.nulls(n, pa.timestamp("us")),
                "bucket": pa.array(bucket, type=pa.int64()),
                "side": pa.array(np.full(n, side, dtype=np.int8), type=pa.int8()),
            })
            if S > 1:
                ts_col = "ts" if side == 0 else "o_orderdate"
                ts_us = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
                if side == 0:
                    epoch = _epoch_of(ts_us, lo, hi, S)
                    return t.set_column(
                        t.schema.get_field_index("bucket"), "bucket",
                        pa.array(bucket * S + epoch, type=pa.int64()))
                # orders cover epochs intersecting [d, d+days)
                e0 = _epoch_of(ts_us, lo, hi, S)
                e1 = _epoch_of(ts_us + window_us - 1, lo, hi, S)
                reps = (e1 - e0 + 1).astype(np.int64)
                take = np.repeat(np.arange(len(t), dtype=np.int64), reps)
                sub = np.concatenate(
                    [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(e0, e1)]
                ) if len(t) else np.empty(0, dtype=np.int64)
                rt = t.take(take)
                return rt.set_column(
                    rt.schema.get_field_index("bucket"), "bucket",
                    pa.array(bucket[take] * S + sub, type=pa.int64()))
            return t

        return fn

    tagged = events.map_batches(tag("user_id", 0), batch_format="pyarrow").union(
        orders.map_batches(tag("o_custkey", 1), batch_format="pyarrow")
    )

    def count_bucket(group: pd.DataFrame) -> pd.DataFrame:
        ev = group[group["side"] == 0][["user_id", "ts"]]
        od = group[group["side"] == 1][["o_orderkey", "o_custkey", "o_orderdate"]]
        if not len(od):
            return pd.DataFrame({"o_orderkey": pd.Series(dtype="int64"),
                                 "n_events": pd.Series(dtype="int64")})
        m = od.astype({"o_custkey": "int64", "o_orderkey": "int64"}).merge(
            ev.astype({"user_id": "int64"}),
            left_on="o_custkey", right_on="user_id", how="left",
        )
        inside = (m["ts"] >= m["o_orderdate"]) & (
            m["ts"] < m["o_orderdate"] + pd.Timedelta(days=days)
        )
        m["hit"] = inside.fillna(False).astype("int64")
        return m.groupby("o_orderkey", as_index=False).agg(n_events=("hit", "sum"))

    partial = (
        tagged.repartition(_shuffle_parts(num_buckets * S, rows_hint))
        .groupby("bucket")
        .map_groups(count_bucket, batch_format="pandas")
    )
    if S == 1:
        return partial
    # replicas emitted partial counts (0 for empty sub-windows): one
    # tiny order-keyed Sum folds them — the only cross-replica state
    return partial.groupby("o_orderkey").aggregate(
        Sum("n_events", alias_name="n_events")
    )
