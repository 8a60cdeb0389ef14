"""Approximate-nearest-neighbour search over the embedding column.

Every search returns the top-5 cosine neighbours of each query
vector over ``(vec_id, embedding)`` rows.

Baseline: brute-force cosine top-k — the query matrix is broadcast
once (``ray.put``), every batch does one float64 matmul against it and
emits its *local* top-k per query (the per-batch combiner), and a
single small ``groupby(query_id)`` reduces local top-ks to global
top-k. The corpus is never collected to the driver.

Scale path: sign-LSH (random hyperplanes) bucketing — vectors are
routed to a 12-bit bucket; queries search only their bucket plus
its one- and two-bit-flip probes. Recall vs the brute-force baseline is pinned
by tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.broadcast import cached_get

_TOP_K = 5  # neighbours per query
_QUERY_BUCKETS = 64  # coarse query-id buckets of knn_join's reduce


def _normalized(vecs) -> np.ndarray:
    mat = np.stack([np.asarray(v, dtype=np.float64) for v in vecs])
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0] = 1.0
    return mat / norms[:, None]


def query_matrix(ds, num_queries: int):
    """Deterministic query set: the ``num_queries`` smallest vec_ids."""
    rows = ds.filter(expr=f"vec_id < {num_queries}").take_all()
    rows.sort(key=lambda r: r["vec_id"])
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    return ids, _normalized([r["embedding"] for r in rows])


def _global_topk(group: pd.DataFrame) -> pd.DataFrame:
    """One query's candidates → its top-k (cosine desc, id asc)."""
    return group.sort_values(
        ["cosine", "neighbor_id"], ascending=[False, True]
    ).head(_TOP_K)


def knn_brute(ds, num_queries: int = 8):
    """Global cosine top-k: per-batch local top-k → tiny global reduce.

    Returns (query_id, neighbor_id, cosine) — ``k`` = 5 rows per query,
    self-matches excluded, ties broken by neighbor_id.
    """
    import ray

    q_ids, q_mat = query_matrix(ds, num_queries)
    ref = ray.put((q_ids, q_mat))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        qi, qm = cached_get(ref)  # memoized: one unpickle per worker
        ids = batch["vec_id"].to_numpy()
        mat = _normalized(batch["embedding"])
        sims = qm @ mat.T  # (num_queries, batch)
        out_q, out_n, out_c = [], [], []
        kk = min(_TOP_K + 1, sims.shape[1])  # +1 in case the query itself is here
        for row, qid in enumerate(qi):
            # keep EVERY candidate tied with the kk-th best cosine, so an
            # equal-cosine tie at the boundary can't drop the smaller
            # neighbor_id the ROW_NUMBER oracle would pick — the global
            # reduce applies the deterministic (cosine desc, id asc) order
            kth = np.partition(-sims[row], kk - 1)[kk - 1]
            idx = np.nonzero(-sims[row] <= kth)[0]
            for j in idx:
                if ids[j] != qid:
                    out_q.append(int(qid))
                    out_n.append(int(ids[j]))
                    out_c.append(float(sims[row, j]))
        return pd.DataFrame({"query_id": out_q, "neighbor_id": out_n, "cosine": out_c})

    local = ds.map_batches(local_topk, batch_format="pandas", batch_size=1024)
    return local.groupby("query_id").map_groups(_global_topk, batch_format="pandas")


# ---------------------------------------------------------------- sign-LSH

NUM_PLANES = 12  # 4096 buckets


def _planes(dim: int, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((dim, NUM_PLANES))


def _bucket_of(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (mat @ planes) > 0
    return (bits * (1 << np.arange(NUM_PLANES))).sum(axis=1).astype(np.int64)


# ---------------------------------------------------------------- IVF

IVF_SAMPLE = 2048


def _kmeans_centroids(sample: np.ndarray, n_clusters: int, iters: int = 8,
                      seed: int = 42) -> np.ndarray:
    """Deterministic Lloyd's k-means on an (already normalized) sample.
    Runs on the driver over a bounded sample — never the full corpus."""
    rng = np.random.RandomState(seed)
    n = len(sample)
    n_clusters = min(n_clusters, n)
    cents = sample[rng.choice(n, size=n_clusters, replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(n_clusters):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                norm = np.linalg.norm(v)
                if norm > 0:
                    cents[c] = v / norm
    return cents


def knn_ivf(ds, num_queries: int = 8, n_clusters: int = 16, nprobe: int = 4):
    """IVF ANN: coarse k-means centroids from a driver-side sample
    (broadcast once), each corpus vector routed to its nearest
    centroid, each query scanning only its ``nprobe`` nearest cells.
    Same local-top-k → tiny global reduce shape as :func:`knn_brute`;
    at scale the centroid assignment keys a hash partition so a cell's
    candidates are co-located."""
    import ray

    q_ids, q_mat = query_matrix(ds, num_queries)
    sample_rows = ds.limit(IVF_SAMPLE).take_all()
    sample = _normalized([r["embedding"] for r in sample_rows])
    cents = _kmeans_centroids(sample, n_clusters)
    # per query: the nprobe closest cells
    q_cells = np.argsort(-(q_mat @ cents.T), axis=1)[:, :nprobe]
    cell_to_queries: dict = {}
    for qi, cells in zip(q_ids, q_cells):
        for c in cells:
            cell_to_queries.setdefault(int(c), []).append(int(qi))
    ref = ray.put((q_ids, q_mat, cents, cell_to_queries))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        qi, qm, centroids, probe_cells = cached_get(ref)  # per-worker memo
        ids = batch["vec_id"].to_numpy()
        mat = _normalized(batch["embedding"])
        cells = np.argmax(mat @ centroids.T, axis=1)
        q_index = {int(q): i for i, q in enumerate(qi)}
        out_q, out_n, out_c = [], [], []
        for j in range(len(ids)):
            for qid in probe_cells.get(int(cells[j]), ()):
                if ids[j] == qid:
                    continue
                out_q.append(qid)
                out_n.append(int(ids[j]))
                out_c.append(float(qm[q_index[qid]] @ mat[j]))
        return pd.DataFrame({"query_id": out_q, "neighbor_id": out_n, "cosine": out_c})

    local = ds.map_batches(local_topk, batch_format="pandas", batch_size=1024)
    return local.groupby("query_id").map_groups(_global_topk, batch_format="pandas")


def knn_join(ds, n_clusters: int = 16, nprobe: int = 4):
    """Corpus-×-corpus ANN join: top-5 cosine neighbours for EVERY
    vector (not a bounded query set) via IVF cell-keyed shuffle.

    Shape (all-distributed, no per-batch query lookup — the thing that
    caps the bounded-query :func:`knn_ivf` at small query sets):

    1. coarse k-means centroids from a driver-side bounded sample,
       broadcast once (numpy — zero-copy ``ray.get``);
    2. ONE routing pass double-emits each vector as (a) a *member* row
       keyed by its own cell and (b) ``nprobe`` *probe* rows keyed by
       its best cells — a single scan, and no two-branch union of one
       upstream (which Ray 2.49's executor can deadlock on);
    3. ``groupby(cell)`` co-locates each cell's members with every
       probe that searches it; one vectorized matmul per cell emits
       each probe's local top-k (ties at the k-th boundary retained so
       the deterministic global order can't drop the smaller id);
    4. a ``groupby`` over 64 coarse query-id buckets reduces local
       top-ks to the global top-k per query (cosine desc, id asc).

    A (query, neighbour) pair appears in exactly one cell (the
    neighbour's own), so the reduce needs no dedup. Communication is
    O(N·(1+nprobe)·dim) for the exchange — the quadratic work stays
    inside cells. Size ``n_clusters`` ~ sqrt(corpus/cell_budget) at
    scale so a cell's members fit one task's memory; skewed cells can
    additionally salt members (probes then replicate per salt).
    Returns (query_id, neighbor_id, cosine), 5 rows per query.
    """
    import ray

    sample_rows = ds.limit(IVF_SAMPLE).take_all()
    sample = _normalized([r["embedding"] for r in sample_rows])
    cents = _kmeans_centroids(sample, n_clusters)
    cents_ref = ray.put(cents)

    import pyarrow as pa

    def route(batch: pa.Table) -> pa.Table:
        centroids = ray.get(cents_ref)  # zero-copy numpy view
        n = batch.num_rows
        # fixed-dim list<float> column → one flat-buffer reshape,
        # no per-row Python
        flat = (batch["embedding"].combine_chunks().flatten()
                .to_numpy(zero_copy_only=False).astype(np.float64))
        mat = flat.reshape(n, -1)
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        dots = mat @ centroids.T
        # stable argsort == the oracle's (dot DESC, cell_idx) order
        probe_cells = np.argsort(-dots, axis=1, kind="stable")[:, :nprobe]
        own = probe_cells[:, 0].astype(np.int64)
        # double-emit: member copy (side 0) + nprobe probe copies (side 1)
        take = np.concatenate([
            np.arange(n, dtype=np.int64),
            np.repeat(np.arange(n, dtype=np.int64), nprobe),
        ])
        rep = batch.select(["vec_id", "embedding"]).take(pa.array(take))
        cell = np.concatenate([own, probe_cells.reshape(-1).astype(np.int64)])
        side = np.concatenate([np.zeros(n, dtype=np.int8),
                               np.ones(n * nprobe, dtype=np.int8)])
        return pa.table({
            "cell": pa.array(cell, type=pa.int64()),
            "side": pa.array(side, type=pa.int8()),
            "vec_id": rep["vec_id"],
            "embedding": rep["embedding"],
        })

    empty = pd.DataFrame({"query_id": pd.Series(dtype="int64"),
                          "neighbor_id": pd.Series(dtype="int64"),
                          "cosine": pd.Series(dtype="float64")})

    def cell_topk(g: pd.DataFrame) -> pd.DataFrame:
        mem = g[g["side"] == 0]
        prb = g[g["side"] == 1]
        if not len(mem) or not len(prb):
            return empty
        mids = mem["vec_id"].to_numpy(dtype=np.int64)
        mmat = _normalized(mem["embedding"])
        qids = prb["vec_id"].to_numpy(dtype=np.int64)
        qmat = _normalized(prb["embedding"])
        sims = qmat @ mmat.T                      # (Q, M)
        notself = mids[None, :] != qids[:, None]
        kk = min(_TOP_K, sims.shape[1])
        # k-th best per row with tie retention (self-matches pushed out)
        ranked = np.where(notself, -sims, np.inf)
        kth = np.partition(ranked, kk - 1, axis=1)[:, kk - 1]
        keep = (ranked <= kth[:, None]) & notself
        qq, nn = np.nonzero(keep)
        return pd.DataFrame({
            "query_id": qids[qq],
            "neighbor_id": mids[nn],
            "cosine": sims[qq, nn],
        })

    def add_qbucket(batch: pd.DataFrame) -> pd.DataFrame:
        batch["qbucket"] = (
            batch["query_id"].to_numpy(dtype=np.uint64)
            % np.uint64(_QUERY_BUCKETS)
        ).astype(np.int64)
        return batch

    def reduce_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["query_id", "cosine", "neighbor_id"],
                          ascending=[True, False, True], kind="mergesort")
        return (g.groupby("query_id", sort=False).head(_TOP_K)
                [["query_id", "neighbor_id", "cosine"]])

    local = (
        ds.select_columns(["vec_id", "embedding"])
        .map_batches(route, batch_format="pyarrow", batch_size=1024)
        .groupby("cell")
        .map_groups(cell_topk, batch_format="pandas")
    )
    # coarse-bucketed reduce: one groupby over _QUERY_BUCKETS keys (not one
    # ~40 ms reduce task per query id), top-k per query inside pandas
    return (
        local.map_batches(add_qbucket, batch_format="pandas")
        .groupby("qbucket")
        .map_groups(reduce_topk, batch_format="pandas")
    )


def knn_lsh(ds, num_queries: int = 8):
    """Sign-LSH bucketed ANN: corpus bucketed by hyperplane signs, each
    query searches its bucket plus every bucket one or two bit flips
    away; candidates reduce to top-k as in the brute path."""
    import ray

    q_ids, q_mat = query_matrix(ds, num_queries)
    dim = q_mat.shape[1]
    planes = _planes(dim)
    q_buckets = _bucket_of(q_mat, planes)
    # probe set per query: own bucket + single-bit and 2-bit flips
    probe_map: dict = {}
    for qi, b in zip(q_ids, q_buckets):
        buckets = {int(b)}
        for i in range(NUM_PLANES):
            buckets.add(int(b) ^ (1 << i))
            for j in range(i + 1, NUM_PLANES):
                buckets.add(int(b) ^ (1 << i) ^ (1 << j))
        for bucket in buckets:
            probe_map.setdefault(bucket, []).append(int(qi))
    ref = ray.put((q_ids, q_mat, probe_map))

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        qi, qm, probes_by_bucket = cached_get(ref)  # per-worker memo
        ids = batch["vec_id"].to_numpy()
        mat = _normalized(batch["embedding"])
        buckets = _bucket_of(mat, _planes(mat.shape[1]))
        out_q, out_n, out_c = [], [], []
        q_index = {int(q): i for i, q in enumerate(qi)}
        for j in range(len(ids)):
            for qid in probes_by_bucket.get(int(buckets[j]), ()):
                if ids[j] == qid:
                    continue
                sim = float(qm[q_index[qid]] @ mat[j])
                out_q.append(qid)
                out_n.append(int(ids[j]))
                out_c.append(sim)
        return pd.DataFrame({"query_id": out_q, "neighbor_id": out_n, "cosine": out_c})

    local = ds.map_batches(local_topk, batch_format="pandas", batch_size=1024)
    return local.groupby("query_id").map_groups(_global_topk, batch_format="pandas")
