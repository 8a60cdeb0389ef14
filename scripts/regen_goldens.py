"""Regenerate the committed golden parquet files that back the
golden-file oracle entries (``__ray_entry__.oracle_sql``).

Run after any deliberate change to the extraction pipeline or the
transcript synthesis contract:

    python scripts/regen_goldens.py

It rewrites only the goldens whose table differs and prints
``unchanged`` for the others, so an equal golden keeps its bytes.

``python scripts/regen_goldens.py --check`` recomputes the same tables
and compares them with the committed files without writing anything.

The goldens are the sf0.01 outputs of the flagship queries, stable-
sorted. They are NOT self-blessing: extraction correctness is pinned
independently by tests/test_reference_corpus.py (real reference PDFs)
and tests/test_pipeline.py (per-turn equality vs an in-repo
re-derivation); the goldens freeze that verified behavior so the
driver can value-hash the flagship instead of only counting rows.
"""

import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

SF = "/root/testdata/sf0.01"
OUT = os.path.join(REPO, "tests", "golden")


def golden_tables(q) -> dict:
    """File name → the stable-sorted table that golden holds."""
    import pyarrow as pa

    def stable(ds, keys):
        t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
        return t.sort_by([(k, "ascending") for k in keys])

    # x_extract_write is deterministic under the documents table's split points
    write = pa.Table.from_pandas(q["x_extract_write"](SF), preserve_index=False)
    return {
        "x_extract_turns_sf001.parquet": stable(q["x_extract_turns"](SF),
                                                ["conv_id", "turn_idx"]),
        "x_extract_metrics_sf001.parquet": stable(q["x_extract_metrics"](SF),
                                                  ["kind", "status"]),
        "x_extract_spans_sf001.parquet": stable(q["x_extract_spans"](SF),
                                                ["conv_id", "turn_idx", "span_idx"]),
        "x_extract_write_sf001.parquet": write.sort_by([("sort_bucket", "ascending")]),
    }


def update(tables: dict, check: bool) -> int:
    """Compare each table with its golden under ``OUT`` (``Table.equals``)
    and return how many differ. Without ``check``, write only those that
    differ; an equal golden keeps its bytes and mtime."""
    import pyarrow.parquet as pq

    differ = 0
    for name, table in tables.items():
        path = os.path.join(OUT, name)
        if os.path.exists(path) and table.equals(pq.read_table(path)):
            print(name, "unchanged", f"({table.num_rows} rows)")
            continue
        differ += 1
        if check:
            print(name, "DIFFERS", f"({table.num_rows} rows)")
        else:
            pq.write_table(table, path)
            print(name, "written:", table.num_rows, "rows")
    return differ


def main() -> int:
    """Write the goldens that differ, or with ``--check`` compare the
    current outputs with the committed goldens and write nothing (exit
    1 on a difference)."""
    import ray

    check = "--check" in sys.argv[1:]
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import __ray_entry__ as e

    os.makedirs(OUT, exist_ok=True)
    differ = update(golden_tables(e.queries()), check)

    # NOTE: s_knn_lsh / s_knn_ivf / m_media_decode / m_frame_sample no
    # longer use goldens — their oracles are independent recomputations
    # (seed-derived SQL literals; spec-rederived media parquet).

    ray.shutdown()
    return 1 if differ and check else 0


if __name__ == "__main__":
    sys.exit(main())
