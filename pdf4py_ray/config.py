"""Engine-level Ray Data tuning.

``apply_engine_defaults`` is called from every pipeline entry point
(idempotent, cheap) before the pipeline's read: Ray Data copies its
context when a dataset is created, and every stage inherits that copy.
One engine default matters, and one more non-default is set on the
extraction pipeline's own context copy:

- ``_max_num_blocks_in_streaming_gen_buffer``: Ray 2.49's streaming
  executor consumes task outputs from a scheduler loop that polls with
  ``ray.wait(num_returns=len(active), timeout=0.1)``. With the default
  buffer of 2 blocks per streaming generator, every map task stalls
  after two output blocks until the loop consumes one — measured 14 s
  for a 2-s-of-CPU synthesis stage (256 blocks at 32 CPUs). A 32-block
  buffer lets tasks run ahead of the consumer loop and restores
  near-raw-task throughput (14.3 s → 2.4 s on the same stage). The
  cost is bounded extra object-store usage per in-flight task
  (32 × target block size), irrelevant against a 37 GiB store and
  spilling at 100 TB scale. The same 0.1 s poll leaves a freed slot
  idle while another task still runs, so ``parquet_source``
  gives every slot its share of an input of at most one block target
  per slot up front instead of relying on the executor to refill
  slots.
- ``op_resource_reservation_enabled = False``, extraction only:
  ``parquet_source`` sets it on its read's context copy,
  which every stage built on that dataset shares (a sort or sorted
  write included); every other pipeline keeps the reservation. By
  default Ray Data reserves a share of the cluster for each operator
  and admits a task only within that budget. Before an operator's
  first task finishes, Ray Data estimates a task's output at
  ``target_max_block_size`` × the generator buffer above: 128 MB × 32
  = 4.0 GB. Measured on 3 logical CPUs with a 256 MB object store, the
  extraction operator's budget was 0.5 CPU and 0 B of object store, so
  with ``concurrency=2`` it refused the second task until the first
  one finished, and the extraction tasks ran one at a time: Ray Data's
  throughput for the operator was 1.06× its own single-node estimate.
  Without the reservation the global object-store limit still applies.
  Only the extraction pipeline was measured, so it alone turns the
  reservation off. In paired ``pdf_mix`` extraction executions on a
  shared 4-vCPU host (median of 8): 0.76 s with the reservation,
  0.74 s without it, 0.48 s without it and with slot-sized reads
  (1.83× the single-node estimate), and 0.84 s with slot-sized reads
  alone.
"""

from __future__ import annotations

import logging

GEN_BUFFER_BLOCKS = 32

_applied = False


class _EmptySchemaWarningFilter(logging.Filter):
    """Drop Ray 2.49's 'RefBundle with a different schema' warning ONLY
    when the *new* schema is empty: sort-shuffle reduce partitions that
    received zero rows emit schema-less empty blocks (Ray-internal —
    the engine's own group kernels already return typed empty tables),
    which downstream schema unification handles fine. Genuine
    schema-vs-schema mismatches still log."""

    def filter(self, record: logging.LogRecord) -> bool:
        msg = record.getMessage()
        if "different schema" not in msg:
            return True
        # empty new schema renders as "." (Arrow) or as a columnless
        # PandasBlockSchema, depending on the empty block's format
        return not ("new schema: ." in msg
                    or "new schema: PandasBlockSchema(names=[], types=[])" in msg)


def apply_engine_defaults() -> None:
    global _applied
    if _applied:
        return
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx._max_num_blocks_in_streaming_gen_buffer = GEN_BUFFER_BLOCKS
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptySchemaWarningFilter())
    _applied = True
