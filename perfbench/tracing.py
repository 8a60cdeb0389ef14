"""Per-layer clocks and counters for the traced run, recorded from outside.

Nothing here changes the package. For a traced execution the benchmark
swaps a few module attributes that the pipelines look up at call time
(``extract_pipeline.ExtractTurns``, ``extract_pipeline.add_part_id``,
``dedup.MinHashSignatures``) for the subclasses and wrappers below, and
restores them afterwards. ``TracedExtractTurns`` in turn wraps the
kernel's public functions inside the actor process that runs it.

Layer times are inclusive and nest: ``kernel.pdf_open_s`` contains the
security set-up, ``kernel.pdf_text_s`` contains the stream decodes and
decrypts of page content, and both sit inside the extractor's kernel
call. ``extract.self_s`` is ``ExtractTurns.__call__`` minus
classification minus kernel calls.

Worker processes send their sums after every batch to one named
collector actor; the benchmark drains it after each traced execution.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from collections import defaultdict

import numpy as np
import pyarrow as pa

from pdf4py_ray.stages.dedup import MinHashSignatures
from pdf4py_ray.stages.extract import ExtractTurns, classify_payload
from pdf4py_ray.stages.partition import add_part_id

COLLECTOR_NAME = "perfbench_trace"


class LayerClock:
    """Seconds and counts per layer metric, summed in one process."""

    def __init__(self) -> None:
        self.values: dict = defaultdict(float)

    def add(self, name: str, value: float = 1.0) -> None:
        self.values[name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - t0

    def timed(self, name: str, fn, count: str | None = None):
        def wrapper(*args, **kwargs):
            if count:
                self.values[count] += 1
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def drain(self) -> dict:
        out = dict(self.values)
        self.values.clear()
        return out


class Collector:
    """Named actor (created with ``num_cpus=0``) that sums what the
    worker processes send."""

    def __init__(self) -> None:
        self.values: dict = defaultdict(float)
        self.parts = np.zeros(0, dtype=np.int64)

    def add(self, values: dict, parts=None) -> None:
        for k, v in values.items():
            self.values[k] += v
        if parts is not None:
            if len(parts) > len(self.parts):
                self.parts = np.pad(self.parts, (0, len(parts) - len(self.parts)))
            self.parts[: len(parts)] += parts

    def take(self) -> tuple:
        out = (dict(self.values), self.parts)
        self.values, self.parts = defaultdict(float), np.zeros(0, dtype=np.int64)
        return out


def _send(values: dict, parts=None) -> None:
    import ray

    ray.get(ray.get_actor(COLLECTOR_NAME).add.remote(values, parts))


def install_kernel_wrappers(clock: LayerClock) -> None:
    """Wrap the kernel entry points in this process (an actor's own
    worker process, which ends with the actor)."""
    from pdf4py_ray.kernel import document as kdoc
    from pdf4py_ray.kernel import text as ktext
    from pdf4py_ray.stages import extract as sx

    base_doc, base_sec = ktext.PdfDocument, kdoc.StandardSecurityHandler
    base_decode, base_text = kdoc.decode_chain, ktext.extract_document_text

    class TimedDocument(base_doc):
        def __init__(self, *args, **kwargs):
            clock.add("kernel.pdf_open_count")
            with clock.span("kernel.pdf_open_s"):
                super().__init__(*args, **kwargs)

    class TimedSecurity(base_sec):
        def __init__(self, *args, **kwargs):
            with clock.span("kernel.security_s"):
                super().__init__(*args, **kwargs)

        def decrypt_string(self, *args):
            with clock.span("kernel.security_s"):
                return super().decrypt_string(*args)

        def decrypt_stream(self, *args):
            with clock.span("kernel.security_s"):
                return super().decrypt_stream(*args)

    def decode_chain(stream_dict, data):
        with clock.span("kernel.filters_s"):
            out = base_decode(stream_dict, data)
        clock.add("kernel.filters_bytes_out", len(out))
        return out

    def extract_document_text(doc):
        with clock.span("kernel.pdf_text_s"):
            text, spans, n_objects = base_text(doc)
        clock.add("kernel.pages", sum(kind == "page" for _, _, kind in spans))
        return text, spans, n_objects

    ktext.PdfDocument = TimedDocument
    ktext.extract_document_text = extract_document_text
    kdoc.StandardSecurityHandler = TimedSecurity
    kdoc.decode_chain = decode_chain
    sx.extract_html_text = clock.timed("kernel.html_s", sx.extract_html_text, "kernel.html_count")


class TracedExtractTurns(ExtractTurns):
    """``ExtractTurns`` with classification, kernel calls and the whole
    batch call timed, and repeated PDF/HTML payloads counted."""

    def __init__(self) -> None:
        super().__init__()
        self.clock = LayerClock()
        install_kernel_wrappers(self.clock)
        self.registry = {kind: self.clock.timed("extract.kernel_s", fn)
                         for kind, fn in self.registry.items()}
        self.classify = self._classify
        self.seen: set = set()

    def _classify(self, text: str, tool: str):
        with self.clock.span("extract.classify_s"):
            kind, payload = classify_payload(text, tool)
        self.clock.add(f"extract.rows.{kind}")
        if kind in ("pdf", "html"):
            key = hashlib.blake2b(payload if kind == "pdf" else payload.encode(),
                                  digest_size=16).digest()
            self.clock.add("extract.payloads")
            self.clock.add("extract.repeat_payloads", key in self.seen)
            self.seen.add(key)
        return kind, payload

    def __call__(self, batch: pa.Table) -> pa.Table:
        with self.clock.span("extract.call_s"):
            out = super().__call__(batch)
        _send(self.clock.drain())
        return out


def traced_add_part_id(batch: pa.Table, num_partitions: int, salt_turns=None) -> pa.Table:
    t0 = time.perf_counter()
    out = add_part_id(batch, num_partitions, salt_turns)
    busy = time.perf_counter() - t0
    parts = np.bincount(out["part_id"].to_numpy(), minlength=num_partitions)
    _send({"partition.busy_s": busy}, parts)
    return out


class TracedMinHashSignatures(MinHashSignatures):
    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.perf_counter()
        out = super().__call__(batch)
        _send({"dedup.sketch_s": time.perf_counter() - t0})
        return out


@contextlib.contextmanager
def traced_layers():
    """Swap the traced classes and wrappers in for one execution and
    capture every dataset written with ``write_parquet`` (its stats
    are not reachable from the caller's dataset)."""
    import ray.data
    from pdf4py_ray.pipelines import extract_pipeline as xp
    from pdf4py_ray.stages import dedup

    written = []
    base_write = ray.data.Dataset.write_parquet

    def write_parquet(self, *args, **kwargs):
        written.append(self)
        return base_write(self, *args, **kwargs)

    saved = (xp.ExtractTurns, xp.add_part_id, dedup.MinHashSignatures)
    xp.ExtractTurns, xp.add_part_id = TracedExtractTurns, traced_add_part_id
    dedup.MinHashSignatures = TracedMinHashSignatures
    ray.data.Dataset.write_parquet = write_parquet
    try:
        yield written
    finally:
        xp.ExtractTurns, xp.add_part_id, dedup.MinHashSignatures = saved
        ray.data.Dataset.write_parquet = base_write


def _category(op_name: str) -> str:
    """Operator category. Ray Data fuses a Parquet read with the map
    stages after it, so a read chain counts as ``read`` and an actor-pool
    stage carries its read."""
    if "Write" in op_name:
        return "write"
    if any(k in op_name for k in ("Sort", "Aggregate", "Repartition", "Shuffle", "Join")):
        return "exchange"
    if "ExtractTurns" in op_name or "MinHashSignatures" in op_name:
        return "actor_pool"
    if op_name.startswith("Read"):
        return "read"
    return "map"


OP_CATEGORIES = ("read", "actor_pool", "map", "exchange", "write")


def op_seconds(datasets) -> tuple:
    """(summed task wall seconds per operator category, bytes spilled)
    from Ray Data's per-operator stats of the executed datasets,
    including the earlier executions they were materialized from."""
    totals = dict.fromkeys(OP_CATEGORIES, 0.0)
    spilled, seen = 0, set()
    stack = [(getattr(ds, "_write_ds", None) or ds)._get_stats_summary() for ds in datasets]
    while stack:
        summary = stack.pop()
        spilled = max(spilled, summary.global_bytes_spilled or 0)
        for op in summary.operators_stats:
            key = (op.operator_name, op.earliest_start_time)
            if op.wall_time and key not in seen:
                seen.add(key)
                totals[_category(op.operator_name)] += op.wall_time.get("sum", 0.0)
        stack.extend(summary.parents)
    return totals, spilled
