"""Task stages: every stage runs as plain Ray tasks with one stage
instance per worker process per pipeline build; none builds an actor
pool."""

import inspect
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pytest
from test_pipeline import SF_DIR, table_source

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _Stateful:
    def __init__(self, tag=None):
        self.tag = tag

    def __call__(self, batch):
        return self


def test_task_stage_one_instance_per_build(monkeypatch):
    from pdf4py_ray.functions import broadcast

    # a fresh per-process state for this test; the real one comes back after it
    monkeypatch.delitem(sys.modules, broadcast._STATE_MODULE, raising=False)
    first = broadcast.task_stage("probe", _Stateful, tag="a")
    second = broadcast.task_stage("probe", _Stateful, tag="a")
    assert first.__name__ == "probe"
    a1, a2 = first(None), first(None)
    assert a1 is a2 and a1.tag == "a"
    b = second(None)
    assert b is not a1
    # builds running side by side keep their own instances
    assert first(None) is a1 and second(None) is b
    for _ in range(broadcast._STAGE_SLOTS):
        broadcast.task_stage("probe", _Stateful)(None)
    assert len(broadcast.process_state().instances) == broadcast._STAGE_SLOTS
    assert first(None) is not a1  # evicted by newer builds, rebuilt


def _probe_tags() -> tuple:
    """(worker pids, (pid, instance tag) pairs) of one 16-task probe run."""
    import uuid

    import ray.data as rd

    from pdf4py_ray.functions.broadcast import task_stage

    class Probe:
        def __init__(self):
            self.tag = uuid.uuid4().hex

        def __call__(self, batch):
            n = batch.num_rows
            return pa.table({"pid": [os.getpid()] * n, "tag": [self.tag] * n})

    rows = rd.range(64, override_num_blocks=16).map_batches(
        task_stage("probe", Probe), batch_format="pyarrow", batch_size=2).take_all()
    assert len(rows) == 64
    return {r["pid"] for r in rows}, {(r["pid"], r["tag"]) for r in rows}


def test_task_stage_reuses_one_instance_per_worker(ray_session):
    """Each worker process builds the stage once per build across many
    tasks, whether the package is shipped by reference or by value (as
    ``__ray_entry__`` registers it): the per-process slots are looked
    up through ``sys.modules``, which by-value pickling does not copy."""
    from ray import cloudpickle

    from pdf4py_ray.functions import broadcast

    # an earlier import of __ray_entry__ in this session registered the package
    registered = [sys.modules[name] for name in cloudpickle.list_registry_pickle_by_value()
                  if name.split(".")[0] == "pdf4py_ray"]
    for module in registered:
        cloudpickle.unregister_pickle_by_value(module)
    try:
        for _ in range(2):
            pids, tags = _probe_tags()
            assert len(tags) == len(pids)
        cloudpickle.register_pickle_by_value(broadcast)
        for _ in range(2):
            pids, tags = _probe_tags()
            assert len(tags) == len(pids)
        cloudpickle.unregister_pickle_by_value(broadcast)
    finally:
        for module in registered:
            cloudpickle.register_pickle_by_value(module)


_BY_VALUE_SCRIPT = textwrap.dedent("""
    import pkgutil
    import sys
    sys.path.insert(0, {repo!r})
    from ray import cloudpickle

    import __ray_entry__  # noqa: F401 — registers the package on import
    import pdf4py_ray

    walked = {{m.name for m in pkgutil.walk_packages(pdf4py_ray.__path__, "pdf4py_ray.")}}
    assert "pdf4py_ray.sources.pdf_files" in walked
    print("MISSING", sorted(walked - set(cloudpickle.list_registry_pickle_by_value())))
""")


def test_ship_package_by_value_registers_every_module():
    """Importing ``__ray_entry__`` registers every module of the
    package for by-value pickling. A fresh interpreter, so only what
    the entry module imports is loaded and the session's registry is
    untouched."""
    env = {k: v for k, v in os.environ.items() if k != "PDF4PY_RAY_NO_BYVALUE"}
    out = subprocess.run([sys.executable, "-c", _BY_VALUE_SCRIPT.format(repo=REPO)],
                         capture_output=True, text=True, env=env, cwd=REPO, timeout=120)
    assert out.returncode == 0, out.stderr[-3000:]
    assert "MISSING []" in out.stdout, out.stdout


def _map_ops(ds) -> list:
    """(name, runs on actors) of every map operator in a lazy plan."""
    from ray.data._internal.compute import ActorPoolStrategy

    ops, stack = [], [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        if hasattr(op, "_fn"):
            ops.append((op.name, isinstance(op._compute, ActorPoolStrategy)))
        stack.extend(op.input_dependencies)
    return ops


def test_stages_run_no_actor_pool(ray_session, monkeypatch, tmp_path):
    import ray.data as rd

    from pdf4py_ray.kernel import pdfgen
    from pdf4py_ray.pipelines.extract_pipeline import (
        extract,
        extraction_dataset,
        parquet_source,
        synth_source,
    )
    from pdf4py_ray.sources.pdf_files import pdf_source
    from pdf4py_ray.sources.transcripts import synth_transcripts
    from pdf4py_ray.stages import dedup
    from pdf4py_ray.stages.multimodal import decode_media, sample_frames, synth_media_table
    from pdf4py_ray.stages.textstats import hll_registers, text_stats

    for fn in (synth_source, parquet_source, pdf_source, dedup.minhash_dup_pairs):
        assert inspect.signature(fn).parameters["concurrency"].default is None

    turns = synth_transcripts(SF_DIR, ray_data=False).slice(0, 40)
    ds = extraction_dataset(table_source(turns, concurrency=None))
    assert ("MapBatches(extract_turns)", False) in _map_ops(ds)
    assert not [op for op in _map_ops(ds) if op[1]]
    assert ds.count() == 40

    (tmp_path / "a.pdf").write_bytes(pdfgen.minimal_pdf(("alpha text",)))
    ds = extract(pdf_source(str(tmp_path)))
    assert ("MapBatches(extract_turns)", False) in _map_ops(ds)
    assert not [op for op in _map_ops(ds) if op[1]]
    assert ds.take_all()[0]["extracted_text"] == "alpha text"

    # the sketch stage is materialized inside, so record how it is built
    built = []
    real = dedup.task_stage
    monkeypatch.setattr(dedup, "task_stage",
                        lambda name, cls, **kw: built.append(cls) or real(name, cls, **kw))
    docs = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["a b c d e"] * 2}))
    assert dedup.minhash_dup_pairs(docs).take_all()[0]["id_a"] == 1
    assert built == [dedup.MinHashSignatures]

    # the text-statistics, HLL and media wrappers take no concurrency
    events = rd.from_arrow(pa.table({"event_type": ["a", "a", "b"], "user_id": [1, 2, 1]}))
    media = rd.from_arrow(synth_media_table(6))
    for wrapper, ds, op, rows in [(text_stats, docs, "MapBatches(text_stats)", 2),
                                  (hll_registers, events, "MapBatches(hll_partial)", None),
                                  (decode_media, media, "MapBatches(decode_media)", 6),
                                  (sample_frames, media, "MapBatches(frame_sample)", 24)]:
        assert "concurrency" not in inspect.signature(wrapper).parameters
        out = wrapper(ds)
        assert (op, False) in _map_ops(out)
        assert not [o for o in _map_ops(out) if o[1]]
        assert rows is None or len(out.take_all()) == rows


_STALL_SCRIPT = textwrap.dedent("""
    import sys
    sys.path.insert(0, {repo!r})
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from pdf4py_ray.pipelines.extract_pipeline import extraction_from_parquet
    from pdf4py_ray.sources.transcripts import read_table, synth_transcripts
    from pdf4py_ray.stages.dedup import minhash_dup_pairs
    from pdf4py_ray.stages.textstats import hll_registers, text_stats

    turns = synth_transcripts({sf!r}, ray_data=False)
    pq.write_table(turns, {out!r} + "/turns.parquet")
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    for _ in range(2):
        rows = extraction_from_parquet({out!r}, num_partitions=8).take_all()
        assert len(rows) == turns.num_rows, len(rows)
    docs = rd.read_parquet({sf!r} + "/documents.parquet", columns=["doc_id", "text"])
    minhash_dup_pairs(docs).take_all()
    assert len(text_stats(read_table({sf!r}, "documents", ["doc_id", "text"])).take_all())
    assert len(hll_registers(read_table({sf!r}, "events", ["event_type", "user_id"])).take_all())
    ray.shutdown()
    print("DONE")
""")


def test_back_to_back_executions_do_not_stall_at_two_cpus(tmp_path):
    """Two extraction executions in a row, then the sketch, text-stats
    and HLL stages at their defaults, on 2 logical CPUs and with no
    ``gc.collect()`` between them: an idle actor pool held a CPU until
    GC and stalled the next execution, and a (2, 8) pool never
    started."""
    script = _STALL_SCRIPT.format(repo=REPO, sf=SF_DIR, out=str(tmp_path))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("extraction, sketching, text stats or HLL stalled past 120 s at 2 CPUs")
    assert proc.returncode == 0 and "DONE" in out, out[-3000:]


def test_cached_get_memoizes_none(monkeypatch):
    import ray

    from pdf4py_ray.functions import broadcast

    class Ref:
        def hex(self):
            return "cached-none-probe"

    calls = []

    def fake_get(ref):
        calls.append(ref)
        return None

    monkeypatch.setattr(ray, "get", fake_get)
    monkeypatch.delitem(sys.modules, broadcast._STATE_MODULE, raising=False)
    ref = Ref()
    assert broadcast.cached_get(ref) is None
    assert broadcast.cached_get(ref) is None
    assert len(calls) == 1


def test_simhash_runs_no_actor_pool(ray_session):
    """SimHash fingerprints run as a task stage with no concurrency
    cap: a (2, 8) actor pool stalls at 2 logical CPUs."""
    import ray.data as rd

    from pdf4py_ray.stages.dedup import simhash_candidates

    assert "concurrency" not in inspect.signature(simhash_candidates).parameters
    docs = rd.from_arrow(pa.table({"doc_id": [1, 2], "text": ["a b c d e"] * 2}))
    ds = simhash_candidates(docs)
    assert ("MapBatches(simhash64)", False) in _map_ops(ds)
    assert not [op for op in _map_ops(ds) if op[1]]
    assert [(r["id_a"], r["id_b"], r["hamming"]) for r in ds.take_all()] == [(1, 2, 0)]


_OVERLAP_SCRIPT = textwrap.dedent("""
    import os
    import re
    import sys
    import time
    import uuid
    sys.path.insert(0, {repo!r})
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from pdf4py_ray.pipelines import extract_pipeline as xp

    data, marks = {out!r} + "/data", {out!r} + "/marks"
    os.makedirs(data)
    os.makedirs(marks)
    for k in range(2):
        pq.write_table(pa.table({{
            "conv_id": [f"conv-{{k}}-{{i}}" for i in range(4)],
            "turn_idx": pa.array(range(4), pa.int32()),
            "text": ["plain text turn"] * 4, "tool": [""] * 4,
        }}), f"{{data}}/part-{{k}}.parquet")
    ray.init(address="local", num_cpus=3, include_dashboard=False, logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    # starts the task workers, so the timed execution measures scheduling only
    assert len(xp.extraction_from_parquet(data, concurrency=2, sort=False).take_all()) == 8

    class SlowExtractTurns(xp.ExtractTurns):
        def __call__(self, batch):
            with open(os.path.join(marks, uuid.uuid4().hex), "w") as fh:
                fh.write(repr(time.time()))
            time.sleep(1.0)
            return super().__call__(batch)

    xp.ExtractTurns = SlowExtractTurns
    ds = xp.extraction_from_parquet(data, concurrency=2, sort=False)
    assert len(ds.take_all()) == 8
    starts = sorted(float(open(os.path.join(marks, m)).read()) for m in os.listdir(marks))
    tasks = re.search(r"MapBatches\\(extract_turns\\): (\\d+) tasks executed", ds.stats())
    print("RESULT", tasks and tasks.group(1), ds.context.op_resource_reservation_enabled,
          rd.DataContext.get_current().op_resource_reservation_enabled, *starts)
    ray.shutdown()
""")


def test_two_slots_run_two_extractions_at_once(tmp_path):
    """With ``concurrency=2`` over two small files, the read plans one
    task per slot and both extraction tasks run at once: the two 1-s
    batches start less than 1 s apart. It fails if Ray Data's
    per-operator reservation is on (it refuses the second task until
    the first one finishes) or if the read is not slot-sized (Ray
    Data's own sizing splits this input into six tasks). The
    reservation stays on in the process-wide context: only the
    extraction pipeline's own context turns it off."""
    script = _OVERLAP_SCRIPT.format(repo=REPO, out=str(tmp_path))
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True,
                            cwd=REPO)
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("extraction did not finish within 120 s")
    assert proc.returncode == 0, out[-3000:]
    tasks, reservation, global_reservation, *starts = out.split("RESULT ", 1)[1].split()
    assert tasks == "2"
    assert reservation == "False"  # set on the read's context, which every stage shares
    assert global_reservation == "True"
    assert len(starts) == 2, starts
    assert float(starts[1]) - float(starts[0]) < 1.0, starts
