"""Seeded, oracle-checked benchmark of the pdf4py_ray engine.

    python3 perfbench/run.py --workload pdf_mix --seed 1 --seconds 9 --trace 0

Run from the repository root. One run generates the workload's input
from ``--seed``, then in each of three rounds times the same job in
this process without Ray, sets Ray up and runs the Ray job back to back
for a third of ``--seconds``; at the end it checks every output. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the details (input mix, sample lists,
environment). ``--trace 1`` instead alternates untraced and traced
executions and reports the per-layer metrics and the tracing overhead.
All files go under ``.perfbench/`` in the repository root and are
removed at exit; every process started is stopped and waited for.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RAY_CPUS = 3                 # logical CPUs: up to two for an actor pool, one for tasks
OBJECT_STORE_BYTES = 256 << 20
ROUNDS = 3                   # set-ups per run; setup_s is their median
SERIAL_SHARE = 0.2           # the serial loop measures this share of --seconds,
                             # pinned to each available CPU in turn: per-CPU speed
                             # on a shared host differs by up to 1.5x
MIN_EXECS = 2                # traced run: at least this many execution pairs
EXEC_TIMEOUT_S = 60          # one Ray execution longer than this counts as failed
RUN_DEADLINE_S = 165         # start no execution after this many seconds
PROBE_SIZE = 60              # conversations in the determinism probe


class ExecTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that the engine's per-row
    ``except Exception`` cannot swallow it."""


def _on_alarm(signum, frame):
    raise ExecTimeout()


def _elapsed() -> float:
    return time.perf_counter() - T0


# ------------------------------------------------------------- processes


def _process_table() -> dict:
    """pid -> (parent pid, resident bytes, is a Ray worker) from /proc."""
    page = os.sysconf("SC_PAGE_SIZE")
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
            with open(f"/proc/{entry}/statm", "rb") as fh:
                rss = int(fh.read().split()[1]) * page
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                worker = fh.read(5) == b"ray::"
        except (OSError, ValueError, IndexError):
            continue
        fields = stat[stat.rindex(b")") + 2:].split()
        if fields[0] == b"Z":
            continue
        table[int(entry)] = (int(fields[1]), rss, worker)
    return table


def _descendants(table: dict, root: int) -> set:
    children: dict = {}
    for pid, (ppid, _, _) in table.items():
        children.setdefault(ppid, []).append(pid)
    out, stack = set(), [root]
    while stack:
        for child in children.get(stack.pop(), ()):
            out.add(child)
            stack.append(child)
    return out


class RssSampler(threading.Thread):
    """Peak of the summed RSS of this process and its Ray worker
    processes, sampled every ``interval`` seconds."""

    def __init__(self, interval: float = 0.25) -> None:
        super().__init__(daemon=True)
        self.interval, self.peak = interval, 0
        self._stop_event = threading.Event()

    def sample(self) -> int:
        table = _process_table()
        me = os.getpid()
        pids = [p for p in _descendants(table, me) if table[p][2]] + [me]
        return sum(table[p][1] for p in pids if p in table)

    def run(self) -> None:
        while True:
            self.peak = max(self.peak, self.sample())
            if self._stop_event.wait(self.interval):
                return

    def stop(self) -> int:
        self._stop_event.set()
        self.join()
        return self.peak


# ------------------------------------------------------------------- Ray


class RaySession:
    """Start and stop local Ray; stopping waits until every process
    this program started has ended."""

    def __init__(self, temp_dir: str) -> None:
        self.temp_dir = temp_dir

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=self.temp_dir,
                 logging_level="ERROR", log_to_driver=False)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self) -> None:
        import ray

        pids = _descendants(_process_table(), os.getpid())
        signal.setitimer(signal.ITIMER_REAL, 30)
        try:
            ray.shutdown()
        except ExecTimeout:
            pass
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        _reap(pids)


def _reap(pids: set, grace: float = 5.0) -> None:
    deadline = time.monotonic() + grace
    while pids and time.monotonic() < deadline:
        pids = pids & set(_process_table())
        time.sleep(0.05)
    for pid in pids & set(_process_table()):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 5
    while pids & set(_process_table()) and time.monotonic() < deadline:
        time.sleep(0.05)


def _ray_temp_dir() -> str:
    """Ray's temp dir under the repository root, unless that path is too
    long for the Unix sockets Ray creates inside it (107 bytes with the
    ~62-byte session/socket suffix)."""
    path = os.path.join(ROOT, ".perfbench", f"ray{os.getpid()}")
    if len(path) > 44:
        path = tempfile.mkdtemp(prefix="pbray")
    os.makedirs(path, exist_ok=True)
    return path


# ------------------------------------------------------------ measuring


def _loop(run_one, seconds: float, min_runs: int = MIN_EXECS, prepare=None) -> tuple:
    """Run ``run_one(k)`` back to back for ``seconds`` (at least
    ``min_runs`` times), calling ``prepare()`` untimed before each;
    (durations, outputs, timed out)."""
    durations, outputs = [], []
    start = time.perf_counter()
    while len(durations) < min_runs or time.perf_counter() - start < seconds:
        if _elapsed() > RUN_DEADLINE_S:
            return durations, outputs, True
        signal.setitimer(signal.ITIMER_REAL, EXEC_TIMEOUT_S)
        try:
            if prepare is not None:
                prepare()
            t0 = time.perf_counter()
            out = run_one(len(durations))
            durations.append(time.perf_counter() - t0)
            outputs.append(out)
        except ExecTimeout:
            return durations, outputs, True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return durations, outputs, False


@contextlib.contextmanager
def _phase(phases: dict, name: str):
    """Add the block's wall seconds to ``phases[name]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _median(values) -> float:
    """Median, or 0 when a timeout left no sample."""
    return statistics.median(values) if values else 0.0


def _environment(actor_pool: int) -> dict:
    import numpy
    import pyarrow
    import ray

    cpus = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    nproc = int(omp) if omp.isdigit() and int(omp) > 0 else cpus  # as nproc(1) counts
    return {"nproc": nproc, "cpus_available": cpus,
            "ray_logical_cpus": RAY_CPUS, "actor_pool": actor_pool,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "python": platform.python_version(),
            "machine": platform.machine(),
            "scaling_efficiency": "not reported while nproc is 1; counts only"
            if nproc == 1 else "not measured"}


def _determinism(wl, seed: int, work: str) -> dict:
    """Generate a small table twice from ``seed`` and once from
    ``seed + 1``: the first two digests must match, the third differ."""
    a, b, c = (wl.generate(s, os.path.join(work, f"probe{k}"), PROBE_SIZE).digest
               for k, s in enumerate((seed, seed, seed + 1)))
    return {"same_seed_equal": a == b, "other_seed_differs": a != c}


def run(args) -> dict:
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    import ray  # noqa: F401

    from perfbench import tracing, workloads

    import_s = _elapsed()
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".perfbench", f"{wl.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    session = RaySession(_ray_temp_dir())
    signal.signal(signal.SIGALRM, _on_alarm)
    started = False
    env = _environment(wl.pool)
    phases = {"import": import_s}
    try:
        with _phase(phases, "generate"):
            determinism = _determinism(wl, args.seed, work)
            inp = wl.generate(args.seed, os.path.join(work, "gen"))
            warm = dataclasses.replace(inp, input_dir=inp.warm_dir)
        failed = attempted = 0

        # The run is ROUNDS rounds of: serial samples, one CPU each in
        # turn, while Ray is down; a set-up, timed; Ray executions for
        # a share of --seconds; Ray stopped. Each median thus spans the
        # whole run, not one stretch of the host's drifting speed. The
        # first serial output is the oracle. A set-up is ray.init plus
        # the workload's job on a few rows, which starts every actor pool
        # and has the task workers import what each stage needs; timed
        # executions on cold workers were 30-50% slower and twice as
        # spread. The one-off import time is added to each sample. A
        # set-up that stalls raises ExecTimeout and ends the run without
        # a result.
        cpus = sorted(os.sched_getaffinity(0))
        turn = itertools.cycle(cpus)
        rounds = 1 if args.trace else ROUNDS
        serial_secs = 0 if args.trace else args.seconds * SERIAL_SHARE / rounds
        outdir = os.path.join(work, "out")
        names = itertools.count()
        serial_d, serial_out, setup, durations, outputs = [], [], [], [], []
        peak, timed_out = 0, False
        for _ in range(rounds):
            with _phase(phases, "serial"):
                try:
                    d, out, cut = _loop(lambda _: wl.serial(inp, work), serial_secs, 1,
                                        prepare=lambda: os.sched_setaffinity(0, {next(turn)}))
                finally:
                    os.sched_setaffinity(0, cpus)
            serial_d, serial_out = serial_d + d, serial_out + out
            if cut:
                timed_out = True
                break
            with _phase(phases, "setup"):
                signal.setitimer(signal.ITIMER_REAL, EXEC_TIMEOUT_S)
                t0 = time.perf_counter()
                session.start()
                started = True
                wl.ray(warm, f"{outdir}w{next(names)}", workloads.NullClock())
                setup.append(import_s + time.perf_counter() - t0)
                signal.setitimer(signal.ITIMER_REAL, 0)
            with _phase(phases, "ray"):
                if args.trace:
                    detail, metrics, outs, cut = _traced(wl, inp, outdir, args.seconds, tracing)
                else:
                    sampler = RssSampler()
                    sampler.start()
                    d, outs, cut = _loop(
                        lambda _: wl.ray(inp, f"{outdir}{next(names)}", workloads.NullClock())[0],
                        args.seconds / rounds, min_runs=1, prepare=workloads.quiesce)
                    peak = max(peak, sampler.stop())
                    durations += d
            outputs += outs
            timed_out = timed_out or cut
            with _phase(phases, "stop"):
                session.stop()
                started = False
            if timed_out:
                break

        with _phase(phases, "check"):
            oracle = wl.oracle(inp, serial_out[0])
            failed += wl.check(inp, oracle, serial_out[0])
            attempted += inp.rows
            for out in serial_out[1:]:  # later serial runs must repeat the first exactly
                failed += 0 if wl.same(out, serial_out[0]) else inp.rows
                attempted += inp.rows
            for out in outputs:
                failed += wl.check(inp, oracle, wl.result(out))
                attempted += inp.rows
        if timed_out:  # the execution cut short: every row counts as failed
            failed += inp.rows
            attempted += inp.rows
        if not args.trace:
            rates = [inp.rows / d for d in durations]
            serial_rates = [inp.rows / d for d in serial_d]
            metrics = {
                "rows_per_s": _metric(_median(rates), "1/s"),
                "serial_rows_per_s": _metric(_median(serial_rates), "1/s"),
                "setup_s": _metric(_median(setup), "s"),
                "peak_mem_mb": _metric(peak / 2**20, "MB"),
            }
            detail = {"samples": {"rows_per_s": rates, "serial_rows_per_s": serial_rates,
                                  "setup_s": setup, "import_s": import_s}}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if started:
            session.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(session.temp_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    correct = failed == 0 and not timed_out and all(determinism.values())
    detail.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "input": {"rows": inp.rows, "rows_unit": wl.rows_unit,
                  "payload_bytes": inp.payload_bytes, "parquet_bytes": inp.parquet_bytes,
                  "digest": inp.digest, "mix": inp.mix},
        "failed_share": _metric(failed / attempted, "share"),
        "timed_out": timed_out, "determinism": determinism, "environment": env,
        "phases_s": phases, "elapsed_s": _elapsed(),
    })
    print(json.dumps(detail, default=str))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# per-layer metrics and units, as BENCHMARK.json lists them
PER_LAYER = {
    "kernel.pdf_open_s": "s", "kernel.pdf_open_count": "count", "kernel.security_s": "s",
    "kernel.filters_s": "s", "kernel.filters_bytes_out": "B", "kernel.pdf_text_s": "s",
    "kernel.pages": "count", "kernel.html_s": "s", "kernel.html_count": "count",
    "extract.classify_s": "s", "extract.rows.pdf": "count", "extract.rows.html": "count",
    "extract.rows.text": "count", "extract.self_s": "s", "extract.repeat_payload_share": "share",
    "partition.busy_s": "s", "partition.max_share": "share", "sort.split_sample_s": "s",
    "sort.write_s": "s", "sort.max_bucket_share": "share", "dedup.sketch_s": "s",
    "dedup.pairs_s": "s", "dedup.clusters_s": "s", "dedup.pair_rows": "count",
    "ray.op_s.read": "s", "ray.op_s.actor_pool": "s", "ray.op_s.map": "s",
    "ray.op_s.exchange": "s", "ray.op_s.write": "s", "ray.spilled_mb": "MB",
    "trace.rows_per_s": "1/s", "trace.overhead_share": "share",
}


def _traced(wl, inp, outdir: str, seconds: float, tracing) -> tuple:
    """Alternate untraced and traced executions; per-layer metrics are
    means per traced execution, overhead compares median durations."""
    import ray

    from perfbench import workloads

    collector = ray.remote(num_cpus=0)(tracing.Collector).options(
        name=tracing.COLLECTOR_NAME).remote()
    ray.get(collector.take.remote())
    sums: dict = {}
    parts = None
    per_exec = []

    def add(values: dict) -> None:
        for k, v in values.items():
            sums[k] = sums.get(k, 0.0) + v

    def run_pair(k):
        t0 = time.perf_counter()
        out_plain = wl.ray(inp, f"{outdir}u{k}", workloads.NullClock())[0]
        untraced = time.perf_counter() - t0
        clock = tracing.LayerClock()
        workloads.quiesce()
        t0 = time.perf_counter()
        with tracing.traced_layers() as written:
            out_traced, datasets = wl.ray(inp, f"{outdir}t{k}", clock)
        traced = time.perf_counter() - t0
        values, exec_parts = ray.get(collector.take.remote())
        add(values)
        add(clock.drain())
        ops, spilled = tracing.op_seconds(datasets + written)
        add({f"ray.op_s.{c}": s for c, s in ops.items()})
        add({"ray.spilled_mb": spilled / 2**20})
        if wl.name == "chat_sorted":
            add({"sort.max_bucket_share": _max_bucket_share(f"{outdir}t{k}"),
                 "dedup.pair_rows": sum(len(b) for b in out_traced[1])})
        nonlocal parts
        parts = exec_parts if parts is None else parts + exec_parts
        per_exec.append((untraced, traced))
        return [out_plain, out_traced]

    # each loop step is one untraced and one traced execution
    _, pairs, timed_out = _loop(run_pair, seconds, prepare=workloads.quiesce)
    n = max(len(per_exec), 1)
    values = {k: v / n for k, v in sums.items()}  # means per traced execution
    values["extract.self_s"] = (values.get("extract.call_s", 0.0)
                                - values.get("extract.classify_s", 0.0)
                                - values.get("extract.kernel_s", 0.0))
    payloads = sums.get("extract.payloads", 0.0)
    values["extract.repeat_payload_share"] = (
        sums.get("extract.repeat_payloads", 0.0) / payloads if payloads else 0.0)
    total = parts.sum() if parts is not None else 0
    values["partition.max_share"] = parts.max() / total if total else 0.0
    untraced = _median([u for u, _ in per_exec])
    traced = _median([t for _, t in per_exec])
    values["trace.rows_per_s"] = inp.rows / traced if traced else 0.0
    values["trace.overhead_share"] = traced / untraced - 1 if untraced else 0.0
    metrics = {name: _metric(float(values.get(name, 0.0)), unit)
               for name, unit in PER_LAYER.items()}
    detail = {"samples": {"untraced_s": [u for u, _ in per_exec],
                          "traced_s": [t for _, t in per_exec]},
              "untraced_rows_per_s": inp.rows / untraced if untraced else 0.0}
    outputs = [o for pair in pairs for o in pair]
    return detail, metrics, outputs, timed_out


def _max_bucket_share(out_dir: str) -> float:
    import pyarrow.parquet as pq

    counts = [pq.read_metadata(os.path.join(out_dir, d, "sorted.parquet")).num_rows
              for d in os.listdir(out_dir)
              if os.path.exists(os.path.join(out_dir, d, "sorted.parquet"))]
    return max(counts) / sum(counts) if counts and sum(counts) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pdf_mix", "chat_sorted"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
