"""Per-worker-process helpers for map_batches task stages.

``ray.get`` of a plasma object that is NOT zero-copy deserializable
(a dict, a pandas DataFrame with object columns, a numpy object
array) re-unpickles the whole payload on EVERY call — per *batch*
inside a ``map_batches`` closure, which at a 2M-row broadcast guard
is seconds of pure deserialization per task. Pure-numeric numpy
arrays are the exception (plasma zero-copy views), and stages that
can express their broadcast as ``(sorted int64 keys, value array)``
pairs should do so and gather with :func:`sorted_lookup`.

For the payloads that genuinely hold Python strings (join frames,
text lookups), :func:`cached_get` memoizes the deserialized value
per worker process: the unpickle happens at most once per worker
(the same amortization an actor-pool ``__init__`` would give, but
without forcing a task stage onto actors), and every subsequent
batch pays one dict lookup.

:func:`task_stage` gives a callable class the same treatment: one
instance per worker process per pipeline build, run as a plain task
stage. Ray starts task workers once per ``ray.init`` and reuses them,
so no execution pays an actor start or holds a CPU for an idle pool.
"""

from __future__ import annotations

import sys
import types
import uuid
from collections import OrderedDict

import numpy as np

# Bounded per-process memo: workers are reused across stages, so an
# unbounded cache would pin every broadcast a long-lived worker ever
# saw. 4 slots covers any single stage (one or two refs) with room
# for stage overlap; evicted refs simply re-deserialize once.
_CACHE_SLOTS = 4
_MISS = object()

# The per-process slots live in ``sys.modules``, looked up at call time:
# a by-value task (``__ray_entry__`` ships the package by value) gets its
# own copy of this module's globals, but ``sys`` is the worker's own. The
# name is outside the package, so by-value registration skips it.
_STATE_MODULE = "_pdf4py_ray_process_state"


def process_state():
    """This process's ``cache`` (for :func:`cached_get`) and
    ``instances`` (for :func:`task_stage`), both LRU ``OrderedDict``s,
    shared by every copy of this module in the process."""
    state = sys.modules.get(_STATE_MODULE)
    if state is None:
        state = types.ModuleType(_STATE_MODULE)
        state.cache, state.instances = OrderedDict(), OrderedDict()
        sys.modules[_STATE_MODULE] = state
    return state


def _memo(table: OrderedDict, key, slots: int, make):
    """``table[key]``, made by ``make()`` on a miss (a made ``None``
    included); LRU, at most ``slots`` entries."""
    val = table.get(key, _MISS)
    if val is _MISS:
        val = table[key] = make()
        if len(table) > slots:
            table.popitem(last=False)
    else:
        table.move_to_end(key)
    return val


def cached_get(ref):
    """``ray.get(ref)`` memoized per worker process (LRU, 4 slots).

    Use for broadcast payloads that are not plasma-zero-copy (dicts,
    DataFrames, object arrays). The first call in a worker pays the
    deserialization; later batches on the same worker get the cached
    object (a cached ``None`` included). NEVER mutate the returned
    value — it is shared across every batch the worker processes.
    """
    import ray

    return _memo(process_state().cache, ref.hex(), _CACHE_SLOTS, lambda: ray.get(ref))


def sorted_lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray) -> tuple:
    """``(values[pos], hit)`` for each query key: ``pos`` is its
    ``searchsorted`` position in ascending ``keys`` and ``hit`` marks
    the queries present in ``keys``. A missed query gathers a
    neighbouring entry, so callers must apply ``hit`` (an inner join
    drops the row; a left join keeps its default)."""
    if not len(keys):
        return np.zeros(len(query), dtype=values.dtype), np.zeros(len(query), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return values[pos], keys[pos] == query


# Stage instances of recent pipeline builds in this worker process,
# keyed by build token (LRU): concurrent builds each keep theirs, and
# an instance outlives its run only until newer builds push it out.
_STAGE_SLOTS = 4


def stage_instance(token: str, cls, args: tuple, kwargs: dict):
    """This process's ``cls(*args, **kwargs)`` for the build ``token``."""
    return _memo(process_state().instances, token, _STAGE_SLOTS, lambda: cls(*args, **kwargs))


def task_stage(name: str, cls, *args, **kwargs):
    """A ``map_batches`` function that runs ``cls(*args, **kwargs)``
    on each batch, built once per worker process for this call.

    ``cls`` is a callable batch class that holds no state worth an
    actor pool. It is constructed inside the worker, never in the
    process that builds the pipeline, and each call of this function
    (each pipeline build) gets its own instance per worker — the
    lifetime an actor-pool instance had, so a subclass that keeps
    per-run state (counters, a seen-set) still sees one run. ``name``
    names the operator in Ray Data's stats."""
    token = uuid.uuid4().hex

    def stage(batch):
        return stage_instance(token, cls, args, kwargs)(batch)

    stage.__name__ = name
    return stage
