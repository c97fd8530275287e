"""Outside-in tracer: spans recorded around calls into the library's layers.

Nothing in the library knows about this module.  ``install`` swaps hook
wrappers into the library's own namespaces — module attributes where a
consuming module imported a function, methods of a few classes, and the
runner's driver registries — and ``uninstall`` puts the originals back.
A hook whose target no longer exists is skipped and reported, so the
metrics that depend on it come out as absent rather than crashing.

Each span records its name, start, end, parent span and one payload
number (lanes, events or doubles, depending on the hook).  Spans stay in
memory, in flat arrays, until the benchmark summarises them at exit.
Fan-out workers are forked after the hooks are installed, so they trace
too: their ``run_shard`` wrapper ships the worker's spans back inside the
pickled shard result, and the parent merges them when summarising.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


def _arg_len(i):
    return lambda args, result: len(args[i])


#: Hook table: ``(span name, kind, module, attribute path, payload)``.
#:
#: ``function`` hooks replace every ``repro.*`` module attribute that *is*
#: the target function, so a function imported by name into a consuming
#: module is caught there.  ``registry`` hooks wrap each value of a
#: ``{process: driver}`` dict (span name gets the key).  ``factory``
#: hooks wrap the callable the target returns.  ``shard`` is the fan-out
#: worker entry point.  ``payload(args, result)``, when given, is the
#: span's number: lanes, events or doubles (``args[0]`` is ``self`` for
#: methods).
HOOKS = [
    ("batched.{}", "registry", "repro.experiments.runner", "BATCHED_DRIVERS", None),
    ("serial.{}", "registry", "repro.experiments.runner", "PROCESS_DRIVERS", None),
    ("kernels.csr_step", "method", "repro.kernels", "CompiledKernels.csr_step", _arg_len(3)),
    ("kernels.settle_round", "method", "repro.kernels", "CompiledKernels.settle_round", _arg_len(3)),
    ("kernels.vacant_candidates", "method", "repro.kernels", "CompiledKernels.vacant_candidates", _arg_len(3)),
    ("kernels.finish_sequential", "method", "repro.kernels", "CompiledKernels.finish_sequential", None),
    ("kernels.finish_parallel_single", "method", "repro.kernels", "CompiledKernels.finish_parallel_single", None),
    ("engine.neighbor_step", "function", "repro.walks.engine", "neighbor_step", _arg_len(2)),
    ("graphs.neighbor_kernel", "factory", "repro.graphs.csr", "neighbor_kernel", _arg_len(0)),
    ("settlement.chunked_vacancies", "function", "repro.core.settlement", "chunked_vacancies", None),
    ("settlement.select_settlers", "function", "repro.core.settlement", "select_settlers", None),
    ("settlement.settle_vacant_starts", "function", "repro.core.settlement", "settle_vacant_starts", None),
    ("finisher.parallel", "function", "repro.core.batched", "_finish_parallel_rep", None),
    ("finisher.sequential", "function", "repro.core.batched", "_finish_sequential_rep", None),
    # fill(self, rows): a whole block per row; refill_tail(self, r, ptr): ptr doubles
    ("rng.fill", "method", "repro.utils.rng", "UniformStreams.fill",
     lambda args, result: len(args[1]) * int(args[0].block)),
    ("rng.refill_tail", "method", "repro.utils.rng", "UniformStreams.refill_tail",
     lambda args, result: int(args[2])),
    ("rng.take_block", "method", "repro.utils.rng", "UniformStream.take_block",
     lambda args, result: len(result)),
    ("trajectory.append", "method", "repro.core.trajectory", "TrajectoryStore.append", _arg_len(1)),
    ("trajectory.finalize", "method", "repro.core.trajectory", "TrajectoryStore.finalize", None),
    ("trajectory.finalize", "method", "repro.core.trajectory", "TrajectoryStore.finalize_arrays", None),
    ("fanout.estimate", "function", "repro.experiments.fanout", "fanout_estimate", None),
    ("fanout.export", "method", "repro.experiments.fanout", "SharedGraph.__init__", None),
    ("fanout.shard", "shard", "repro.experiments.fanout", "run_shard", None),
]

#: The tracer the hooks record into.  Module-level because two callers
#: cannot be handed an object: forked fan-out workers, and the unpickling
#: of a shard result in the parent (:func:`_merge_shard`).
_current: Tracer | None = None


class Tracer:
    """In-memory span store for one benchmark process (and its workers)."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.stack = [0]  # open span ids; 0 is the root
        self.broken: set[str] = set()  # spans whose payload could not be read
        self.worker_blobs: list[tuple] = []
        self._reset_columns()
        self._enter_process()

    def _reset_columns(self) -> None:
        self.ids = array("q")
        self.parents = array("q")
        self.kinds = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.payload = array("q")

    def _enter_process(self) -> None:
        # span ids are (pid << 32) | counter: unique across forked workers
        self.pid = os.getpid()
        self._next = (self.pid << 32) + 1

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def mark(self) -> tuple[int, int]:
        """Position to summarise from (see :meth:`columns`)."""
        return len(self.ids), len(self.worker_blobs)

    def _record(self, sid, parent, kind, t0, t1) -> None:
        self.stack.pop()
        self.ids.append(sid)
        self.parents.append(parent)
        self.kinds.append(kind)
        self.t0.append(t0)
        self.t1.append(t1)
        self.payload.append(0)

    def call(self, kind: int, fn, args, kwargs, payload):
        """Run ``fn`` inside a span of name ``kind``."""
        sid = self._next
        self._next = sid + 1
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._record(sid, parent, kind, t0, perf_counter())
        if payload is not None:
            try:
                self.payload[-1] = payload(args, result)
            except (IndexError, TypeError, AttributeError):
                self.broken.add(self.names[kind])
        return result

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. around an estimate)."""
        kind = self.name_id(name)
        sid = self._next
        self._next = sid + 1
        parent = self.stack[-1]
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._record(sid, parent, kind, t0, perf_counter())

    def export(self) -> tuple:
        """This process's spans as a picklable blob; the store is emptied."""
        blob = (
            list(self.names),
            self.ids.tobytes(),
            self.parents.tobytes(),
            self.kinds.tobytes(),
            self.t0.tobytes(),
            self.t1.tobytes(),
            self.payload.tobytes(),
        )
        self._reset_columns()
        return blob

    def columns(self, start: tuple[int, int], stop: tuple[int, int]):
        """Spans recorded between two marks, worker spans merged in.

        Returns numpy arrays ``(ids, parents, kinds, t0, t1, payload)``;
        ``kinds`` index :attr:`names`.
        """
        import numpy as np

        (a, b), (c, d) = start, stop
        cols = [
            np.frombuffer(self.ids, dtype=np.int64)[a:c],
            np.frombuffer(self.parents, dtype=np.int64)[a:c],
            np.frombuffer(self.kinds, dtype=np.int32)[a:c],
            np.frombuffer(self.t0, dtype=np.float64)[a:c],
            np.frombuffer(self.t1, dtype=np.float64)[a:c],
            np.frombuffer(self.payload, dtype=np.int64)[a:c],
        ]
        for names, *raw in self.worker_blobs[b:d]:
            remap = np.array([self.name_id(n) for n in names], dtype=np.int32)
            parts = [
                np.frombuffer(buf, dtype=dt)
                for buf, dt in zip(
                    raw,
                    (np.int64, np.int64, np.int32, np.float64, np.float64, np.int64),
                )
            ]
            parts[2] = remap[parts[2]]
            cols = [np.concatenate((c, p)) for c, p in zip(cols, parts)]
        return tuple(c.copy() for c in cols)


# ----------------------------------------------------------------------
# hook installation
# ----------------------------------------------------------------------
def _traced(tracer: Tracer, name: str, fn, payload):
    kind = tracer.name_id(name)
    call = tracer.call

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return call(kind, fn, args, kwargs, payload)

    return wrapper


class _ShardResult(list):
    """A shard's outcomes plus the worker's spans, unpacked on unpickling."""

    def __init__(self, outcomes, blob):
        super().__init__(outcomes)
        self.blob = blob

    def __reduce__(self):
        return (_merge_shard, (list(self), self.blob))


def _merge_shard(outcomes, blob):
    """Unpickle hook (runs in the parent): keep the worker's spans aside."""
    if _current is not None:
        _current.worker_blobs.append(blob)
    return outcomes


def _shard_wrapper(tracer: Tracer, fn):
    kind = tracer.name_id("fanout.shard")

    def shipped_ints(outcomes) -> int:
        # dispersion time + total steps, plus every recorded trajectory entry
        total = 0
        for _, _, traj, _ in outcomes:
            total += 2
            if traj is not None:
                total += sum(len(row) for row in traj)
        return total

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != tracer.pid:
            # first shard in a freshly forked worker: drop the parent's
            # copied spans, keep the open-span stack (the parent's
            # fan-out span becomes the shard span's parent)
            tracer._reset_columns()
            tracer.worker_blobs = []
            tracer._enter_process()
        outcomes = tracer.call(kind, fn, args, kwargs, None)
        tracer.payload[-1] = 8 * shipped_ints(outcomes)
        return _ShardResult(outcomes, tracer.export())

    return wrapper


def _resolve(module: str, path: str):
    """``(owner, attribute)`` for ``module:path``, or ``None`` if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    # a method must be the class's own, so uninstall can put it back
    found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    return (owner, attr) if found else None


class Hooks:
    """Installed hook wrappers and the originals they replaced."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []
        self.present: set[str] = set()
        self.absent: set[str] = set()

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        global _current
        _current = self.tracer
        tr = self.tracer
        for name, kind, module, path, payload in HOOKS:
            found = _resolve(module, path)
            if found is None:
                self.absent.add(name.format("*"))
                continue
            owner, attr = found
            target = getattr(owner, attr)
            if kind == "registry":
                for key, fn in list(target.items()):
                    self._set(target, key, _traced(tr, name.format(key), fn, payload))
                    self.present.add(name.format(key))
                continue
            self.present.add(name)
            if kind == "method":
                self._set(owner, attr, _traced(tr, name, target, payload))
            elif kind == "function":
                self._patch_everywhere(target, _traced(tr, name, target, payload))
            elif kind == "factory":

                def factory(*a, _fn=target, _name=name, _pay=payload, **k):
                    return _traced(tr, _name, _fn(*a, **k), _pay)

                self._patch_everywhere(target, functools.wraps(target)(factory))
            elif kind == "shard":
                self._patch_everywhere(target, _shard_wrapper(tr, target))

    def _patch_everywhere(self, target, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is target:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        global _current
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        _current = None


# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
#: Finisher entry points; a finisher repetition is an outermost one of these.
FINISHERS = (
    "finisher.parallel",
    "finisher.sequential",
    "kernels.finish_sequential",
    "kernels.finish_parallel_single",
)

_ZERO = {"calls": 0, "main_calls": 0, "s": 0.0, "self_s": 0.0, "payload": 0}


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def summarize(tracer: Tracer, start, stop) -> dict:
    """Per span name: calls, inclusive and self seconds, payload sum.

    Self time is a span's duration minus the part of it its children
    cover.  Children in the same process run nested one after another,
    so their durations add up; fan-out shards run in other processes at
    the same time, so their intervals are merged first.  Two derived
    entries are added: ``finisher`` (outermost finisher spans) and
    ``fanout.ipc_wait`` (each fan-out span minus its longest shard).
    """
    import numpy as np

    ids, parents, kinds, t0, t1, payload = tracer.columns(start, stop)
    dur = t1 - t0
    order = np.argsort(ids, kind="stable")
    pidx = np.full(ids.size, -1, dtype=np.int64)
    if ids.size:
        at = np.minimum(np.searchsorted(ids[order], parents), ids.size - 1)
        found = ids[order][at] == parents
        pidx[found] = order[at][found]
    has_parent = pidx >= 0
    same = has_parent & ((parents >> 32) == (ids >> 32))
    covered = np.zeros(ids.size)
    np.add.at(covered, pidx[same], dur[same])
    shards: dict[int, list] = {}
    for c in np.flatnonzero(has_parent & ~same).tolist():
        shards.setdefault(int(pidx[c]), []).append((t0[c], t1[c]))
    ipc_wait = 0.0
    for p, spans in shards.items():
        clipped = [(max(a, t0[p]), min(b, t1[p])) for a, b in spans]
        covered[p] += _union_length([iv for iv in clipped if iv[1] > iv[0]])
        ipc_wait += dur[p] - max(b - a for a, b in spans)
    self_s = dur - covered
    main = (ids >> 32) == tracer.pid
    stats = {}
    for k, name in enumerate(tracer.names):
        sel = kinds == k
        stats[name] = {
            "calls": int(sel.sum()),
            "main_calls": int((sel & main).sum()),
            "s": float(dur[sel].sum()),
            "self_s": float(self_s[sel].sum()),
            "payload": int(payload[sel].sum()),
        }
    fin = np.isin(kinds, [tracer.name_id(n) for n in FINISHERS])
    outer = fin.copy()
    outer[has_parent] &= ~fin[pidx[has_parent]]
    stats["finisher"] = dict(_ZERO, calls=int(outer.sum()), s=float(dur[outer].sum()))
    stats["fanout.ipc_wait"] = dict(_ZERO, s=float(ipc_wait))
    return stats


def stat(stats: dict, name: str, field: str):
    return stats.get(name, _ZERO)[field]
