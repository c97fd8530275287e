"""Thread and shared-memory process fan-out for Monte-Carlo dispersion estimates.

``estimate_dispersion(n_jobs > 1)`` splits the repetition axis into
contiguous shards (:func:`plan_shards`) and runs each shard through the
batched drivers, so batching and workers compose.  Which workers run
the shards is decided once per call, in the parent:

* **Threads**, when every repetition runs in one compiled loop (the
  per-repetition route of :mod:`repro.core.route`, with ``batched`` not
  ``False``).  cffi drops the GIL inside each loop, so a
  ``ThreadPoolExecutor`` shares the immutable graph's arrays in place:
  no export, no fork, no pickling.  The parent resolves the kernel
  provider once and hands the instance to every thread, which calls
  :func:`~repro.core.route.run_reps` on its shard; ``record=True``
  trajectories come back as the threads built them.  The pool lives
  only inside the call, so a later fork never forks a multi-threaded
  process.
* **Processes** for everything else, which is GIL-bound (the numpy
  provider, implicit graphs, rules, ``faithful_r``, an explicit
  ``tail_threshold``, ``batched=False``).  This is the standard
  shared-immutable-structure pattern for parallel Monte Carlo over one
  read-only graph: :class:`SharedGraph` exports a
  :class:`~repro.graphs.csr.Graph`'s CSR arrays **once** into a named
  ``multiprocessing.shared_memory`` block; each worker reattaches and
  rebuilds the graph zero-copy through
  :meth:`repro.graphs.csr.Graph.from_shared`, and :func:`run_shard` is
  the worker entry point.

Implicit families (:mod:`repro.graphs.implicit`) skip the segment
entirely: their adjacency is arithmetic, so the worker-side rebuild is a
few integers.  They ship as an
:class:`~repro.graphs.implicit.ImplicitGraphSpec` ``(family, params)``
descriptor and :func:`run_shard` dispatches on the spec type — cheaper
than exporting CSR arrays that were never materialised in the parent
either.  Both spec routes validate their counts through the shared
:func:`repro.graphs.csr.check_spec_counts` helper.

Bit-identity across execution modes is preserved because repetition
``r`` still consumes child ``r`` of the single parent ``SeedSequence``
no matter which shard, worker kind (or dispatch mode) runs it, and the
batched drivers replay the serial uniform streams double for double.

Memory lifecycle
----------------
The parent owns the segment: :class:`SharedGraph` is a context manager
whose exit closes **and unlinks** the block — including when a worker
raises or dies mid-shard, since the ``with`` body only propagates the
failure after the pool shuts down.  A ``weakref.finalize`` backstop
(which also runs at interpreter shutdown) covers non-context-manager
use, so a dropped handle never leaks the segment.  Workers only ever
attach and close.  The pool uses the ``fork`` start method where
available so every process shares the parent's resource tracker — with
``spawn``, each child tracks the attachment separately and tries to
clean it up again at exit (bpo-39959 noise; harmless here because the
parent's unlink tolerates an already-removed segment).
"""

from __future__ import annotations

import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.route import route_kernels, run_reps
from repro.graphs.csr import Graph
from repro.graphs.implicit import ImplicitGraph, ImplicitGraphSpec, from_descriptor
from repro.utils.validation import check_integer

if TYPE_CHECKING:
    from multiprocessing import shared_memory

# The fork path's modules (multiprocessing, its shared_memory and
# concurrent.futures.process) are imported by the functions that use
# them: the thread route and every n_jobs=1 estimate never load them.

__all__ = [
    "SharedGraph",
    "SharedGraphSpec",
    "ImplicitGraphSpec",
    "attach",
    "budget_aligned_shard",
    "plan_shards",
    "run_shard",
    "fanout_estimate",
]

_ITEMSIZE = np.dtype(np.int64).itemsize


@dataclass(frozen=True)
class SharedGraphSpec:
    """Picklable handle describing one exported graph (sent to workers).

    ``block`` names the shared-memory segment; its first ``n + 1`` int64
    are ``indptr``, the next ``nnz`` are ``indices`` (the packed layout
    :meth:`Graph.from_shared` expects).  ``name`` carries the graph's
    label so worker-side results stay attributable.
    """

    block: str
    n: int
    nnz: int
    name: str


def _release(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a segment, tolerating double release."""
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedGraph:
    """Parent-side export of a graph into one shared-memory block.

    Use as a context manager around the pool dispatch::

        with SharedGraph(g) as sg:
            pool.submit(run_shard, sg.spec, ...)

    Exit (or :meth:`close`, or garbage collection via the registered
    finalizer) unlinks the block exactly once; attach-side consumers
    reconstruct the graph with :func:`attach` / :meth:`Graph.from_shared`
    without copying the CSR arrays.
    """

    def __init__(self, g: Graph):
        from multiprocessing import shared_memory

        n, nnz = g.n, g.indices.size
        self._shm = shared_memory.SharedMemory(
            create=True, size=(n + 1 + nnz) * _ITEMSIZE
        )
        packed = np.ndarray((n + 1 + nnz,), dtype=np.int64, buffer=self._shm.buf)
        packed[: n + 1] = g.indptr
        packed[n + 1 :] = g.indices
        # Drop the exporting view immediately: SharedMemory.close() raises
        # BufferError while any ndarray still references the mapping.
        del packed
        self.spec = SharedGraphSpec(block=self._shm.name, n=n, nnz=nnz, name=g.name)
        self._finalizer = weakref.finalize(self, _release, self._shm)

    def close(self) -> None:
        """Close and unlink the segment (idempotent)."""
        self._finalizer()

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(spec: SharedGraphSpec) -> tuple[shared_memory.SharedMemory, Graph]:
    """Attach to an exported graph: returns the mapping and a zero-copy Graph.

    The graph's CSR arrays view the returned mapping directly; drop every
    reference to the graph *before* calling ``close()`` on the mapping.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=spec.block)
    try:
        return shm, Graph.from_shared(shm.buf, spec.n, spec.nnz, name=spec.name)
    except Exception:
        shm.close()
        raise


def plan_shards(
    reps: int, n_jobs: int, *, max_shard: int | None = None
) -> list[tuple[int, int]]:
    """Split ``range(reps)`` into contiguous per-worker ``(start, stop)`` slices.

    At most ``n_jobs`` shards, every shard non-empty, sizes differing by
    at most one (earlier shards take the remainder).  Contiguity is what
    keeps the seed plumbing trivial: shard ``(start, stop)`` consumes
    children ``start..stop-1`` of the parent ``SeedSequence``, so
    repetition ``r`` sees the same stream as in every other execution
    mode.

    ``max_shard`` caps the repetitions per shard — the cost-weighted
    sizing hook of the adaptive runner, which learns the per-rep cost
    from earlier rounds and requests shards of bounded *duration*.  The
    plan may then contain more shards than ``n_jobs``; the surplus
    queues on the pool and drains as workers free up, so one straggling
    shard delays the round by about its own duration, not by a whole
    ``reps / n_jobs`` slice.  Shard *boundaries* never affect samples
    (repetition ``r``'s stream only depends on child ``r``), so the cap
    is purely a scheduling decision.

    Examples
    --------
    >>> plan_shards(10, 4)
    [(0, 3), (3, 6), (6, 8), (8, 10)]
    >>> plan_shards(2, 8)
    [(0, 1), (1, 2)]
    >>> plan_shards(10, 2, max_shard=3)
    [(0, 3), (3, 6), (6, 8), (8, 10)]
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    k = min(n_jobs, reps)
    if max_shard is not None:
        max_shard = check_integer("max_shard", max_shard)
        if max_shard < 1:
            raise ValueError(f"max_shard must be >= 1, got {max_shard}")
        k = min(max(k, -(-reps // max_shard)), reps)
    base, extra = divmod(reps, k)
    shards = []
    start = 0
    for i in range(k):
        stop = start + base + (1 if i < extra else 0)
        shards.append((start, stop))
        start = stop
    return shards


def budget_aligned_shard(
    reps: int, n_jobs: int, cohort_reps: int, *, max_shard: int | None = None
) -> int:
    """Shard-size cap aligned to whole ``state_budget`` cohorts.

    When a :class:`repro.core.budget.StateBudget` forces the batched
    drivers into repetition cohorts of ``cohort_reps``, the natural
    fan-out shard is a whole number of cohorts: each worker then holds at
    most one cohort of driver state resident (the budget applies *per
    worker* — ``n_jobs`` workers hold ``n_jobs`` cohorts in aggregate,
    which is what the caller asked for by combining the two knobs), and
    no shard ends on a fractional cohort that re-pays the cohort setup
    for a sliver of repetitions.

    Starts from the even split ``ceil(reps / n_jobs)`` (tightened by
    ``max_shard``, the adaptive runner's cost-weighted cap, when given),
    rounds *down* to a cohort multiple, and never drops below one full
    cohort — a shard smaller than a cohort frees no memory, because the
    worker's driver allocates one cohort of state regardless.

    Examples
    --------
    >>> budget_aligned_shard(64, 4, 6)   # ceil(64/4)=16 -> 2 cohorts
    12
    >>> budget_aligned_shard(8, 4, 6)    # even split smaller than a cohort
    6
    >>> budget_aligned_shard(64, 4, 6, max_shard=7)
    6
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if cohort_reps < 1:
        raise ValueError(f"cohort_reps must be >= 1, got {cohort_reps}")
    base = -(-reps // n_jobs)
    cap = base if max_shard is None else min(base, max_shard)
    return max(cohort_reps, (cap // cohort_reps) * cohort_reps)


def run_shard(
    spec, process: str, origin, children, kwargs, batched
) -> list[tuple[float, int, object, object]]:
    """Worker entry point: run one contiguous repetition shard.

    ``spec`` is either a :class:`SharedGraphSpec` (attach to the exported
    CSR segment) or an :class:`ImplicitGraphSpec` (rebuild the arithmetic
    family locally — no segment exists).  ``children`` are the shard's
    slice of the parent ``SeedSequence``'s spawned children, one per
    repetition, in repetition order.  The shard re-decides batched
    dispatch with *its own* repetition count (the profitability
    thresholds are per-shard; memory never disqualifies batching since
    the streaming buffers bound their own allocation).
    Returns one :func:`repro.experiments.runner.outcome_of` payload —
    ``(dispersion_time, total_steps, trajectories, schedule)`` — per
    repetition, in repetition order, bit-identical to the in-process
    paths over the same children; each repetition's trajectories are one
    :class:`~repro.core.results.TrajectoryArrays` (two arrays to
    pickle), so the parent concatenates shard payloads in
    ``SeedSequence``-child order and recording survives the process
    boundary unchanged.
    """
    # Imported here (not at module top) to keep runner -> fanout -> runner
    # from becoming an import cycle; by the time a shard runs, the
    # experiments package is fully initialised.
    from repro.experiments.runner import _shard_outcomes

    if isinstance(spec, ImplicitGraphSpec):
        shm, g = None, from_descriptor(spec)
    else:
        shm, g = attach(spec)
    try:
        return _shard_outcomes(g, process, origin, children, kwargs, batched)
    finally:
        # The graph's CSR arrays view shm.buf: release them before closing
        # the mapping (close() raises BufferError while views exist).
        del g
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - a driver kept a view alive
                pass


def _mp_context():
    """Prefer ``fork``: cheap worker start and one shared resource tracker."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


def _thread_outcomes(
    g: Graph, process: str, origin, children, shards, n_jobs: int, kwargs
) -> list[tuple[float, int, object, object]]:
    """Run the shards on a thread pool that shares ``g`` in place.

    Only for requests that pass :func:`~repro.core.route.route_kernels`
    (the loops release the GIL).  ``kwargs`` carry the resolved
    provider, so no thread resolves one.  On the first failure the
    queued shards are cancelled and the pool joins before the error
    propagates.
    """
    from repro.experiments.runner import shard_outcomes

    outcomes: list[tuple[float, int, object, object]] = []
    with ThreadPoolExecutor(max_workers=min(n_jobs, len(shards))) as pool:
        pending = deque(
            pool.submit(run_reps, process, g, children[start:stop], origin, **kwargs)
            for start, stop in shards
        )
        try:
            while pending:
                # popleft: a collected shard's results die with its future
                outcomes.extend(shard_outcomes(pending.popleft().result()))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return outcomes


def fanout_estimate(
    g: Graph,
    process: str,
    *,
    origin,
    children,
    n_jobs: int,
    batched,
    kwargs,
    max_shard: int | None = None,
) -> list[tuple[float, int, object, object]]:
    """Fan contiguous repetition shards out over a thread or process pool.

    The repetition axis is sharded contiguously over at most ``n_jobs``
    workers — or, with ``max_shard`` (the adaptive runner's
    cost-weighted cap), into more, smaller shards that queue on the
    pool.  When every repetition runs in one compiled loop
    (:func:`~repro.core.route.route_kernels` passes and ``batched`` is
    not ``False``), the shards run on threads that share ``g``.
    Otherwise CSR graphs are exported once (not pickled per job),
    implicit families ship their ``(family, params)`` descriptor, and
    each worker process runs :func:`run_shard`, batched where profitable
    (or forced via ``batched=True``).  Outcomes come back in repetition order and are
    bit-identical to ``n_jobs=1`` over the same ``children``.
    """
    shards = plan_shards(len(children), n_jobs, max_shard=max_shard)
    kern = None if batched is False else route_kernels(process, g, kwargs)
    if kern is not None:
        return _thread_outcomes(
            g, process, origin, children, shards, n_jobs, {**kwargs, "kernels": kern}
        )
    from concurrent.futures import ProcessPoolExecutor

    if isinstance(g, ImplicitGraph):
        exporter, spec = nullcontext(), g.descriptor()
    else:
        sg = SharedGraph(g)
        exporter, spec = sg, sg.spec
    with exporter:
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(shards)), mp_context=_mp_context()
        ) as pool:
            futures = [
                pool.submit(
                    run_shard,
                    spec,
                    process,
                    origin,
                    children[start:stop],
                    dict(kwargs),
                    batched,
                )
                for start, stop in shards
            ]
            outcomes: list[tuple[float, int, object, object]] = []
            for future in futures:
                outcomes.extend(future.result())
    return outcomes
