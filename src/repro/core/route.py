"""The per-repetition route: every repetition in one compiled loop.

:func:`route_kernels` is the one gate.  It passes for a compiled kernel
provider (:mod:`repro.kernels`), host CSR arrays, the default settling
rule, Uniform-IDLA's default scheduler (``faithful_r=False``) and no
explicit ``tail_threshold``; the runner (``n_jobs=1``) and the fan-out
thread pool (``n_jobs > 1``) consult it, then call :func:`run_reps`.
Everything else keeps the lock-step drivers of :mod:`repro.core.batched`
and :mod:`repro.core.batched_continuous`, or the serial oracles.

:func:`run_reps` runs each repetition as its process's prelude (origins,
the tie-break permutation, then the round-0 settlement pass, the release
chain or the time-0 settlement), then one ``CompiledKernels.finish_*``
call that runs it to completion in its serial driver's draw order.
``finish_parallel`` draws each double from the repetition's ``bitgen_t``
inside C, so the generator ends right after the last double consumed
(the serial oracle and the lock-step body may leave it further on).
The other loops fetch whole blocks of their serial driver's size through
a :class:`~repro.utils.rng.UniformStream`, so each generator ends where
the serial driver leaves it, which c-sequential's Gamma durations read
next; their logarithms come from numpy, never from libm.  The results
are assembled by the lock-step drivers' own helpers, bit-identical to
the serial oracle.  ``record`` hands each repetition an event sink
(:meth:`~repro.kernels.CompiledKernels.event_sink`).  A
``state_budget`` is ignored: the route keeps no stream buffers or
round transients, only the result rows and the occupancy.
"""

from __future__ import annotations

import numpy as np

from repro.core import continuous as _ctu_mod
from repro.core import sequential as _seq_mod
from repro.core import uniform as _uniform_mod
from repro.core.batched import (
    _parallel_checks,
    _parallel_prelude,
    _parallel_results,
    _particle_count,
    _sequential_prelude,
    _sequential_results,
)
from repro.core.batched_continuous import (
    _ctu_results,
    _init_lanes,
    _poissonised,
    _uniform_results,
)
from repro.core.results import DispersionResult
from repro.core.stopping_rules import standard_rule
from repro.kernels import KernelsUnavailableError, csr_arrays, get_kernels
from repro.utils.rng import UniformStream, as_generator
from repro.utils.validation import check_limit, check_positive_finite, check_record

__all__ = ["route_kernels", "run_reps"]

#: Options the gate passes only at values the route needs no code for.
_GATED = ("rule", "faithful_r", "tail_threshold", "state_budget")


def route_kernels(process: str, g, kwargs: dict):
    """The compiled provider that runs every repetition of this request
    in one loop each, or ``None``.

    ``kwargs`` are the estimate's driver options.  An explicit
    ``tail_threshold`` pins the lock-step body.  An unknown ``kernels``
    name raises, as the drivers would; a known but unavailable provider
    gives ``None``, so callers keep the paths that never needed it.
    """
    if process not in _RUNNERS or kwargs.get("tail_threshold") is not None:
        return None
    try:
        kern = get_kernels(kwargs.get("kernels"))
    except KernelsUnavailableError:
        return None
    rule = kwargs.get("rule")
    if not kern.compiled or kwargs.get("faithful_r"):
        return None
    if not (rule is None or rule is standard_rule):
        return None
    return kern if csr_arrays(g) is not None else None


def run_reps(
    process: str, g, gens, origin=0, *, kernels, record=False, **opts
) -> list[DispersionResult]:
    """One repetition per seed/generator in ``gens``, each in one
    compiled loop; entry ``r`` is bit-identical to the serial driver's
    run with ``seed=gens[r]``.

    ``opts`` are the process's driver options; the request must pass
    :func:`route_kernels` (``kernels`` included), else ``ValueError``.
    """
    kern = route_kernels(process, g, {**opts, "kernels": kernels})
    if kern is None:
        raise ValueError(f"{process!r} on {g.name} has no per-repetition loop here")
    record = check_record(record)
    for key in _GATED:
        opts.pop(key, None)
    gens = [as_generator(s) for s in gens]
    return _RUNNERS[process](g, gens, origin, kern, record, **opts)


def _trajectories(sink, starts, record):
    """One repetition's trajectories in the shape ``record`` asks for
    (a particle that never walked keeps ``[start]``)."""
    if sink is None:
        return None
    traj = sink.trajectories(starts)
    return traj if record == "arrays" else traj.to_lists()


def _order_row(order: list, m: int) -> np.ndarray:
    """``order`` (the time-0 settlements) as the prefix of an ``m``-slot
    array a tick loop appends the rest to."""
    row = np.empty(m, dtype=np.int64)
    row[: len(order)] = order
    return row


def _skip_log_table(pool_size: int) -> np.ndarray:
    """``log1p(-(k / pool_size))`` for ``k = 0 .. pool_size-1``.

    The geometric-skip divisors of :func:`repro.core.uniform.uniform_idla`
    for every pool size ``k`` at which it skips (entry 0 is unused), as
    the compiled loop reads them: computed by numpy here, never by libm
    in C, and equal element for element to the serial driver's scalar
    ``float(np.log1p(-(k / pool_size)))`` (pinned by
    ``tests/test_kernels.py``).
    """
    return np.log1p(-(np.arange(pool_size) / pool_size))


# Each runner validates the options, runs every repetition's prelude,
# then each repetition's loop, and assembles the results.
def _parallel(
    g, gens, origin, kern, record, *, lazy=False, tie_break="index",
    num_particles=None, scalar_threshold=16, max_rounds=None,
):
    m, scalar_threshold, budget = _parallel_checks(
        g, num_particles, tie_break, scalar_threshold, max_rounds
    )
    starts, prio, occ, free, steps, settled, rounds = _parallel_prelude(
        g, origin, m, gens, tie_break
    )
    n, (indptr, indices) = g.n, csr_arrays(g)
    arange_m = np.arange(m, dtype=np.int64)
    best = np.full(n, -1, dtype=np.int64)  # each loop restores it
    traj = []
    for r, gen in enumerate(gens):
        act = np.flatnonzero(settled[r] < 0)
        sink = kern.event_sink(act.size) if record else None
        if act.size and free[r]:  # else surplus particles walk 0 steps
            kern.finish_parallel(
                indptr, indices, occ[r * n : (r + 1) * n], act, starts[r, act],
                arange_m if prio is None else prio[r], best, steps[r],
                settled[r], rounds[r], gen, free=int(free[r]), lazy=lazy,
                scalar_threshold=scalar_threshold, budget=budget,
                max_rounds=max_rounds, sink=sink,
            )
        traj.append(_trajectories(sink, starts[r], record))
    return _parallel_results(
        g, "parallel-lazy" if lazy else "parallel", starts, steps, settled,
        rounds, prio, traj,
    )


def _sequential(
    g, gens, origin, kern, record, *, lazy=False, num_particles=None,
    max_total_steps=None,
):
    m = _particle_count(g, num_particles, "sequential")
    budget = check_limit("max_total_steps", max_total_steps)
    limit_msg = f"sequential IDLA exceeded max_total_steps={max_total_steps}"
    starts, occ, steps, settled, walker = _sequential_prelude(g, origin, m, gens)
    n, (indptr, indices) = g.n, csr_arrays(g)
    traj = []
    for r, gen in enumerate(gens):
        w = int(walker[r])
        sink = kern.event_sink() if record else None
        if w < m:
            kern.finish_sequential(
                indptr, indices, occ[r * n : (r + 1) * n], starts[r],
                UniformStream(gen, block=_seq_mod._BLOCK), walker=w,
                pos=int(starts[r, w]), pstep=0, total=0, lazy=lazy,
                budget=budget, limit_msg=limit_msg, steps_row=steps[r],
                settled_row=settled[r], sink=sink,
            )
        traj.append(_trajectories(sink, starts[r], record))
    return _sequential_results(g, lazy, starts, steps, settled, traj)


def _c_sequential(g, gens, origin, kern, record, *, rate=1.0):
    check_positive_finite("rate", rate)
    return _poissonised(g, _sequential(g, gens, origin, kern, record), gens, rate)


def _uniform(g, gens, origin, kern, record, *, num_particles=None, max_ticks=None):
    m = _particle_count(g, num_particles, "uniform")
    budget = check_limit("max_ticks", max_ticks)
    limit_msg = f"uniform IDLA exceeded max_ticks={max_ticks}"
    starts, occ, pos, steps, settled, orders, pool, lanes, ks = _init_lanes(
        g, origin, m, gens
    )
    n, (indptr, indices) = g.n, csr_arrays(g)
    logq = _skip_log_table(max(m - 1, 1))
    k_of, ticks, traj = dict(zip(lanes, ks)), np.zeros(len(gens), np.int64), []
    for r, gen in enumerate(gens):
        sink = kern.event_sink() if record else None
        if r in k_of:
            row = slice(r * m, (r + 1) * m)
            norder, orders[r] = len(orders[r]), _order_row(orders[r], m)
            ticks[r] = kern.finish_uniform(
                indptr, indices, occ[r * n : (r + 1) * n], pool[row], pos[row],
                steps[row], settled[row], orders[r],
                UniformStream(gen, block=_uniform_mod._BLOCK), k=k_of[r],
                norder=norder, logq=logq, budget=budget, limit_msg=limit_msg,
                sink=sink,
            )
        traj.append(_trajectories(sink, starts[r], record))
    return _uniform_results(g, starts, steps, settled, orders, ticks, traj, None)


def _ctu(g, gens, origin, kern, record, *, rate=1.0, num_particles=None):
    m = _particle_count(g, num_particles, "CTU")
    check_positive_finite("rate", rate)
    starts, occ, pos, steps, settled, orders, pool, lanes, ks = _init_lanes(
        g, origin, m, gens
    )
    n, (indptr, indices) = g.n, csr_arrays(g)
    settle_clock = np.zeros(len(gens) * m, dtype=np.float64)
    k_of, clock, traj = dict(zip(lanes, ks)), np.zeros(len(gens)), []
    for r, gen in enumerate(gens):
        sink = kern.event_sink() if record else None
        if r in k_of:
            row = slice(r * m, (r + 1) * m)
            norder, orders[r] = len(orders[r]), _order_row(orders[r], m)
            clock[r] = kern.finish_ctu(
                indptr, indices, occ[r * n : (r + 1) * n], pool[row], pos[row],
                steps[row], settled[row], settle_clock[row], orders[r],
                UniformStream(gen, block=_ctu_mod._BLOCK), k=k_of[r],
                norder=norder, rate=rate, sink=sink,
            )
        traj.append(_trajectories(sink, starts[r], record))
    return _ctu_results(
        g, starts, steps, settled, orders, clock, settle_clock, traj
    )


_RUNNERS = {
    "parallel": _parallel,
    "sequential": _sequential,
    "c-sequential": _c_sequential,
    "uniform": _uniform,
    "ctu": _ctu,
}
