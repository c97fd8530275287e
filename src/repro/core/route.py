"""The per-repetition route: a whole shard of repetitions in one C call.

:func:`route_kernels` is the one gate.  It passes for a compiled kernel
provider (:mod:`repro.kernels`), host CSR arrays, the default settling
rule, Uniform-IDLA's default scheduler (``faithful_r=False``) and no
explicit ``tail_threshold``; the runner (``n_jobs=1``) and the fan-out
thread pool (``n_jobs > 1``) consult it, then call :func:`run_reps`.
Everything else keeps the lock-step drivers of :mod:`repro.core.batched`
and :mod:`repro.core.batched_continuous`, or the serial oracles.

:func:`run_reps` runs a shard in three steps, each once for the whole
shard.  The prelude builds every repetition's rows as ``(R, m)`` arrays
in numpy: the starts (a vertex origin in one fill; ``"uniform"`` and
explicit origins repetition by repetition, in order, since they may
draw), Parallel-IDLA's tie-break permutations, then the round-0
settlement pass, the release chain or the time-0 settlement of every
repetition at once.  Then one ``CompiledKernels.finish_*`` call runs
every repetition to completion (plus one per "sink full" re-entry; none
when no repetition walks).  Sequential-IDLA's loop (and
so c-sequential's) keeps ``REPRO_LANES`` repetitions in flight, so the
CPU overlaps their dependent steps; the others run the repetitions one
after another.  Every loop draws each double inside C, in the serial
driver's order.  CTU-IDLA and Uniform-IDLA run one jump chain, two
doubles a tick; then the holding layer, also in C, brings each
repetition's generator to the serial driver's block grid (the module's
``_BLOCK``: a PCG64 jumps its LCG, any other bit generator draws and
discards) and draws the clocks per level (CTU's Gamma times, Uniform's
negative-binomial wasted ticks), as c-sequential draws its Gamma
durations after Sequential-IDLA's loop, each with numpy's own sampler,
so every generator ends where the serial driver leaves it.  Where no
repetition draws in Python (a vertex origin, Parallel-IDLA's index
tie-break) and the seeds are a :class:`~repro.utils.rng.SpawnRange` of
a default-pool parent, as the runner hands them out, C seeds each
repetition's PCG64 state from its child and steps it inline: no
``SeedSequence`` or ``Generator`` is built.  Otherwise each repetition
gets its numpy ``Generator``; C steps a ``PCG64`` inline all the same,
storing its state back, and calls any other bit generator through its
``bitgen_t``.  Last, the results are assembled with one reduction per
statistic over the shard, bit-identical to the serial oracle, into one
:class:`~repro.core.results.ShardResults` of columns: the runner reads
its samples from them, and a repetition's
:class:`~repro.core.results.DispersionResult` is built only when asked
for.
The preludes and result helpers live here and the lock-step drivers
import them from this module, so a route estimate never imports a
lock-step engine.
``record`` hands each repetition an event sink
(:meth:`~repro.kernels.CompiledKernels.event_sink`), whose events become
the repetition's :class:`~repro.core.results.TrajectoryArrays` as is.
A ``state_budget`` is ignored: the route keeps no stream buffers or
round transients, only the result rows and the occupancy.
"""

from __future__ import annotations

import numpy as np

from repro.core import continuous as _ctu_mod
from repro.core import sequential as _seq_mod
from repro.core import uniform as _uniform_mod
from repro.core.origins import resolve_origins
from repro.core.results import ShardResults
from repro.core.settlement import instant_settle_chain, select_settlers
from repro.core.stopping_rules import standard_rule
from repro.kernels import KernelsUnavailableError, csr_arrays, get_kernels
from repro.utils.rng import SpawnRange, as_generator
from repro.utils.validation import (
    check_integer,
    check_limit,
    check_positive_finite,
    check_record,
)

__all__ = ["route_kernels", "run_reps"]

#: Options the gate passes only at values the route needs no code for.
_GATED = ("rule", "faithful_r", "tail_threshold", "state_budget")


def route_kernels(process: str, g, kwargs: dict):
    """The compiled provider that runs every repetition of this request
    in its compiled loop, or ``None``.

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
) -> ShardResults:
    """One repetition per seed/generator in ``gens`` (a sequence, or a
    :class:`~repro.utils.rng.SpawnRange` of children), each run to
    completion in C; entry ``r`` is bit-identical to the serial driver's
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
    seeds = None
    if isinstance(gens, SpawnRange) and not _draws_in_python(process, origin, opts):
        # no row draws outside C: each starts from its child's PCG64
        # state, seeded in C, and no SeedSequence or Generator is built
        seeds = kern.pcg64_seeds(gens)
    if seeds is None:
        gens = [as_generator(s) for s in gens]
    else:
        gens = [None] * len(gens)
    return _RUNNERS[process](g, gens, seeds, origin, kern, record, **opts)


def _draws_in_python(process: str, origin, opts) -> bool:
    """Whether a repetition draws from its generator outside C: a random
    or explicit origin, and Parallel-IDLA's random tie-break."""
    return not _vertex_origin(origin) or (
        process == "parallel" and opts.get("tie_break", "index") != "index"
    )


def _sinks(kern, record: bool, starts, *, opened=True, counts=None):
    """One event sink per repetition when recording (else ``None``),
    each holding at least ``counts[r]`` events per buffer (Parallel-IDLA:
    one round).  A loop that runs the repetitions one after another
    takes them unopened: each opens on its repetition's first event."""
    if not record:
        return None
    counts = [1] * len(starts) if counts is None else counts
    return [kern.event_sink(row, c, opened=opened) for row, c in zip(starts, counts)]


def _trajectories(sinks):
    """Each repetition's trajectories, ``None`` when the run did not
    record; the sinks of a loop that never ran hold only the starts."""
    if sinks is None:
        return None
    return [s.close() if s.trajectories is None else s.trajectories for s in sinks]


# ----------------------------------------------------------------------
# Preludes and result assembly, shared with the lock-step drivers of
# repro.core.batched and repro.core.batched_continuous
# ----------------------------------------------------------------------
def _particle_count(g, num_particles, label: str) -> int:
    """Validated particle count ``m`` of a process that needs ``m <= n``."""
    m = g.n if num_particles is None else check_integer("num_particles", num_particles)
    if not 1 <= m <= g.n:
        raise ValueError(
            f"{label} IDLA needs 1 <= num_particles <= n, got {m} (n={g.n})"
        )
    return m


def _vertex_origin(origin) -> bool:
    """``origin`` names one start vertex for every particle."""
    return not isinstance(origin, str) and np.isscalar(origin)


def _resolve_starts(g, origin, m, gens) -> np.ndarray:
    """Each repetition's start vertices, ``(R, m)``.  A vertex origin
    fills them in one operation; ``"uniform"`` and explicit origins are
    resolved one repetition at a time, in order, since they may draw."""
    R = len(gens)
    if R and _vertex_origin(origin):
        return np.full((R, m), resolve_origins(g, origin, 1, None)[0])
    starts2d = np.empty((R, m), dtype=np.int64)
    for r, gen in enumerate(gens):
        starts2d[r] = resolve_origins(g, origin, m, gen)
    return starts2d


def _time0(origin, starts2d, n, prio2d=None):
    """The time-0 settlement of every repetition in one numpy pass: per
    (repetition, start vertex) cell the particle of smallest priority
    (``None``: its index) settles there.

    Returns the occupancy (``R * n``) and the ``(R, m)`` mask of the
    particles that settled."""
    R, m = starts2d.shape
    occ = np.zeros(R * n, dtype=bool)
    first = np.zeros((R, m), dtype=bool)
    if _vertex_origin(origin):
        # one shared start: particle 0, first under either tie-break
        first[:, 0] = True
        occ[np.arange(R) * n + starts2d[:, 0]] = True
        return occ, first
    cells = (np.arange(R, dtype=np.int64)[:, None] * n + starts2d).reshape(-1)
    if prio2d is None:  # the first particle on each cell
        winners = np.unique(cells, return_index=True)[1]
    else:
        winners = select_settlers(cells, prio2d.reshape(-1))
    first.reshape(-1)[winners] = True
    occ[cells[winners]] = True
    return occ, first


def _parallel_checks(g, num_particles, tie_break, scalar_threshold, max_rounds):
    """Validated ``(m, scalar_threshold, budget)`` of a Parallel-IDLA batch."""
    m = g.n if num_particles is None else check_integer("num_particles", num_particles)
    if m < 1:
        raise ValueError(f"num_particles must be >= 1, got {m}")
    if tie_break not in ("index", "random"):
        raise ValueError(f"tie_break must be 'index' or 'random', got {tie_break!r}")
    scalar_threshold = check_integer("scalar_threshold", scalar_threshold)
    return m, scalar_threshold, check_limit("max_rounds", max_rounds)


def _parallel_prelude(g, origin, m, gens, tie_break):
    """Each repetition's initial draws, in the serial driver's order,
    then the round-0 settlement pass of every repetition at once.

    Returns ``(starts2d, prio2d, occ, free, steps2d, settled2d,
    round2d)``.  With the default "index" tie-break the priority of
    particle p is p itself, so ``prio2d`` is ``None``.
    """
    starts2d = _resolve_starts(g, origin, m, gens)
    R = len(gens)
    prio2d = None
    if tie_break != "index":
        prio2d = np.empty((R, m), dtype=np.int64)
        # σ(1) = 1 as in the serial driver: particle 0 keeps top priority
        prio2d[:, 0] = 0
        for r, gen in enumerate(gens):
            prio2d[r, 1:] = 1 + gen.permutation(m - 1)
    occ, first = _time0(origin, starts2d, g.n, prio2d)
    settled2d = np.where(first, starts2d, -1)
    round2d = np.full((R, m), -1, dtype=np.int64)
    round2d[first] = 0
    free = g.n - np.count_nonzero(first, axis=1)
    steps2d = np.zeros((R, m), dtype=np.int64)
    return starts2d, prio2d, occ, free, steps2d, settled2d, round2d


def _parallel_results(
    g, process, starts2d, steps2d, settled2d, round2d, prio2d, traj_all
) -> ShardResults:
    """Assemble the per-repetition results of a batched parallel run;
    the settle order is the serial ``(round, priority)`` order, from one
    argsort of every row's ``round * m + priority`` (priorities are
    distinct, so the keys are; unsettled particles sort last)."""
    m = steps2d.shape[1]
    settled = settled2d >= 0
    key = round2d * m
    key += np.arange(m) if prio2d is None else prio2d
    key[~settled] = np.iinfo(np.int64).max
    ranked = np.argsort(key, axis=1)
    orders = [row[:c] for row, c in zip(ranked, np.count_nonzero(settled, axis=1))]
    return _results(
        g, process, starts2d[:, 0], steps2d, settled2d, orders, traj_all,
        dispersion=steps2d.max(axis=1, where=settled, initial=0),
    )


def _results(
    g, process, origins, steps2d, settled2d, orders, traj_all, *,
    dispersion=None, ticks=None, **extras,
) -> ShardResults:
    """The shard's :class:`ShardResults` from ``origins[r]``, ``orders[r]``
    (an int64 array or row) and row ``r`` of the ``(R, m)`` arrays.

    The totals and (unless ``dispersion`` gives them) the dispersion
    times, each repetition's longest walk, come from one reduction each;
    ``ticks``, when given, holds one value per repetition, and row ``r``
    of each of ``extras`` is attached to result ``r`` as that attribute."""
    R, m = steps2d.shape
    if dispersion is None:
        dispersion = steps2d.max(axis=1)
    if ticks is not None:
        ticks = np.asarray(ticks, dtype=float)
    return ShardResults(
        process, g.name, g.n, None if m == g.n else m, origins, dispersion,
        steps2d.sum(axis=1), steps2d, settled2d, orders, ticks, traj_all,
        extras,
    )


def _sequential_prelude(g, origin, m, gens):
    """Each repetition's starts, then its release chain from particle 0
    (vacant starts settle instantly).

    Returns ``(starts2d, occ, steps2d, settled2d, walker)``, where
    ``walker[r]`` is repetition ``r``'s first walking particle, ``m``
    when every particle settled at its start.
    """
    n, R = g.n, len(gens)
    starts2d = _resolve_starts(g, origin, m, gens)
    steps2d = np.zeros((R, m), dtype=np.int64)
    if _vertex_origin(origin):
        # particle 0 settles on the shared start, and particle 1 walks
        # (or, with m = 1, none is left)
        occ, first = _time0(origin, starts2d, n)
        settled2d = np.where(first, starts2d, -1)
        return starts2d, occ, steps2d, settled2d, np.ones(R, dtype=np.int64)
    occ = np.zeros(R * n, dtype=bool)
    settled2d = np.full((R, m), -1, dtype=np.int64)
    walker = np.empty(R, dtype=np.int64)
    for r in range(R):
        walker[r] = instant_settle_chain(
            occ[r * n : (r + 1) * n], starts2d[r], 0, steps2d[r], settled2d[r]
        )
    return starts2d, occ, steps2d, settled2d, walker


def _index_orders(R: int, m: int) -> np.ndarray:
    """``R`` rows of the settle order ``0 .. m-1``."""
    return np.tile(np.arange(m, dtype=np.int64), (R, 1))


def _sequential_results(
    g, lazy, starts2d, steps2d, settled2d, traj_all
) -> ShardResults:
    """Assemble the per-repetition results of a batched sequential run;
    particles settle in index order."""
    R, m = steps2d.shape
    return _results(
        g, "sequential-lazy" if lazy else "sequential", starts2d[:, 0],
        steps2d, settled2d, _index_orders(R, m), traj_all,
    )


def _uniform_results(
    g, starts2d, steps2d, settled2d, orders, final_ticks, traj_all, schedules
) -> ShardResults:
    """Per-repetition result assembly of the Uniform-IDLA drivers, from
    ``(R, m)`` rows."""
    extras = {} if schedules is None else {"schedule": schedules}
    return _results(
        g, "uniform", starts2d[:, 0], steps2d, settled2d, orders, traj_all,
        ticks=final_ticks, **extras,
    )


def _ctu_results(
    g, starts2d, steps2d, settled2d, orders, final_clock, settle_clock, traj_all
) -> ShardResults:
    """Per-repetition result assembly of the CTU-IDLA drivers, from
    ``(R, m)`` rows."""
    return _results(
        g, "ctu", starts2d[:, 0], steps2d, settled2d, orders, traj_all,
        dispersion=final_clock, ticks=final_clock, settle_clock=settle_clock,
    )


def _poissonised(g, origins, steps2d, settled2d, traj_all, durations) -> ShardResults:
    """c-sequential results from Sequential-IDLA rows and each
    repetition's ``Gamma(ρ_i, 1/rate)`` durations."""
    longest = durations.max(axis=1)
    R, m = steps2d.shape
    return _results(
        g, "c-sequential", origins, steps2d, settled2d, _index_orders(R, m),
        traj_all, dispersion=longest, ticks=longest, durations=durations,
    )


# ----------------------------------------------------------------------
# The route's runners
# ----------------------------------------------------------------------
# Each runner validates the options, builds the shard's rows, runs its
# loop once for the whole shard and assembles the results.
def _parallel(
    g, gens, seeds, origin, kern, record, *, lazy=False, tie_break="index",
    num_particles=None, scalar_threshold=16, max_rounds=None,
):
    m, scalar_threshold, budget = _parallel_checks(
        g, num_particles, tie_break, scalar_threshold, max_rounds
    )
    starts, prio, occ, free, steps, settled, rounds = _parallel_prelude(
        g, origin, m, gens, tie_break
    )
    k = np.count_nonzero(settled < 0, axis=1)
    sinks = _sinks(kern, record, starts, opened=False, counts=k.tolist())
    if ((k > 0) & (free > 0)).any():  # else surplus particles walk 0 steps
        kern.finish_parallel(
            *csr_arrays(g), occ, *_active_rows(starts, settled), prio, steps,
            settled, rounds, gens,
            k=k, free=free, lazy=lazy, scalar_threshold=scalar_threshold,
            budget=budget, max_rounds=max_rounds, sinks=sinks, seeds=seeds,
        )
    return _parallel_results(
        g, "parallel-lazy" if lazy else "parallel", starts, steps, settled,
        rounds, prio, _trajectories(sinks),
    )


def _active_rows(starts, settled):
    """Each row's unsettled particles first, ascending, and the rows of
    their start vertices: the active lists a round loop starts from."""
    act = np.argsort(settled >= 0, axis=1, kind="stable")
    return act, np.take_along_axis(starts, act, axis=1)


def _walk_sequential(
    g, gens, seeds, origin, kern, record, *, lazy=False, num_particles=None,
    max_total_steps=None, rate=None,
):
    """Sequential-IDLA's walks: ``(starts, steps, settled, traj,
    durations)``; with a ``rate``, each repetition's c-sequential
    durations, drawn in C after its walk (else ``None``)."""
    m = _particle_count(g, num_particles, "sequential")
    budget = check_limit("max_total_steps", max_total_steps)
    limit_msg = f"sequential IDLA exceeded max_total_steps={max_total_steps}"
    starts, occ, steps, settled, walker = _sequential_prelude(g, origin, m, gens)
    sinks = _sinks(kern, record, starts)
    total = kern.finish_sequential(
        *csr_arrays(g), occ, starts, gens, walker=walker, lazy=lazy,
        budget=budget, limit_msg=limit_msg, steps=steps, settled=settled,
        sinks=sinks, seeds=seeds,
    )
    durations = None
    if rate is not None:
        durations = np.zeros(steps.shape)
        block = _seq_mod._BLOCK
        # the serial driver fetches its first block before it walks
        skip = np.where(total > 0, -total % block, block)
        kern.draw_durations(
            gens, steps, durations, rate=rate, skip=skip, seeds=seeds
        )
    return starts, steps, settled, _trajectories(sinks), durations


def _sequential(g, gens, seeds, origin, kern, record, *, lazy=False, **opts):
    starts, steps, settled, traj, _ = _walk_sequential(
        g, gens, seeds, origin, kern, record, lazy=lazy, **opts
    )
    return _sequential_results(g, lazy, starts, steps, settled, traj)


def _c_sequential(g, gens, seeds, origin, kern, record, *, rate=1.0):
    check_positive_finite("rate", rate)
    starts, steps, settled, traj, durations = _walk_sequential(
        g, gens, seeds, origin, kern, record, rate=rate
    )
    return _poissonised(g, starts[:, 0], steps, settled, traj, durations)


def _tick_prelude(g, origin, m, gens):
    """The tick processes' rows at time 0, each ``(R, m)``: the starts,
    the vertices, the steps, the settlements, each settle order so far
    (the time-0 settlers ascending, then room for the rest) and each
    pool (the unsettled particles ascending); with the occupancy and the
    pool sizes."""
    starts = _resolve_starts(g, origin, m, gens)
    occ, first = _time0(origin, starts, g.n)
    return (
        starts, occ, starts.copy(), np.zeros_like(starts),
        np.where(first, starts, -1), np.argsort(~first, axis=1, kind="stable"),
        np.argsort(first, axis=1, kind="stable"),
        m - np.count_nonzero(first, axis=1),
    )


def _uniform(
    g, gens, seeds, origin, kern, record, *, num_particles=None, max_ticks=None
):
    m = _particle_count(g, num_particles, "uniform")
    budget = check_limit("max_ticks", max_ticks)
    starts, occ, pos, steps, settled, order, pool, k = _tick_prelude(
        g, origin, m, gens
    )
    sinks = _sinks(kern, record, starts, opened=False)
    ticks = np.zeros(len(gens), dtype=np.int64)
    if k.any():
        ticks = kern.finish_uniform(
            *csr_arrays(g), occ, pool, pos, steps, settled, order, gens, k=k,
            norder=m - k, budget=budget,
            limit_msg=f"uniform IDLA exceeded max_ticks={max_ticks}",
            block=_uniform_mod._BLOCK, sinks=sinks, seeds=seeds,
        )
    return _uniform_results(
        g, starts, steps, settled, order, ticks, _trajectories(sinks), None
    )


def _ctu(g, gens, seeds, origin, kern, record, *, rate=1.0, num_particles=None):
    m = _particle_count(g, num_particles, "CTU")
    check_positive_finite("rate", rate)
    starts, occ, pos, steps, settled, order, pool, k = _tick_prelude(
        g, origin, m, gens
    )
    sinks = _sinks(kern, record, starts, opened=False)
    settle_clock = np.zeros(starts.shape)
    clock = np.zeros(len(gens))
    if k.any():
        clock = kern.finish_ctu(
            *csr_arrays(g), occ, pool, pos, steps, settled, settle_clock,
            order, gens, k=k, norder=m - k, rate=rate, block=_ctu_mod._BLOCK,
            sinks=sinks, seeds=seeds,
        )
    return _ctu_results(
        g, starts, steps, settled, order, clock, settle_clock,
        _trajectories(sinks),
    )


_RUNNERS = {
    "parallel": _parallel,
    "sequential": _sequential,
    "c-sequential": _c_sequential,
    "uniform": _uniform,
    "ctu": _ctu,
}
