"""Monte-Carlo execution: repeated dispersion runs with independent seeds.

The runner is the single entry point benches and examples use to estimate
``E[τ]``.  Repetitions receive independent child generators via
``SeedSequence.spawn`` (never a shared stream), so results are identical
across the execution modes:

* **route** (the default whenever a compiled kernel provider is present)
  — each shard of repetitions runs in one compiled call on the
  per-repetition route of :mod:`repro.core.route`;
* **lock-step** (the numpy provider, implicit graphs and the options the
  route turns away, at sufficient repetition counts) — all repetitions
  advance in lock-step through the drivers in :mod:`repro.core.batched`
  (synchronous processes) and :mod:`repro.core.batched_continuous`
  (tick-scheduled processes), imported on first use
  (``BATCHED_DRIVERS``);
* **serial** — one repetition at a time through the classic drivers; the
  reference oracle the other modes are bit-identical to;
* **fan-out** (``n_jobs > 1``) — contiguous repetition *shards* run
  through the batched drivers where profitable (see
  :mod:`repro.experiments.fanout`); batching × workers compose.  On the
  per-repetition compiled route (:mod:`repro.core.route`) the shards
  run on threads sharing the graph; otherwise the CSR arrays are
  exported once into
  ``multiprocessing.shared_memory`` and the shards run on a process
  pool, with implicit families (:mod:`repro.graphs.implicit`) shipped
  as a tiny ``(family, params)`` descriptor instead of a memory segment.

Because the batched drivers replay the serial uniform streams double for
double and repetition ``r`` always consumes child ``r`` of one parent
``SeedSequence``, the estimates are *bit-identical* whichever mode runs —
dispatch is purely a performance decision (see ``_shard_outcomes``).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.continuous import continuous_sequential_idla, ctu_idla
from repro.core.parallel import parallel_idla
from repro.core.results import DispersionResult, TrajectoryArrays
from repro.core.route import route_kernels, run_reps
from repro.core.sequential import sequential_idla
from repro.core.stopping_rules import DelayedRule, HairRule, StoppingRule
from repro.core.uniform import uniform_idla
from repro.experiments.stats import SummaryStats, summarize
from repro.graphs.csr import Graph
from repro.kernels import check_kernels
from repro.utils.rng import SeedChildren, stable_seed
from repro.utils.validation import check_integer, check_limit, check_record

if TYPE_CHECKING:
    from repro.core.anytime import AdaptiveInfo, Precision

__all__ = [
    "PROCESS_DRIVERS",
    "BATCHED_DRIVERS",
    "LAZY_PROCESSES",
    "driver_kwargs",
    "run_process",
    "DispersionEstimate",
    "estimate_dispersion",
]

#: Name -> driver mapping used throughout benches and examples.
PROCESS_DRIVERS: dict[str, Callable[..., DispersionResult]] = {
    "sequential": sequential_idla,
    "parallel": parallel_idla,
    "uniform": uniform_idla,
    "ctu": ctu_idla,
    "c-sequential": continuous_sequential_idla,
}


def _batched_drivers() -> dict[str, Callable[..., list[DispersionResult]]]:
    """``BATCHED_DRIVERS``: name -> lock-step driver, one per process.

    The lock-step modules are imported on the first call (an estimate on
    the per-repetition route never needs them) and the dict is kept as
    the module attribute, so the lock-step branch, ``runner.BATCHED_DRIVERS``
    and anything that patches it share one registry.
    """
    drivers = globals().get("BATCHED_DRIVERS")
    if drivers is None:
        from repro.core.batched import batched_parallel_idla, batched_sequential_idla
        from repro.core.batched_continuous import (
            batched_continuous_sequential_idla,
            batched_ctu_idla,
            batched_uniform_idla,
        )

        drivers = globals()["BATCHED_DRIVERS"] = {
            "sequential": batched_sequential_idla,
            "parallel": batched_parallel_idla,
            "uniform": batched_uniform_idla,
            "ctu": batched_ctu_idla,
            "c-sequential": batched_continuous_sequential_idla,
        }
    return drivers


def __getattr__(name: str):
    if name == "BATCHED_DRIVERS":
        return _batched_drivers()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Processes whose drivers accept ``lazy=True`` (the tick-scheduled
#: processes schedule one particle per tick and have no lazy variant).
#: The CLI validates ``--lazy`` against this before building a graph.
LAZY_PROCESSES = frozenset({"sequential", "parallel"})

#: Keyword arguments each batched driver understands; anything else (an
#: unknown kwarg, or an impure settling rule) routes the estimate through
#: the serial oracle.  ``record=True`` and ``faithful_r=True`` — the last
#: modes that used to force the serial fallback — now batch through the
#: chunked trajectory store of :mod:`repro.core.trajectory`.
_BATCHED_KWARGS = {
    "parallel": {
        "lazy",
        "record",
        "tie_break",
        "rule",
        "num_particles",
        "max_rounds",
        "tail_threshold",
        "state_budget",
        "kernels",
    },
    "sequential": {
        "lazy",
        "record",
        "rule",
        "num_particles",
        "max_total_steps",
        "tail_threshold",
        "state_budget",
        "kernels",
    },
    "uniform": {
        "record",
        "faithful_r",
        "num_particles",
        "max_ticks",
        "state_budget",
        "kernels",
    },
    "ctu": {"rate", "record", "num_particles", "state_budget", "kernels"},
    "c-sequential": {"rate", "record", "state_budget", "kernels"},
}

#: Batched-only performance knobs: understood by (some of) the lock-step
#: drivers but meaningless to the serial oracles, so the serial paths
#: strip them (for processes whose batched driver accepts them) instead
#: of crashing the fallback.  Pure performance knobs — stripping never
#: changes a sample.  ``state_budget`` qualifies because the serial
#: drivers are inherently one-repetition-resident: running them *is* the
#: tightest cohort a budget could ask for.  ``kernels`` qualifies
#: because the compiled providers are pinned bit-identical to the serial
#: loops, so the serial path already is the kernel-independent answer.
_BATCHED_ONLY_KWARGS = frozenset({"tail_threshold", "state_budget", "kernels"})


def serial_kwargs(process: str, kwargs: dict) -> dict:
    """Driver kwargs for a serial run: drop batched-only perf knobs.

    Only knobs the process's batched driver actually understands are
    dropped — an unknown kwarg for this process still reaches the serial
    driver and raises there, exactly as before.
    """
    allowed = _BATCHED_KWARGS.get(process, frozenset())
    drop = _BATCHED_ONLY_KWARGS & allowed & set(kwargs)
    if not drop:
        return kwargs
    return {k: v for k, v in kwargs.items() if k not in drop}


_DRIVER_KWARGS_CACHE: dict[str, frozenset[str]] = {}


def driver_kwargs(process: str) -> frozenset[str]:
    """Every keyword ``estimate_dispersion`` accepts for one process.

    Derived from the registry, not hand-maintained: the keyword-only
    parameters of ``PROCESS_DRIVERS[process]``'s signature (minus
    ``seed``, which the runner owns) plus the process's batched-only
    performance knobs from ``_BATCHED_KWARGS``.  Registering a new
    driver or adding a driver parameter updates the accepted surface
    automatically.
    """
    cached = _DRIVER_KWARGS_CACHE.get(process)
    if cached is not None:
        return cached
    try:
        driver = PROCESS_DRIVERS[process]
    except KeyError:
        raise KeyError(
            f"unknown process {process!r}; available: {sorted(PROCESS_DRIVERS)}"
        ) from None
    params = inspect.signature(driver).parameters
    accepted = {
        name
        for name, p in params.items()
        if p.kind is inspect.Parameter.KEYWORD_ONLY and name != "seed"
    }
    accepted |= _BATCHED_KWARGS.get(process, set())
    result = frozenset(accepted)
    _DRIVER_KWARGS_CACHE[process] = result
    return result


#: The step/tick/round caps, checked before any repetition runs.
_CAPS = frozenset({"max_total_steps", "max_ticks", "max_rounds"})


def _validate_driver_kwargs(process: str, kwargs: dict) -> None:
    """Reject unknown driver kwargs up front, naming the accepted options.

    Unknown keys used to flow through ``**kwargs`` all the way into the
    driver (or silently force the serial fallback first); now they fail
    fast — before graph export, pool spawn or any repetition runs — with
    the process's actual option surface in the message.
    """
    unknown = sorted(set(kwargs) - driver_kwargs(process))
    if unknown:
        raise TypeError(
            f"unknown driver kwarg(s) {', '.join(map(repr, unknown))} for "
            f"process {process!r}; accepted options: "
            f"{', '.join(sorted(driver_kwargs(process)))}"
        )

#: Below these repetition counts the serial drivers' tuned scalar loops
#: win; at or above them numpy lock-step batching amortises enough
#: dispatch overhead to pay off.  The tick-scheduled processes (uniform,
#: ctu, c-sequential) batch one walking particle per repetition, so their
#: crossovers sit far above parallel's repetitions × particles width.
#: The numbers are only the crossovers of the lock-step bodies: whatever
#: passes :func:`~repro.core.route.route_kernels` runs each shard in one
#: compiled call at any count, ahead of this threshold.
_BATCHED_MIN_REPS = {
    "parallel": 4,
    "sequential": 64,
    "uniform": 16,
    "ctu": 16,
    "c-sequential": 64,
}

#: Settling-rule types known to be pure (stateless) predicates.  The
#: batched drivers evaluate rules on far fewer (particle, vertex) pairs
#: than the serial ones — identical outcomes only for pure rules — so
#: auto dispatch refuses to batch anything it cannot vouch for.
#: ``batched=True`` is the escape hatch: it trusts the caller's rule to
#: be pure (the batched drivers document that requirement).
_PURE_RULE_TYPES = (StoppingRule, HairRule, DelayedRule)


def _validate_forced_batched(process: str, kwargs) -> None:
    """Raise if ``batched=True`` cannot be honoured for this request."""
    if process not in _BATCHED_KWARGS:
        raise ValueError(f"no batched driver for process {process!r}")
    if not set(kwargs) <= _BATCHED_KWARGS[process]:
        unsupported = sorted(set(kwargs) - _BATCHED_KWARGS[process])
        raise ValueError(
            f"kwargs {unsupported} not supported by the batched "
            f"{process} driver; pass batched=False"
        )


def _use_batched(process: str, reps: int, kwargs, batched) -> bool:
    """Whether a block of ``reps`` repetitions that the per-repetition
    route turned away runs the lock-step driver (else the serial oracle).

    There is no memory criterion: the streaming uniform buffers of
    :mod:`repro.core.batched` bound their allocation by construction, and
    a ``state_budget`` has already cut the block into cohorts.
    """
    if batched is False:
        return False
    if batched is True:
        _validate_forced_batched(process, kwargs)
        return True
    # batched="auto": purely a performance heuristic — results are
    # bit-identical either way
    if not set(kwargs) <= _BATCHED_KWARGS[process]:
        return False
    rule = kwargs.get("rule")
    if rule is not None and type(rule) not in _PURE_RULE_TYPES:
        return False
    return reps >= _BATCHED_MIN_REPS[process]


def run_process(
    process: str, g: Graph, origin: int = 0, seed=None, **kwargs
) -> DispersionResult:
    """Run a named process once (thin dispatcher over the drivers)."""
    try:
        driver = PROCESS_DRIVERS[process]
    except KeyError:
        raise KeyError(
            f"unknown process {process!r}; available: {sorted(PROCESS_DRIVERS)}"
        ) from None
    return driver(g, origin, seed=seed, **kwargs)


@dataclass(frozen=True)
class DispersionEstimate:
    """Samples + summary for one (graph, process, origin) configuration.

    ``trajectories`` (with ``record=True``) holds one
    :class:`~repro.core.results.TrajectoryArrays` per repetition —
    repetition ``r``'s per-particle vertex sequences, exactly
    ``run_process(..., record=True).trajectories`` — and
    ``schedules`` (Uniform-IDLA with ``faithful_r=True``) one realised
    schedule array per repetition.  Both are per-repetition lists in
    ``SeedSequence``-child order, identical across serial / batched /
    fan-out execution.

    ``adaptive`` (``precision=``-driven estimates only) records the
    rounds consumed, the achieved anytime half-width and what stopped
    the run — see :class:`repro.core.anytime.AdaptiveInfo`.
    """

    process: str
    graph_name: str
    n: int
    origin: int
    dispersion: SummaryStats
    total_steps: SummaryStats
    samples: np.ndarray
    total_samples: np.ndarray
    trajectories: list[TrajectoryArrays] | None = None
    schedules: list[np.ndarray] | None = None
    adaptive: AdaptiveInfo | None = None

    def format(self) -> str:
        line = (
            f"{self.process:>12} on {self.graph_name:<16} "
            f"E[τ] = {self.dispersion.format()}"
        )
        if self.adaptive is not None:
            line += f"\n{'':>12}    adaptive: {self.adaptive.format()}"
        return line


def outcome_of(res: DispersionResult) -> tuple[float, int, object, object]:
    """Per-repetition payload every execution mode returns to the runner.

    ``(dispersion_time, total_steps, trajectories, schedule)`` — the two
    trailing entries are ``None`` unless the run recorded them; shard
    workers ship the same shape back across the process boundary, so
    repetition payloads concatenate identically in every mode.
    """
    return (
        float(res.dispersion_time),
        int(res.total_steps),
        res.trajectories,
        getattr(res, "schedule", None),
    )


def shard_outcomes(shard) -> list[tuple[float, int, object, object]]:
    """:func:`outcome_of` of every repetition of a
    :class:`~repro.core.results.ShardResults`, read from its columns
    without building a result."""
    R = len(shard)
    return list(zip(
        shard.samples.tolist(),
        shard.total_samples.tolist(),
        shard.trajectories or [None] * R,
        shard.schedules or [None] * R,
    ))


def _one_run(args) -> tuple[float, int, object, object]:
    process, g, origin, seed, kwargs = args
    res = run_process(process, g, origin, seed=seed, **kwargs)
    return outcome_of(res)


def _budget_cohort(g: Graph, process: str, kwargs: dict) -> int | None:
    """Repetitions per ``state_budget`` cohort (``None`` without a
    budget), as :func:`repro.core.budget.plan_state` sizes them."""
    budget = kwargs.get("state_budget")
    if budget is None:
        return None
    from repro.core.budget import plan_state

    m = kwargs.get("num_particles")
    return plan_state(budget, process, g.n, g.n if m is None else int(m)).cohort_reps


def _shard_outcomes(
    g: Graph, process: str, origin: int, children, kwargs: dict, batched
) -> list[tuple[float, int, object, object]]:
    """Run one contiguous block of repetitions in this thread.

    The body of ``n_jobs=1``, of each fan-out thread and of each worker
    process.  A ``state_budget`` (with ``batched`` not ``False``) cuts
    the block into cohorts of :func:`_budget_cohort` repetitions, run one
    after another: each cohort is dispatched on its own and turned into
    outcomes before the next starts, so no cohort's rows or results
    outlive it.  Cohort boundaries never touch a sample, since repetition
    ``r`` consumes child ``r`` however the block is cut.
    """
    cohort = None if batched is False else _budget_cohort(g, process, kwargs)
    if cohort is None or cohort >= len(children):
        return _cohort_outcomes(g, process, origin, children, kwargs, batched)
    from repro.core.budget import cohort_slices

    return [
        outcome
        for start, stop in cohort_slices(len(children), cohort)
        for outcome in _cohort_outcomes(
            g, process, origin, children[start:stop], kwargs, batched
        )
    ]


def _cohort_outcomes(
    g: Graph, process: str, origin: int, children, kwargs: dict, batched
) -> list[tuple[float, int, object, object]]:
    """One cohort's outcomes: the per-repetition route when
    :func:`~repro.core.route.route_kernels` passes (and ``batched`` is
    not ``False``), else the lock-step driver where :func:`_use_batched`
    picks it for this cohort's repetition count, else the serial oracle,
    one child of ``children`` per repetition."""
    kern = None if batched is False else route_kernels(process, g, kwargs)
    if kern is not None:
        return shard_outcomes(
            run_reps(process, g, children, origin, **{**kwargs, "kernels": kern})
        )
    if _use_batched(process, len(children), kwargs, batched):
        batch = _batched_drivers()[process](
            g, origin, seeds=list(children), **kwargs
        )
        return [outcome_of(r) for r in batch]
    skwargs = serial_kwargs(process, kwargs)
    return [_one_run((process, g, origin, s, skwargs)) for s in children]


def _round_outcomes(
    g: Graph,
    process: str,
    origin: int,
    children,
    n_jobs: int,
    batched,
    kwargs: dict,
    max_shard: int | None = None,
) -> list[tuple[float, int, object, object]]:
    """Run one contiguous block of repetitions through the best dispatch.

    The single dispatch point both the fixed-``reps`` path and every
    adaptive round go through: fan-out when more than one worker is
    useful, else :func:`_shard_outcomes` in this thread.  ``children``
    are consecutive children of one parent ``SeedSequence``; since
    repetition ``r``'s stream depends only on child ``r`` (never on how
    the block is grouped), the outcomes are bit-identical whichever
    branch runs.  ``max_shard`` is the adaptive loop's cost-weighted
    shard ceiling (see ``estimate_dispersion``).

    Every shard cuts its own ``state_budget`` cohorts
    (:func:`_shard_outcomes`).  Fan-out shards are additionally capped at
    a whole number of cohorts
    (:func:`repro.experiments.fanout.budget_aligned_shard`), so no shard
    ends on a fractional cohort that would re-pay the cohort setup for a
    sliver of repetitions.  Purely a scheduling decision — shard
    boundaries never touch a sample.
    """
    reps = len(children)
    jobs = min(n_jobs, reps)
    if jobs > 1:
        from repro.experiments.fanout import budget_aligned_shard, fanout_estimate

        cohort = _budget_cohort(g, process, kwargs)
        if cohort is not None and cohort < reps:
            max_shard = budget_aligned_shard(reps, jobs, cohort, max_shard=max_shard)
        return fanout_estimate(
            g,
            process,
            origin=origin,
            children=children,
            n_jobs=jobs,
            batched=batched,
            kwargs=kwargs,
            max_shard=max_shard,
        )
    return _shard_outcomes(g, process, origin, children, kwargs, batched)


#: Wall-clock seconds one fan-out shard should cost in later adaptive
#: rounds.  Once a round has measured the per-repetition cost, shards are
#: capped near this duration so a straggling worker can delay the round
#: by about one shard, not by a whole ``reps / n_jobs`` slice; the
#: surplus shards queue on the pool and drain as workers free up.
_TARGET_SHARD_SECONDS = 0.5


def _adaptive_outcomes(
    g: Graph,
    process: str,
    origin: int,
    seeds: SeedChildren,
    precision: Precision,
    n_jobs: int,
    batched,
    kwargs: dict,
) -> tuple[list[tuple[float, int, object, object]], AdaptiveInfo]:
    """Run repetition rounds until the anytime CI meets ``precision``.

    Every round takes the *next* children of the parent ``seeds``
    hands out (:meth:`~repro.utils.rng.SeedChildren.take`), so round
    boundaries are invisible in the streams: the concatenated outcomes
    are bit-identical to one fixed run of the same total repetition
    count.  After each round the anytime confidence-sequence width is
    checked — valid under exactly this kind of optional stopping — and
    the next round is sized from the width still missing, capped by
    ``precision.growth`` and ``precision.max_reps``.
    """
    from repro.core.anytime import AdaptiveInfo, TauAccumulator

    acc = TauAccumulator()
    outcomes: list[tuple[float, int, object, object]] = []
    rounds: list[int] = []
    t0 = perf_counter()
    halfwidth = math.inf
    target_hw = math.inf
    stopped_by = "max_reps"
    while True:
        consumed = len(outcomes)
        if consumed == 0:
            round_reps = precision.initial
            max_shard = None
        else:
            ratio = halfwidth / target_hw if target_hw > 0.0 else math.inf
            if math.isfinite(ratio):
                # hw shrinks ~ 1/sqrt(t): predict the total t that lands
                # on the target, then cap the round by the growth factor
                predicted_f = consumed * ratio * ratio
                predicted = (
                    math.ceil(predicted_f)
                    if math.isfinite(predicted_f)
                    else precision.max_reps
                )
            else:
                predicted = precision.max_reps
            ceiling = math.ceil(consumed * precision.growth)
            total_next = max(consumed + 1, min(predicted, ceiling))
            total_next = min(total_next, precision.max_reps)
            round_reps = total_next - consumed
            # cost-weighted shard sizing from the observed per-rep cost
            per_rep_s = (perf_counter() - t0) / consumed
            if n_jobs > 1 and per_rep_s > 0.0:
                max_shard = max(1, int(_TARGET_SHARD_SECONDS / per_rep_s))
            else:
                max_shard = None
        children = seeds.take(round_reps)
        outcomes.extend(
            _round_outcomes(
                g, process, origin, children, n_jobs, batched, kwargs, max_shard
            )
        )
        acc.add([o[0] for o in outcomes[-round_reps:]])
        rounds.append(round_reps)
        halfwidth = acc.halfwidth(precision.level)
        target_hw = precision.target_halfwidth(acc.mean)
        if halfwidth <= target_hw:
            stopped_by = "target"
            break
        if len(outcomes) >= precision.max_reps:
            stopped_by = "max_reps"
            break
        if (
            precision.max_seconds is not None
            and perf_counter() - t0 >= precision.max_seconds
        ):
            stopped_by = "max_seconds"
            break
    info = AdaptiveInfo(
        target=precision,
        reps=len(outcomes),
        rounds=tuple(rounds),
        mean=acc.mean,
        halfwidth=halfwidth,
        target_halfwidth=target_hw,
        met=halfwidth <= target_hw,
        stopped_by=stopped_by,
        elapsed_s=perf_counter() - t0,
    )
    return outcomes, info


def estimate_dispersion(
    g: Graph,
    process: str = "sequential",
    *,
    origin: int = 0,
    reps: int | None = None,
    precision: Precision | None = None,
    seed=None,
    n_jobs: int = 1,
    batched="auto",
    **kwargs,
) -> DispersionEstimate:
    """Estimate ``E[τ]`` over independent realisations.

    Either pass a fixed repetition count (``reps=``, default 16) or a
    typed precision target (``precision=Precision(ci_rel=0.02)``): the
    adaptive mode runs *rounds* of repetitions — an initial batch, then
    top-ups sized from the width still missing — until the anytime
    confidence sequence around the running mean is narrower than the
    target or a budget (``max_reps``, ``max_seconds``) trips.  Because
    every round consumes the next children of the same parent
    ``SeedSequence``, an adaptive run that consumed ``N`` repetitions is
    bit-identical to ``reps=N`` — in every dispatch mode.  The rounds
    consumed and the achieved width come back on ``estimate.adaptive``.

    Parameters
    ----------
    reps:
        Fixed repetition count; mutually exclusive with ``precision``.
        ``None`` with no ``precision`` means 16.
    precision:
        A :class:`repro.core.anytime.Precision` stopping target; the
        confidence sequence is valid under optional stopping, so peeking
        after every round does not inflate the miscoverage.
    n_jobs:
        ``1`` (default) runs in-process; ``> 1`` fans contiguous
        repetition *shards* out over ``n_jobs`` workers
        (:mod:`repro.experiments.fanout`).  On the per-repetition C route
        (:mod:`repro.core.route`; the default whenever a compiled
        provider runs on a CSR graph, ``batched`` not ``False``) the
        workers are threads sharing the graph in place, each running its
        shard in one compiled call; the loops release the GIL.
        Everything else forks a process pool that runs each shard through
        the lock-step driver where profitable, else the serial oracle:
        the graph is exported once into shared memory, and implicit
        families ship a ``(family, params)`` descriptor instead of a
        segment.
        Worker counts above the round's repetition count are clamped
        (surplus workers could only receive empty shards; ``reps=1``
        therefore always runs in-process).  Seeds are spawned
        identically in all modes, so the samples are bit-identical to
        ``n_jobs=1``.  In adaptive rounds after the first, shards are
        additionally capped near ``0.5 s`` of observed per-rep cost, so
        stragglers shrink and drain over the pool.
    batched:
        ``"auto"`` (default) runs every repetition on the per-repetition
        C route (:mod:`repro.core.route`) whenever a compiled kernel
        provider is present and the request passes
        :func:`~repro.core.route.route_kernels` (a CSR graph, the default
        rule and scheduler, no explicit ``tail_threshold``), at any
        repetition count.  Otherwise it takes the lock-step drivers of
        :mod:`repro.core.batched` / :mod:`repro.core.batched_continuous`
        where the repetition count and kwargs make them profitable, and
        the serial oracle below that.  ``True`` forces batching (the
        route where it passes, else the lock-step driver; raising if
        unsupported), ``False`` forces the serial reference path.  With
        ``n_jobs > 1`` the mode applies *per shard*: ``"auto"``
        re-decides with each worker's repetition count.  Auto dispatch
        never changes the numbers — every path is bit-identical to the
        serial loop, and rules it cannot prove pure fall back to serial.
        ``batched=True`` skips that purity guard and trusts the caller's
        rule to be stateless.
    kwargs:
        Driver options (``lazy=True``, ``rule=…``, ``record=True``, …),
        validated up front against the process's accepted surface
        (:func:`driver_kwargs`) — unknown keys raise ``TypeError``
        naming the options instead of reaching the driver.
        ``record=True`` surfaces per-repetition trajectories on the
        estimate, one :class:`~repro.core.results.TrajectoryArrays`
        each (``faithful_r=True`` likewise the realised
        Uniform-IDLA schedules); both batch and fan out like every
        other mode — dispatch stays purely a performance decision.
        ``state_budget=`` (a :class:`repro.core.budget.StateBudget`, a
        spec string like ``"256M"`` / ``"500000p"``, or ``None``) caps
        the resident simulation state of a batched run: the runner cuts
        every shard into cohorts of repetitions, run one after another
        on whichever path each cohort takes (the per-repetition C route
        included), instead of one flat ``reps × m`` allocation; inside a
        cohort the lock-step drivers add mid-round particle chunking and
        a stream-buffer shrink under byte budgets.  Serial paths strip
        it (they are one-repetition-resident by construction); with
        ``n_jobs > 1`` the budget applies per worker (per thread on the
        thread pool) and shards align to whole cohorts.  Budgets never
        change a sample — every cohort shape replays the serial streams
        bit for bit.
        ``kernels=`` (a provider name or
        :class:`repro.kernels.KernelSet`) selects the compiled
        inner-loop layer; unset, ``REPRO_KERNELS`` and then
        auto-detection apply.  An unknown provider name raises
        ``ValueError`` before any repetition runs.  Providers never
        change a sample.

    Examples
    --------
    >>> from repro.graphs import complete_graph
    >>> est = estimate_dispersion(complete_graph(32), "parallel", reps=4,
    ...                           seed=0, batched=False)
    >>> est.dispersion.n
    4
    >>> fast = estimate_dispersion(complete_graph(32), "parallel", reps=4,
    ...                            seed=0, batched=True)
    >>> bool(np.all(fast.samples == est.samples))
    True
    """
    if process not in PROCESS_DRIVERS:
        raise KeyError(
            f"unknown process {process!r}; available: {sorted(PROCESS_DRIVERS)}"
        )
    _validate_driver_kwargs(process, kwargs)
    if "record" in kwargs:
        check_record(kwargs["record"])
    for cap in _CAPS & set(kwargs):
        check_limit(cap, kwargs[cap])
    check_kernels(kwargs.get("kernels"))
    n_jobs = check_integer("n_jobs", n_jobs)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if batched not in (True, False, "auto"):
        raise ValueError(f"batched must be True, False or 'auto', got {batched!r}")
    if batched is True:
        _validate_forced_batched(process, kwargs)
    if precision is not None and reps is not None:
        raise TypeError("pass either reps= or precision=, not both")
    seeds = SeedChildren(
        seed if seed is not None else stable_seed(g.name, process, origin)
    )
    if precision is not None:
        outcomes, info = _adaptive_outcomes(
            g, process, origin, seeds, precision, n_jobs, batched, kwargs
        )
    else:
        reps = 16 if reps is None else check_integer("reps", reps)
        if reps < 1:
            raise ValueError(f"reps must be >= 1, got {reps}")
        children = seeds.take(reps)
        outcomes = _round_outcomes(
            g, process, origin, children, n_jobs, batched, kwargs
        )
        info = None
    disp = np.asarray([o[0] for o in outcomes])
    tot = np.asarray([o[1] for o in outcomes], dtype=np.int64)
    return DispersionEstimate(
        process=process,
        graph_name=g.name,
        n=g.n,
        origin=origin,
        dispersion=summarize(disp),
        total_steps=summarize(tot),
        samples=disp,
        total_samples=tot,
        trajectories=[o[2] for o in outcomes] if kwargs.get("record") else None,
        schedules=[o[3] for o in outcomes] if kwargs.get("faithful_r") else None,
        adaptive=info,
    )
