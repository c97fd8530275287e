"""Budgeted resident state for the batched lock-step drivers.

The lock-step engine's original memory model was "allocate ``reps × m``
flat state up front": profitable at bench scale, fatal in the asymptotic
regime the paper's theory actually speaks to — *full* dispersion needs
``m = n`` particles, so at ``n = 10⁶`` even a modest repetition count
multiplies into gigabytes of resident arrays before the first round.

:class:`StateBudget` is the knob that replaces that model.  A budget is a
cap on **resident simulation state** — either in bytes or in live
particles — that threads from ``estimate_dispersion`` / the CLI down
through dispatch into every batched driver.  :func:`plan_state` resolves
a budget against one run's shape ``(process, n, m, reps)`` into the three
mechanical levers the drivers implement:

* **repetition cohorts** (``cohort_reps``) — the driver runs cohorts of
  at most this many repetitions to completion, one after another, instead
  of all ``reps`` in one flat batch.  Cohort boundaries are invisible in
  the results: repetition ``r`` consumes child ``r``'s stream regardless
  of grouping (the same property that makes batching itself invisible).
* **mid-round particle chunks** (``step_chunk``, parallel process only) —
  within a round, the step/probe transients are computed over slices of
  the flat particle state, bounding the per-round scratch allocations
  when even one repetition's ``m`` exceeds the particle cap.  Elementwise
  ufuncs are slice-invariant, so the chunked round is bit-identical to
  the unchunked one.
* **stream-buffer shrink** (``stream_budget_doubles``) — byte budgets
  also shrink the :class:`repro.utils.rng.UniformStreams` refill chunks
  (chunk-invariance of the double streams makes the chunk size invisible
  in the results), subject to the per-repetition floor one round's
  worst-case consumption imposes.

Two deliberate boundary behaviours, pinned by ``tests/test_state_budget``:
a budget **larger than the whole run resolves to a no-op plan** — the
drivers take exactly the allocation path they take with no budget at all,
byte for byte; a budget **smaller than one repetition's floor still
runs** (``cohort_reps`` never drops below 1 — one repetition's state plus
the settlement-contest transients, which scale with the round's vacant
candidates, are the irreducible floor the plan documents rather than
enforces).

Everything here is a *performance/memory* decision: plans never change a
sample.  The differential harness pins every budget shape bit-identical
to the serial oracles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StateBudget",
    "BudgetPlan",
    "NO_BUDGET_PLAN",
    "as_state_budget",
    "parse_state_budget",
    "plan_state",
    "resident_bytes_per_rep",
]

#: Default total-doubles budget of the streaming uniform buffers (mirrors
#: :data:`repro.utils.rng._STREAM_BUDGET_DOUBLES`); a byte budget only
#: *shrinks* the stream allocation below this, never grows it — that is
#: what keeps large budgets byte-identical to the no-budget path.
_DEFAULT_STREAM_DOUBLES = 2**22

#: Fraction of a byte budget reserved for round transients (step scratch,
#: occupancy probes, the settlement contest) rather than persistent
#: per-repetition arrays: reserve = budget // _TRANSIENT_DIV.
_TRANSIENT_DIV = 4

#: Rough per-particle bytes of one chunked step's scratch (uniform gather,
#: offsets, new positions, `where` temps, occupancy probe) — sizes
#: ``step_chunk`` from the transient reserve.
_STEP_SCRATCH_BYTES = 64

#: Floor for ``step_chunk``: below this, per-chunk NumPy dispatch overhead
#: dominates and the chunking stops buying anything.
_MIN_STEP_CHUNK = 1024


@dataclass(frozen=True)
class StateBudget:
    """Cap on a batched run's resident simulation state.

    Exactly one of the two caps is usually set; when both are, each lever
    honours the tighter one.

    Attributes
    ----------
    bytes:
        Resident-state byte budget (persistent per-repetition arrays,
        streaming uniform buffers, and the reserve for round transients).
    particles:
        Live-particle cap: at most this many particle lanes resident at
        once — ``cohort_reps = particles // m`` repetitions per cohort,
        and (parallel process) ``step_chunk = particles`` when even one
        repetition's ``m`` exceeds the cap.
    """

    bytes: int | None = None
    particles: int | None = None

    def __post_init__(self):
        if self.bytes is None and self.particles is None:
            raise ValueError("StateBudget needs bytes= or particles=")
        if self.bytes is not None and self.bytes < 1:
            raise ValueError(f"bytes must be >= 1, got {self.bytes}")
        if self.particles is not None and self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")


@dataclass(frozen=True)
class BudgetPlan:
    """One run's resolved budget levers (see module docstring).

    ``cohort_reps`` is absolute (not clamped to the run's ``reps``); a
    plan is a **no-op** for a run when it forces neither cohorts nor
    chunks nor a stream shrink — the drivers then take their unbudgeted
    allocation path unchanged.
    """

    cohort_reps: int
    step_chunk: int | None = None
    stream_budget_doubles: int | None = None

    def is_noop(self, reps: int) -> bool:
        return (
            self.cohort_reps >= reps
            and self.step_chunk is None
            and self.stream_budget_doubles is None
        )


#: The plan of an absent budget: one cohort, no chunking, default streams.
NO_BUDGET_PLAN = BudgetPlan(cohort_reps=2**62)


_BUDGET_RE = re.compile(r"^\s*(\d+)\s*([kmgKMG]?)([bBpP]?)\s*$")
_SCALE = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3}


def parse_state_budget(text: str) -> StateBudget:
    """Parse a CLI budget spec: bytes with K/M/G suffix, or ``<N>p`` particles.

    Examples
    --------
    >>> parse_state_budget("256M")
    StateBudget(bytes=268435456, particles=None)
    >>> parse_state_budget("500000p")
    StateBudget(bytes=None, particles=500000)
    """
    match = _BUDGET_RE.match(text)
    if not match:
        raise ValueError(
            f"cannot parse state budget {text!r}; expected e.g. "
            f"'268435456', '256M', '1G' (bytes) or '500000p' (particles)"
        )
    value, scale, unit = match.groups()
    if unit.lower() == "p":
        if scale:
            raise ValueError(
                f"particle budgets take no K/M/G scale, got {text!r}"
            )
        return StateBudget(particles=int(value))
    return StateBudget(bytes=int(value) * _SCALE[scale.lower()])


def as_state_budget(budget) -> StateBudget | None:
    """Normalise ``None`` / spec / :class:`StateBudget` to a budget.

    A plain ``int`` (or NumPy integer) is a byte count — the same value
    the equivalent spec string parses to (``268435456`` and
    ``"268435456"`` are the same budget), so every seam that takes a
    budget (``estimate_dispersion``, :func:`plan_state`, the fan-out
    runner) accepts the number directly.  Booleans are rejected: ``True``
    silently becoming a 1-byte budget is a bug, not a spec.
    """
    if budget is None or isinstance(budget, StateBudget):
        return budget
    if isinstance(budget, str):
        return parse_state_budget(budget)
    if not isinstance(budget, (bool, np.bool_)) and isinstance(
        budget, (int, np.integer)
    ):
        return StateBudget(bytes=int(budget))
    raise TypeError(
        f"state_budget must be None, a StateBudget, an integral byte "
        f"count or a spec string, got {type(budget).__name__}"
    )


#: Per-repetition persistent bytes, as ``coeff_m · m + coeff_n · n``.
#: Conservative estimates of what each batched driver keeps resident per
#: repetition (start/outcome arrays, flat lock-step state and its round
#: metadata, occupancy) — the uniform-stream buffer is added separately
#: because its per-repetition floor depends on the process.
_PER_REP_COEFFS = {
    # starts 8m + outcomes 24m + flat (rep_ids, pid, pos) 24m + round
    # metadata (counts_exp, rep_off, bidx, prio_flat) 32m + slack + occ n
    "parallel": (104, 1),
    # starts 8m + steps/settled 16m + O(1) lane state + occ n
    "sequential": (24, 1),
    # starts/pos/steps/settled/uns 40m + lane state + occ n
    "uniform": (48, 1),
    # uniform's arrays + settle_clock 8m
    "ctu": (56, 1),
    "c-sequential": (24, 1),
}


def _stream_floor_doubles(process: str, m: int) -> int:
    """Per-repetition worst-case doubles one refill must cover."""
    if process == "parallel":
        return m  # one round: one double per active particle
    if process in ("uniform", "ctu"):
        return 3
    return 1  # sequential family: one double per tick


def resident_bytes_per_rep(process: str, n: int, m: int) -> int:
    """Estimated persistent resident bytes one repetition adds to a batch.

    The sizing input of :func:`plan_state`'s byte-budget arithmetic — an
    estimate (Python ints, list headers and allocator slack are not
    modelled), deliberately on the conservative side so a stated budget
    holds in practice; the tracemalloc regression in
    ``benchmarks/bench_particle_shard.py`` pins the end-to-end claim.
    """
    try:
        coeff_m, coeff_n = _PER_REP_COEFFS[process]
    except KeyError:
        raise ValueError(
            f"no batched resident-state model for process {process!r}"
        ) from None
    return coeff_m * m + coeff_n * n + 8 * _stream_floor_doubles(process, m)


def plan_state(
    budget: StateBudget | None, process: str, n: int, m: int
) -> BudgetPlan:
    """Resolve a budget against one run's shape into driver levers.

    ``cohort_reps`` is independent of the run's total repetition count —
    which is what makes the drivers' cohort recursion terminate: a cohort
    of ``cohort_reps`` repetitions re-plans to the same value and
    proceeds single-cohort.
    """
    budget = as_state_budget(budget)
    if budget is None:
        return NO_BUDGET_PLAN

    cohort = 2**62
    step_chunk: int | None = None
    stream_doubles: int | None = None

    if budget.particles is not None:
        cohort = max(1, budget.particles // max(m, 1))
        if budget.particles < m and process == "parallel":
            step_chunk = budget.particles

    if budget.bytes is not None:
        per_rep = resident_bytes_per_rep(process, n, m)
        transient = budget.bytes // _TRANSIENT_DIV
        usable = budget.bytes - transient
        cohort = min(cohort, max(1, usable // max(per_rep, 1)))
        # byte budgets also shrink the streaming buffers — but never grow
        # them past the default, so large budgets stay byte-identical to
        # the unbudgeted allocation path
        doubles = budget.bytes // (8 * _TRANSIENT_DIV)
        if doubles < _DEFAULT_STREAM_DOUBLES:
            stream_doubles = max(doubles, 1)
        if process == "parallel" and cohort == 1:
            chunk = max(_MIN_STEP_CHUNK, transient // _STEP_SCRATCH_BYTES)
            if chunk < m:
                step_chunk = chunk if step_chunk is None else min(step_chunk, chunk)

    return BudgetPlan(
        cohort_reps=cohort,
        step_chunk=step_chunk,
        stream_budget_doubles=stream_doubles,
    )


def cohort_slices(total: int, cohort: int):
    """Contiguous ``(start, stop)`` repetition cohorts covering ``total``."""
    start = 0
    while start < total:
        stop = min(start + cohort, total)
        yield start, stop
        start = stop
