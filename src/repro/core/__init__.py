"""Core dispersion processes — the paper's primary contribution.

Drivers::

    sequential_idla(g, origin)      # §1, one particle at a time
    parallel_idla(g, origin)        # §1, synchronous rounds
    uniform_idla(g, origin)         # §4.2, random unsettled particle per tick
    ctu_idla(g, origin)             # §4.3, rate-1 exponential clocks
    continuous_sequential_idla(...) # §4.3, Poissonised sequential

batched Monte-Carlo variants (all repetitions advanced in lock-step,
bit-identical to looping the serial drivers over the same seeds)::

    batched_parallel_idla(g, origin, reps=R)
    batched_sequential_idla(g, origin, reps=R)
    batched_uniform_idla(g, origin, reps=R)
    batched_ctu_idla(g, origin, reps=R)
    batched_continuous_sequential_idla(g, origin, reps=R)

plus the block/Cut & Paste machinery of §4 (``Block``,
``sequential_to_parallel``, ``parallel_to_sequential``,
``parallel_to_uniform``) and the alternative settling rules of
Proposition A.1.
"""

from repro._lazy import lazy_exports

#: Module -> the names this package takes from it; each name's
#: module is imported on first access (:mod:`repro._lazy`).
_EXPORTS = {
    "repro.core.aggregate": (
        "ShapeStats",
        "aggregate_after",
        "euclidean_shape_stats",
        "grid_coordinates",
    ),
    "repro.core.algorithms": (
        "UniformReadResult",
        "parallel_to_sequential",
        "parallel_to_uniform",
        "sequential_to_parallel",
    ),
    "repro.core.anytime": (
        "AdaptiveInfo",
        "AnytimeKS",
        "KSVerdict",
        "Precision",
        "TauAccumulator",
        "anytime_halfwidth",
        "ks_statistic",
    ),
    "repro.core.batched": ("batched_parallel_idla", "batched_sequential_idla"),
    "repro.core.batched_continuous": (
        "batched_continuous_sequential_idla",
        "batched_ctu_idla",
        "batched_uniform_idla",
    ),
    "repro.core.budget": (
        "BudgetPlan",
        "StateBudget",
        "parse_state_budget",
        "plan_state",
    ),
    "repro.core.origins": ("resolve_origins",),
    "repro.core.blocks": (
        "Block",
        "is_valid_parallel_block",
        "is_valid_sequential_block",
        "is_valid_uniform_block",
    ),
    "repro.core.continuous": ("continuous_sequential_idla", "ctu_idla"),
    "repro.core.parallel": ("parallel_idla",),
    "repro.core.results": ("DispersionResult", "TrajectoryArrays"),
    "repro.core.sequential": ("sequential_idla",),
    "repro.core.stopping_rules": (
        "DelayedRule",
        "HairRule",
        "StoppingRule",
        "standard_rule",
    ),
    "repro.core.uniform": ("sample_schedule", "uniform_idla"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
