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

from repro.core.aggregate import (
    ShapeStats,
    aggregate_after,
    euclidean_shape_stats,
    grid_coordinates,
)
from repro.core.algorithms import (
    UniformReadResult,
    parallel_to_sequential,
    parallel_to_uniform,
    sequential_to_parallel,
)
from repro.core.anytime import (
    AdaptiveInfo,
    AnytimeKS,
    KSVerdict,
    Precision,
    TauAccumulator,
    anytime_halfwidth,
    ks_statistic,
)
from repro.core.batched import batched_parallel_idla, batched_sequential_idla
from repro.core.batched_continuous import (
    batched_continuous_sequential_idla,
    batched_ctu_idla,
    batched_uniform_idla,
)
from repro.core.budget import (
    BudgetPlan,
    StateBudget,
    parse_state_budget,
    plan_state,
)
from repro.core.origins import resolve_origins
from repro.core.blocks import (
    Block,
    is_valid_parallel_block,
    is_valid_sequential_block,
    is_valid_uniform_block,
)
from repro.core.continuous import continuous_sequential_idla, ctu_idla
from repro.core.parallel import parallel_idla
from repro.core.results import DispersionResult
from repro.core.sequential import sequential_idla
from repro.core.stopping_rules import DelayedRule, HairRule, StoppingRule, standard_rule
from repro.core.trajectory import TrajectoryArrays
from repro.core.uniform import sample_schedule, uniform_idla

__all__ = [
    "DispersionResult",
    "sequential_idla",
    "parallel_idla",
    "uniform_idla",
    "ctu_idla",
    "continuous_sequential_idla",
    "batched_parallel_idla",
    "batched_sequential_idla",
    "batched_ctu_idla",
    "batched_uniform_idla",
    "batched_continuous_sequential_idla",
    "StateBudget",
    "BudgetPlan",
    "parse_state_budget",
    "plan_state",
    "TrajectoryArrays",
    "Block",
    "is_valid_sequential_block",
    "is_valid_parallel_block",
    "is_valid_uniform_block",
    "sequential_to_parallel",
    "parallel_to_sequential",
    "parallel_to_uniform",
    "UniformReadResult",
    "StoppingRule",
    "standard_rule",
    "HairRule",
    "DelayedRule",
    "Precision",
    "TauAccumulator",
    "AdaptiveInfo",
    "anytime_halfwidth",
    "AnytimeKS",
    "KSVerdict",
    "ks_statistic",
    "sample_schedule",
    "aggregate_after",
    "euclidean_shape_stats",
    "grid_coordinates",
    "ShapeStats",
    "resolve_origins",
]
