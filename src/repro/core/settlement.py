"""Settlement resolution shared by the dispersion drivers.

Every IDLA variant resolves the same two situations:

* **competition** — several unsettled particles stand on vacant vertices
  in the same round and, per vertex, the best-priority one settles
  (:func:`select_settlers`, the lexsort kernel of the Parallel-IDLA round
  body and its batched cross-repetition generalisation);
* **vacant starts** — a particle whose *starting* vertex is vacant
  settles instantly at time 0, regardless of the settling rule
  (:func:`settle_vacant_starts` for the synchronous round-0 pass,
  :func:`instant_settle_chain` for the one-at-a-time sequential release).

Keeping these here guarantees the serial drivers in
:mod:`repro.core.parallel` / :mod:`repro.core.sequential` and the batched
drivers in :mod:`repro.core.batched` settle identically — a precondition
for the bit-identical replay the batched subsystem promises.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "select_settlers",
    "settle_vacant_starts",
    "chunked_vacancies",
    "instant_settle_chain",
    "settle_vacant_starts_inorder",
    "UnsettledPool",
]


def select_settlers(keys: np.ndarray, priority: np.ndarray) -> np.ndarray:
    """Pick, per key, the candidate with the smallest priority.

    Parameters
    ----------
    keys:
        Integer cell id per candidate — a vertex id in the serial drivers,
        ``repetition * n + vertex`` in the batched ones (namespacing keeps
        repetitions from competing with each other).
    priority:
        Priority per candidate; the smallest value wins its cell.

    Returns
    -------
    Indices into the candidate arrays of the winners, one per distinct
    key, ordered by key.

    Examples
    --------
    >>> select_settlers(np.array([4, 2, 4]), np.array([1, 0, 0])).tolist()
    [1, 2]
    """
    order = np.lexsort((priority, keys))
    sorted_keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return order[first]


def settle_vacant_starts(
    occupied: np.ndarray, starts: np.ndarray, priority: np.ndarray
) -> np.ndarray:
    """Round-0 pass: per vacant start vertex, the best-priority particle wins.

    ``occupied`` is *not* modified — the caller applies the settlement so
    it can also update its own bookkeeping (free counts, settle order).

    Returns the winning particle indices (empty when every start is
    already occupied).
    """
    candidates = np.flatnonzero(~occupied[starts])
    if candidates.size == 0:
        return candidates
    winners = select_settlers(starts[candidates], priority[candidates])
    return candidates[winners]


def chunked_vacancies(
    occupied: np.ndarray,
    rep_off: np.ndarray,
    pos: np.ndarray,
    chunk: int | None = None,
    kernels=None,
) -> np.ndarray:
    """Indices of particles standing on vacant cells, probing in chunks.

    The unchunked probe of the batched parallel round allocates two
    walker-sized transients (``occupied[rep_off + pos]`` and its negation)
    before reducing to the usually-small candidate set.  Under a
    :class:`repro.core.budget.StateBudget` the round body is sliced into
    ``chunk``-sized pieces, so the probe must be too — per chunk the
    gather, the negation and the flatnonzero are chunk-sized, and the
    candidate indices (offset back into walker coordinates) concatenate
    in ascending order, exactly what the global ``flatnonzero`` returns.

    ``chunk=None`` (or a chunk covering all walkers) takes the one-shot
    path unchanged; a compiled :class:`repro.kernels.KernelSet` replaces
    that path with a single-pass probe (no walker-sized transients) whose
    candidate order is identical by construction.
    """
    if chunk is None or chunk >= pos.size:
        if kernels is not None and kernels.compiled and pos.size >= kernels.min_width:
            return kernels.vacant_candidates(occupied, rep_off, pos)
        return np.flatnonzero(occupied[rep_off + pos] == 0)
    parts = []
    for a in range(0, pos.size, chunk):
        sl = slice(a, min(a + chunk, pos.size))
        hit = np.flatnonzero(occupied[rep_off[sl] + pos[sl]] == 0)
        if hit.size:
            hit += a
            parts.append(hit)
    if not parts:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(parts)


def settle_vacant_starts_inorder(occupied, starts, settled_at, settle_order) -> list:
    """Round-0 pass of the tick-scheduled processes, in particle order.

    The Uniform-IDLA and CTU-IDLA drivers settle every particle standing
    on a vacant start at time 0, scanning particles in index order (so per
    duplicated start vertex the lowest particle index wins — the same
    winners :func:`settle_vacant_starts` picks, but with the settle order
    the tick-scheduled drivers report).  ``occupied`` (list or bool array)
    and ``settled_at`` are updated in place; winners are appended to
    ``settle_order``.

    Returns the list of particles still unsettled, ascending — the initial
    contents of the scheduler's :class:`UnsettledPool`.  Shared by the
    serial drivers and the tests that pin the batched drivers' one-pass
    time-0 settlement to it, so both resolve time 0 identically.
    """
    unsettled = []
    for p, v in enumerate(starts):
        v = int(v)
        if occupied[v]:
            unsettled.append(p)
        else:
            occupied[v] = True
            settled_at[p] = v
            settle_order.append(p)
    return unsettled


class UnsettledPool:
    """Swap-remove pool of unsettled particle ids with O(1) pick/remove.

    The uniform/CTU schedulers pick slot ``i`` uniformly from the pool
    each tick; when the picked particle settles, the *last* pool entry is
    swapped into its slot.  The batched drivers replicate exactly this
    swap-remove on their per-repetition pool rows, which keeps every
    subsequent scheduler index referring to the same particle in both
    execution modes — a bit-identity requirement, not a convenience.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: list):
        self.ids = ids

    def __len__(self) -> int:
        return len(self.ids)

    def pick(self, slot: int) -> int:
        """Particle id occupying ``slot``."""
        return self.ids[slot]

    def remove_at(self, slot: int) -> None:
        """Swap-remove: move the last entry into ``slot`` and shrink."""
        last = self.ids.pop()
        if slot < len(self.ids):
            self.ids[slot] = last


def instant_settle_chain(occupied, starts, first: int, steps, settled_at) -> int:
    """Settle particles ``first, first+1, …`` standing on vacant starts.

    The Sequential-IDLA release rule: a particle whose start vertex is
    vacant settles instantly (0 steps) and the next particle is released;
    the chain stops at the first particle that actually has to walk.
    ``occupied`` (list or bool array), ``steps`` and ``settled_at`` are
    updated in place.

    Returns the index of the first walking particle, or ``len(starts)``
    when the chain exhausted all remaining particles.
    """
    m = len(starts)
    p = first
    while p < m:
        v = int(starts[p])
        if occupied[v]:
            return p
        occupied[v] = True
        steps[p] = 0
        settled_at[p] = v
        p += 1
    return m
