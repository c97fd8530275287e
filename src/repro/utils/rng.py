"""Random-number-generator plumbing.

All stochastic entry points in the library accept a ``seed`` argument that
may be ``None`` (fresh OS entropy), an integer, a ``numpy.random.SeedSequence``
or an existing ``numpy.random.Generator``.  :func:`as_generator` normalises
any of those into a ``Generator`` so that the rest of the code never touches
global RNG state — a prerequisite for reproducible experiments and for
fan-out across worker processes (each worker receives an independent child
generator created by :func:`spawn_generators`).
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

SeedLike = "None | int | np.random.SeedSequence | np.random.Generator"

__all__ = [
    "as_generator",
    "as_seed_sequence",
    "spawn_seed_sequences",
    "spawn_generators",
    "SeedChildren",
    "SpawnRange",
    "stable_seed",
    "UniformStream",
    "UniformStreams",
    "resolve_stream_block",
]


def as_generator(seed=None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted seed object.

    Parameters
    ----------
    seed:
        ``None`` (use OS entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so that callers can thread
        one generator through a pipeline of calls).

    Examples
    --------
    >>> g = as_generator(12345)
    >>> g2 = as_generator(g)
    >>> g2 is g
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(
        f"seed must be None, int, SeedSequence or Generator, got {type(seed).__name__}"
    )


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Parent ``SeedSequence`` for any accepted seed object.

    ``SeedSequence.spawn`` advances the parent's child counter, so
    spawning ``a`` children and then ``b`` more from the *same* parent
    object yields exactly the children ``spawn(a + b)`` would have — the
    property the adaptive runner's incremental rep top-up relies on.
    Callers that spawn in rounds must therefore resolve the parent once
    (through here) and keep spawning from that object.
    """
    if isinstance(seed, np.random.Generator):
        # Generators created from a SeedSequence carry it on the bit generator.
        ss = seed.bit_generator.seed_seq
        if ss is None:  # pragma: no cover - legacy bit generators only
            ss = np.random.SeedSequence()
        return ss
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def spawn_seed_sequences(seed, n: int) -> list[np.random.SeedSequence]:
    """Spawn ``n`` independent child ``SeedSequence`` objects.

    The single source of child streams for Monte-Carlo fan-out: the serial
    runner, the process-pool runner and the batched cross-repetition
    drivers all derive repetition ``r``'s stream from child ``r`` of the
    same parent, so the three execution modes are bit-identical (the
    equivalence tests in ``tests/test_core_batched.py`` rely on this).

    Parameters
    ----------
    seed:
        Any object accepted by :func:`as_generator`, or a ``SeedSequence``.
        When a ``Generator`` is passed, children are derived from its
        ``bit_generator``'s seed sequence via ``spawn``.
    n:
        Number of children, must be >= 0.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return as_seed_sequence(seed).spawn(n)


def spawn_generators(seed, n: int) -> list[np.random.Generator]:
    """Create ``n`` statistically independent child generators.

    Uses ``SeedSequence.spawn`` (via :func:`spawn_seed_sequences`) under
    the hood, which guarantees non-overlapping streams — the recommended
    pattern for parallel Monte Carlo (one child per worker / repetition).
    """
    return [np.random.default_rng(child) for child in spawn_seed_sequences(seed, n)]


#: The pool size of numpy's default ``SeedSequence``, the only one the
#: compiled seeding (:meth:`repro.kernels.CompiledKernels.pcg64_seeds`)
#: reproduces.
_POOL_WORDS = 4


class SpawnRange:
    """Children ``start .. stop-1`` of a parent ``SeedSequence``, made on
    demand.

    ``parent.spawn`` builds a ``SeedSequence`` object per child.  The
    compiled route seeds its PCG64 rows in C from the parent's entropy
    and the child indices alone (:meth:`entropy_words`), so it needs none
    of them.  Indexing yields the ``SeedSequence`` ``parent.spawn`` gives
    for that child, slicing a sub-range without building any, and a range
    pickles as its parent and bounds.  The parent's spawn counter does not
    move: :class:`SeedChildren` hands out ranges only of parents that no
    other code spawns from.

    Examples
    --------
    >>> parent = np.random.SeedSequence(7)
    >>> kids = SpawnRange(parent, 0, 4)
    >>> len(kids[1:3]), kids[2].spawn_key
    (2, (2,))
    >>> spawned = parent.spawn(4)
    >>> bool((kids[2].generate_state(2) == spawned[2].generate_state(2)).all())
    True
    """

    __slots__ = ("parent", "start", "stop")

    def __init__(self, parent: np.random.SeedSequence, start: int, stop: int):
        if not 0 <= start <= stop:
            raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
        self.parent = parent
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, i):
        if isinstance(i, slice):
            a, b, step = i.indices(len(self))
            if step != 1:
                return [self[j] for j in range(a, b, step)]
            return SpawnRange(self.parent, self.start + a, self.start + max(a, b))
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("SpawnRange index out of range")
        p = self.parent
        return np.random.SeedSequence(
            p.entropy, spawn_key=(*p.spawn_key, self.start + i), pool_size=p.pool_size
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __reduce__(self):
        return (SpawnRange, (self.parent, self.start, self.stop))

    def __repr__(self) -> str:
        return f"SpawnRange({self.parent!r}, {self.start}, {self.stop})"

    def entropy_words(self) -> np.ndarray | None:
        """What every child's assembled entropy starts with, as ``uint32``:
        the parent's entropy words, zero-padded to the pool size, then
        its spawn key's; the child's index follows.  ``None`` for a
        parent whose pool size is not numpy's default."""
        from numpy.random.bit_generator import _coerce_to_uint32_array

        p = self.parent
        if p.pool_size != _POOL_WORDS:
            return None
        run = _coerce_to_uint32_array(p.entropy)
        key = _coerce_to_uint32_array(p.spawn_key)
        head = max(run.shape[0], _POOL_WORDS)
        words = np.zeros(head + key.shape[0], dtype=np.uint32)
        words[: run.shape[0]] = run
        words[head:] = key
        return words


class SeedChildren:
    """Consecutive children of one parent ``SeedSequence``, handed out
    in blocks by :meth:`take`.

    A parent the caller passed in (a ``SeedSequence``, or a ``Generator``
    carrying one) is spawned from, so its spawn counter advances as it
    always has.  A parent made here from an ``int``, a list or ``None``
    is seen by no other code: its children come as :class:`SpawnRange`
    blocks, with the offset kept here, and no ``SeedSequence`` is built
    until someone indexes one.  Either way block after block yields the
    children one ``spawn`` of the total would.
    """

    __slots__ = ("parent", "_next")

    def __init__(self, seed=None):
        self.parent = as_seed_sequence(seed)
        owned = not isinstance(seed, (np.random.SeedSequence, np.random.Generator))
        self._next = self.parent.n_children_spawned if owned else None

    def take(self, n: int):
        """The next ``n`` children."""
        if self._next is None:
            return self.parent.spawn(n)
        start = self._next
        self._next += n
        return SpawnRange(self.parent, start, self._next)


class UniformStream:
    """Block-buffered uniform doubles.

    The serial tick-scheduled drivers (:mod:`repro.core.uniform`,
    :mod:`repro.core.continuous`) walk their jump chain on *nothing but*
    uniform doubles from their generator: scheduler picks and walk steps
    are inverse-CDF transforms of one ``Generator.random`` stream, read
    here a block at a time; the per-level clock draws then come from the
    generator itself, where the last block fetch left it.  Because NumPy
    double streams are chunk-invariant (``random(a)`` then ``random(b)``
    equals one ``random(a + b)`` call, double for double), the batched
    lock-step drivers in :mod:`repro.core.batched_continuous` can replay
    the very same streams with any buffering whose fetches stay on the
    block grid — the *consumption order* is the whole contract.

    The first block is drawn lazily: a driver whose process finishes at
    time 0 consumes no randomness at all, exactly like its batched replica.

    ``initial`` primes the stream with already-drawn leftover doubles that
    are consumed *before* the first generator fetch — the handoff contract
    of the scalar tail finisher: a batched driver that buffered ahead of
    consumption passes its unconsumed doubles here, and the finisher's
    scalar loop continues the very same stream mid-flight.  ``drawn``
    counts doubles fetched from the generator (the leftover excluded), so
    callers can reconcile the generator position against the serial
    drivers' fetch schedule.

    Examples
    --------
    >>> s = UniformStream(as_generator(0), block=4)
    >>> ref = as_generator(0).random(6)
    >>> [s.uniform() for _ in range(6)] == ref.tolist()
    True
    """

    __slots__ = ("_rng", "_block", "_u", "_i", "_n", "drawn")

    def __init__(
        self, rng: np.random.Generator, block: int = 16384, initial=None
    ):
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self._rng = rng
        self._block = block
        self.drawn = 0
        if initial is not None and len(initial):
            arr = np.ascontiguousarray(initial, dtype=np.float64)
            self._u = arr.tolist()
            self._n = arr.size
        else:
            self._u: list[float] | None = None
            self._n = 0
        self._i = 0

    def _refill(self) -> None:
        arr = self._rng.random(self._block)
        self.drawn += self._block
        self._u = arr.tolist()
        self._n = self._block
        self._i = 0

    def uniform(self) -> float:
        """Next double of the stream, as drawn."""
        i = self._i
        if i == self._n:
            self._refill()
            i = 0
        self._i = i + 1
        return self._u[i]

    def take_block(self) -> np.ndarray:
        """Next contiguous run of the stream as a float64 array.

        The bulk-handoff twin of :meth:`uniform` for the block-fed
        compiled parallel straggler loop (:mod:`repro.kernels`; the
        per-repetition loops draw from the generator itself): the first
        call returns whatever buffered doubles remain unconsumed (the
        ``initial`` prefix and/or the current block's tail), later calls
        fetch whole fresh blocks — exactly the fetch cadence of the
        scalar loop, so ``drawn`` stays reconcilable with the serial grid
        via :meth:`UniformStreams.align_to_serial`.  Do not interleave with
        the scalar accessors: the returned array is handed off whole, so
        this stream's cursor jumps past it.
        """
        i = self._i
        if i < self._n:
            out = np.asarray(self._u[i : self._n], dtype=np.float64)
            self._i = self._n
            return out
        self.drawn += self._block
        return self._rng.random(self._block)

    def take(self, count: int) -> list[float]:
        """Next ``count`` doubles of the stream, in draw order.

        Used by the scalar tail finisher to replay the batched drivers'
        contiguous per-round consumption (e.g. the lazy wide phase's
        ``k`` hold gates followed by ``k`` step uniforms).
        """
        out: list[float] = []
        remaining = count
        while remaining:
            if self._i == self._n:
                self._refill()
            j = min(self._n - self._i, remaining)
            out.extend(self._u[self._i : self._i + j])
            self._i += j
            remaining -= j
        return out


#: Total doubles the streaming scheme budgets across *all* repetitions of
#: one batched run (32 MiB of float64).  The per-repetition chunk shrinks
#: as the repetition count grows, so the allocation never scales past the
#: budget *except* through the per-repetition floor (one round's
#: worst-case consumption must fit — for the parallel driver that is
#: ``2·m + 2`` doubles, the same order as the lock-step particle state
#: itself, which no buffer policy can shrink).  This bounded-refill
#: property is what replaced the old ``_BATCHED_MAX_BUFFER_DOUBLES``
#: auto-dispatch decline.
_STREAM_BUDGET_DOUBLES = 2**22

#: Per-repetition chunk ceiling: beyond this, bigger chunks no longer
#: amortise refill overhead measurably.
_STREAM_MAX_BLOCK = 65536


def resolve_stream_block(
    reps: int,
    *,
    per_rep_min: int = 1,
    align: int | None = None,
    block: int | None = None,
    budget_doubles: int | None = None,
) -> int:
    """Per-repetition chunk length the streaming buffer scheme uses.

    The single source of truth for batched buffer sizing — the driver
    modules' ``stream_block`` reporting helpers and the actual
    :class:`UniformStreams` allocations both resolve through here, so the
    reported size always equals the real allocation.

    Parameters
    ----------
    reps:
        Number of repetitions sharing the budget.
    per_rep_min:
        Worst-case doubles one repetition consumes before it can refill
        (e.g. ``2·m + 2`` for one Parallel-IDLA round); the chunk never
        drops below this.
    align:
        Serial fetch-block size (a power of two) the chunk must divide,
        for drivers whose generators must land on the serial block grid
        (see :meth:`UniformStreams.align_to_serial`).  When the budget
        allows a chunk >= ``align``, exactly ``align`` is used.
    block:
        Explicit override (tests): used verbatim after validation.
    budget_doubles:
        Total budget across repetitions; defaults to 32 MiB of doubles.
    """
    if align is not None and align & (align - 1):
        raise ValueError(f"align must be a power of two, got {align}")
    if block is not None:
        if block < per_rep_min:
            raise ValueError(
                f"block override {block} below per-repetition minimum "
                f"{per_rep_min}"
            )
        if align is not None and align % block:
            raise ValueError(
                f"block override {block} must divide align={align}"
            )
        return block
    budget = _STREAM_BUDGET_DOUBLES if budget_doubles is None else budget_doubles
    raw = min(_STREAM_MAX_BLOCK, budget // max(reps, 1))
    if align is not None:
        if per_rep_min > align:
            raise ValueError(
                f"per_rep_min {per_rep_min} cannot exceed align={align}"
            )
        if raw >= align:
            return align
        # largest power of two <= raw divides the power-of-two align;
        # climb back up if that violates the per-repetition floor
        chunk = 1 << max(0, raw.bit_length() - 1)
        while chunk < per_rep_min:
            chunk <<= 1
        return chunk
    return max(per_rep_min, raw)


class UniformStreams:
    """``R`` lock-step uniform streams over one bounded shared buffer.

    The streaming replacement for the batched drivers' preallocated
    ``reps × block`` uniform buffers: each repetition draws from its own
    child generator in serial consumption order, but the refill chunk is
    sized by :func:`resolve_stream_block` so the whole allocation stays
    within a fixed budget no matter how many repetitions are in flight.
    Chunk-invariance of NumPy double streams makes the chunk size
    invisible in the results — only the consumption order matters — which
    is also what permits the two mid-stream manoeuvres the scalar tail
    finisher needs:

    * :meth:`tail` hands one repetition's stream to a scalar loop, its
      unconsumed buffered doubles travelling along as the
      :class:`UniformStream` ``initial`` prefix;
    * :meth:`align_to_serial` fast-forwards a finished repetition's
      generator onto the serial driver's fetch grid, so callers that keep
      consuming the generator afterwards (the Poissonised sequential
      driver's Gamma durations, the tick drivers' per-level clocks) see
      exactly the serial stream position.

    Examples
    --------
    >>> gens = spawn_generators(0, 3)
    >>> s = UniformStreams(gens, per_rep_min=2, block=8)
    >>> s.fill(range(3))
    >>> ref = spawn_generators(0, 3)[1].random(8)
    >>> bool(np.array_equal(s.buf[1], ref))
    True
    """

    __slots__ = ("gens", "block", "buf", "flat", "fetched", "_align")

    def __init__(
        self,
        gens,
        *,
        per_rep_min: int = 1,
        align: int | None = None,
        block: int | None = None,
        budget_doubles: int | None = None,
    ):
        self.gens = list(gens)
        self.block = resolve_stream_block(
            len(self.gens),
            per_rep_min=per_rep_min,
            align=align,
            block=block,
            budget_doubles=budget_doubles,
        )
        self.buf = np.empty((len(self.gens), self.block), dtype=np.float64)
        self.flat = self.buf.reshape(-1)
        self.fetched = np.zeros(len(self.gens), dtype=np.int64)
        self._align = align

    def fill(self, rows) -> None:
        """Fetch a whole fresh chunk for each repetition in ``rows``."""
        for r in rows:
            self.gens[r].random(out=self.buf[r])
            self.fetched[r] += self.block

    def refill_tail(self, r: int, ptr: int) -> None:
        """Refill row ``r`` whose next unconsumed double sits at ``ptr``.

        The unconsumed suffix ``buf[r, ptr:]`` moves to the front and
        ``ptr`` fresh doubles are fetched behind it — the remainder-copy
        refill for drivers whose per-round consumption can straddle a
        chunk boundary.
        """
        rem = self.block - ptr
        if rem:
            self.buf[r, :rem] = self.buf[r, ptr:]
        if ptr:
            self.gens[r].random(out=self.buf[r, rem:])
            self.fetched[r] += ptr

    def tail(self, r: int, ptr: int) -> UniformStream:
        """Hand repetition ``r``'s stream to a scalar loop, mid-flight.

        Returns a :class:`UniformStream` that first serves the row's
        unconsumed doubles ``buf[r, ptr:]`` and then continues fetching
        from the repetition's own generator in ``block``-sized chunks —
        the same stream, bit for bit, from the scalar side.
        """
        return UniformStream(
            self.gens[r], block=self.block, initial=self.buf[r, ptr:]
        )

    def align_to_serial(self, r: int, consumed: int, drawn: int = 0) -> None:
        """Fast-forward generator ``r`` onto the serial fetch grid.

        The serial drivers fetch in ``align``-sized blocks (Sequential
        draws one up front; the tick drivers' lazy stream reaches the same
        position once it consumed any), so after consuming ``consumed``
        doubles their generator sits at ``align · max(1, ceil(consumed /
        align))``.  The streaming
        chunks here divide ``align`` and are only fetched on demand, so
        the streamed fetch count never exceeds that position; drawing the
        difference lands the generator exactly where the serial driver
        leaves it — required by callers that keep consuming the generator
        after the walk (Gamma durations, per-level clocks).
        ``drawn`` counts the doubles a tail finisher took from generator
        ``r`` itself, past this buffer.
        """
        if self._align is None:
            return
        fetched = int(self.fetched[r]) + drawn
        target = self._align * max(1, -(-consumed // self._align))
        if target > fetched:
            self.gens[r].random(target - fetched)


def stable_seed(*parts) -> int:
    """Derive a deterministic 63-bit seed from arbitrary labelled parts.

    Used by the experiment registry so that e.g. ``("table1", "cycle", 256,
    rep=3)`` always maps to the same RNG stream regardless of execution
    order.  The hash is content-based (SHA-256 over the ``repr`` of the
    parts), therefore stable across processes and Python versions that
    preserve ``repr`` of the inputs (ints and strings do).

    Examples
    --------
    >>> stable_seed("cycle", 128) == stable_seed("cycle", 128)
    True
    >>> stable_seed("cycle", 128) != stable_seed("cycle", 129)
    True
    """
    payload = "\x1f".join(repr(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") & ((1 << 63) - 1)
