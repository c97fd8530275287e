"""cffi kernel provider: the C kernels compiled with the system toolchain.

The provider that makes the compiled layer available wherever a C
compiler is.  ``load()`` compiles
:data:`repro.kernels._csource.C_SOURCE` once into a shared object and
opens it in cffi's out-of-line ABI mode.  Both live in one cache
directory (``$REPRO_KERNELS_CACHE``, defaulting to a per-user directory
below the system temp dir):

* the ``.so``, keyed on the source *and* the full compiler command, so a
  library built under one ``$CC`` is never picked up under another;
* the pure-Python ffi module cffi generates from
  :data:`~repro.kernels._csource.CDEF` (``set_source(name, None)`` +
  ``make_py_source``), keyed on the ``.so``'s key, ``CDEF`` and the
  ``_cffi_backend`` version, so edited declarations or an upgraded cffi
  never load stale ones.

The first process parses ``CDEF`` (cffi imports pycparser for that) and
writes both files atomically; later processes import the generated
module and ``dlopen`` the ``.so`` without recompiling, importing
pycparser or parsing ``CDEF``.

Only ``-O2 -ffp-contract=off`` is added to ``$CC`` (see the bit-identity
note in ``_csource``); the explicit ``-ffp-contract=off`` keeps FMA
contraction off whatever flags ``$CC`` carries.
Build failures raise with the compiler's stderr attached; the registry
turns that into a clean fallback under auto-detection and a loud error
when the provider was requested explicitly.  So does a cached ffi
module that fails to import.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shlex
from types import SimpleNamespace

import numpy as np

from repro.kernels._csource import C_SOURCE, CDEF


def _cache_dir() -> str:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return override
    import tempfile

    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")


def _compile_command() -> tuple[list[str], list[str]]:
    """``$CC`` split into words, and the whole compile command."""
    # CC may carry flags ("cc -std=c99"), as in make
    cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
    return cc, [*cc, "-O2", "-ffp-contract=off", "-fPIC", "-shared"]


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def _ensure_built() -> str:
    """Compile the kernel source (once) and return the shared-object path."""
    cc, argv = _compile_command()
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_kernels_{_digest(C_SOURCE, *argv)}.so")
    if os.path.exists(so_path):
        return so_path
    # only a build needs these: a warm load never imports them
    import subprocess
    import tempfile

    os.makedirs(cache, exist_ok=True)
    fd, c_path = tempfile.mkstemp(dir=cache, suffix=".c")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(C_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        proc = subprocess.run(
            [*argv, "-o", tmp_so, c_path],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{shlex.join(cc)} failed to build the kernel library "
                f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
            )
        # atomic within the cache dir: concurrent builders race benignly
        os.replace(tmp_so, so_path)
    finally:
        if os.path.exists(c_path):
            os.unlink(c_path)
    return so_path


def _ffi_module_path() -> str:
    """Where the ffi module for :data:`CDEF` and this cffi is cached."""
    import _cffi_backend

    _, argv = _compile_command()
    digest = _digest(C_SOURCE, *argv, CDEF, _cffi_backend.__version__)
    return os.path.join(_cache_dir(), f"repro_kernels_ffi_{digest}.py")


def _ensure_ffi_module() -> str:
    """Generate (once) the out-of-line ffi module for :data:`CDEF` and
    return its path; only this first generation imports pycparser."""
    py_path = _ffi_module_path()
    if os.path.exists(py_path):
        return py_path
    import tempfile

    import cffi
    from cffi.recompiler import make_py_source

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    name = os.path.basename(py_path)[:-3]
    ffi.set_source(name, None)
    cache = os.path.dirname(py_path)
    os.makedirs(cache, exist_ok=True)
    fd, tmp_py = tempfile.mkstemp(dir=cache, suffix=".py.tmp")
    os.close(fd)
    try:
        make_py_source(ffi, name, tmp_py)
        # atomic within the cache dir, as for the .so
        os.replace(tmp_py, py_path)
    finally:
        if os.path.exists(tmp_py):
            os.unlink(tmp_py)
    return py_path


def _import_ffi(py_path: str):
    """The ``ffi`` object of the generated module at ``py_path``."""
    name = os.path.basename(py_path)[:-3]
    spec = importlib.util.spec_from_file_location(name, py_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi


def load() -> SimpleNamespace:
    """Build/open the library and return the low-level impl namespace.

    The returned callables follow the provider protocol the
    ``CompiledKernels`` wrapper speaks: numpy arrays in, scalar status
    codes out.  Arrays must be C-contiguous with the protocol dtypes (``int64``
    walkers/CSR, ``float64`` uniforms, ``uint8`` occupancy) — the
    ``KernelSet`` wrappers in the package root guarantee that.
    """
    so_path = _ensure_built()
    ffi = _import_ffi(_ensure_ffi_module())
    lib = ffi.dlopen(so_path)
    # the loops draw inline from a numpy PCG64, which they recognise by
    # its next_double function (read while `pcg64` holds its bitgen_t)
    pcg64 = np.random.PCG64(0)
    address = pcg64.ctypes.bit_generator.value
    lib.repro_pcg64_register(ffi.cast("bitgen_t *", address))
    # typed from_buffer views decay to pointers at the call boundary and
    # cost ~4x less per argument than cast("i64 *", a.ctypes.data) — at
    # kernel call rates the marshalling is a measurable slice of the
    # min_width crossover
    from_buffer = ffi.from_buffer

    def pi(a):
        return from_buffer("i64[]", a)

    def pd(a):
        return from_buffer("double[]", a)

    def pu(a):
        return from_buffer("unsigned char[]", a)

    def pe(a):  # int32 events; None is NULL, a loop that does not record
        return ffi.NULL if a is None else from_buffer("int[]", a)

    def pp(a):  # uintp addresses
        return from_buffer("uintptr_t[]", a)

    def pq(a):  # uint64 PCG64 seed rows
        return from_buffer("uint64_t[]", a)

    def opt(view, a):  # None is NULL
        return ffi.NULL if a is None else view(a)

    cast = ffi.cast

    def prefix_bitgen(buf, rest=None):
        """A bitgen_t serving the float64 array ``buf``, then the
        bitgen_t at address ``rest`` (``None``: 0.0 past the end): its
        ``address`` and ``drawn()``, the next_double calls so far."""
        data = pd(buf)
        rng = ffi.new("repro_prefix_rng *", {
            "buf": data, "n": buf.shape[0],
            "rest": ffi.NULL if rest is None else cast("bitgen_t *", rest),
        })
        bg = ffi.new("bitgen_t *")
        lib.repro_prefix_bitgen(bg, rng)
        return SimpleNamespace(
            address=int(cast("uintptr_t", bg)),
            drawn=lambda: int(rng.i),
            _keep=(buf, data, rng, bg),  # C holds raw pointers to these
        )

    return SimpleNamespace(
        name="cffi",
        csr_step=lambda indptr, indices, pos, u, out, k: lib.repro_csr_step(
            pi(indptr), pi(indices), pi(pos), pd(u), pi(out), k
        ),
        vacant=lambda occ, rep_off, pos, k, out: lib.repro_vacant(
            pu(occ), pi(rep_off), pi(pos), k, pi(out)
        ),
        settle_round=lambda occ, rep, pos, prio, k, n, best, touched, winners: (
            lib.repro_settle_round(
                pu(occ), pi(rep), pi(pos), pi(prio), k, n,
                pi(best), pi(touched), pi(winners),
            )
        ),
        # `bitgens` holds each row's bitgen_t address (numpy's or a prefix
        # one; 0: the row's PCG64 state in `seeds`, None when no row has
        # one), `evs` each row's sink address (None: no recording)
        finish_seq=lambda indptr, indices, occ, starts, steps, settled,
        bitgens, seeds, state, R, n, m, lazy, budget, evs, caps, which: (
            lib.repro_finish_seq(
                pi(indptr), pi(indices), pu(occ), pi(starts), pi(steps),
                pi(settled), pp(bitgens), opt(pq, seeds), pi(state), R, n, m,
                lazy, budget, opt(pp, evs), opt(pi, caps), pi(which),
            )
        ),
        finish_par1=lambda indptr, indices, occ, buf, nbuf, state, lazy,
        guard, budget: lib.repro_finish_par1(
            pi(indptr), pi(indices), pu(occ), pd(buf), nbuf,
            pi(state), lazy, guard, budget,
        ),
        walk_fill=lambda indptr, indices, out, steps, buf, nbuf, state: (
            lib.repro_walk_fill(
                pi(indptr), pi(indices), pi(out), steps, pd(buf), nbuf,
                pi(state),
            )
        ),
        walk_hit=lambda indptr, indices, hit, buf, nbuf, state, limit: (
            lib.repro_walk_hit(
                pi(indptr), pi(indices), pu(hit), pd(buf), nbuf,
                pi(state), limit,
            )
        ),
        # `bitgens` and `seeds` as for finish_seq, `evs` each row's sink
        # address (None: no recording); `lane` holds 2 * lane_cap doubles,
        # -u then the divisors
        run_ctu=lambda indptr, indices, occ, pool, pos, steps, settled,
        sclock, order, bitgens, seeds, lane, lane_cap, state, R, n, m, rate,
        evs, caps, which: lib.repro_run_ctu(
            pi(indptr), pi(indices), pu(occ), pi(pool), pi(pos), pi(steps),
            pi(settled), pd(sclock), pi(order), pp(bitgens), opt(pq, seeds),
            pd(lane), lane_cap, pi(state), R, n, m, rate, opt(pp, evs),
            opt(pi, caps), pi(which),
        ),
        run_uniform=lambda indptr, indices, occ, pool, pos, steps, settled,
        order, bitgens, seeds, lane, lane_cap, logq, pool_size, state, R, n,
        m, budget, evs, caps, which: lib.repro_run_uniform(
            pi(indptr), pi(indices), pu(occ), pi(pool), pi(pos), pi(steps),
            pi(settled), pi(order), pp(bitgens), opt(pq, seeds), pd(lane),
            lane_cap, pd(logq), pool_size, pi(state), R, n, m, budget,
            opt(pp, evs), opt(pi, caps), pi(which),
        ),
        # the lane folds: `lane` as run_ctu / run_uniform left it, with
        # numpy's log1p taken in place over its used slots
        fold_ctu=lambda lane, lane_cap, state, R, m, sclock, order, folded,
        clocks: lib.repro_fold_ctu(
            pd(lane), lane_cap, pi(state), R, m, pd(sclock), pi(order),
            pi(folded), pd(clocks),
        ),
        fold_uniform=lambda lane, lane_cap, state, R: lib.repro_fold_uniform(
            pd(lane), lane_cap, pi(state), R
        ),
        # `prio` is None (NULL: the particle index) or one row per
        # repetition; `hold` is None (NULL) unless lazy
        run_parallel=lambda indptr, indices, occ, act, pos, prio, best, steps,
        settled, rounds, bitgens, seeds, hold, state, R, n, m, lazy, thr,
        budget, evs, caps, which: lib.repro_run_parallel(
            pi(indptr), pi(indices), pu(occ), pi(act), pi(pos), opt(pi, prio),
            pi(best), pi(steps), pi(settled), pi(rounds), pp(bitgens),
            opt(pq, seeds), opt(pd, hold), pi(state), R, n, m, lazy, thr,
            budget, opt(pp, evs), opt(pi, caps), pi(which),
        ),
        scatter_events=lambda ev, nev, cursor, flat: lib.repro_scatter_events(
            pe(ev), nev, pi(cursor), pe(flat)
        ),
        prefix_bitgen=prefix_bitgen,
        draw_doubles=lambda bitgens, seeds, R, n, out: lib.repro_draw_doubles(
            pp(bitgens), opt(pq, seeds), R, n, pd(out)
        ),
        # `pre` (uint32) ends with the parent's spawn key; one (4,) uint64
        # row of `seeds` per child
        seed_pcg64=lambda pre, start, count, seeds: lib.repro_seed_pcg64(
            from_buffer("uint32_t[]", pre), pre.shape[0], start, count,
            pq(seeds),
        ),
    )
