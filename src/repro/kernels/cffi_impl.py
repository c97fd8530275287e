"""cffi kernel provider: the C kernels compiled with the system toolchain.

The provider that makes the compiled layer available wherever a C
compiler is.  ``load()`` compiles
:data:`repro.kernels._csource.C_SOURCE` once into a shared object cached
under a source-hash-keyed path (``$REPRO_KERNELS_CACHE``, defaulting to a
per-user directory below the system temp dir) and opens it in cffi ABI
mode; subsequent processes reuse the cached ``.so`` without recompiling.

Only plain ``-O2`` is passed (see the bit-identity note in ``_csource``).
Build failures raise with the compiler's stderr attached; the registry
turns that into a clean fallback under auto-detection and a loud error
when the provider was requested explicitly.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import subprocess
import tempfile
from types import SimpleNamespace

from repro.kernels._csource import C_SOURCE, CDEF


def _cache_dir() -> str:
    override = os.environ.get("REPRO_KERNELS_CACHE")
    if override:
        return override
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")


def _ensure_built() -> str:
    """Compile the kernel source (once) and return the shared-object path."""
    digest = hashlib.sha256(C_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_kernels_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    # CC may carry flags ("cc -std=c99"), as in make
    cc = shlex.split(os.environ.get("CC", "")) or ["cc"]
    fd, c_path = tempfile.mkstemp(dir=cache, suffix=".c")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(C_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        proc = subprocess.run(
            [*cc, "-O2", "-fPIC", "-shared", "-o", tmp_so, c_path],
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


def load() -> SimpleNamespace:
    """Build/open the library and return the low-level impl namespace.

    The returned callables follow the provider protocol the
    ``CompiledKernels`` wrapper speaks: numpy arrays in, scalar status
    codes out.  Arrays must be C-contiguous with the protocol dtypes (``int64``
    walkers/CSR, ``float64`` uniforms, ``uint8`` occupancy) — the
    ``KernelSet`` wrappers in the package root guarantee that.
    """
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    lib = ffi.dlopen(_ensure_built())
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
        finish_seq=lambda indptr, indices, occ, starts, steps_row, settled_row,
        buf, nbuf, state, m, lazy, budget: lib.repro_finish_seq(
            pi(indptr), pi(indices), pu(occ), pi(starts), pi(steps_row),
            pi(settled_row), pd(buf), nbuf, pi(state), m, lazy, budget,
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
    )
