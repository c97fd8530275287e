"""cffi kernel provider: the C kernels compiled with the system toolchain.

The provider that makes the compiled layer available wherever a C
compiler is.  ``load()`` compiles
:data:`repro.kernels._csource.C_SOURCE` once into a shared object and
opens it in cffi's out-of-line ABI mode.  Both live in one cache
directory (``$REPRO_KERNELS_CACHE``, defaulting to a per-user directory
below the system temp dir):

* the ``.so``, keyed on the source, the full compiler command and the
  numpy version and path of the ``libnpyrandom.a`` it links (numpy's own
  ``random_gamma`` and ``random_negative_binomial``), so a library built
  under one ``$CC`` or numpy is never picked up under another;
* the pure-Python ffi module cffi generates from
  :data:`~repro.kernels._csource.CDEF` (``set_source(name, None)`` +
  ``make_py_source``), keyed on the ``.so``'s key, ``CDEF`` and the
  ``_cffi_backend`` version, so edited declarations or an upgraded cffi
  never load stale ones.

The first process parses ``CDEF`` (cffi imports pycparser for that) and
writes both files atomically; later processes import the generated
module and ``dlopen`` the ``.so`` without recompiling, importing
pycparser or parsing ``CDEF``.  ``CDEF`` is also the head of
``C_SOURCE``, so the declarations cffi calls through are the ones the
compiler checked.

Marshalling follows the declarations too: each exported function is
wrapped once, from its ``CDEF`` prototype, to take numpy arrays for its
pointers to numbers, and one ``shard(**fields)`` fills a
``repro_shard`` struct the same way, once per shard; the shard loops
take that struct and nothing else, so a re-entry marshals no argument.

Only ``-O2 -ffp-contract=off`` is added to ``$CC`` (see the bit-identity
note in ``_csource``), plus the sampler archive and ``-lm`` to link; the
explicit ``-ffp-contract=off`` keeps FMA contraction off whatever flags
``$CC`` carries.  A missing archive fails the build like a compiler
error, naming the file.
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


def _npyrandom() -> str:
    """Path of numpy's static sampler library, ``libnpyrandom.a``."""
    return os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def _so_key() -> str:
    """The ``.so``'s cache key: the source, the compile command and the
    numpy whose samplers it links, so an upgraded numpy never loads
    samplers that differ from its ``Generator``'s."""
    _, argv = _compile_command()
    return _digest(C_SOURCE, *argv, np.__version__, _npyrandom())


def _ensure_built() -> str:
    """Compile the kernel source (once) and return the shared-object path."""
    cc, argv = _compile_command()
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_kernels_{_so_key()}.so")
    if os.path.exists(so_path):
        return so_path
    archive = _npyrandom()
    if not os.path.exists(archive):
        raise RuntimeError(
            f"{shlex.join(cc)} cannot build the kernel library: numpy's "
            f"sampler library {archive} is missing"
        )
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
            [*argv, "-o", tmp_so, c_path, archive, "-lm"],
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

    digest = _digest(_so_key(), CDEF, _cffi_backend.__version__)
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

    Every exported ``repro_<name>`` is there as ``<name>``, taking numpy
    arrays (C-contiguous, of the protocol dtypes: ``int64`` walkers/CSR,
    ``float64`` uniforms, ``uint8`` occupancy; ``None`` is ``NULL``) for
    its pointers to numbers and Python scalars for the rest, and
    returning the C result.  ``shard(**fields)`` fills one
    ``repro_shard`` the same way; the shard loops, ``hold`` and
    ``draw_doubles`` take it, and ``hold_kind`` maps a process to the
    kind of holding variables ``hold`` draws for it.  The ``CompiledKernels`` wrappers in the
    package root check every array before it gets here.
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
    from_buffer, NULL = ffi.from_buffer, ffi.NULL

    def view(ctype):
        """How a value becomes a ``ctype``: a numpy array's view for a
        pointer to numbers, ``None`` (taken as is) for anything else."""
        if ctype.kind != "pointer" or ctype.item.kind != "primitive":
            return None
        array = ffi.typeof(ctype.item.cname + "[]")
        return lambda a: NULL if a is None else from_buffer(array, a)

    def marshal(fn):
        views = [view(t) for t in ffi.typeof(fn).args]
        if not any(views):
            return fn

        def call(*args):
            return fn(*[a if v is None else v(a) for v, a in zip(views, args)])

        return call

    fields = {name: view(f.type) for name, f in ffi.typeof("repro_shard").fields}

    def shard(**values):
        """A ``repro_shard`` holding ``values`` (the fields not named are
        0 or ``NULL``), and the views it points through, which must
        outlive it."""
        c = ffi.new("repro_shard *")
        keep = []
        for name, value in values.items():
            if fields[name] is not None:  # a pointer: the array's view
                value = fields[name](value)
                keep.append(value)
            setattr(c, name, value)
        return c, keep

    def prefix_bitgen(buf, rest=None):
        """A bitgen_t serving the float64 array ``buf``, then the
        bitgen_t at address ``rest`` (``None``: 0.0 past the end): its
        ``address`` and ``drawn()``, the next_double calls so far."""
        data = from_buffer("double[]", buf)
        rng = ffi.new("repro_prefix_rng *", {
            "buf": data, "n": buf.shape[0],
            "rest": NULL if rest is None else ffi.cast("bitgen_t *", rest),
        })
        bg = ffi.new("bitgen_t *")
        lib.repro_prefix_bitgen(bg, rng)
        return SimpleNamespace(
            address=int(ffi.cast("uintptr_t", bg)),
            drawn=lambda: int(rng.i),
            _keep=(buf, data, rng, bg),  # C holds raw pointers to these
        )

    impl = {
        name[len("repro_"):]: marshal(getattr(lib, name))
        for name in dir(lib) if name.startswith("repro_")
    }
    impl.update(
        name="cffi", shard=shard, prefix_bitgen=prefix_bitgen,
        hold_kind={"c-sequential": lib.REPRO_HOLD_SEQ, "ctu": lib.REPRO_HOLD_CTU,
                   "uniform": lib.REPRO_HOLD_UNIFORM},
    )
    return SimpleNamespace(**impl)
