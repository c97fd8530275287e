"""What importing the library loads, and the lazy package namespaces.

``repro``, ``repro.core``, ``repro.experiments``, ``repro.graphs`` and
``repro.walks`` resolve their ``__all__`` names on first access
(:mod:`repro._lazy`), and the runner imports the lock-step drivers and
the adaptive machinery only on the paths that run them.  The import
checks run in a fresh interpreter, since this process has long since
imported everything.
"""

from __future__ import annotations

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.experiments.runner as runner
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph
from repro.kernels import available_kernels

from test_public_names import TRACED

SRC = str(Path(repro.__file__).resolve().parents[1])
ROOT = Path(SRC).parent

LAZY_PACKAGES = [
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.graphs",
    "repro.walks",
]

PROCESSES = ("sequential", "parallel", "uniform", "ctu", "c-sequential")

#: Modules a default estimate on the per-repetition route never runs.
ROUTE_NEVER_LOADS = (
    "repro.markov",
    "repro.bounds",
    "repro.theory",
    "repro.experiments.sweep",
    "repro.experiments.fitting",
    "repro.experiments.table1_report",
    "repro.experiments.io",
    "repro.experiments.tables",
    "repro.experiments.fanout",
    "repro.core.batched",
    "repro.core.batched_continuous",
    "repro.core.trajectory",
    "repro.core.aggregate",
    "repro.core.algorithms",
    "repro.core.anytime",
    "repro.walks.empirical",
)

needs_compiled = pytest.mark.skipif(
    not available_kernels()["cffi"], reason="no compiled kernel provider here"
)


def _run(*args: str, **env) -> str:
    """Run a fresh interpreter on ``args`` with the source tree on the
    path; its stdout."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC, **env},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# ----------------------------------------------------------------------
# the version
# ----------------------------------------------------------------------
def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == repro.__version__


# ----------------------------------------------------------------------
# what an import and an estimate load, in a fresh interpreter
# ----------------------------------------------------------------------
def test_import_repro_loads_no_subpackage():
    _run(
        "-c",
        """
import sys
import repro
loaded = sorted(m for m in sys.modules if m.startswith("repro"))
assert loaded == ["repro", "repro._lazy"], loaded
"""
    )


def test_one_subpackage_imports_no_sibling():
    """Building a graph loads the graph modules and the utilities they
    use, none of the other subpackages."""
    _run(
        "-c",
        """
import sys
import repro.graphs
g = repro.graphs.cycle_graph(8)
siblings = ("core", "experiments", "walks", "markov", "bounds", "theory", "kernels")
loaded = [
    m for m in sys.modules if m.startswith("repro.") and m.split(".")[1] in siblings
]
assert not loaded, loaded
"""
    )


@needs_compiled
def test_route_estimate_loads_no_lock_step_or_analysis_module():
    """A default-dispatch ``kernels="cffi"`` estimate of every process
    runs on the route and never imports a lock-step engine, the
    adaptive machinery or the analysis subpackages."""
    _run(
        "-c",
        f"""
import sys
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph
g = cycle_graph(16)
for process in {PROCESSES!r}:
    estimate_dispersion(g, process, seed=3, kernels="cffi")
loaded = [m for m in {ROUTE_NEVER_LOADS!r} if m in sys.modules]
assert not loaded, loaded
"""
    )


#: A cold lock-step estimate: it must import its driver module on the
#: spot and give the serial oracle's samples.
_COLD_LOCK_STEP = """
import sys
import numpy as np
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph
g = cycle_graph(16)
got = estimate_dispersion(g, {process!r}, reps={reps}, seed=5, {options})
assert {module!r} in sys.modules
want = estimate_dispersion(g, {process!r}, reps={reps}, seed=5, batched=False)
assert np.array_equal(got.samples, want.samples)
"""


def test_cold_lock_step_estimate_with_numpy_kernels():
    # reps=16 meets the uniform lock-step crossover under auto dispatch
    _run(
        "-c",
        _COLD_LOCK_STEP.format(
            process="uniform", reps=16, options="",
            module="repro.core.batched_continuous",
        ),
        REPRO_KERNELS="numpy",
    )


def test_cold_lock_step_estimate_forced_with_batched_true():
    # an explicit tail_threshold keeps the request off the route
    _run(
        "-c",
        _COLD_LOCK_STEP.format(
            process="sequential", reps=4,
            options="batched=True, tail_threshold=2", module="repro.core.batched",
        )
    )


def test_cli_run_smoke():
    out = _run(
        "-m", "repro", "run", "cycle", "16", "--process", "parallel", "--reps", "4"
    )
    assert "parallel" in out


# ----------------------------------------------------------------------
# the namespace contract of each lazy package
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_exports_cover_all_exactly(name):
    pkg = importlib.import_module(name)
    table = [n for names in pkg._EXPORTS.values() for n in names]
    assert len(table) == len(set(table))
    assert set(table) == set(pkg.__all__) - {"__version__"}


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_each_export_is_its_defining_modules_object(name):
    pkg = importlib.import_module(name)
    for module, names in pkg._EXPORTS.items():
        for attr in names:
            value = getattr(pkg, attr)
            if inspect.ismodule(value):
                assert value.__name__ == module == f"{name}.{attr}"
                continue
            assert value is getattr(importlib.import_module(module), attr)
            if inspect.isfunction(value) or inspect.isclass(value):
                # the table names where the object lives, or a package
                # above it that re-exports it
                home = importlib.import_module(value.__module__)
                assert getattr(home, attr) is value
                assert value.__module__.startswith(module), (attr, module)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_star_import_binds_every_export(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    pkg = importlib.import_module(name)
    for attr in pkg.__all__:
        assert namespace[attr] is getattr(pkg, attr)


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    pkg = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_lazy_names_resolve_in_a_fresh_interpreter():
    """``dir`` lists every export and star imports bind them before any
    is touched; every traced target resolves from cold."""
    _run(
        "-c",
        f"""
import importlib
for name in {LAZY_PACKAGES!r}:
    pkg = importlib.import_module(name)
    assert set(pkg.__all__) <= set(dir(pkg)), name
    namespace = {{}}
    exec(f"from {{name}} import *", namespace)
    assert set(pkg.__all__) <= set(namespace), name
for module, path, _ in {TRACED!r}:
    owner = importlib.import_module(module)
    for attr in path.split("."):
        owner = getattr(owner, attr)
"""
    )


# ----------------------------------------------------------------------
# BATCHED_DRIVERS: one registry, resolved on first use
# ----------------------------------------------------------------------
def test_batched_drivers_is_the_registry_the_lock_step_branch_calls(monkeypatch):
    drivers = runner.BATCHED_DRIVERS
    assert drivers is runner._batched_drivers()
    assert sorted(drivers) == sorted(runner.PROCESS_DRIVERS)
    calls = []

    def counted(*args, _inner=drivers["parallel"], **kwargs):
        calls.append(len(kwargs["seeds"]))
        return _inner(*args, **kwargs)

    monkeypatch.setitem(runner.BATCHED_DRIVERS, "parallel", counted)
    g = cycle_graph(12)
    est = estimate_dispersion(g, "parallel", reps=4, seed=2, kernels="numpy")
    assert calls == [4]
    ref = estimate_dispersion(g, "parallel", reps=4, seed=2, batched=False)
    assert np.array_equal(est.samples, ref.samples)


def test_batched_drivers_is_a_runner_export():
    namespace: dict = {}
    exec("from repro.experiments.runner import *", namespace)
    assert namespace["BATCHED_DRIVERS"] is runner.BATCHED_DRIVERS
    with pytest.raises(AttributeError, match="no attribute 'NO_SUCH'"):
        runner.NO_SUCH


@pytest.mark.skipif(
    not (ROOT / "perfbench" / "tracing.py").exists(), reason="no perfbench here"
)
def test_tracer_registry_hook_sees_a_cold_lock_step_call():
    """The benchmark tracer wraps ``BATCHED_DRIVERS``' values in place
    before the registry was ever resolved; the lock-step branch then
    calls through the wrapped entry."""
    _run(
        "-c",
        f"""
import importlib.util
spec = importlib.util.spec_from_file_location(
    "tracing", {str(ROOT / "perfbench" / "tracing.py")!r}
)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from repro.experiments import estimate_dispersion
from repro.graphs import cycle_graph
tracer = tracing.Tracer()
hooks = tracing.Hooks(tracer)
hooks.install()
try:
    estimate_dispersion(cycle_graph(12), "parallel", reps=4, seed=2, kernels="numpy")
finally:
    hooks.uninstall()
assert "batched.parallel" in hooks.present, hooks.absent
spans = {{tracer.names[k] for k in tracer.kinds}}
assert "batched.parallel" in spans, spans
"""
    )
