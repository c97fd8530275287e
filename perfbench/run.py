"""Dispersion benchmark: end-to-end and per-layer numbers for estimate_dispersion.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload parallel-wide --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15       # every workload

Each workload (see ``workloads.py`` and ``README.md``) is a fixed list of
``estimate_dispersion`` calls on the library's graph generators, under
default dispatch, with seeds derived from ``--seed``.  The benchmark sets
up (imports, kernel provider, graphs, one warm-up estimate) and then runs
the whole workload back to back, one *pass* after another, until
``--seconds`` have passed; it reports medians over passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, taken from
spans the benchmark records around calls into the library (``tracing.py``).

After timing, a correctness gate checks every estimate: finite positive
samples, the same samples in every pass, and the first repetitions equal
to a ``batched=False`` run on the same seed.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
provenance, the per-pass figures and the absent per-layer metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

# numpy and the library are imported inside functions: set-up times them
from layers import evaluate
from speed import REFERENCE_S, Reference
from tracing import Hooks, Tracer, summarize
from workloads import ORACLE_REPS, WORKLOADS, cell_seed, setup

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes (compiled kernels, temporary files).
CACHE = os.path.join(ROOT, ".perfbench_cache")
#: Set-up is repeated in this many fresh processes; set-up time is their median.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def prepare_environment() -> None:
    """Point the process (and its children) at this checkout only."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC}; run from a full checkout")
    for var in ("REPRO_KERNELS", "REPRO_BACKEND"):
        os.environ.pop(var, None)
    tmp = os.path.join(CACHE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = os.path.join(CACHE, "kernels")
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    sys.path.insert(0, SRC)


def child(args: list[str], timeout: float) -> str:
    """Run this interpreter on ``args``; return the last line of its stdout."""
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args} failed ({proc.returncode}):\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def warm_kernel_cache() -> None:
    """Build the compiled kernels into the checkout's cache, outside timing."""
    child(["-c", "from repro.kernels import get_kernels; print(get_kernels().name)"], timeout=600)


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process ``multiprocessing.shared_memory`` starts.

    The fan-out pool exports graphs into shared memory, which launches a
    resource-tracker process meant to outlive its parent; unreaped, it is
    left behind as an orphan.  Closing its pipe ends it and ``_stop``
    waits for it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def setup_samples(workload: str, seed: int) -> list[dict]:
    args = [__file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    return [json.loads(child(args, timeout=170)) for _ in range(SETUP_SAMPLES)]


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_pass(prep, ref, tracer=None, keep=False) -> dict:
    """Every cell of the workload once; the timed unit of the benchmark.

    Times exclude the reference loop, which runs before the first cell and
    after each cell; ``wall`` and ``cpu`` are scaled to reference speed
    (``speed.py``), ``raw_wall`` is not.  Each estimate is reduced to a
    fingerprint for the gate; ``keep`` also returns the estimates.
    """
    refs = [ref.time()]
    wall = cpu = 0.0
    steps = 0
    prints, errors, kept = [], [], []
    for i, cell in enumerate(prep.cells):
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            with tracer.span("runner") if tracer else nullcontext():
                est = prep.estimate(
                    prep.graphs[cell.graph],
                    cell.process,
                    reps=cell.reps,
                    seed=cell_seed(prep.name, prep.seed, i),
                    **cell.kwargs,
                )
            error = None
        except Exception:
            est, error = None, traceback.format_exc()
        wall += time.perf_counter() - t0
        cpu += cpu_seconds() - cpu0
        refs.append(ref.time())
        errors.append(error)
        if est is None:
            prints.append(None)
            kept.append(None)
            continue
        steps += int(est.total_samples.sum())
        events = sum(len(row) for rep in est.trajectories or () for row in rep)
        prints.append((est.samples, est.total_samples, events))
        if keep and est.trajectories is not None:
            # the gate compares only the first repetitions' trajectories
            est = dataclasses.replace(est, trajectories=est.trajectories[:ORACLE_REPS])
        kept.append(est if keep else None)
    scale = REFERENCE_S / statistics.mean(refs)
    return {
        "wall": wall * scale,
        "cpu": cpu * scale,
        "raw_wall": wall,
        "steps": steps,
        "prints": prints,
        "errors": errors,
        "estimates": kept,
    }


def gate(prep, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Correctness gate over every estimate of every pass.

    An estimate fails if it raised, has a non-finite or non-positive
    sample, differs from the same cell in the first pass, or its cell's
    first repetitions differ from a ``batched=False`` run on the same seed
    (repetition r depends only on child r of the seed, so the first
    ``ORACLE_REPS`` repetitions of both runs must agree bit for bit).
    ``passes[0]`` must carry its estimates (``run_pass(keep=True)``).
    """
    import numpy as np

    attempted = failed = 0
    notes = []
    for i, cell in enumerate(prep.cells):
        first = passes[0]["estimates"][i]
        reference = passes[0]["prints"][i]
        oracle_ok = True
        if first is not None:
            k = min(ORACLE_REPS, cell.reps)
            kwargs = {key: v for key, v in cell.kwargs.items() if key != "n_jobs"}
            try:
                ref = prep.estimate(
                    prep.graphs[cell.graph],
                    cell.process,
                    reps=k,
                    seed=cell_seed(prep.name, prep.seed, i),
                    batched=False,
                    **kwargs,
                )
                oracle_ok = np.array_equal(ref.samples, first.samples[:k]) and np.array_equal(
                    ref.total_samples, first.total_samples[:k]
                )
                if cell.kwargs.get("record"):
                    oracle_ok = oracle_ok and ref.trajectories == first.trajectories[:k]
            except Exception:
                oracle_ok = False
                notes.append(f"cell {i}: oracle raised\n{traceback.format_exc()}")
            if not oracle_ok:
                notes.append(f"cell {i} ({cell.process} on {cell.graph}): differs from serial oracle")
        for p, run in enumerate(passes):
            attempted += 1
            fp, err = run["prints"][i], run["errors"][i]
            if fp is None or reference is None:
                failed += 1
                notes.append(f"cell {i} pass {p} raised\n{err or 'in the first pass'}")
                continue
            samples, totals, events = fp
            ok = (
                oracle_ok
                and bool(np.all(np.isfinite(samples)))
                and bool(np.all(samples > 0))
                and np.array_equal(samples, reference[0])
                and np.array_equal(totals, reference[1])
                and events == reference[2]
            )
            if not ok:
                failed += 1
                notes.append(f"cell {i} pass {p}: failed the gate")
    return attempted, failed, notes


def provenance(prep, seed: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            ).stdout.strip() or None
        except OSError:
            pass
    return {
        "kernels": prep.kernels.name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def ffi_call_seconds(kernels) -> float:
    """Cost of one zero-width ``csr_step`` call: Python wrapper plus cffi marshalling."""
    if not kernels.compiled:
        return 0.0
    import numpy as np

    ip = np.zeros(1, dtype=np.int64)
    ix = np.zeros(0, dtype=np.int64)
    pos = np.zeros(0, dtype=np.int64)
    u = np.zeros(0, dtype=np.float64)
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(2000):
            kernels.csr_step(ip, ix, pos, u)
        samples.append((time.perf_counter() - t0) / 2000)
    return statistics.median(samples)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    warm_kernel_cache()
    probes = setup_samples(workload, seed)
    prep = setup(workload, seed)
    ref = Reference()
    setup_med = {k: statistics.median(p[k] for p in probes) for k in probes[0]}
    report = {
        "workload": workload,
        "provenance": provenance(prep, seed),
        "setup_samples_s": [p["setup_s"] for p in probes],
        "setup_raw_s": [p["raw_setup_s"] for p in probes],
    }
    start = time.perf_counter()
    if trace == 0:
        passes = []
        while not passes or time.perf_counter() - start < seconds:
            passes.append(run_pass(prep, ref, keep=not passes))
        rss = peak_rss_mb()
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in passes),
            "steps_per_s": statistics.median(p["steps"] / p["wall"] for p in passes),
            "cpu_s": statistics.median(p["cpu"] for p in passes),
            "setup_s": setup_med["setup_s"],
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END_UNITS)
        timed = passes
    else:
        tracer = Tracer()
        hooks = Hooks(tracer)
        untraced, traced = [], []
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(run_pass(prep, ref, keep=not untraced))
            hooks.install()
            a = tracer.mark()
            traced.append(run_pass(prep, ref, tracer))
            hooks.uninstall()
            traced[-1]["stats"] = summarize(tracer, a, tracer.mark())
        plain = statistics.median(p["wall"] for p in untraced)
        ctx = {
            "setup": setup_med,
            "ffi_call_s": ffi_call_seconds(prep.kernels),
            "overhead_frac": statistics.median(p["wall"] for p in traced) / plain - 1.0,
        }
        per_pass = []
        for p in traced:
            values, units, absent = evaluate(
                p["stats"], dict(ctx, steps=p["steps"]), hooks.present, tracer.broken
            )
            per_pass.append(values)
        # median_low: a count stays a whole number with an even pass count
        metrics = {k: statistics.median_low(v[k] for v in per_pass) for k in per_pass[0]}
        report["absent"] = absent
        report["hooks_absent"] = sorted(hooks.absent)
        report["traced_wall_s"] = [p["wall"] for p in traced]
        timed = untraced + traced
    attempted, failed, notes = gate(prep, timed)
    for note in notes:
        print(f"perfbench: {workload}: {note}", file=sys.stderr)
    report["passes"] = len(timed)
    report["pass_wall_s"] = [p["wall"] for p in timed]
    report["pass_raw_wall_s"] = [p["raw_wall"] for p in timed]
    report["work_steps"] = timed[0]["steps"]
    report["failed_frac"] = failed / attempted
    return {
        "metrics": metrics,
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare_environment()
    try:
        return run(args)
    finally:
        stop_resource_tracker()


def run(args) -> int:
    if args.setup_probe:
        timings = setup(args.workload, args.seed).timings
        scale = Reference().speed()
        scaled = {k: v * scale for k, v in timings.items()}
        print(json.dumps(dict(scaled, raw_setup_s=timings["setup_s"])))
        return 0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, args.seconds, args.trace) for name in names}
    metrics = {}
    for name, res in results.items():
        print(f"# {name}: {res['attempted']} estimates, failed_frac {res['report']['failed_frac']:g}")
        for key, value in res["metrics"].items():
            print(f"  {key:<40} {value:>16.6g} {res['units'][key]}")
            label = key if len(names) == 1 else f"{name}/{key}"
            metrics[label] = {"value": value, "unit": res["units"][key]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"report": {n: r["report"] for n, r in results.items()}}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
