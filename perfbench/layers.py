"""Per-layer metrics, derived from a traced pass's span summary.

Each metric names the hooked spans it needs, as groups: the metric is
reported only if every group has at least one hook installed, otherwise
it is listed as absent.  Layer names follow the library's modules; the
rationale (which metric should move on which workload) is in README.md.
"""

from __future__ import annotations

from tracing import FINISHERS, stat

BATCHED = ("parallel", "sequential", "uniform", "ctu", "c-sequential")
KERNEL_CALLS = (
    "kernels.csr_step",
    "kernels.settle_round",
    "kernels.vacant_candidates",
    "kernels.finish_sequential",
    "kernels.finish_parallel_single",
)


def _sum(stats, names, field):
    return sum(stat(stats, n, field) for n in names)


def _ratio(num, den):
    return num / den if den else 0.0


def _metrics():
    """``(name, unit, needs, value(stats, ctx), reads payload)`` per metric."""
    out = []

    def add(name, unit, needs, fn, payload=False):
        groups = [n if isinstance(n, tuple) else (n,) for n in needs]
        out.append((name, unit, groups, fn, payload))

    batched = [f"batched.{p}" for p in BATCHED]
    serial = [f"serial.{p}" for p in BATCHED]
    add("runner.batched_calls", "count", batched, lambda S, c: _sum(S, batched, "calls"))
    add("runner.serial_reps", "count", serial, lambda S, c: _sum(S, serial, "main_calls"))
    add("runner.s", "s", [], lambda S, c: stat(S, "runner", "s"))
    add("runner.self_s", "s", [], lambda S, c: stat(S, "runner", "self_s"))
    for p in ("parallel", "sequential"):
        add(f"batched.{p}.self_s", "s", [f"batched.{p}"],
            lambda S, c, n=f"batched.{p}": stat(S, n, "self_s"))
    for p in ("uniform", "ctu", "c-sequential"):
        add(f"batched_continuous.{p}.self_s", "s", [f"batched.{p}"],
            lambda S, c, n=f"batched.{p}": stat(S, n, "self_s"))
    for p in ("sequential", "c-sequential"):
        add(f"serial.{p}.s", "s", [f"serial.{p}"],
            lambda S, c, n=f"serial.{p}": stat(S, n, "s"))
    add("serial.reps", "count", serial, lambda S, c: _sum(S, serial, "calls"))

    for k in ("csr_step", "settle_round", "vacant_candidates"):
        n = f"kernels.{k}"
        add(f"{n}.calls", "count", [n], lambda S, c, n=n: stat(S, n, "calls"))
        add(f"{n}.s", "s", [n], lambda S, c, n=n: stat(S, n, "s"))
        add(f"{n}.lanes", "lanes", [n], lambda S, c, n=n: stat(S, n, "payload"), True)
    for k in ("finish_sequential", "finish_parallel_single"):
        n = f"kernels.{k}"
        add(f"{n}.calls", "count", [n], lambda S, c, n=n: stat(S, n, "calls"))
        add(f"{n}.s", "s", [n], lambda S, c, n=n: stat(S, n, "s"))
    add("kernels.ffi_fixed_s", "s", KERNEL_CALLS,
        lambda S, c: _sum(S, KERNEL_CALLS, "calls") * c["ffi_call_s"])
    add("kernels.compiled_lane_share", "ratio", ["kernels.csr_step", "graphs.neighbor_kernel"],
        lambda S, c: _ratio(
            stat(S, "kernels.csr_step", "payload"),
            stat(S, "kernels.csr_step", "payload")
            + stat(S, "graphs.neighbor_kernel", "payload"),
        ), True)

    for n in ("engine.neighbor_step", "graphs.neighbor_kernel"):
        add(f"{n}.calls", "count", [n], lambda S, c, n=n: stat(S, n, "calls"))
        add(f"{n}.s", "s", [n], lambda S, c, n=n: stat(S, n, "s"))
        add(f"{n}.lanes", "lanes", [n], lambda S, c, n=n: stat(S, n, "payload"), True)
    for k in ("chunked_vacancies", "select_settlers", "settle_vacant_starts"):
        n = f"settlement.{k}"
        add(f"{n}.calls", "count", [n], lambda S, c, n=n: stat(S, n, "calls"))
        add(f"{n}.s", "s", [n], lambda S, c, n=n: stat(S, n, "s"))

    fin = [FINISHERS]
    add("finisher.reps", "count", fin, lambda S, c: stat(S, "finisher", "calls"))
    add("finisher.s", "s", fin, lambda S, c: stat(S, "finisher", "s"))
    # share of driver time: both sides sum over fan-out workers alike
    drivers = batched + serial
    add("finisher.share", "ratio", fin,
        lambda S, c: _ratio(stat(S, "finisher", "s"), _sum(S, drivers, "s")))

    rng = ("rng.fill", "rng.refill_tail", "rng.take_block")
    for n in rng:
        add(f"{n}.calls", "count", [n], lambda S, c, n=n: stat(S, n, "calls"))
        add(f"{n}.s", "s", [n], lambda S, c, n=n: stat(S, n, "s"))
    add("rng.doubles", "doubles", rng, lambda S, c: _sum(S, rng, "payload"), True)
    add("rng.doubles_per_step", "ratio", rng,
        lambda S, c: _ratio(_sum(S, rng, "payload"), c["steps"]), True)

    n = "trajectory.append"
    add(f"{n}.calls", "count", [n], lambda S, c: stat(S, n, "calls"))
    add(f"{n}.s", "s", [n], lambda S, c: stat(S, n, "s"))
    add(f"{n}.events", "events", [n], lambda S, c: stat(S, n, "payload"), True)
    add("trajectory.finalize.s", "s", ["trajectory.finalize"],
        lambda S, c: stat(S, "trajectory.finalize", "s"))

    add("fanout.export_s", "s", ["fanout.export"], lambda S, c: stat(S, "fanout.export", "s"))
    add("fanout.shards", "count", ["fanout.shard"], lambda S, c: stat(S, "fanout.shard", "calls"))
    add("fanout.worker_busy_s", "s", ["fanout.shard"], lambda S, c: stat(S, "fanout.shard", "s"))
    add("fanout.ipc_wait_s", "s", ["fanout.estimate", "fanout.shard"],
        lambda S, c: stat(S, "fanout.ipc_wait", "s"))
    add("fanout.result_bytes", "bytes", ["fanout.shard"],
        lambda S, c: stat(S, "fanout.shard", "payload"), True)

    for k in ("import_s", "kernels_s", "graphs_s"):
        add(f"setup.{k}", "s", [], lambda S, c, k=k: c["setup"][k])
    add("work.steps", "count", [], lambda S, c: c["steps"])
    add("trace.overhead_frac", "ratio", [], lambda S, c: c["overhead_frac"])
    return out


METRICS = _metrics()


def evaluate(stats: dict, ctx: dict, present: set, broken: set):
    """``({name: value}, {name: unit}, [absent names])`` for one pass."""
    values, units, absent = {}, {}, []
    for name, unit, needs, fn, reads_payload in METRICS:
        ok = all(any(n in present for n in group) for group in needs)
        if ok and reads_payload:
            # a payload that could not be read (changed signature) is absent
            ok = not any(n in broken for group in needs for n in group)
        if not ok:
            absent.append(name)
            continue
        values[name] = fn(stats, ctx)
        units[name] = unit
    return values, units, absent
