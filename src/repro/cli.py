"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``families``
    List the registered graph families with Table 1 predictions.
``run``
    Run one dispersion process and print the result summary.
``sweep``
    Size-sweep a family and print means + scaling fits.
``bounds``
    Print every theorem bound for one instance next to a measured mean.
``constants``
    Print the paper's closed-form constants.
``table1``
    Reproduce the paper's Table 1 at one size per family.

Examples
--------
::

    python -m repro families
    python -m repro run cycle 64 --process parallel --reps 10
    python -m repro sweep complete 64 128 256 --reps 8
    python -m repro bounds hypercube 64
"""

from __future__ import annotations

import argparse
import sys


__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse ``type=`` for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_graph(fam, n: int, seed):
    """``fam.build(n)``, or ``None`` after a one-line message on a bad size."""
    try:
        return fam.build(n, seed=seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return None


def build_parser() -> argparse.ArgumentParser:
    # Deferred import (numpy-heavy) — the registry is the single source of
    # truth for --process choices, so adding a driver updates the CLI too.
    from repro.experiments.runner import PROCESS_DRIVERS

    p = argparse.ArgumentParser(
        prog="repro",
        description="Dispersion time of random walks on finite graphs (SPAA 2019 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list graph families and predictions")
    sub.add_parser("constants", help="print the paper's constants")

    t1 = sub.add_parser("table1", help="reproduce Table 1 at one size per family")
    t1.add_argument("--reps", type=_positive_int, default=8)
    t1.add_argument("--seed", type=int, default=0)

    def add_precision_flags(sp):
        # adaptive replication: either flag switches the estimate from a
        # fixed --reps count to rounds that stop when the anytime CI is
        # narrow enough (--reps then sizes the first round)
        sp.add_argument(
            "--ci-rel",
            type=float,
            default=None,
            metavar="FRAC",
            help="adaptive: stop when the anytime CI half-width falls below "
            "FRAC x mean (0.02 = within 2%%); --reps sizes the first round",
        )
        sp.add_argument(
            "--ci-abs",
            type=float,
            default=None,
            metavar="W",
            help="adaptive: absolute half-width target in steps",
        )
        sp.add_argument(
            "--level",
            type=float,
            default=0.95,
            help="confidence level of the anytime sequence (default 0.95)",
        )
        sp.add_argument(
            "--max-reps",
            type=_positive_int,
            default=4096,
            help="adaptive repetition budget (default 4096)",
        )

    run = sub.add_parser("run", help="run one dispersion estimate")
    run.add_argument("family")
    run.add_argument("n", type=int)
    run.add_argument("--process", default="sequential", choices=sorted(PROCESS_DRIVERS))
    run.add_argument("--reps", type=_positive_int, default=8)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--lazy", action="store_true")
    add_precision_flags(run)
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan repetition shards out over N worker processes "
        "(shared-memory graph export; default: run in-process)",
    )
    run.add_argument(
        "--batched",
        default="auto",
        choices=["auto", "true", "false"],
        help="lock-step batched dispatch: auto (default heuristic), "
        "true (force, per shard when --jobs > 1), false (serial oracle)",
    )
    run.add_argument(
        "--state-budget",
        default=None,
        metavar="SPEC",
        help="cap batched resident state: bytes with K/M/G suffix "
        "('256M', '1G') or live particles ('500000p'); repetitions then "
        "run in budget-sized cohorts (per worker when --jobs > 1) "
        "without changing any sample",
    )
    run.add_argument(
        "--kernels",
        default=None,
        metavar="NAME",
        help="compiled inner-loop kernel provider for the lock-step "
        "drivers (cffi, numpy); unset, the REPRO_KERNELS "
        "environment variable then auto-detection apply",
    )

    sw = sub.add_parser("sweep", help="sweep sizes and fit scaling laws")
    sw.add_argument("family")
    sw.add_argument("sizes", type=int, nargs="+")
    sw.add_argument("--reps", type=_positive_int, default=8)
    sw.add_argument("--seed", type=int, default=0)
    add_precision_flags(sw)

    bd = sub.add_parser("bounds", help="theorem bounds vs a measured mean")
    bd.add_argument("family")
    bd.add_argument("n", type=int)
    bd.add_argument("--reps", type=_positive_int, default=20)
    bd.add_argument("--seed", type=int, default=0)
    return p


def _cmd_families(out) -> int:
    from repro.experiments import render_table
    from repro.theory import FAMILIES, TABLE1

    rows = []
    for name in sorted(FAMILIES):
        t1 = TABLE1.get(name)
        rows.append(
            [
                name,
                t1.seq.label if t1 else "?",
                t1.par.label if t1 else "?",
                t1.hitting.label if t1 else "?",
                t1.mixing.label if t1 else "?",
            ]
        )
    print(render_table(["family", "t_seq", "t_par", "t_hit", "t_mix"], rows), file=out)
    return 0


def _cmd_table1(args, out) -> int:
    from repro.experiments import build_table1_report, render_table1_report

    entries = build_table1_report(reps=args.reps, seed=args.seed)
    print(render_table1_report(entries), file=out)
    print(
        "\n(seq/order, par/order = measured mean / paper growth law; see "
        "benchmarks/ for full sweeps and fits)",
        file=out,
    )
    return 0


def _cmd_constants(out) -> int:
    from repro.bounds import KAPPA_CC, KAPPA_P_SIMULATED, PI2_OVER_6

    print(f"kappa_cc (Lemma 5.1, corrected series) = {KAPPA_CC:.6f}", file=out)
    print(f"pi^2/6   (Theorem 5.2)                 = {PI2_OVER_6:.6f}", file=out)
    print(f"kappa_p  (Table 1 footnote, simulated) = {KAPPA_P_SIMULATED:.2f}", file=out)
    print(
        f"par/seq clique slowdown                = {PI2_OVER_6 / KAPPA_CC:.4f}",
        file=out,
    )
    return 0


def _precision_from_args(args):
    """Build the Precision target from --ci-rel/--ci-abs (None if neither)."""
    if args.ci_rel is None and args.ci_abs is None:
        return None
    from repro.core.anytime import Precision

    return Precision(
        ci_rel=args.ci_rel,
        ci_abs=args.ci_abs,
        level=args.level,
        initial=args.reps,
        max_reps=max(args.max_reps, args.reps),
    )


def _cmd_run(args, out) -> int:
    from repro.experiments import estimate_dispersion
    from repro.experiments.runner import LAZY_PROCESSES
    from repro.theory import get_family

    # Validate flag compatibility before building the graph: a bad flag
    # combination must not first pay for (or crash in) a huge construction.
    if args.lazy and args.process not in LAZY_PROCESSES:
        supported = "/".join(sorted(LAZY_PROCESSES))
        print(f"--lazy is only supported for {supported}", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    try:
        precision = _precision_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    kwargs = {"lazy": True} if args.lazy else {}
    if args.state_budget is not None:
        from repro.core.budget import parse_state_budget

        try:
            kwargs["state_budget"] = parse_state_budget(args.state_budget)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.kernels is not None:
        from repro.kernels import get_kernels

        try:
            # resolve eagerly so an unknown/unavailable provider fails
            # here with a clean message, not deep inside a driver
            kwargs["kernels"] = get_kernels(args.kernels)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    fam = get_family(args.family)
    g = _build_graph(fam, args.n, args.seed)
    if g is None:
        return 2
    est = estimate_dispersion(
        g,
        args.process,
        origin=fam.worst_origin(g),
        reps=None if precision is not None else args.reps,
        precision=precision,
        seed=args.seed,
        n_jobs=args.jobs,
        batched={"auto": "auto", "true": True, "false": False}[args.batched],
        **kwargs,
    )
    print(est.format(), file=out)
    print(f"  total steps: {est.total_steps.format()}", file=out)
    return 0


def _cmd_sweep(args, out) -> int:
    from repro.experiments import render_table, sweep_dispersion
    from repro.theory import TABLE1

    try:
        precision = _precision_from_args(args)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    res = sweep_dispersion(
        args.family,
        args.sizes,
        reps=args.reps,
        precision=precision,
        seed=args.seed,
    )
    rows = [
        [r["n"], r["process"], round(r["mean"], 1), round(r["sem"], 1)]
        for r in res.rows()
    ]
    print(render_table(["n", "process", "E[τ]", "sem"], rows), file=out)
    if len(res.sizes()) < 2:
        # requested sizes may all snap to one realisable instance (the
        # sweep dedupes those); a scaling fit needs at least two sizes
        print(
            "(single realised size — need two or more distinct sizes "
            "for scaling fits)",
            file=out,
        )
        return 0
    t1 = TABLE1.get(res.family)
    for proc in res.processes:
        fit = res.power_law(proc)
        line = f"{proc}: exponent {fit.exponent:.2f} (R²={fit.r_squared:.3f})"
        if t1 is not None:
            law = t1.seq if proc == "sequential" else t1.par
            cfit = res.constant_fit(proc, law)
            line += f"; vs {law.label}: constant {cfit.constant:.3g}, trend {cfit.trend:+.2f}"
        print(line, file=out)
    return 0


def _cmd_bounds(args, out) -> int:
    from repro.bounds import (
        proposition_3_9_bound,
        theorem_3_1_threshold,
        theorem_3_6_bound,
        theorem_3_7_tree_bound,
    )
    from repro.experiments import estimate_dispersion, render_table
    from repro.graphs.properties import is_tree
    from repro.theory import get_family

    fam = get_family(args.family)
    g = _build_graph(fam, args.n, args.seed)
    if g is None:
        return 2
    est = estimate_dispersion(
        g, "sequential", origin=fam.worst_origin(g), reps=args.reps, seed=args.seed
    )
    measured = est.dispersion.mean
    rows = [
        ["measured E[τ_seq]", round(measured, 1)],
        ["Thm 3.1 upper: 6 t_hit log₂n", round(theorem_3_1_threshold(g), 1)],
        ["Thm 3.6 lower: 2|E|/Δ", round(theorem_3_6_bound(g), 1)],
        ["Prop 3.9 lower: t_mix (lazy)", round(proposition_3_9_bound(g), 1)],
    ]
    if is_tree(g):
        rows.append(["Thm 3.7 lower: 2n−3", round(theorem_3_7_tree_bound(g), 1)])
    print(render_table(["quantity", "value"], rows), file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "families":
        return _cmd_families(out)
    if args.command == "constants":
        return _cmd_constants(out)
    if args.command == "table1":
        return _cmd_table1(args, out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "sweep":
        return _cmd_sweep(args, out)
    if args.command == "bounds":
        return _cmd_bounds(args, out)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
