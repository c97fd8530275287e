#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md from benchmarks/results/*.json.

Each bench persists its result table; this script assembles them into the
paper-vs-measured record, one section per experiment, ordered to follow
the paper (Table 1 rows first, then the theorems).

Run after a full bench pass:

    pytest benchmarks/ --benchmark-only
    python tools/generate_experiments_md.py

CI-friendly forms: ``--allow-missing`` exits 0 even when some result files
are absent (the generated file lists them), so partial bench passes can
still refresh the catalogue; ``--check`` compares the file that *would* be
written against the checked-in EXPERIMENTS.md and exits 1 when they differ
(the CI smoke job runs ``--allow-missing --check`` to fail PRs that update
``benchmarks/results/`` without regenerating the catalogue).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"

# (result-file stem, paper reference, paper claim) in presentation order.
SECTIONS = [
    (
        "table1_path",
        "Table 1 / Thm 5.4",
        "t_seq = t_par = (1±o(1))·E[M] ≈ κ_p n² log n, κ_p ≈ 0.6",
    ),
    ("table1_cycle", "Table 1 / Thm 5.9", "t_seq, t_par = Θ(n² log n)"),
    (
        "table1_grid2d",
        "Table 1 / §5.2.2",
        "Ω(n log n) ≤ t ≤ O(n log² n) — Open Problem 1",
    ),
    ("table1_grid3d", "Table 1 / Thm 5.11", "d ≥ 3 grids: t_seq, t_par = Θ(n)"),
    ("table1_hypercube", "Table 1 / Thm 5.7", "hypercube: t_seq, t_par = Θ(n)"),
    (
        "table1_binary_tree",
        "Table 1 / Thm 5.14",
        "binary tree: t_seq, t_par = Θ(n log² n)",
    ),
    (
        "table1_clique",
        "Table 1 / Thm 5.2",
        "K_n: t_seq ~ κ_cc n (≈1.2552), t_par ~ (π²/6) n (≈1.6449)",
    ),
    ("table1_expander", "Table 1 / Thm 5.5", "expanders: t_seq, t_par = Θ(n)"),
    (
        "table1_support",
        "Table 1 support columns",
        "hitting/mixing/cover orders per family",
    ),
    (
        "domination",
        "Theorem 4.1",
        "τ_seq ⪯ τ_par; total steps equidistributed across schedulers",
    ),
    (
        "exact_oracle",
        "Theorem 4.1 (exact)",
        "E[total steps] equals the exact DP value for every scheduler",
    ),
    (
        "par_seq_ratio",
        "Theorem 4.2 / Open Problem 2",
        "E[τ_par] ≤ O(log n · E[τ_seq]); conjecturally O(1)",
    ),
    (
        "uniform",
        "Theorem 4.7",
        "Uniform-IDLA longest walk ⪯ Parallel-IDLA longest walk",
    ),
    ("ctu_parallel", "Theorem 4.8", "τ_ctu = (1 + o(1)) τ_par"),
    ("lazy_factor", "Theorem 4.3", "lazy IDLA = (2 + o(1)) × non-lazy"),
    (
        "cut_paste",
        "Lemma 4.4 / 4.6",
        "StP/PtS are mutually inverse bijections; StP never shrinks the longest row",
    ),
    ("tail_bound", "Theorem 3.1", "Pr[τ > 6·t_hit·log₂ n] ≤ n⁻²; t = O(t_hit log n)"),
    (
        "set_hitting_bounds",
        "Theorems 3.3 / 3.5 + Lemma C.2",
        "set-hitting sums dominate the lazy dispersion times",
    ),
    (
        "lower_bounds",
        "Theorems 3.6 / 3.7 + Prop 3.9",
        "t_seq ≥ 2|E|/Δ; trees ≥ 2n−3; lazy t_seq ≥ t_mix",
    ),
    (
        "mixing_lower",
        "Proposition 3.9",
        "t_seq = Ω(t_mix), tight up to log n on the cycle",
    ),
    (
        "worst_case",
        "Corollary 3.2 / Prop 5.16",
        "worst cases O(n³ log n) (lollipop) and O(n² log n) (cycle) are tight",
    ),
    (
        "concentration",
        "Proposition 2.1",
        "dispersion time does not concentrate (hairy-clique gadgets)",
    ),
    (
        "hitting_gap",
        "Proposition 3.8",
        "t_hit = Ω(n^{3/2−ε}) ≫ t_seq = O(n log² n) on btree+path",
    ),
    (
        "least_action",
        "Proposition A.1",
        "the hair rule ρ̃ (longer walks) shortens the dispersion time",
    ),
    ("path_kappa", "Thm 5.4 footnote", "κ_p ≈ 0.6 regenerated by simulation"),
    (
        "shape",
        "§1.3 shape theorem (Prop 5.10 ingredient)",
        "IDLA aggregates on Z² are discs with log-scale fluctuations",
    ),
    ("conjecture_61", "Conjecture 6.1", "t_par ≤ t_seq + t_cov"),
    (
        "particle_count",
        "§6.2 variant",
        "parallel dispersion is maximal at m = n particles",
    ),
    (
        "random_origins",
        "§6.2 variant",
        "uniform random origins accelerate dispersion on geometric graphs",
    ),
    (
        "engine_threshold_ablation",
        "implementation ablation",
        "hybrid scalar/vector threshold does not change the dispersion law",
    ),
    (
        "batched_runner",
        "implementation — batched Monte-Carlo runner",
        "lock-step batching of repetitions is ≥3× faster than the serial "
        "runner at reps=100 on the 1024-cycle, with bit-identical samples",
    ),
    (
        "batched_continuous",
        "implementation — batched estimates of the continuous/uniform "
        "processes",
        "batched=True estimates of the tick-scheduled processes (uniform, "
        "CTU, Poissonised sequential), which run the compiled per-repetition "
        "route when a compiled provider is present, are ≥3× faster than the "
        "serial runner at reps=100 on the 1024-cycle, with bit-identical "
        "samples",
    ),
    (
        "fanout",
        "implementation — shared-memory process fan-out",
        "n_jobs=2 shared-memory shard fan-out (batching × processes compose) "
        "is ≥2× faster than the legacy per-repetition pool on the 32×32 grid "
        "at reps=256, bit-identical to the in-process runner, with no leaked "
        "segments",
    ),
    (
        "streaming_buffers",
        "implementation — streaming uniform buffers + scalar tail finisher",
        "bounded streaming buffers lift the old batched memory cap (the "
        "over-cap reps=2560 cycle batch now runs ≥1.5× over serial, "
        "bit-identical), and the scalar tail finisher trims the cycle's "
        "deep settlement tails for the sequential family",
    ),
    (
        "trajectory_store",
        "implementation — chunked per-repetition trajectory store",
        "batched record=True (the last serial-only mode, with faithful_r) "
        "runs ≥2× over the serial recording loop at reps=256 on the "
        "256-cycle, with list-identical trajectories across serial, "
        "batched and fan-out execution",
    ),
    (
        "implicit_scale",
        "implementation — implicit graph families (neighbour-kernel seam)",
        "reps × n = 10⁶ estimates on the implicit cycle and 1000×1000 torus "
        "run with tracemalloc peak below the cost of the CSR indptr/indices "
        "arrays alone (resident graph memory O(1) in m), bit-identical to "
        "the materialised build",
    ),
    (
        "particle_shard",
        "implementation — budgeted resident state (Thm 3.6 / Thm 5.7 scale)",
        "a full-dispersion m = n parallel estimate on the implicit "
        "million-vertex hypercube (t_par = Θ(n), the Thm 3.6 feasibility "
        "floor) completes with the tracemalloc peak of the whole estimate "
        "under the stated 256 MB StateBudget, bit-identical to the "
        "unbudgeted layout that would hold reps × (104·m + n) bytes of "
        "flat driver state; the faithful_r lane scanner replays the "
        "late-run wasted ticks ≥3× faster than the per-tick loop, "
        "bit-identical",
    ),
    (
        "adaptive_reps",
        "implementation — adaptive replication (anytime confidence sequence)",
        "Precision(ci_rel=0.02) stops within a growth factor of the "
        "hindsight-optimal repetition count on both a cheap-rep/noisy-tau "
        "and an expensive-rep/concentrated-tau workload, saving reps over "
        "the fixed max_reps provision, with the top-up bit-identical to "
        "the fixed-reps run on the anchored workload",
    ),
    (
        "compiled_kernels",
        "implementation — compiled inner-loop kernels (REPRO_KERNELS seam)",
        "the compiled kernel provider (cffi C twins) runs the "
        "scalar-tail-dominated sequential workload >= 3x over pure numpy "
        "on the Table-1 cycle (measured ~20x) and never regresses the "
        "parallel lock-step workload below 0.9x, byte-identical to the "
        "numpy provider on every result field",
    ),
]

HEADER = """\
# EXPERIMENTS — paper vs measured

Generated by ``tools/generate_experiments_md.py`` from
``benchmarks/results/*.json`` (written by ``pytest benchmarks/
--benchmark-only``).  Every bench *asserts* the paper's qualitative claim
(winner, growth law, constant ballpark, inequality direction); the tables
below are the measured evidence.  Absolute times are simulator steps, not
the paper's units — the claims under reproduction are shapes and
constants, which are unit-free.

Headline constants (Theorem 5.2): measured ``E[τ_par]/n`` on K₁₀₂₄ lands
within half a percent of π²/6 ≈ 1.6449, and ``E[τ_seq]/n`` tracks the
exact coupon-collector maximum (κ_cc ≈ 1.2552 in the limit; the finite-n
value is reproduced to Monte-Carlo precision).  Note the κ_cc *series* as
printed in the paper contains a typo — see ``repro/bounds/constants.py``.

"""


def render(payload: dict) -> str:
    headers = payload["headers"]
    rows = payload["rows"]
    widths = [len(str(h)) for h in headers]
    srows = [[str(c) for c in r] for r in rows]
    for r in srows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    def line(cells):
        return "| " + " | ".join(str(c).ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(headers), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out += [line(r) for r in srows]
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="exit 0 even when some benchmark result files are absent",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="write nothing; exit 1 if EXPERIMENTS.md is stale",
    )
    args = parser.parse_args(argv)
    chunks = [HEADER]
    missing = []
    for stem, ref, claim in SECTIONS:
        path = RESULTS / f"{stem}.json"
        if not path.exists():
            missing.append(stem)
            continue
        payload = json.loads(path.read_text())
        chunks.append(f"## {ref}\n")
        chunks.append(f"**Paper claim.** {claim}\n")
        chunks.append(
            f"**Bench.** `benchmarks/bench_{stem}.py`"
            if (ROOT / "benchmarks" / f"bench_{stem}.py").exists()
            else f"**Bench.** see `{payload.get('experiment', stem)}`",
        )
        chunks.append("")
        chunks.append(render(payload))
        extra = payload.get("extra")
        if extra:
            chunks.append("")
            for k, v in extra.items():
                chunks.append(f"- {k}: {v}")
        chunks.append("")
    if missing:
        chunks.append(
            "\n*(missing result files: " + ", ".join(missing) + " — run the "
            "bench suite first)*\n"
        )
    content = "\n".join(chunks)
    target = ROOT / "EXPERIMENTS.md"
    if args.check:
        current = target.read_text() if target.exists() else None
        if current != content:
            print(
                "EXPERIMENTS.md is stale — regenerate it with "
                "`python tools/generate_experiments_md.py --allow-missing` "
                "and commit the result"
            )
            return 1
        print(f"EXPERIMENTS.md is up to date ({len(missing)} sections missing)")
        return 0 if not missing or args.allow_missing else 1
    target.write_text(content)
    print(
        f"wrote EXPERIMENTS.md ({len(SECTIONS) - len(missing)} sections, "
        f"{len(missing)} missing)",
    )
    return 0 if not missing or args.allow_missing else 1


if __name__ == "__main__":
    raise SystemExit(main())
