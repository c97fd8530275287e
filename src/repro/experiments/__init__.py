"""Experiment harness: Monte-Carlo runner, sweeps, fits, tables, persistence."""

from repro._lazy import lazy_exports

#: Module -> the names this package takes from it; each name's
#: module is imported on first access (:mod:`repro._lazy`).
_EXPORTS = {
    "repro.experiments.fitting": (
        "ConstantFit",
        "PowerLawFit",
        "fit_constant",
        "fit_power_law",
    ),
    "repro.core.anytime": ("AdaptiveInfo", "Precision", "TauAccumulator"),
    "repro.experiments.fanout": ("SharedGraph", "fanout_estimate", "plan_shards"),
    "repro.experiments.io": ("load_json", "save_json", "to_jsonable"),
    "repro.experiments.runner": (
        "LAZY_PROCESSES",
        "PROCESS_DRIVERS",
        "DispersionEstimate",
        "driver_kwargs",
        "estimate_dispersion",
        "run_process",
    ),
    "repro.experiments.stats": (
        "SummaryStats",
        "bootstrap_ci",
        "empirical_quantile",
        "summarize",
    ),
    "repro.experiments.sweep": ("SweepPoint", "SweepResult", "sweep_dispersion"),
    "repro.experiments.table1_report": (
        "Table1Entry",
        "build_table1_report",
        "render_table1_report",
    ),
    "repro.experiments.tables": ("format_value", "render_table"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
