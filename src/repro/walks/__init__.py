"""Random-walk engines: vectorised batch stepping, fast single walks,
Monte-Carlo hitting/cover estimators and Poissonisation helpers."""

from repro._lazy import lazy_exports

#: Module -> the names this package takes from it; each name's
#: module is imported on first access (:mod:`repro._lazy`).
_EXPORTS = {
    "repro.walks.continuous": ("exponential_race", "poissonise_steps"),
    "repro.walks.empirical": (
        "empirical_cover_times",
        "empirical_hitting_times",
        "empirical_max_hitting_of_path",
        "empirical_set_hitting_times",
    ),
    "repro.walks.engine": ("WalkEngine",),
    "repro.walks.single": ("SingleWalkKernel", "random_walk", "walk_until_hit"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
