"""repro — reproduction of *The Dispersion Time of Random Walks on Finite
Graphs* (Rivera, Stauffer, Sauerwald, Sylvester; SPAA 2019).

Subpackages
-----------
``repro.graphs``
    CSR graph type + every graph family the paper analyses.
``repro.markov``
    Exact Markov-chain quantities: hitting/mixing times, spectra,
    resistances, set hitting.
``repro.walks``
    Vectorised walk engines and Monte-Carlo estimators.
``repro.core``
    The dispersion processes (Sequential/Parallel/Uniform/CTU-IDLA) and the
    Cut & Paste coupling machinery of §4.
``repro.bounds``
    One calculator per theorem (3.1, 3.3, 3.5, 3.6, 3.7, 3.9, C.2-C.5, 5.1).
``repro.theory``
    Table 1 growth-law predictions and the family registry.
``repro.experiments``
    Monte-Carlo runner, sweeps, scaling fits and table rendering.

``import repro`` imports none of them: each subpackage, and each name
of ``repro.core``, ``repro.experiments``, ``repro.graphs`` and
``repro.walks``, is imported on first access (:mod:`repro._lazy`).

Quick start
-----------
>>> from repro import graphs, core
>>> g = graphs.cycle_graph(64)
>>> res = core.parallel_idla(g, seed=0)
>>> res.is_complete_dispersion()
True
"""

from repro._lazy import lazy_exports

__version__ = "0.2.0"

__all__ = [
    "graphs",
    "markov",
    "walks",
    "core",
    "bounds",
    "theory",
    "experiments",
    "utils",
    "__version__",
]

#: Each subpackage is imported on first access (:mod:`repro._lazy`).
_EXPORTS = {f"repro.{name}": (name,) for name in __all__ if name != "__version__"}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
