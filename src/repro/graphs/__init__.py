"""Graph substrate: CSR representation, generators, structural properties.

Quick start::

    from repro.graphs import cycle_graph
    g = cycle_graph(64)
    g.n, g.num_edges, g.is_regular()
"""

from repro._lazy import lazy_exports

#: Module -> the names this package takes from it; each name's
#: module is imported on first access (:mod:`repro._lazy`).
_EXPORTS = {
    "repro.graphs.convert": ("from_networkx", "to_networkx"),
    "repro.graphs.csr": ("Graph", "check_spec_counts", "neighbor_kernel"),
    "repro.graphs.implicit": (
        "ImplicitGraph",
        "ImplicitGraphSpec",
        "implicit_graph",
    ),
    "repro.graphs.generators": (
        "barbell_graph",
        "binary_tree_with_path",
        "clique_with_hair",
        "clique_with_hair_on_pimple",
        "comb_graph",
        "complete_binary_tree",
        "complete_graph",
        "cycle_graph",
        "double_star",
        "erdos_renyi_graph",
        "grid_graph",
        "hypercube_graph",
        "largest_component",
        "lollipop_connector",
        "lollipop_graph",
        "path_graph",
        "random_regular_graph",
        "star_graph",
        "torus_graph",
    ),
    "repro.graphs.properties": (
        "bfs_distances",
        "degree_histogram",
        "diameter",
        "eccentricity",
        "is_tree",
        "leaves",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
