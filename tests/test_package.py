"""The package surface: ehrwt re-exports each module's __all__ and nothing else."""

import ehrwt
from ehrwt import errors, geometry, hilbert, polynomials, weighted

# the names ehrwt exported before the modules' __all__ lists became its surface
EARLIER_NAMES = {
    "ConsistencyError", "EhrwtError", "EnumerationLimitError", "PolytopeFormatError",
    "UndeterminedFitError", "WeightParseError",
    "Graph", "LatticePolytope", "bipartite_components", "contains", "dimension",
    "edge_polytope", "facets", "interior_lattice_points", "lattice_points",
    "ImageGapReport", "LinearWeightTuple", "hilbert_polynomial", "hilbert_series",
    "hilbert_value", "image_gap_report", "image_polytope",
    "RationalGF", "UniPoly", "WeightPoly", "cube_series", "eulerian", "eval_weight",
    "expand", "format_polynomial", "format_series", "gf_of_polynomial",
    "lagrange_interpolate", "parse_weight",
    "ReciprocityReport", "VanishingReport", "check_negative_root_vanishing",
    "ehrhart_polynomial", "integral_leading", "linear_lift", "predicted_degree",
    "reciprocity_check", "weighted_by_affine_lift", "weighted_ehrhart_polynomial",
    "weighted_series", "weighted_sum",
}


def test_package_all_is_the_union_of_the_modules():
    modules = (errors, geometry, hilbert, polynomials, weighted)
    union = [name for module in modules for name in module.__all__]
    assert len(EARLIER_NAMES) == 46
    assert len(set(ehrwt.__all__)) == len(ehrwt.__all__)
    assert ehrwt.__all__ == union
    assert EARLIER_NAMES <= set(ehrwt.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ehrwt, name) is getattr(module, name), name
