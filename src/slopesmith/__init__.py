"""Exact slope analysis of plane curves with a numerical volume side.

The exact half: bivariate Laurent polynomials over the rationals, Newton
polygons and their boundary slopes, edge-class seminorms with exact norm
balls, and two deterministic obstruction pipelines.  The numerical half:
Lobachevsky-function volumes, adaptive Klein-model tetrahedron
quadrature, curve-branch tracking, and line integration of the volume
form.  See the command-line entry point ``slopesmith`` for the report
front end.

``import slopesmith`` imports no submodule.  Each public name resolves on
first use by importing the submodule that defines it, so the exact half
runs without loading numpy, and the numerical half loads only the exact
modules it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by submodule; __all__ and the lazy table are both built here.
_EXPORTS = {
    "laurent": (
        "LaurentPoly2", "parse_poly", "LaurentError", "PolyParseError",
        "ExponentOverflowError", "EvaluationError",
    ),
    "unipoly": ("UniPoly", "poly_gcd", "exact_sqrt", "rational_roots", "irreducible_over_q"),
    "newton": (
        "EdgeSlope", "Edge", "NewtonPolygon", "newton_polygon", "boundary_slopes",
        "axis_diameter", "edge_polynomial", "unity_order", "minimality_check",
        "MinimalityReport", "PolygonError", "DegeneratePolygonError",
    ),
    "seminorm": (
        "PeripheralClass", "Seminorm", "NormBall", "seminorm_from_polygon",
        "eval_norm", "ball_polygon", "slope_set_diameter", "ideal_point_slope",
        "diameter_lower_bound", "fundamental_polygon_check",
        "FundamentalPolygonReport", "SeminormError", "DegenerateSeminormError",
        "FundamentalPolygonError",
    ),
    "obstruction": (
        "eigenvalue_ratio_curve", "prescribed_slope_curve", "irreducibility_check",
        "IrreducibilityReport", "tangent_at_origin", "branch_orders", "BranchData",
        "tree_invariants", "TreeInvariants", "detect_symmetries",
        "ratio_constant_check", "RatioReport", "cyclic_verdict", "diameter_verdict",
        "ObstructionReport", "EvidenceStep", "ObstructionError",
        "SingularPointError", "NonTransverseError", "UndeterminedRatioError",
    ),
    "hyperbolic": (
        "lobachevsky", "ideal_tet_volume", "REGULAR_IDEAL_VOLUME",
        "KleinTetrahedron", "ideal_regular_tet", "regular_tet", "klein_volume",
        "klein_distance", "klein_angle", "face_angles", "face_angle_check",
        "FaceAngleReport", "volume_defect_report", "DefectReport", "DefectRow",
        "HyperbolicError", "QuadratureError", "SamplerError",
    ),
    "tracking": (
        "CurvePath", "track_curve", "fiber_roots", "integrate_volume_form",
        "volume_change", "TrackingError", "RootSolveError",
        "DiscriminantCollisionError", "RefinementNeededError",
    ),
    "corpus": (
        "CorpusEntry", "corpus_dir", "list_corpus", "load_corpus_entry",
        "load_poly_file", "resolve_poly_source", "CorpusError",
    ),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """Import a public name's submodule on first use and keep the value."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
