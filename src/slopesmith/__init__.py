"""Exact slope analysis of plane curves with a numerical volume side.

The exact half: bivariate Laurent polynomials over the rationals, Newton
polygons and their boundary slopes, edge-class seminorms with exact norm
balls, and two deterministic obstruction pipelines.  The numerical half:
Lobachevsky-function volumes, adaptive Klein-model tetrahedron
quadrature, curve-branch tracking, and line integration of the volume
form.  See the command-line entry point ``slopesmith`` for the report
front end.

Only the numerical half needs numpy.  Its names (those of ``hyperbolic``
and ``tracking``) resolve on first use, so ``import slopesmith`` and the
exact half run without loading numpy until a numerical name is touched.
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
_NUMERICAL = ("hyperbolic", "tracking")

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]
_LAZY = {name: module for module in _NUMERICAL for name in _EXPORTS[module]}

for _module, _names in _EXPORTS.items():
    if _module not in _NUMERICAL:
        _loaded = import_module(f".{_module}", __name__)
        globals().update((name, getattr(_loaded, name)) for name in _names)
del _module, _names, _loaded


def __getattr__(name):
    """Import a numerical name's submodule on first use and keep the value."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
