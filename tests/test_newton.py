"""Unit tests for Newton polygons, slopes and minimality certificates."""

from fractions import Fraction

import pytest

from slopesmith import (
    DegeneratePolygonError,
    EdgeSlope,
    PolygonError,
    UniPoly,
    axis_diameter,
    boundary_slopes,
    edge_polynomial,
    eigenvalue_ratio_curve,
    load_corpus_entry,
    minimality_check,
    newton_polygon,
    parse_poly,
    prescribed_slope_curve,
    unity_order,
)
from slopesmith.unipoly import poly_gcd
from _oracles import brute_hull, is_parallelogram, shoelace


def test_polygon_matches_brute_hull_on_examples():
    polys = [
        eigenvalue_ratio_curve(Fraction(2)),
        prescribed_slope_curve(1, 2, 1),
        prescribed_slope_curve(2, 3, 5),
        load_corpus_entry("fig8-knot").poly,
        parse_poly("1 - m - b + m*b"),
        parse_poly("m^-2*b + m^2*b^-1 + 1 + b^3").normalize(),
    ]
    for p in polys:
        pg = newton_polygon(p)
        expect = [(int(x), int(y)) for x, y in brute_hull(p.support())]
        assert list(pg.vertices) == expect


def test_diamond_polygon_shape():
    pg = newton_polygon(eigenvalue_ratio_curve(Fraction(2)))
    assert pg.vertices == ((0, 1), (1, 0), (2, 1), (1, 2))
    assert pg.is_parallelogram()
    assert not pg.degenerate
    assert {e.length for e in pg.edges} == {1}


def test_edges_walk_counterclockwise_and_close():
    pg = newton_polygon(prescribed_slope_curve(1, 2, 1))
    walk = pg.vertices[0]
    for edge in pg.edges:
        assert edge.start == walk
        walk = edge.end
    assert walk == pg.vertices[0]
    assert shoelace(pg.vertices) > 0


def test_fig8_polygon_frozen_values():
    p = load_corpus_entry("fig8-knot").poly
    pg = newton_polygon(p)
    assert pg.vertices == ((0, 1), (4, 0), (8, 1), (4, 2))
    slopes = boundary_slopes(pg)
    assert {s.value for s in slopes} == {Fraction(-4), Fraction(4)}
    assert axis_diameter(pg, 0) == 8
    assert axis_diameter(pg, 1) == 2


def test_slope_convention_first_exponent_per_second():
    # edge from (1, 0) to (0, 2) must read as slope -1/2
    pg = newton_polygon(prescribed_slope_curve(1, 2, 1))
    values = sorted(s.value for s in boundary_slopes(pg))
    assert values == [Fraction(-1, 2), Fraction(3, 2)]


def test_edge_slope_normalization():
    assert EdgeSlope.from_direction(2, 4) == EdgeSlope(1, 2)
    assert EdgeSlope.from_direction(-2, -4) == EdgeSlope(1, 2)
    assert EdgeSlope.from_direction(3, 0) == EdgeSlope(1, 0)
    assert EdgeSlope.from_direction(-3, 0) == EdgeSlope(1, 0)
    assert EdgeSlope(1, 0).is_infinite
    assert not EdgeSlope(0, 1).is_infinite
    assert EdgeSlope(3, 4).value == Fraction(3, 4)
    assert EdgeSlope.coerce(Fraction(-1, 2)) == EdgeSlope(-1, 2)
    assert EdgeSlope.coerce(2) == EdgeSlope(2, 1)


def test_rectangle_slopes_are_zero_and_infinity():
    p = parse_poly("1 + m^2 + b + m^2*b")
    slopes = boundary_slopes(newton_polygon(p))
    assert slopes == {EdgeSlope(0, 1), EdgeSlope(1, 0)}


def test_degenerate_polygons():
    mono = newton_polygon(parse_poly("7*m^2*b^-1").normalize())
    assert mono.degenerate
    assert mono.vertices == ((0, 0),)
    assert mono.edges == ()
    seg = newton_polygon(parse_poly("m*b + m^3*b^2").normalize())
    assert seg.degenerate
    with pytest.raises(PolygonError):
        newton_polygon(parse_poly("m - m + 1") - 1)
    # polygons are taken on normalized polynomials only
    with pytest.raises(PolygonError):
        newton_polygon(parse_poly("m^-1 + b"))


def test_axis_diameter_against_support():
    p = parse_poly("m^-2*b + m^2*b^-1 + 1 + b^3").normalize()
    pg = newton_polygon(p)
    assert axis_diameter(pg, 0) == 4
    assert axis_diameter(pg, 1) == 4
    for axis in (2, "first"):
        with pytest.raises(PolygonError):
            axis_diameter(pg, axis)


def test_edge_polynomial_collects_edge_coefficients():
    curve = eigenvalue_ratio_curve(Fraction(2))
    pg = newton_polygon(curve)
    e = pg.edges[0]  # from (0, 1) toward (1, 0)
    u = edge_polynomial(curve, e)
    # terms on that edge: -b at (0,1) and 2m at (1,0)
    assert u == UniPoly([-1, 2])
    # lattice points on the edge are start + k*direction
    assert e.lattice_points() == [(0, 1), (1, 0)]


def test_edge_polynomial_rejects_foreign_edge():
    curve = eigenvalue_ratio_curve(Fraction(2))
    other = newton_polygon(load_corpus_entry("fig8-knot").poly).edges[0]
    with pytest.raises(PolygonError):
        edge_polynomial(curve, other)


def test_unity_order_detects_cyclotomic_roots():
    assert unity_order(UniPoly([-1, 0, 1])) == [1, 2]       # x^2 - 1
    assert unity_order(UniPoly([1, 1, 1])) == [3]           # x^2 + x + 1
    assert unity_order(UniPoly([1, 0, 1])) == [4]           # x^2 + 1
    assert unity_order(UniPoly([-2, 1])) == []              # root 2
    assert unity_order(UniPoly([1, 1])) == [2]              # root -1


def test_unity_order_respects_bound():
    # x^2 - x + 1 has the primitive sixth roots of unity
    p = UniPoly([1, -1, 1])
    assert unity_order(p, bound=5) == []
    assert unity_order(p, bound=6) == [6]


def test_unity_order_work_depends_on_degree_not_bound(monkeypatch):
    from slopesmith import newton

    calls = []

    def counting_gcd(a, b):
        calls.append(b.degree())
        return poly_gcd(a, b)

    monkeypatch.setattr(newton, "poly_gcd", counting_gcd)
    # A linear p can only have a root of order 1 or 2 (phi(n) <= 1).
    assert unity_order(UniPoly([-2, 1]), bound=10**6) == []
    assert len(calls) <= 2
    assert unity_order(UniPoly([1, -1, 1]), bound=10**6) == [6]


def test_minimality_two_slope_parallelogram():
    rep = minimality_check(
        prescribed_slope_curve(2, 3, 5), [Fraction(-2, 3), Fraction(4, 3)]
    )
    assert rep.verdict == "minimal"
    assert rep.witness is None
    assert any("diameter" in line for line in rep.certificate)


def test_minimality_binomial_witness():
    rep = minimality_check(
        parse_poly("1 - m - b + m*b"), [Fraction(0), EdgeSlope(1, 0)]
    )
    assert rep.verdict == "possibly-factorable"
    assert rep.witness is not None
    f1, f2 = rep.witness
    product = f1 * f2
    target = parse_poly("1 - m - b + m*b")
    # witness reproduces the polynomial up to a unit monomial scale
    ratio_support = {
        (i1 - i2, j1 - j2)
        for (i1, j1) in product.support()
        for (i2, j2) in target.support()
    }
    assert sorted(str(w) for w in rep.witness) == ["1 - b", "1 - m"]
    assert product == target or product == target * -1 or (0, 0) in ratio_support


def test_minimality_fig8_knot():
    rep = minimality_check(
        load_corpus_entry("fig8-knot").poly, [Fraction(-4), Fraction(4)]
    )
    assert rep.verdict == "minimal"


def test_minimality_slope_mismatch_raises():
    # A slope that does not match, and two texts that are no slope at all.
    for slope in (Fraction(0), "1/0", "x"):
        with pytest.raises(PolygonError):
            minimality_check(prescribed_slope_curve(1, 2, 1), [slope])


def test_minimality_degenerate_raises():
    with pytest.raises(DegeneratePolygonError):
        minimality_check(parse_poly("m - b"), [Fraction(-1)])
