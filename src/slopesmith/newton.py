"""Newton polygons of bivariate polynomials.

The polygon of a nonzero polynomial is the convex hull of its exponent
support in the lattice ZZ^2.  Edges carry primitive integer directions and
lattice lengths; slopes are read as

    slope = (change in first-variable exponent) / (change in second)

so a vertical edge (second exponent constant) has infinite slope.  The
module also provides edge polynomials, a root-of-unity order scan, and a
minimality test for polygons that are primitive parallelograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .laurent import LaurentPoly2
from .unipoly import UniPoly, _prime_factors, poly_gcd, x_pow_minus_one

Point = tuple[int, int]


class PolygonError(ValueError):
    """Invalid polygon input or request."""


class DegeneratePolygonError(PolygonError):
    """Operation needs a two-dimensional polygon."""


@dataclass(frozen=True)
class EdgeSlope:
    """Rational or infinite slope, stored as a reduced direction pair.

    ``run`` (the second-variable change) is nonnegative; ``run == 0``
    encodes the infinite slope and then ``rise == 1``.
    """

    rise: int
    run: int

    def __post_init__(self):
        rise, run = self.rise, self.run
        if rise == 0 and run == 0:
            raise PolygonError("slope needs a nonzero direction")
        g = gcd(abs(rise), abs(run))
        rise, run = rise // g, run // g
        if run < 0 or (run == 0 and rise < 0):
            rise, run = -rise, -run
        object.__setattr__(self, "rise", rise)
        object.__setattr__(self, "run", run)

    @classmethod
    def from_direction(cls, d_first: int, d_second: int) -> "EdgeSlope":
        return cls(d_first, d_second)

    @classmethod
    def coerce(cls, value) -> "EdgeSlope":
        if isinstance(value, EdgeSlope):
            return value
        if value == math.inf:
            return cls(1, 0)
        if isinstance(value, str):
            if value in ("inf", "oo"):
                return cls(1, 0)
            try:
                value = Fraction(value)
            except (ValueError, ZeroDivisionError) as err:
                raise PolygonError(f"cannot interpret {value!r} as a slope") from err
        if isinstance(value, (int, Fraction)):
            f = Fraction(value)
            return cls(f.numerator, f.denominator)
        raise PolygonError(f"cannot interpret {value!r} as a slope")

    @property
    def is_infinite(self) -> bool:
        return self.run == 0

    @property
    def value(self):
        """Fraction for finite slopes, math.inf for the vertical class."""
        if self.run == 0:
            return math.inf
        return Fraction(self.rise, self.run)

    def sort_key(self):
        # Finite slopes in increasing order, the infinite class last.
        return (1, Fraction(0)) if self.is_infinite else (0, self.value)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else str(Fraction(self.rise, self.run))


@dataclass(frozen=True)
class Edge:
    start: Point
    direction: Point  # primitive
    length: int       # lattice length, >= 1

    @property
    def end(self) -> Point:
        return (
            self.start[0] + self.length * self.direction[0],
            self.start[1] + self.length * self.direction[1],
        )

    @property
    def slope(self) -> EdgeSlope:
        return EdgeSlope.from_direction(*self.direction)

    def lattice_points(self) -> list[Point]:
        return [
            (self.start[0] + t * self.direction[0], self.start[1] + t * self.direction[1])
            for t in range(self.length + 1)
        ]


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex hull of a support set.

    ``vertices`` are counterclockwise, strictly convex, starting at the
    lexicographically smallest vertex.  ``degenerate`` marks hulls that are
    a single point or a segment.
    """

    vertices: tuple[Point, ...]
    edges: tuple[Edge, ...]
    degenerate: bool

    def slope_classes(self) -> dict[EdgeSlope, list[Edge]]:
        classes: dict[EdgeSlope, list[Edge]] = {}
        for e in self.edges:
            classes.setdefault(e.slope, []).append(e)
        return classes

    def is_parallelogram(self) -> bool:
        return is_parallelogram(self.vertices)


def is_parallelogram(vertices) -> bool:
    """Four vertices in cyclic order whose diagonals share their midpoint."""
    if len(vertices) != 4:
        return False
    v0, v1, v2, v3 = vertices
    return (v0[0] + v2[0], v0[1] + v2[1]) == (v1[0] + v3[0], v1[1] + v3[1])


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: set[Point]) -> list[Point]:
    pts = sorted(points)
    if len(pts) <= 1:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) > 1 else pts[:1]


def _edges_of(vertices: list[Point]) -> list[Edge]:
    edges = []
    n = len(vertices)
    for k in range(n):
        v, w = vertices[k], vertices[(k + 1) % n]
        dx, dy = w[0] - v[0], w[1] - v[1]
        g = gcd(abs(dx), abs(dy))
        edges.append(Edge(v, (dx // g, dy // g), g))
    return edges


def newton_polygon(poly: LaurentPoly2) -> NewtonPolygon:
    """Hull of the support of a nonzero normalized polynomial."""
    if poly.is_zero():
        raise PolygonError("zero polynomial has no polygon")
    if not poly.is_normalized():
        raise PolygonError("polynomial must be normalized first")
    hull = _convex_hull(poly.support())
    if len(hull) == 1:
        return NewtonPolygon((hull[0],), (), True)
    if len(hull) == 2:
        return NewtonPolygon(tuple(hull), tuple(_edges_of(hull)[:1]), True)
    return NewtonPolygon(tuple(hull), tuple(_edges_of(hull)), False)


def boundary_slopes(polygon: NewtonPolygon) -> set[EdgeSlope]:
    """One slope per parallel edge class."""
    if polygon.degenerate:
        raise DegeneratePolygonError("degenerate polygon has no slope set")
    return {e.slope for e in polygon.edges}


def axis_diameter(polygon: NewtonPolygon, axis: int) -> int:
    """Width of the projection onto exponent axis 0 or 1."""
    if axis not in (0, 1):
        raise PolygonError(f"axis must be 0 or 1, got {axis!r}")
    vals = [v[axis] for v in polygon.vertices]
    return max(vals) - min(vals)


def edge_polynomial(poly: LaurentPoly2, edge: Edge) -> UniPoly:
    """Coefficients of ``poly`` along an edge, by lattice position."""
    polygon = newton_polygon(poly)
    if edge not in polygon.edges:
        raise PolygonError(f"edge {edge} is not on the polygon of this polynomial")
    return UniPoly([poly.coeff(pt) for pt in edge.lattice_points()])


def _totient(n: int) -> int:
    """Euler's phi by trial division (unity_order asks only for n <= 2 deg^2)."""
    phi = n
    for q in _prime_factors(n):
        phi -= phi // q
    return phi


def unity_order(p: UniPoly, bound: int = 120) -> list[int]:
    """Orders n <= bound at which p shares a factor with x^n - 1.

    Each factor is reported at its minimal order only: a detected common
    factor is divided out before larger n are tried, so n is reported
    exactly when the cyclotomic polynomial of order n divides p.  Empty
    list means no root of unity of order up to the bound divides p.

    The scan is complete for every order <= bound, yet its work depends on
    deg p only.  A root of order n has degree phi(n) over the rationals,
    and phi(n) >= sqrt(n/2), so only the n with phi(n) <= deg p, all of
    them <= 2 deg^2, can match; for the other n the gcd is trivial and is
    skipped.  The remaining part keeps every undetected root (its
    cyclotomic factor still divides it), so its degree bounds the scan.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    work, _ = p.shift_down()
    orders: list[int] = []
    for n in range(1, bound + 1):
        deg = work.degree()
        if n > 2 * deg * deg:
            break
        if _totient(n) > deg:
            continue
        g = poly_gcd(work, x_pow_minus_one(n))
        if g.degree() >= 1:
            orders.append(n)
            while (split := divmod(work, g))[1].is_zero():
                work = split[0]
    return orders


@dataclass(frozen=True)
class MinimalityReport:
    verdict: str  # "minimal" | "possibly-factorable"
    certificate: tuple[str, ...]
    witness: tuple[LaurentPoly2, LaurentPoly2] | None = None


def minimality_check(poly: LaurentPoly2, expected_slopes) -> MinimalityReport:
    """Decide whether a proper factor could carry the expected slope set.

    For a parallelogram polygon with primitive edges the answer is exact:
    any factor whose polygon shows both slope classes has per-axis
    diameters at least the sum of the primitive-edge contributions, which
    equals the polygon's own diameters, so such a factor is everything.
    The only remaining factorizations are products of two binomials, which
    are detected (and returned as a witness) from the corner coefficients.
    """
    polygon = newton_polygon(poly)
    if polygon.degenerate:
        raise DegeneratePolygonError("degenerate polygon")
    expected = {EdgeSlope.coerce(s) for s in expected_slopes}
    actual = boundary_slopes(polygon)
    if expected != actual:
        raise PolygonError(
            f"expected slopes {sorted(map(str, expected))} do not match the "
            f"polygon slopes {sorted(map(str, actual))}"
        )

    cert: list[str] = [
        "slope classes: " + ", ".join(str(s) for s in sorted(actual, key=EdgeSlope.sort_key))
    ]
    if not polygon.is_parallelogram():
        cert.append(
            "polygon is not a parallelogram; the two-slope diameter argument "
            "does not pin down factors"
        )
        return MinimalityReport("possibly-factorable", tuple(cert))

    v0, v1, v2, v3 = polygon.vertices
    e01, e12 = polygon.edges[0], polygon.edges[1]
    d1, k1 = e01.direction, e01.length
    d2, k2 = e12.direction, e12.length
    diam1, diam2 = axis_diameter(polygon, 0), axis_diameter(polygon, 1)
    bound1 = abs(d1[0]) + abs(d2[0])
    bound2 = abs(d1[1]) + abs(d2[1])
    cert.append(
        f"a factor carrying both slope classes has axis diameters >= "
        f"({bound1}, {bound2}); the polygon has ({diam1}, {diam2})"
    )

    if k1 > 1 or k2 > 1:
        cert.append(
            f"edge lattice lengths ({k1}, {k2}) exceed 1: the diameter bound "
            "leaves room for a smaller factor with the same slopes"
        )
        return MinimalityReport("possibly-factorable", tuple(cert))

    cert.append(
        "edge lattice lengths are (1, 1): a factor with both slope classes "
        "meets the diameter bound with equality and is the whole polynomial"
    )

    # Remaining risk: a product of two binomials supported on the corners.
    corners = {v0, v1, v2, v3}
    if poly.support() != corners:
        cert.append("support is not the corner set alone: no binomial splitting")
        return MinimalityReport("minimal", tuple(cert))
    if poly.coeff(v0) * poly.coeff(v2) != poly.coeff(v1) * poly.coeff(v3):
        cert.append("corner coefficient cross-products differ: no binomial splitting")
        return MinimalityReport("minimal", tuple(cert))

    # Construct the binomial witness and verify it exactly.
    f1 = LaurentPoly2(
        {(0, 0): poly.coeff(v0), tuple(d1): poly.coeff(v1)}, poly.var_names
    )
    f2 = LaurentPoly2(
        {v0: Fraction(1), (v0[0] + d2[0], v0[1] + d2[1]): poly.coeff(v3) / poly.coeff(v0)},
        poly.var_names,
    )
    if f1 * f2 != poly:
        raise PolygonError("corner binomials do not multiply back to the polynomial")
    cert.append("binomial splitting found from the corner coefficients")
    return MinimalityReport("possibly-factorable", tuple(cert), witness=(f1, f2))
