"""Peripheral seminorms reconstructed from Newton-polygon edge data.

A polygon edge of slope r/s (first-variable change over second) gives a
linear functional vanishing on the peripheral class (r, s); its weight is
the edge lattice length.  The seminorm of a class is the weighted sum of
absolute functional values.  When the functionals span the dual plane the
unit-scale ball (radius = minimal nonzero lattice norm) is a symmetric
convex polygon whose vertices sit on the kernel rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .newton import EdgeSlope, NewtonPolygon, DegeneratePolygonError, _cross, is_parallelogram


class SeminormError(ValueError):
    pass


class DegenerateSeminormError(SeminormError):
    pass


class FundamentalPolygonError(SeminormError):
    pass


@dataclass(frozen=True)
class PeripheralClass:
    """Integer homology class a*(first basis) + b*(second basis)."""

    a: int
    b: int

    @property
    def slope(self):
        if self.b == 0:
            if self.a == 0:
                raise SeminormError("zero class has no slope")
            return math.inf
        return Fraction(self.a, self.b)

    def is_primitive(self) -> bool:
        return gcd(abs(self.a), abs(self.b)) == 1

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


@dataclass(frozen=True)
class Seminorm:
    """Weighted sum of absolute linear functionals on peripheral classes.

    Each functional is (q, p, weight): the value on class (a, b) is
    weight * |q*a + p*b|.
    """

    functionals: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not self.functionals:
            raise SeminormError("need at least one functional")
        for q, p, d in self.functionals:
            if (q, p) == (0, 0):
                raise SeminormError("zero functional")
            if gcd(abs(q), abs(p)) != 1:
                raise SeminormError(f"functional ({q}, {p}) is not primitive")
            if d < 1:
                raise SeminormError("weights must be positive integers")

    def evaluate(self, cls: PeripheralClass) -> Fraction:
        return Fraction(sum(d * abs(q * cls.a + p * cls.b) for q, p, d in self.functionals))

    def is_norm(self) -> bool:
        funcs = self.functionals
        return any(
            _cross((0, 0), funcs[i][:2], funcs[j][:2]) != 0
            for i in range(len(funcs))
            for j in range(i + 1, len(funcs))
        )

    def kernel_classes(self) -> list[PeripheralClass]:
        """One primitive class per functional, spanning its kernel line."""
        out = []
        for q, p, _ in self.functionals:
            kernel = EdgeSlope(-p, q)
            out.append(PeripheralClass(kernel.rise, kernel.run))
        return out


@dataclass(frozen=True)
class NormBall:
    """Ball of radius r, the minimal nonzero lattice norm."""

    vertices: tuple[tuple[Fraction, Fraction], ...]
    radius: Fraction


def _functional_for_slope(slope: EdgeSlope) -> tuple[int, int]:
    # Kernel class is (rise, run); (run, -rise) vanishes there.  Read as
    # EdgeSlope(p, q), the functional (q, p) gets q >= 0, and p > 0 if q = 0.
    functional = EdgeSlope(-slope.rise, slope.run)
    return functional.run, functional.rise


def seminorm_from_polygon(polygon: NewtonPolygon) -> Seminorm:
    """One functional per parallel edge class, weighted by lattice length.

    Parallel edges of unequal length (possible for non-symmetric polygons)
    contribute their maximal length; the polygons this package targets are
    centrally symmetric so the choice never fires there.
    """
    if polygon.degenerate:
        raise DegeneratePolygonError("degenerate polygon gives no seminorm")
    funcs: dict[tuple[int, int], int] = {}
    for slope, edges in sorted(
        polygon.slope_classes().items(), key=lambda kv: kv[0].sort_key()
    ):
        weight = max(e.length for e in edges)
        funcs[_functional_for_slope(slope)] = weight
    return Seminorm(tuple((q, p, d) for (q, p), d in funcs.items()))


def eval_norm(seminorm: Seminorm, cls: PeripheralClass) -> Fraction:
    return seminorm.evaluate(cls)


def _ccw_key(v: tuple[Fraction, Fraction]) -> tuple:
    """Counter-clockwise order from the positive x-axis: the half-plane of
    angles [0, pi) before [pi, 2*pi), then its axis ray, then -x/y ascending."""
    x, y = v
    half = 0 if y > 0 or (y == 0 and x > 0) else 1
    return (half, 0) if y == 0 else (half, 1, -x / y)


def ball_polygon(seminorm: Seminorm) -> NormBall:
    """Vertices of {v : norm(v) <= r} with r the minimal lattice norm.

    The vertices lie on the kernel rays of the functionals, scaled to
    norm r; r itself comes from an exact search over the lattice points
    inside the bounding box of the candidate ball.
    """
    if not seminorm.is_norm():
        raise DegenerateSeminormError("functionals are all parallel; ball is a strip")
    kernels = seminorm.kernel_classes()
    candidates = [PeripheralClass(1, 0), PeripheralClass(0, 1)] + kernels
    r_ub = min(seminorm.evaluate(c) for c in candidates if (c.a, c.b) != (0, 0))
    # Ball of radius r_ub has extreme coordinates on the kernel rays.
    x_max = max(Fraction(abs(k.a)) * r_ub / seminorm.evaluate(k) for k in kernels)
    y_max = max(Fraction(abs(k.b)) * r_ub / seminorm.evaluate(k) for k in kernels)
    radius = r_ub
    for x in range(-math.floor(x_max), math.floor(x_max) + 1):
        for y in range(-math.floor(y_max), math.floor(y_max) + 1):
            if (x, y) == (0, 0):
                continue
            radius = min(radius, seminorm.evaluate(PeripheralClass(x, y)))
    vertices: set[tuple[Fraction, Fraction]] = set()
    for k in kernels:
        nk = seminorm.evaluate(k)
        scale = radius / nk
        vertices.add((scale * k.a, scale * k.b))
        vertices.add((-scale * k.a, -scale * k.b))
    ordered = sorted(vertices, key=_ccw_key)
    return NormBall(tuple(ordered), radius)


def slope_set_diameter(slopes):
    """max - min of a nonempty slope set; infinite if any slope is."""
    values = [EdgeSlope.coerce(s).value for s in slopes]
    if not values:
        raise SeminormError("empty slope set has no diameter")
    if any(v == math.inf for v in values):
        return math.inf
    return max(values) - min(values)


def ideal_point_slope(pole_beta: int, pole_mu: int) -> Fraction:
    """|slope| detected at an ideal point from two pole orders."""
    if pole_beta < 0 or pole_mu < 0:
        raise SeminormError("pole orders are nonnegative")
    if pole_mu == 0:
        raise SeminormError("slope undefined: the reference trace has no pole here")
    return Fraction(pole_beta, pole_mu)


def diameter_lower_bound(t) -> Fraction:
    """1/(2t(1-t)) for rational t in (0,1); minimum 2 at t = 1/2."""
    t = Fraction(t)
    if not 0 < t < 1:
        raise SeminormError("t must lie strictly between 0 and 1")
    return 1 / (2 * t * (1 - t))


@dataclass(frozen=True)
class FundamentalPolygonReport:
    passed: bool
    area: Fraction
    mu_at_edge_midpoint: bool
    slopes_ok: bool
    p: int | None
    q: int | None
    reasons: tuple[str, ...]


def _shoelace_area(vertices) -> Fraction:
    total = Fraction(0)
    n = len(vertices)
    for k in range(n):
        total += _cross((0, 0), vertices[k], vertices[(k + 1) % n])
    return abs(total) / 2


def fundamental_polygon_check(
    ball: NormBall, mu: PeripheralClass
) -> FundamentalPolygonReport:
    """Check the parallelogram conditions on a norm ball.

    (i) area 4, (ii) mu at the midpoint of an edge, (iii) the two vertex
    slopes of the form -p/q and 2 - p/q with 0 <= p <= q; returns (p, q)
    inside the report when everything holds.
    """
    verts = ball.vertices
    if len(verts) != 4:
        raise FundamentalPolygonError(f"ball has {len(verts)} vertices, not 4")
    if not is_parallelogram(verts):
        raise FundamentalPolygonError("ball is not a parallelogram")

    reasons: list[str] = []
    area = _shoelace_area(verts)
    if area != 4:
        reasons.append(f"area is {area}, not 4")

    mu_pt = (Fraction(mu.a), Fraction(mu.b))
    midpoints = [
        ((verts[k][0] + verts[(k + 1) % 4][0]) / 2, (verts[k][1] + verts[(k + 1) % 4][1]) / 2)
        for k in range(4)
    ]
    mu_mid = mu_pt in midpoints
    if not mu_mid:
        reasons.append(f"mu = {mu} is not the midpoint of any edge")

    slopes_ok = False
    p = q = None
    vertex_slopes: set[Fraction] = set()
    finite = True
    for x, y in verts:
        if y == 0:
            finite = False
            break
        vertex_slopes.add(Fraction(x, y))
    if not finite:
        reasons.append("a vertex lies on the first axis (infinite vertex slope)")
    elif len(vertex_slopes) != 2:
        reasons.append(f"expected 2 distinct vertex slopes, got {len(vertex_slopes)}")
    else:
        s_min, s_max = min(vertex_slopes), max(vertex_slopes)
        if s_max - s_min != 2:
            reasons.append(f"vertex slopes {s_min}, {s_max} do not differ by 2")
        elif not -1 <= s_min <= 0:
            reasons.append(f"lower vertex slope {s_min} is not of the form -p/q, 0 <= p <= q")
        else:
            slopes_ok = True
            neg = -s_min
            p, q = neg.numerator, neg.denominator

    passed = not reasons
    return FundamentalPolygonReport(
        passed=passed,
        area=area,
        mu_at_edge_midpoint=mu_mid,
        slopes_ok=slopes_ok,
        p=p,
        q=q,
        reasons=tuple(reasons),
    )
