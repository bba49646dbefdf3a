"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with different
algorithms than the library (gift wrapping instead of monotone chain,
dilogarithm instead of a series, divisor enumeration instead of
discriminant analysis, Schlafli's formula instead of quadrature) so that
agreement is meaningful.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath as mp
import sympy as sp

Point = tuple[Fraction, Fraction]


def cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def brute_hull(points) -> list[Point]:
    """Convex hull by gift wrapping, exact rationals.

    Returns vertices counterclockwise starting from the
    lexicographically smallest one.  Collinear non-extreme points are
    dropped.
    """
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if not pts:
        raise ValueError("no points")
    if len(pts) == 1:
        return [pts[0]]
    start = pts[0]
    hull = [start]
    current = start
    while True:
        candidate = pts[0] if pts[0] != current else pts[1]
        for p in pts:
            if p == current:
                continue
            turn = cross(current, candidate, p)
            if turn < 0:
                candidate = p
            elif turn == 0:
                # keep the farthest point on the supporting ray
                da = (candidate[0] - current[0]) ** 2 + (candidate[1] - current[1]) ** 2
                db = (p[0] - current[0]) ** 2 + (p[1] - current[1]) ** 2
                if db > da:
                    candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
        if len(hull) > len(pts):
            raise RuntimeError("gift wrapping failed to close")
    if len(hull) == 2 and hull[0] == hull[1]:
        return [hull[0]]
    return hull


def shoelace(vertices) -> Fraction:
    """Signed area of a simple polygon given in order (positive if ccw)."""
    verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    total = Fraction(0)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2


def minkowski_sum_hull(verts_a, verts_b) -> list[Point]:
    """Brute Minkowski sum of two convex vertex sets: all pairwise sums."""
    sums = [(ax + bx, ay + by) for ax, ay in verts_a for bx, by in verts_b]
    return brute_hull(sums)


def lobachevsky_oracle(theta: float) -> float:
    """Lobachevsky function via the dilogarithm: Im(Li2(e^{2i t}))/2."""
    with mp.workdps(40):
        val = mp.polylog(2, mp.e ** (2j * mp.mpf(theta))) / 2
        return float(mp.im(val))


def ideal_tet_volume_oracle(a: float, b: float, c: float) -> float:
    return lobachevsky_oracle(a) + lobachevsky_oracle(b) + lobachevsky_oracle(c)


def schlafli_regular_volume(side: float) -> float:
    """Volume of the regular compact tetrahedron with all edges = side.

    Schlafli's formula dV = -1/2 sum_e l_e dtheta_e along the regular family,
    where all six edges have length l and dihedral angle theta, integrated
    from the ideal end (theta = pi/3, V = 3 Lob(pi/3), Lob the Lobachevsky
    function): V(alpha) = 3 Lob(pi/3) - 3 int_{pi/3}^{alpha} l(theta) dtheta, with
    cosh l = cos theta / (1 - 2 cos theta) and cos alpha = cosh s / (1 + 2 cosh s).
    """
    with mp.workdps(30):
        ideal = 1.5 * mp.clsin(2, 2 * mp.pi / 3)
        ch = mp.cosh(mp.mpf(side))
        alpha = mp.acos(ch / (1 + 2 * ch))

        def edge(theta):
            return mp.acosh(mp.cos(theta) / (1 - 2 * mp.cos(theta)))

        return float(mp.re(ideal - 3 * mp.quad(edge, [mp.pi / 3, alpha])))


def bloch_wigner(z) -> float:
    """The Bloch-Wigner dilogarithm D(z) = Im Li2(z) + arg(1 - z) log|z|."""
    with mp.workdps(30):
        z = mp.mpc(z)
        return float(mp.im(mp.polylog(2, z)) + mp.arg(1 - z) * mp.log(abs(z)))


def fig8_shape_volume(m, l) -> float:
    """Volume D(z) + D(w) of the figure-8 knot complement's two ideal
    tetrahedra at the point (m, l) of its eigenvalue curve.

    The shapes satisfy l = -z(1 - z), m^2 = w(1 - z) and the edge equation
    z(1 - z)w(1 - w) = 1 (Neumann & Zagier, Topology 24, 1985); of the two
    roots z of z^2 - z - l, the one that best satisfies the edge equation
    is taken.
    """
    with mp.workdps(30):
        m, l = mp.mpc(m), mp.mpc(l)
        disc = mp.sqrt(1 + 4 * l)
        shapes = [(z, m**2 / (1 - z)) for z in ((1 + disc) / 2, (1 - disc) / 2)]
        z, w = min(shapes, key=lambda zw: abs(zw[0] * (1 - zw[0]) * zw[1] * (1 - zw[1]) - 1))
        return bloch_wigner(z) + bloch_wigner(w)


def face_angles_mp(vertices) -> list[list[float]]:
    """All 12 face angles of a Klein tetrahedron at 50 digits, rows as in
    the library (face f omits vertex f; angles at its vertices in index order).

    A corner whose two edges are finite uses the hyperbolic law of cosines
    on mpmath Klein distances.  A corner that sees an ideal vertex uses the
    Klein metric g(a, b) = a.b / s + (x.a)(x.b) / s^2, s = 1 - |x|^2, on the
    chords.  A vertex with |v| >= 1 - 1e-12 counts as ideal, the library's
    convention, and its angles are 0.
    """
    with mp.workdps(50):
        pts = [[mp.mpf(float(c)) for c in row] for row in vertices]

        def dot(a, b):
            return sum(p * q for p, q in zip(a, b))

        def cosh_dist(x, y):
            sx, sy = 1 - dot(x, x), 1 - dot(y, y)
            if sx <= 0 or sy <= 0:
                return None
            return (1 - dot(x, y)) / mp.sqrt(sx * sy)

        def metric_angle(x, y, z):
            s = 1 - dot(x, x)
            u = [p - q for p, q in zip(y, x)]
            v = [p - q for p, q in zip(z, x)]

            def g(a, b):
                return dot(a, b) / s + dot(x, a) * dot(x, b) / s**2

            return mp.acos(g(u, v) / mp.sqrt(g(u, u) * g(v, v)))

        ideal = [mp.sqrt(dot(p, p)) >= 1 - mp.mpf(1e-12) for p in pts]
        rows = []
        for face in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)):
            row = []
            for k in range(3):
                at, one, two = face[k], face[(k + 1) % 3], face[(k + 2) % 3]
                if ideal[at]:
                    row.append(0.0)
                    continue
                cb, cc = cosh_dist(pts[at], pts[one]), cosh_dist(pts[at], pts[two])
                if cb is None or cc is None:
                    row.append(float(metric_angle(pts[at], pts[one], pts[two])))
                    continue
                ca = cosh_dist(pts[one], pts[two])
                cos_angle = (cb * cc - ca) / mp.sqrt((cb * cb - 1) * (cc * cc - 1))
                row.append(float(mp.acos(cos_angle)))
            rows.append(row)
        return rows


def seminorm_oracle(functionals, point) -> Fraction:
    """Sum of weighted absolute values of the listed functionals."""
    x, y = Fraction(point[0]), Fraction(point[1])
    total = Fraction(0)
    for q, p, weight in functionals:
        total += Fraction(weight) * abs(Fraction(q) * x + Fraction(p) * y)
    return total


def _divisors_up_to_scalar(poly: sp.Poly) -> list[sp.Poly]:
    """All monic-normalized divisors of a univariate rational polynomial."""
    content, factors = poly.factor_list()
    out = []
    choices = [range(mult + 1) for _, mult in factors]
    for exps in itertools.product(*choices):
        d = sp.Poly(1, poly.gen, domain="QQ")
        for (base, _), e in zip(factors, exps):
            for _ in range(e):
                d = d * base
        out.append(d)
    return out


def brute_quadratic_reducible(a2: sp.Expr, a1: sp.Expr, a0: sp.Expr, gen) -> bool:
    """Decide reducibility of a2*y^2 + a1*y + a0 over Q[gen, y] by
    enumerating divisor splits of the outer coefficients.

    A nontrivial factorization either shares a content polynomial in
    gen across all three coefficients, or splits into two factors of
    y-degree one: (p + q y)(r + s y) with q s = a2, p r = a0 and
    p s + q r = a1, where p, q, r, s in Q[gen].  Scalars are absorbed
    into one unknown rational alpha per divisor split and solved for.
    """
    A2 = sp.Poly(a2, gen, domain="QQ")
    A1 = sp.Poly(a1, gen, domain="QQ")
    A0 = sp.Poly(a0, gen, domain="QQ")
    if A2.is_zero or A0.is_zero:
        raise ValueError("expected a genuinely quadratic shape with nonzero ends")
    if sp.gcd(sp.gcd(A2, A1), A0).degree() > 0:
        return True
    alpha = sp.Symbol("alpha")
    for q in _divisors_up_to_scalar(A2):
        s_quo, s_rem = sp.div(A2, q)
        if not s_rem.is_zero:
            continue
        for p0 in _divisors_up_to_scalar(A0):
            r_quo, r_rem = sp.div(A0, p0)
            if not r_rem.is_zero:
                continue
            # alpha^2 * p0 * s - alpha * A1 + q * r == 0 identically
            expr = (alpha**2 * (p0 * s_quo).as_expr()
                    - alpha * A1.as_expr()
                    + (q * r_quo).as_expr())
            coeffs = sp.Poly(sp.expand(expr), gen).all_coeffs()
            g = sp.Poly(0, alpha, domain="QQ")
            for c in coeffs:
                g = sp.gcd(g, sp.Poly(c, alpha, domain="QQ"))
            if g.is_zero:
                return True
            roots = sp.roots(g, alpha)
            if any(r.is_rational and r != 0 for r in roots):
                return True
    return False


def irreducible_over_q_oracle(poly) -> bool:
    """Whether a LaurentPoly2 with nonnegative exponents is irreducible over
    Q[x, y]: whether sympy's factor_list finds exactly one factor, of
    multiplicity one (a monomial factor counts as a factor)."""
    x, y = sp.symbols(poly.var_names)
    expr = sum(sp.Rational(c.numerator, c.denominator) * x**i * y**j
               for (i, j), c in poly.terms.items())
    _, factors = sp.factor_list(expr, x, y)
    return len(factors) == 1 and factors[0][1] == 1


def is_parallelogram(vertices) -> bool:
    """Exact check that four ordered vertices bound a parallelogram."""
    if len(vertices) != 4:
        return False
    v = [(Fraction(x), Fraction(y)) for x, y in vertices]
    d02 = (v[1][0] - v[0][0], v[1][1] - v[0][1])
    d13 = (v[2][0] - v[3][0], v[2][1] - v[3][1])
    return d02 == d13


_X = sp.Symbol("x")


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> sp.Poly:
    return sp.Poly(sp.cyclotomic_poly(n, _X), _X, domain="QQ")


def cyclotomic_coeffs(n: int) -> list[int]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first."""
    return [int(c) for c in reversed(_cyclotomic(n).all_coeffs())]


def unity_orders_oracle(p, bound: int) -> list[int]:
    """The n <= bound whose cyclotomic polynomial divides p (a UniPoly).

    One exact sympy division per n, with no degree pruning: these are the
    orders of the roots of unity among the roots of p.
    """
    coeffs = [sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    poly = sp.Poly(coeffs, _X, domain="QQ")
    return [n for n in range(1, bound + 1) if poly.rem(_cyclotomic(n)).is_zero]


def irreducible_mod_q_oracle(p, q: int) -> bool:
    """Whether p (a UniPoly whose denominators q does not divide) is
    irreducible over GF(q): whether sympy's factorization over the field
    (Cantor-Zassenhaus, not Rabin's test) returns p as its only factor.

    Clearing denominators multiplies p by a unit mod q, which keeps the
    answer.
    """
    den = math.lcm(*(c.denominator for c in p.coeffs))
    coeffs = [int(c * den) for c in reversed(p.coeffs)]
    _, factors = sp.Poly(coeffs, _X, modulus=q).factor_list()
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == len(coeffs) - 1


def _low_first(poly: sp.Poly, convert) -> list:
    """Coefficients low degree first; [] for the zero polynomial."""
    return [] if poly.is_zero else [convert(c) for c in reversed(poly.all_coeffs())]


def qq_ring_oracle(a, b) -> list[list[Fraction]]:
    """a * b, a // b, a % b and the monic gcd of two UniPolys (b nonzero),
    by sympy over QQ; each as Fractions low degree first."""
    A, B = (
        sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0],
                _X, domain="QQ")
        for p in (a, b)
    )
    quot, rem = A.div(B)
    gcd = A.gcd(B)
    gcd = gcd if gcd.is_zero else gcd.monic()
    return [_low_first(P, lambda c: Fraction(int(c.p), int(c.q)))
            for P in (A * B, quot, rem, gcd)]


def gf_ring_oracle(a: list[int], b: list[int], q: int) -> list[list[int]]:
    """a * b, a // b, a % b and the monic gcd over GF(q) of two integer
    lists low degree first (b nonzero mod q), by sympy; each with entries
    in [0, q)."""
    A, B = (sp.Poly(list(reversed(p)) or [0], _X, modulus=q) for p in (a, b))
    quot, rem = A.div(B)
    gcd = A.gcd(B)
    gcd = gcd if gcd.is_zero else gcd.monic()
    return [_low_first(P, lambda c: int(c) % q) for P in (A * B, quot, rem, gcd)]
