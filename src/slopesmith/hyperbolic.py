"""Numerical hyperbolic geometry in the Klein ball model.

Volumes of geodesic tetrahedra are computed by adaptive quadrature of the
Klein-model density (1 - |x|^2)^(-2); geodesic simplices are Euclidean
simplices in this model, so subdivision is plain octasection.  The dilog
side is covered by the odd pi-periodic angle function evaluated through
its zeta-accelerated power series, whose coefficients zeta(2k) / pi^(2k)
are exact rationals built from the tangent numbers.  Both routes compute
the maximal tetrahedron volume independently and are cross-checked in the
tests.

All operations are pure; nothing here mutates shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class HyperbolicError(ValueError):
    pass


class QuadratureError(HyperbolicError):
    """Subdivision budget exhausted before the error target was met."""

    def __init__(self, estimate: float, error_estimate: float, target: float):
        super().__init__(
            f"quadrature budget exhausted: estimate {estimate:.12g}, "
            f"achieved error {error_estimate:.3g}, target {target:.3g}"
        )
        self.estimate = estimate
        self.error_estimate = error_estimate
        self.target = target


class SamplerError(HyperbolicError):
    pass


# -- angle function -------------------------------------------------------------


def _zeta_even_over_pi(n: int) -> tuple[float, ...]:
    """zeta(2k) / pi^(2k) = k T_k / ((4^k - 1) (2k)!) for k = 1..n, rounded once.

    Tangent numbers T_k by the integer recurrence of Brent and Harvey (2011).
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(
        float(Fraction(k * t[k], (4**k - 1) * math.factorial(2 * k))) for k in range(1, n + 1)
    )


# Enough terms that the series tail at pi/2 is < 1e-18.
_ZETA_EVEN_OVER_PI = _zeta_even_over_pi(40)


def lobachevsky(theta: float) -> float:
    """Odd, pi-periodic; the integrand is -log|2 sin t|.

    Range-reduce to [-pi/2, pi/2], then sum
    x - x log(2x) + sum_k (zeta(2k) / pi^(2k)) x^(2k+1) / (k (2k+1)),
    whose terms shrink at least geometrically (ratio <= 1/4).
    Absolute error stays below 1e-12.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise HyperbolicError(f"theta must be finite, got {theta}")
    r = math.remainder(theta, math.pi)
    if r == 0.0:
        return 0.0
    sign, x = (1.0, r) if r > 0 else (-1.0, -r)
    total = x - x * math.log(2.0 * x)
    power = x
    x2 = x * x
    for k, z in enumerate(_ZETA_EVEN_OVER_PI, start=1):
        power *= x2
        term = z * power / (k * (2 * k + 1))
        total += term
        if term < 1e-18:
            break
    return sign * total


def ideal_tet_volume(alpha: float, beta: float, gamma: float) -> float:
    """Volume of the ideal tetrahedron with dihedral angles alpha, beta, gamma."""
    if alpha <= 0 or beta <= 0 or gamma <= 0:
        raise HyperbolicError("dihedral angles must be positive")
    if abs(alpha + beta + gamma - math.pi) > 1e-12:
        raise HyperbolicError("dihedral angles must sum to pi")
    return lobachevsky(alpha) + lobachevsky(beta) + lobachevsky(gamma)


# Volume of the regular ideal tetrahedron, the maximum over all tetrahedra.
REGULAR_IDEAL_VOLUME = 3.0 * lobachevsky(math.pi / 3.0)


# -- Klein-model tetrahedra ------------------------------------------------------

_IDEAL_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class KleinTetrahedron:
    """Four points in the closed unit ball; |v| = 1 marks an ideal vertex."""

    vertices: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vertices, dtype=float)
        if arr.shape != (4, 3):
            raise HyperbolicError(f"need 4 points in R^3, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise HyperbolicError("vertices must be finite")
        norms = np.linalg.norm(arr, axis=1)
        if np.any(norms > 1.0 + _IDEAL_EPS):
            raise HyperbolicError("vertices must lie in the closed unit ball")
        edges = arr[1:] - arr[0]
        if abs(np.linalg.det(edges)) == 0.0:
            raise HyperbolicError("degenerate tetrahedron (zero Euclidean volume)")
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    def euclidean_volume(self) -> float:
        edges = self.vertices[1:] - self.vertices[0]
        return abs(float(np.linalg.det(edges))) / 6.0

    def ideal_mask(self) -> np.ndarray:
        return np.linalg.norm(self.vertices, axis=1) >= 1.0 - _IDEAL_EPS


_REGULAR_DIRECTIONS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)


def ideal_regular_tet() -> KleinTetrahedron:
    """Regular Euclidean tetrahedron inscribed in the unit sphere."""
    return KleinTetrahedron(_REGULAR_DIRECTIONS.copy())


def _regular_radius(side: float) -> float:
    """Klein radius tanh t of the vertices of the regular tetrahedron with this
    side, where cosh(side) = cosh^2 t + sinh^2 t / 3 (law of cosines at the
    center, over the angle arccos(-1/3) between two vertex directions)."""
    try:
        ch = math.cosh(side)
    except OverflowError:
        raise HyperbolicError(f"cosh of side length {side} overflows a double") from None
    return math.sqrt(3.0 * (ch - 1.0) / (3.0 * ch + 1.0))


def regular_tet(side: float) -> KleinTetrahedron:
    """Regular compact tetrahedron centered at the origin, all edges = side.

    Sides past about 27.9 are refused: the radius rounds to an ideal vertex.
    """
    if side <= 0:
        raise HyperbolicError("side length must be positive")
    tet = KleinTetrahedron(_regular_radius(side) * _REGULAR_DIRECTIONS)
    if tet.ideal_mask().any():
        raise HyperbolicError(f"side length {side} rounds to an ideal tetrahedron")
    return tet


def klein_distance(x, y) -> float:
    """Hyperbolic distance between Klein-model points; inf to an ideal point."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx = 1.0 - float(x @ x)
    sy = 1.0 - float(y @ y)
    if sx < -_IDEAL_EPS or sy < -_IDEAL_EPS:
        raise HyperbolicError("points must lie in the closed unit ball")
    if sx <= 0.0 or sy <= 0.0:
        return math.inf
    c = (1.0 - float(x @ y)) / math.sqrt(sx * sy)
    return math.acosh(max(c, 1.0))


def _chord_angles(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Angle at each row of x between the geodesics toward the rows of y and z.

    Geodesics are chords in this model, so this is the angle between
    u = y - x and v = z - x in the Klein metric at x, g(a, b) = a.b / s +
    (x.a)(x.b) / s^2 with s = 1 - |x|^2, here scaled by s^2.  The rows of x
    must be finite points; y and z may be ideal.
    """
    s = 1.0 - (x * x).sum(axis=1)
    u, v = y - x, z - x
    xu, xv = (x * u).sum(axis=1), (x * v).sum(axis=1)
    guv = s * (u * v).sum(axis=1) + xu * xv
    norms = (s * (u * u).sum(axis=1) + xu * xu) * (s * (v * v).sum(axis=1) + xv * xv)
    return np.arccos(np.clip(guv / np.sqrt(norms), -1.0, 1.0))


def klein_angle(x, y, z) -> float:
    """Angle at x between the geodesics toward y and z; see ``_chord_angles``."""
    x, y, z = (np.asarray(p, dtype=float).reshape(1, 3) for p in (x, y, z))
    if 1.0 - float(x[0] @ x[0]) <= _IDEAL_EPS:
        raise HyperbolicError("the apex of an angle must be a finite point")
    return float(_chord_angles(x, y, z)[0])


# -- adaptive volume quadrature ---------------------------------------------------


def _duffy_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule collapsed onto the reference tetrahedron.

    Returns barycentric node coordinates (Q, 4) and weights summing to 1,
    so a leaf estimate is euclidean_volume * (weights . values).
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    u, v, t = np.meshgrid(x, x, x, indexing="ij")
    wu, wv, wt = np.meshgrid(w, w, w, indexing="ij")
    u, v, t = u.ravel(), v.ravel(), t.ravel()
    xi = u
    eta = v * (1.0 - u)
    zeta = t * (1.0 - u) * (1.0 - v)
    weights = 6.0 * (wu * wv * wt).ravel() * (1.0 - u) ** 2 * (1.0 - v)
    bary = np.stack([1.0 - xi - eta - zeta, xi, eta, zeta], axis=1)
    return bary, weights


# The collapse jacobian (1-u)^2 (1-v) costs two orders of polynomial
# exactness per axis, so n-point rules are exact only to degree 2n-3;
# the 4/5 pair gives an O(h^6) error surrogate and an O(h^8) value.
# Both rules share one node table, the 125 5-point nodes before the 64
# 4-point ones.  A node of barycentric weights lam in a leaf with corners C
# is lam C, so |x|^2 = lam^T (C C^T) lam: the leaf's Gram matrix against
# the node's pair products in _PAIRS.  _WEIGHTS has one column per rule.
_BARY_LO, _W_LO = _duffy_rule(4)
_BARY_HI, _W_HI = _duffy_rule(5)
_BARY = np.concatenate([_BARY_HI, _BARY_LO])
_PAIRS = (_BARY[:, :, None] * _BARY[:, None, :]).reshape(-1, 16)
_WEIGHTS = np.zeros((_BARY.shape[0], 2))
_WEIGHTS[: _W_HI.size, 0], _WEIGHTS[_W_HI.size :, 1] = _W_HI, _W_LO

# Octasection: children indexed into [v0..v3, m01, m02, m03, m12, m13, m23].
_MID_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_CHILDREN = np.array(
    [
        (0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
        (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9),
    ]
)

_CHUNK = 8192


def _leaf_estimates(corners: np.ndarray, vols: np.ndarray):
    """Paired 5-point/4-point estimates (hi, lo) of each leaf's hyperbolic volume.

    Since |x|^2 = lam^T (C C^T) lam, each chunk takes |x|^2 at all 189
    stacked nodes (5-point rule first) as one product of the leaves' Gram
    matrices C C^T with _PAIRS, and both rules as one product with _WEIGHTS.
    """
    est = np.empty((corners.shape[0], 2))
    for start in range(0, corners.shape[0], _CHUNK):
        block = corners[start : start + _CHUNK]
        r2 = (block @ block.transpose(0, 2, 1)).reshape(-1, 16) @ _PAIRS.T
        # Nodes are strictly interior; the clip only guards rounding.
        dens = 1.0 / np.maximum(1.0 - r2, 1e-14) ** 2
        est[start : start + _CHUNK] = dens @ _WEIGHTS
    return est[:, 0] * vols, est[:, 1] * vols


def _octasect(corners: np.ndarray) -> np.ndarray:
    n = corners.shape[0]
    pts = np.empty((n, 10, 3))
    pts[:, :4] = corners
    for k, (a, b) in enumerate(_MID_PAIRS):
        pts[:, 4 + k] = (corners[:, a] + corners[:, b]) / 2.0
    return pts[:, _CHILDREN].reshape(n * 8, 4, 3)


def klein_volume(tet: KleinTetrahedron, tol: float, max_leaves: int = 6_000_000) -> float:
    """Hyperbolic volume by adaptive octasection quadrature.

    Each leaf carries an embedded low/high Gauss pair; the difference is
    its error surrogate.  Leaves whose collective error fits in a quarter
    of the budget are settled permanently, leaves above the equidistributed
    share are split, and the rest wait.  Raises QuadratureError with the
    best estimate when the leaf budget runs out.
    """
    if not tol > 0:
        raise HyperbolicError("tolerance must be positive")
    corners = tet.vertices[None, :, :].copy()
    vols = np.array([tet.euclidean_volume()])
    hi, lo = _leaf_estimates(corners, vols)
    err = np.abs(hi - lo)
    settled_val = 0.0
    settled_err = 0.0
    evaluated = 1

    while True:
        active_err = float(err.sum())
        if settled_err + active_err <= tol:
            return float(settled_val + hi.sum())

        if settled_err < 0.25 * tol and err.size > 1:
            order = np.argsort(err)
            csum = np.cumsum(err[order])
            k = int(np.searchsorted(csum, 0.25 * tol - settled_err, side="right"))
            if k > 0:
                done = order[:k]
                settled_val += float(hi[done].sum())
                settled_err += float(err[done].sum())
                keep = order[k:]
                corners, vols = corners[keep], vols[keep]
                hi, lo, err = hi[keep], lo[keep], err[keep]

        share = (tol - settled_err) / (2.0 * err.size)
        refine = err > share
        if not refine.any():
            refine[int(np.argmax(err))] = True
        n_new = int(refine.sum()) * 8
        if evaluated + n_new > max_leaves:
            raise QuadratureError(
                settled_val + float(hi.sum()), settled_err + active_err, tol
            )

        children = _octasect(corners[refine])
        child_vols = np.repeat(vols[refine] / 8.0, 8)
        child_hi, child_lo = _leaf_estimates(children, child_vols)
        evaluated += n_new

        keep = ~refine
        corners = np.concatenate([corners[keep], children])
        vols = np.concatenate([vols[keep], child_vols])
        hi = np.concatenate([hi[keep], child_hi])
        lo = np.concatenate([lo[keep], child_lo])
        err = np.abs(hi - lo)


# -- face angles ------------------------------------------------------------------

_FACES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
# Row 3f + k: face f's corner at vertex f[k], then the next two in cyclic order.
_CORNERS = np.array([(f[k], f[k - 2], f[k - 1]) for f in _FACES for k in range(3)])


def face_angles(tet: KleinTetrahedron) -> np.ndarray:
    """All 12 interior angles of the 4 triangular faces, shape (4, 3).

    Row f lists the angles of the face omitting vertex f, at each of its
    vertices in index order, all from the Klein metric (``_chord_angles``).
    An angle at an ideal vertex is 0.
    """
    finite = ~tet.ideal_mask()[_CORNERS[:, 0]]
    corners = tet.vertices[_CORNERS[finite]]
    out = np.zeros(12)
    out[finite] = _chord_angles(corners[:, 0], corners[:, 1], corners[:, 2])
    return out.reshape(4, 3)


@dataclass(frozen=True)
class FaceAngleReport:
    fitted_c: float
    violations: tuple[int, ...]
    n_samples: int
    n_attempts: int
    vol_threshold: float


def face_angle_check(
    n_samples: int = 500,
    vol_threshold: float | None = None,
    seed: int = 0,
) -> FaceAngleReport:
    """Fit the largest constant with max-volume defect > C * angle^2.

    Samples near-regular compact tetrahedra: a side drawn uniformly from
    [6, 8.5] gives the apex distance t = atanh(regular radius); each vertex
    direction gets Gaussian noise of deviation 0.03, and each hyperbolic
    radius is t times a uniform factor in [0.98, 1.02].  It keeps those with
    volume, at quadrature tolerance 2e-5, above the threshold, and requires
    the fitted inequality at every face angle of every sample.  The fitted
    constant is the observed minimum of defect / angle^2, nudged down so
    the check is strict.
    """
    if n_samples < 1:
        raise HyperbolicError("need at least one sample")
    v3 = REGULAR_IDEAL_VOLUME
    if vol_threshold is None:
        vol_threshold = v3 - 0.05
    rng = np.random.default_rng(seed)
    max_attempts = 20 * n_samples

    defects: list[float] = []
    max_angles: list[list[float]] = []
    attempts = 0
    while len(defects) < n_samples and attempts < max_attempts:
        attempts += 1
        t_apex = math.atanh(_regular_radius(rng.uniform(6.0, 8.5)))
        dirs = _REGULAR_DIRECTIONS + rng.normal(0.0, 0.03, size=(4, 3))
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.tanh(t_apex * rng.uniform(0.98, 1.02, size=4))
        tet = KleinTetrahedron(dirs * radii[:, None])
        vol = klein_volume(tet, 2e-5)
        if vol < vol_threshold:
            continue
        defects.append(v3 - vol)
        max_angles.append([a for a in face_angles(tet).ravel() if a > 0.0])
    if len(defects) < n_samples:
        raise SamplerError(
            f"only {len(defects)} of {n_samples} samples met the volume "
            f"threshold {vol_threshold:.6g} after {attempts} attempts"
        )

    fitted = min(
        defect / (angle * angle)
        for defect, angles in zip(defects, max_angles)
        for angle in angles
    )
    fitted *= 1.0 - 1e-9
    violations = tuple(
        idx
        for idx, (defect, angles) in enumerate(zip(defects, max_angles))
        if any(defect <= fitted * angle * angle for angle in angles)
    )
    return FaceAngleReport(fitted, violations, n_samples, attempts, vol_threshold)


# -- volume defect decay ------------------------------------------------------------


@dataclass(frozen=True)
class DefectRow:
    side: float
    volume: float
    defect: float
    scaled_defect: float  # side^2 * defect
    ratio: float | None  # defect / previous defect


@dataclass(frozen=True)
class DefectReport:
    rows: tuple[DefectRow, ...]
    decay_rate: float  # least-squares slope of log(defect) against side


def volume_defect_report(i_values, tol: float = 1e-8) -> DefectReport:
    """Defect of compact regular tetrahedra against the ideal maximum."""
    sides = [float(i) for i in i_values]
    if not sides:
        raise HyperbolicError("need at least one side length")
    if any(s <= 0 for s in sides):
        raise HyperbolicError("side lengths must be positive")
    if any(b <= a for a, b in zip(sides, sides[1:])):
        raise HyperbolicError("side lengths must be strictly increasing")
    v3 = REGULAR_IDEAL_VOLUME
    rows: list[DefectRow] = []
    prev: float | None = None
    for s in sides:
        vol = klein_volume(regular_tet(s), tol)
        defect = v3 - vol
        ratio = None if prev is None else defect / prev
        rows.append(DefectRow(s, vol, defect, s * s * defect, ratio))
        prev = defect
    if len(rows) >= 2 and all(r.defect > 0 for r in rows):
        xs = np.array([r.side for r in rows])
        ys = np.log(np.array([r.defect for r in rows]))
        decay = float(np.polyfit(xs, ys, 1)[0])
    else:
        decay = math.nan
    return DefectReport(tuple(rows), decay)
