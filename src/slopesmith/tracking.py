"""Numerical continuation of plane-curve branches and line integration.

A branch of {A = 0} is followed along a path in the first variable.  The
curve's coefficients are converted to one complex table once per call; at
each waypoint the fiber polynomial is read off that table, solved by
companion-matrix eigenvalues (``np.roots``, backward stable), polished
with three Newton steps of a Horner pass, and the root nearest the
previous sample is picked.  Ambiguity (the previous value sits near the
Voronoi boundary between two roots) triggers step halving; persistent
ambiguity is an error, never a silent branch choice.  A fiber polynomial
that overflows, or a residual that is not below the tolerance (NaN
included), is refused.

The tracked samples are stored in arrays and support the trapezoidal
line integral of the 1-form log|a| d(arg b) - log|b| d(arg a), whose -1/2
multiple measures volume change along the branch.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .laurent import LaurentPoly2


# One track_curve request takes at most this many steps, summed over its
# segments; each step is a fiber root solve, so a longer request is refused.
MAX_TRACK_STEPS = 10_000

# An ambiguous step is halved at most this many times, then refused.
MAX_HALVINGS = 40


class TrackingError(ValueError):
    pass


class RootSolveError(TrackingError):
    pass


class DiscriminantCollisionError(TrackingError):
    """Two candidate roots stayed ambiguously close after maximal halving."""


class RefinementNeededError(TrackingError):
    """Consecutive samples turn a coordinate argument by more than pi/2."""


class CurvePath:
    """Ordered samples approximately on {A = 0}, with their residuals.

    The samples are held as one (n, 2) complex array and the residuals as
    one float array; ``samples`` and ``residuals`` return them as tuples.
    """

    __slots__ = ("_points", "_residuals", "poly", "residual_tol", "metadata")

    def __init__(self, samples, poly: LaurentPoly2, residual_tol: float, residuals,
                 metadata: dict | None = None):
        # Copied after the reshape, so the path holds no view of a base array.
        points = np.array(np.reshape(samples, (len(samples), 2)), dtype=complex)
        res = np.array(residuals, dtype=float)
        if len(points) != len(res):
            raise TrackingError("one residual per sample required")
        if not (res <= residual_tol).all():
            raise TrackingError("a sample violates the residual tolerance")
        if not (np.isfinite(points).all() and points.all()):
            raise TrackingError("sample coordinates must be finite and nonzero")
        points.flags.writeable = res.flags.writeable = False
        self._points, self._residuals = points, res
        self.poly, self.residual_tol = poly, residual_tol
        self.metadata = {} if metadata is None else metadata

    @property
    def samples(self) -> tuple[tuple[complex, complex], ...]:
        return tuple(map(tuple, self._points.tolist()))

    @property
    def residuals(self) -> tuple[float, ...]:
        return tuple(self._residuals.tolist())

    def reversed(self) -> "CurvePath":
        return CurvePath(self._points[::-1], self.poly, self.residual_tol,
                         self._residuals[::-1], dict(self.metadata))


def _horner(coeffs: list, x):
    """Value and derivative at x of the descending coefficient list."""
    value, deriv = coeffs[0], 0.0
    for c in coeffs[1:]:
        deriv = deriv * x + value
        value = value * x + c
    return value, deriv


class _FiberTable:
    """The curve's coefficients, converted to complex once per call.

    Row k of ``rows`` holds the coefficient of b^(deg_b - k), ascending in
    m, so ``rows @ m**exps`` is the fiber polynomial over m, descending in b.
    """

    __slots__ = ("rows", "abs_rows", "exps")

    def __init__(self, poly: LaurentPoly2):
        terms = poly.normalize().terms
        deg_m = max((i for i, _ in terms), default=0)
        deg_b = max((j for _, j in terms), default=0)
        if deg_b < 1:
            raise TrackingError("the curve polynomial must involve the second variable")
        self.rows = np.zeros((deg_b + 1, deg_m + 1), dtype=complex)
        for (i, j), c in terms.items():
            self.rows[deg_b - j, i] = float(c)
        self.abs_rows = np.abs(self.rows)
        self.exps = np.arange(deg_m + 1)

    def fiber(self, m: complex) -> np.ndarray:
        """The fiber polynomial over m, descending coefficients."""
        coeffs = self.rows @ m**self.exps
        if not np.isfinite(coeffs).all():
            raise TrackingError(f"the fiber polynomial over {m} overflows")
        return coeffs

    def residual(self, coeffs: list, m: complex, b: complex) -> float:
        """|A(m, b)| over the sum of |term| at (m, b); the monomial shift of
        ``normalize`` cancels in the ratio."""
        if m == 0 or b == 0:
            return math.inf
        scale = _horner((self.abs_rows @ abs(m) ** self.exps).tolist(), abs(b))[0]
        return abs(_horner(coeffs, b)[0]) / scale if scale > 0 else math.inf


def _roots(coeffs: np.ndarray, m: complex) -> np.ndarray:
    top = np.abs(coeffs).max()
    if top == 0.0:
        raise TrackingError(f"the curve contains the whole fiber over {m}")
    if abs(coeffs[0]) < 1e-14 * top:
        raise DiscriminantCollisionError(
            f"leading coefficient vanishes near {m}: a root escapes to infinity"
        )
    return np.roots(coeffs)


def _select_root(roots: np.ndarray, previous: complex):
    dist = np.abs(roots - previous)
    pick = int(np.argmin(dist))
    if len(roots) > 1:
        gaps = np.abs(roots - roots[pick])
        gaps[pick] = math.inf
        if dist[pick] >= gaps.min() / 2.0:
            return None
    return pick


def _polish(coeffs: list, b: complex) -> complex:
    """Three Newton steps on a root of the descending coefficient list."""
    for _ in range(3):
        value, deriv = _horner(coeffs, b)
        if deriv == 0:
            break
        b = b - value / deriv
    return b


def fiber_roots(poly: LaurentPoly2, m: complex) -> list[complex]:
    """Second-coordinate values over a first coordinate, sorted by (re, im)."""
    m = complex(m)
    if not cmath.isfinite(m):
        raise TrackingError(f"first coordinate must be finite, got {m}")
    coeffs = _FiberTable(poly).fiber(m)
    coeff_list = coeffs.tolist()
    polished = [_polish(coeff_list, r) for r in _roots(coeffs, m).tolist()]
    return sorted(polished, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def track_curve(
    poly: LaurentPoly2,
    start: tuple[complex, complex],
    m_path,
    step: float = 0.01,
    residual_tol: float = 1e-9,
) -> CurvePath:
    """Continue the branch of {poly = 0} through ``start`` along ``m_path``.

    ``m_path`` lists first-coordinate waypoints beginning at the start
    point's first coordinate; the path is traversed in straight segments
    with at most ``step`` between consecutive first coordinates.  A path
    needing more than ``MAX_TRACK_STEPS`` steps, or a step still ambiguous
    after ``MAX_HALVINGS`` halvings, is refused.
    """
    if not step > 0 or not residual_tol > 0:
        raise TrackingError("step and residual tolerance must be positive")
    a0, b0 = complex(start[0]), complex(start[1])
    waypoints = [complex(w) for w in m_path]
    if not waypoints:
        raise TrackingError("empty path")
    if not all(cmath.isfinite(z) for z in (a0, b0, *waypoints)):
        raise TrackingError("start point and waypoints must be finite")
    if abs(waypoints[0] - a0) > 1e-12 * (1.0 + abs(a0)):
        raise TrackingError("path must begin at the start point's first coordinate")
    # Clamped before ceil, so an infinite quotient counts as over budget.
    seg_steps = [
        max(1, math.ceil(min(abs(end - begin) / step, MAX_TRACK_STEPS + 1)))
        for begin, end in zip(waypoints, waypoints[1:])
    ]
    if sum(seg_steps) > MAX_TRACK_STEPS:
        raise TrackingError(
            f"the path needs more than {MAX_TRACK_STEPS} steps of size {step}"
        )
    table = _FiberTable(poly)
    start_coeffs = table.fiber(a0)
    first_residual = table.residual(start_coeffs.tolist(), a0, b0)
    if not first_residual <= residual_tol:
        raise TrackingError(
            f"start point residual {first_residual:.3g} exceeds {residual_tol:.3g}"
        )
    if _select_root(_roots(start_coeffs, a0), b0) is None:
        raise DiscriminantCollisionError("start point lies between two close roots")

    ms, bs, residuals = [a0], [b0], [first_residual]
    halvings_used = 0

    def advance(m_new: complex, b_prev: complex, depth: int) -> None:
        nonlocal halvings_used
        coeffs = table.fiber(m_new)
        try:
            roots_new = _roots(coeffs, m_new)
            choice = _select_root(roots_new, b_prev)
        except DiscriminantCollisionError:
            choice = None
        if choice is None:
            if depth >= MAX_HALVINGS:
                raise DiscriminantCollisionError(
                    f"ambiguous branch near {m_new} after {MAX_HALVINGS} halvings"
                )
            halvings_used += 1
            mid = (ms[-1] + m_new) / 2.0
            advance(mid, bs[-1], depth + 1)
            advance(m_new, bs[-1], depth + 1)
            return
        coeff_list = coeffs.tolist()
        b_new = _polish(coeff_list, roots_new[choice].item())
        res = table.residual(coeff_list, m_new, b_new)
        if not res <= residual_tol:
            raise RootSolveError(
                f"residual {res:.3g} at {m_new} exceeds {residual_tol:.3g}"
            )
        ms.append(m_new)
        bs.append(b_new)
        residuals.append(res)

    for seg_start, seg_end, n_steps in zip(waypoints, waypoints[1:], seg_steps):
        for k in range(1, n_steps + 1):
            target = seg_start + (seg_end - seg_start) * (k / n_steps)
            advance(target, bs[-1], 0)

    metadata = {"step": step, "halvings": halvings_used, "waypoints": len(waypoints)}
    return CurvePath(np.column_stack((ms, bs)), poly, residual_tol, residuals, metadata)


def integrate_volume_form(path: CurvePath) -> float:
    """Trapezoidal integral of log|a| d(arg b) - log|b| d(arg a).

    Arguments are unwrapped incrementally; a wrapped jump above pi/2 in
    either coordinate means the sampling is too coarse to identify the
    continuous branch of arg, and refinement is requested instead of
    guessing.
    """
    pts = path._points
    if len(pts) < 2:
        return 0.0
    d_arg = np.angle(pts[1:] / pts[:-1])
    if (np.abs(d_arg) > math.pi / 2).any():
        raise RefinementNeededError(
            "argument jump exceeds pi/2 between consecutive samples; "
            "refine the path"
        )
    log_mid = 0.5 * (np.log(np.abs(pts[1:])) + np.log(np.abs(pts[:-1])))
    return float(log_mid[:, 0] @ d_arg[:, 1] - log_mid[:, 1] @ d_arg[:, 0])


def volume_change(path: CurvePath) -> float:
    """The -1/2 multiple of the integrated volume form along the path."""
    return -0.5 * integrate_volume_form(path)
