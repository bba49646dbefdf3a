"""Numerical continuation of plane-curve branches and line integration.

A branch of {A = 0} is followed by specializing A at each waypoint of a
path in the first variable, solving the resulting univariate polynomial
by companion-matrix eigenvalues (``np.roots``, backward stable), polishing
with three Newton steps, and picking the root nearest the previous sample.
Ambiguity (the previous value sits near the Voronoi boundary between two
roots) triggers step halving; persistent ambiguity is an error, never a
silent branch choice.

The tracked samples support the trapezoidal line integral of the 1-form
log|a| d(arg b) - log|b| d(arg a), whose -1/2 multiple measures volume
change along the branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .laurent import LaurentPoly2
from .unipoly import UniPoly


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


@dataclass(frozen=True)
class CurvePath:
    """Ordered samples approximately on {A = 0}, with their residuals."""

    samples: tuple[tuple[complex, complex], ...]
    poly: LaurentPoly2
    residual_tol: float
    residuals: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.samples) != len(self.residuals):
            raise TrackingError("one residual per sample required")
        if any(r > self.residual_tol for r in self.residuals):
            raise TrackingError("a sample violates the residual tolerance")

    def reversed(self) -> "CurvePath":
        return CurvePath(
            self.samples[::-1],
            self.poly,
            self.residual_tol,
            self.residuals[::-1],
            dict(self.metadata),
        )


def _relative_residual(poly: LaurentPoly2, point: tuple[complex, complex]) -> float:
    a, b = point
    if a == 0 or b == 0:
        return math.inf
    value = 0j
    scale = 0.0
    for (i, j), c in poly.terms.items():
        mono = (a**i) * (b**j)
        value += complex(c) * mono
        scale += abs(c) * abs(a) ** i * abs(b) ** j
    return abs(value) / scale if scale > 0 else math.inf


def _solve_fiber(cmap: dict[int, UniPoly], m: complex) -> tuple[np.ndarray, np.ndarray]:
    """The fiber polynomial over m (descending coefficients) and its roots."""
    if max(cmap) < 1:
        raise TrackingError("the curve polynomial must involve the second variable")
    coeffs = np.zeros(max(cmap) + 1, dtype=complex)
    for j, f in cmap.items():
        coeffs[-1 - j] = complex(f.evaluate(m))
    top = np.abs(coeffs).max()
    if top == 0.0:
        raise TrackingError(f"the curve contains the whole fiber over {m}")
    if abs(coeffs[0]) < 1e-14 * top:
        raise DiscriminantCollisionError(
            f"leading coefficient vanishes near {m}: a root escapes to infinity"
        )
    return coeffs, np.roots(coeffs)


def _select_root(roots: np.ndarray, previous: complex):
    dist = np.abs(roots - previous)
    pick = int(np.argmin(dist))
    if len(roots) > 1:
        gaps = np.abs(roots - roots[pick])
        gaps[pick] = math.inf
        if dist[pick] >= gaps.min() / 2.0:
            return None
    return pick


def _polish(coeffs: np.ndarray, b: complex) -> complex:
    """Three Newton steps on a root of the descending coefficient vector."""
    dp = np.polyder(coeffs)
    for _ in range(3):
        dv = np.polyval(dp, b)
        if dv == 0:
            break
        b = b - np.polyval(coeffs, b) / dv
    return b


def fiber_roots(poly: LaurentPoly2, m: complex) -> list[complex]:
    """Second-coordinate values over a first coordinate, sorted by (re, im)."""
    m = complex(m)
    if not cmath.isfinite(m):
        raise TrackingError(f"first coordinate must be finite, got {m}")
    coeffs, roots = _solve_fiber(poly.normalize().coeff_polys(1), m)
    polished = [_polish(coeffs, complex(r)) for r in roots]
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
    first_residual = _relative_residual(poly, (a0, b0))
    if first_residual > residual_tol:
        raise TrackingError(
            f"start point residual {first_residual:.3g} exceeds {residual_tol:.3g}"
        )

    cmap = poly.normalize().coeff_polys(1)
    samples = [(a0, b0)]
    residuals = [first_residual]
    if _select_root(_solve_fiber(cmap, a0)[1], b0) is None:
        raise DiscriminantCollisionError("start point lies between two close roots")
    halvings_used = 0

    def advance(m_new: complex, b_prev: complex, depth: int) -> None:
        nonlocal halvings_used
        try:
            coeffs, roots_new = _solve_fiber(cmap, m_new)
            choice = _select_root(roots_new, b_prev)
        except DiscriminantCollisionError:
            choice = None
        if choice is None:
            if depth >= MAX_HALVINGS:
                raise DiscriminantCollisionError(
                    f"ambiguous branch near {m_new} after {MAX_HALVINGS} halvings"
                )
            halvings_used += 1
            mid = (samples[-1][0] + m_new) / 2.0
            advance(mid, samples[-1][1], depth + 1)
            advance(m_new, samples[-1][1], depth + 1)
            return
        b_new = _polish(coeffs, complex(roots_new[choice]))
        res = _relative_residual(poly, (m_new, b_new))
        if res > residual_tol:
            raise RootSolveError(
                f"residual {res:.3g} at {m_new} exceeds {residual_tol:.3g}"
            )
        samples.append((m_new, b_new))
        residuals.append(res)

    for seg_start, seg_end, n_steps in zip(waypoints, waypoints[1:], seg_steps):
        for k in range(1, n_steps + 1):
            target = seg_start + (seg_end - seg_start) * (k / n_steps)
            advance(target, samples[-1][1], 0)

    return CurvePath(
        tuple(samples),
        poly,
        residual_tol,
        tuple(residuals),
        {"step": step, "halvings": halvings_used, "waypoints": len(waypoints)},
    )


def integrate_volume_form(path: CurvePath) -> float:
    """Trapezoidal integral of log|a| d(arg b) - log|b| d(arg a).

    Arguments are unwrapped incrementally; a wrapped jump above pi/2 in
    either coordinate means the sampling is too coarse to identify the
    continuous branch of arg, and refinement is requested instead of
    guessing.
    """
    pts = path.samples
    if len(pts) < 2:
        return 0.0
    log_a = [math.log(abs(a)) for a, _ in pts]
    log_b = [math.log(abs(b)) for _, b in pts]
    d_arg_a = []
    d_arg_b = []
    for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
        da = cmath.phase(a1 / a0)
        db = cmath.phase(b1 / b0)
        if abs(da) > math.pi / 2 or abs(db) > math.pi / 2:
            raise RefinementNeededError(
                "argument jump exceeds pi/2 between consecutive samples; "
                "refine the path"
            )
        d_arg_a.append(da)
        d_arg_b.append(db)
    total = 0.0
    for k in range(len(pts) - 1):
        total += 0.5 * (log_a[k] + log_a[k + 1]) * d_arg_b[k]
        total -= 0.5 * (log_b[k] + log_b[k + 1]) * d_arg_a[k]
    return total


def volume_change(path: CurvePath) -> float:
    """The -1/2 multiple of the integrated volume form along the path."""
    return -0.5 * integrate_volume_form(path)
