"""Unit tests for numerical curve tracking and the volume-form integral."""

import time

import mpmath
import pytest

from slopesmith import (
    CurvePath,
    DiscriminantCollisionError,
    RefinementNeededError,
    TrackingError,
    fiber_roots,
    integrate_volume_form,
    load_corpus_entry,
    parse_poly,
    prescribed_slope_curve,
    track_curve,
    volume_change,
)
from slopesmith.tracking import MAX_TRACK_STEPS


def _fig8():
    return load_corpus_entry("fig8-knot").poly


def test_fiber_roots_frozen_values():
    roots = fiber_roots(_fig8(), 1.2)
    assert len(roots) == 2
    want = {complex(-0.7892956790, -0.6140132988), complex(-0.7892956790, 0.6140132988)}
    for r in roots:
        assert min(abs(r - w) for w in want) < 1e-9
    # conjugate pair
    assert abs(roots[0] - roots[1].conjugate()) < 1e-12


def test_fiber_roots_satisfy_curve():
    poly = _fig8()
    for m in (1.1, 0.9 + 0.2j, 1.5 - 0.3j):
        for r in fiber_roots(poly, m):
            assert abs(poly.evaluate((m, r))) < 1e-8


def test_fiber_roots_needs_second_variable():
    with pytest.raises(TrackingError):
        fiber_roots(parse_poly("m^2 - 3"), 1.2)


def test_fiber_roots_whole_fiber_detected():
    # (m - 1)(b + 1) contains the entire fiber over m = 1
    p = parse_poly("m*b - b + m - 1")
    with pytest.raises(TrackingError):
        fiber_roots(p, 1.0)


def test_fiber_roots_leading_coefficient_collision():
    # (m - 1) b^2 + b + 1: one root escapes to infinity at m = 1
    q = parse_poly("m*b^2 - b^2 + b + 1")
    with pytest.raises(DiscriminantCollisionError):
        fiber_roots(q, 1.0)


def test_track_rejects_start_off_fiber():
    with pytest.raises(TrackingError):
        track_curve(_fig8(), (1.2, 0.5 + 0.5j), [1.2, 1.3])


@pytest.mark.parametrize(
    "start, path",
    [
        ((1.2, complex("nan")), [1.2, 1.3]),
        ((1.2, None), [1.2, float("nan")]),
        ((1.2, None), [1.2, 1.25, complex(1.3, float("inf"))]),
    ],
)
def test_track_refuses_non_finite_points_before_stepping(start, path):
    poly = _fig8()
    if start[1] is None:
        start = (start[0], fiber_roots(poly, start[0])[0])
    with pytest.raises(TrackingError, match="must be finite"):
        track_curve(poly, start, path)


@pytest.mark.parametrize("step, tol", [(float("nan"), 1e-9), (0.01, float("nan")), (0.0, 1e-9)])
def test_track_refuses_nan_or_nonpositive_step_and_tolerance(step, tol):
    poly = _fig8()
    start = (1.2, fiber_roots(poly, 1.2)[0])
    with pytest.raises(TrackingError, match="must be positive"):
        track_curve(poly, start, [1.2, 1.3], step=step, residual_tol=tol)


@pytest.mark.parametrize("step", [1e-9, 5e-324])
def test_track_refuses_paths_over_the_step_budget(step):
    poly = _fig8()
    start = (1.2, fiber_roots(poly, 1.2)[0])
    # 5e-324 makes the step count overflow a float, not just the budget.
    with pytest.raises(TrackingError, match=f"more than {MAX_TRACK_STEPS} steps"):
        track_curve(poly, start, [1.2, 1.3], step=step)


def test_track_step_budget_sums_the_segments():
    # Each leg alone fits the budget; together they do not.
    poly = _fig8()
    start = (1.2, fiber_roots(poly, 1.2)[0])
    step = 0.1 / (0.6 * MAX_TRACK_STEPS)
    with pytest.raises(TrackingError, match="steps of size"):
        track_curve(poly, start, [1.2, 1.3, 1.2], step=step)


@pytest.mark.parametrize("m", [float("nan"), complex(1.2, float("inf"))])
def test_fiber_roots_refuses_non_finite_coordinate(m):
    with pytest.raises(TrackingError, match="must be finite"):
        fiber_roots(_fig8(), m)


def test_track_closed_loop_returns_to_start():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    loop = [1.2, 1.25, 1.2 + 0.05j, 1.15, 1.2 - 0.05j, 1.2]
    path = track_curve(poly, (1.2, b0), loop, step=0.0025)
    gap = abs(path.samples[-1][1] - path.samples[0][1])
    assert gap < 1e-9
    assert max(path.residuals) < path.residual_tol
    # contractible loop: the volume form integrates to zero up to the
    # trapezoid discretization error of the chosen step
    assert abs(volume_change(path)) < 1e-7


def test_track_metadata_and_sample_density():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    path = track_curve(poly, (1.2, b0), [1.2, 1.3], step=0.01)
    assert path.metadata["waypoints"] == 2
    assert path.metadata["step"] == 0.01
    # 0.1-long leg at step 0.01 gives at least ten segments
    assert len(path.samples) >= 11
    spacing = max(
        abs(a[0] - b[0]) for a, b in zip(path.samples, path.samples[1:])
    )
    assert spacing <= 0.01 + 1e-12


def test_track_halves_coarse_steps_onto_the_fine_path():
    poly = _fig8()
    a, z = 0.4 + 0.05j, 1.0 + 0.05j
    for b0 in fiber_roots(poly, a):
        coarse = track_curve(poly, (a, b0), [a, z], step=0.1)
        fine = track_curve(poly, (a, b0), [a, z], step=0.001)
        assert coarse.metadata["halvings"] > 0
        assert fine.metadata["halvings"] == 0
        assert coarse.samples[-1][0] == fine.samples[-1][0] == z
        assert abs(coarse.samples[-1][1] - fine.samples[-1][1]) < 1e-9 * abs(fine.samples[-1][1])


def test_track_refuses_a_crossing_of_a_discriminant_root():
    # m^2 + m - 1 divides the discriminant of the fig8 curve in b, so its
    # root r is a branch point: every halving there stays ambiguous.
    poly = _fig8()
    r = (5**0.5 - 1) / 2
    b0 = fiber_roots(poly, r - 0.05)[0]
    with pytest.raises(DiscriminantCollisionError, match="after 40 halvings"):
        track_curve(poly, (r - 0.05, b0), [r - 0.05, r + 0.05], step=0.01)


def test_reversed_path_negates_the_integral():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.15)[0]
    path = track_curve(poly, (1.15, b0), [1.15, 1.35], step=0.005)
    forward = integrate_volume_form(path)
    backward = integrate_volume_form(path.reversed())
    assert forward != 0.0
    assert abs(forward + backward) < 1e-14


def test_homotopic_detours_agree():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.15)[0]
    upper = track_curve(poly, (1.15, b0), [1.15, 1.25 + 0.12j, 1.35], step=0.004)
    lower = track_curve(poly, (1.15, b0), [1.15, 1.25 - 0.15j, 1.35], step=0.004)
    # same endpoint fiber root after either detour
    assert abs(upper.samples[-1][1] - lower.samples[-1][1]) < 1e-9
    v_up = volume_change(upper)
    v_dn = volume_change(lower)
    assert abs(v_up - v_dn) < 1e-6


def test_volume_change_is_half_the_integral():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.15)[0]
    path = track_curve(poly, (1.15, b0), [1.15, 1.3], step=0.01)
    assert volume_change(path) == -0.5 * integrate_volume_form(path)


def test_curve_path_validation():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    with pytest.raises(TrackingError):
        CurvePath(
            samples=((1.2 + 0j, b0),),
            poly=poly,
            residual_tol=1e-9,
            residuals=(0.0, 0.0),
        )
    with pytest.raises(TrackingError):
        CurvePath(
            samples=((1.2 + 0j, b0),),
            poly=poly,
            residual_tol=1e-9,
            residuals=(1e-3,),
        )


def test_integrate_requires_fine_sampling():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    # the two samples sit on the curve but the first coordinate flips sign,
    # a half-turn of phase in one step
    coarse = CurvePath(
        samples=((1.2 + 0j, b0), (-1.2 + 0j, b0)),
        poly=poly,
        residual_tol=1e-9,
        residuals=(0.0, 0.0),
    )
    with pytest.raises(RefinementNeededError):
        integrate_volume_form(coarse)


def test_tracking_runtime_is_modest():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    start = time.perf_counter()
    track_curve(poly, (1.2, b0), [1.2, 1.25, 1.2 + 0.05j, 1.2], step=0.002)
    assert time.perf_counter() - start < 10.0


# Fibers of degree 10, 12 and 22 close to m = 1, where the roots crowd together.
_NEAR_ONE = [
    (1, 5, 1.05 + 0.02j, 1.09 + 0.02j),
    (5, 6, 1.12 + 0.02j, 1.16 + 0.02j),
    (5, 11, 1.08 + 0.02j, 1.12 + 0.02j),
]


@pytest.mark.parametrize("p, q, m0, m1", _NEAR_ONE)
def test_track_high_degree_fibers_near_one(p, q, m0, m1):
    poly = prescribed_slope_curve(p, q, 1)
    roots = fiber_roots(poly, m0)
    assert len(roots) == 2 * q
    path = track_curve(poly, (m0, roots[0]), [m0, m1], step=0.005)
    assert abs(path.samples[-1][0] - m1) < 1e-12
    assert max(path.residuals) <= path.residual_tol


def test_fiber_roots_degree_22_match_mpmath():
    poly = prescribed_slope_curve(5, 11, 1).normalize()
    m0 = 1.08 + 0.02j
    with mpmath.workdps(50):
        m = mpmath.mpc(m0.real, m0.imag)
        coeffs = [mpmath.mpc(0)] * 23
        for (i, j), c in poly.terms.items():
            coeffs[22 - j] += mpmath.mpf(c.numerator) / c.denominator * m**i
        reference = [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=400)]
    roots = fiber_roots(poly, m0)
    assert len(roots) == 22
    assert max(min(abs(r - x) for x in roots) for r in reference) < 1e-6
    assert max(min(abs(r - x) for x in reference) for r in roots) < 1e-6
