"""Unit tests for numerical curve tracking and the volume-form integral."""

import cmath
import math
import time
from fractions import Fraction

import mpmath
import pytest
from _oracles import bloch_wigner, fig8_shape_volume

from slopesmith import (
    REGULAR_IDEAL_VOLUME,
    CurvePath,
    DiscriminantCollisionError,
    LaurentPoly2,
    RefinementNeededError,
    TrackingError,
    UniPoly,
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
    with pytest.raises(TrackingError, match="violates the residual tolerance"):
        CurvePath(
            samples=((1.2 + 0j, b0),),
            poly=poly,
            residual_tol=1e-9,
            residuals=(float("nan"),),
        )


@pytest.mark.parametrize("bad", [0j, complex("nan"), complex(0, float("inf"))])
def test_curve_path_refuses_zero_or_non_finite_coordinates(bad):
    # Each would make the volume-form integral NaN or infinite.
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    with pytest.raises(TrackingError, match="finite and nonzero"):
        CurvePath(
            samples=((1.2 + 0j, b0), (bad, b0)),
            poly=poly,
            residual_tol=1e-9,
            residuals=(0.0, 0.0),
        )


def test_curve_path_gives_back_python_tuples():
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[0]
    path = track_curve(poly, (1.2, b0), [1.2, 1.25], step=0.01)
    assert type(path.samples) is tuple and type(path.residuals) is tuple
    assert all(type(s) is tuple and len(s) == 2 for s in path.samples)
    assert all(type(z) is complex for s in path.samples for z in s)
    assert all(type(r) is float for r in path.residuals)
    assert path.samples[0] == (1.2, b0)
    assert path.reversed().samples == path.samples[::-1]
    assert path.reversed().residuals == path.residuals[::-1]
    assert path.reversed().reversed().samples == path.samples
    rebuilt = CurvePath(
        samples=path.samples,
        poly=path.poly,
        residual_tol=path.residual_tol,
        residuals=path.residuals,
        metadata=path.metadata,
    )
    assert rebuilt.samples == path.samples
    assert rebuilt.residuals == path.residuals
    assert rebuilt.metadata == path.metadata
    assert integrate_volume_form(rebuilt) == integrate_volume_form(path)


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
def test_fiber_roots_refuses_an_overflowing_fiber():
    with pytest.raises(TrackingError, match="overflows"):
        fiber_roots(_fig8(), 1e80)


def test_track_refuses_a_start_whose_residual_overflows():
    with pytest.raises(TrackingError, match="start point residual nan"):
        track_curve(_fig8(), (1.2, 1e160), [1.2, 1.3])


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


def _mp_residual(poly, m, b):
    """|A(m, b)| over the sum of |term| at (m, b), at 30 digits."""
    with mpmath.workdps(30):
        m, b = mpmath.mpc(m), mpmath.mpc(b)
        terms = [mpmath.mpf(c.numerator) / c.denominator * m**i * b**j
                 for (i, j), c in poly.terms.items()]
        return float(abs(mpmath.fsum(terms)) / mpmath.fsum(abs(t) for t in terms))


# Fiber degree 2 and 4 (the corpus curves), then 2q for the prescribed-slope
# curves (p, q, 1) with q = 1, 2, 3, 5, 8, 11.
_RESIDUAL_CURVES = ["fig8-knot", "fig8-sister", (1, 1), (1, 2), (2, 3), (2, 5), (3, 8), (5, 11)]


@pytest.mark.parametrize("curve", _RESIDUAL_CURVES, ids=str)
def test_sample_residuals_match_an_independent_evaluation(curve):
    if isinstance(curve, str):
        poly = load_corpus_entry(curve).poly
    else:
        poly = prescribed_slope_curve(*curve, 1)
    m0, m1 = 1.3 + 0.05j, 1.4 - 0.05j
    path = track_curve(poly, (m0, fiber_roots(poly, m0)[0]), [m0, 1.35 + 0.1j, m1], step=0.01)
    assert len(path.samples) > 10
    for (m, b), res in zip(path.samples, path.residuals):
        exact = _mp_residual(poly, m, b)
        assert exact <= path.residual_tol * (1 + 1e-6)
        if exact > 1e-14:
            assert 0.1 < res / exact < 10


def test_tracking_steps_do_no_exact_arithmetic(monkeypatch):
    poly = prescribed_slope_curve(5, 11, 1)

    def refuse(*args):
        raise AssertionError("exact evaluation reached from tracking")

    monkeypatch.setattr(UniPoly, "evaluate", refuse)
    monkeypatch.setattr(LaurentPoly2, "evaluate", refuse)
    conversions = []
    to_float = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__", lambda c: conversions.append(c) or to_float(c))
    b0 = fiber_roots(poly, 1.5)[0]
    path = track_curve(poly, (1.5, b0), [1.5, 1.7], step=0.005)
    assert len(path.samples) == 41
    # One conversion per term and call, none per step.
    assert len(conversions) <= 2 * len(poly.terms)


def test_bloch_wigner_at_the_regular_shape():
    assert abs(2 * bloch_wigner(cmath.exp(1j * math.pi / 3)) - 2 * REGULAR_IDEAL_VOLUME) < 1e-12


@pytest.mark.parametrize("branch", [0, 1])
@pytest.mark.parametrize("waypoints", [[1.2, 1.3], [1.2, 1.25 + 0.1j, 1.4 - 0.05j]])
def test_volume_change_is_a_quarter_of_the_shape_volume_change(waypoints, branch):
    # volume_change's -1/2 normalization reports one quarter of the change of
    # D(z) + D(w) along the fig8 branch; see ROADMAP item 3.
    poly = _fig8()
    b0 = fiber_roots(poly, 1.2)[branch]
    errors = []
    for step in (0.01, 0.001):
        path = track_curve(poly, (1.2, b0), waypoints, step=step)
        (m0, l0), (m1, l1) = path.samples[0], path.samples[-1]
        delta = fig8_shape_volume(m1, l1) - fig8_shape_volume(m0, l0)
        assert abs(delta) > 0.1
        errors.append(abs(4 * volume_change(path) - delta))
    assert errors[1] < 1e-6
    # the trapezoid rule is second order: a 10x finer step gains about 100x
    assert errors[0] > 50 * errors[1]
