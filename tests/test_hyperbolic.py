"""Unit tests for hyperbolic geometry: angle function, distances, volumes."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from slopesmith import (
    REGULAR_IDEAL_VOLUME,
    HyperbolicError,
    KleinTetrahedron,
    QuadratureError,
    SamplerError,
    face_angle_check,
    face_angles,
    ideal_regular_tet,
    ideal_tet_volume,
    klein_angle,
    klein_distance,
    klein_volume,
    lobachevsky,
    regular_tet,
    volume_defect_report,
)
from slopesmith.hyperbolic import (
    _BARY_HI,
    _BARY_LO,
    _W_HI,
    _W_LO,
    _ZETA_EVEN_OVER_PI,
    _leaf_estimates,
    _octasect,
)
from _oracles import face_angles_mp, lobachevsky_oracle, schlafli_regular_volume

CATALAN = 0.915965594177219015054603514932


# -- angle function ---------------------------------------------------------


def test_lobachevsky_special_values():
    assert abs(lobachevsky(0.0)) < 1e-15
    assert abs(lobachevsky(math.pi / 2)) < 1e-15
    assert abs(lobachevsky(math.pi)) < 1e-15
    assert abs(lobachevsky(math.pi / 4) - CATALAN / 2) < 1e-14


def test_lobachevsky_matches_dilogarithm_oracle():
    for k in range(1, 40):
        theta = k * math.pi / 40
        assert abs(lobachevsky(theta) - lobachevsky_oracle(theta)) < 1e-12


def test_zeta_table_is_exact():
    assert _ZETA_EVEN_OVER_PI[:3] == (1 / 6, 1 / 90, 1 / 945)
    assert len(_ZETA_EVEN_OVER_PI) == 40
    with mpmath.workdps(40):
        for k, z in enumerate(_ZETA_EVEN_OVER_PI, start=1):
            want = float(mpmath.zeta(2 * k) / mpmath.pi ** (2 * k))
            assert abs(z - want) <= 1e-16 * want


def test_lobachevsky_returns_plain_float():
    for theta in (0.0, 0.3, -1.2, math.pi / 3, 7.0):
        assert type(lobachevsky(theta)) is float


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, slopesmith; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# Exact commands and their exit codes; none of them may load numpy.
_EXACT_RUNS = (
    (["analyze", "--poly", "fig8-sister"], 0),
    (["analyze", "--poly", "fig8-knot"], 0),
    (["analyze", "--poly", "fig8-knot", "--vars", "m,l"], 0),
    (["obstruct", "cyclic", "--c=2"], 3),
    (["obstruct", "diameter", "--p", "1", "--q", "3"], 3),
    (["analyze", "--poly", "no-such-curve"], 2),
    (["obstruct", "diameter", "--p", "2", "--q", "4"], 2),
)


def test_exact_half_does_not_load_numpy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"""
import contextlib, io, os, sys
import slopesmith
from slopesmith import cli
for k, (argv, want) in enumerate({_EXACT_RUNS!r}):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(argv + ["--out", os.path.join({str(tmp_path)!r}, f"r{{k}}")])
    assert got == want, (argv, got)
print("numpy" in sys.modules)
volume = slopesmith.klein_volume
assert volume is slopesmith.hyperbolic.klein_volume
print("numpy" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False", "True"]
    assert len(list(tmp_path.glob("r*.json"))) == 5  # the two refusals write nothing


def test_package_surface_resolves_every_public_name():
    import slopesmith

    for name in slopesmith.__all__:
        assert getattr(slopesmith, name) is not None
    namespace: dict = {}
    exec("from slopesmith import *", namespace)
    assert set(slopesmith.__all__) <= set(namespace)
    assert set(slopesmith.__all__) <= set(dir(slopesmith))
    assert slopesmith.track_curve is slopesmith.tracking.track_curve
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(slopesmith, "no_such_name")


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_lobachevsky_refuses_non_finite_theta(theta):
    with pytest.raises(HyperbolicError, match="theta must be finite"):
        lobachevsky(theta)


def test_lobachevsky_is_odd_and_pi_periodic():
    for theta in (0.3, 0.7, 1.1, 2.9):
        assert abs(lobachevsky(-theta) + lobachevsky(theta)) < 1e-14
        assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) < 1e-13
        assert abs(lobachevsky(theta - 7 * math.pi) - lobachevsky(theta)) < 1e-12


def test_lobachevsky_duplication_identity():
    # L(2t) = 2 L(t) + 2 L(t + pi/2)
    for theta in (0.2, 0.5, 1.0, 1.4):
        lhs = lobachevsky(2 * theta)
        rhs = 2 * lobachevsky(theta) + 2 * lobachevsky(theta + math.pi / 2)
        assert abs(lhs - rhs) < 1e-13


def test_lobachevsky_derivative_finite_difference():
    # d/dt L(t) = -log|2 sin t|
    h = 1e-6
    for theta in (0.4, 0.9, 1.3, 2.2):
        fd = (lobachevsky(theta + h) - lobachevsky(theta - h)) / (2 * h)
        assert abs(fd + math.log(2 * math.sin(theta))) < 1e-8


def test_lobachevsky_maximum_at_pi_six():
    # global maximum of the angle function sits at pi/6
    t_star = math.pi / 6
    for other in (0.1, 0.3, 0.7, 1.0, 1.5):
        assert lobachevsky(t_star) >= lobachevsky(other)


# -- ideal tetrahedra -------------------------------------------------------


def test_ideal_tet_volume_regular_is_maximal_constant():
    v = ideal_tet_volume(math.pi / 3, math.pi / 3, math.pi / 3)
    assert abs(v - REGULAR_IDEAL_VOLUME) < 1e-15
    assert abs(REGULAR_IDEAL_VOLUME - 1.014941606409654) < 1e-14


def test_ideal_tet_volume_matches_oracle():
    cases = [(0.5, 1.2, math.pi - 1.7), (1.0, 1.0, math.pi - 2.0)]
    for a, b, c in cases:
        want = sum(lobachevsky_oracle(x) for x in (a, b, c))
        assert abs(ideal_tet_volume(a, b, c) - want) < 1e-12


def test_ideal_tet_volume_validation():
    with pytest.raises(HyperbolicError):
        ideal_tet_volume(1.0, 1.0, 1.0)
    with pytest.raises(HyperbolicError):
        ideal_tet_volume(-0.1, math.pi / 2, math.pi / 2 + 0.1)


def test_regular_ideal_is_volume_maximizer_among_ideal():
    vol = REGULAR_IDEAL_VOLUME
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(0.05, math.pi - 0.1)
        b = rng.uniform(0.05, math.pi - a - 0.05)
        c = math.pi - a - b
        if c <= 0.01:
            continue
        assert ideal_tet_volume(a, b, c) <= vol + 1e-12


# -- Klein model primitives -------------------------------------------------


def test_klein_tetrahedron_validation():
    with pytest.raises(HyperbolicError):
        KleinTetrahedron(np.zeros((3, 3)))
    with pytest.raises(HyperbolicError):
        KleinTetrahedron(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1.5, 0, 0.0]]))
    with pytest.raises(HyperbolicError):
        KleinTetrahedron(np.zeros((4, 3)))  # coplanar


def test_klein_tetrahedron_vertices_frozen():
    t = regular_tet(2.0)
    with pytest.raises(ValueError):
        t.vertices[0, 0] = 0.5


def test_klein_distance_known_values():
    assert klein_distance(np.zeros(3), np.zeros(3)) == 0.0
    x = np.array([0.5, 0.0, 0.0])
    assert abs(klein_distance(np.zeros(3), x) - math.atanh(0.5)) < 1e-14
    assert klein_distance(np.zeros(3), np.array([1.0, 0.0, 0.0])) == math.inf


def test_klein_distance_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        x, y, z = (rng.uniform(-0.5, 0.5, 3) for _ in range(3))
        assert abs(klein_distance(x, y) - klein_distance(y, x)) < 1e-12
        assert klein_distance(x, z) <= klein_distance(x, y) + klein_distance(y, z) + 1e-12


def test_klein_angle_at_origin_is_euclidean():
    u = np.array([0.3, 0.0, 0.0])
    v = np.array([0.3 * math.cos(1.0), 0.3 * math.sin(1.0), 0.0])
    assert abs(klein_angle(np.zeros(3), u, v) - 1.0) < 1e-12


def test_klein_angle_needs_finite_apex():
    with pytest.raises(HyperbolicError):
        klein_angle(np.array([1.0, 0, 0]), np.zeros(3), np.array([0, 1.0, 0.0]))


def test_regular_tet_is_regular():
    t = regular_tet(2.0)
    verts = t.vertices
    dists = [
        klein_distance(verts[i], verts[j]) for i in range(4) for j in range(i + 1, 4)
    ]
    assert max(abs(d - 2.0) for d in dists) < 1e-12
    assert not t.ideal_mask().any()
    assert ideal_regular_tet().ideal_mask().all()


def test_regular_tet_refuses_overflowing_side():
    with pytest.raises(HyperbolicError):
        regular_tet(800.0)


def test_regular_tet_refuses_sides_whose_vertices_round_to_ideal():
    assert not regular_tet(27.5).ideal_mask().any()
    with pytest.raises(HyperbolicError):
        regular_tet(28.0)


def test_face_angles_two_routes_agree_on_regular_tet():
    side = 10.0
    t = regular_tet(side)
    ang = face_angles(t)
    assert ang.shape == (4, 3)
    # closed form for the face angle of a regular hyperbolic tetrahedron
    want = math.acos(math.cosh(side) / (math.cosh(side) + 1))
    assert np.max(np.abs(ang - want)) < 1e-12
    # each face angle sheet sums below pi (thin triangles)
    assert (ang.sum(axis=1) < math.pi).all()


def test_face_angles_of_ideal_tet_vanish():
    ang = face_angles(ideal_regular_tet())
    assert np.max(np.abs(ang)) < 1e-12


def _random_tets(seed, count, with_ideal=False):
    rng = np.random.default_rng(seed)
    tets = []
    while len(tets) < count:
        dirs = rng.normal(size=(4, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = rng.uniform(0.05, 0.99, size=4)
        if with_ideal:
            radii[rng.permutation(4)[: rng.integers(1, 4)]] = 1.0
        try:
            tets.append(KleinTetrahedron(dirs * radii[:, None]))
        except HyperbolicError:
            continue
    return tets


def test_face_angles_match_law_of_cosines_oracle():
    for tet in _random_tets(11, 60):
        want = np.array(face_angles_mp(tet.vertices))
        assert np.max(np.abs(face_angles(tet) - want)) < 1e-12


def test_face_angles_with_ideal_vertices_match_metric_oracle():
    for tet in _random_tets(12, 30, with_ideal=True):
        got, want = face_angles(tet), np.array(face_angles_mp(tet.vertices))
        assert np.max(np.abs(got - want)) < 1e-12
        assert (got[want == 0.0] == 0.0).all()


def test_face_angles_match_closed_form_on_regular_tets():
    # Past side 17.5 the rounding of the vertices alone moves the exact
    # angle of the stored tetrahedron by more than 1e-12 from the closed
    # form (1.1e-12 at side 18, 2.3e-12 at 19.5, in 50-digit arithmetic).
    with mpmath.workdps(50):
        for side in np.arange(0.5, 17.51, 0.25):
            ch = mpmath.cosh(mpmath.mpf(float(side)))
            want = float(mpmath.acos(ch / (ch + 1)))
            assert np.max(np.abs(face_angles(regular_tet(float(side))) - want)) < 1e-12, side


# -- volume quadrature ------------------------------------------------------


def test_klein_volume_regular_side_two_frozen():
    v = klein_volume(regular_tet(2.0), 1e-8)
    assert abs(v - 0.3993385573695282) < 1e-7


def test_klein_volume_tiny_tet_matches_euclidean():
    scale = 1e-3
    base = regular_tet(2.0)
    tiny = KleinTetrahedron(base.vertices * scale)
    v = klein_volume(tiny, 1e-12)
    assert abs(v / tiny.euclidean_volume() - 1.0) < 1e-4


def test_klein_volume_rotation_invariance():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    t = regular_tet(3.0)
    rotated = KleinTetrahedron(t.vertices @ q.T)
    v0 = klein_volume(t, 1e-7)
    v1 = klein_volume(rotated, 1e-7)
    assert abs(v0 - v1) < 3e-7


def test_klein_volume_monotone_in_side():
    vols = [klein_volume(regular_tet(s), 1e-6) for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(a < b for a, b in zip(vols, vols[1:]))
    assert vols[-1] < REGULAR_IDEAL_VOLUME


def _per_leaf_estimates(corners, vols):
    """Loop reference for _leaf_estimates: the nodes themselves, leaf by leaf."""
    hi, lo = np.empty(len(vols)), np.empty(len(vols))
    for i, (leaf, vol) in enumerate(zip(corners, vols)):
        for bary, weights, out in ((_BARY_HI, _W_HI, hi), (_BARY_LO, _W_LO, lo)):
            nodes = bary @ leaf
            dens = 1.0 / (1.0 - np.sum(nodes * nodes, axis=1)) ** 2
            out[i] = vol * float(weights @ dens)
    return hi, lo


@pytest.mark.parametrize("tet", [ideal_regular_tet(), regular_tet(6.0)], ids=["ideal", "side6"])
def test_leaf_estimates_match_per_leaf_reference(tet):
    corners = tet.vertices[None, :, :].copy()
    for _ in range(3):
        corners = _octasect(corners)
    vols = np.abs(np.linalg.det(corners[:, 1:] - corners[:, :1])) / 6.0
    for got, want in zip(_leaf_estimates(corners, vols), _per_leaf_estimates(corners, vols)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


SCHLAFLI_GRID = [(1e-6, 1.0 + 0.5 * k) for k in range(19)] + [
    (1e-8, 1.0 + 0.5 * k) for k in range(6)
]


@pytest.mark.parametrize("tol, side", SCHLAFLI_GRID)
def test_klein_volume_meets_tolerance_against_schlafli(tol, side):
    assert abs(klein_volume(regular_tet(side), tol) - schlafli_regular_volume(side)) <= tol


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_klein_volume_refuses_tolerance_not_positive(tol):
    with pytest.raises(HyperbolicError, match="tolerance must be positive"):
        klein_volume(regular_tet(2.0), tol, max_leaves=20000)


def test_klein_volume_budget_exhaustion_raises():
    with pytest.raises(QuadratureError) as exc:
        klein_volume(regular_tet(6.0), 1e-10, max_leaves=100)
    err = exc.value
    assert err.error_estimate > err.target
    assert 0 < err.estimate < REGULAR_IDEAL_VOLUME


def test_klein_volume_ideal_tet_near_maximal():
    v = klein_volume(ideal_regular_tet(), 1e-5)
    assert abs(v - REGULAR_IDEAL_VOLUME) < 5e-5


def test_volume_defect_report_fast_probe():
    rep = volume_defect_report([4.0, 6.0], tol=1e-6)
    assert len(rep.rows) == 2
    r4, r6 = rep.rows
    assert r4.ratio is None
    assert 0 < r6.defect < r4.defect
    assert abs(r6.ratio - r6.defect / r4.defect) < 1e-12
    assert abs(r4.scaled_defect - 16 * r4.defect) < 1e-12
    assert rep.decay_rate < -0.5


def test_volume_defect_report_validation():
    with pytest.raises(HyperbolicError):
        volume_defect_report([])
    with pytest.raises(HyperbolicError):
        volume_defect_report([4.0, 4.0])
    with pytest.raises(HyperbolicError):
        volume_defect_report([-1.0, 2.0])


# -- sampled face-angle law -------------------------------------------------


def test_face_angle_check_small_run():
    rep = face_angle_check(n_samples=40, seed=0)
    assert rep.n_samples == 40
    assert rep.fitted_c > 0
    assert rep.violations == ()
    assert rep.vol_threshold == pytest.approx(REGULAR_IDEAL_VOLUME - 0.05)


def test_face_angle_check_is_deterministic():
    a = face_angle_check(n_samples=15, seed=4)
    b = face_angle_check(n_samples=15, seed=4)
    assert a.fitted_c == b.fitted_c
    assert a.n_attempts == b.n_attempts


def test_face_angle_check_unreachable_threshold():
    with pytest.raises(SamplerError):
        face_angle_check(n_samples=5, vol_threshold=1.2)


def test_face_angle_check_runtime_budget():
    start = time.perf_counter()
    face_angle_check(n_samples=25, seed=1)
    assert time.perf_counter() - start < 10.0
