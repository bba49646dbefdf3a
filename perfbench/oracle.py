"""Oracle gate: an independent check of every job's output.

Nothing here calls slopesmith.  Curves are rebuilt from the job's own
inputs with sympy; hulls, seminorms and Lobachevsky values come from the
reference implementations in ``tests/_oracles.py``; irreducibility comes
from sympy factorisation; volumes from mpmath (the Clausen value 3Л(π/3)
for the ideal regular tetrahedron and Schläfli's integral for compact
regular ones); ratio constancy from high-precision mpmath points on the
curve; tracking from an independent residual evaluation, numpy's
companion-matrix roots and, on loops that enclose no branch point, a
near-zero integral.  The gate runs after the timed region.

``OracleGate.check(job, outcome)`` returns None for a correct outcome and
a one-line reason otherwise; ``outcome`` is the runner's result or the
exception it raised.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import mpmath as mp
import numpy as np
import sympy as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from _oracles import brute_hull, lobachevsky_oracle, seminorm_oracle, shoelace  # noqa: E402

RESIDUAL_TOL = 1e-9
LOOP_INTEGRAL_TOL = 1e-6
LOBACHEVSKY_TOL = 1e-12

_SYMMETRY_SIGNS = {
    "negate-first": lambda i, j: i,
    "negate-second": lambda i, j: j,
    "negate-both": lambda i, j: i + j,
}


def terms_from_text(text: str, names: tuple[str, str]) -> dict[tuple[int, int], Fraction]:
    """Exponent pair -> coefficient of a Laurent polynomial written as text."""
    x, y = sp.symbols(names)
    expr = sp.sympify(text.replace("^", "**"), locals={names[0]: x, names[1]: y})
    shift = 64  # clears every negative power the generators write
    poly = sp.Poly(sp.expand(expr * x**shift * y**shift), x, y)
    return {
        (i - shift, j - shift): Fraction(int(c.p), int(c.q)) for (i, j), c in poly.terms()
    }


def corpus_text(name: str) -> tuple[str, tuple[str, str]]:
    """Polynomial text and variable names of a bundled corpus file."""
    path = ROOT / "src" / "slopesmith" / "corpus" / (name.replace("-", "_") + ".poly")
    body, names = [], None
    for line in path.read_text().splitlines():
        line = line.strip()
        if line.startswith("vars:"):
            names = tuple(line[5:].split())
        elif line and not line.startswith("#"):
            body.append(line)
    return " ".join(body), names


def prescribed_terms(p: int, q: int, c) -> dict[tuple[int, int], Fraction]:
    m, l = sp.symbols("m l")
    expr = m**p * (l**2 - 1) ** p * (l**2 * m**2 - 1) ** (q - p) - sp.Rational(
        Fraction(c).numerator, Fraction(c).denominator
    ) * l**q * (m**2 - 1) ** q
    return {
        (i, j): Fraction(int(k.p), int(k.q))
        for (i, j), k in sp.Poly(sp.expand(expr), m, l).terms()
    }


def ratio_curve_terms(c) -> dict[tuple[int, int], Fraction]:
    c = Fraction(c)
    return {(2, 1): Fraction(1), (0, 1): Fraction(-1), (1, 2): -c, (1, 0): c}


def sympy_irreducible(terms) -> bool:
    """True when the polynomial has exactly one non-unit factor over Q."""
    x, y = sp.symbols("x y")
    shift_x = -min(i for i, _ in terms)
    shift_y = -min(j for _, j in terms)
    expr = sum(
        sp.Rational(c.numerator, c.denominator) * x ** (i + shift_x) * y ** (j + shift_y)
        for (i, j), c in terms.items()
    )
    _, factors = sp.Poly(expr, x, y).factor_list()
    nonunit = [(f, k) for f, k in factors if f.total_degree() > 0]
    return len(nonunit) == 1 and nonunit[0][1] == 1


def _primitive(dx: int, dy: int) -> tuple[int, int, int]:
    g = gcd(abs(dx), abs(dy))
    return dx // g, dy // g, g


def _slope_key(dx: int, dy: int) -> tuple[int, int]:
    """(rise, run) of a direction: run >= 0, and (1, 0) for infinite slopes."""
    if dy < 0 or (dy == 0 and dx < 0):
        dx, dy = -dx, -dy
    return (1, 0) if dy == 0 else (dx, dy)


def polygon_oracle(terms):
    """Hull vertices, slope set and weighted functionals from the raw support."""
    imin = min(i for i, _ in terms)
    jmin = min(j for _, j in terms)
    hull = [(int(x), int(y)) for x, y in brute_hull([(i - imin, j - jmin) for i, j in terms])]
    edges = []
    if len(hull) >= 3:
        for k, v in enumerate(hull):
            w = hull[(k + 1) % len(hull)]
            edges.append(_primitive(w[0] - v[0], w[1] - v[1]))
    weights: dict[tuple[int, int], int] = {}
    for dx, dy, length in edges:
        rise, run = _slope_key(dx, dy)
        q, p = run, -rise
        if q < 0 or (q == 0 and p < 0):
            q, p = -q, -p
        weights[(q, p)] = max(weights.get((q, p), 0), length)
    slopes = {_slope_key(dx, dy) for dx, dy, _ in edges}
    functionals = {(q, p, w) for (q, p), w in weights.items()}
    return hull, slopes, functionals


def ball_oracle(functionals):
    """Minimal nonzero lattice norm by exhaustive search, and the ball's vertices.

    Every v with max(|x|, |y|) > K has norm above the norm of (1, 0) or
    (0, 1), where K is that norm divided by the least norm on the boundary
    of the unit square; that least norm sits at a corner or where some
    functional vanishes on a side.
    """
    funcs = sorted(functionals)

    def norm(v):
        return seminorm_oracle(funcs, v)

    boundary = [(Fraction(sx), Fraction(sy)) for sx in (-1, 1) for sy in (-1, 1)]
    for q, p, _ in funcs:
        for fixed in (-1, 1):
            if p != 0 and abs(Fraction(-q * fixed, p)) <= 1:
                boundary.append((Fraction(fixed), Fraction(-q * fixed, p)))
            if q != 0 and abs(Fraction(-p * fixed, q)) <= 1:
                boundary.append((Fraction(-p * fixed, q), Fraction(fixed)))
    least = min(norm(v) for v in boundary)
    upper = min(norm((1, 0)), norm((0, 1)))
    k = int(upper / least) + 1
    radius = min(
        norm((x, y)) for x in range(-k, k + 1) for y in range(-k, k + 1) if (x, y) != (0, 0)
    )
    vertices = set()
    for q, p, _ in funcs:
        a, b = -p, q
        scale = radius / norm((a, b))
        vertices.add((scale * a, scale * b))
        vertices.add((-scale * a, -scale * b))
    return radius, vertices


def fundamental_oracle(vertices):
    """(passed, area, p, q) of the parallelogram test, or None when it does not apply."""
    ordered = sorted(vertices, key=lambda v: math.atan2(v[1], v[0]))
    if len(ordered) != 4:
        return None
    v0, v1, v2, v3 = ordered
    if (v0[0] + v2[0], v0[1] + v2[1]) != (v1[0] + v3[0], v1[1] + v3[1]):
        return None
    area = abs(shoelace(ordered))
    mids = {
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in zip(ordered, ordered[1:] + ordered[:1])
    }
    p = q = None
    slopes_ok = False
    if all(y != 0 for _, y in ordered):
        ratios = sorted({Fraction(x) / y for x, y in ordered})
        if len(ratios) == 2 and ratios[1] - ratios[0] == 2 and -1 <= ratios[0] <= 0:
            slopes_ok = True
            p, q = (-ratios[0]).numerator, (-ratios[0]).denominator
    passed = area == 4 and (Fraction(1), Fraction(0)) in mids and slopes_ok
    return passed, area, p, q


def symmetry_oracle(terms) -> set[str]:
    found = set()
    anchor = next(iter(terms))
    for action, power in _SYMMETRY_SIGNS.items():
        image = {e: -c if power(*e) % 2 else c for e, c in terms.items()}
        scale = image[anchor] / terms[anchor]
        if all(image[e] == scale * c for e, c in terms.items()):
            found.add(action)
    return found


def diameter_verdict_oracle(p: int, q: int) -> str:
    """The closed-form parity rule for a reduced slope pair."""
    if q == 1 or q % 2 == 0 or p % 2 == 1:
        return "contradiction-established"
    return "consistent"


# -- numerical references -----------------------------------------------------------

mp.mp.dps = 30
IDEAL_VOLUME = 1.5 * mp.clsin(2, 2 * mp.pi / 3)  # 3Л(π/3)


def schlafli_volume(side: float):
    """Regular compact tetrahedron by Schläfli: V(α) = v3 − 3∫_{π/3}^{α} ℓ(θ) dθ."""
    ch = mp.cosh(mp.mpf(side))
    alpha = mp.acos(ch / (1 + 2 * ch))
    edge = lambda th: mp.acosh(mp.cos(th) / (1 - 2 * mp.cos(th)))  # noqa: E731
    return mp.re(IDEAL_VOLUME - 3 * mp.quad(edge, [mp.pi / 3, alpha]))


def ratio_samples(terms, mode: str, p, q):
    """Ratio values at high-precision complex points of the curve."""
    out = []
    with mp.workdps(40):
        for x in (mp.mpc(1.3, 0.7), mp.mpc(0.6, 1.1), mp.mpc(2.1, -0.4), mp.mpc(-0.8, 0.9)):
            top = max(j for _, j in terms)
            coeffs = [mp.mpc(0)] * (top + 1)
            for (i, j), c in terms.items():
                coeffs[j] += mp.mpf(c.numerator) / c.denominator * x**i
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if len(coeffs) < 2:
                continue
            roots = mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=200)
            for y in roots:
                if abs(y) < mp.mpf(10) ** -20:
                    continue
                tx, ty, txy = (x - 1 / x) ** 2, (y - 1 / y) ** 2, (x * y - 1 / (x * y)) ** 2
                num, den = (tx, ty) if mode == "cyclic" else (ty**p * txy ** (q - p), tx**q)
                if abs(den) > mp.mpf(10) ** -20:
                    out.append(num / den)
    return out


class CurveNumerics:
    """Float evaluation of one curve, independent of the library's code."""

    def __init__(self, terms):
        top = max(j for _, j in terms)
        lo = min(i for i, _ in terms)
        hi = max(i for i, _ in terms)
        # coeff[j] is the polynomial in m (ascending from m^lo) multiplying l^j.
        self.lo = lo
        self.coeff = np.zeros((top + 1, hi - lo + 1))
        for (i, j), c in terms.items():
            self.coeff[j, i - lo] = float(c)
        self.exps = np.array(list(terms), dtype=float)
        self.values = np.array([float(c) for c in terms.values()])

    def fiber(self, m: complex) -> np.ndarray:
        """Coefficients in l, ascending, at a given m."""
        powers = m ** np.arange(self.lo, self.lo + self.coeff.shape[1])
        return self.coeff @ powers

    def residual(self, m: complex, b: complex) -> float:
        mono = np.exp(self.exps[:, 0] * np.log(m + 0j) + self.exps[:, 1] * np.log(b + 0j))
        return abs(np.sum(self.values * mono)) / np.sum(np.abs(self.values * mono))

    def branch_free(self, waypoints) -> bool:
        """True when the closed polygon through the waypoints encloses no point
        where the fiber degenerates: no branch point (winding of the
        discriminant is zero), no zero of the first or last coefficient in l,
        and not m = 0."""
        pts = []
        for a, b in zip(waypoints, waypoints[1:]):
            pts += [a + (b - a) * k / 4 for k in range(4)]
        pts.append(waypoints[-1])
        phases = []
        for m in pts:
            coeffs = self.fiber(m)
            roots = np.roots(coeffs[::-1])
            diffs = roots[:, None] - roots[None, :]
            iu = np.triu_indices(len(roots), 1)
            phase = 2 * np.angle(diffs[iu]).sum() + (2 * len(roots) - 2) * np.angle(coeffs[-1])
            phases.append(phase)
        steps = np.angle(np.exp(1j * np.diff(phases)))
        if np.abs(steps).max() > math.pi / 2 or abs(steps.sum()) > math.pi:
            return False
        path = np.array(pts)
        lead = np.roots(self.coeff[-1][::-1]) if np.count_nonzero(self.coeff[-1]) > 1 else []
        const = np.roots(self.coeff[0][::-1]) if np.count_nonzero(self.coeff[0]) > 1 else []
        return not any(_inside(z, path) for z in list(lead) + list(const) + [0j])


def _inside(z: complex, path: np.ndarray) -> bool:
    """Winding number of a closed polyline around z is nonzero."""
    angles = np.angle(path - z)
    return abs(np.angle(np.exp(1j * np.diff(angles))).sum()) > math.pi


def trapezoid_volume_form(samples) -> float:
    total = 0.0
    for (a0, b0), (a1, b1) in zip(samples, samples[1:]):
        da = cmath.phase(a1 / a0)
        db = cmath.phase(b1 / b0)
        total += 0.5 * (math.log(abs(a0)) + math.log(abs(a1))) * db
        total -= 0.5 * (math.log(abs(b0)) + math.log(abs(b1))) * da
    return total


# -- the gate ---------------------------------------------------------------------------


def _verdict_exit(verdict: str) -> int:
    return {"consistent": 0, "contradiction-established": 3}.get(verdict, 2)


class OracleGate:
    """Checks outcomes job by job, caching reference values within one run."""

    def __init__(self):
        self._cache: dict = {}
        self._first_cli: dict = {}
        self.err_over_tol: list[float] = []  # klein_volume achieved error / tol

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def schlafli(self, side):
        return self._memo(("schlafli", side), lambda: schlafli_volume(side))

    def curve_terms(self, spec):
        if spec[0] == "corpus":
            return self._memo(spec, lambda: terms_from_text(*corpus_text(spec[1])))
        if spec[0] == "psc":
            c = spec[3] if len(spec) > 3 else 1
            return self._memo(("psc", spec[1], spec[2], c), lambda: prescribed_terms(spec[1], spec[2], c))
        return ratio_curve_terms(spec[1])

    def numerics(self, spec) -> CurveNumerics:
        return self._memo(("numerics", spec), lambda: CurveNumerics(self.curve_terms(spec)))

    def check(self, job, outcome) -> str | None:
        if job.kind == "cli":
            return self._check_cli(job.args[0], outcome)
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {str(outcome)[:80]}"
        return getattr(self, "_check_" + job.kind)(*job.args, outcome)

    # exact layer

    def _check_analyze(self, text, names, res):
        terms = self._memo(("text", text, names), lambda: terms_from_text(text, names))
        hull, slopes, functionals = polygon_oracle(terms)
        polygon = res["polygon"]
        if polygon.degenerate:
            return None if len(hull) <= 2 else "polygon flagged degenerate"
        if [tuple(v) for v in polygon.vertices] != hull:
            return f"polygon vertices {polygon.vertices} != hull {hull}"
        if {(s.rise, s.run) for s in res["slopes"]} != slopes:
            return "boundary slopes differ from the hull's edge classes"
        if set(res["seminorm"].functionals) != functionals:
            return "seminorm functionals differ"
        if set(symmetry_oracle(terms)) != set(res["symmetries"]):
            return f"symmetries {sorted(res['symmetries'])} != {sorted(symmetry_oracle(terms))}"
        pairs = [(q, p) for q, p, _ in functionals]
        is_norm = any(a[0] * b[1] != a[1] * b[0] for a in pairs for b in pairs)
        if is_norm != ("ball" in res):
            return "norm/strip decision differs"
        if not is_norm:
            return None
        radius, vertices = ball_oracle(functionals)
        ball = res["ball"]
        if ball.radius != radius or set(ball.vertices) != vertices:
            return f"norm ball radius {ball.radius} != {radius} or vertices differ"
        expected = fundamental_oracle(vertices)
        check = res["check"]
        if expected is None or isinstance(check, Exception):
            return None if (expected is None) == isinstance(check, Exception) else "fundamental check applicability differs"
        if (check.passed, check.area, check.p, check.q) != expected:
            return f"fundamental check {(check.passed, check.area, check.p, check.q)} != {expected}"
        return None

    def _check_diameter(self, p, q, report):
        expected = diameter_verdict_oracle(p, q)
        return None if report.verdict == expected else f"verdict {report.verdict} != {expected}"

    def cyclic_expected(self, c) -> tuple[str, str]:
        """(irreducibility status, verdict) the cyclic pipeline must reach."""
        def decide():
            if not sympy_irreducible(ratio_curve_terms(c)):
                return "factors", "consistent"
            return "irreducible", "consistent" if abs(c) == 1 else "contradiction-established"
        return self._memo(("cyclic", c), decide)

    def _check_cyclic(self, c, report):
        status, verdict = self.cyclic_expected(Fraction(c))
        got = {e.step: e.value for e in report.evidence}.get("irreducibility")
        if got != status or report.verdict != verdict:
            return f"irreducibility {got}/verdict {report.verdict} != {status}/{verdict}"
        return None

    def _check_irreducible(self, p, q, c, report):
        irreducible = self._memo(("irr", p, q, c), lambda: sympy_irreducible(prescribed_terms(p, q, c)))
        if report.status == "inconclusive":
            return None  # the certificate is one-sided; undecided is not wrong
        if (report.status == "irreducible") != irreducible:
            return f"status {report.status}, sympy says irreducible={irreducible}"
        return None

    def _check_ratio(self, curve, mode, p, q, report):
        values = self._memo(("ratio", curve, mode, p, q),
                            lambda: ratio_samples(self.curve_terms(curve), mode, p, q))
        if len(values) < 2:
            return "oracle found fewer than two curve points"
        ref = values[0]
        constant = all(abs(v - ref) <= mp.mpf(10) ** -25 * max(1, abs(ref)) for v in values)
        if (report.status == "constant") != constant:
            return f"status {report.status}, oracle constant={constant}"
        if constant:
            value = mp.mpf(report.value.numerator) / report.value.denominator
            if abs(value - ref) > mp.mpf(10) ** -25 * max(1, abs(ref)):
                return f"constant {report.value} != oracle {mp.nstr(ref, 12)}"
        return None

    # volume layer

    def _volume_error(self, vol, ref, tol) -> str | None:
        err = float(abs(vol - ref))
        self.err_over_tol.append(err / tol)
        return None if err <= tol else f"achieved error {err:.3g} > tol {tol:g}"

    def _check_kv_ideal(self, tol, vol):
        return self._volume_error(vol, IDEAL_VOLUME, tol)

    def _check_kv_compact(self, side, tol, vol):
        return self._volume_error(vol, self.schlafli(side), tol)

    def _check_defect(self, sides, tol, report):
        if [r.side for r in report.rows] != [float(s) for s in sides]:
            return "rows do not follow the requested sides"
        for row in report.rows:
            ref = self.schlafli(row.side)
            reason = self._volume_error(row.volume, ref, tol)
            if reason:
                return f"side {row.side:.4g}: {reason}"
            if abs(row.defect - float(IDEAL_VOLUME - ref)) > tol + 1e-12:
                return f"side {row.side:.4g}: defect off by more than tol"
        if not math.isfinite(report.decay_rate):
            return "decay rate is not finite"
        return None

    def _check_faces(self, side, n_samples, seed, res):
        ch = math.cosh(side)
        angle = math.acos(ch / (1 + ch))  # law of cosines in an equilateral triangle
        if np.abs(np.asarray(res["angles"]) - angle).max() > 1e-9:
            return "face angles differ from the equilateral closed form"
        report = res["report"]
        if report.n_samples != n_samples or not report.fitted_c > 0 or report.violations:
            return "face-angle fit is not a strict positive bound on every sample"
        return None

    def _check_lob(self, thetas, values):
        for t, v in zip(thetas, values):
            ref = lobachevsky_oracle(t)
            if abs(v - ref) > LOBACHEVSKY_TOL:
                return f"Л({t:.6g}) off by {abs(v - ref):.3g}"
        return None

    # tracking layer

    def _check_track(self, curve, waypoints, step, branch, res):
        num = self.numerics(curve)
        m0 = complex(waypoints[0])
        reference = np.roots(num.fiber(m0)[::-1])
        roots = np.array(res["roots"], dtype=complex)
        if len(roots) != len(reference):
            return f"{len(roots)} fiber roots, expected {len(reference)}"
        if max(num.residual(m0, b) for b in roots) > RESIDUAL_TOL:
            return "a fiber root misses the residual tolerance"
        if max(np.abs(roots - r).min() / (1 + abs(r)) for r in reference) > 1e-6:
            return "fiber roots do not cover the reference roots"
        path = res["path"]
        samples = path.samples
        if samples[0] != (m0, roots[branch % len(roots)]) or abs(samples[-1][0] - waypoints[-1]) > 1e-12:
            return "path does not run from the start point to the last waypoint"
        worst = max(num.residual(a, b) for a, b in samples)
        if worst > RESIDUAL_TOL * (1 + 1e-6):
            return f"sample residual {worst:.3g} > {RESIDUAL_TOL:g}"
        integral = res["integral"]
        if waypoints[0] == waypoints[-1]:
            if not self._memo(("free", curve, waypoints), lambda: num.branch_free(waypoints)):
                return None
            if abs(samples[-1][1] - samples[0][1]) > 1e-8 * (1 + abs(samples[0][1])):
                return "loop around no branch point did not return to its start"
            if abs(integral) > LOOP_INTEGRAL_TOL:
                return f"loop integral {integral:.3g} around no branch point"
            return None
        ref = trapezoid_volume_form(samples)
        if abs(integral - ref) > 1e-9 * (1 + abs(ref)):
            return f"integral {integral:.12g} != recomputed {ref:.12g}"
        return None

    # cli

    def cli_expected_exit(self, argv) -> int:
        head = argv[:2]
        opts = _options(argv)
        if head == ("obstruct", "cyclic"):
            try:
                c = Fraction(opts["--c"])
            except (ValueError, ZeroDivisionError):
                return 2
            return _verdict_exit(self.cyclic_expected(c)[1])
        if head == ("obstruct", "diameter"):
            p, q = int(opts["--p"]), int(opts["--q"])
            if not (0 <= p <= q) or q < 1 or gcd(p, q) != 1:
                return 2
            return _verdict_exit(diameter_verdict_oracle(p, q))
        if head == ("volume", "lobachevsky"):
            try:
                _angle(opts["--theta"])
            except ValueError:
                return 2
            return 0
        if head == ("volume", "tet"):
            has_side, ideal = "--side" in opts, "--ideal-regular" in argv
            if has_side == ideal or (has_side and float(opts["--side"]) > 700):
                return 2  # no shape, or cosh(side) overflows a double
            return 0
        if argv[0] == "analyze":
            return 0 if (ROOT / "src/slopesmith/corpus" / (opts["--poly"].replace("-", "_") + ".poly")).is_file() else 2
        return 0

    def _check_cli(self, argv, res):
        code, stdout, txt, payload_bytes = res["code"], res["stdout"], res["txt"], res["json"]
        expected = self.cli_expected_exit(argv)
        if code != expected:
            return f"exit code {code}, documented {expected}"
        first = self._first_cli.setdefault(argv, (code, stdout, txt, payload_bytes))
        if first != (code, stdout, txt, payload_bytes):
            return "repeated command gave different bytes"
        if expected == 2:
            return None
        if txt != stdout:
            return "stdout differs from BASE.txt"
        try:
            payload = json.loads(payload_bytes)
        except (TypeError, ValueError):
            return "BASE.json does not parse"
        if payload.get("schema_version") != 1:
            return "BASE.json lacks schema_version 1"
        return self._check_cli_values(argv, _options(argv), payload)

    def _check_cli_values(self, argv, opts, payload):
        head = argv[:2]
        if argv[0] == "analyze":
            terms = self.curve_terms(("corpus", opts["--poly"]))
            hull, _, _ = polygon_oracle(terms)
            got = [tuple(v) for v in payload["polygon_vertices"]]
            return None if got == hull else f"polygon vertices {got} != hull {hull}"
        if head[0] == "obstruct":
            if head[1] == "cyclic":
                want = self.cyclic_expected(Fraction(opts["--c"]))[1]
            else:
                want = diameter_verdict_oracle(int(opts["--p"]), int(opts["--q"]))
            return None if payload["verdict"] == want else f"verdict {payload['verdict']} != {want}"
        if head == ("volume", "lobachevsky"):
            ref = lobachevsky_oracle(payload["theta"])
            return None if abs(payload["value"] - ref) <= LOBACHEVSKY_TOL else "value off the dilogarithm"
        if head == ("volume", "tet"):
            ref = IDEAL_VOLUME if "--side" not in opts else self.schlafli(float(opts["--side"]))
            return self._volume_error(payload["volume"], ref, payload["tol"])
        if head == ("volume", "decay"):
            for row in payload["rows"]:
                reason = self._volume_error(row["volume"], self.schlafli(row["side"]), payload["tol"])
                if reason:
                    return f"side {row['side']}: {reason}"
            return None
        if head == ("volume", "eta"):
            spec = ("corpus", opts["--poly"])
            num = self.numerics(spec)
            samples = [(_complex(s["m"]), _complex(s["b"])) for s in payload["samples"]]
            worst = max(num.residual(a, b) for a, b in samples)
            if worst > RESIDUAL_TOL * (1 + 1e-6):
                return f"sample residual {worst:.3g}"
            if "--loop" in opts:
                loop = tuple(1.2 + 0.05 * cmath.exp(2j * math.pi * k / 36) for k in range(37))
                if self._memo(("free", spec, "small"), lambda: num.branch_free(loop)):
                    if abs(payload["integral"]) > LOOP_INTEGRAL_TOL:
                        return f"loop integral {payload['integral']:.3g} around no branch point"
            elif abs(payload["integral"] - trapezoid_volume_form(samples)) > 1e-9:
                return "integral differs from the recomputed trapezoid sum"
        return None


def _options(argv) -> dict[str, str]:
    """Option values, from both "--opt value" and "--opt=value" forms."""
    out = {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}
    out.update(a.split("=", 1) for a in argv if a.startswith("--") and "=" in a)
    return out


def _complex(value) -> complex:
    return complex(value["re"], value["im"]) if isinstance(value, dict) else complex(value)


def _angle(text: str) -> float:
    """The CLI's documented angle forms: a float, or k*pi/n."""
    t = text.replace(" ", "").replace("*", "")
    if "pi" in t:
        num, _, den = t.partition("pi")
        coeff = float(num + "1") if num in ("", "+", "-") else float(num)
        return coeff * math.pi / (float(den.lstrip("/")) if den else 1.0)
    return float(t)
