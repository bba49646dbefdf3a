"""Seeded job streams for the four workloads, and the code that runs one job.

A workload is a list of ``Job(kind, args)`` built from ``--seed`` alone; the
program under test only ever sees these generated inputs.  Jobs are laid out
in rounds of fixed slots, which fix the share of each job kind.  The
seed draws every parameter inside a slot; the parameters that set a job's
cost come from low-discrepancy streams (``Strata``), so runs with different
seeds do the same mix of work and their figures are comparable.

Running a job calls the public API through the ``slopesmith`` package
namespace at call time, so the tracer's rebinding of those names is seen.
Runners return the library's own result objects untouched: every check and
conversion happens later in the oracle gate, outside the timed region.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction
from math import gcd
from typing import NamedTuple

WORKLOADS = ("exact-survey", "volume-quadrature", "branch-tracking", "cli-cold")


class Job(NamedTuple):
    kind: str
    args: tuple


class Strata:
    """Low-discrepancy draws in [0, 1): frac(offset + k * step), step irrational.

    The seed sets only the offset.  Any stretch of consecutive draws covers
    [0, 1) nearly evenly, so the parameters that set a job's cost spread the
    same way in every run whatever the seed, and runs stay comparable.
    """

    def __init__(self, rng: random.Random, step: float):
        self._value = rng.random()
        self._step = step

    def draw(self) -> float:
        self._value = (self._value + self._step) % 1.0
        return self._value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.draw()

    def pick(self, options):
        return options[int(self.draw() * len(options))]


def _sqrt_partial_quotients(n: int, terms: int) -> list[int]:
    """The first partial quotients of the continued fraction of sqrt(n)."""
    root = math.isqrt(n)
    m, d, a = 0, 1, root
    out = []
    for _ in range(terms):
        m = d * a - m
        d = (n - m * m) // d
        a = (root + m) // d
        out.append(a)
    return out


def _streams(rng: random.Random):
    """One Strata per named parameter, created on first use.

    Each stream steps by the fractional part of the square root of its own
    prime, so draws of different streams are not correlated with each other.
    Only primes whose root has small leading partial quotients are used: a
    step near a fraction with a small denominator (sqrt(17) = 4.123...) makes
    a short stretch of draws cluster instead of spreading.
    """
    primes = (
        n for n in itertools.count(2)
        if all(n % d for d in range(2, math.isqrt(n) + 1)) and max(_sqrt_partial_quotients(n, 8)) <= 4
    )
    return defaultdict(lambda: Strata(rng, math.sqrt(next(primes)) % 1.0))


def _coprime(q_values, lo: int = 0) -> list[tuple[int, int]]:
    return [(p, q) for q in q_values for p in range(lo, q + 1) if gcd(p, q) == 1]


def _rational(rng: random.Random, height: int, exclude=(0,)) -> Fraction:
    while True:
        c = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if c not in exclude:
            return c


# Rationals of height <= 12 other than 0 and ±1, ordered by height, which
# drives the cost of the exact-arithmetic jobs that take them.
_RATIONALS = sorted(
    {Fraction(a, b) for a in range(-12, 13) for b in range(1, 13)} - {0, 1, -1},
    key=lambda c: (max(abs(c.numerator), c.denominator), c),
)


def _term_text(coeff: Fraction, factors: str) -> str:
    """One signed term of a sum in the parser's grammar."""
    sign = "-" if coeff < 0 else "+"
    mag = abs(coeff)
    return f" {sign} {mag}*{factors}" if factors else f" {sign} {mag}"


def prescribed_text(p: int, q: int, c: Fraction) -> str:
    """The prescribed-slope curve of (p, q, c) in unexpanded product form."""
    return (
        f"m^{p}*(l^2-1)^{p}*(l^2*m^2-1)^{q - p}"
        + _term_text(-Fraction(c), f"l^{q}*(m^2-1)^{q}")
    )


def random_laurent_text(rng: random.Random, names: tuple[str, str]) -> str:
    """A sparse Laurent polynomial, sometimes written as a product of two sums."""

    def sparse_sum(n_terms: int, lo: int, hi: int) -> str:
        exps = set()
        while len(exps) < n_terms:
            exps.add((rng.randint(lo, hi), rng.randint(lo, hi)))
        text = ""
        for i, j in sorted(exps):
            text += _term_text(_rational(rng, 9), f"{names[0]}^{i}*{names[1]}^{j}")
        return text.strip().lstrip("+").strip()

    if rng.random() < 0.5:
        return sparse_sum(rng.randint(4, 8), -3, 5)
    return f"({sparse_sum(rng.randint(2, 4), -1, 3)})*({sparse_sum(rng.randint(2, 4), -1, 3)})"


# -- exact-survey ------------------------------------------------------------------

# A analyze, D diameter, C cyclic, I/R/S certificates.  Light jobs and most
# certificates cost less than any cyclic job with |c| != 1, so twenty cyclic
# slots in thirty put p50 well inside the cyclic costs (near their first
# quartile), where they lie dense and a small change in the mix does not
# move it.
_EXACT_SLOTS = "ACCCCDCICCACCRCDCCCCACICCDCCSC"
_DIAMETER_PAIRS = _coprime(range(1, 30))
# q <= 7 keeps every certificate under about 0.6 s.  At q = 8 and 10 one job
# takes 0.9-1.9 s; a 20-second run then draws one or two of them depending
# on the seed, which moved jobs_per_s by about 8%.
_IRREDUCIBLE = [
    (p, q, c)
    for p, q in _coprime(range(2, 8), lo=1)
    for c in (Fraction(1), Fraction(2), Fraction(3, 2), Fraction(-1), Fraction(1, 2))
]
_RATIO_DIAMETER = [
    (p, q, c)
    for p, q in ((0, 1), (1, 1), (1, 2))
    for c in (Fraction(2), Fraction(3), Fraction(-2), Fraction(3, 2))
]


def _exact_round(rng: random.Random, strata) -> list[Job]:
    jobs = []
    for k, slot in enumerate(_EXACT_SLOTS):
        if slot == "A":
            if strata["family"].draw() < 0.5:
                p, q = strata["analyze"].pick(_coprime(range(1, 7)))
                text = prescribed_text(p, q, _rational(rng, 5))
                jobs.append(Job("analyze", (text, ("m", "l"))))
            else:
                names = rng.choice((("m", "l"), ("m", "b")))
                jobs.append(Job("analyze", (random_laurent_text(rng, names), names)))
        elif slot == "D":
            jobs.append(Job("diameter", strata["diameter"].pick(_DIAMETER_PAIRS)))
        elif slot == "C":
            unit = k == 1  # one cyclic job per round at c = ±1
            c = Fraction(rng.choice((1, -1))) if unit else strata["cyclic"].pick(_RATIONALS)
            jobs.append(Job("cyclic", (c,)))
        elif slot == "I":
            jobs.append(Job("irreducible", strata["irreducible"].pick(_IRREDUCIBLE)))
        elif slot == "R":
            c = strata["ratio"].pick(_RATIONALS)
            jobs.append(Job("ratio", (("erc", c), "cyclic", None, None)))
        elif slot == "S":
            p, q, c = strata["ratio-diameter"].pick(_RATIO_DIAMETER)
            jobs.append(Job("ratio", (("psc", p, q, c), "diameter", p, q)))
    return jobs


# -- volume-quadrature ---------------------------------------------------------------

# Sides of compact regular tetrahedra come from a grid of step 0.05 on
# [1, 10].  Every grid side was checked against the Schläfli oracle at tol
# 1e-6 and 1e-8 on the baseline; between grid points klein_volume can miss
# (near side 3.418 at tol 1e-6; see KNOWN_MISSES).
_SIDES = tuple(round(1.0 + 0.05 * k, 2) for k in range(181))


def _side(strata, name: str, lo: float = 1.0, hi: float = 10.0) -> float:
    return strata[name].pick([s for s in _SIDES if lo <= s <= hi])


def _volume_round(rng: random.Random, strata) -> list[Job]:
    # Many light jobs, so a run covers many rounds.  Tol-1e-8 jobs stay on
    # sides <= 3.5: above it one job takes 0.5-1.6 s.  The face-angle check
    # seed comes from a stratified stream too, because it sets the job's cost.
    jobs = [Job("kv_compact", (_side(strata, "side-1e-8", 1.0, 3.5), 1e-8)) for _ in range(2)]
    jobs.append(Job("kv_ideal", (1e-6,)))
    jobs += [Job("kv_compact", (_side(strata, "side-1e-6"), 1e-6)) for _ in range(8)]
    for _ in range(2):
        first = _side(strata, "defect", 1.0, 2.5)
        jobs.append(Job("defect", ((first, round(first + 1.0, 2)), 1e-6)))
    for _ in range(4):
        jobs.append(Job("faces", (_side(strata, "faces"), 2, strata["faces-seed"].pick(range(64)))))
    for _ in range(3):
        thetas = [rng.uniform(-2 * math.pi, 2 * math.pi) for _ in range(16)]
        thetas += [rng.randint(-6, 6) * math.pi / rng.randint(1, 12) for _ in range(4)]
        jobs.append(Job("lob", (tuple(thetas),)))
    rng.shuffle(jobs)
    return jobs


# -- branch-tracking -------------------------------------------------------------------

# Slot pattern: six figure-8 knot jobs, five on its sister curve, eight on
# prescribed-slope curves of fiber degree 2q <= 12, and one loop of degree
# 14..22 that starts away from m = 1 (near it the cold-start root solve
# fails today; see KNOWN_MISSES).  That loop is the costliest job of every
# round, so p90 falls among the low-degree loops.
_TRACK_SLOTS = (
    (("corpus", "fig8-knot"),) * 6 + (("corpus", "fig8-sister"),) * 5 + ("low",) * 8 + ("high",)
)
_LOW_DEGREE = _coprime(range(1, 7), lo=1)
_HIGH_DEGREE = _coprime(range(7, 12), lo=1)


def _loop(center: complex, radius: float, legs: int) -> tuple[complex, ...]:
    """A closed polygon: its last waypoint is exactly its first."""
    points = tuple(center + radius * cmath.exp(2j * math.pi * k / legs) for k in range(legs))
    return points + points[:1]


def _track_job(strata, slot: str, curve, loop: bool, re_lo: float, re_hi: float) -> Job:
    """A small loop that lies left of its start, or a bent path heading right.

    Either way Re m stays above re_lo - 0.1 along the whole path.
    """
    draw = lambda name: strata[f"{name}:{slot}:{loop}"]  # noqa: E731
    start = complex(draw("re").uniform(re_lo, re_hi), draw("im").uniform(-0.15, 0.15))
    # One draw sets each shape's length, so its step count spreads evenly.
    if loop:
        u = draw("loop").draw()
        radius = 0.02 + 0.06 * (u % 0.5)
        waypoints = _loop(start - radius, radius, 24 if u < 0.5 else 36)
    else:
        length = draw("length").uniform(0.06, 0.15)
        turn = draw("heading").uniform(-1.0, 1.0)
        heading = cmath.exp(0.5j * math.pi * turn)
        end = start + length * heading
        mid = (start + end) / 2 + 0.25j * heading * length * math.copysign(1.0, turn)
        waypoints = (start, mid, end)
    return Job("track", (curve, waypoints, 0.005, draw("branch").pick(range(64))))


def _tracking_round(rng: random.Random, strata, index: int) -> list[Job]:
    jobs = []
    for k, slot in enumerate(_TRACK_SLOTS):
        loop = slot == "high" or (k + index) % 2 == 0
        if slot == "low":
            curve = ("psc",) + strata[f"degree:{slot}:{loop}"].pick(_LOW_DEGREE)
            jobs.append(_track_job(strata, slot, curve, loop, 1.3, 1.6))
        elif slot == "high":
            curve = ("psc",) + strata[f"degree:{slot}:{loop}"].pick(_HIGH_DEGREE)
            jobs.append(_track_job(strata, slot, curve, loop, 1.5, 1.7))
        else:
            jobs.append(_track_job(strata, slot[1], slot, loop, 1.3, 1.6))
    rng.shuffle(jobs)
    return jobs


# -- cli-cold ------------------------------------------------------------------------------

# Each round: two passes over the seven subcommands, two malformed inputs
# that must exit 2, and three repeats of earlier commands of the round
# (byte-identity), nineteen in all.  A 20-second run holds under two rounds,
# so the order and the repeated positions depend on the round index alone:
# whatever part of a round a run reaches, every seed runs the same
# subcommands there.
_CLI_REFUSALS = (
    ("obstruct", "diameter", "--p", "2", "--q", "4"),
    ("volume", "lobachevsky", "--theta", "one-third"),
    ("analyze", "--poly", "no-such-curve"),
    ("volume", "tet", "--tol", "1e-6"),
)


def _cli_command(rng: random.Random, strata, sub: int) -> tuple[str, ...]:
    if sub == 0:
        cmd = ("analyze", "--poly", rng.choice(("fig8-knot", "fig8-sister")))
        return cmd + (("--vars", "m,l") if rng.random() < 0.3 else ())
    if sub == 1:
        c = _rational(rng, 12)
        return ("obstruct", "cyclic", f"--c={c}")  # "--c -1/4" would read as an option
    if sub == 2:
        p, q = strata["diameter"].pick(_DIAMETER_PAIRS)
        return ("obstruct", "diameter", "--p", str(p), "--q", str(q))
    if sub == 3:
        if rng.random() < 0.5:
            return ("volume", "lobachevsky", "--theta", f"{rng.uniform(-3.0, 3.0):.6f}")
        return ("volume", "lobachevsky", "--theta", f"{rng.randint(1, 5)}pi/{rng.randint(2, 12)}")
    if sub == 4:
        if strata["shape"].draw() < 0.25:
            return ("volume", "tet", "--ideal-regular")
        return ("volume", "tet", "--side", str(_side(strata, "side")))
    if sub == 5:
        first = strata["decay"].pick((1, 2, 3, 4))
        return ("volume", "decay", "--from", str(first), "--to", str(first + 4),
                "--step", "2", "--tol", "1e-6")
    curve = rng.choice(("fig8-knot", "fig8-sister"))
    if strata["eta"].draw() < 0.5:
        return ("volume", "eta", "--poly", curve, "--loop", "small")
    start = complex(rng.uniform(1.2, 1.5), rng.uniform(-0.1, 0.1))
    end = start + complex(rng.uniform(0.03, 0.1), rng.uniform(-0.05, 0.05))
    return ("volume", "eta", "--poly", curve, "--m-path",
            f"{start.real:.4f}{start.imag:+.4f}j,{end.real:.4f}{end.imag:+.4f}j")


def _cli_round(rng: random.Random, strata, index: int) -> list[Job]:
    jobs = [Job("cli", (_cli_command(rng, strata, sub),)) for _ in range(2) for sub in range(7)]
    jobs += [Job("cli", (rng.choice(_CLI_REFUSALS),)) for _ in range(2)]
    return jobs + [jobs[(3 * index + k) % len(jobs)] for k in range(3)]


def make_jobs(workload: str, seed: int, rounds: int) -> list[Job]:
    """The first ``rounds`` rounds of a workload's seeded job stream."""
    rng = random.Random(f"{workload}:{seed}")
    strata = _streams(rng)
    jobs: list[Job] = []
    for index in range(rounds):
        if workload == "exact-survey":
            jobs += _exact_round(rng, strata)
        elif workload == "volume-quadrature":
            jobs += _volume_round(rng, strata)
        elif workload == "branch-tracking":
            jobs += _tracking_round(rng, strata, index)
        elif workload == "cli-cold":
            jobs += _cli_round(rng, strata, index)
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return jobs


# Inputs on which the program misses today.  They stay out of the timed
# job streams, whose baseline has no failing operation, and run after the
# timed region of every run, so each miss shows in every run's output until
# a change fixes it.
KNOWN_MISSES = {
    "exact-survey": (),
    "volume-quadrature": (
        # achieved error 1.2e-7 against 3Л(π/3)
        Job("kv_ideal", (1e-7,)),
        # achieved error 8.3e-5: the error surrogate vanishes early near this side
        Job("kv_compact", (3.4183884315972803, 1e-6)),
    ),
    "branch-tracking": (
        # fibers of degree 10 and up near m = 1: the cold-start root solve does
        # not converge.  The timed paths stay above Re m = 1.2 because of this.
        Job("track", (("psc", 1, 5), (1.05 + 0.02j, 1.09 + 0.02j), 0.005, 0)),
        Job("track", (("psc", 5, 6), (1.12 + 0.02j, 1.16 + 0.02j), 0.005, 0)),
        Job("track", (("psc", 5, 11), (1.08 + 0.02j, 1.12 + 0.02j), 0.005, 0)),
    ),
    "cli-cold": (
        # uncaught ZeroDivisionError and OverflowError: exit 1, not 2
        Job("cli", (("obstruct", "cyclic", "--c", "1/0"),)),
        Job("cli", (("volume", "tet", "--side", "800"),)),
    ),
}


# One cheap job of each kind, run before timing starts and by the set-up probe.
WARMUP = {
    "exact-survey": (
        Job("analyze", (prescribed_text(1, 2, Fraction(1)), ("m", "l"))),
        Job("diameter", (1, 3)),
        Job("cyclic", (Fraction(2),)),
        Job("irreducible", (1, 2, Fraction(1))),
        Job("ratio", (("erc", Fraction(2)), "cyclic", None, None)),
        Job("ratio", (("psc", 0, 1, Fraction(2)), "diameter", 0, 1)),
    ),
    "volume-quadrature": (
        Job("kv_ideal", (1e-5,)),
        Job("kv_compact", (2.0, 1e-6)),
        Job("defect", ((1.0, 2.0), 1e-5)),
        Job("faces", (3.0, 1, 0)),
        Job("lob", ((0.5, 1.0),)),
    ),
    "branch-tracking": (
        Job("track", (("corpus", "fig8-knot"), _loop(1.2, 0.03, 12), 0.01, 0)),
        Job("track", (("psc", 1, 2), (1.3, 1.35), 0.01, 0)),
    ),
    "cli-cold": tuple(
        Job("cli", (argv,)) for argv in (
            ("analyze", "--poly", "fig8-knot"),
            ("obstruct", "cyclic", "--c", "2"),
            ("obstruct", "diameter", "--p", "1", "--q", "3"),
            ("volume", "lobachevsky", "--theta", "pi/3"),
            ("volume", "tet", "--side", "2"),
            ("volume", "decay", "--from", "1", "--to", "3", "--tol", "1e-5"),
            ("volume", "eta", "--poly", "fig8-knot", "--m-path", "1.2,1.25"),
        )
    ),
}


# -- running one job -----------------------------------------------------------------------


def build_curve(ss, spec):
    """The curve a job names: a corpus entry or a constructed curve."""
    if spec[0] == "corpus":
        return ss.resolve_poly_source(spec[1]).poly
    if spec[0] == "psc":
        return ss.prescribed_slope_curve(spec[1], spec[2], spec[3] if len(spec) > 3 else 1)
    if spec[0] == "erc":
        return ss.eigenvalue_ratio_curve(spec[1])
    raise ValueError(f"unknown curve spec {spec!r}")


def _analyze(ss, text, names):
    poly = ss.parse_poly(text, names)
    polygon = ss.newton_polygon(poly.normalize())
    symmetries = ss.detect_symmetries(poly)
    if polygon.degenerate:
        return {"polygon": polygon, "symmetries": symmetries}
    out = {
        "polygon": polygon,
        "slopes": ss.boundary_slopes(polygon),
        "seminorm": ss.seminorm_from_polygon(polygon),
        "symmetries": symmetries,
    }
    if out["seminorm"].is_norm():
        out["ball"] = ss.ball_polygon(out["seminorm"])
        try:
            out["check"] = ss.fundamental_polygon_check(out["ball"], ss.PeripheralClass(1, 0))
        except ss.FundamentalPolygonError as err:
            out["check"] = err
    return out


def _track(ss, curve, waypoints, step, branch):
    poly = build_curve(ss, curve)
    roots = ss.fiber_roots(poly, waypoints[0])
    start = (waypoints[0], roots[branch % len(roots)])
    path = ss.track_curve(poly, start, waypoints, step=step)
    return {"roots": roots, "path": path, "integral": ss.integrate_volume_form(path)}


def _faces(ss, side, n_samples, seed):
    return {
        "angles": ss.face_angles(ss.regular_tet(side)),
        "report": ss.face_angle_check(n_samples=n_samples, seed=seed),
    }


RUNNERS = {
    "analyze": _analyze,
    "diameter": lambda ss, p, q: ss.diameter_verdict(p, q),
    "cyclic": lambda ss, c: ss.cyclic_verdict(c),
    "irreducible": lambda ss, p, q, c: ss.irreducibility_check(ss.prescribed_slope_curve(p, q, c)),
    "ratio": lambda ss, curve, mode, p, q: ss.ratio_constant_check(build_curve(ss, curve), mode, p, q),
    "kv_ideal": lambda ss, tol: ss.klein_volume(ss.ideal_regular_tet(), tol),
    "kv_compact": lambda ss, side, tol: ss.klein_volume(ss.regular_tet(side), tol),
    "defect": lambda ss, sides, tol: ss.volume_defect_report(sides, tol=tol),
    "faces": _faces,
    "lob": lambda ss, thetas: [ss.lobachevsky(t) for t in thetas],
    "track": _track,
}


def run_inprocess(ss, job: Job):
    return RUNNERS[job.kind](ss, *job.args)
