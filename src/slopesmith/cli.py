"""Command-line front end.

Subcommands:
  analyze            polygon / slope / seminorm / norm-ball report for a curve
  obstruct cyclic    eigenvalue-ratio obstruction pipeline
  obstruct diameter  slope-pair parity/symmetry pipeline
  volume lobachevsky angle-function values
  volume tet         Klein-model tetrahedron volumes
  volume decay       volume-defect decay table for growing regular tetrahedra
  volume eta         line integral of the volume form along a tracked branch

Every command prints a text report to stdout; --out BASE additionally
writes BASE.txt and BASE.json with the same content.  Each handler records
every field once, through ``_Report``, which writes it to both forms.
Exit codes: 0 for success/consistent, 3 for an established contradiction,
2 for errors and inconclusive runs.  Each handler checks its flags and then
imports the submodules it uses, so a command loads only what it runs: the
exact commands never load numpy, and ``volume lobachevsky|tet|decay`` load
none of the exact half.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import math
import re
import sys
from fractions import Fraction

from .reports import format_table, format_value, write_report

_VERDICT_EXIT = {"consistent": 0, "contradiction-established": 3, "inconclusive": 2}


def _parse_angle(text: str) -> float:
    """Accept plain floats plus 'pi', 'pi/3', '2pi/7', '-3*pi/4' forms."""
    t = text.replace(" ", "")
    match = re.fullmatch(r"([+-]?\d*\.?\d*)\*?pi(?:/([+-]?\d*\.?\d+))?", t)
    if match:
        num = match.group(1)
        coeff = float(num) if num not in ("", "+", "-") else float(num + "1")
        den = float(match.group(2)) if match.group(2) else 1.0
        if den == 0:
            raise ValueError(f"angle {text} divides by zero")
        return coeff * math.pi / den
    return float(t)


def _fmt_points(points, sep: str = " ") -> str:
    return sep.join("(" + ", ".join(str(c) for c in point) + ")" for point in points)


class _Report:
    """A report under construction, with each field recorded once.

    ``field`` stores the value under its key in the JSON payload and, when
    it has a label, writes the text line ``label: text``; the text defaults
    to the formatted value.  A key or label of None leaves that side out.
    """

    def __init__(self, command: str, title: str | None = None):
        self.payload: dict = {"command": command}
        self.lines: list[str] = [] if title is None else [title]

    def field(self, key: str | None, label: str | None, value, text: str | None = None) -> None:
        if key is not None:
            self.payload[key] = value
        if label is not None:
            self.lines.append(f"{label}: {format_value(value) if text is None else text}")

    def line(self, text: str) -> None:
        self.lines.append(text)

    def result(self, code: int = 0) -> tuple[str, dict, int]:
        return "\n".join(self.lines), self.payload, code


def _load_entry(args):
    from .corpus import resolve_poly_source
    from .laurent import LaurentPoly2

    entry = resolve_poly_source(args.poly)
    if getattr(args, "vars", None):
        labels = tuple(args.vars.split(","))
        if labels not in (("m", "b"), ("m", "l")):
            raise ValueError("--vars must be m,b or m,l")
        if labels != entry.var_names:
            poly = LaurentPoly2(entry.poly.terms, labels)
            entry = type(entry)(entry.name, entry.path, labels, entry.notes, poly)
    return entry


# -- analyze -------------------------------------------------------------------


def _run_analyze(args) -> tuple[str, dict, int]:
    from .newton import newton_polygon
    from .obstruction import detect_symmetries

    entry = _load_entry(args)
    poly = entry.poly
    r = _Report("analyze")
    r.field("name", "analyze", entry.name)
    r.field("vars", "vars", poly.var_names, ", ".join(poly.var_names))
    r.field("polynomial", "polynomial", str(poly))

    polygon = newton_polygon(poly.normalize())
    verts = polygon.vertices
    r.field("polygon_vertices", "newton polygon vertices", verts, _fmt_points(verts))

    symmetries = sorted(detect_symmetries(poly))
    _analyze_slopes(r, polygon)
    r.field("symmetries", "symmetries", symmetries, ", ".join(symmetries) or "none")
    return r.result()


def _analyze_slopes(r: _Report, polygon) -> None:
    """Slope, seminorm and fundamental-domain fields, or the degenerate mark."""
    from .newton import axis_diameter, boundary_slopes
    from .seminorm import (
        FundamentalPolygonError,
        PeripheralClass,
        ball_polygon,
        fundamental_polygon_check,
        seminorm_from_polygon,
        slope_set_diameter,
    )

    if polygon.degenerate:
        r.field("degenerate", None, True)
        r.line("newton polygon is degenerate; no slope analysis")
        return
    slopes = sorted(boundary_slopes(polygon), key=lambda s: s.sort_key())
    names = [str(s) for s in slopes]
    r.field("boundary_slopes", "boundary slopes", names, ", ".join(names))
    first, second = axis_diameter(polygon, 0), axis_diameter(polygon, 1)
    r.field("axis_diameters", "axis diameters", [first, second], f"first={first} second={second}")
    r.field("slope_diameter", "slope diameter", str(slope_set_diameter(slopes)))

    # A non-degenerate polygon has edges in two directions at least, so its
    # seminorm is a norm and the norm ball is bounded.
    norm = seminorm_from_polygon(polygon)
    label = "seminorm functionals (q, p, weight)"
    r.field("seminorm_functionals", label, norm.functionals, _fmt_points(norm.functionals, "; "))
    ball = ball_polygon(norm)
    r.field("norm_ball", None, ball)
    r.line(f"norm ball radius: {ball.radius}")
    r.line(f"norm ball vertices: {_fmt_points(ball.vertices)}")

    label = "fundamental-domain check"
    try:
        check = fundamental_polygon_check(ball, PeripheralClass(1, 0))
    except FundamentalPolygonError as err:
        r.field("fundamental_check", label, {"applicable": False, "reason": str(err)},
                f"not applicable ({err})")
        return
    r.field("fundamental_check", label, {"applicable": True, **dataclasses.asdict(check)},
            "pass" if check.passed else "fail")
    r.line(f"  area: {check.area}")
    marked = "yes" if check.mu_at_edge_midpoint else "no"
    r.line(f"  marked point (1, 0) at an edge midpoint: {marked}")
    r.line(f"  slope conditions: {'yes' if check.slopes_ok else 'no'}")
    if check.p is not None:
        r.line(f"  filling parameters (p, q): ({check.p}, {check.q})")
    for reason in check.reasons:
        r.line(f"  reason: {reason}")


# -- obstruct ------------------------------------------------------------------


def _run_obstruct(args) -> tuple[str, dict, int]:
    from .obstruction import cyclic_verdict, diameter_verdict

    if args.pipeline == "cyclic":
        try:
            c = Fraction(args.c)
        except ZeroDivisionError:
            raise ValueError(f"--c {args.c} has a zero denominator") from None
        report = cyclic_verdict(c, bound=args.bound)
    else:
        report = diameter_verdict(args.p, args.q)
    r = _Report(f"obstruct-{args.pipeline}")
    r.payload.update(report.to_dict())
    r.line(f"pipeline: {report.pipeline}")
    for key in sorted(report.inputs):
        r.line(f"input {key}: {report.inputs[key]}")
    r.line("evidence:")
    for k, step in enumerate(report.evidence, start=1):
        r.line(f"  {k}. {step.step} [{step.rule}] {step.value}")
    r.line(f"verdict: {report.verdict}")
    return r.result(_VERDICT_EXIT[report.verdict])


# -- volume --------------------------------------------------------------------


def _run_lobachevsky(args) -> tuple[str, dict, int]:
    theta = _parse_angle(args.theta)
    from .hyperbolic import lobachevsky

    r = _Report("volume-lobachevsky", "angle function")
    r.field("theta", "theta", theta)
    r.field("value", "value", lobachevsky(theta))
    return r.result()


def _run_tet(args) -> tuple[str, dict, int]:
    if args.ideal_regular == (args.side is not None):
        raise ValueError("give exactly one of --side or --ideal-regular")
    from .hyperbolic import REGULAR_IDEAL_VOLUME, ideal_regular_tet, klein_volume, regular_tet

    if args.ideal_regular:
        tet = ideal_regular_tet()
        label = "ideal regular tetrahedron"
    else:
        tet = regular_tet(args.side)
        label = f"regular tetrahedron with side {format_value(args.side)}"
    vol = klein_volume(tet, args.tol)
    r = _Report("volume-tet", "tetrahedron volume")
    r.field("shape", "shape", label)
    r.field("tol", "quadrature tolerance", args.tol)
    r.field("volume", "volume", vol)
    r.field("max_volume", "maximal volume", REGULAR_IDEAL_VOLUME)
    r.field("defect", "defect", REGULAR_IDEAL_VOLUME - vol)
    return r.result()


# Each side costs one quadrature; a request for more is refused, not run.
_MAX_DECAY_SIDES = 1000


def _run_decay(args) -> tuple[str, dict, int]:
    if args.to_side < args.from_side:
        raise ValueError("--to must not be below --from")
    if not args.step > 0:
        raise ValueError("--step must be positive")
    span = (args.to_side + 1e-9 - args.from_side) / args.step
    if not span < _MAX_DECAY_SIDES:
        raise ValueError(f"--from, --to and --step ask for more than {_MAX_DECAY_SIDES} sides")
    sides = [round(args.from_side + k * args.step, 12) for k in range(int(span) + 1)]
    from .hyperbolic import volume_defect_report

    report = volume_defect_report(sides, tol=args.tol)
    r = _Report("volume-decay", "volume defect decay")
    r.field("tol", "quadrature tolerance", args.tol)
    r.field("rows", None, report.rows)
    r.line(
        format_table(
            ["side", "volume", "defect", "side^2*defect", "ratio"],
            [[w.side, w.volume, w.defect, w.scaled_defect, w.ratio] for w in report.rows],
        )
    )
    label = "fitted decay rate (log defect per unit side)"
    r.field("decay_rate", label, report.decay_rate)
    return r.result()


def _parse_waypoints(text: str) -> list[complex]:
    return [complex(tok.strip().replace(" ", "")) for tok in text.split(",") if tok.strip()]


def _run_eta(args) -> tuple[str, dict, int]:
    from .corpus import resolve_poly_source

    entry = resolve_poly_source(args.poly)
    poly = entry.poly
    if (args.loop is None) == (args.m_path is None):
        raise ValueError("give exactly one of --loop or --m-path")
    if args.loop is not None:
        if args.loop != "small":
            raise ValueError("the only loop preset is 'small'")
        center, radius, n_legs = 1.2 + 0.0j, 0.05, 36
        waypoints = [
            center + radius * cmath.exp(2j * math.pi * k / n_legs)
            for k in range(n_legs + 1)
        ]
    else:
        waypoints = _parse_waypoints(args.m_path)
        if len(waypoints) < 2:
            raise ValueError("--m-path needs at least two waypoints")
    from .tracking import fiber_roots, integrate_volume_form, track_curve, volume_change

    roots = fiber_roots(poly, waypoints[0])
    if not 0 <= args.branch < len(roots):
        raise ValueError(f"--branch must be in [0, {len(roots) - 1}]")
    start = (waypoints[0], roots[args.branch])
    path = track_curve(
        poly, start, waypoints, step=args.step, residual_tol=args.tol
    )
    r = _Report("volume-eta", "volume-form line integral")
    r.field("curve", "curve", entry.name)
    r.field("branch", "branch", args.branch, f"{args.branch} of {len(roots)}")
    r.field("n_branches", None, len(roots))
    r.field("step", "step", args.step)
    r.field("residual_tol", "residual tolerance", args.tol)
    samples = [{"m": m, "b": b, "residual": e} for (m, b), e in zip(path.samples, path.residuals)]
    r.field("samples", "samples", samples, str(len(samples)))
    r.field("max_residual", "max residual", max(path.residuals))
    r.field("integral", "integral", integrate_volume_form(path))
    r.field("volume_change", "volume change (-1/2 * integral)", volume_change(path))
    return r.result()


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopesmith",
        description="Plane-curve slope analysis and hyperbolic volume tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    @contextlib.contextmanager
    def command(subparsers, name, run, **kwargs):
        leaf = subparsers.add_parser(name, **kwargs)
        yield leaf  # the with-block declares the leaf's own flags, before --out
        leaf.add_argument("--out", default=None, help="base path for BASE.txt/BASE.json")
        leaf.set_defaults(run=run)

    with command(sub, "analyze", _run_analyze, help="polygon/slope/norm report for a curve") as pa:
        pa.add_argument("--poly", required=True, help="corpus entry name or .poly file")
        pa.add_argument("--vars", default=None, help="variable labels: m,b or m,l")

    po = sub.add_parser("obstruct", help="run an obstruction pipeline")
    pos = po.add_subparsers(dest="pipeline", required=True)
    with command(pos, "cyclic", _run_obstruct) as pc:
        pc.add_argument("--c", required=True, help="rational eigenvalue-ratio constant")
        pc.add_argument("--bound", type=int, default=120, help="root-of-unity scan bound")
    with command(pos, "diameter", _run_obstruct) as pd:
        pd.add_argument("--p", type=int, required=True)
        pd.add_argument("--q", type=int, required=True)

    pv = sub.add_parser("volume", help="hyperbolic volume computations")
    pvs = pv.add_subparsers(dest="kind", required=True)
    with command(pvs, "lobachevsky", _run_lobachevsky) as pl:
        pl.add_argument("--theta", required=True, help="radians; accepts pi/3 forms")
    with command(pvs, "tet", _run_tet) as pt:
        pt.add_argument("--side", type=float, default=None)
        pt.add_argument("--ideal-regular", dest="ideal_regular", action="store_true")
        pt.add_argument("--tol", type=float, default=1e-6)
    with command(pvs, "decay", _run_decay) as pdc:
        pdc.add_argument("--from", dest="from_side", type=float, required=True)
        pdc.add_argument("--to", dest="to_side", type=float, required=True)
        pdc.add_argument("--step", type=float, default=2.0)
        pdc.add_argument("--tol", type=float, default=1e-8)
    with command(pvs, "eta", _run_eta) as pe:
        pe.add_argument("--poly", required=True)
        pe.add_argument("--loop", default=None, help="loop preset: small")
        pe.add_argument("--m-path", help="comma-separated complex waypoints, e.g. 1.2,1.3+0.1j")
        pe.add_argument("--branch", type=int, default=0)
        pe.add_argument("--step", type=float, default=0.005)
        pe.add_argument("--tol", type=float, default=1e-9)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, payload, code = args.run(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    if args.out:
        write_report(args.out, text, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
