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
writes BASE.txt and BASE.json with the same content.  Exit codes: 0 for
success/consistent, 3 for an established contradiction, 2 for errors and
inconclusive runs.
"""

from __future__ import annotations

import argparse
import cmath
import math
import re
import sys
from fractions import Fraction

from .corpus import resolve_poly_source
from .hyperbolic import (
    REGULAR_IDEAL_VOLUME,
    ideal_regular_tet,
    klein_volume,
    lobachevsky,
    regular_tet,
    volume_defect_report,
)
from .laurent import LaurentPoly2
from .newton import DegeneratePolygonError, axis_diameter, boundary_slopes, newton_polygon
from .obstruction import cyclic_verdict, detect_symmetries, diameter_verdict
from .reports import format_table, format_value, write_report
from .seminorm import (
    FundamentalPolygonError,
    PeripheralClass,
    ball_polygon,
    fundamental_polygon_check,
    seminorm_from_polygon,
    slope_set_diameter,
)
from .tracking import fiber_roots, integrate_volume_form, track_curve

_VERDICT_EXIT = {"consistent": 0, "contradiction-established": 3, "inconclusive": 2}


def _parse_angle(text: str) -> float:
    """Accept plain floats plus 'pi', 'pi/3', '2pi/7', '-3*pi/4' forms."""
    t = text.replace(" ", "")
    match = re.fullmatch(r"([+-]?\d*\.?\d*)\*?pi(?:/([+-]?\d*\.?\d+))?", t)
    if match:
        num = match.group(1)
        coeff = float(num) if num not in ("", "+", "-") else float(num + "1")
        den = float(match.group(2)) if match.group(2) else 1.0
        return coeff * math.pi / den
    return float(t)


def _fmt_point(point) -> str:
    return "(" + ", ".join(str(c) for c in point) + ")"


def _load_entry(args):
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
    entry = _load_entry(args)
    poly = entry.poly
    lines = [f"analyze: {entry.name}"]
    payload: dict = {"command": "analyze", "name": entry.name}
    lines.append(f"vars: {poly.var_names[0]}, {poly.var_names[1]}")
    lines.append(f"polynomial: {poly}")
    payload["vars"] = list(poly.var_names)
    payload["polynomial"] = str(poly)

    polygon = newton_polygon(poly.normalize())
    verts = " ".join(_fmt_point(v) for v in polygon.vertices)
    lines.append(f"newton polygon vertices: {verts}")
    payload["polygon_vertices"] = [list(v) for v in polygon.vertices]

    symmetries = sorted(detect_symmetries(poly))
    if polygon.degenerate:
        lines.append("newton polygon is degenerate; no slope analysis")
        payload["degenerate"] = True
        lines.append(f"symmetries: {', '.join(symmetries) or 'none'}")
        payload["symmetries"] = symmetries
        return "\n".join(lines), payload, 0

    slopes = sorted(boundary_slopes(polygon), key=lambda s: s.sort_key())
    lines.append(f"boundary slopes: {', '.join(str(s) for s in slopes)}")
    payload["boundary_slopes"] = [str(s) for s in slopes]
    lines.append(
        "axis diameters: "
        f"first={axis_diameter(polygon, 0)} second={axis_diameter(polygon, 1)}"
    )
    payload["axis_diameters"] = [axis_diameter(polygon, 0), axis_diameter(polygon, 1)]
    diam = slope_set_diameter(slopes)
    lines.append(f"slope diameter: {diam}")
    payload["slope_diameter"] = str(diam)

    norm = seminorm_from_polygon(polygon)
    func_text = "; ".join(_fmt_point(f) for f in norm.functionals)
    lines.append(f"seminorm functionals (q, p, weight): {func_text}")
    payload["seminorm_functionals"] = [list(f) for f in norm.functionals]

    if not norm.is_norm():
        lines.append("seminorm is not a norm (all edges parallel); no norm ball")
        payload["norm_ball"] = None
    else:
        ball = ball_polygon(norm)
        lines.append(f"norm ball radius: {ball.radius}")
        ball_verts = " ".join(_fmt_point(v) for v in ball.vertices)
        lines.append(f"norm ball vertices: {ball_verts}")
        payload["norm_ball"] = {
            "radius": ball.radius,
            "vertices": [list(v) for v in ball.vertices],
        }
        mu = PeripheralClass(1, 0)
        try:
            check = fundamental_polygon_check(ball, mu)
        except FundamentalPolygonError as err:
            lines.append(f"fundamental-domain check: not applicable ({err})")
            payload["fundamental_check"] = {"applicable": False, "reason": str(err)}
        else:
            status = "pass" if check.passed else "fail"
            lines.append(f"fundamental-domain check: {status}")
            lines.append(f"  area: {check.area}")
            marked = "yes" if check.mu_at_edge_midpoint else "no"
            lines.append(f"  marked point (1, 0) at an edge midpoint: {marked}")
            lines.append(f"  slope conditions: {'yes' if check.slopes_ok else 'no'}")
            if check.p is not None:
                lines.append(f"  filling parameters (p, q): ({check.p}, {check.q})")
            for reason in check.reasons:
                lines.append(f"  reason: {reason}")
            payload["fundamental_check"] = {
                "applicable": True,
                "passed": check.passed,
                "area": check.area,
                "mu_at_edge_midpoint": check.mu_at_edge_midpoint,
                "slopes_ok": check.slopes_ok,
                "p": check.p,
                "q": check.q,
                "reasons": list(check.reasons),
            }

    lines.append(f"symmetries: {', '.join(symmetries) or 'none'}")
    payload["symmetries"] = symmetries
    return "\n".join(lines), payload, 0


# -- obstruct ------------------------------------------------------------------


def _obstruction_text(report) -> str:
    lines = [f"pipeline: {report.pipeline}"]
    for key in sorted(report.inputs):
        lines.append(f"input {key}: {report.inputs[key]}")
    lines.append("evidence:")
    for k, step in enumerate(report.evidence, start=1):
        lines.append(f"  {k}. {step.step} [{step.rule}] {step.value}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines)


def _run_obstruct(args) -> tuple[str, dict, int]:
    if args.pipeline == "cyclic":
        try:
            c = Fraction(args.c)
        except ZeroDivisionError:
            raise ValueError(f"--c {args.c} has a zero denominator") from None
        report = cyclic_verdict(c, bound=args.bound)
    else:
        report = diameter_verdict(args.p, args.q)
    payload = {"command": f"obstruct-{args.pipeline}"}
    payload.update(report.to_dict())
    return _obstruction_text(report), payload, _VERDICT_EXIT[report.verdict]


# -- volume --------------------------------------------------------------------


def _run_lobachevsky(args) -> tuple[str, dict, int]:
    theta = _parse_angle(args.theta)
    value = lobachevsky(theta)
    text = "\n".join(
        [
            "angle function",
            f"theta: {format_value(theta)}",
            f"value: {format_value(value)}",
        ]
    )
    payload = {"command": "volume-lobachevsky", "theta": theta, "value": value}
    return text, payload, 0


def _run_tet(args) -> tuple[str, dict, int]:
    if args.ideal_regular == (args.side is not None):
        raise ValueError("give exactly one of --side or --ideal-regular")
    if args.ideal_regular:
        tet = ideal_regular_tet()
        label = "ideal regular tetrahedron"
    else:
        tet = regular_tet(args.side)
        label = f"regular tetrahedron with side {format_value(args.side)}"
    vol = klein_volume(tet, args.tol)
    defect = REGULAR_IDEAL_VOLUME - vol
    text = "\n".join(
        [
            "tetrahedron volume",
            f"shape: {label}",
            f"quadrature tolerance: {format_value(args.tol)}",
            f"volume: {format_value(vol)}",
            f"maximal volume: {format_value(REGULAR_IDEAL_VOLUME)}",
            f"defect: {format_value(defect)}",
        ]
    )
    payload = {
        "command": "volume-tet",
        "shape": label,
        "tol": args.tol,
        "volume": vol,
        "max_volume": REGULAR_IDEAL_VOLUME,
        "defect": defect,
    }
    return text, payload, 0


def _run_decay(args) -> tuple[str, dict, int]:
    if args.to_side < args.from_side:
        raise ValueError("--to must not be below --from")
    if not args.step > 0:
        raise ValueError("--step must be positive")
    sides = []
    s = args.from_side
    while s <= args.to_side + 1e-9:
        sides.append(round(s, 12))
        s += args.step
    report = volume_defect_report(sides, tol=args.tol)
    rows = [
        [r.side, r.volume, r.defect, r.scaled_defect, r.ratio]
        for r in report.rows
    ]
    table = format_table(
        ["side", "volume", "defect", "side^2*defect", "ratio"], rows
    )
    text = "\n".join(
        [
            "volume defect decay",
            f"quadrature tolerance: {format_value(args.tol)}",
            table,
            f"fitted decay rate (log defect per unit side): {format_value(report.decay_rate)}",
        ]
    )
    payload = {
        "command": "volume-decay",
        "tol": args.tol,
        "rows": report.rows,
        "decay_rate": report.decay_rate,
    }
    return text, payload, 0


def _parse_waypoints(text: str) -> list[complex]:
    return [complex(tok.strip().replace(" ", "")) for tok in text.split(",") if tok.strip()]


def _run_eta(args) -> tuple[str, dict, int]:
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
    roots = fiber_roots(poly, waypoints[0])
    if not 0 <= args.branch < len(roots):
        raise ValueError(f"--branch must be in [0, {len(roots) - 1}]")
    start = (waypoints[0], roots[args.branch])
    path = track_curve(
        poly, start, waypoints, step=args.step, residual_tol=args.tol
    )
    integral = integrate_volume_form(path)
    text = "\n".join(
        [
            "volume-form line integral",
            f"curve: {entry.name}",
            f"branch: {args.branch} of {len(roots)}",
            f"samples: {len(path.samples)}",
            f"max residual: {format_value(max(path.residuals))}",
            f"integral: {format_value(integral)}",
            f"volume change (-1/2 * integral): {format_value(-0.5 * integral)}",
        ]
    )
    payload = {
        "command": "volume-eta",
        "curve": entry.name,
        "branch": args.branch,
        "n_branches": len(roots),
        "step": args.step,
        "residual_tol": args.tol,
        "integral": integral,
        "volume_change": -0.5 * integral,
        "samples": [
            {"m": m, "b": b, "residual": r}
            for (m, b), r in zip(path.samples, path.residuals)
        ],
    }
    return text, payload, 0


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopesmith",
        description="Plane-curve slope analysis and hyperbolic volume tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="polygon/slope/norm report for a curve")
    pa.add_argument("--poly", required=True, help="corpus entry name or .poly file")
    pa.add_argument("--vars", default=None, help="variable labels: m,b or m,l")
    pa.add_argument("--out", default=None, help="base path for BASE.txt/BASE.json")

    po = sub.add_parser("obstruct", help="run an obstruction pipeline")
    pos = po.add_subparsers(dest="pipeline", required=True)
    pc = pos.add_parser("cyclic")
    pc.add_argument("--c", required=True, help="rational eigenvalue-ratio constant")
    pc.add_argument("--bound", type=int, default=120, help="root-of-unity scan bound")
    pc.add_argument("--out", default=None)
    pd = pos.add_parser("diameter")
    pd.add_argument("--p", type=int, required=True)
    pd.add_argument("--q", type=int, required=True)
    pd.add_argument("--out", default=None)

    pv = sub.add_parser("volume", help="hyperbolic volume computations")
    pvs = pv.add_subparsers(dest="kind", required=True)
    pl = pvs.add_parser("lobachevsky")
    pl.add_argument("--theta", required=True, help="radians; accepts pi/3 forms")
    pl.add_argument("--out", default=None)
    pt = pvs.add_parser("tet")
    pt.add_argument("--side", type=float, default=None)
    pt.add_argument("--ideal-regular", dest="ideal_regular", action="store_true")
    pt.add_argument("--tol", type=float, default=1e-6)
    pt.add_argument("--out", default=None)
    pdc = pvs.add_parser("decay")
    pdc.add_argument("--from", dest="from_side", type=float, required=True)
    pdc.add_argument("--to", dest="to_side", type=float, required=True)
    pdc.add_argument("--step", type=float, default=2.0)
    pdc.add_argument("--tol", type=float, default=1e-8)
    pdc.add_argument("--out", default=None)
    pe = pvs.add_parser("eta")
    pe.add_argument("--poly", required=True)
    pe.add_argument("--loop", default=None, help="loop preset: small")
    pe.add_argument("--m-path", dest="m_path", default=None,
                    help="comma-separated complex waypoints, e.g. 1.2,1.3+0.1j")
    pe.add_argument("--branch", type=int, default=0)
    pe.add_argument("--step", type=float, default=0.005)
    pe.add_argument("--tol", type=float, default=1e-9)
    pe.add_argument("--out", default=None)

    return parser


_HANDLERS = {
    ("analyze", None): _run_analyze,
    ("obstruct", "cyclic"): _run_obstruct,
    ("obstruct", "diameter"): _run_obstruct,
    ("volume", "lobachevsky"): _run_lobachevsky,
    ("volume", "tet"): _run_tet,
    ("volume", "decay"): _run_decay,
    ("volume", "eta"): _run_eta,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    key = (args.command, getattr(args, "pipeline", None) or getattr(args, "kind", None))
    handler = _HANDLERS[(args.command, None) if args.command == "analyze" else key]
    try:
        text, payload, code = handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(text)
    if getattr(args, "out", None):
        write_report(args.out, text, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
