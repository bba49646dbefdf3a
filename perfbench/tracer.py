"""Span tracing at the layer boundaries of slopesmith, from outside the package.

``Tracer.install`` rebinds each public function listed in ``SPANNED`` in
every slopesmith module that looks it up (for example both
``unipoly.rational_roots`` and ``obstruction.rational_roots``), and rebinds
the listed methods on their classes.  A span records its label, start and
end in nanoseconds, the index of its parent span, the job id, and a note:
the exception class when the call raised, else a small summary of the
result for the functions that have one.  ``COUNTED`` functions only bump a
counter, because they run millions of times in the inner loops.

Spans stay in memory until ``dump`` writes them out.  ``layer_metrics``
turns them into the per-layer figures; a span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, label).  Methods are named "Class.method".
SPANNED = (
    ("slopesmith.laurent", "parse_poly", "laurent.parse_poly"),
    ("slopesmith.laurent", "LaurentPoly2.__mul__", "laurent.mul"),
    ("slopesmith.laurent", "LaurentPoly2.__pow__", "laurent.pow"),
    ("slopesmith.laurent", "LaurentPoly2.specialize", "laurent.specialize"),
    ("slopesmith.unipoly", "rational_roots", "unipoly.rational_roots"),
    ("slopesmith.unipoly", "irreducible_over_q", "unipoly.irreducible_over_q"),
    ("slopesmith.unipoly", "poly_gcd", "unipoly.poly_gcd"),
    ("slopesmith.newton", "unity_order", "newton.unity_order"),
    ("slopesmith.newton", "newton_polygon", "newton.newton_polygon"),
    ("slopesmith.seminorm", "seminorm_from_polygon", "seminorm.seminorm_from_polygon"),
    ("slopesmith.seminorm", "ball_polygon", "seminorm.ball_polygon"),
    ("slopesmith.seminorm", "fundamental_polygon_check", "seminorm.fundamental_polygon_check"),
    ("slopesmith.obstruction", "cyclic_verdict", "obstruction.cyclic_verdict"),
    ("slopesmith.obstruction", "diameter_verdict", "obstruction.diameter_verdict"),
    ("slopesmith.obstruction", "ratio_constant_check", "obstruction.ratio_constant_check"),
    ("slopesmith.obstruction", "irreducibility_check", "obstruction.irreducibility_check"),
    ("slopesmith.obstruction", "detect_symmetries", "obstruction.detect_symmetries"),
    ("slopesmith.obstruction", "prescribed_slope_curve", "obstruction.prescribed_slope_curve"),
    ("slopesmith.hyperbolic", "klein_volume", "hyperbolic.klein_volume"),
    ("slopesmith.hyperbolic", "lobachevsky", "hyperbolic.lobachevsky"),
    ("slopesmith.hyperbolic", "face_angles", "hyperbolic.face_angles"),
    ("slopesmith.tracking", "fiber_roots", "tracking.fiber_roots"),
    ("slopesmith.tracking", "track_curve", "tracking.track_curve"),
    ("slopesmith.tracking", "integrate_volume_form", "tracking.integrate_volume_form"),
    ("slopesmith.corpus", "resolve_poly_source", "corpus.resolve_poly_source"),
    ("slopesmith.reports", "write_report", "reports.write_report"),
    ("slopesmith.cli", "main", "cli.main"),
)
COUNTED = (
    ("slopesmith.unipoly", "UniPoly.evaluate", "unipoly.UniPoly.evaluate"),
    ("slopesmith.laurent", "LaurentPoly2.evaluate", "laurent.evaluate"),
)

# Result summaries kept in a span's note.
_NOTES = {
    "unipoly.rational_roots": len,
    "unipoly.irreducible_over_q": lambda r: r is True,
    "obstruction.irreducibility_check": lambda r: r.status,
    "tracking.track_curve": lambda p: [len(p.samples), p.metadata.get("halvings", 0)],
}


class Tracer:
    """Installs the wrappers and holds the spans and counters they record."""

    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent, job, note]
        self.counts: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        summarize = _NOTES.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, clock(), 0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                rec[5] = type(err).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if summarize is not None:
                rec[5] = summarize(result)
            return result

        return traced

    def _counter(self, label, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)

        return counted

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        # Import every module first, so none binds a name after the rebinding.
        for modname, _, _ in SPANNED + COUNTED:
            importlib.import_module(modname)
        for table, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for modname, attr, label in table:
                module = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    wrapper = make(label, original)
                    for name, value in list(vars(cls).items()):
                        if value is original:  # aliases such as __rmul__
                            self._rebind(cls, name, wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = make(label, original)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "slopesmith" and not name.startswith("slopesmith."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def load_spans(paths) -> tuple[list[list], dict[str, int]]:
    """Concatenate dumped span files, shifting parent indices; job = file order."""
    spans: list[list] = []
    counts: dict[str, int] = defaultdict(int)
    for job, path in enumerate(paths):
        with open(path) as fh:
            data = json.load(fh)
        base = len(spans)
        for label, start, end, parent, _, note in data["spans"]:
            spans.append([label, start, end, parent + base if parent >= 0 else -1, job, note])
        for label, n in data["counts"].items():
            counts[label] += n
    return spans, counts


def self_times(spans) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for rec in spans:
        if rec[3] >= 0:
            children[rec[3]].append((rec[1], rec[2]))
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


# (metric name, unit, better).  Names are <module>.<function>.<stat>.
PER_LAYER = (
    ("unipoly.rational_roots.calls", "count", "lower"),
    ("unipoly.rational_roots.self_ms", "ms", "lower"),
    ("unipoly.rational_roots.roots_found", "count", "higher"),
    ("unipoly.irreducible_over_q.calls", "count", "lower"),
    ("unipoly.irreducible_over_q.self_ms", "ms", "lower"),
    ("unipoly.irreducible_over_q.certified_share", "share", "higher"),
    ("unipoly.poly_gcd.calls", "count", "lower"),
    ("unipoly.poly_gcd.self_ms", "ms", "lower"),
    ("unipoly.UniPoly.evaluate.calls", "count", "lower"),
    ("newton.unity_order.calls", "count", "lower"),
    ("newton.unity_order.self_ms", "ms", "lower"),
    ("newton.newton_polygon.self_ms", "ms", "lower"),
    ("laurent.parse_poly.self_ms", "ms", "lower"),
    ("laurent.ring_ms", "ms", "lower"),
    ("laurent.specialize.calls", "count", "lower"),
    ("laurent.specialize.self_ms", "ms", "lower"),
    ("laurent.evaluate.calls", "count", "lower"),
    ("seminorm.seminorm_from_polygon.self_ms", "ms", "lower"),
    ("seminorm.ball_polygon.self_ms", "ms", "lower"),
    ("seminorm.fundamental_polygon_check.self_ms", "ms", "lower"),
    ("obstruction.cyclic_verdict.self_ms", "ms", "lower"),
    ("obstruction.diameter_verdict.self_ms", "ms", "lower"),
    ("obstruction.ratio_constant_check.self_ms", "ms", "lower"),
    ("obstruction.irreducibility_check.self_ms", "ms", "lower"),
    ("obstruction.irreducibility_check.decided_share", "share", "higher"),
    ("obstruction.detect_symmetries.self_ms", "ms", "lower"),
    ("obstruction.prescribed_slope_curve.self_ms", "ms", "lower"),
    ("hyperbolic.klein_volume.calls", "count", "lower"),
    ("hyperbolic.klein_volume.self_ms", "ms", "lower"),
    ("hyperbolic.klein_volume.quadrature_errors", "count", "lower"),
    ("hyperbolic.klein_volume.err_used", "share", "higher"),
    ("hyperbolic.klein_volume.err_over_tol_max", "ratio", "lower"),
    ("hyperbolic.lobachevsky.self_ms", "ms", "lower"),
    ("hyperbolic.face_angles.self_ms", "ms", "lower"),
    ("tracking.track_curve.calls", "count", "lower"),
    ("tracking.track_curve.self_ms", "ms", "lower"),
    ("tracking.track_curve.samples", "count", "lower"),
    ("tracking.track_curve.step_us", "us", "lower"),
    ("tracking.track_curve.halvings", "count", "lower"),
    ("tracking.halving_ratio", "ratio", "lower"),
    ("tracking.fiber_roots.self_ms", "ms", "lower"),
    ("tracking.integrate_volume_form.self_ms", "ms", "lower"),
    ("tracking.root_solve_errors", "count", "lower"),
    ("corpus.resolve_poly_source.self_ms", "ms", "lower"),
    ("reports.write_report.self_ms", "ms", "lower"),
    ("cli.interp_ms", "ms", "lower"),
    ("cli.import.numpy_ms", "ms", "lower"),
    ("cli.import.scipy_ms", "ms", "lower"),
    ("cli.import.slopesmith_ms", "ms", "lower"),
    ("cli.handler_ms", "ms", "lower"),
    ("cli.child_rss_mb", "MB", "lower"),
    ("trace.jobs_per_s_ratio", "ratio", "higher"),
    ("audit.known_misses", "count", "lower"),
)


# PER_LAYER figures that spans cannot give; the caller measures them.
MEASURED_OUTSIDE = (
    "hyperbolic.klein_volume.err_used",
    "hyperbolic.klein_volume.err_over_tol_max",
    "cli.interp_ms",
    "cli.import.numpy_ms",
    "cli.import.scipy_ms",
    "cli.import.slopesmith_ms",
    "cli.child_rss_mb",
    "trace.jobs_per_s_ratio",
    "audit.known_misses",
)


def layer_metrics(spans, counts, extra: dict) -> dict[str, float]:
    """Every PER_LAYER figure: from spans and counters, and ``extra`` for the
    names in MEASURED_OUTSIDE."""
    if set(extra) != set(MEASURED_OUTSIDE):
        raise ValueError(f"extra must give exactly {MEASURED_OUTSIDE}")
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    notes: dict[str, list] = defaultdict(list)
    errors: dict[str, int] = defaultdict(int)
    durations: dict[str, list[int]] = defaultdict(list)
    for rec, own in zip(spans, selfs):
        label, start, end, _, _, note = rec
        calls[label] += 1
        self_ns[label] += own
        durations[label].append(end - start)
        if isinstance(note, str) and note.endswith("Error"):
            errors[label] += 1
        elif note is not None:
            notes[label].append(note)

    def ms(label):
        return self_ns[label] / 1e6

    def share(values, hit):
        return sum(1 for v in values if hit(v)) / len(values) if values else 0.0

    tracked = notes["tracking.track_curve"]
    samples = sum(n[0] for n in tracked)
    halvings = sum(n[1] for n in tracked)
    out = {
        "unipoly.rational_roots.roots_found": float(sum(notes["unipoly.rational_roots"])),
        "unipoly.irreducible_over_q.certified_share": share(notes["unipoly.irreducible_over_q"], bool),
        "unipoly.UniPoly.evaluate.calls": float(counts.get("unipoly.UniPoly.evaluate", 0)),
        "laurent.ring_ms": ms("laurent.mul") + ms("laurent.pow"),
        "laurent.evaluate.calls": float(counts.get("laurent.evaluate", 0)),
        "obstruction.irreducibility_check.decided_share": share(
            notes["obstruction.irreducibility_check"], lambda s: s != "inconclusive"
        ),
        "hyperbolic.klein_volume.quadrature_errors": float(errors["hyperbolic.klein_volume"]),
        "tracking.track_curve.samples": float(samples),
        "tracking.track_curve.halvings": float(halvings),
        "tracking.track_curve.step_us": ms("tracking.track_curve") * 1e3 / samples if samples else 0.0,
        "tracking.halving_ratio": halvings / samples if samples else 0.0,
        "tracking.root_solve_errors": float(
            errors["tracking.fiber_roots"] + errors["tracking.track_curve"]
        ),
        "cli.handler_ms": (
            statistics.median(durations["cli.main"]) / 1e6 if durations["cli.main"] else 0.0
        ),
    }
    out.update(extra)
    for name, _, _ in PER_LAYER:
        if name not in out:
            label, stat = name.rsplit(".", 1)
            out[name] = {"calls": float(calls[label]), "self_ms": ms(label)}[stat]
    return {name: out[name] for name, _, _ in PER_LAYER}
