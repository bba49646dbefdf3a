"""Fast self-tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

Run from the root of a source checkout.  They check that a seed fixes the
job list, that the oracle gate rejects planted wrong answers, that the
self-time arithmetic is right on synthetic nested spans, that one slow
reference call does not move a job's reference scale, that the tracer
restores what it rebinds, and that BENCHMARK.json names the metrics the
benchmark prints.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import slopesmith as ss  # noqa: E402
from oracle import IDEAL_VOLUME, OracleGate  # noqa: E402
from run import REFERENCE_MS, reference_scales  # noqa: E402
from tracer import MEASURED_OUTSIDE, PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import KNOWN_MISSES, WORKLOADS, Job, make_jobs  # noqa: E402


def test_same_seed_same_jobs():
    for workload in WORKLOADS:
        first = make_jobs(workload, 7, 3)
        assert first == make_jobs(workload, 7, 3), workload
        assert first != make_jobs(workload, 8, 3), workload


def test_gate_rejects_volume_off_by_two_tol():
    gate = OracleGate()
    side, tol = 3.0, 1e-6
    truth = float(gate.schlafli(side))
    job = Job("kv_compact", (side, tol))
    assert gate.check(job, truth) is None
    assert gate.check(job, truth + 2 * tol) is not None
    ideal = Job("kv_ideal", (1e-7,))
    assert gate.check(ideal, float(IDEAL_VOLUME) - 2e-7) is not None


def test_gate_rejects_flipped_verdict():
    gate = OracleGate()
    job = Job("diameter", (2, 5))  # p even, q odd: consistent
    assert gate.check(job, ss.diameter_verdict(2, 5)) is None
    assert gate.check(job, SimpleNamespace(verdict="contradiction-established")) is not None
    cyclic = Job("cyclic", (Fraction(3, 2),))
    report = ss.cyclic_verdict(Fraction(3, 2))
    assert gate.check(cyclic, report) is None
    flipped = SimpleNamespace(evidence=report.evidence, verdict="consistent")
    assert gate.check(cyclic, flipped) is not None


def test_gate_rejects_wrong_exit_code():
    gate = OracleGate()
    job = Job("cli", (("obstruct", "diameter", "--p", "1", "--q", "3"),))
    payload = b'{"schema_version": 1, "verdict": "contradiction-established"}'
    good = {"code": 3, "stdout": b"report\n", "txt": b"report\n", "json": payload}
    assert gate.check(job, good) is None
    assert gate.check(job, dict(good, code=0)) is not None
    crash = Job("cli", (("volume", "tet", "--side", "800"),))
    assert gate.check(crash, {"code": 1, "stdout": b"", "txt": None, "json": None}) is not None


def test_gate_rejects_unstable_bytes():
    gate = OracleGate()
    job = Job("cli", (("obstruct", "diameter", "--p", "1", "--q", "3"),))
    payload = b'{"schema_version": 1, "verdict": "contradiction-established"}'
    first = {"code": 3, "stdout": b"a\n", "txt": b"a\n", "json": payload}
    assert gate.check(job, first) is None
    assert gate.check(job, dict(first, stdout=b"b\n", txt=b"b\n")) is not None


def test_self_time_on_nested_spans():
    # root [0, 100] with children [10, 40] and [30, 60] (overlapping: union
    # 50) and [90, 120] (clipped to 10); grandchild [15, 25] inside the first.
    spans = [
        ["root", 0, 100, -1, 0, None],
        ["a", 10, 40, 0, 0, None],
        ["b", 30, 60, 0, 0, None],
        ["c", 90, 120, 0, 0, None],
        ["d", 15, 25, 1, 0, None],
    ]
    assert self_times(spans) == [100 - 60, 30 - 10, 30, 30, 10]


def test_reference_scale_ignores_one_slow_call():
    # Three 1-ms reference calls after the first job; after the second, one
    # call preempted to 9 ms and two of 1 ms.  Both scales are those of a
    # 1-ms call; on a host at half speed a job's wall time counts half.
    calls = [1e-3, 1e-3, 1e-3, 9e-3, 1e-3, 1e-3]
    assert reference_scales([(0, 3), (3, 6)], calls) == [REFERENCE_MS, REFERENCE_MS]
    assert reference_scales([(0, 2)], [2e-3, 2e-3]) == [REFERENCE_MS / 2]


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ["tracking.track_curve", 0, 4_000_000, -1, 0, [40, 2]],
        ["tracking.fiber_roots", 0, 1_000_000, 0, 0, None],
        ["laurent.pow", 0, 3_000_000, -1, 1, None],
        ["laurent.mul", 0, 2_000_000, 2, 1, None],
    ]
    extra = {name: 0.0 for name in MEASURED_OUTSIDE}
    metrics = layer_metrics(spans, {"unipoly.UniPoly.evaluate": 7}, extra)
    assert metrics["tracking.track_curve.self_ms"] == 3.0
    assert metrics["tracking.track_curve.step_us"] == 3.0 * 1e3 / 40
    assert metrics["tracking.halving_ratio"] == 2 / 40
    assert metrics["laurent.ring_ms"] == 3.0
    assert metrics["unipoly.UniPoly.evaluate.calls"] == 7


def test_tracer_spans_and_restores():
    before = (ss.cyclic_verdict, ss.obstruction.unity_order, ss.LaurentPoly2.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        ss.cyclic_verdict(Fraction(2))
    finally:
        tracer.uninstall()
    assert (ss.cyclic_verdict, ss.obstruction.unity_order, ss.LaurentPoly2.__mul__) == before
    labels = [rec[0] for rec in tracer.spans]
    assert labels[0] == "obstruction.cyclic_verdict"
    assert "newton.unity_order" in labels and "unipoly.poly_gcd" in labels
    gcd = labels.index("unipoly.poly_gcd")
    assert tracer.spans[tracer.spans[gcd][3]][0] in ("newton.unity_order", "obstruction.irreducibility_check")
    assert all(own >= 0 for own in self_times(tracer.spans))


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _, _ in PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "jobs_per_s", "job_p50_ms", "job_p90_ms", "ok_share", "setup_s", "peak_rss_mb"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(KNOWN_MISSES) == set(WORKLOADS)

