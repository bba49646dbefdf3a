"""The slopesmith benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/slopesmith`` and
``tests/_oracles.py``).  One client runs the workload's seeded jobs back to
back in a closed loop for S seconds; ``cli-cold`` starts a fresh
``python -m slopesmith.cli`` process per job.  After the timed region an
oracle gate checks every output against independent references, and the
inputs on which the program misses today (``KNOWN_MISSES``) are run and
listed.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones: ``jobs_per_s``,
``job_p50_ms``, ``job_p90_ms`` (a failed job counts as +inf), ``ok_share``,
``setup_s`` (median over fresh processes of interpreter start, import,
corpus load and one warm-up job of each kind) and ``peak_rss_mb``.  With
``--trace 1`` the first half of the time runs untraced and the same jobs
then run again under the layer tracer; the metrics are the per-layer
figures of ``tracer.PER_LAYER``, including the tracing overhead.

The end-to-end times are given at reference speed.  The host's speed
changes by up to half within seconds (other guests share its cores), so
right after every job, and after every set-up probe, the benchmark times a
few calls of ``reference_work``, a fixed piece of pure-Python arithmetic,
and scales that job's wall time by ``REFERENCE_MS`` over the median time of
these calls and as many made just before the job.  The figures as measured
are printed too.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 7  # fresh processes timed for setup_s and cli.interp_ms; the median is reported
IMPORT_PROBES = 3
ROUNDS_PER_SECOND = 10  # job rounds generated per second of run time, far above need
REFERENCE_MS = 1.0  # scaled times are those of a host where one reference_work() call takes this
REFERENCE_SHARE = 0.03  # reference calls after a job take at least this share of its time
PROBE_REFERENCE_SHARE = 0.1  # the same after a set-up probe, of which there are few
REFERENCE_WINDOW = 8  # fewest calls made before a job that its scale also takes in


def reference_work() -> int:
    """Fixed work (about 1 ms on a 2-vCPU host) that only tells the host's speed."""
    third, total, residues = Fraction(1, 3), Fraction(0), {}
    for i in range(1, 120):
        total += Fraction(i, 7) * third
        residues[i] = total.numerator % 97
    acc = 0
    for i in range(3000):
        acc += i * i % 13
    return acc + sum(sorted(residues.values()))


def reference_calls(seconds: float, share: float) -> list[float]:
    """Seconds taken by each of the reference_work() calls that fill at least
    ``share`` of ``seconds`` (one call at least).

    The collector is off meanwhile, so garbage a job left behind is collected
    in the next job, which made it, and not in the reference calls.
    """
    calls = []
    gc.disable()
    try:
        while not calls or sum(calls) < share * seconds:
            t0 = time.perf_counter()
            reference_work()
            calls.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return calls


def reference_scales(bounds, calls: list[float]) -> list[float]:
    """Per measured interval, REFERENCE_MS over the median time in ms of the
    reference calls ``calls[lo:hi]`` made right after it and of as many calls
    (REFERENCE_WINDOW at least) made right before it.  The calls bracket the
    interval, and one preempted call does not move the median."""
    return [
        REFERENCE_MS / (1e3 * statistics.median(calls[max(0, lo - max(REFERENCE_WINDOW, hi - lo)):hi]))
        for lo, hi in bounds
    ]


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in BLAS_VARS:
        env.setdefault(var, "1")
    return env


def spawn(cmd, out_path: Path, err_path: Path):
    """Run a child to completion; (exit code, wall seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


class CliClient:
    """Starts one CLI process per job, with --out into a private directory."""

    def __init__(self, scratch: Path, traced: bool):
        self.workdir = Path(tempfile.mkdtemp(dir=scratch))
        self.traced = traced
        self.count = 0
        self.span_files: list[Path] = []
        self.max_rss = 0.0

    def __call__(self, job):
        self.count += 1
        base = self.workdir / f"job{self.count}"
        argv = list(job.args[0]) + ["--out", str(base)]
        if self.traced:
            span_file = self.workdir / f"spans{self.count}.json"
            self.span_files.append(span_file)
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(span_file)] + argv
        else:
            cmd = [sys.executable, "-m", "slopesmith.cli"] + argv
        stdout = Path(str(base) + ".stdout")
        code, _, rss = spawn(cmd, stdout, Path(str(base) + ".stderr"))
        self.max_rss = max(self.max_rss, rss)
        return {
            "code": code,
            "stdout": stdout.read_bytes(),
            "txt": _read(Path(str(base) + ".txt")),
            "json": _read(Path(str(base) + ".json")),
        }


def timed_loop(jobs, seconds: float, run_one, tracer=None):
    """Closed loop over jobs until the time is up.

    A record is (job, outcome, wall seconds, reference scale of that job).
    """
    records, bounds, calls = [], [], []
    deadline = math.inf if seconds is None else time.perf_counter() + seconds
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        t0 = time.perf_counter()
        try:
            outcome = run_one(job)
        except Exception as err:  # a failing job is data, not a benchmark error
            outcome = err
        t1 = time.perf_counter()
        records.append((job, outcome, t1 - t0))
        ref = reference_calls(t1 - t0, REFERENCE_SHARE)
        bounds.append((len(calls), len(calls) + len(ref)))
        calls += ref
        if time.perf_counter() >= deadline:
            break
    else:
        if seconds is not None:
            raise RuntimeError("the job stream ran out before the time did")
    return [rec + (scale,) for rec, scale in zip(records, reference_scales(bounds, calls))]


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_walls(cmd, scratch: Path) -> list[tuple[float, float]]:
    """Wall seconds and reference scale of PROBES fresh runs of a command
    that must succeed."""
    walls, bounds, calls = [], [], []
    for k in range(PROBES):
        err = scratch / f"child{k}.err"
        code, wall, _ = spawn(cmd, scratch / f"child{k}.out", err)
        if code != 0:
            raise RuntimeError(f"{cmd} exited {code}:\n{err.read_text()}")
        walls.append(wall)
        ref = reference_calls(wall, PROBE_REFERENCE_SHARE)
        bounds.append((len(calls), len(calls) + len(ref)))
        calls += ref
    return list(zip(walls, reference_scales(bounds, calls)))


def import_times(scratch: Path) -> dict[str, float]:
    """Import cost from -X importtime: the whole of ``import slopesmith``, and
    the summed self time of the numpy.* and scipy.* modules within it."""
    samples: dict[str, list[float]] = {"numpy": [], "scipy": [], "slopesmith": []}
    for k in range(IMPORT_PROBES):
        err = scratch / f"imp{k}.err"
        code, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import slopesmith"],
                           scratch / f"imp{k}.out", err)
        if code != 0:
            raise RuntimeError("import slopesmith failed")
        totals = dict.fromkeys(samples, 0)
        for line in err.read_text().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            own, cumulative, name = int(fields[0]), int(fields[1]), fields[2].strip()
            if name == "slopesmith":
                totals["slopesmith"] = cumulative
            for pkg in ("numpy", "scipy"):
                if name == pkg or name.startswith(pkg + "."):
                    totals[pkg] += own
        for pkg, us in totals.items():
            samples[pkg].append(us / 1000.0)
    return {f"cli.import.{pkg}_ms": statistics.median(v) for pkg, v in samples.items()}


def summarize(records, gate) -> dict:
    """Oracle verdicts and the end-to-end timing figures of one timed loop,
    at reference speed and, under ``raw``, as measured."""
    failures = Counter()
    examples = {}
    ok = 0
    latencies = {"scaled": [], "raw": []}
    busy = {"scaled": 0.0, "raw": 0.0}
    for job, outcome, seconds, scale in records:
        reason = gate.check(job, outcome)
        for key, value in (("scaled", seconds * scale), ("raw", seconds)):
            busy[key] += value
            latencies[key].append(value * 1e3 if reason is None else math.inf)
        if reason is None:
            ok += 1
        else:
            failures[(job.kind, reason)] += 1
            examples.setdefault((job.kind, reason), job.args)
    n = len(records)
    figures = {
        key: {
            "jobs_per_s": ok / busy[key],
            "job_p50_ms": nearest_rank(latencies[key], 0.5),
            "job_p90_ms": nearest_rank(latencies[key], 0.9),
        }
        for key in busy
    }
    return {
        "attempted": n,
        "ok": ok,
        "failures": failures,
        "examples": examples,
        "beyond_p90": n - math.ceil(0.9 * n),
        "busy_s": busy["raw"],
        **figures["scaled"],
        "raw": figures["raw"],
    }


def audit(ss, workload: str, gate, scratch: Path) -> list[str]:
    """Run the known misses; one line per input that still misses."""
    from workloads import KNOWN_MISSES, run_inprocess

    lines = []
    for job in KNOWN_MISSES[workload]:
        try:
            outcome = CliClient(scratch, traced=False)(job) if job.kind == "cli" else run_inprocess(ss, job)
        except Exception as err:
            outcome = err
        reason = gate.check(job, outcome)
        if reason is not None:
            lines.append(f"{job.kind}{job.args}: {reason}")
    return lines


def traced_metrics(workload, jobs, ss, gate, summary, misses, child_rss, scratch):
    """Run the jobs of the untraced loop again under the tracer; per-layer metrics.

    ``child_rss`` is the largest CLI child's peak RSS in the untraced loop.
    """
    from tracer import Tracer, layer_metrics, load_spans
    from workloads import run_inprocess

    if workload == "cli-cold":
        client = CliClient(scratch, traced=True)
        records = timed_loop(jobs, None, client)
        spans, counts = load_spans(client.span_files)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            records = timed_loop(jobs, None, lambda job: run_inprocess(ss, job), tracer)
        finally:
            tracer.uninstall()
        spans, counts = tracer.spans, tracer.counts
    with open(OUT / f"spans-{workload}.json", "w") as fh:
        json.dump({"spans": spans, "counts": dict(counts)}, fh)

    gate.err_over_tol.clear()
    traced = summarize(records, gate)
    errs = gate.err_over_tol
    extra = {
        "hyperbolic.klein_volume.err_used": statistics.median(errs) if errs else 0.0,
        "hyperbolic.klein_volume.err_over_tol_max": max(errs) if errs else 0.0,
        "cli.interp_ms": 1e3 * statistics.median(
            wall * scale for wall, scale in child_walls([sys.executable, "-c", "pass"], scratch)
        ),
        "cli.child_rss_mb": child_rss,
        "trace.jobs_per_s_ratio": (
            traced["jobs_per_s"] / summary["jobs_per_s"] if summary["jobs_per_s"] else 0.0
        ),
        "audit.known_misses": float(len(misses)),
    }
    extra.update(import_times(scratch))
    print(f"traced run: {traced['attempted']} jobs, {len(spans)} spans, tracing overhead "
          f"(traced/untraced jobs_per_s) {extra['trace.jobs_per_s_ratio']:.4f}")
    return layer_metrics(spans, counts, extra), traced


def print_failures(summary) -> None:
    for (kind, reason), n in sorted(summary["failures"].items()):
        print(f"FAILED {kind} x{n}: {reason}; first input {summary['examples'][kind, reason]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "slopesmith" / "__init__.py").is_file() or not (ROOT / "tests" / "_oracles.py").is_file():
        print(f"error: no slopesmith source tree under {ROOT}", file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy
    import scipy
    import slopesmith as ss
    from workloads import WARMUP, WORKLOADS, make_jobs, run_inprocess

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {WORKLOADS}", file=sys.stderr)
        return 2
    cli = args.workload == "cli-cold"
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(
        f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
        + ", ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
    )
    print("client: one, closed loop, " + ("one fresh process per job" if cli else "in process"))

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        jobs = make_jobs(args.workload, args.seed, int(ROUNDS_PER_SECOND * args.seconds) + 40)
        probe = [sys.executable, str(HERE / "probe.py"), args.workload, str(scratch)]
        reference_calls(0.1, 1.0)  # warm-up of the reference calls
        setup = [] if args.trace else child_walls(probe, scratch)

        def runner():
            return CliClient(scratch, traced=False) if cli else (lambda job: run_inprocess(ss, job))

        warm = runner()
        for job in WARMUP[args.workload]:
            warm(job)
        client = runner()
        records = timed_loop(jobs, args.seconds / 2 if args.trace else args.seconds, client)
        # Read before the oracle gate imports sympy and mpmath.
        peak_rss = client.max_rss if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        from oracle import OracleGate

        gate = OracleGate()
        summary = summarize(records, gate)
        misses = audit(ss, args.workload, gate, scratch)
        print(f"jobs: attempted {summary['attempted']} in {summary['busy_s']:.3f} s, ok {summary['ok']}, "
              f"fail_share {1 - summary['ok'] / summary['attempted']:.4f}, "
              f"jobs beyond p90 {summary['beyond_p90']}")
        print_failures(summary)
        failed = summary["attempted"] - summary["ok"]
        attempted = summary["attempted"]

        if args.trace:
            from tracer import PER_LAYER

            metrics, traced = traced_metrics(
                args.workload, jobs[:attempted], ss, gate, summary, misses,
                peak_rss if cli else 0.0, scratch,
            )
            print_failures(traced)
            failed += traced["attempted"] - traced["ok"]
            attempted += traced["attempted"]
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            print("setup probes (s, as measured): " + " ".join(f"{wall:.4f}" for wall, _ in setup))
            print("as measured, not scaled: " + ", ".join(
                f"{name} {value:.6g}" for name, value in summary["raw"].items()
            ) + f", setup_s {statistics.median(wall for wall, _ in setup):.6g}")
            print("reference scale of the jobs: median {:.4f}, range {:.4f}-{:.4f}".format(
                statistics.median(r[3] for r in records), min(r[3] for r in records),
                max(r[3] for r in records)))
            metrics = {
                "jobs_per_s": summary["jobs_per_s"],
                "job_p50_ms": summary["job_p50_ms"],
                "job_p90_ms": summary["job_p90_ms"],
                "ok_share": summary["ok"] / summary["attempted"],
                "setup_s": statistics.median(wall * scale for wall, scale in setup),
                "peak_rss_mb": peak_rss,
            }
            units = {"jobs_per_s": "1/s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                     "ok_share": "share", "setup_s": "s", "peak_rss_mb": "MB"}

        print(f"known baseline misses (untimed, {len(misses)}):")
        for line in misses:
            print(f"  {line}")
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {units[name]}")
        try:
            result = json.dumps({
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }, allow_nan=False)
        except ValueError:
            # p90 is +inf when a tenth of the jobs fail: no valid measurement.
            print("error: a metric is not finite; too many jobs failed", file=sys.stderr)
            return 1
        print(result)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
