"""Set-up probe: one fresh interpreter made ready to run a workload's jobs.

    python3 perfbench/probe.py <workload> <scratch-dir>

Imports slopesmith, loads the bundled corpus and runs one warm-up job of
each kind the workload has, then exits.  The benchmark times this process
from spawn to exit and reports the median over several probes as
``setup_s``.
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    workload, scratch = argv
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import slopesmith as ss
    from workloads import WARMUP, run_inprocess

    for name in ss.list_corpus():
        ss.load_corpus_entry(name)
    if workload == "cli-cold":
        from slopesmith import cli

        with contextlib.redirect_stdout(io.StringIO()):
            for k, job in enumerate(WARMUP[workload]):
                cli.main(list(job.args[0]) + ["--out", str(Path(scratch) / f"warm{k}")])
    else:
        for job in WARMUP[workload]:
            run_inprocess(ss, job)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
