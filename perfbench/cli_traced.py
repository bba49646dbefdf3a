"""Run one slopesmith CLI command with the layer tracer installed.

    python3 perfbench/cli_traced.py <span-file> <cli arguments...>

Behaves like ``python -m slopesmith.cli <cli arguments...>`` (same output,
same exit status) and writes the recorded spans to <span-file> on the way
out.  Needs ``src`` on PYTHONPATH.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main(argv) -> int:
    span_file, cli_args = argv[0], argv[1:]
    from slopesmith import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
