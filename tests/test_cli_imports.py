"""What each command loads: a cold process imports only the modules it runs.

Each test starts one child interpreter, runs a group of commands through
``cli.main`` in it, and reads ``sys.modules`` afterwards.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

_CHILD = """
import contextlib, io, json, sys
from slopesmith import cli
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        runs.append([cli.main(argv), err.getvalue()])
print(json.dumps({
    "runs": runs,
    "modules": sorted(m for m in sys.modules if m.startswith("slopesmith.")),
    "numpy": "numpy" in sys.modules,
}))
"""


def run_in_child(argvs):
    """Run each argv through cli.main in one fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


FRONT = {"slopesmith.cli", "slopesmith.reports"}
EXACT = {"slopesmith.laurent", "slopesmith.unipoly", "slopesmith.newton", "slopesmith.obstruction"}


@pytest.mark.parametrize(
    "argvs, codes, modules, numpy",
    [
        (
            [
                ["volume", "lobachevsky", "--theta", "pi/3"],
                ["volume", "tet", "--side", "2", "--tol", "1e-4"],
                ["volume", "decay", "--from", "1", "--to", "3", "--step", "1", "--tol", "1e-4"],
            ],
            [0, 0, 0],
            FRONT | {"slopesmith.hyperbolic"},
            True,
        ),
        (
            [["volume", "eta", "--poly", "fig8-knot", "--m-path", "1.15,1.25+0.1j",
              "--step", "0.02"]],
            [0],
            FRONT | {"slopesmith.corpus", "slopesmith.laurent", "slopesmith.unipoly",
                     "slopesmith.tracking"},
            True,
        ),
        (
            [["obstruct", "cyclic", "--c", "2"], ["obstruct", "diameter", "--p", "2", "--q", "3"]],
            [3, 0],
            FRONT | EXACT,
            False,
        ),
        (
            [["analyze", "--poly", "fig8-sister"]],
            [0],
            FRONT | EXACT | {"slopesmith.corpus", "slopesmith.seminorm"},
            False,
        ),
    ],
    ids=["volume-trio", "volume-eta", "obstruct", "analyze"],
)
def test_each_command_loads_only_what_it_runs(argvs, codes, modules, numpy):
    child = run_in_child(argvs)
    assert child["runs"] == [[code, ""] for code in codes]
    assert set(child["modules"]) == modules
    assert child["numpy"] is numpy


def test_refused_volume_commands_load_no_numpy():
    refusals = {
        ("volume", "lobachevsky", "--theta", "one-third"):
            "could not convert string to float: 'one-third'",
        ("volume", "tet"): "give exactly one of --side or --ideal-regular",
        ("volume", "tet", "--side", "2", "--ideal-regular"):
            "give exactly one of --side or --ideal-regular",
        ("volume", "decay", "--from", "4", "--to", "6", "--step", "0"): "--step must be positive",
        ("volume", "eta", "--poly", "fig8-knot"): "give exactly one of --loop or --m-path",
        ("volume", "eta", "--poly", "fig8-knot", "--loop", "small", "--m-path", "1.2,1.3"):
            "give exactly one of --loop or --m-path",
    }
    child = run_in_child([list(argv) for argv in refusals])
    assert child["runs"] == [[2, f"error: {message}\n"] for message in refusals.values()]
    assert not child["numpy"]
    assert not {"slopesmith.hyperbolic", "slopesmith.tracking"} & set(child["modules"])
