"""Fuzzing the command line in process: every argv ends in a documented exit.

The argument vectors come from a bounded grammar: each subcommand with its
flags, each flag with well-formed or malformed values.  Values stay where
one run is cheap (quadrature tolerance at least 1e-4, tetrahedron sides up
to 6, diameter q up to 40, tracking step at least 0.005) or over a budget
that refuses them at once (diameter q above 500, tracking step 1e-12), and
no ``--out`` is given, so nothing is written.  Every case must exit with 0, 2
or 3 within the deadline; a traceback or a slower case fails the test.
"""

import contextlib
import io
from datetime import timedelta

from hypothesis import example, given, settings, strategies as st

from slopesmith.cli import main

BAD_NUMBERS = ("0", "-1", "nan", "inf", "-inf", "x", "")


def mostly(good, bad):
    """Well-formed values three times in four, else one of the ``bad`` ones."""
    return st.one_of(good, good, good, st.sampled_from(bad))


def numbers(lo, hi, bad=BAD_NUMBERS):
    """Decimal strings in [lo, hi], or malformed and out-of-range values."""
    return mostly(st.floats(min_value=lo, max_value=hi).map(repr), bad)


def integers(lo, hi, bad=("x", "1.5")):
    return mostly(st.integers(min_value=lo, max_value=hi).map(str), bad)


def flag(name, values=None):
    """An argv fragment: ``--name=value``, or the bare switch ``--name``."""
    if values is None:
        return st.just([f"--{name}"])
    return values.map(lambda v: [f"--{name}={v}"])


def maybe(fragment):
    return st.one_of(st.just([]), fragment)


def joined(*words, parts=()):
    """The fixed ``words``, then one drawn fragment of each of ``parts``."""
    return st.tuples(*parts).map(lambda groups: [*words, *(a for g in groups for a in g)])


POLY = flag("poly", mostly(st.sampled_from(("fig8-knot", "fig8-sister")), ("no-such-entry", "")))
TOL = flag("tol", numbers(1e-4, 0.1))
WAYPOINT = st.builds(
    complex, st.floats(min_value=0.5, max_value=2.0), st.floats(min_value=-0.5, max_value=0.5)
).map(lambda z: repr(z).strip("()"))
M_PATH = flag("m-path", mostly(
    st.lists(WAYPOINT, min_size=2, max_size=3).map(",".join),
    ("", "1.2", "1.2,nan", "x,y", "0,1", "1.2,1.3+infj"),
))
LOOP = flag("loop", mostly(st.just("small"), ("big",)))
RATIONAL = mostly(
    st.builds("{}/{}".format, st.integers(-50, 50), st.integers(1, 50)),
    ("7/0", "1e5", "abc", "nan", "inf", ""),
)
ANGLE = mostly(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6).map(repr),
        st.sampled_from(("pi", "pi/3", "2pi/7", "-3*pi/4")),
    ),
    ("pi/0", "one-third", "1e400", *BAD_NUMBERS),
)

COMMANDS = st.one_of(
    # A required flag left out: argparse refuses the command line.
    st.sampled_from((
        ["analyze"], ["obstruct", "cyclic"], ["obstruct", "diameter", "--p=1"],
        ["volume", "lobachevsky"], ["volume", "decay", "--from=1"], ["volume", "eta"],
    )),
    joined("analyze", parts=[
        POLY, maybe(flag("vars", mostly(st.sampled_from(("m,b", "m,l")), ("x,y", "")))),
    ]),
    joined("obstruct", "cyclic", parts=[
        flag("c", RATIONAL), maybe(flag("bound", integers(-5, 200))),
    ]),
    joined("obstruct", "diameter", parts=[
        flag("p", integers(-3, 40)),
        flag("q", integers(-3, 40, bad=("x", "1.5", "501", "4001", "1000000000"))),
    ]),
    joined("volume", "lobachevsky", parts=[flag("theta", ANGLE)]),
    joined("volume", "tet", parts=[
        st.one_of(flag("side", numbers(0.0, 6.0)), flag("ideal-regular"),
                  joined(parts=[flag("side", numbers(0.0, 6.0)), flag("ideal-regular")]),
                  st.just([])),
        TOL,
    ]),
    joined("volume", "decay", parts=[
        flag("from", numbers(0.0, 6.0)),
        flag("to", numbers(0.0, 6.0)),
        maybe(flag("step", numbers(0.5, 6.0, bad=("0", "-1", "nan", "1e-300", "x")))),
        TOL,
    ]),
    joined("volume", "eta", parts=[
        POLY,
        st.one_of(LOOP, M_PATH, M_PATH, joined(parts=[LOOP, M_PATH]), st.just([])),
        maybe(flag("branch", integers(-1, 5))),
        maybe(flag("step", numbers(0.005, 0.1, bad=(*BAD_NUMBERS, "1e-12")))),
        maybe(TOL),
    ]),
)


@settings(max_examples=300, deadline=timedelta(seconds=5))
@given(argv=COMMANDS)
@example(argv=["volume", "lobachevsky", "--theta=pi/0"])
@example(argv=["obstruct", "diameter", "--p=2", "--q=4001"])
@example(argv=["volume", "eta", "--poly=fig8-knot", "--m-path=1.2,1.3", "--step=1e-12"])
def test_cli_exits_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a malformed command line
            code = exc.code
    assert code in (0, 2, 3), (argv, code)
