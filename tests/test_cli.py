"""End-to-end tests for the command line interface."""

import json
from pathlib import Path

import pytest

from slopesmith.cli import main
from slopesmith.reports import format_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_corpus_entry(capsys):
    code, out, err = run(capsys, "analyze", "--poly", "fig8-sister")
    assert code == 0
    assert err == ""
    assert "newton polygon vertices: (0, 2) (1, 0) (4, 2) (3, 4)" in out
    assert "boundary slopes: -1/2, 3/2" in out
    assert "slope diameter: 2" in out
    assert "seminorm functionals (q, p, weight): (2, 1, 1); (2, -3, 1)" in out
    assert "norm ball radius: 4" in out
    assert "norm ball vertices: (3/2, 1) (-1/2, 1) (-3/2, -1) (1/2, -1)" in out
    assert "fundamental-domain check: pass" in out
    assert "filling parameters (p, q): (1, 2)" in out
    assert "symmetries: negate-second" in out


def test_analyze_reports_failed_fundamental_check_but_exits_zero(capsys):
    code, out, err = run(capsys, "analyze", "--poly", "fig8-knot")
    assert code == 0
    assert "slope diameter: 8" in out
    assert "fundamental-domain check: fail" in out
    assert "reason: area is 1, not 4" in out
    assert "symmetries: negate-first" in out


def test_analyze_accepts_file_path(tmp_path, capsys):
    f = tmp_path / "mine.poly"
    f.write_text("vars: m b\nm^2*b - b + 2*m - 2*m*b^2\n")
    code, out, _ = run(capsys, "analyze", "--poly", str(f))
    assert code == 0
    assert "analyze: mine" in out


def test_analyze_vars_override(tmp_path, capsys):
    f = tmp_path / "mv.poly"
    f.write_text("vars: m b\nm - b\n")
    code, out, _ = run(capsys, "analyze", "--poly", str(f), "--vars", "m,l")
    assert code == 0
    assert "vars: m, l" in out


def test_analyze_unknown_entry_exits_two(capsys):
    code, out, err = run(capsys, "analyze", "--poly", "no-such-entry")
    assert code == 2
    assert err.startswith("error:")
    assert "no corpus entry" in err


def test_analyze_bad_file_exits_two(tmp_path, capsys):
    f = tmp_path / "empty.poly"
    f.write_text("")
    code, _, err = run(capsys, "analyze", "--poly", str(f))
    assert code == 2
    assert "vars header" in err


def test_analyze_product_past_term_budget_exits_two(tmp_path, capsys):
    f = tmp_path / "big.poly"
    f.write_text("vars: m b\n(1+m+b)^25*(1+m+b)^25*(1+m+b)^25*(1+m+b)^25\n")
    code, _, err = run(capsys, "analyze", "--poly", str(f))
    assert code == 2
    assert "expands past" in err


def test_analyze_superscript_digit_exits_two(tmp_path, capsys):
    f = tmp_path / "sup.poly"
    f.write_text("vars: m b\nm^\u00b2 + b\n")
    code, _, err = run(capsys, "analyze", "--poly", str(f))
    assert code == 2
    assert "exponent must be an integer (at position 2)" in err


def test_obstruct_cyclic_contradiction_exit_three(capsys):
    code, out, _ = run(capsys, "obstruct", "cyclic", "--c", "2")
    assert code == 3
    assert "verdict: contradiction-established" in out
    assert "tangent-cone] 2*m - b" in out
    assert "ord_first=1, ord_second=1" in out
    assert "boundary_components=2" in out
    assert "not a root of unity" in out


def test_obstruct_cyclic_huge_bound_is_cheap(capsys):
    # The scan stops at twice the squared degree, whatever the bound.
    code, out, _ = run(capsys, "obstruct", "cyclic", "--c", "2", "--bound", "1000000000")
    assert code == 3
    assert "none detected (bound=1000000000)" in out


def test_obstruct_cyclic_unit_ratio_consistent(capsys):
    code, out, _ = run(capsys, "obstruct", "cyclic", "--c", "1")
    assert code == 0
    assert "verdict: consistent" in out


def test_obstruct_cyclic_accepts_rational_c(capsys):
    code, out, _ = run(capsys, "obstruct", "cyclic", "--c", "5/2")
    assert code == 3


def test_obstruct_cyclic_zero_denominator_exits_two(capsys):
    code, _, err = run(capsys, "obstruct", "cyclic", "--c", "1/0")
    assert code == 2
    assert err.startswith("error:")


def test_obstruct_diameter_exit_codes(capsys):
    code12, out12, _ = run(capsys, "obstruct", "diameter", "--p", "1", "--q", "2")
    assert code12 == 3
    assert "verdict: contradiction-established" in out12
    code23, out23, _ = run(capsys, "obstruct", "diameter", "--p", "2", "--q", "3")
    assert code23 == 0
    assert "verdict: consistent" in out23


def test_obstruct_diameter_invalid_pair_exits_two(capsys):
    code, _, err = run(capsys, "obstruct", "diameter", "--p", "2", "--q", "4")
    assert code == 2
    assert "error:" in err


def test_obstruct_diameter_above_budget_exits_two(capsys):
    code, out, err = run(capsys, "obstruct", "diameter", "--p", "2", "--q", "4001")
    assert code == 2
    assert out == ""
    assert err == "error: q = 4001 exceeds the budget of 500\n"


def test_volume_lobachevsky_accepts_pi_fractions(capsys):
    code, out, _ = run(capsys, "volume", "lobachevsky", "--theta", "pi/3")
    assert code == 0
    assert "0.338313868803" in out
    code2, out2, _ = run(capsys, "volume", "lobachevsky", "--theta", "0.5")
    assert code2 == 0
    assert "theta: 0.5" in out2


def test_volume_lobachevsky_bad_angle_exits_two(capsys):
    code, _, err = run(capsys, "volume", "lobachevsky", "--theta", "bogus")
    assert code == 2
    assert err.startswith("error:")


def test_volume_lobachevsky_zero_denominator_exits_two(capsys):
    code, out, err = run(capsys, "volume", "lobachevsky", "--theta", "pi/0")
    assert code == 2
    assert out == ""
    assert err == "error: angle pi/0 divides by zero\n"


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_volume_lobachevsky_non_finite_angle_exits_two(capsys, theta):
    code, out, err = run(capsys, "volume", "lobachevsky", f"--theta={theta}")
    assert code == 2
    assert out == ""
    assert "theta must be finite" in err


def test_volume_tet_ideal_regular(capsys):
    code, out, _ = run(capsys, "volume", "tet", "--ideal-regular", "--tol", "1e-4")
    assert code == 0
    assert "maximal volume: 1.01494160641" in out
    assert "defect:" in out


def test_volume_tet_side(capsys):
    code, out, _ = run(capsys, "volume", "tet", "--side", "2", "--tol", "1e-6")
    assert code == 0
    assert "0.399338" in out


def test_volume_tet_overflowing_side_exits_two(capsys):
    code, _, err = run(capsys, "volume", "tet", "--side", "800")
    assert code == 2
    assert err.startswith("error:")


def test_volume_tet_near_ideal_side_exits_two(capsys):
    code, _, err = run(capsys, "volume", "tet", "--side", "28")
    assert code == 2
    assert err.startswith("error:")
    code, out, _ = run(capsys, "volume", "tet", "--side", "27.5", "--tol", "1e-4")
    assert code == 0
    assert "regular tetrahedron with side 27.5" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["volume", "tet", "--side", "2", "--tol", "nan"],
        ["volume", "decay", "--from", "4", "--to", "6", "--tol", "nan"],
    ],
    ids=["tet", "decay"],
)
def test_volume_nan_tolerance_exits_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "tolerance must be positive" in err


def test_volume_tet_needs_exactly_one_shape(capsys):
    code, _, err = run(capsys, "volume", "tet")
    assert code == 2


def test_volume_decay_table(capsys):
    code, out, _ = run(
        capsys, "volume", "decay", "--from", "4", "--to", "6", "--step", "2",
        "--tol", "1e-6",
    )
    assert code == 0
    assert "side" in out and "ratio" in out
    assert "fitted decay rate" in out


@pytest.mark.parametrize("step", ["0", "-1"])
def test_volume_decay_nonpositive_step_exits_two(capsys, step):
    code, _, err = run(
        capsys, "volume", "decay", "--from", "4", "--to", "6", "--step", step
    )
    assert code == 2
    assert "--step" in err


@pytest.mark.parametrize("step", ["1e-300", "1e-12"])
def test_volume_decay_refuses_too_many_sides(capsys, step):
    # 4.0 + 1e-300 == 4.0: a side loop stepping by accumulation never ends.
    code, _, err = run(
        capsys, "volume", "decay", "--from", "4", "--to", "6", "--step", step
    )
    assert code == 2
    assert "sides" in err


def test_volume_decay_side_grid(tmp_path, capsys):
    base = tmp_path / "grid"
    code, _, _ = run(
        capsys, "volume", "decay", "--from", "0.5", "--to", "2.2", "--step", "0.3",
        "--tol", "1e-4", "--out", str(base),
    )
    assert code == 0
    rows = json.loads(base.with_suffix(".json").read_text())["rows"]
    assert [row["side"] for row in rows] == [0.5, 0.8, 1.1, 1.4, 1.7, 2.0]


def test_volume_eta_small_loop(capsys):
    code, out, _ = run(capsys, "volume", "eta", "--poly", "fig8-knot", "--loop", "small")
    assert code == 0
    assert "samples: 73" in out
    assert "volume change" in out


def test_volume_eta_explicit_path(capsys):
    code, out, _ = run(
        capsys, "volume", "eta", "--poly", "fig8-knot",
        "--m-path", "1.15,1.25+0.1j,1.35", "--step", "0.01",
    )
    assert code == 0
    assert "volume change" in out


@pytest.mark.parametrize("m_path", ["1.2,nan", "1.2,1.3+infj", "nan,1.2"])
def test_volume_eta_non_finite_waypoint_exits_two(capsys, m_path):
    code, out, err = run(capsys, "volume", "eta", "--poly", "fig8-knot", "--m-path", m_path)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--loop", "small", "--tol", "nan"], "must be positive"),
        (["--loop", "small", "--step", "nan"], "must be positive"),
        (["--m-path", "1.2,1.3", "--step", "1e-9"], "more than 10000 steps"),
        (["--m-path", "1.2,1.3", "--step", "5e-324"], "more than 10000 steps"),
    ],
)
def test_volume_eta_refuses_nan_and_over_budget_steps(capsys, flags, message):
    code, out, err = run(capsys, "volume", "eta", "--poly", "fig8-knot", *flags)
    assert code == 2
    assert out == ""
    assert message in err


def test_volume_eta_text_carries_every_json_field(tmp_path, capsys):
    base = tmp_path / "eta"
    code, out, _ = run(
        capsys, "volume", "eta", "--poly", "fig8-knot", "--m-path", "1.15,1.25+0.1j",
        "--step", "0.02", "--out", str(base),
    )
    assert code == 0
    payload = json.loads(base.with_suffix(".json").read_text())
    lines = out.splitlines()
    assert lines[0] == "volume-form line integral"
    # The samples are listed in the JSON and counted in the text.
    assert f"samples: {len(payload['samples'])}" in lines
    assert f"branch: {payload['branch']} of {payload['n_branches']}" in lines
    labels = {
        "curve": "curve",
        "step": "step",
        "residual_tol": "residual tolerance",
        "max_residual": "max residual",
        "integral": "integral",
        "volume_change": "volume change (-1/2 * integral)",
    }
    covered = {"schema_version", "command", "samples", "branch", "n_branches"}
    assert set(payload) == covered | set(labels)
    for key, label in labels.items():
        assert f"{label}: {format_value(payload[key])}" in lines


@pytest.mark.parametrize(
    "argv, exit_code, expected",
    [
        (["analyze", "--poly", "fig8-sister"], 0,
         {"command": "analyze", "boundary_slopes": ["-1/2", "3/2"]}),
        (["obstruct", "cyclic", "--c", "2"], 3,
         {"command": "obstruct-cyclic", "verdict": "contradiction-established"}),
        (["obstruct", "diameter", "--p", "2", "--q", "3"], 0,
         {"command": "obstruct-diameter", "verdict": "consistent"}),
        (["volume", "lobachevsky", "--theta", "pi/3"], 0,
         {"command": "volume-lobachevsky"}),
        (["volume", "tet", "--side", "2", "--tol", "1e-5"], 0, {"command": "volume-tet"}),
        (["volume", "decay", "--from", "1", "--to", "3", "--step", "1", "--tol", "1e-5"], 0,
         {"command": "volume-decay"}),
        (["volume", "eta", "--poly", "fig8-knot", "--m-path", "1.15,1.25+0.1j",
          "--step", "0.02"], 0, {"command": "volume-eta"}),
    ],
    ids=[
        "analyze", "obstruct-cyclic", "obstruct-diameter", "volume-lobachevsky",
        "volume-tet", "volume-decay", "volume-eta",
    ],
)
def test_out_writes_byte_stable_report_pair(tmp_path, capsys, argv, exit_code, expected):
    base_a = tmp_path / "a"
    base_b = tmp_path / "b"
    code_a, out_a, _ = run(capsys, *argv, "--out", str(base_a))
    code_b, out_b, _ = run(capsys, *argv, "--out", str(base_b))
    assert code_a == code_b == exit_code
    ta, ja = base_a.with_suffix(".txt"), base_a.with_suffix(".json")
    tb, jb = base_b.with_suffix(".txt"), base_b.with_suffix(".json")
    assert ta.read_bytes() == tb.read_bytes()
    assert ja.read_bytes() == jb.read_bytes()
    # the text file mirrors stdout
    assert ta.read_text() == out_a
    payload = json.loads(ja.read_text())
    for key, value in expected.items():
        assert payload[key] == value
    assert payload["schema_version"] == 1


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv, exit_code",
    [
        ("analyze-fig8-sister", ["analyze", "--poly", "fig8-sister"], 0),
        ("analyze-fig8-knot-ml", ["analyze", "--poly", "fig8-knot", "--vars", "m,l"], 0),
        ("obstruct-cyclic-2", ["obstruct", "cyclic", "--c", "2"], 3),
        ("obstruct-cyclic-neg3over4-bound30",
         ["obstruct", "cyclic", "--c=-3/4", "--bound", "30"], 3),
        ("obstruct-diameter-2-5", ["obstruct", "diameter", "--p", "2", "--q", "5"], 0),
        ("obstruct-diameter-1-2", ["obstruct", "diameter", "--p", "1", "--q", "2"], 3),
        ("obstruct-diameter-1-3", ["obstruct", "diameter", "--p", "1", "--q", "3"], 3),
        ("obstruct-diameter-0-1", ["obstruct", "diameter", "--p", "0", "--q", "1"], 3),
        ("obstruct-cyclic-1", ["obstruct", "cyclic", "--c", "1"], 0),
        ("obstruct-cyclic-neg1", ["obstruct", "cyclic", "--c=-1"], 0),
    ],
)
def test_exact_reports_match_golden_files(tmp_path, capsys, name, argv, exit_code):
    """Exact reports are byte-identical to the pinned stdout and BASE.json.

    Only exact commands are pinned: float reports may move in the last
    digits.  Regenerate a pair only for an intended change of the format.
    """
    base = tmp_path / "report"
    code, out, err = run(capsys, *argv, "--out", str(base))
    assert (code, err) == (exit_code, "")
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()
    assert base.with_suffix(".json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_out_for_obstruct_json_carries_verdict(tmp_path, capsys):
    base = tmp_path / "cyc"
    code, _, _ = run(capsys, "obstruct", "cyclic", "--c", "2", "--out", str(base))
    assert code == 3
    payload = json.loads(base.with_suffix(".json").read_text())
    assert payload["verdict"] == "contradiction-established"
    assert len(payload["evidence"]) == 8


def test_corpus_env_override(tmp_path, monkeypatch, capsys):
    (tmp_path / "local_toy.poly").write_text("vars: m b\nm^2 - b^2 + 1 + m^2*b^2\n")
    monkeypatch.setenv("SLOPESMITH_CORPUS", str(tmp_path))
    code, out, _ = run(capsys, "analyze", "--poly", "local-toy")
    assert code == 0
    assert "analyze: local-toy" in out


def test_cli_entry_point_installed():
    import shutil

    assert shutil.which("slopesmith") is not None
