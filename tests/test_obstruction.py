"""Unit tests for the curve constructions and obstruction pipelines."""

import re
from fractions import Fraction

import pytest
import sympy as sp

from slopesmith import (
    LaurentPoly2,
    NonTransverseError,
    ObstructionError,
    SingularPointError,
    boundary_slopes,
    branch_orders,
    cyclic_verdict,
    detect_symmetries,
    diameter_verdict,
    eigenvalue_ratio_curve,
    irreducibility_check,
    load_corpus_entry,
    newton_polygon,
    parse_poly,
    prescribed_slope_curve,
    ratio_constant_check,
    tangent_at_origin,
    tree_invariants,
)
from slopesmith.obstruction import MAX_DIAMETER_Q
from _oracles import brute_quadratic_reducible, irreducible_over_q_oracle


def test_eigenvalue_ratio_curve_terms():
    c = eigenvalue_ratio_curve(Fraction(2))
    assert dict(c.terms) == {
        (2, 1): Fraction(1),
        (0, 1): Fraction(-1),
        (1, 2): Fraction(-2),
        (1, 0): Fraction(2),
    }
    assert c.var_names == ("m", "b")


def test_eigenvalue_ratio_curve_inversion_symmetry():
    # the zero set is preserved by b -> -1/b (the eigenvalue ambiguity);
    # concretely the substitution returns the negated curve times a unit
    for c in (Fraction(2), Fraction(5, 2), Fraction(-7, 3)):
        curve = eigenvalue_ratio_curve(c)
        flipped = curve.substitute("invert-second").substitute("negate-second")
        unit = LaurentPoly2.monomial(1, (0, 2))
        assert flipped * unit == curve * -1


def test_eigenvalue_ratio_curve_vieta_structure():
    # as a quadratic in the second variable the root product is -1,
    # matching the inversion symmetry above
    for c in (Fraction(2), Fraction(-7, 3)):
        curve = eigenvalue_ratio_curve(c)
        for m in (Fraction(2), Fraction(-3), Fraction(7, 5)):
            u = curve.specialize(0, m)
            assert u.degree() == 2
            assert u.coeffs[0] / u.coeffs[2] == -1


def test_eigenvalue_ratio_curve_rejects_zero():
    with pytest.raises(ObstructionError):
        eigenvalue_ratio_curve(0)


def test_prescribed_slope_curve_frozen_example():
    p = prescribed_slope_curve(1, 2, 1)
    assert p == parse_poly(
        "m - l^2 - m*l^2 + 2*m^2*l^2 - m^3*l^2 - m^4*l^2 + m^3*l^4", ("m", "l")
    )
    assert p.num_terms() == 7


def test_prescribed_slope_curve_realizes_slopes():
    for p, q in [(0, 1), (1, 1), (1, 2), (2, 3), (3, 4), (2, 5), (4, 7)]:
        curve = prescribed_slope_curve(p, q, 1)
        slopes = {s.value for s in boundary_slopes(newton_polygon(curve))}
        assert slopes == {Fraction(-p, q), 2 - Fraction(p, q)}


def test_prescribed_slope_curve_validation():
    for bad in [(1, 2, 0), (2, 1, 1), (2, 4, 1), (-1, 2, 1), (1, 0, 1)]:
        with pytest.raises(ObstructionError):
            prescribed_slope_curve(*bad)


def test_irreducibility_unit_ratio_factors():
    rep = irreducibility_check(eigenvalue_ratio_curve(Fraction(1)))
    assert rep.status == "factors"
    f1, f2 = rep.witness
    assert sorted(str(w) for w in rep.witness) == ["-m + b", "1 + m*b"]
    prod = f1 * f2
    target = eigenvalue_ratio_curve(Fraction(1))
    assert prod == target or prod * -1 == target


def test_irreducibility_negative_unit_ratio_factors():
    rep = irreducibility_check(eigenvalue_ratio_curve(Fraction(-1)))
    assert rep.status == "factors"
    f1, f2 = rep.witness
    prod = f1 * f2
    target = eigenvalue_ratio_curve(Fraction(-1))
    assert prod == target or prod * -1 == target


@pytest.mark.parametrize("c", [Fraction(2), Fraction(5, 2), Fraction(-7, 3), Fraction(10)])
def test_irreducibility_generic_ratio_matches_brute_oracle(c):
    rep = irreducibility_check(eigenvalue_ratio_curve(c))
    assert rep.status == "irreducible"
    m = sp.Symbol("m")
    assert not brute_quadratic_reducible(
        -sp.Rational(c) * m, m**2 - 1, sp.Rational(c) * m, m
    )


def test_irreducibility_of_binomial_product():
    rep = irreducibility_check(parse_poly("1 - m - b + m*b"))
    assert rep.status == "factors"


@pytest.mark.parametrize("p, q, c", [(2, 5, 1), (3, 7, Fraction(3, 2)), (2, 3, -1)])
def test_irreducibility_certified_by_specialization(p, q, c):
    curve = prescribed_slope_curve(p, q, c)
    rep = irreducibility_check(curve)
    assert rep.status == "irreducible"
    assert rep.witness is None
    assert rep.detail.startswith("specialization at m = 2 ")
    assert irreducible_over_q_oracle(curve)


@pytest.mark.parametrize("text", ["((b-m)^2-5)^2-24", "(b^3+m*b+1)*(b^3-m^2*b+2)"])
def test_irreducibility_without_certificate_is_inconclusive(text):
    # Every specialization of the first is reducible modulo every prime;
    # the second factors, and no route here finds the factors.
    rep = irreducibility_check(parse_poly(text))
    assert rep.status == "inconclusive"
    assert rep.witness is None


def test_tangent_at_origin_canonical_form():
    assert str(tangent_at_origin(eigenvalue_ratio_curve(Fraction(2)))) == "2*m - b"
    assert str(tangent_at_origin(eigenvalue_ratio_curve(Fraction(5, 2)))) == "5*m - 2*b"
    assert str(tangent_at_origin(eigenvalue_ratio_curve(Fraction(-3)))) == "3*m + b"


def test_tangent_sign_falls_to_the_second_coefficient():
    # With no first-variable term the second coefficient is made positive.
    assert str(tangent_at_origin(parse_poly("m^2 - 2*b"))) == "b"
    assert str(branch_orders(parse_poly("1/2*m - 3*b + b^2"), (0, 0)).tangent) == "m - 6*b"


def test_tangent_at_origin_rejects_origin_off_curve():
    with pytest.raises(ObstructionError) as info:
        tangent_at_origin(parse_poly("m + b + 1"))
    assert not isinstance(info.value, SingularPointError)


def test_tangent_at_origin_rejects_node():
    with pytest.raises(SingularPointError):
        tangent_at_origin(parse_poly("m^2 - b^2 + m^3"))


def test_tangent_at_origin_skips_the_transversality_check():
    # m + b^2 = 0 touches the coordinate line m = 0 at the origin, so
    # branch_orders refuses it; the tangent line itself is still m = 0.
    curve = parse_poly("m + b^2")
    assert str(tangent_at_origin(curve)) == "m"
    with pytest.raises(NonTransverseError):
        branch_orders(curve, (0, 0))


def test_branch_orders_at_origin():
    bd = branch_orders(eigenvalue_ratio_curve(Fraction(2)), (Fraction(0), Fraction(0)))
    assert bd.point == (Fraction(0), Fraction(0))
    assert str(bd.tangent) == "2*m - b"
    assert bd.ord_first == 1
    assert bd.ord_second == 1


def test_branch_orders_at_smooth_nonvanishing_point():
    # (1, 1) lies on the ratio-2 curve; neither coordinate vanishes there
    bd = branch_orders(eigenvalue_ratio_curve(Fraction(2)), (Fraction(1), Fraction(1)))
    assert bd.ord_first == 0
    assert bd.ord_second == 0


def test_branch_orders_rejects_point_off_curve():
    with pytest.raises(ObstructionError):
        branch_orders(eigenvalue_ratio_curve(Fraction(2)), (Fraction(1), Fraction(3)))


def test_branch_orders_rejects_singular_point():
    # the node of (b - m)(b + m) at the origin has no single branch
    nodal = parse_poly("b^2 - m^2")
    with pytest.raises(SingularPointError):
        branch_orders(nodal, (Fraction(0), Fraction(0)))


def test_tree_invariants_doubling():
    for k in (1, 2, 3, 7):
        inv = tree_invariants(k)
        assert inv.translation_length == 2 * k
        assert inv.boundary_components == 2 * k
    with pytest.raises(ObstructionError):
        tree_invariants(0)


def test_detect_symmetries_on_known_curves():
    assert detect_symmetries(load_corpus_entry("fig8-knot").poly) == frozenset(
        {"negate-first"}
    )
    assert detect_symmetries(prescribed_slope_curve(1, 2, 1)) == frozenset(
        {"negate-second"}
    )
    assert detect_symmetries(eigenvalue_ratio_curve(Fraction(2))) == frozenset(
        {"negate-both"}
    )
    assert detect_symmetries(parse_poly("1 + m + b")) == frozenset()


def test_detect_symmetries_handles_scalar_matching():
    # q odd and p odd: negating both variables flips the curve by a scalar
    curve = prescribed_slope_curve(3, 5, 1)
    assert "negate-both" in detect_symmetries(curve)


def test_ratio_constant_cyclic_symbolic():
    rep = ratio_constant_check(eigenvalue_ratio_curve(Fraction(2)), "cyclic")
    assert rep.status == "constant"
    assert rep.value == 4
    assert rep.method == "symbolic"


def test_ratio_constant_on_diagonal_line():
    rep = ratio_constant_check(parse_poly("m - b"), "cyclic")
    assert rep.status == "constant"
    assert rep.value == 1


@pytest.mark.parametrize(
    "p, q, c",
    [(0, 1, 2), (1, 1, "-3/2"), (1, 2, 3), (2, 3, 5), (1, 4, -2), (3, 4, "1/3")],
)
def test_ratio_constant_diameter_prescribed(p, q, c):
    rep = ratio_constant_check(prescribed_slope_curve(p, q, c), "diameter", p, q)
    assert rep.status == "constant"
    assert rep.value == Fraction(c) ** 2  # the defining constant squared
    assert rep.method == "symbolic"


def test_ratio_constant_fig8_is_not_constant():
    rep = ratio_constant_check(
        load_corpus_entry("fig8-knot").poly, "diameter", 1, 2
    )
    assert rep.status == "non-constant"
    assert rep.value is None
    # one exact witness: the power of the main variable where the
    # pseudo-remainders stop being proportional
    (witness,) = rep.witnesses
    assert re.fullmatch(r"pseudo-remainders differ from \S+ times each other at l\^\d+", witness)


def test_ratio_constant_denominator_vanishing_on_curve():
    # On b = 1 the denominator (b - 1/b)^2 vanishes and the numerator does not.
    rep = ratio_constant_check(parse_poly("b - 1"), "cyclic")
    assert rep.status == "non-constant"
    assert rep.witnesses == ("denominator vanishes on the curve, numerator does not",)


def test_ratio_constant_refuses_curve_with_content_factor():
    # On the component m = 2 the ratio (3/2)^2 / (b - 1/b)^2 varies with b,
    # but pseudo-division by the whole curve would report a constant.
    with pytest.raises(ObstructionError, match="share the factor"):
        ratio_constant_check(parse_poly("(m-2)*(m-b)"), "cyclic")


@pytest.mark.parametrize("text", ["(m-b)^2", "(m-b)^2*(m+b+1)", "(m^2-b)^3"])
def test_ratio_constant_refuses_curve_with_repeated_factor(text):
    # On m = b the ratio is 1, yet the pseudo-remainders by (m-b)^2 are not
    # proportional: the division is sound only for a squarefree curve.
    with pytest.raises(ObstructionError, match="repeated factor in b"):
        ratio_constant_check(parse_poly(text), "cyclic")


@pytest.mark.parametrize("text", ["0", "3", "m*b", "m^2*b^-1"])
def test_ratio_constant_refuses_constant_and_single_term_curves(text):
    # Zero is not a curve, and the others have no point in the torus.
    with pytest.raises(ObstructionError, match="constant or single-term input"):
        ratio_constant_check(parse_poly(text), "cyclic")


def test_ratio_constant_rejects_unknown_kind():
    with pytest.raises(ObstructionError):
        ratio_constant_check(parse_poly("m - b"), "nonsense")


def test_cyclic_verdict_two_full_chain():
    rep = cyclic_verdict(Fraction(2))
    assert rep.pipeline == "cyclic"
    assert rep.verdict == "contradiction-established"
    steps = [(s.step, s.rule) for s in rep.evidence]
    assert steps == [
        ("construct-curve", "eigenvalue-ratio-curve"),
        ("irreducibility", "factor-scan"),
        ("tangent-cone", "tangent-cone"),
        ("branch-orders", "simple-pole-transversality"),
        ("tree-invariants", "pole-order-doubling"),
        ("eigenvalue-candidates", "basis-inversion-ambiguity"),
        ("root-of-unity-scan", "unity-order-scan"),
        ("conclusion", "boundary-count-vs-order"),
    ]
    by_step = {s.step: s.value for s in rep.evidence}
    assert by_step["tangent-cone"] == "2*m - b"
    assert by_step["branch-orders"] == "ord_first=1, ord_second=1"
    assert "boundary_components=2" in by_step["tree-invariants"]
    assert "{2, 1/2}" in by_step["eigenvalue-candidates"]
    assert "none detected" in by_step["root-of-unity-scan"]


def test_cyclic_verdict_is_deterministic():
    a = cyclic_verdict(Fraction(2))
    b = cyclic_verdict(Fraction(2))
    assert a.to_dict() == b.to_dict()


def test_cyclic_verdict_unit_ratios_consistent():
    for c in (Fraction(1), Fraction(-1)):
        rep = cyclic_verdict(c)
        assert rep.verdict == "consistent"
        assert rep.evidence[-1].rule == "reducible-case"


def test_cyclic_verdict_rejects_zero():
    with pytest.raises(ObstructionError):
        cyclic_verdict(0)


def test_diameter_verdict_parity_cases():
    assert diameter_verdict(0, 1).verdict == "contradiction-established"
    assert diameter_verdict(1, 1).verdict == "contradiction-established"
    assert diameter_verdict(1, 2).verdict == "contradiction-established"
    assert diameter_verdict(1, 3).verdict == "contradiction-established"
    assert diameter_verdict(3, 5).verdict == "contradiction-established"
    assert diameter_verdict(2, 3).verdict == "consistent"
    assert diameter_verdict(2, 5).verdict == "consistent"


def test_diameter_verdict_rules():
    assert diameter_verdict(0, 1).evidence[-1].rule == "integral-class-exclusion"
    assert diameter_verdict(1, 2).evidence[-1].rule == "forbidden-symmetry"
    assert diameter_verdict(3, 5).evidence[-1].rule == "forbidden-symmetry"
    assert diameter_verdict(2, 3).evidence[-1].rule == "allowed-symmetry"


def test_diameter_verdict_validation():
    with pytest.raises(ObstructionError):
        diameter_verdict(2, 4)
    with pytest.raises(ObstructionError):
        diameter_verdict(3, 2)
    # The pair is checked before the budget.
    with pytest.raises(ObstructionError, match="coprime"):
        diameter_verdict(2, 2 * MAX_DIAMETER_Q)


@pytest.mark.parametrize("q", [MAX_DIAMETER_Q + 1, 4001, 10**9 + 1])
def test_diameter_verdict_refuses_q_above_budget(q):
    # Without the budget q = 4001 builds its curve for about two minutes.
    with pytest.raises(ObstructionError, match="budget"):
        diameter_verdict(2, q)


def test_report_to_dict_round_trips_structure():
    d = cyclic_verdict(Fraction(2)).to_dict()
    assert sorted(d.keys()) == ["evidence", "inputs", "pipeline", "verdict"]
    assert all(
        sorted(step.keys()) == ["rule", "step", "value"] for step in d["evidence"]
    )
