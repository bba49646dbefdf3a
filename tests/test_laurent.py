"""Unit tests for the two-variable Laurent polynomial ring."""

import time
from fractions import Fraction

import pytest

from slopesmith import (
    EvaluationError,
    ExponentOverflowError,
    LaurentError,
    LaurentPoly2,
    PolyParseError,
    list_corpus,
    load_corpus_entry,
    parse_poly,
    prescribed_slope_curve,
)


def test_construction_drops_zero_coefficients():
    p = LaurentPoly2({(1, 0): 1, (0, 1): 0})
    assert p.support() == {(1, 0)}
    assert p.num_terms() == 1


def test_zero_and_constant():
    z = LaurentPoly2.zero()
    assert z.is_zero()
    c = LaurentPoly2.constant(Fraction(3, 2))
    assert c.coeff((0, 0)) == Fraction(3, 2)
    assert not c.is_zero()


def test_variable_and_monomial():
    m = LaurentPoly2.variable(0)
    b = LaurentPoly2.variable(1)
    assert m.support() == {(1, 0)}
    assert b.support() == {(0, 1)}
    mono = LaurentPoly2.monomial(Fraction(5), (-2, 3))
    assert mono.coeff((-2, 3)) == 5
    assert mono.is_monomial()


def test_ring_arithmetic_small():
    m = LaurentPoly2.variable(0)
    b = LaurentPoly2.variable(1)
    p = (m + b) * (m - b)
    assert p == m * m - b * b
    assert (p - p).is_zero()
    assert -p + p == LaurentPoly2.zero()


def test_pow_and_negative_pow_for_monomials():
    m = LaurentPoly2.variable(0)
    assert (m + 1) ** 2 == m * m + 2 * m + 1
    inv = LaurentPoly2.monomial(1, (1, 2)) ** -3
    assert inv.support() == {(-3, -6)}
    with pytest.raises(LaurentError):
        (m + 1) ** -1


def test_scalar_mixing():
    m = LaurentPoly2.variable(0)
    p = 2 * m + Fraction(1, 2)
    assert p.coeff((1, 0)) == 2
    assert p.coeff((0, 0)) == Fraction(1, 2)
    assert (1 - m) == -(m - 1)


def test_mismatched_var_names_rejected():
    p = LaurentPoly2({(1, 0): 1}, ("m", "b"))
    q = LaurentPoly2({(0, 1): 1}, ("m", "l"))
    with pytest.raises(LaurentError):
        _ = p + q


def test_substitute_negations():
    p = parse_poly("m^2*b - m*b^2 + 3")
    assert p.substitute("negate-first") == parse_poly("m^2*b + m*b^2 + 3")
    assert p.substitute("negate-second") == parse_poly("m^2*b - m*b^2 + 3").substitute(
        "negate-second"
    )
    # explicit expansion of negate-second
    assert p.substitute("negate-second") == parse_poly("-m^2*b - m*b^2 + 3")
    assert p.substitute("negate-both") == parse_poly("-m^2*b + m*b^2 + 3")


def test_substitute_inversions_and_scale():
    p = parse_poly("m^2*b - 5")
    assert p.substitute("invert-first").support() == {(-2, 1), (0, 0)}
    assert p.substitute("invert-both").support() == {(-2, -1), (0, 0)}
    s = p.substitute("scale-first", scale=Fraction(1, 2))
    assert s.coeff((2, 1)) == Fraction(1, 4)
    with pytest.raises(LaurentError):
        p.substitute("scale-first")
    with pytest.raises(LaurentError):
        p.substitute("scale-first", scale=0)
    with pytest.raises(LaurentError):
        p.substitute("no-such-action")


def test_involutions_compose_to_identity():
    p = parse_poly("2*m^3*b^-1 - 7*b^2 + m^-2")
    for action in ("negate-first", "negate-second", "negate-both",
                   "invert-first", "invert-second", "invert-both"):
        assert p.substitute(action).substitute(action) == p


def test_derivative_both_axes():
    p = parse_poly("m^3*b^2 + 4*m - b^-1 + 9")
    dm = p.derivative(0)
    db = p.derivative(1)
    assert dm == parse_poly("3*m^2*b^2 + 4")
    assert db == parse_poly("2*m^3*b + b^-2")
    with pytest.raises(LaurentError):
        p.derivative(2)


def test_evaluate_exact_fractions():
    p = parse_poly("m^2*b - m^-1")
    val = p.evaluate((Fraction(2), Fraction(3)))
    assert val == Fraction(4) * 3 - Fraction(1, 2)
    assert isinstance(val, Fraction)


def test_evaluate_complex():
    p = parse_poly("m*b + 1")
    val = p.evaluate((1j, 2.0))
    assert val == 1j * 2 + 1


def test_evaluate_zero_with_negative_exponent_raises():
    p = parse_poly("m^-1 + b")
    with pytest.raises(EvaluationError):
        p.evaluate((0, 1))
    # zero is fine when no negative exponent touches it
    assert parse_poly("m + b").evaluate((0, 0)) == 0


def test_specialize_returns_unipoly_with_shift():
    p = parse_poly("m*b^2 + b - m^-1")
    u = p.specialize(0, Fraction(2))
    # at m = 2: 2 b^2 + b - 1/2
    assert u.degree() == 2
    assert u.evaluate(Fraction(1)) == Fraction(2) + 1 - Fraction(1, 2)


def test_exponent_range_and_degree():
    p = parse_poly("m^3*b^-2 + m^-1*b^4")
    assert p.exponent_range(0) == (-1, 3)
    assert p.exponent_range(1) == (-2, 4)


def test_str_roundtrip_canonical_examples():
    cases = [
        "1",
        "-1",
        "m",
        "-m + b",
        "2*m - b",
        "m^2*b^-3 + 1/2*m - 7",
        "-l + m^2*l + m^4 + 2*m^4*l + m^4*l^2 + m^6*l - m^8*l",
    ]
    for text in cases:
        vars_ = ("m", "l") if "l" in text else ("m", "b")
        p = parse_poly(text, vars_)
        assert parse_poly(str(p), vars_) == p


def test_parse_rejects_garbage():
    # "²" passes str.isdigit but not int(): it must scan as text, not as a number.
    for bad in ("", "m +", "x + y", "m^", "m**2", "3/0*m", "m^1.5", "m^²", "²*b", "3/0²"):
        with pytest.raises(PolyParseError):
            parse_poly(bad)


def test_parse_accepts_signs_coefficients_fractions():
    p = parse_poly("-3/2*m^-2*b + b - 4")
    assert p.coeff((-2, 1)) == Fraction(-3, 2)
    assert p.coeff((0, 1)) == 1
    assert p.coeff((0, 0)) == -4


def test_exponent_overflow_guard():
    big = LaurentPoly2.monomial(1, (10**6, 0))
    with pytest.raises(ExponentOverflowError):
        _ = big * big


def test_parse_refuses_power_expansion_past_term_budget():
    start = time.perf_counter()
    for text in (
        "(m+b)^1000000",
        "(m*b+m+b+1)^50",
        "((m+b)^40)^40",
        "(1+m+b)^25*(1+m+b)^25*(1+m+b)^25*(1+m+b)^25",
    ):
        with pytest.raises(ExponentOverflowError):
            parse_poly(text)
    assert time.perf_counter() - start < 1.0


def test_parse_expands_powers_within_term_budget():
    assert parse_poly("(m+b)^60").num_terms() == 61
    # Sparse: the box bound is 121^2 terms, but a binomial power has 61.
    assert parse_poly("(b^2*m^2-1)^60").num_terms() == 61
    text = "m^13*(l^2-1)^13*(l^2*m^2-1)^16 - 3*l^29*(m^2-1)^29"
    assert parse_poly(text, ("m", "l")) == prescribed_slope_curve(13, 29, 3)
    for name in list_corpus():
        entry = load_corpus_entry(name)
        assert parse_poly(str(entry.poly), entry.poly.var_names) == entry.poly


def test_equality_and_hash_ignore_term_order():
    a = LaurentPoly2({(1, 0): 1, (0, 1): 2})
    b = LaurentPoly2({(0, 1): 2, (1, 0): 1})
    assert a == b
    assert hash(a) == hash(b)


def test_coeff_polys_refuses_negative_power_of_other_variable():
    # m^-1 b would land at index -1 of the coefficient list of b^1.
    p = LaurentPoly2({(-1, 1): 1, (2, 1): 3, (0, 0): 5})
    with pytest.raises(LaurentError):
        p.coeff_polys(1)
