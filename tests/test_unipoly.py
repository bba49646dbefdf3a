"""Unit tests for dense univariate rational polynomials."""

import time
from fractions import Fraction

import pytest

from slopesmith.laurent import LaurentPoly2
from slopesmith.unipoly import (
    MAX_TRIAL_DIVISOR,
    DivisorBudgetError,
    UniPoly,
    exact_sqrt,
    irreducible_over_q,
    poly_gcd,
    rational_roots,
    x_pow_minus_one,
)


def test_construction_strips_leading_zeros():
    p = UniPoly([1, 2, 0, 0])
    assert p.degree() == 1
    assert p.coeffs == (Fraction(1), Fraction(2))


def test_zero_polynomial():
    z = UniPoly.zero()
    assert z.is_zero()
    assert z.degree() == -1
    assert (z + z).is_zero()


def test_arithmetic():
    p = UniPoly([1, 1])       # 1 + x
    q = UniPoly([-1, 1])      # -1 + x
    assert p * q == UniPoly([-1, 0, 1])
    assert p + q == UniPoly([0, 2])
    assert p - p == UniPoly.zero()
    assert (p * 0).is_zero()


def test_str_prints_signed_terms_low_degree_first():
    cases = [
        ([], "0"),
        ([5], "5"),
        ([Fraction(-2, 3)], "-2/3"),
        ([1, 0, -1], "1 - x^2"),
        ([0, 1], "x"),
        ([0, -1], "-x"),
        ([0, Fraction(5, 2)], "5/2*x"),
        ([Fraction(1, 2), Fraction(-3, 4), 0, 0, 2], "1/2 - 3/4*x + 2*x^4"),
        ([-1, 1, 0, -7], "-1 + x - 7*x^3"),
    ]
    for coeffs, text in cases:
        assert str(UniPoly(coeffs)) == text
        assert repr(UniPoly(coeffs)) == f"UniPoly('{text}')"


def test_evaluate_exact():
    p = UniPoly([Fraction(1, 2), 0, 1])
    assert p.evaluate(Fraction(3)) == Fraction(19, 2)
    assert isinstance(p.evaluate(Fraction(3)), Fraction)


def test_derivative():
    p = UniPoly([5, 3, 0, 2])  # 5 + 3x + 2x^3
    assert p.derivative() == UniPoly([3, 0, 6])
    assert UniPoly([7]).derivative().is_zero()


def test_monic_and_leading():
    p = UniPoly([2, 0, 4])
    assert p.leading() == 4
    assert p.monic() == UniPoly([Fraction(1, 2), 0, 1])


def test_shift_down_strips_x_powers():
    q, k = UniPoly([0, 0, 3, 1]).shift_down()
    assert k == 2
    assert q == UniPoly([3, 1])
    z, k0 = UniPoly.zero().shift_down()
    assert z.is_zero() and k0 == 0


def test_integer_primitive():
    p = UniPoly([Fraction(2, 3), Fraction(4, 3)])
    prim, content = p.integer_primitive()
    assert prim == UniPoly([1, 2])
    assert content == Fraction(2, 3)
    assert prim * content == p


def test_divides():
    a = UniPoly([-1, 0, 1])
    assert UniPoly([1, 1]).divides(a)
    assert UniPoly([-1, 1]).divides(a)
    assert not UniPoly([1, 0, 0, 1]).divides(a)


def test_poly_gcd():
    a = UniPoly([-1, 0, 1])          # (x-1)(x+1)
    b = UniPoly([1, 2, 1])           # (x+1)^2
    g = poly_gcd(a, b)
    assert g.monic() == UniPoly([1, 1])
    assert poly_gcd(a, UniPoly.zero()).monic() == a.monic()


def test_x_pow_minus_one():
    p = x_pow_minus_one(6)
    assert p == UniPoly([-1, 0, 0, 0, 0, 0, 1])
    assert p.evaluate(Fraction(1)) == 0


def test_exact_sqrt():
    base = UniPoly([3, -2, 1, 5])
    assert exact_sqrt(base * base) == base or exact_sqrt(base * base) == base * -1
    assert exact_sqrt(UniPoly([1, 1])) is None
    assert exact_sqrt(UniPoly([0, 0, 1])) == UniPoly([0, 1])


def test_rational_roots():
    # (x - 1)(x + 2/3)(x^2 + 1), cleared: (x-1)(3x+2)(x^2+1)
    p = UniPoly([1, 1]) * 0 + UniPoly([-1, 1]) * UniPoly([2, 3]) * UniPoly([1, 0, 1])
    roots = rational_roots(p)
    assert set(roots) == {Fraction(1), Fraction(-2, 3)}


def test_rational_roots_drop_zero():
    # zero roots are unit-monomial artifacts and are excluded by contract
    p = UniPoly([0, -2, 0, 2])  # 2x(x^2 - 1)
    assert set(rational_roots(p)) == {Fraction(1), Fraction(-1)}


def test_rational_roots_refuses_huge_coefficients_at_once():
    start = time.perf_counter()
    with pytest.raises(DivisorBudgetError):
        rational_roots(UniPoly([10**24 + 7, 0, 1]))        # x^2 + 10^24 + 7
    with pytest.raises(DivisorBudgetError):
        rational_roots(UniPoly([1, 10**24 + 7]))
    assert time.perf_counter() - start < 1.0
    # Just inside the budget the scan still runs: 2x - b has the root b/2.
    b = MAX_TRIAL_DIVISOR**2
    assert rational_roots(UniPoly([-b, 2])) == [Fraction(b, 2)]


def test_irreducible_over_q_one_sided():
    assert irreducible_over_q(UniPoly([1, 0, 1])) is True            # x^2 + 1
    assert irreducible_over_q(UniPoly([-2, 0, 1])) is True           # x^2 - 2
    assert irreducible_over_q(UniPoly([-1, 0, 1])) is not True       # factors
    assert irreducible_over_q(UniPoly([5, 3])) is True               # degree 1
    # cyclotomic-like irreducible quartic
    assert irreducible_over_q(UniPoly([1, 1, 1, 1, 1])) is True


def test_float_coefficients_refused_by_both_polynomial_types():
    with pytest.raises(TypeError):
        UniPoly([0.5])
    with pytest.raises(TypeError):
        LaurentPoly2({(0, 0): 0.5})
