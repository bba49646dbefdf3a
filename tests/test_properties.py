"""Property-based suites: ring axioms, polygon additivity, norm axioms,
the parser round trip, the root-of-unity scan, the tangent at the origin,
the modular irreducibility test and the coefficient-list core over Q and
GF(q).  Each suite runs at least 200 generated cases."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from slopesmith import (
    LaurentPoly2,
    ObstructionError,
    PeripheralClass,
    Seminorm,
    UniPoly,
    branch_orders,
    eval_norm,
    newton_polygon,
    parse_poly,
    poly_gcd,
    tangent_at_origin,
    unity_order,
)
from slopesmith.unipoly import _CERT_PRIMES, _divmod, _gcd, _mul, is_irreducible_mod_p
from _oracles import (
    brute_hull,
    cyclotomic_coeffs,
    gf_ring_oracle,
    irreducible_mod_q_oracle,
    minkowski_sum_hull,
    qq_ring_oracle,
    unity_orders_oracle,
)

nonzero_coeffs = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=9),
)

exponents = st.tuples(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6)
)

laurent_polys = st.dictionaries(exponents, nonzero_coeffs, min_size=0, max_size=6).map(
    LaurentPoly2
)

nonzero_laurent_polys = st.dictionaries(
    exponents, nonzero_coeffs, min_size=1, max_size=6
).map(LaurentPoly2)

scalars = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=6),
)


@settings(max_examples=200, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys, scalars)
def test_ring_axioms_suite(f, g, h, c):
    # additive group
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + LaurentPoly2.zero() == f
    assert (f - f).is_zero()
    assert -(-f) == f
    # multiplicative monoid
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * LaurentPoly2.constant(1) == f
    # distributivity and scalar compatibility
    assert f * (g + h) == f * g + f * h
    assert (f + g) * c == f * c + g * c
    # small powers agree with repeated products
    assert f ** 2 == f * f
    assert f ** 3 == f * f * f


positive_supports = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
    ),
    st.builds(
        Fraction,
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(positive_supports, positive_supports)
def test_minkowski_additivity_suite(tf, tg):
    # positive coefficients rule out cancellation, so the polygon of a
    # product is the vertex-sum polygon of the factors
    f = LaurentPoly2(tf).normalize()
    g = LaurentPoly2(tg).normalize()
    hull_fg = newton_polygon((f * g)).vertices
    want = minkowski_sum_hull(
        newton_polygon(f).vertices, newton_polygon(g).vertices
    )
    assert [tuple(map(Fraction, v)) for v in hull_fg] == want
    # and the hull itself matches the brute gift-wrapping oracle
    assert [tuple(map(Fraction, v)) for v in newton_polygon(f).vertices] == brute_hull(
        f.support()
    )


primitive_functionals = st.tuples(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=4),
).filter(lambda t: (t[0], t[1]) != (0, 0) and math.gcd(t[0], t[1]) == 1)

seminorms = st.lists(primitive_functionals, min_size=1, max_size=4).map(
    lambda fs: Seminorm(tuple(fs))
)

classes = st.builds(
    PeripheralClass,
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=-20, max_value=20),
)


@settings(max_examples=200, deadline=None)
@given(seminorms, classes, classes, st.integers(min_value=-5, max_value=5))
def test_norm_axioms_suite(sn, x, y, k):
    nx = eval_norm(sn, x)
    ny = eval_norm(sn, y)
    # nonnegativity and symmetry
    assert nx >= 0
    assert eval_norm(sn, PeripheralClass(-x.a, -x.b)) == nx
    # integer homogeneity
    assert eval_norm(sn, PeripheralClass(k * x.a, k * x.b)) == abs(k) * nx
    # subadditivity
    assert eval_norm(sn, PeripheralClass(x.a + y.a, x.b + y.b)) <= nx + ny
    # definiteness holds exactly when the functionals span the plane
    if sn.is_norm() and (x.a, x.b) != (0, 0):
        assert nx > 0


@settings(max_examples=200, deadline=None)
@given(nonzero_laurent_polys, st.sampled_from([("m", "b"), ("m", "l")]))
def test_parse_print_round_trip_suite(p, names):
    q = LaurentPoly2(p.terms, names)
    text = str(q)
    assert parse_poly(text, names) == q
    # printing is canonical: a reprint of the reparse is identical
    assert str(parse_poly(text, names)) == text


@settings(max_examples=200, deadline=None)
@given(nonzero_laurent_polys, st.sampled_from([0, 1]))
def test_coeff_polys_round_trip_suite(p, axis):
    q = p.normalize()
    assert LaurentPoly2.from_coeff_polys(q.coeff_polys(axis), axis, q.var_names) == q


# Products of cyclotomic polynomials of order <= 12 with multiplicities,
# times random integer polynomials, with a power of x in front.
cyclotomic_products = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=2)),
    max_size=3,
)
integer_factors = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=2).flatmap(
        lambda low: st.integers(min_value=1, max_value=3).map(lambda lead: low + [lead])
    ),
    max_size=2,
)


@settings(max_examples=200, deadline=None)
@given(
    cyclotomic_products,
    integer_factors,
    st.integers(min_value=-4, max_value=4).filter(lambda k: k != 0),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=200),
)
def test_unity_order_matches_cyclotomic_division_suite(cyclos, factors, scale, shift, bound):
    p = UniPoly([0] * shift + [scale])
    for n, mult in cyclos:
        p = p * UniPoly(cyclotomic_coeffs(n)) ** mult
    for coeffs in factors:
        p = p * UniPoly(coeffs)
    assert unity_order(p, bound) == unity_orders_oracle(p, bound)


# Curves through the origin: a linear part that may vanish, plus terms of
# total degree 2 to 4.
linear_parts = st.tuples(
    st.one_of(st.just(Fraction(0)), nonzero_coeffs), st.one_of(st.just(Fraction(0)), nonzero_coeffs)
)
higher_terms = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: 2 <= sum(e) <= 4),
    nonzero_coeffs,
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(linear_parts, higher_terms)
def test_branch_tangent_at_origin_is_tangent_at_origin_suite(linear, higher):
    poly = LaurentPoly2({**higher, (1, 0): linear[0], (0, 1): linear[1]})
    if poly.is_zero():
        return
    try:
        branch = branch_orders(poly, (0, 0))
    except ObstructionError:
        return
    assert branch.tangent == tangent_at_origin(poly)


@st.composite
def polys_mod_good_prime(draw):
    """(p, q): q a certificate prime, p of degree 2 to 8 whose denominators
    and leading numerator q does not divide."""
    q = draw(st.sampled_from(_CERT_PRIMES))
    degree = draw(st.integers(min_value=2, max_value=8))
    numerators = draw(st.lists(st.integers(-30, 30), min_size=degree, max_size=degree))
    numerators.append(draw(st.integers(-30, 30).filter(lambda n: n % q != 0)))
    dens = st.integers(1, 9).filter(lambda d: d % q != 0)
    return UniPoly([Fraction(n, draw(dens)) for n in numerators]), q


@settings(max_examples=200, deadline=None)
@given(polys_mod_good_prime())
def test_irreducible_mod_p_matches_sympy_suite(case):
    p, q = case
    assert is_irreducible_mod_p(p, q) is irreducible_mod_q_oracle(p, q)


def test_irreducible_mod_p_refuses_degenerate_reductions():
    # A denominator divisible by q, and a leading coefficient that vanishes mod q.
    assert is_irreducible_mod_p(UniPoly([Fraction(1, 3), 0, 1]), 3) is None
    assert is_irreducible_mod_p(UniPoly([1, 1, 0, 3]), 3) is None
    assert is_irreducible_mod_p(UniPoly([1, 0, 14]), 7) is None


uni_coeffs = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
uni_polys = st.lists(uni_coeffs, max_size=6).map(UniPoly)
nonzero_uni_polys = st.builds(
    lambda low, lead: UniPoly(low + [lead]), st.lists(uni_coeffs, max_size=4), nonzero_coeffs
)


@settings(max_examples=200, deadline=None)
@given(uni_polys, nonzero_uni_polys, nonzero_uni_polys)
def test_unipoly_arithmetic_matches_sympy_suite(a, b, g):
    a, b = a * g, b * g  # a shared factor, so that many gcds are nontrivial
    product, quot, rem, gcd = qq_ring_oracle(a, b)
    assert list((a * b).coeffs) == product
    assert divmod(a, b) == (UniPoly(quot), UniPoly(rem))
    assert list(poly_gcd(a, b).coeffs) == gcd


@st.composite
def gf_pairs(draw):
    """(a, b, q): q a certificate prime, a and b trimmed lists over GF(q)
    with b nonzero, sharing a factor half of the time."""
    q = draw(st.sampled_from(_CERT_PRIMES))
    low = st.lists(st.integers(0, q - 1), max_size=6)
    lead = st.integers(1, q - 1)
    a = draw(low)
    while a and a[-1] == 0:
        a.pop()
    b = draw(low) + [draw(lead)]
    if draw(st.booleans()):
        g = draw(low) + [draw(lead)]
        a, b = gf_ring_oracle(a, g, q)[0], gf_ring_oracle(b, g, q)[0]
    return a, b, q


@settings(max_examples=200, deadline=None)
@given(gf_pairs())
def test_gf_core_matches_sympy_suite(case):
    a, b, q = case
    product, quot, rem, gcd = gf_ring_oracle(a, b, q)
    assert [c % q for c in _mul(a, b)] == product
    assert _divmod(a, b, q) == (quot, rem)
    # Rabin's test divides unreduced products, as here.
    assert _divmod(_mul(a, b), b, q) == (a, [])
    g = _gcd(a, b, q)
    assert [c * pow(g[-1], -1, q) % q for c in g] == gcd
