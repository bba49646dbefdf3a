"""Algebraic obstruction pipelines for surgery-slope questions.

Two pipelines are implemented over exact rationals.  The cyclic pipeline
builds the four-term curve tying the two eigenvalue ratios together,
checks irreducibility, reads the tangent cone and branch orders at the
origin, converts pole orders into tree-action invariants, and closes with
a root-of-unity scan of the eigenvalue constant.  The diameter pipeline
builds the two-slope curve for a reduced fraction p/q and tests its
monomial symmetries against the parity constraints.

Both verdicts are deterministic: identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .laurent import LaurentPoly2
from .newton import unity_order
from .unipoly import (
    UniPoly, exact_sqrt, integer_content, irreducible_over_q, poly_gcd
)


# The diameter pipeline builds prescribed_slope_curve(p, q, 1), whose cost
# grows faster than q**2 (about 1 s at q = 500, 2 min at 4001); a larger q is
# refused, not run.
MAX_DIAMETER_Q = 500


class ObstructionError(ValueError):
    pass


class SingularPointError(ObstructionError):
    pass


class NonTransverseError(ObstructionError):
    """The tangent line is a coordinate line; orders need series expansion."""


class UndeterminedRatioError(ObstructionError):
    """Both trace functions vanish identically on the curve."""


# -- curve constructors -------------------------------------------------------


def eigenvalue_ratio_curve(c) -> LaurentPoly2:
    """The curve forcing (m - 1/m) = c (b - 1/b), cleared of denominators.

    Four terms: b m^2 - b - c b^2 m + c m, in variables (m, b).
    """
    c = Fraction(c)
    if c == 0:
        raise ObstructionError("the ratio constant must be nonzero")
    return LaurentPoly2(
        {(2, 1): 1, (0, 1): -1, (1, 2): -c, (1, 0): c}, ("m", "b")
    )


def _check_slope_pair(p: int, q: int) -> None:
    """Refuse (p, q) unless p/q is a reduced fraction with 0 <= p <= q."""
    if not (0 <= p <= q) or q < 1:
        raise ObstructionError(f"need 0 <= p <= q with q >= 1, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ObstructionError(f"p and q must be coprime, got ({p}, {q})")


def prescribed_slope_curve(p: int, q: int, c) -> LaurentPoly2:
    """m^p (l^2-1)^p (l^2 m^2 - 1)^(q-p) - c l^q (m^2-1)^q in variables (m, l)."""
    c = Fraction(c)
    if c == 0:
        raise ObstructionError("the constant must be nonzero")
    _check_slope_pair(p, q)
    vars_ = ("m", "l")
    m = LaurentPoly2.variable(0, vars_)
    l = LaurentPoly2.variable(1, vars_)
    one = LaurentPoly2.constant(1, vars_)
    first = m**p * (l * l - one) ** p * (l * l * m * m - one) ** (q - p)
    second = (l**q) * (m * m - one) ** q * c
    return first - second


# -- irreducibility ------------------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityReport:
    status: str  # "irreducible" | "factors" | "inconclusive"
    witness: tuple[LaurentPoly2, LaurentPoly2] | None = None
    detail: str = ""


def _content_split(cmap: dict[int, UniPoly]) -> tuple[UniPoly, dict[int, UniPoly]]:
    """The monic gcd of the coefficient polynomials, and each one divided by it."""
    content = UniPoly.zero()
    for up in cmap.values():
        content = poly_gcd(content, up)
    return content, {m: up // content for m, up in cmap.items()}


def _strip_rational_content(poly: LaurentPoly2) -> LaurentPoly2:
    """Scale to coprime integer coefficients with a canonical sign."""
    if poly.is_zero():
        return poly
    scale = 1 / integer_content(poly.terms.values())
    if poly._sorted_terms()[-1][1] < 0:
        scale = -scale
    return poly * scale


_SPECIALIZE_SEQUENCE = (
    Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 2), Fraction(4),
    Fraction(5, 3), Fraction(7, 3), Fraction(8, 3), Fraction(9, 2), Fraction(5),
    Fraction(11, 2), Fraction(6),
)


def _degree_keeping_specializations(poly: LaurentPoly2, axis: int):
    """(value, u) for each value of _SPECIALIZE_SEQUENCE at which u, the
    normalized ``poly`` with ``axis`` set to value, keeps the other degree."""
    full_degree = poly.degree(1 - axis)
    for value in _SPECIALIZE_SEQUENCE:
        u = poly.specialize(axis, value)
        if u.degree() == full_degree:
            yield value, u


def irreducibility_check(poly: LaurentPoly2) -> IrreducibilityReport:
    """Exact decision up to degree 2 in a variable; one-sided beyond.

    Content factors are returned as witnesses.  In quadratic view the
    discriminant-square test decides, and a square discriminant yields an
    explicit factor pair.  Otherwise, a specialization that keeps the top
    degree and is certified irreducible modulo a small prime promotes to
    irreducibility of the whole; no certificate means "inconclusive",
    never "reducible".
    """
    poly = poly.normalize()
    if poly.num_terms() <= 1:
        raise ObstructionError("constant or single-term input")

    cmaps = {main_axis: poly.coeff_polys(main_axis) for main_axis in (1, 0)}
    for main_axis, cmap in cmaps.items():
        if len(cmap) == 1:
            # Pure power of the main variable times a univariate polynomial.
            raise ObstructionError("input is univariate after normalization")
        content, quotient = _content_split(cmap)
        if content.degree() >= 1:
            f1 = LaurentPoly2.from_coeff_polys({0: content}, main_axis, poly.var_names)
            f2 = LaurentPoly2.from_coeff_polys(quotient, main_axis, poly.var_names)
            return IrreducibilityReport(
                "factors", (f1, f2), detail="nonconstant coefficient content"
            )

    deg1, deg2 = poly.degree(0), poly.degree(1)
    if min(deg1, deg2) == 1:
        return IrreducibilityReport(
            "irreducible", detail="degree 1 in a variable with trivial content"
        )

    for main_axis in (1, 0):
        deg = deg2 if main_axis == 1 else deg1
        if deg != 2:
            continue
        cmap = cmaps[main_axis]
        a = cmap.get(2, UniPoly.zero())
        b = cmap.get(1, UniPoly.zero())
        c = cmap.get(0, UniPoly.zero())
        disc = b * b - UniPoly.constant(4) * a * c
        root = exact_sqrt(disc)
        if root is None:
            return IrreducibilityReport(
                "irreducible",
                detail="quadratic view: discriminant is not a polynomial square",
            )
        two_a = UniPoly.constant(2) * a
        # (2a y + b - s)(2a y + b + s) = 4a * poly, so each factor may carry
        # a polynomial content dividing 2a; strip it to get primitive parts.
        factors = []
        for s in (-root, root):
            _, primitive = _content_split({1: two_a, 0: b + s})
            factors.append(
                _strip_rational_content(
                    LaurentPoly2.from_coeff_polys(primitive, main_axis, poly.var_names)
                )
            )
        f1, f2 = factors
        prod = f1 * f2
        lead_exp = prod._sorted_terms()[-1][0]
        scale = poly.coeff(lead_exp) / prod.coeff(lead_exp)
        if f1 * f2 * scale != poly:
            raise ObstructionError("square-discriminant factors do not multiply back")
        return IrreducibilityReport(
            "factors", (f1, f2), detail=f"square discriminant; scale {scale}"
        )

    # Both degrees >= 3: one-sided specialization certificates.
    for axis in (0, 1):
        for value, u in _degree_keeping_specializations(poly, axis):
            if irreducible_over_q(u) is True:
                return IrreducibilityReport(
                    "irreducible",
                    detail=(
                        f"specialization at {poly.var_names[axis]} = {value} keeps "
                        "the degree and is irreducible modulo a small prime"
                    ),
                )
    return IrreducibilityReport("inconclusive", detail="no certificate found")


# -- local geometry at the origin ---------------------------------------------


def _tangent_form(poly: LaurentPoly2, d_first, d_second, where) -> LaurentPoly2:
    """d_first * x + d_second * y as a primitive integer form whose first
    nonzero coefficient is positive; a zero gradient is singular at ``where``.
    """
    if d_first == 0 and d_second == 0:
        raise SingularPointError(f"curve is singular at {where}")
    scale = 1 / integer_content((d_first, d_second))
    if d_first < 0 or (d_first == 0 and d_second < 0):
        scale = -scale
    return LaurentPoly2({(1, 0): d_first * scale, (0, 1): d_second * scale}, poly.var_names)


def tangent_at_origin(poly: LaurentPoly2) -> LaurentPoly2:
    """Primitive integer form of the linear part at the origin."""
    poly = poly.normalize()
    if poly.coeff((0, 0)) != 0:
        raise ObstructionError("the origin is not on the curve")
    return _tangent_form(poly, poly.coeff((1, 0)), poly.coeff((0, 1)), "the origin")


@dataclass(frozen=True)
class BranchData:
    point: tuple[Fraction, Fraction]
    tangent: LaurentPoly2  # primitive integer form in the displacement
    ord_first: int
    ord_second: int


def branch_orders(poly: LaurentPoly2, at) -> BranchData:
    """Vanishing orders of the coordinates along the branch at a smooth point.

    A coordinate that is nonzero at the point has order 0.  A vanishing
    coordinate has order 1 exactly when its zero line is transverse to the
    tangent; tangency to a coordinate line is refused (the order would
    need a series expansion to determine).
    """
    point = (Fraction(at[0]), Fraction(at[1]))
    poly = poly.normalize()
    if poly.evaluate(point) != 0:
        raise ObstructionError(f"point {at} is not on the curve")
    d_first = poly.derivative(0).evaluate(point)
    d_second = poly.derivative(1).evaluate(point)
    tangent = _tangent_form(poly, d_first, d_second, at)
    # Branch direction spans the kernel of the gradient.
    direction = (-d_second, d_first)
    orders = []
    for axis in (0, 1):
        if point[axis] != 0:
            orders.append(0)
        elif direction[axis] == 0:
            raise NonTransverseError(
                f"tangent is the coordinate line {poly.var_names[axis]} = 0; "
                "the vanishing order exceeds 1"
            )
        else:
            orders.append(1)
    return BranchData(point, tangent, orders[0], orders[1])


@dataclass(frozen=True)
class TreeInvariants:
    translation_length: int
    boundary_components: int


def tree_invariants(pole_order: int) -> TreeInvariants:
    """Both invariants double the pole order."""
    if pole_order < 1:
        raise ObstructionError("pole order must be a positive integer")
    return TreeInvariants(2 * pole_order, 2 * pole_order)


# -- symmetries ----------------------------------------------------------------

_SYMMETRY_ACTIONS = ("negate-first", "negate-second", "negate-both")


def detect_symmetries(poly: LaurentPoly2) -> frozenset[str]:
    """Sign substitutions fixing the polynomial up to a rational scalar."""
    if poly.is_zero():
        raise ObstructionError("zero polynomial")
    found = []
    anchor = poly._sorted_terms()[0][0]
    for action in _SYMMETRY_ACTIONS:
        image = poly.substitute(action)
        scale = image.coeff(anchor) / poly.coeff(anchor)
        if scale != 0 and image == poly * scale:
            found.append(action)
    return frozenset(found)


# -- constancy of trace-function ratios -----------------------------------------


@dataclass(frozen=True)
class RatioReport:
    status: str  # "constant" | "non-constant"
    value: Fraction | None
    method: str  # always "symbolic": pseudo-division by the curve
    witnesses: tuple[str, ...] = ()


def _trace_square(x: LaurentPoly2) -> LaurentPoly2:
    """(x - 1/x)^2 for a monomial x."""
    inv = x**-1
    return (x - inv) * (x - inv)


def _joint_clear(u: LaurentPoly2, v: LaurentPoly2) -> tuple[LaurentPoly2, LaurentPoly2]:
    """Multiply both by one monomial so each becomes an ordinary polynomial."""
    shift0 = min(min(i for i, _ in u.terms), min(i for i, _ in v.terms), 0)
    shift1 = min(min(j for _, j in u.terms), min(j for _, j in v.terms), 0)
    mono = LaurentPoly2({(-shift0, -shift1): 1}, u.var_names)
    return u * mono, v * mono


def _pseudo_remainder(
    num: dict[int, UniPoly], den: dict[int, UniPoly]
) -> tuple[dict[int, UniPoly], int]:
    """Always-multiply pseudo-division by ``den`` in the main variable.

    Returns (remainder, s) with lc(den)^s * num = q*den + remainder.
    """
    lc_deg = max(den)
    lc = den[lc_deg]
    rem = {k: v for k, v in num.items() if not v.is_zero()}
    steps = 0
    while rem and max(rem) >= lc_deg:
        top = max(rem)
        head = rem[top]
        new: dict[int, UniPoly] = {}
        for k, v in rem.items():
            new[k] = v * lc
        for k, v in den.items():
            shifted = top - lc_deg + k
            new[shifted] = new.get(shifted, UniPoly.zero()) - head * v
        rem = {k: v for k, v in new.items() if not v.is_zero()}
        steps += 1
    return rem, steps


def ratio_constant_check(
    curve: LaurentPoly2, which: str, p: int | None = None, q: int | None = None
) -> RatioReport:
    """Is the designated trace-function ratio constant on the curve?

    ``which`` = "cyclic" compares the squared trace deviations of the two
    variables; "diameter" compares the (p, q)-weighted product against
    the q-th power of the first variable's deviation.  Both are
    pseudo-divided by the curve in its main variable, and the ratio is the
    constant c exactly when the remainders satisfy r_num = c * r_den.  That
    needs the curve squarefree and coprime to the leading coefficient it is
    divided by.  ObstructionError refuses a curve with fewer than two terms,
    with a common factor in its coefficients in the main variable, or with
    no specialization that keeps its degree and is squarefree (B^2 dividing
    the curve makes B(a, .)^2 divide each such specialization).
    """
    x = LaurentPoly2.variable(0, curve.var_names)
    y = LaurentPoly2.variable(1, curve.var_names)
    if which == "cyclic":
        num = _trace_square(x)
        den = _trace_square(y)
    elif which == "diameter":
        if p is None or q is None or not (0 <= p <= q) or q < 1:
            raise ObstructionError("diameter mode needs 0 <= p <= q")
        num = _trace_square(y) ** p * _trace_square(x * y) ** (q - p)
        den = _trace_square(x) ** q
    else:
        raise ObstructionError(f"unknown mode {which!r}")

    num, den = _joint_clear(num, den)
    curve = curve.normalize()
    if curve.num_terms() <= 1:
        raise ObstructionError("constant or single-term input")

    # Divide in the variable where the curve has positive degree; remainders
    # of lower degree vanish mod the curve only when identically zero.
    main_axis = 1 if max(j for _, j in curve.terms) > 0 else 0
    a_map = curve.coeff_polys(main_axis)
    content, _ = _content_split(a_map)
    if content.degree() >= 1:
        raise ObstructionError(
            f"the curve's coefficients in {curve.var_names[main_axis]} share the "
            f"factor {content}; split off that component first"
        )
    if not any(poly_gcd(u, u.derivative()).degree() == 0
               for _, u in _degree_keeping_specializations(curve, 1 - main_axis)):
        raise ObstructionError(
            f"the curve may have a repeated factor in {curve.var_names[main_axis]}; "
            "pass its squarefree part"
        )
    r_u, s_u = _pseudo_remainder(num.coeff_polys(main_axis), a_map)
    r_v, s_v = _pseudo_remainder(den.coeff_polys(main_axis), a_map)
    lc = a_map[max(a_map)]
    s = max(s_u, s_v)
    r_u = {k: v * lc ** (s - s_u) for k, v in r_u.items()}
    r_v = {k: v * lc ** (s - s_v) for k, v in r_v.items()}

    if not r_v:
        if not r_u:
            raise UndeterminedRatioError(
                "both trace functions vanish identically on the curve"
            )
        return RatioReport(
            "non-constant", None, "symbolic",
            ("denominator vanishes on the curve, numerator does not",),
        )

    top = max(r_v)
    pos = r_v[top].degree()
    value = r_u.get(top, UniPoly.zero())[pos] / r_v[top][pos]
    zero = UniPoly.zero()
    for k in sorted(set(r_u) | set(r_v)):
        if r_u.get(k, zero) != r_v.get(k, zero) * value:
            return RatioReport(
                "non-constant", None, "symbolic",
                (f"pseudo-remainders differ from {value} times each other at "
                 f"{curve.var_names[main_axis]}^{k}",),
            )
    return RatioReport("constant", value, "symbolic")


# -- verdict pipelines -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EvidenceStep:
    step: str
    rule: str
    value: str


@dataclass(frozen=True, slots=True)
class ObstructionReport:
    pipeline: str
    inputs: dict
    evidence: tuple[EvidenceStep, ...]
    verdict: str  # "contradiction-established" | "consistent" | "inconclusive"

    def to_dict(self) -> dict:
        return {
            "pipeline": self.pipeline,
            "inputs": dict(self.inputs),
            "evidence": [
                {"step": e.step, "rule": e.rule, "value": e.value} for e in self.evidence
            ],
            "verdict": self.verdict,
        }


def cyclic_verdict(c, bound: int = 120) -> ObstructionReport:
    """Run the eigenvalue-ratio pipeline for a rational constant."""
    c = Fraction(c)
    inputs = {"c": str(c), "bound": str(bound)}
    evidence: list[EvidenceStep] = []

    curve = eigenvalue_ratio_curve(c)
    evidence.append(EvidenceStep("construct-curve", "eigenvalue-ratio-curve", str(curve)))

    irr = irreducibility_check(curve)
    evidence.append(EvidenceStep("irreducibility", "factor-scan", irr.status))
    if irr.status == "factors":
        f1, f2 = irr.witness
        evidence.append(
            EvidenceStep("factor-witness", "factor-scan", f"({f1}) * ({f2})")
        )
        evidence.append(
            EvidenceStep(
                "conclusion", "reducible-case",
                "curve splits into lines; the pipeline draws no contradiction",
            )
        )
        return ObstructionReport("cyclic", inputs, tuple(evidence), "consistent")
    if irr.status == "inconclusive":
        evidence.append(
            EvidenceStep("conclusion", "factor-scan", "irreducibility undecided")
        )
        return ObstructionReport("cyclic", inputs, tuple(evidence), "inconclusive")

    branch = branch_orders(curve, (0, 0))
    evidence.append(EvidenceStep("tangent-cone", "tangent-cone", str(branch.tangent)))
    evidence.append(
        EvidenceStep(
            "branch-orders", "simple-pole-transversality",
            f"ord_first={branch.ord_first}, ord_second={branch.ord_second}",
        )
    )

    tree = tree_invariants(branch.ord_first)
    evidence.append(
        EvidenceStep(
            "tree-invariants", "pole-order-doubling",
            f"translation_length={tree.translation_length}, "
            f"boundary_components={tree.boundary_components}",
        )
    )

    # Both the constant and its inverse are viable eigenvalue readings of
    # the contracted class; a root-of-unity order ignores the inversion.
    candidates = sorted({c, 1 / c}, key=lambda f: (f.denominator, f.numerator))
    evidence.append(
        EvidenceStep(
            "eigenvalue-candidates", "basis-inversion-ambiguity",
            "{" + ", ".join(str(v) for v in candidates) + "}",
        )
    )

    orders = unity_order(UniPoly([-c, 1]), bound)
    evidence.append(
        EvidenceStep(
            "root-of-unity-scan", "unity-order-scan",
            f"orders {orders}" if orders else f"none detected (bound={bound})",
        )
    )

    required = tree.boundary_components + 1
    if not orders:
        evidence.append(
            EvidenceStep(
                "conclusion", "boundary-count-vs-order",
                f"a surface with {tree.boundary_components} boundary components "
                f"forces an eigenvalue of finite order, at least {required} once "
                "the trivial orders are excluded; the constant is not a root of "
                "unity",
            )
        )
        return ObstructionReport(
            "cyclic", inputs, tuple(evidence), "contradiction-established"
        )
    evidence.append(
        EvidenceStep(
            "conclusion", "boundary-count-vs-order",
            f"eigenvalue has finite order {orders}; no contradiction",
        )
    )
    return ObstructionReport("cyclic", inputs, tuple(evidence), "consistent")


def diameter_verdict(p: int, q: int) -> ObstructionReport:
    """Parity and symmetry screening of a reduced slope pair (-p/q, 2-p/q).

    A q above ``MAX_DIAMETER_Q`` is refused with ObstructionError.
    """
    _check_slope_pair(p, q)
    if q > MAX_DIAMETER_Q:
        raise ObstructionError(f"q = {q} exceeds the budget of {MAX_DIAMETER_Q}")
    inputs = {"p": str(p), "q": str(q)}
    evidence: list[EvidenceStep] = []

    evidence.append(
        EvidenceStep(
            "parity", "slope-parity",
            f"p {'even' if p % 2 == 0 else 'odd'}, q {'even' if q % 2 == 0 else 'odd'}",
        )
    )

    curve = prescribed_slope_curve(p, q, 1)
    symmetries = sorted(detect_symmetries(curve))
    evidence.append(
        EvidenceStep("symmetry-scan", "sign-substitution-scan", ", ".join(symmetries) or "none")
    )

    if q == 1:
        evidence.append(
            EvidenceStep(
                "conclusion", "integral-class-exclusion",
                "q = 1 makes the slope pair integral; excluded",
            )
        )
        return ObstructionReport(
            "diameter", inputs, tuple(evidence), "contradiction-established"
        )
    if q % 2 == 0 or p % 2 == 1:
        if q % 2 == 0:
            symmetry, reason = "negate-second", "q even forces the second-variable"
        else:
            symmetry, reason = "negate-both", "p and q both odd force the double"
        verified = symmetry in symmetries
        evidence.append(
            EvidenceStep(
                "conclusion", "forbidden-symmetry",
                f"{reason} sign symmetry (verified on the curve: {verified}); "
                "that symmetry is forbidden",
            )
        )
        verdict = "contradiction-established" if verified else "inconclusive"
        return ObstructionReport("diameter", inputs, tuple(evidence), verdict)

    evidence.append(
        EvidenceStep(
            "conclusion", "allowed-symmetry",
            "p even with q odd, q > 1: only the first-variable sign symmetry "
            f"remains ({'present' if 'negate-first' in symmetries else 'absent'}); "
            "consistent",
        )
    )
    return ObstructionReport("diameter", inputs, tuple(evidence), "consistent")
