"""Exact bivariate Laurent polynomials over the rationals.

A polynomial is stored sparsely as a map from integer exponent pairs
``(i, j)`` to nonzero ``Fraction`` coefficients, together with a pair of
variable names.  All arithmetic is exact.  The printer emits a canonical
form (terms ordered by total degree, ties broken by the second exponent)
which the parser accepts back unchanged.

Accepted input grammar (whitespace insignificant)::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*'? factor)*
    factor   := atom ['^' ['-'] integer]
    atom     := rational | variable | '(' expr ')'
    rational := integer ['/' positive_integer]

Variables are single identifiers and must match the declared variable
names; juxtaposition multiplies (``3 m^2 b``), but ``mb`` is one unknown
identifier, not a product.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import comb
from typing import Mapping

from .unipoly import CoeffLike, UniPoly, as_fraction, signed_terms_text, square_and_multiply

Exponents = tuple[int, int]

# Exponents past this bound are treated as input errors: they are almost
# certainly typos and would make dense expansion or printing blow up.
MAX_EXPONENT = 10**6

# Largest number of terms a parsed power, or a parsed product of two
# multi-term factors, may expand to.  The bound is checked before
# expanding, so (m+b)^1000000 is refused at once; a power just inside it
# takes a few seconds of exact arithmetic.
MAX_POWER_TERMS = 2500


class LaurentError(ValueError):
    """Base class for errors raised by this module."""


class PolyParseError(LaurentError):
    """Malformed polynomial text.  ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentOverflowError(LaurentError):
    pass


class EvaluationError(LaurentError):
    pass


class LaurentPoly2:
    """A Laurent polynomial in two variables with rational coefficients."""

    __slots__ = ("terms", "var_names")

    def __init__(
        self,
        terms: Mapping[Exponents, CoeffLike] | None = None,
        var_names: tuple[str, str] = ("m", "b"),
    ):
        if len(var_names) != 2 or var_names[0] == var_names[1]:
            raise LaurentError(f"need two distinct variable names, got {var_names!r}")
        clean: dict[Exponents, Fraction] = {}
        for (i, j), c in (terms or {}).items():
            if abs(i) > MAX_EXPONENT or abs(j) > MAX_EXPONENT:
                raise ExponentOverflowError(f"exponent pair ({i}, {j}) out of range")
            c = as_fraction(c)
            if c != 0:
                clean[(int(i), int(j))] = c
        self.terms = clean
        self.var_names = (str(var_names[0]), str(var_names[1]))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, var_names: tuple[str, str] = ("m", "b")) -> "LaurentPoly2":
        return cls({}, var_names)

    @classmethod
    def constant(cls, c: CoeffLike, var_names: tuple[str, str] = ("m", "b")) -> "LaurentPoly2":
        return cls({(0, 0): c}, var_names)

    @classmethod
    def monomial(
        cls,
        c: CoeffLike,
        exps: Exponents,
        var_names: tuple[str, str] = ("m", "b"),
    ) -> "LaurentPoly2":
        return cls({tuple(exps): c}, var_names)

    @classmethod
    def variable(cls, index: int, var_names: tuple[str, str] = ("m", "b")) -> "LaurentPoly2":
        return cls({(1, 0) if index == 0 else (0, 1): 1}, var_names)

    @classmethod
    def from_coeff_polys(
        cls, cmap: Mapping[int, UniPoly], main_axis: int, var_names: tuple[str, str]
    ) -> "LaurentPoly2":
        """Inverse of :meth:`coeff_polys`: rebuild the polynomial from the
        coefficient of each power of the main variable."""
        terms: dict[Exponents, Fraction] = {}
        for main, up in cmap.items():
            for k, coeff in enumerate(up.coeffs):
                if coeff != 0:
                    terms[(k, main) if main_axis == 1 else (main, k)] = coeff
        return cls(terms, var_names)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self) -> set[Exponents]:
        return set(self.terms)

    def coeff(self, exps: Exponents) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def exponent_range(self, axis: int) -> tuple[int, int]:
        """(min, max) exponent of the given variable over the support."""
        if not self.terms:
            raise LaurentError("zero polynomial has no exponent range")
        vals = [e[axis] for e in self.terms]
        return min(vals), max(vals)

    def degree(self, axis: int) -> int:
        return self.exponent_range(axis)[1]

    def num_terms(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.var_names == other.var_names and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.var_names, frozenset(self.terms.items())))

    # -- ring operations --------------------------------------------------

    def _check_compatible(self, other: "LaurentPoly2") -> None:
        if self.var_names != other.var_names:
            raise LaurentError(
                f"variable mismatch: {self.var_names} vs {other.var_names}"
            )

    def __add__(self, other: "LaurentPoly2 | int | Fraction") -> "LaurentPoly2":
        other = self._coerce(other)
        self._check_compatible(other)
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e, Fraction(0)) + c
            if s == 0:
                res.pop(e, None)
            else:
                res[e] = s
        return LaurentPoly2(res, self.var_names)

    def __sub__(self, other: "LaurentPoly2 | int | Fraction") -> "LaurentPoly2":
        return self + (-self._coerce(other))

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2({e: -c for e, c in self.terms.items()}, self.var_names)

    def __mul__(self, other: "LaurentPoly2 | int | Fraction") -> "LaurentPoly2":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return LaurentPoly2.zero(self.var_names)
            return LaurentPoly2(
                {e: c * other for e, c in self.terms.items()}, self.var_names
            )
        self._check_compatible(other)
        res: dict[Exponents, Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                s = res.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    res.pop(e, None)
                else:
                    res[e] = s
        return LaurentPoly2(res, self.var_names)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other: "LaurentPoly2 | int | Fraction") -> "LaurentPoly2":
        return (-self) + self._coerce(other)

    def __pow__(self, n: int) -> "LaurentPoly2":
        if not isinstance(n, int):
            raise TypeError("polynomial powers must be integers")
        if n < 0:
            # Only monomials are units of the Laurent ring.
            if not self.is_monomial():
                raise LaurentError("negative power of a non-monomial Laurent polynomial")
            ((i, j), c), = self.terms.items()
            return LaurentPoly2({(i * n, j * n): c**n}, self.var_names)
        return square_and_multiply(
            self, n, LaurentPoly2.constant(1, self.var_names), operator.mul
        )

    def _coerce(self, other: "LaurentPoly2 | int | Fraction") -> "LaurentPoly2":
        if isinstance(other, LaurentPoly2):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly2.constant(other, self.var_names)
        raise TypeError(f"cannot combine LaurentPoly2 with {type(other).__name__}")

    # -- normalization ----------------------------------------------------

    def normalize(self) -> "LaurentPoly2":
        """Shift by a monomial so the minimum exponent of each variable is 0."""
        if not self.terms:
            return self
        imin = min(i for i, _ in self.terms)
        jmin = min(j for _, j in self.terms)
        if imin == 0 and jmin == 0:
            return self
        return LaurentPoly2(
            {(i - imin, j - jmin): c for (i, j), c in self.terms.items()},
            self.var_names,
        )

    def is_normalized(self) -> bool:
        return self.normalize() is self

    # -- monomial substitutions -------------------------------------------

    def substitute(self, action: str, scale: CoeffLike | None = None) -> "LaurentPoly2":
        """Apply one of the monomial substitutions.

        Supported actions: ``negate-first`` (x -> -x), ``negate-second``,
        ``negate-both``, ``invert-first`` (x -> 1/x), ``invert-second``,
        ``invert-both`` and ``scale-first`` (x -> c*x, c a nonzero rational
        passed via ``scale``).  "first"/"second" refer to the variable order
        of ``var_names``.
        """
        t = self.terms
        if action == "negate-first":
            new = {(i, j): c if i % 2 == 0 else -c for (i, j), c in t.items()}
        elif action == "negate-second":
            new = {(i, j): c if j % 2 == 0 else -c for (i, j), c in t.items()}
        elif action == "negate-both":
            new = {(i, j): c if (i + j) % 2 == 0 else -c for (i, j), c in t.items()}
        elif action == "invert-first":
            new = {(-i, j): c for (i, j), c in t.items()}
        elif action == "invert-second":
            new = {(i, -j): c for (i, j), c in t.items()}
        elif action == "invert-both":
            new = {(-i, -j): c for (i, j), c in t.items()}
        elif action == "scale-first":
            if scale is None:
                raise LaurentError("scale-first needs a rational scale factor")
            s = as_fraction(scale)
            if s == 0:
                raise LaurentError("scale factor must be nonzero")
            new = {(i, j): c * s**i for (i, j), c in t.items()}
        else:
            raise LaurentError(f"unknown substitution action {action!r}")
        return LaurentPoly2(new, self.var_names)

    def derivative(self, axis: int) -> "LaurentPoly2":
        """Partial derivative with respect to one variable (0 or 1)."""
        if axis not in (0, 1):
            raise LaurentError("axis must be 0 or 1")
        new: dict[Exponents, Fraction] = {}
        for (i, j), c in self.terms.items():
            e = (i, j)[axis]
            if e == 0:
                continue
            key = (i - 1, j) if axis == 0 else (i, j - 1)
            new[key] = c * e
        return LaurentPoly2(new, self.var_names)

    # -- evaluation and specialization --------------------------------------

    def evaluate(self, point):
        """Evaluate at ``point`` = (x, y).

        Exact for Fraction/int inputs, floating for complex/float inputs.
        A zero coordinate is only allowed when the polynomial has no
        negative powers of that variable.
        """
        x, y = point
        exact = isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction))
        total = Fraction(0) if exact else 0j
        # At a zero coordinate a term with a positive power of it vanishes.
        zero_axes = [axis for axis in (0, 1) if point[axis] == 0]
        for exps, c in self.terms.items():
            for axis in zero_axes:
                if exps[axis] < 0:
                    raise EvaluationError(
                        f"negative power of {self.var_names[axis]} at a zero coordinate"
                    )
            if any(exps[axis] for axis in zero_axes):
                continue
            total = total + (c if exact else complex(c)) * x ** exps[0] * y ** exps[1]
        return total

    def coeff_polys(self, main_axis: int) -> dict[int, UniPoly]:
        """Map each power of the main variable to its coefficient, a UniPoly
        in the other variable; that one's exponents must be nonnegative.
        """
        acc: dict[int, dict[int, Fraction]] = {}
        for (i, j), coeff in self.terms.items():
            main, other = (j, i) if main_axis == 1 else (i, j)
            if other < 0:
                raise LaurentError(f"term ({i}, {j}) has a negative power; normalize first")
            acc.setdefault(main, {})[other] = coeff
        out = {}
        for main, cmap in acc.items():
            coeffs = [Fraction(0)] * (max(cmap) + 1)
            for k, v in cmap.items():
                coeffs[k] = v
            out[main] = UniPoly(coeffs)
        return out

    def specialize(self, axis: int, value: CoeffLike) -> UniPoly:
        """Substitute an exact rational for one variable.

        Returns a :class:`slopesmith.unipoly.UniPoly` in the remaining
        variable.  If the remaining variable occurs with negative powers the
        result is shifted by the smallest power, so the lowest retained
        power becomes the constant term; zero sets in the torus do not see
        the shift.
        """
        value = as_fraction(value)
        if axis not in (0, 1):
            raise LaurentError("axis must be 0 or 1")
        acc: dict[int, Fraction] = {}
        for (i, j), c in self.terms.items():
            fixed, kept = (i, j) if axis == 0 else (j, i)
            if value == 0 and fixed < 0:
                raise EvaluationError("negative power at a zero specialization value")
            if value == 0 and fixed > 0:
                continue
            contrib = c * value**fixed
            acc[kept] = acc.get(kept, Fraction(0)) + contrib
        acc = {k: v for k, v in acc.items() if v != 0}
        if not acc:
            return UniPoly(())
        low = min(acc)
        shift = min(low, 0)
        coeffs = [Fraction(0)] * (max(acc) - shift + 1)
        for k, v in acc.items():
            coeffs[k - shift] = v
        return UniPoly(coeffs)

    # -- canonical printing -------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        # Graded order on (i, j), ties broken by j.  Total and reproducible.
        return sorted(self.terms.items(), key=lambda t: (t[0][0] + t[0][1], t[0][1]))

    def __str__(self) -> str:
        v1, v2 = self.var_names
        return signed_terms_text((c, ((v1, i), (v2, j))) for (i, j), c in self._sorted_terms())

    def __repr__(self) -> str:
        return f"LaurentPoly2('{self}', vars={self.var_names})"


# -- parsing ----------------------------------------------------------------


# Tokens: integer, name, operator (its own kind), any other character, end of text.
_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d]\w*)|([-+*/^()])|(.)|$)", re.DOTALL)


class _Parser:
    def __init__(self, text: str, var_names: tuple[str, str]):
        self.tokens = [
            (("int", "name", m[3], "bad")[m.lastindex - 1], m[m.lastindex], m.start(m.lastindex))
            if m.lastindex else ("end", "", m.end())
            for m in _TOKEN.finditer(text)
        ]
        self.index = 0
        self.var_names = var_names

    def peek(self) -> tuple[str, str, int]:
        """Return (kind, value, position) without consuming."""
        kind, value, pos = token = self.tokens[self.index]
        if kind == "bad":
            raise PolyParseError(f"unexpected character {value!r}", pos)
        return token

    def next(self) -> tuple[str, str, int]:
        token = self.peek()
        if token[0] != "end":
            self.index += 1
        return token

    def parse(self) -> LaurentPoly2:
        result = self._expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected {value!r}", pos)
        return result

    def _expr(self) -> LaurentPoly2:
        kind, _, _ = self.peek()
        if kind in ("+", "-"):
            self.next()
        total = self._term() * (-1 if kind == "-" else 1)
        while True:
            kind, _, _ = self.peek()
            if kind == "+":
                self.next()
                total = total + self._term()
            elif kind == "-":
                self.next()
                total = total - self._term()
            else:
                return total

    def _term(self) -> LaurentPoly2:
        product = self._factor()
        while True:
            kind, _, _ = self.peek()
            if kind == "*":
                self.next()
            elif kind not in ("int", "name", "("):
                return product
            # A factor follows "*" or is juxtaposed, e.g. "3 m^2 b".
            factor = self._factor()
            if (
                min(product.num_terms(), factor.num_terms()) > 1
                and _terms_bound((product, 1), (factor, 1)) > MAX_POWER_TERMS
            ):
                raise ExponentOverflowError(f"product expands past {MAX_POWER_TERMS} terms")
            product = product * factor

    def _factor(self) -> LaurentPoly2:
        base = self._atom()
        kind, _, _ = self.peek()
        if kind != "^":
            return base
        self.next()
        kind, value, pos = self.next()
        negative = kind == "-"
        if negative:
            kind, value, pos = self.next()
        if kind != "int":
            raise PolyParseError("exponent must be an integer", pos)
        exp = int(value)
        if exp > MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent {value} out of range")
        if negative:
            exp = -exp
        elif base.num_terms() > 1 and _terms_bound((base, exp)) > MAX_POWER_TERMS:
            raise ExponentOverflowError(
                f"power {value} expands past {MAX_POWER_TERMS} terms"
            )
        try:
            return base**exp
        except LaurentError as err:
            raise PolyParseError(str(err), pos) from err

    def _atom(self) -> LaurentPoly2:
        kind, value, pos = self.next()
        if kind == "int":
            if self.peek()[0] != "/":
                return LaurentPoly2.constant(int(value), self.var_names)
            self.next()
            dk, dval, dpos = self.next()
            if dk != "int" or int(dval) == 0:
                raise PolyParseError("denominator must be a positive integer", dpos)
            return LaurentPoly2.constant(Fraction(int(value), int(dval)), self.var_names)
        if kind == "name":
            if value not in self.var_names:
                raise PolyParseError(f"unknown variable {value!r}", pos)
            return LaurentPoly2.variable(self.var_names.index(value), self.var_names)
        if kind == "(":
            inner = self._expr()
            ck, _, cpos = self.next()
            if ck != ")":
                raise PolyParseError("expected ')'", cpos)
            return inner
        if kind == "end":
            raise PolyParseError("unexpected end of input", pos)
        raise PolyParseError("expected a coefficient, variable or parenthesized group", pos)


def _terms_bound(*powers: tuple[LaurentPoly2, int]) -> int:
    """Upper bound on the terms of the product of base**exp over the
    (base, exp) pairs: the lattice points of the box whose widths are the
    summed exponent ranges, and the product of the multiset counts of exp
    base terms (for exp = 1, of the term counts)."""
    width = [0, 0]
    count = 1
    for base, exp in powers:
        for axis in (0, 1):
            lo, hi = base.exponent_range(axis)
            width[axis] += exp * (hi - lo)
        count *= comb(exp + base.num_terms() - 1, exp)
    return min((width[0] + 1) * (width[1] + 1), count)


def parse_poly(text: str, var_names: tuple[str, str] = ("m", "b")) -> LaurentPoly2:
    """Parse polynomial text in the module grammar (see module docstring)."""
    return _Parser(text, tuple(var_names)).parse()
