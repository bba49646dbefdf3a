"""Dense univariate polynomials over the rationals.

Support code for edge polynomials, specializations and the root-of-unity
and irreducibility certificates.  Coefficients are ``Fraction``s stored
low degree first with trailing zeros trimmed; one coefficient-list core
serves Q and GF(q).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd as int_gcd, isqrt, lcm
from typing import Collection, Iterable, Union

CoeffLike = Union[int, str, Fraction]

# Largest trial divisor rational_roots may try: a constant or leading
# coefficient past its square is refused instead of being scanned for
# minutes (x^2 + 10^24 + 7 would need 10^12 trial divisions).
MAX_TRIAL_DIVISOR = 10**6


class DivisorBudgetError(ValueError):
    """An integer too large to enumerate its divisors by trial division."""


def as_fraction(value: CoeffLike) -> Fraction:
    """Coerce an exact coefficient; floats are refused, not rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational coefficient")


def integer_content(coeffs: Collection[Fraction]) -> Fraction:
    """The positive rational c for which the coefficients over c are coprime integers."""
    den = lcm(*(c.denominator for c in coeffs))
    num = int_gcd(*(c.numerator * (den // c.denominator) for c in coeffs))
    return Fraction(num, den)


def square_and_multiply(base, n: int, one, mul):
    """base**n for n >= 0 by repeated squaring; ``mul`` multiplies two values
    and ``one`` is its identity."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def signed_terms_text(terms: Iterable[tuple[Fraction, tuple[tuple[str, int], ...]]]) -> str:
    """Print (coefficient, powers) pairs as a signed sum such as
    "1/2 - 3*m + m^2*b"; powers are (name, exponent) pairs, and unit
    coefficients and exponents are implicit."""
    parts = []
    for c, powers in terms:
        mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in powers if k != 0)
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


# -- coefficient-list core -----------------------------------------------------
# Lists hold coefficients low degree first: Fractions over Q (q = 0), or
# ints over GF(q) for a prime q.  The modulus is read outside the inner
# loops only, so entries leave [0, q) in between; _divmod reduces and trims.


def _trim(cs: list, q: int = 0) -> list:
    """Reduce mod q when q > 0, then drop trailing zeros."""
    if q:
        cs = [c % q for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _mul(a, b) -> list:
    """Product of two coefficient lists; not reduced."""
    if not a or not b:
        return []
    out = [a[-1] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divmod(a, b, q: int = 0) -> tuple[list, list]:
    """Quotient and remainder of a by a nonzero trimmed b."""
    d, lead = len(b) - 1, b[-1]
    inv = pow(lead, -1, q) if q else None  # over Q the loop divides by lead
    rem, quot = list(a), []
    for k in range(len(rem) - 1, d - 1, -1):
        # A zero leading entry costs no arithmetic: its quotient coefficient is 0.
        f = rem[k] and (rem[k] * inv % q if q else rem[k] / lead)
        quot.append(f)
        if f:
            for i, c in enumerate(b, k - d):
                rem[i] -= f * c
    return _trim(quot[::-1]), _trim(rem, q)


def _gcd(a, b, q: int = 0) -> list:
    """A gcd of two trimmed coefficient lists, up to a unit factor."""
    while b:
        a, b = b, _divmod(a, b, q)[1]
    return a


class UniPoly:
    """Polynomial in one variable with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        cs = [c if isinstance(c, Fraction) else as_fraction(c) for c in coeffs]
        self.coeffs = tuple(_trim(cs))

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def constant(cls, c: CoeffLike) -> "UniPoly":
        return cls((c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __mul__(self, other: "UniPoly | int | Fraction") -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        return UniPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return square_and_multiply(self, n, UniPoly((1,)), operator.mul)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _divmod(self.coeffs, other.coeffs)
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def divides(self, other: "UniPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        lead = self.leading()
        return UniPoly([c / lead for c in self.coeffs])

    def derivative(self) -> "UniPoly":
        return UniPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        total = Fraction(0) if isinstance(x, (int, Fraction)) else 0.0
        for c in reversed(self.coeffs):
            total = total * x + (c if isinstance(x, (int, Fraction)) else complex(c))
        return total

    def shift_down(self) -> tuple["UniPoly", int]:
        """Divide out the largest power of x; return (quotient, power)."""
        if self.is_zero():
            return self, 0
        k = 0
        while self.coeffs[k] == 0:
            k += 1
        return UniPoly(self.coeffs[k:]), k

    def integer_primitive(self) -> tuple["UniPoly", Fraction]:
        """Write self = content * primitive with integer coprime coefficients."""
        if self.is_zero():
            return self, Fraction(0)
        content = integer_content(self.coeffs)
        if self.coeffs[-1] < 0:
            content = -content
        return UniPoly([c / content for c in self.coeffs]), content

    def __str__(self) -> str:
        return signed_terms_text((c, (("x", k),)) for k, c in enumerate(self.coeffs) if c != 0)

    def __repr__(self) -> str:
        return f"UniPoly('{self}')"


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm."""
    return UniPoly(_gcd(a.coeffs, b.coeffs)).monic()


def x_pow_minus_one(n: int) -> UniPoly:
    # Fractions, not ints: unity_order builds one per order, so the n + 1
    # coefficients would each pass through as_fraction.
    return UniPoly([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)])


def exact_sqrt(p: UniPoly) -> UniPoly | None:
    """Return q with q*q == p, or None if p is not a square.

    Works by extracting coefficients of q from the top down; the leading
    coefficient of p must be a square of a rational.
    """
    if p.is_zero():
        return UniPoly(())
    if p.degree() % 2 != 0:
        return None
    lead = p.leading()
    if lead < 0:
        return None
    num_r = _isqrt_exact(lead.numerator)
    den_r = _isqrt_exact(lead.denominator)
    if num_r is None or den_r is None:
        return None
    h = p.degree() // 2
    q = [Fraction(0)] * (h + 1)
    q[h] = Fraction(num_r, den_r)
    # p[h+k] = sum_{i+j = h+k} q[i] q[j]; peel q[k] for k = h-1 .. 0.
    for k in range(h - 1, -1, -1):
        s = Fraction(0)
        for i in range(k + 1, h + 1):
            j = h + k - i
            if 0 <= j <= h:
                s += q[i] * q[j]
        q[k] = (p[h + k] - s) / (2 * q[h])
    cand = UniPoly(q)
    return cand if cand * cand == p else None


def _isqrt_exact(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All nonzero rational roots (without multiplicity).

    Roots at x = 0 are dropped: callers work modulo monomial units, where
    a power of x is invertible.  Uses the rational root test on the
    integer-primitive part; raises DivisorBudgetError when the square root
    of its constant or leading coefficient exceeds MAX_TRIAL_DIVISOR.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    q, _ = p.shift_down()
    prim, _ = q.integer_primitive()
    a0 = int(prim.coeffs[0])
    an = int(prim.leading())
    if a0 == 0:
        return []
    numerators, denominators = _divisors(abs(a0)), _divisors(abs(an))
    roots: set[Fraction] = set()
    for r in numerators:
        for s in denominators:
            # r/s with a common factor g is (r/g)/(s/g), a pair tried as well.
            if int_gcd(r, s) > 1:
                continue
            for cand in (Fraction(r, s), Fraction(-r, s)):
                if prim.evaluate(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    if isqrt(n) > MAX_TRIAL_DIVISOR:
        raise DivisorBudgetError(
            f"{n} needs more than {MAX_TRIAL_DIVISOR} trial divisions to factor"
        )
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


# -- modular irreducibility certificate ---------------------------------------


def _mod_p(p: UniPoly, q: int) -> list[int] | None:
    """Reduce an integer-primitive polynomial mod q; None if a denominator
    or the leading coefficient vanishes."""
    if any(c.denominator % q == 0 for c in p.coeffs):
        return None
    out = _trim([c.numerator * pow(c.denominator, -1, q) for c in p.coeffs], q)
    return out if len(out) == len(p.coeffs) else None  # None: degree dropped mod q


def _frobenius_minus_x(e: int, mod: list[int], q: int) -> list[int]:
    """x^(q^e) - x modulo (mod, q), for mod of degree >= 2."""
    power = square_and_multiply([0, 1], q**e, [1], lambda a, b: _divmod(_mul(a, b), mod, q)[1])
    diff = power + [0, 0]
    diff[1] -= 1
    return _trim(diff, q)


def is_irreducible_mod_p(p: UniPoly, q: int) -> bool | None:
    """Rabin's test for irreducibility over GF(q).

    Returns None when the reduction is degenerate (denominator divisible
    by q or leading coefficient vanishing), True/False otherwise.
    """
    coeffs = _mod_p(p, q)
    if coeffs is None:
        return None
    n = len(coeffs) - 1
    if n <= 0:
        return None
    if n == 1:
        return True
    # x^(q^n) == x mod (p, q), and gcd(x^(q^(n/r)) - x, p) == 1 for prime r | n.
    if _frobenius_minus_x(n, coeffs, q):
        return False
    for r in _prime_factors(n):
        diff = _frobenius_minus_x(n // r, coeffs, q)
        if not diff or len(_gcd(coeffs, diff, q)) != 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


_CERT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)


def irreducible_over_q(p: UniPoly) -> bool | None:
    """One-sided irreducibility certificate over the rationals.

    True means certified irreducible (irreducible mod some good prime at
    full degree).  None means no certificate was found; it does not mean
    reducible.  Degree <= 1 after clearing x powers is always True.
    """
    core, _ = p.shift_down()
    prim, _ = core.integer_primitive()
    if prim.degree() <= 0:
        return None
    if prim.degree() == 1:
        return True
    for q in _CERT_PRIMES:
        res = is_irreducible_mod_p(prim, q)
        if res is True:
            return True
    return None
