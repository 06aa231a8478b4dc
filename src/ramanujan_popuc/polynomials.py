"""Dense univariate polynomials over exact rationals, plus the cyclotomic,
anti-cyclotomic and Kronecker constructors built on them.

A Poly is stored as integer numerators, ascending by degree with no
trailing zero, over one positive denominator, and its arithmetic takes
one gcd per operation.  Coefficients read as fractions.Fraction, built
on demand, so one scalar type is public end-to-end: integer polynomials
are simply those with denominator 1.

Every rational of the library becomes text through ``render_rationals``
and is read back by ``parse_rational``, at any length: past Python's
int/str digit limit both go through decimal, with no process-wide switch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable

from .errors import (
    DegreeBoundError,
    DuplicateOrderError,
    InvalidModulusError,
    NonzeroRemainderError,
)
from .number_theory import _check_modulus, divisors, euler_totient


def _as_fraction(x) -> Fraction:
    if type(x) is Fraction:  # no copy; a subclass is converted below
        return x
    if isinstance(x, (Fraction, int, str)):
        return parse_rational(x) if isinstance(x, str) else Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


def horner(coeffs, x):
    """sum_k coeffs[k] * x^k by Horner's rule, coefficients ascending;
    works for Fraction, int, complex and mpmath values (0 * x if empty)."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return 0 * x if acc is None else acc


def _scaled(values) -> tuple[list[int], int]:
    """(ints, D) with values[i] == ints[i] / D exactly, D > 0 the least
    common denominator of the values (1 for no values)."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _lowest_terms(ints, den: int) -> tuple[tuple[int, ...], int]:
    """The stored form of a Poly and a MomentSequence: (ints, den != 0) over
    their gcd, signed so that the denominator is positive."""
    ints = tuple(ints)
    g = gcd(*ints, den) if den > 0 else -gcd(*ints, den)
    return (tuple([c // g for c in ints]) if g != 1 else ints), den // g


def render_rationals(values, den: int | None = None) -> list[str]:
    """str(Fraction) of each value, a whole list per call: integers over
    one positive den (each pair is reduced), or (numerator, denominator)
    pairs in lowest terms when den is None.  values is a sequence: past
    the int-to-str digit limit it is read again and decimal writes it."""
    try:
        return _render(values, den, str)
    except ValueError:  # past the int-to-str digit limit; decimal has none
        return _render(values, den, lambda n: str(Decimal(n)))


def _render(values, den, digits) -> list[str]:
    if den is None:
        return [digits(n) if d == 1 else f"{digits(n)}/{digits(d)}" for n, d in values]
    gcds = [gcd(c, den) for c in values]  # "/" + den // g is written once per g
    tails = {g: "/" + digits(den // g) for g in set(gcds)} | {den: ""}
    return [digits(c // g) + tails[g] for c, g in zip(values, gcds)]


def parse_rational(text: str) -> Fraction:
    """Fraction(text) at any length: past the int-to-str digit limit, a
    plain "[-]digits[/digits]" is read part by part through decimal."""
    try:
        return Fraction(text)
    except ValueError:
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
            raise
        parts = [int(Decimal(part)) for part in text.split("/")]
        if parts[1:] == [0]:  # Fraction's own message would print the numerator
            raise ZeroDivisionError("the denominator is 0")
        return Fraction(*parts)


class Poly:
    """Immutable dense polynomial with exact rational coefficients.

    The coefficient of z^k is ints[k] / den, with den > 0, gcd(ints, den)
    = 1 (``_lowest_terms``) and no trailing zero, so equal
    polynomials have equal stored forms.  Every operation runs on the
    integers and divides out their content once.  ``coeffs`` and ``p[k]``
    are Fractions built on demand.  Division is available only when exact.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable = ()):
        p = Poly.from_ints(*_scaled(map(_as_fraction, coeffs)))
        self.ints, self.den = p.ints, p.den

    @staticmethod
    def from_ints(ints: Iterable[int], den: int = 1) -> "Poly":
        """sum_k ints[k] / den * z^k (integers, den != 0) in the stored form."""
        ints = tuple(ints)  # the one copy: a whole slice and _lowest_terms keep a tuple
        n = len(ints)
        while n and not ints[n - 1]:
            n -= 1
        p = object.__new__(Poly)
        p.ints, p.den = _lowest_terms(ints[:n], den)
        return p

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly.from_ints(())

    @staticmethod
    def one() -> "Poly":
        return Poly.from_ints((1,))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        """c * z^k."""
        return Poly.from_ints((0,) * k + (1,)) * _as_fraction(c)

    # -- basic queries -----------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending by degree."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == self.den

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Fraction(0)

    # p[k] is 0 past the degree, so the sequence protocol would never
    # stop: iteration and `in` raise TypeError; iterate ``coeffs`` instead
    __iter__ = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.ints)

    # -- ring arithmetic ---------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        den = lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.ints]
        b = [c * (den // other.den) for c in other.ints]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly.from_ints(a, den)

    def __neg__(self) -> "Poly":
        return Poly.from_ints([-c for c in self.ints], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            return Poly.from_ints([c.numerator * a for a in self.ints], c.denominator * self.den)
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [0] * (len(self.ints) + len(other.ints) - 1)
        for i, a in enumerate(self.ints):
            if a:
                for j, b in enumerate(other.ints):
                    out[i + j] += a * b
        return Poly.from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def divmod(self, den: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean quotient and remainder (den nonzero) by pseudo-division
        of the numerators A and B: b^s A = Q B + R, b = B's lead, s steps."""
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.ints)
        dd, lead = den.degree, den.ints[-1]
        quo = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if lead != 1:
                rem = [x * lead for x in rem]
                quo = [x * lead for x in quo]
            if c:
                quo[i - dd] += c
                for j, b in enumerate(den.ints):
                    rem[i - dd + j] -= c * b
        scale = lead ** len(quo) * self.den
        return Poly.from_ints([x * den.den for x in quo], scale), Poly.from_ints(rem, scale)

    def divexact(self, den: "Poly") -> "Poly":
        """Exact quotient; NonzeroRemainderError when den does not divide."""
        q, r = self.divmod(den)
        if not r.is_zero:
            raise NonzeroRemainderError(f"{self} is not divisible by {den}")
        return q

    def derivative(self) -> "Poly":
        return Poly.from_ints([k * c for k, c in enumerate(self.ints) if k], self.den)

    def reversed(self, n: int | None = None) -> "Poly":
        """The reversed (star) polynomial z^n * p(1/z) padded to degree n.

        All scalars here are real rationals, so the coefficient
        conjugation in the general definition is the identity and the
        operation is pure coefficient reversal.  n defaults to deg(p).
        """
        if n is None:
            n = max(self.degree, 0)
        if self.degree > n:
            raise DegreeBoundError(f"degree {self.degree} exceeds reversal bound {n}")
        padded = self.ints + (0,) * (n + 1 - len(self.ints))
        return Poly.from_ints(padded[::-1], self.den)

    def __call__(self, x):
        """The value at x, by ``horner``."""
        return horner(self.coeffs, x)

    # -- presentation -------------------------------------------------

    def to_json_list(self) -> list[str]:
        """The text of each coefficient, written from the stored form."""
        return render_rationals(self.ints, self.den)

    def __str__(self) -> str:
        parts = []
        texts = render_rationals([abs(c) for c in self.ints], self.den)
        for k, (c, t) in reversed([*enumerate(zip(self.ints, texts))]):
            if c:
                zk = "" if k == 0 else "z" if k == 1 else f"z^{k}"
                body = t if not zk else zk if t == "1" else f"{t}*{zk}"
                sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
                parts.append(sign + body)
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"Poly({self.to_json_list()})"


@dataclass(frozen=True)
class KroneckerSpec:
    """Distinct cyclotomic orders m_1 < ... < m_k defining the product
    polynomial C_{m_1} * ... * C_{m_k}; such products are exactly the
    monic integer polynomials with simple roots, all on the unit circle.
    """

    orders: tuple[int, ...]

    def __init__(self, orders: Iterable[int]):
        orders = tuple(orders)
        for m in orders:
            if isinstance(m, bool) or not isinstance(m, int):
                raise InvalidModulusError(f"orders must be integers, got {m!r}")
        orders = tuple(sorted(orders))
        if not orders or any(m < 1 for m in orders):
            raise InvalidModulusError(f"orders must be positive integers, got {orders}")
        if len(set(orders)) != len(orders):
            raise DuplicateOrderError(f"orders must be distinct, got {orders}")
        object.__setattr__(self, "orders", orders)

    @property
    def total_degree(self) -> int:
        """Sum of phi(m_i) = number of spectral points."""
        return sum(euler_totient(m) for m in self.orders)

    @property
    def label(self) -> str:
        return ",".join(str(m) for m in self.orders)


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> Poly:
    """The m-th cyclotomic polynomial, monic of degree phi(m).

    Computed by exact division of z^m - 1 by the product of the
    cyclotomic polynomials of all proper divisors.  lru_cache is
    thread-safe, so concurrent callers are fine.
    """
    _check_modulus(m)
    num = Poly.monomial(m) - Poly.one()
    den = Poly.one()
    for d in divisors(m):
        if d < m:
            den = den * cyclotomic(d)
    return num.divexact(den)


def anti_cyclotomic(m: int) -> Poly:
    """(z^m - 1) / C_m(z): the monic polynomial whose roots are the
    non-primitive m-th roots of unity.  Degree m - phi(m); equals the
    constant 1 when m = 1."""
    _check_modulus(m)
    num = Poly.monomial(m) - Poly.one()
    return num.divexact(cyclotomic(m))


def kronecker_poly(spec: KroneckerSpec) -> Poly:
    """Product of the cyclotomic polynomials named by the spec."""
    out = Poly.one()
    for m in spec.orders:
        out = out * cyclotomic(m)
    return out

