"""Dense univariate polynomials over exact rationals, plus the cyclotomic,
anti-cyclotomic and Kronecker constructors built on them.

Coefficients are fractions.Fraction, stored ascending by degree with no
trailing zeros; the zero polynomial is the empty tuple.  One scalar type
end-to-end avoids any promotion lattice: integer polynomials are simply
polynomials whose fractions happen to have denominator 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import (
    DegreeBoundError,
    DuplicateOrderError,
    InvalidModulusError,
    NonzeroRemainderError,
)
from .number_theory import (
    divisors,
    euler_totient,
    mobius,
    ramanujan_sum_fast,
)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as an exact coefficient")


def horner(coeffs, x):
    """sum_k coeffs[k] * x^k by Horner's rule, coefficients ascending;
    works for Fraction, int, complex and mpmath values (0 * x if empty)."""
    acc = None
    for c in reversed(coeffs):
        acc = c if acc is None else acc * x + c
    return 0 * x if acc is None else acc


class Poly:
    """Immutable dense polynomial with Fraction coefficients.

    ``coeffs[k]`` is the coefficient of z^k.  Arithmetic is exact ring
    arithmetic; division is available only when it is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        """c * z^k."""
        return Poly((0,) * k + (c,))

    # -- basic queries -----------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring arithmetic ---------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            return Poly(tuple(c * a for a in self.coeffs))
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def shift(self, k: int) -> "Poly":
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return Poly((Fraction(0),) * k + self.coeffs)

    def divmod(self, den: "Poly") -> tuple["Poly", "Poly"]:
        """Euclidean quotient and remainder (den nonzero)."""
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd, lead = den.degree, den.coeffs[-1]
        q = [Fraction(0)] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / lead
            q[i - dd] = f
            for j, b in enumerate(den.coeffs):
                rem[i - dd + j] -= f * b
        return Poly(q), Poly(rem)

    def divexact(self, den: "Poly") -> "Poly":
        """Exact quotient; NonzeroRemainderError when den does not divide."""
        q, r = self.divmod(den)
        if not r.is_zero:
            raise NonzeroRemainderError(f"{self} is not divisible by {den}")
        return q

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

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
        padded = self.coeffs + (Fraction(0),) * (n + 1 - len(self.coeffs))
        return Poly(padded[::-1])

    def __call__(self, x):
        """The value at x, by ``horner``."""
        return horner(self.coeffs, x)

    # -- presentation -------------------------------------------------

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json_list(items: Iterable[str]) -> "Poly":
        return Poly(tuple(Fraction(s) for s in items))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                body = zk if mag == 1 else f"{mag}*{zk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"


@dataclass(frozen=True)
class KroneckerSpec:
    """Distinct cyclotomic orders m_1 < ... < m_k defining the product
    polynomial C_{m_1} * ... * C_{m_k}; such products are exactly the
    monic integer polynomials with simple roots, all on the unit circle.
    """

    orders: tuple[int, ...]

    def __init__(self, orders: Iterable[int]):
        orders = tuple(sorted(int(m) for m in orders))
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
    num = Poly.monomial(m) - Poly.one()
    return num.divexact(cyclotomic(m))


def kronecker_poly(spec: KroneckerSpec) -> Poly:
    """Product of the cyclotomic polynomials named by the spec."""
    out = Poly.one()
    for m in spec.orders:
        out = out * cyclotomic(m)
    return out


class VietaCheck(NamedTuple):
    """Comparison of low-order cyclotomic coefficients against Ramanujan
    sums: kappa_1 = -c_M(1) = -mu(M) and, when phi(M) >= 2,
    kappa_2 = (c_M(1)^2 - c_M(2)) / 2."""

    kappa1: Fraction
    kappa1_expected: int
    kappa1_ok: bool
    kappa2: Fraction | None
    kappa2_expected: Fraction | None
    kappa2_ok: bool | None


def vieta_checks(m: int) -> VietaCheck:
    c = cyclotomic(m)
    deg = c.degree
    kappa1 = c[deg - 1]
    k1_exp = -mobius(m)
    if deg >= 2:
        kappa2 = c[deg - 2]
        k2_exp = Fraction(ramanujan_sum_fast(m, 1) ** 2 - ramanujan_sum_fast(m, 2), 2)
        k2_ok = kappa2 == k2_exp
    else:
        kappa2 = k2_exp = k2_ok = None
    return VietaCheck(kappa1, k1_exp, kappa1 == k1_exp, kappa2, k2_exp, k2_ok)
