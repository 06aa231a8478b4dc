"""Exact integer number theory: totient, Moebius, and Ramanujan sums.

The Ramanujan sum c_M(n) is the sum of the n-th powers of the primitive
M-th roots of unity.  It is always a rational integer, and this module
computes it by two independent exact routes so that each can serve as an
oracle for the other:

* ``ramanujan_sum_direct`` sieves the coprimality condition by
  inclusion-exclusion over the distinct prime divisors of M.  Each term is
  a full cycle of q-th roots of unity, whose sum is q when q | n and 0
  otherwise, so no irrational number is ever materialized.
* ``ramanujan_sum_fast`` evaluates the classical divisor-sum form
  sum_{d | gcd(n, M)} d * mu(M/d).

A table of c_M(0..L) computes each residue mod M by both routes, once
per process.

No floating point is used anywhere.  M stays desk-scale, so factorization
is plain trial division.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from .errors import InternalInconsistencyError, InvalidModulusError


def _check_modulus(m: int) -> None:
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise InvalidModulusError(f"modulus must be a positive integer, got {m!r}")


@lru_cache(maxsize=None)
def factorize(m: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of m >= 1 as ((p, exponent), ...), p ascending."""
    _check_modulus(m)
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_divisors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of m, ascending."""
    return tuple(p for p, _ in factorize(m))


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    _check_modulus(m)
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, isqrt(p) + 1, 2))


def euler_totient(m: int) -> int:
    """Euler's totient: the number of integers in [1, m] coprime to m.

    phi(1) = 1, which keeps degree bookkeeping total: the order-1
    cyclotomic polynomial z - 1 has degree 1.
    """
    _check_modulus(m)
    phi = 1
    for p, e in factorize(m):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(m: int) -> int:
    """Moebius function: 0 unless m is squarefree, else (-1)^(#primes)."""
    _check_modulus(m)
    fac = factorize(m)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def ramanujan_sum_direct(m: int, n: int) -> int:
    """c_m(n) by literal grouping of the coprime root-of-unity sum.

    Sum over s in [1, m] with gcd(s, m) = 1 of exp(2*pi*i*s*n/m).  The
    coprimality condition is expanded by inclusion-exclusion over the
    distinct primes of m; the sum over all multiples of d is a complete
    set of (m/d)-th roots of unity raised to the n-th power, contributing
    m/d exactly when (m/d) | n and 0 otherwise.  Intentionally does not
    call mobius(), so it is an oracle independent of ramanujan_sum_fast.
    """
    _check_modulus(m)
    n %= m
    primes = prime_divisors(m)
    total = 0
    for mask in range(1 << len(primes)):
        d = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                d *= p
                bits += 1
        q = m // d
        if n % q == 0:
            total += -q if bits % 2 else q
    return total


def ramanujan_sum_fast(m: int, n: int) -> int:
    """c_m(n) by the divisor sum: sum of d * mu(m/d) over d | gcd(n, m)."""
    _check_modulus(m)
    n %= m
    g = m if n == 0 else gcd(n, m)
    return sum(d * mobius(m // d) for d in divisors(g))


@dataclass(frozen=True)
class RamanujanTable:
    """Values c_M(0), ..., c_M(L) for a fixed modulus M.

    Invariants: values[0] = phi(M), |values[n]| <= phi(M), and the table
    is periodic with period M in n.
    """

    modulus: int
    values: tuple[int, ...]

    def __post_init__(self):
        _check_modulus(self.modulus)

    def to_json_dict(self) -> dict:
        return {"modulus": self.modulus, "values": list(self.values)}


# m -> (c_m(0), c_m(1), ...) checked by both routes; only replaced by a longer prefix
_periods: dict[int, tuple[int, ...]] = {}


def ramanujan_table(m: int, length: int) -> RamanujanTable:
    """Table of c_m(0..length), each residue mod M computed by both routes.

    Both routes reduce n mod m first, so one period n < min(length + 1, m)
    is computed, memoized for the process and then tiled.  Raises
    InternalInconsistencyError if the two methods ever disagree; that
    indicates a bug in this module, not bad input.
    """
    _check_modulus(m)
    if length < 0:
        raise InvalidModulusError(f"table length must be >= 0, got {length}")
    period = _periods.get(m, ())
    if len(period) < min(length + 1, m):
        period += tuple(_checked_sum(m, n) for n in range(len(period), min(length + 1, m)))
        _periods[m] = period
    return RamanujanTable(modulus=m, values=(period * (length // m + 1))[: length + 1])


def _checked_sum(m: int, n: int) -> int:
    """c_m(n) by both routes; InternalInconsistencyError if they disagree."""
    direct = ramanujan_sum_direct(m, n)
    fast = ramanujan_sum_fast(m, n)
    if direct != fast:
        raise InternalInconsistencyError(
            f"c_{m}({n}): direct route gives {direct}, divisor-sum route gives {fast}"
        )
    return direct
