"""Closed-form generators for the explicit families, used as independent
fixtures against the moment-driven engine.

Every family is generated symbolically from its parameter (no lookup
tables), so the fixtures scale to any odd prime for property sweeps.
Where a printed closed form is internally inconsistent, the recurrence is
authoritative: the interior formula for the equal-mass anti-cyclotomic
family is used only up to degree p-1; the top rungs follow from the
coefficient sequence by forward recurrence and are verified against the
engine in the test suite.

Each family is labelled "kind:parameter", for instance "ramanujan-prime:7"
or "single-moment:0".  The four prime families raise NonPrimeError unless
the parameter is an odd prime, and the single-moment family raises
InvalidModulusError for a negative size.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInconsistencyError, InvalidModulusError, NonPrimeError
from .number_theory import is_odd_prime
from .opuc_core import (
    MomentSequence,
    PopucSystem,
    VerblunskySequence,
    _check_closed_minors,
    moments_from_ladder,
    szego_step,
)
from .polynomials import Poly


def _odd_prime_label(kind: str, p: int) -> str:
    """The label "kind:p" of a family indexed by an odd prime p."""
    if not is_odd_prime(p):
        raise NonPrimeError(f"{kind} needs an odd prime, got {p}")
    return f"{kind}:{p}"


def _equal_mass_system(family: str, p: int, sigma, phis, a) -> PopucSystem:
    """The equal-mass system on the p-th or 2p-th roots of unity, sigma_n =
    sigma[n] / (p - 1), its closed-form minors (p - 1)^n Delta_n =
    p^{n-1} (p - n) proven up to Delta_p = Delta_{N+2} = 0."""
    moments = MomentSequence.from_ints(sigma, p - 1, family)
    system = PopucSystem(family, moments, tuple(phis), VerblunskySequence(tuple(a)))
    pivots = [p ** (n - 1) * (p - n) for n in range(1, p + 1)]
    _check_closed_minors(system, pivots, p - 1, "closed form")
    return system


def cf_ramanujan_prime(p: int) -> PopucSystem:
    """Equal-mass family on the primitive p-th roots of unity, p an odd
    prime, entirely from closed formulas (no moment computation):

        Phi_n = z^n + (z^{n-1} + ... + 1) / (N - n + 2),   N = p - 2,
        a_n   = -1 / (N - n + 1),
        Delta_n = p^{n-1} (p - n) / (p - 1)^n,
        sigma_n = -1 / (p - 1)  for 1 <= n <= p - 1.

    The closed-form determinants, zero first at n = p = N + 2, are matched
    against the system's own Delta_n, the products of the norms h_n.
    """
    family = _odd_prime_label("ramanujan-prime", p)
    n_max = p - 2
    phis = [Poly.from_ints([1] * n + [n_max - n + 2], n_max - n + 2) for n in range(n_max + 2)]
    a = [Fraction(-1, n_max - n + 1) for n in range(n_max + 1)]
    return _equal_mass_system(family, p, (p - 1,) + (-1,) * (p - 1), phis, a)


def cf_ramanujan_2p(p: int) -> PopucSystem:
    """Equal-mass family on the primitive 2p-th roots of unity: the
    moments alternate in sign, sigma_n = (-1)^{n+1} / (p - 1), and

        a_n = (-1)^n / (N - n + 1),   N = p - 2.

    The ladder is generated by forward recurrence from Phi_0 = 1; the
    test suite pins its terminal rung to the 2p-th cyclotomic polynomial.
    Its moment matrix is S T_p S, T_p that of the p-th roots and
    S = diag((-1)^i), so its closed-form Delta_n are theirs.
    """
    family = _odd_prime_label("ramanujan-2p", p)
    n_max = p - 2
    a = [Fraction((-1) ** n, n_max - n + 1) for n in range(n_max + 1)]
    phis = [Poly.one()]
    for a_n in a:
        phis.append(szego_step(phis[-1], a_n))
    return _equal_mass_system(family, p, [p - 1] + [1, -1] * (p // 2), phis, a)


def cf_single_moment(n_max: int) -> PopucSystem:
    """The Sturmian ladder dual to the odd-prime equal-mass family,
    written monically:

        Phi_n = z^n + sum_{k<n} ((k+1)/(n+1)) z^k,
        a_n = -1/(n+2) for n < N,  a_N = -1.

    The terminal rung is z*Phi_N + Phi_N^* = z^{N+1} + ... + z + 1.
    Moments are recovered from the ladder itself.
    """
    if n_max < 0:
        raise InvalidModulusError(f"single-moment size must be >= 0, got {n_max}")
    family = f"single-moment:{n_max}"
    phis = [Poly.from_ints(range(1, n + 2), n + 1) for n in range(n_max + 1)]
    a = [Fraction(-1, n + 2) for n in range(n_max)] + [Fraction(-1)]
    phis.append(szego_step(phis[-1], a[-1]))
    moments = moments_from_ladder(phis, provenance=family)
    return PopucSystem(family, moments, tuple(phis), VerblunskySequence(tuple(a)))


def cf_sturmian_anti2p(p: int) -> PopucSystem:
    """Sturmian family under the anti-cyclotomic polynomial of order 2p,
    A = z^{p+1} + z^p - z - 1 (p an odd prime), with N = p:

        Phi_N = A' / (p + 1),
        Phi_1 = z + 1 - 1/p,
        Phi_n = z^n + ((2p-n)/(2p-n+1)) z^{n-1} + (-1)^n/(2p-n+1),  2 <= n <= p,
        a_0 = (1-p)/p,  a_n = (-1)^n/(2p-n) for 1 <= n <= p-1,  a_p = 1.

    Note the irregular a_0, which breaks the pattern of the later terms.
    """
    family = _odd_prime_label("sturmian-anti-2p", p)
    terminal = Poly([-1, -1] + [0] * (p - 2) + [1, 1])
    phis = [Poly.one(), Poly([1 - Fraction(1, p), 1])]
    for n in range(2, p + 1):
        top = [2 * p - n, 2 * p - n + 1]
        phis.append(Poly.from_ints([(-1) ** n, *[0] * (n - 2), *top], top[1]))
    phis.append(terminal)
    if phis[p] * Fraction(p + 1) != terminal.derivative():
        raise InternalInconsistencyError("next-to-last rung is not the normalized derivative")
    a = (
        [Fraction(1 - p, p)]
        + [Fraction((-1) ** n, 2 * p - n) for n in range(1, p)]
        + [Fraction(1)]
    )
    moments = moments_from_ladder(phis, provenance=family)
    return PopucSystem(family, moments, tuple(phis), VerblunskySequence(tuple(a)))


def cf_ramanujan_anti2p(p: int) -> PopucSystem:
    """Equal-mass family on the roots of the order-2p anti-cyclotomic
    polynomial (the 2p-th roots of unity that are not primitive), N = p.

    Coefficients mirror the Sturmian ones: a_n = (-1)^{n+1}/(p+n+1) for
    n <= p-2, a_{p-1} = (p-1)/p, a_p = 1.  The interior rungs have the
    closed form

        Phi_n = z^n + (z^n - (-1)^n) / ((n + p)(z + 1)),   n <= p - 1,

    an exact polynomial division; the two top rungs follow by forward
    recurrence (the printed closed form does not extend to n = p: it
    breaks orthogonality there, see the test suite).
    """
    family = _odd_prime_label("ramanujan-anti-2p", p)
    z_plus_1 = Poly([1, 1])
    phis = []
    for n in range(p):
        # (z^n - (-1)^n) / (z + 1) = z^{n-1} - z^{n-2} + ... -/+ 1
        folded = (Poly.monomial(n) - Poly([(-1) ** n])).divexact(z_plus_1)
        phis.append(Poly.monomial(n) + folded * Fraction(1, n + p))
    a = (
        [Fraction((-1) ** (n + 1), p + n + 1) for n in range(p - 1)]
        + [Fraction(p - 1, p), Fraction(1)]
    )
    phis.append(szego_step(phis[-1], a[p - 1]))
    phis.append(szego_step(phis[-1], a[p]))
    expected_terminal = Poly([-1, -1] + [0] * (p - 2) + [1, 1])
    if phis[-1] != expected_terminal:
        raise InternalInconsistencyError("ladder does not close on the anti-cyclotomic polynomial")
    sigma = [p + 1] + [p - 1 if n == p else (-1) ** n for n in range(1, p + 2)]
    moments = MomentSequence.from_ints(sigma, p + 1, family)
    return PopucSystem(family, moments, tuple(phis), VerblunskySequence(tuple(a)))
