"""Number-theory kernels: frozen examples, brute-force oracles, and the
two-route agreement that makes the Ramanujan-sum implementations each
other's oracle."""

from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_popuc import number_theory
from ramanujan_popuc.errors import InternalInconsistencyError, InvalidModulusError
from ramanujan_popuc.number_theory import (
    _checked_sum,
    euler_totient,
    is_odd_prime,
    mobius,
    ramanujan_sum_direct,
    ramanujan_sum_fast,
    ramanujan_table,
)
from ramanujan_popuc.opuc_core import moments_from_cyclotomic


def phi_brute(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def c_exact_roots(m: int, n: int) -> int:
    """Oracle: literal sum over primitive roots, evaluated exactly in the
    cyclotomic field.  With zeta = exp(2*pi*i/m), each term is
    zeta^(s*n mod m); reducing the exponent polynomial modulo sympy's own
    m-th cyclotomic polynomial leaves the rational value as a constant."""
    x = sympy.Symbol("x")
    total = sum(x ** ((s * n) % m) for s in range(1, m + 1) if gcd(s, m) == 1)
    rem = sympy.rem(sympy.Poly(total, x), sympy.cyclotomic_poly(m, x))
    val = sympy.Poly(rem, x)
    assert val.degree() <= 0
    return int(val.coeff_monomial(1))


# -- totient ---------------------------------------------------------------


def test_totient_examples():
    assert euler_totient(1) == 1  # degree bookkeeping needs phi(1) = 1
    assert euler_totient(10) == 4
    # oracle first: direct enumeration of {1, 5, 7, 11}
    assert phi_brute(12) == 4
    assert euler_totient(12) == 4


def test_totient_against_enumeration():
    for m in range(1, 300):
        assert euler_totient(m) == phi_brute(m)


def test_totient_rejects_zero():
    with pytest.raises(InvalidModulusError):
        euler_totient(0)
    with pytest.raises(InvalidModulusError):
        euler_totient(-3)


# -- Moebius ---------------------------------------------------------------


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1  # two distinct primes
    assert mobius(12) == 0  # 4 | 12
    with pytest.raises(InvalidModulusError):
        mobius(0)


def test_mobius_against_sympy():
    for m in range(1, 300):
        assert mobius(m) == int(sympy.mobius(m))


# -- Ramanujan sums --------------------------------------------------------


def test_direct_examples():
    assert ramanujan_sum_direct(5, 3) == -1
    assert ramanujan_sum_direct(7, 0) == 6
    assert ramanujan_sum_direct(10, 1) == 1  # equals mu(10)


def test_fast_examples():
    assert ramanujan_sum_fast(1, 17) == 1
    assert ramanujan_sum_fast(5, 1) == -1  # mu(5)
    assert ramanujan_sum_fast(10, 2) == ramanujan_sum_direct(10, 2) == -1


def test_against_literal_root_sum():
    # Expensive exact-symbolic oracle, so small moduli only; the two fast
    # routes cover the larger range below.
    for m in range(1, 13):
        for n in range(0, m + 2):
            expected = c_exact_roots(m, n)
            assert ramanujan_sum_direct(m, n) == expected
            assert ramanujan_sum_fast(m, n) == expected


def test_two_routes_agree_up_to_60():
    for m in range(1, 61):
        for n in range(0, 2 * m + 1):
            assert ramanujan_sum_direct(m, n) == ramanujan_sum_fast(m, n)


def test_periodicity_and_endpoints():
    for m in range(1, 201):
        assert ramanujan_sum_fast(m, 0) == euler_totient(m)
        assert ramanujan_sum_fast(m, 1) == mobius(m)
    for m in (1, 2, 6, 10, 12, 30, 45):
        for n in range(-m, 2 * m):
            assert ramanujan_sum_direct(m, n + m) == ramanujan_sum_direct(m, n)
            assert ramanujan_sum_fast(m, -n) == ramanujan_sum_fast(m, n)


def test_multiplicative_in_the_modulus():
    for m1 in range(1, 31):
        for m2 in range(1, 31):
            if gcd(m1, m2) != 1:
                continue
            for n in (0, 1, 2, 7):
                assert ramanujan_sum_direct(m1 * m2, n) == ramanujan_sum_direct(
                    m1, n
                ) * ramanujan_sum_direct(m2, n)


@settings(deadline=None, max_examples=200)
@given(m=st.integers(min_value=1, max_value=150), n=st.integers(min_value=-400, max_value=400))
def test_routes_agree_property(m, n):
    assert ramanujan_sum_direct(m, n) == ramanujan_sum_fast(m, n)


# -- tables ----------------------------------------------------------------


def test_table_examples():
    assert ramanujan_table(5, 4).values == (4, -1, -1, -1, -1)
    assert ramanujan_table(1, 3).values == (1, 1, 1, 1)
    assert ramanujan_table(6, 6).values == (2, 1, -1, -2, -1, 1, 2)


def test_table_invariants():
    for m in (1, 2, 8, 12, 30):
        t = ramanujan_table(m, 3 * m)
        phi = euler_totient(m)
        assert t.values[0] == phi
        assert all(abs(v) <= phi for v in t.values)
        assert all(t.values[n] == t.values[n % m] for n in range(len(t.values)))
        assert all(isinstance(v, int) for v in t.values)


def test_table_is_both_routes_at_every_length():
    for m in (1, 2, 5, 6, 12, 30):
        for length in range(3 * m + 1):
            values = ramanujan_table(m, length).values
            assert values == tuple(_checked_sum(m, n) for n in range(length + 1)), (m, length)


@pytest.mark.parametrize("route", ["ramanujan_sum_direct", "ramanujan_sum_fast"])
def test_table_catches_routes_that_disagree_inside_the_first_period(monkeypatch, route):
    # the table computes c_12(0..11) by both routes once and tiles them, so a
    # disagreement at residue 5 surfaces for every length that reaches n = 5
    honest = getattr(number_theory, route)
    monkeypatch.setattr(number_theory, route, lambda m, n: honest(m, n) + (n % m == 5))
    monkeypatch.setattr(number_theory, "_periods", {})  # forget the periods checked so far
    assert ramanujan_table(12, 4).values == (4, 0, 2, 0, -2)
    for length in (5, 11, 12, 36):
        with pytest.raises(InternalInconsistencyError, match=r"c_12\(5\)"):
            ramanujan_table(12, length)


def test_modulus_rejects_a_bool():
    # True == 1, but a flag is not a modulus: no table or moments labelled True
    for call in (euler_totient, lambda m: ramanujan_table(m, 3),
                 lambda m: moments_from_cyclotomic(m, 2)):
        with pytest.raises(InvalidModulusError, match="got True$"):
            call(True)


def test_table_rejects_bad_input():
    with pytest.raises(InvalidModulusError):
        ramanujan_table(0, 3)
    with pytest.raises(InvalidModulusError):
        ramanujan_table(5, -1)


def test_is_odd_prime():
    assert [p for p in range(1, 32) if is_odd_prime(p)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31,
    ]
    assert not is_odd_prime(2)
