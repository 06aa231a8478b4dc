"""Closed-form families against the engine, and against each other."""

import re
from fractions import Fraction as F

import pytest

from ramanujan_popuc import closed_forms
from ramanujan_popuc.closed_forms import (
    cf_ramanujan_2p,
    cf_ramanujan_anti2p,
    cf_ramanujan_prime,
    cf_single_moment,
    cf_sturmian_anti2p,
)
from ramanujan_popuc.duality import mirror_dual, sturmian_from_charpoly
from ramanujan_popuc.errors import InternalInconsistencyError, InvalidModulusError, NonPrimeError
from ramanujan_popuc.opuc_core import (
    gram_matrix,
    moments_from_cyclotomic,
    moments_from_kronecker,
    popuc_from_moments,
    szego_step,
    toeplitz_det,
)
from ramanujan_popuc.polynomials import KroneckerSpec, Poly, anti_cyclotomic, cyclotomic

PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def P(*ascending):
    return Poly(ascending)


def assert_systems_equal(left, right):
    assert left.phis == right.phis
    assert left.verblunsky == right.verblunsky
    assert left.h == right.h
    assert left.delta == right.delta
    assert left.moments.sigma == right.moments.sigma


# -- family id ----------------------------------------------------------------


def test_family_id_validation():
    assert cf_ramanujan_prime(7).family == "ramanujan-prime:7"
    for cf in (cf_ramanujan_prime, cf_ramanujan_2p, cf_sturmian_anti2p, cf_ramanujan_anti2p):
        for bad in (1, 2, 4, 8, 9, 15):
            with pytest.raises(NonPrimeError, match=f"needs an odd prime, got {bad}$"):
                cf(bad)
    with pytest.raises(InvalidModulusError, match="single-moment size must be >= 0, got -1"):
        cf_single_moment(-1)
    assert cf_single_moment(0).family == "single-moment:0"


# -- odd prime family ----------------------------------------------------------


def test_prime_family_examples():
    sys5 = cf_ramanujan_prime(5)
    assert sys5.phis[2] == P(F(1, 3), F(1, 3), 1)
    assert sys5.delta[1] == F(15, 16)
    assert cf_ramanujan_prime(3).verblunsky.a == (F(-1, 2), F(-1))


def test_prime_family_matches_engine():
    for p in PRIMES_TO_31:
        engine = popuc_from_moments(
            moments_from_cyclotomic(p), p - 1, family=cf_ramanujan_prime(p).family
        )
        assert_systems_equal(cf_ramanujan_prime(p), engine)


def test_prime_family_determinant_closed_form():
    for p in (3, 5, 7, 11):
        m = moments_from_cyclotomic(p)
        for n in range(1, p):
            assert toeplitz_det(m, n) == F(p ** (n - 1) * (p - n), (p - 1) ** n)


# -- 2p family -------------------------------------------------------------------


def test_2p_family_examples():
    assert cf_ramanujan_2p(5).verblunsky.a == (F(1, 4), F(-1, 3), F(1, 2), F(-1))
    assert cf_ramanujan_2p(3).verblunsky.a == (F(1, 2), F(-1))
    assert cf_ramanujan_2p(5).terminal == cyclotomic(10) == P(1, -1, 1, -1, 1)


def test_2p_family_matches_engine():
    for p in PRIMES_TO_31:
        engine = popuc_from_moments(
            moments_from_cyclotomic(2 * p), p - 1, family=cf_ramanujan_2p(p).family
        )
        assert_systems_equal(cf_ramanujan_2p(p), engine)
        assert engine.terminal == cyclotomic(2 * p)


@pytest.mark.parametrize("build", [cf_ramanujan_prime, cf_ramanujan_2p])
def test_closed_form_minors_close_at_delta_p(monkeypatch, build):
    """Both equal-mass fixtures hand the paper's (p - 1)^n Delta_n =
    p^{n-1} (p - n), n = 1..p, to the one closing check.  The Bareiss
    oracle finds the same minors on the fixture's own moments, Delta_p = 0
    included, and a Delta_p one unit off is rejected."""
    check = closed_forms._check_closed_minors
    seen = []
    monkeypatch.setattr(closed_forms, "_check_closed_minors", lambda *args: seen.append(args))
    primes = (3, 5, 7, 11, 13)
    for p in primes:
        build(p)
    assert [(len(pivots), scale) for _, pivots, scale, _ in seen] == [(p, p - 1) for p in primes]
    for p, (system, pivots, scale, route) in zip(primes, seen):
        check(system, pivots, scale, route)
        oracle = [toeplitz_det(system.moments, n) for n in range(1, p + 1)]
        assert [F(x, scale**n) for n, x in enumerate(pivots, 1)] == oracle
        assert oracle[-1] == 0
        message = (
            f"Delta_{p} = {F(1, (p - 1) ** p)} by closed form, but |a_{p - 2}| = 1 "
            f"makes it 0 ({system.family})"
        )
        with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
            check(system, [*pivots[:-1], 1], scale, route)


def reflect(phi, n):
    """(-1)^n phi(-z) for a rung phi of degree n."""
    return Poly.from_ints([(-1) ** (n - k) * c for k, c in enumerate(phi.ints)], phi.den)


def test_2p_family_is_the_reflection_of_the_prime_family():
    odd_primes = [p for p in range(3, 100, 2) if all(p % d for d in range(3, p, 2))]
    assert len(odd_primes) == 24
    for p in odd_primes:
        prime, twice = cf_ramanujan_prime(p), cf_ramanujan_2p(p)
        assert twice.phis == tuple(reflect(phi, n) for n, phi in enumerate(prime.phis))
        a, sigma = prime.verblunsky.a, prime.moments.sigma
        assert twice.verblunsky.a == tuple((-1) ** (n + 1) * x for n, x in enumerate(a))
        assert twice.moments.sigma == tuple((-1) ** k * x for k, x in enumerate(sigma))


def test_fixtures_state_their_rungs_by_formula(monkeypatch):
    """The 2p and single-moment ladders take no recurrence step and the
    anti-2p interior rungs no division; only the two top anti-2p rungs are
    steps of the recurrence."""
    expected = {
        "2p": [cf_ramanujan_2p(p) for p in PRIMES_TO_31],
        "single": [cf_single_moment(n) for n in range(8)],
        "anti2p": [cf_ramanujan_anti2p(p) for p in PRIMES_TO_31],
    }
    steps = []
    step = closed_forms.szego_step

    def counting(phi, a):
        steps.append(phi.degree)
        return step(phi, a)

    def forbidden(*args):
        raise AssertionError("a closed form divided a polynomial")

    monkeypatch.setattr(closed_forms, "szego_step", counting)
    monkeypatch.setattr(Poly, "divexact", forbidden)
    assert [cf_ramanujan_2p(p) for p in PRIMES_TO_31] == expected["2p"]
    assert [cf_single_moment(n) for n in range(8)] == expected["single"]
    assert steps == []
    for p, system in zip(PRIMES_TO_31, expected["anti2p"]):
        assert cf_ramanujan_anti2p(p) == system
        assert steps[-2:] == [p - 1, p]
    assert len(steps) == 2 * len(PRIMES_TO_31)


# -- single-moment family ---------------------------------------------------------


def test_single_moment_examples():
    sys2 = cf_single_moment(2)
    assert sys2.phis[2] == P(F(1, 3), F(2, 3), 1)
    assert cf_single_moment(0).phis[0] == Poly.one()
    assert cf_single_moment(3).verblunsky.a == (F(-1, 2), F(-1, 3), F(-1, 4), F(-1))


def test_single_moment_terminal_is_full_sum():
    for n in range(0, 8):
        system = cf_single_moment(n)
        assert system.terminal == Poly([1] * (n + 2))


def test_single_moment_is_sturmian_side_of_primes():
    for p in (3, 5, 7, 13):
        assert_systems_equal(
            cf_single_moment(p - 2), sturmian_from_charpoly(cyclotomic(p))
        )


def test_prime_duality_closure():
    for p in PRIMES_TO_31:
        assert (
            mirror_dual(cf_ramanujan_prime(p).verblunsky)
            == cf_single_moment(p - 2).verblunsky
        )


# -- anti-cyclotomic families -------------------------------------------------------


def test_sturmian_anti2p_examples():
    sys3 = cf_sturmian_anti2p(3)
    assert sys3.phis[2] == P(F(1, 5), F(4, 5), 1)
    assert sys3.verblunsky.a == (F(-2, 3), F(-1, 5), F(1, 4), F(1))
    assert sys3.phis[3] == P(F(-1, 4), 0, F(3, 4), 1)  # A'_6 / 4
    assert sys3.terminal == anti_cyclotomic(6)


def test_sturmian_anti2p_sturm_condition():
    for p in (3, 5, 7, 11, 13):
        system = cf_sturmian_anti2p(p)
        assert system.phis[p] * F(p + 1) == system.terminal.derivative()
        assert system.terminal == anti_cyclotomic(2 * p)


def test_sturmian_anti2p_matches_descent():
    for p in PRIMES_TO_31:
        assert_systems_equal(
            cf_sturmian_anti2p(p), sturmian_from_charpoly(anti_cyclotomic(2 * p))
        )


def test_ramanujan_anti2p_examples():
    sys3 = cf_ramanujan_anti2p(3)
    assert sys3.phis[1] == P(F(1, 4), 1)
    assert sys3.phis[2] == P(F(-1, 5), F(1, 5), 1)
    assert sys3.verblunsky.a == (F(-1, 4), F(1, 5), F(2, 3), F(1))
    # the irregular head of the Sturmian side: a_0 = (1 - p)/p
    for p in (3, 5, 7, 11, 13):
        assert cf_sturmian_anti2p(p).verblunsky[0] == F(1 - p, p)
        assert cf_ramanujan_anti2p(p).verblunsky[p - 1] == F(p - 1, p)


def test_ramanujan_anti2p_matches_engine():
    for p in PRIMES_TO_31:
        spec = KroneckerSpec([1, 2, p])
        engine = popuc_from_moments(
            moments_from_kronecker(spec), p + 1, family=cf_ramanujan_anti2p(p).family
        )
        assert_systems_equal(cf_ramanujan_anti2p(p), engine)
        assert engine.terminal == anti_cyclotomic(2 * p)


def test_ramanujan_anti2p_closed_rungs_stop_at_p_minus_1():
    # The interior closed form extends no further: its would-be rung at
    # degree p is NOT orthogonal to lower powers, while the recurrence
    # rung is.  Pin that down so nobody "fixes" the generator back.
    p = 3
    z_plus_1 = P(1, 1)
    printed = Poly.monomial(p) + (
        (Poly.monomial(p) - Poly([(-1) ** p])).divexact(z_plus_1) * F(1, p + p)
    )
    system = cf_ramanujan_anti2p(p)
    assert system.phis[p] != printed
    m = system.moments
    bad = sum(printed[k] * m.at(k) for k in range(p + 1))
    good = sum(system.phis[p][k] * m.at(k) for k in range(p + 1))
    assert bad != 0 and good == 0


# -- cross-family structure ----------------------------------------------------


def test_every_closed_ladder_satisfies_its_own_recurrence():
    systems = [
        cf_ramanujan_prime(7),
        cf_ramanujan_2p(7),
        cf_single_moment(5),
        cf_sturmian_anti2p(5),
        cf_ramanujan_anti2p(5),
    ]
    for system in systems:
        for n, a_n in enumerate(system.verblunsky):
            assert szego_step(system.phis[n], a_n) == system.phis[n + 1]
            assert a_n == -system.phis[n + 1][0]


def test_closed_families_are_orthogonal():
    for system in (cf_ramanujan_prime(7), cf_ramanujan_2p(7), cf_sturmian_anti2p(5)):
        rungs = list(system.phis[:-1])
        g = gram_matrix(system.moments, rungs)
        for i in range(len(rungs)):
            for j in range(len(rungs)):
                assert g[i][j] == (system.h[i] if i == j else 0)


# -- the closed forms' own cross-checks, under injected faults -----------------


def test_anti2p_ladder_that_misses_the_terminal_polynomial_is_rejected(monkeypatch):
    step = closed_forms.szego_step
    monkeypatch.setattr(closed_forms, "szego_step", lambda phi, a: step(phi, -a))
    message = "ladder does not close on the anti-cyclotomic polynomial"
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        cf_ramanujan_anti2p(5)


def test_sturmian_anti2p_rejects_a_next_to_last_rung_off_the_derivative(monkeypatch):
    derivative = Poly.derivative
    monkeypatch.setattr(Poly, "derivative", lambda self: derivative(self) + Poly.one())
    message = "next-to-last rung is not the normalized derivative"
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        cf_sturmian_anti2p(5)
