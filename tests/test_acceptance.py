"""Acceptance suite: every exit criterion, at its stated tolerance, with
one printed PASS/FAIL line per criterion (run with -s to see them).

The master spectral set used by the duality, double-oracle, orthogonality
and weight criteria is: every subset of {1..12} of size <= 3 with
distinct orders, plus {p}, {2p} and {1,2,p} for every odd prime p <= 31.
"""

import time
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations
from math import lcm

import pytest

from ramanujan_popuc.closed_forms import (
    cf_ramanujan_2p,
    cf_ramanujan_anti2p,
    cf_ramanujan_prime,
    cf_single_moment,
    cf_sturmian_anti2p,
)
from ramanujan_popuc.duality import build_dual_pair, mirror_dual, verify_weights
from ramanujan_popuc.number_theory import (
    euler_totient,
    mobius,
    ramanujan_sum_direct,
    ramanujan_sum_fast,
)
from ramanujan_popuc.opuc_core import (
    gram_matrix,
    leading_toeplitz_minors,
    moments_from_cyclotomic,
    moments_from_kronecker,
    moments_from_power_sums,
    popuc_from_moments,
    toeplitz_det,
)
from ramanujan_popuc.polynomials import KroneckerSpec, anti_cyclotomic, cyclotomic

PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def master_specs() -> list[KroneckerSpec]:
    seen = {}
    for size in (1, 2, 3):
        for orders in combinations(range(1, 13), size):
            seen[orders] = KroneckerSpec(orders)
    for p in PRIMES_TO_31:
        for orders in ((p,), (2 * p,), (1, 2, p)):
            key = tuple(sorted(orders))
            seen.setdefault(key, KroneckerSpec(orders))
    return list(seen.values())


@pytest.fixture(scope="module")
def master_pairs():
    """All dual pairs of the master set, plus the time spent building
    them (charged to the duality criterion)."""
    start = time.perf_counter()
    pairs = {spec.orders: build_dual_pair(spec) for spec in master_specs()}
    return pairs, time.perf_counter() - start


@contextmanager
def criterion(num: int, name: str, budget: float, extra: float = 0.0):
    start = time.perf_counter()
    box = {}
    try:
        yield box
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start + extra
    detail = box.get("detail", "")
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s{detail}]")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def _systems_equal(left, right) -> bool:
    return (
        left.phis == right.phis
        and left.verblunsky == right.verblunsky
        and left.h == right.h
        and left.delta == right.delta
        and left.moments.sigma == right.moments.sigma
    )


def test_criterion_1_prime_family_exactness():
    with criterion(1, "prime family exactness, p <= 31", 5.0):
        for p in PRIMES_TO_31:
            closed = cf_ramanujan_prime(p)
            engine = popuc_from_moments(
                moments_from_cyclotomic(p), p - 1, family=closed.family
            )
            assert _systems_equal(closed, engine)
            # reflection coefficients and rungs in their closed forms
            n_max = p - 2
            for n in range(p - 1):
                assert engine.verblunsky[n] == F(-1, n_max - n + 1)
                expected = [F(1, n_max - n + 2)] * n + [F(1)]
                assert list(engine.phis[n].coeffs) == expected
            # Delta_n = p^(n-1) (p-n) / (p-1)^n for n = 1..p-1, zero tolerance
            for n in range(1, p):
                assert engine.delta[n - 1] == F(p ** (n - 1) * (p - n), (p - 1) ** n)


def test_criterion_2_2p_family_exactness():
    with criterion(2, "2p family exactness, p <= 31", 5.0):
        for p in PRIMES_TO_31:
            closed = cf_ramanujan_2p(p)
            engine = popuc_from_moments(
                moments_from_cyclotomic(2 * p), p - 1, family=closed.family
            )
            assert _systems_equal(closed, engine)
            n_max = p - 2
            for n in range(p - 1):
                assert engine.verblunsky[n] == F((-1) ** n, n_max - n + 1)
            assert engine.terminal == cyclotomic(2 * p)


def test_criterion_3_duality_theorem(master_pairs):
    pairs, build_time = master_pairs
    with criterion(3, "mirror duality over the master set", 60.0, extra=build_time) as box:
        for orders, pair in pairs.items():
            n1 = pair.charpoly.degree
            assert pair.ramanujan.terminal == pair.sturmian.terminal == pair.charpoly
            assert mirror_dual(pair.ramanujan.verblunsky) == pair.sturmian.verblunsky
            assert pair.sturmian.phis[n1 - 1] * F(n1) == pair.charpoly.derivative()
            assert pair.ramanujan.h[-1] == pair.sturmian.h[-1]
        box["detail"] = f", {len(pairs)} specs"


def test_criterion_4_anti_cyclotomic_family():
    with criterion(4, "anti-cyclotomic family, p in {3,5,7,11,13}", 2.0):
        for p in (3, 5, 7, 11, 13):
            sturmian = cf_sturmian_anti2p(p)
            # irregular head term of the coefficient sequence
            assert sturmian.verblunsky[0] == F(1 - p, p)
            for n in range(1, p):
                assert sturmian.verblunsky[n] == F((-1) ** n, 2 * p - n)
            assert sturmian.verblunsky[p] == 1
            engine_sturmian = cf_sturmian_anti2p(p)
            from ramanujan_popuc.duality import sturmian_from_charpoly

            assert _systems_equal(
                engine_sturmian, sturmian_from_charpoly(anti_cyclotomic(2 * p))
            )

            ramanujan = cf_ramanujan_anti2p(p)
            engine = popuc_from_moments(
                moments_from_kronecker(KroneckerSpec([1, 2, p])),
                p + 1,
                family=ramanujan.family,
            )
            assert _systems_equal(ramanujan, engine)
            for n in range(p + 1):
                mirrored = -sturmian.verblunsky[p - n - 1] if n < p else F(1)
                assert engine.verblunsky[n] == mirrored
            assert engine.terminal == anti_cyclotomic(2 * p)


def test_criterion_5_power_sum_double_oracle(master_pairs):
    pairs, _ = master_pairs
    with criterion(5, "Kronecker moments vs Newton power sums", 10.0) as box:
        for orders, pair in pairs.items():
            spec = pair.spec
            direct = moments_from_kronecker(spec, spec.total_degree)
            newton = moments_from_power_sums(pair.charpoly, spec.total_degree)
            assert direct.sigma == newton.sigma
        box["detail"] = f", {len(pairs)} specs"


def test_criterion_6_orthogonality_suite(master_pairs):
    pairs, _ = master_pairs
    systems = []
    for pair in pairs.values():
        systems.append(pair.ramanujan)
        systems.append(pair.sturmian)
    for p in (3, 5, 7, 11, 13):
        systems.extend(
            (cf_ramanujan_prime(p), cf_ramanujan_2p(p), cf_single_moment(p - 2),
             cf_sturmian_anti2p(p), cf_ramanujan_anti2p(p))
        )
    with criterion(6, "orthogonality and dual-route norms, zero tolerance", 120.0) as box:
        for system in systems:
            rungs = list(system.phis[:-1])
            g = gram_matrix(system.moments, rungs)
            for i in range(len(rungs)):
                for j in range(len(rungs)):
                    assert g[i][j] == (system.h[i] if i == j else 0)
            # h_n from Toeplitz determinant ratios vs the coefficient product
            minors = leading_toeplitz_minors(system.moments, system.n_max + 1)
            assert tuple(minors) == system.delta
            running = F(1)
            prev = F(1)
            for n, h_n in enumerate(system.h):
                assert h_n == minors[n] / prev == running
                running *= 1 - system.verblunsky[n] ** 2
                prev = minors[n]
        box["detail"] = f", {len(systems)} systems"


def cubic_minors(m, n):
    """Reference for leading_toeplitz_minors: the O(n^3) swap-free Bareiss
    sweep over the upper triangle of the integer-scaled Toeplitz matrix,
    whose pivot after step k - 1 is the k-th leading minor."""
    scale = lcm(*(m.at(k).denominator for k in range(n)))
    ints = [int(m.at(k) * scale) for k in range(n)]
    rows = [[ints[abs(j - i)] for j in range(n)] for i in range(n)]
    minors = []
    prev = 1
    for k in range(n):
        pivot_row = rows[k]
        pivot = pivot_row[k]
        minors.append(F(pivot, scale ** (k + 1)))
        assert pivot > 0
        for i in range(k + 1, n):
            row, below = rows[i], pivot_row[i]
            row[i:] = [(x * pivot - below * y) // prev for x, y in zip(row[i:], pivot_row[i:])]
        prev = pivot
    return minors


def exact_division_schur_minors(m, n):
    """Reference for leading_toeplitz_minors: the fraction-free Schur
    recursion without content reduction, in which every step divides by
    the previous integer minor P_k exactly and the arrays carry P_k's
    full size (f[i] = F_k(-i), e[i] = E_k(-1 - i))."""
    scale = lcm(*(m.at(k).denominator for k in range(n)))
    ints = [int(m.at(k) * scale) for k in range(n)]
    f, e = ints, ints[1:]
    minors = []
    prev = 1
    for k in range(n):
        pivot = f[0]
        minors.append(F(pivot, scale ** (k + 1)))
        assert pivot > 0
        q = e[0] if e else 0
        f, e = (
            [(pivot * x - q * y) // prev for x, y in zip(f, e)],
            [(pivot * y - q * x) // prev for x, y in zip(f[1:], e[1:])],
        )
        prev = pivot
    return minors


def test_leading_minors_match_general_elimination_over_master_set(master_pairs):
    pairs, _ = master_pairs
    for pair in pairs.values():
        for system in (pair.ramanujan, pair.sturmian):
            m, n = system.moments, system.n_max + 1
            minors = leading_toeplitz_minors(m, n)
            assert minors == cubic_minors(m, n)
            for k in {1, n // 2, n} - {0}:
                assert minors[k - 1] == toeplitz_det(m, k)


def test_content_reduced_minors_match_exact_division_schur():
    m = moments_from_cyclotomic(401)
    assert leading_toeplitz_minors(m, 400) == exact_division_schur_minors(m, 400)
    pair = build_dual_pair(KroneckerSpec([1, 16, 17, 21, 31, 38]))
    for system in (pair.ramanujan, pair.sturmian):
        m, n = system.moments, system.n_max + 1
        assert leading_toeplitz_minors(m, n) == exact_division_schur_minors(m, n)


def test_criterion_7_weight_verification(master_pairs):
    pairs, _ = master_pairs
    with criterion(7, "per-root weight identities at double precision", 10.0) as box:
        for pair in pairs.values():
            report = verify_weights(pair, tol=1e-10, digits=None)
            assert report.passed
            for row in report.rows:
                assert row["equal_mass_residual"] < 1e-10
                assert row["sturmian_positive"]
        box["detail"] = f", {len(pairs)} pairs"


def test_criterion_8_ramanujan_sum_oracles():
    with criterion(8, "Ramanujan-sum route agreement", 5.0):
        for m in range(1, 61):
            for n in range(0, 2 * m + 1):
                assert ramanujan_sum_direct(m, n) == ramanujan_sum_fast(m, n)
        for m in range(1, 201):
            assert ramanujan_sum_fast(m, 1) == mobius(m)
            assert ramanujan_sum_fast(m, 0) == euler_totient(m)


def test_criterion_9_degenerate_edges(master_pairs):
    pairs, _ = master_pairs
    with criterion(9, "degenerate edges and singular extensions", 60.0) as box:
        for m, coeffs in ((1, (F(1),)), (2, (F(-1),))):
            pair = pairs[(m,)]
            assert pair.ramanujan.verblunsky.a == coeffs
            assert pair.sturmian.verblunsky.a == coeffs
            verify_weights(pair, tol=1e-12)
        sym = pairs[(1, 2)]
        assert sym.ramanujan.verblunsky.a == (0, 1)
        assert sym.ramanujan.phis[1].coeffs == (0, 1)
        # Delta_{N+2} = 0 exactly for every tested family: the Toeplitz
        # extension of an (N+1)-point measure is singular.
        count = 0
        for pair in pairs.values():
            n1 = pair.spec.total_degree
            extended = moments_from_kronecker(pair.spec, n1 + 1)
            assert toeplitz_det(extended, n1 + 1) == 0
            assert toeplitz_det(pair.sturmian.moments, n1 + 1) == 0
            count += 2
        box["detail"] = f", {count} singular extensions"
