"""Mirror duality: the coefficient map, Sturmian descent, dual pairs, and
the floating-point weight identities at the spectral points."""

import cmath
import dataclasses
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_popuc.duality import (
    build_dual_pair,
    mirror_dual,
    numeric_roots,
    ramanujan_from_charpoly,
    sturmian_from_charpoly,
    verify_weights,
)
from ramanujan_popuc import duality, opuc_core
from ramanujan_popuc.errors import (
    DualityViolationError,
    InteriorCoefficientOutOfRangeError,
    InternalInconsistencyError,
    InvalidCharacteristicError,
    InvalidModulusError,
    SingularMomentError,
    UnimodularConstantTermError,
    WeightCheckFailureError,
)
from ramanujan_popuc.closed_forms import cf_ramanujan_anti2p
from ramanujan_popuc.number_theory import factorize, prime_divisors
from ramanujan_popuc.opuc_core import VerblunskySequence, gram_matrix
from ramanujan_popuc.polynomials import (
    KroneckerSpec,
    Poly,
    anti_cyclotomic,
    cyclotomic,
    horner,
    kronecker_poly,
)


def P(*ascending):
    return Poly(ascending)


def V(*vals):
    return VerblunskySequence(tuple(F(v) for v in vals))


# -- the mirror map -----------------------------------------------------------


def test_mirror_examples():
    assert mirror_dual(V("-1/4", "-1/3", "-1/2", -1)) == V("-1/2", "-1/3", "-1/4", -1)
    assert mirror_dual(V(0, 1)) == V(0, 1)  # symmetric two-point system
    assert mirror_dual(V("-2/3", "-1/5", "1/4", 1)) == V("-1/4", "1/5", "2/3", 1)


def test_mirror_fixes_terminal():
    assert mirror_dual(V(1)) == V(1)
    assert mirror_dual(V(-1)) == V(-1)


interior = st.fractions(min_value=F(-9, 10), max_value=F(9, 10), max_denominator=12)


@settings(deadline=None, max_examples=200)
@given(
    body=st.lists(interior, min_size=0, max_size=6),
    terminal=st.sampled_from((F(1), F(-1))),
)
def test_mirror_is_an_involution(body, terminal):
    v = VerblunskySequence(tuple(body) + (terminal,))
    assert mirror_dual(mirror_dual(v)) == v


# -- Sturmian descent ---------------------------------------------------------


def test_sturmian_examples():
    st5 = sturmian_from_charpoly(cyclotomic(5))
    assert st5.verblunsky == V("-1/2", "-1/3", "-1/4", -1)
    st6 = sturmian_from_charpoly(anti_cyclotomic(6))
    assert st6.verblunsky == V("-2/3", "-1/5", "1/4", 1)
    sym = sturmian_from_charpoly(P(-1, 0, 1))
    assert sym.phis[1] == P(0, 1)
    assert sym.verblunsky == V(0, 1)


def test_sturmian_rung_is_normalized_derivative():
    for charpoly in (cyclotomic(5), anti_cyclotomic(6), kronecker_poly(KroneckerSpec([3, 4]))):
        n1 = charpoly.degree
        system = sturmian_from_charpoly(charpoly)
        assert system.phis[n1 - 1] * F(n1) == charpoly.derivative()
        assert system.terminal == charpoly


def test_sturmian_is_orthogonal_for_its_reconstructed_moments():
    system = sturmian_from_charpoly(anti_cyclotomic(10))
    g = gram_matrix(system.moments, list(system.phis[:-1]))
    n1 = len(system.phis) - 1
    for i in range(n1):
        for j in range(n1):
            assert g[i][j] == (system.h[i] if i == j else 0)


def test_sturmian_rejects_bad_characteristics():
    with pytest.raises(InvalidCharacteristicError):
        sturmian_from_charpoly(P(1, 2))  # not monic
    with pytest.raises(InvalidCharacteristicError):
        sturmian_from_charpoly(P(-2, 0, 1))  # |constant| != 1
    with pytest.raises(InvalidCharacteristicError):
        sturmian_from_charpoly(P(1, -2, 1))  # (z-1)^2: repeated root
    # reciprocal real roots off the circle: z^2 - (5/2) z + 1
    with pytest.raises(InteriorCoefficientOutOfRangeError):
        sturmian_from_charpoly(P(1, F(-5, 2), 1))


def test_sturmian_errors_reach_the_caller_from_where_they_are_detected():
    assert issubclass(InteriorCoefficientOutOfRangeError, SingularMomentError)
    assert issubclass(UnimodularConstantTermError, InvalidCharacteristicError)
    # (z - 1)^2: Phi_1 = z - 1 has |Phi_1(0)| = 1, so inverse_szego_step stops
    message = "|constant term| = 1 in z - 1; descent cannot continue"
    with pytest.raises(UnimodularConstantTermError, match=f"^{re.escape(message)}$"):
        sturmian_from_charpoly(P(1, -2, 1))
    # z^2 - 5/2 z + 1 (roots 2 and 1/2) descends to a_0 = 5/4, which
    # VerblunskySequence rejects
    message = "|a_0| = 5/4 >= 1 below the terminal index"
    with pytest.raises(InteriorCoefficientOutOfRangeError, match=f"^{re.escape(message)}$"):
        sturmian_from_charpoly(P(1, F(-5, 2), 1))


def test_sturmian_rejects_a_charpoly_its_terminal_step_does_not_regenerate():
    # z^2 + z - 1 is monic with |C(0)| = 1, but it is not self-inversive
    message = "derivative condition is inconsistent with the terminal recurrence step"
    with pytest.raises(InvalidCharacteristicError, match=f"^{message}$"):
        sturmian_from_charpoly(P(-1, 1, 1))


# -- equal-mass construction and dual pairs -----------------------------------


def test_ramanujan_from_charpoly_examples():
    assert ramanujan_from_charpoly(KroneckerSpec([5])).verblunsky == V(
        "-1/4", "-1/3", "-1/2", -1
    )
    assert ramanujan_from_charpoly(KroneckerSpec([1, 2, 3])).verblunsky == V(
        "-1/4", "1/5", "2/3", 1
    )
    assert ramanujan_from_charpoly(KroneckerSpec([10])).verblunsky == V(
        "1/4", "-1/3", "1/2", -1
    )


def test_ramanujan_side_rejects_a_terminal_rung_off_the_kronecker_product(monkeypatch):
    monkeypatch.setattr(duality, "kronecker_poly", lambda spec: cyclotomic(7))
    message = (
        "terminal polynomial z^4 + z^3 + z^2 + z + 1 != "
        "Kronecker product z^6 + z^5 + z^4 + z^3 + z^2 + z + 1"
    )
    with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
        ramanujan_from_charpoly(KroneckerSpec([5]))


def test_dual_pair_rejects_coefficients_the_mirror_map_does_not_match(monkeypatch):
    monkeypatch.setattr(duality, "mirror_dual", lambda v: v)
    message = "exact duality assertions failed: ['mirror_map']"
    with pytest.raises(DualityViolationError, match=f"^{re.escape(message)}$"):
        build_dual_pair(KroneckerSpec([5]))


def test_terminal_matches_kronecker_product_sweep():
    # ramanujan_from_charpoly re-checks terminal == product internally;
    # sweep specs over orders <= 20 with total degree <= 40
    from itertools import combinations

    specs = [KroneckerSpec([m]) for m in range(13, 21)]
    specs += [
        KroneckerSpec(orders)
        for orders in combinations(range(13, 21), 2)
        if KroneckerSpec(orders).total_degree <= 40
    ]
    specs += [KroneckerSpec([1, 2, 19, 20]), KroneckerSpec([4, 6, 9, 14, 18])]
    for spec in specs:
        assert spec.total_degree <= 40
        system = ramanujan_from_charpoly(spec)
        assert system.terminal == kronecker_poly(spec)


def test_build_dual_pair_examples():
    pair5 = build_dual_pair(KroneckerSpec([5]))
    assert pair5.charpoly == P(1, 1, 1, 1, 1)
    assert all(pair5.checks.values())

    pair12 = build_dual_pair(KroneckerSpec([1, 2]))
    assert pair12.ramanujan.verblunsky == pair12.sturmian.verblunsky  # self-dual

    pair123 = build_dual_pair(KroneckerSpec([1, 2, 3]))
    cf = cf_ramanujan_anti2p(3)
    assert pair123.ramanujan.phis == cf.phis
    assert pair123.ramanujan.verblunsky == cf.verblunsky


def test_dual_pair_exact_assertions_sweep():
    for orders in ([1], [2], [4], [1, 2], [2, 3], [1, 2, 3], [3, 4], [1, 6, 10], [12]):
        pair = build_dual_pair(KroneckerSpec(orders))
        n1 = pair.charpoly.degree
        assert pair.ramanujan.terminal == pair.sturmian.terminal == pair.charpoly
        assert mirror_dual(pair.ramanujan.verblunsky) == pair.sturmian.verblunsky
        assert pair.sturmian.phis[n1 - 1] * F(n1) == pair.charpoly.derivative()
        assert pair.ramanujan.h[-1] == pair.sturmian.h[-1]


@settings(deadline=None, max_examples=25)
@given(orders=st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=3))
def test_dual_pair_random_specs(orders):
    pair = build_dual_pair(KroneckerSpec(orders))
    assert all(pair.checks.values())
    verify_weights(pair, tol=1e-11)


def test_binary_pq_families_satisfy_all_invariants():
    # No closed form exists for M = p*q, so the engine self-checks are the
    # whole story: duality, orthogonality-by-builder, weights, and the
    # singular Toeplitz extension.
    from ramanujan_popuc.opuc_core import moments_from_kronecker, toeplitz_det

    for m in (15, 21):
        spec = KroneckerSpec([m])
        pair = build_dual_pair(spec, paranoid=True)
        assert all(pair.checks.values())
        verify_weights(pair, tol=1e-11)
        n1 = spec.total_degree
        assert toeplitz_det(moments_from_kronecker(spec, n1 + 1), n1 + 1) == 0


def test_paranoid_dual_pair_checks_both_ladders(monkeypatch):
    # The one elimination behind the determinant formula is made wrong for
    # Sturmian moments only: every row it hands back reads Phi_n + 1/101,
    # so only the descent side's paranoid check can catch it.
    elimination = opuc_core._bordered_elimination
    seen = []

    def wrong_for_sturmian(m, count):
        seen.append(m.provenance)
        swaps, rows = elimination(m, count)
        if m.provenance.startswith("sturmian"):
            # row n, v, is v_n Phi_n, and 101 v + v_n is 101 v_n (Phi_n + 1/101)
            rows = [[101 * x + (i == 0) * v[n] for i, x in enumerate(v)]
                    for n, v in enumerate(rows)]
        return swaps, rows

    monkeypatch.setattr(opuc_core, "_bordered_elimination", wrong_for_sturmian)
    spec = KroneckerSpec([1, 2, 5])
    build_dual_pair(spec)  # not paranoid: the elimination is never asked
    assert seen == []
    with pytest.raises(InternalInconsistencyError, match=r"^rung 1: descent gives z \+ 4/5, "):
        build_dual_pair(spec, paranoid=True)
    assert seen == ["kronecker:1,2,5", "sturmian:1,2,5"]


def test_ladder_of_2m_is_the_reflection_of_the_ladder_of_m():
    """C_{2m}(z) = (-1)^deg C_m(-z) for odd m, and both ladders follow the
    reflection z -> -z: a_n(2m) = (-1)^{n+1} a_n(m), Phi_n^{(2m)}(z) =
    (-1)^n Phi_n^{(m)}(-z) and sigma_k(2m) = (-1)^k sigma_k(m)."""
    for m in range(1, 120, 2):
        pairs = (build_dual_pair(KroneckerSpec([m])), build_dual_pair(KroneckerSpec([2 * m])))
        for side in ("ramanujan", "sturmian"):
            low, high = (getattr(pair, side) for pair in pairs)
            assert high.verblunsky.a == tuple(
                (-1) ** (n + 1) * a for n, a in enumerate(low.verblunsky)
            ), (m, side)
            assert high.phis == tuple(
                Poly.from_ints([(-1) ** (n - k) * c for k, c in enumerate(phi.ints)], phi.den)
                for n, phi in enumerate(low.phis)
            ), (m, side)
            assert high.moments.sigma == tuple(
                (-1) ** k * s for k, s in enumerate(low.moments.sigma)
            ), (m, side)


def test_ladder_of_a_non_squarefree_modulus_is_the_sieve_of_its_radical():
    """C_M(z) = C_{rad M}(z^l), l = M / rad(M), and both ladders are sieved
    (B. Simon, OPUC Part 1, 2005): a_n(M) = a_{(n+1)/l - 1}(rad M) when l
    divides n + 1, 0 otherwise, and Phi_{ql+r}(z) = z^r Phi_q^{rad}(z^l),
    for every non-squarefree M <= 200.  For q = p^k the equal-mass side is
    a_n = -1/(p - 1 - j) at n + 1 = (j + 1) p^{k-1}, 0 elsewhere."""
    pairs = {}

    def pair(m):
        if m not in pairs:
            pairs[m] = build_dual_pair(KroneckerSpec([m]))
        return pairs[m]

    sieved = [m for m in range(1, 201) if any(m % (p * p) == 0 for p in prime_divisors(m))]
    assert len(sieved) == 78
    for m in sieved:
        rad = math.prod(prime_divisors(m))
        ell = m // rad
        for side in ("ramanujan", "sturmian"):
            high, low = getattr(pair(m), side), getattr(pair(rad), side)
            assert high.verblunsky.a == tuple(
                low.verblunsky[(n + 1) // ell - 1] if (n + 1) % ell == 0 else 0
                for n in range(len(high.verblunsky))
            ), (m, side)
            for n, phi in enumerate(high.phis):
                q, r = divmod(n, ell)
                coeffs = [0] * (n + 1)
                coeffs[r::ell] = low.phis[q].coeffs
                assert phi == Poly(coeffs), (m, side, n)
    for m in (4, 8, 9, 25, 27, 49, 81, 121, 125, 169):
        (p, k), = factorize(m)
        step = p ** (k - 1)
        assert pair(m).ramanujan.verblunsky.a == tuple(
            F(-1, p - 1 - (n + 1) // step + 1) if (n + 1) % step == 0 else 0
            for n in range(m - step)
        ), m


# -- numeric layer -------------------------------------------------------------


def test_numeric_roots_examples():
    r12 = numeric_roots(KroneckerSpec([1, 2]))
    assert sorted(round(z.real) for z in r12) == [-1, 1]

    r5 = numeric_roots(KroneckerSpec([5]))
    expected = {cmath.exp(2j * cmath.pi * k / 5) for k in range(1, 5)}
    for z in r5:
        assert min(abs(z - w) for w in expected) < 1e-14

    r6 = numeric_roots(KroneckerSpec([1, 2, 3]))
    expected6 = {1, -1, cmath.exp(2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi / 3)}
    for z in r6:
        assert min(abs(z - w) for w in expected6) < 1e-14


def test_numeric_roots_invariants():
    for orders in ([1], [5], [1, 2, 3], [3, 4], [8, 12]):
        spec = KroneckerSpec(orders)
        rs, source = numeric_roots(spec), kronecker_poly(spec)
        assert len(rs) == spec.total_degree == source.degree
        for i, z in enumerate(rs):
            assert abs(abs(z) - 1) < 1e-14
            assert abs(source(z)) < 1e-10
            for w in rs[:i]:
                assert abs(z - w) > 1e-9  # pairwise distinct


def test_verify_weights_examples():
    pair5 = build_dual_pair(KroneckerSpec([5]))
    report = verify_weights(pair5, tol=1e-12)
    assert report.passed
    for row in report.rows:
        assert abs(row["ramanujan_mass"] - 0.25) < 1e-12

    pair12 = build_dual_pair(KroneckerSpec([1, 2]))
    report12 = verify_weights(pair12, tol=1e-12)
    for row in report12.rows:
        assert abs(row["ramanujan_mass"] - 0.5) < 1e-14
        assert abs(row["sturmian_mass"] - 0.5) < 1e-14

    report123 = verify_weights(build_dual_pair(KroneckerSpec([1, 2, 3])), tol=1e-12)
    assert all(r["sturmian_positive"] for r in report123.rows)


def test_verify_weights_high_precision():
    pair = build_dual_pair(KroneckerSpec([2, 3, 8]))
    report = verify_weights(pair, tol=1e-35, digits=50)
    assert report.passed and report.max_residual < 1e-35


def test_verify_weights_failure_carries_report():
    pair = build_dual_pair(KroneckerSpec([5]))
    with pytest.raises(WeightCheckFailureError) as err:
        verify_weights(pair, tol=0.0)
    assert err.value.report is not None
    assert len(err.value.report.rows) == 4


# -- weights from rungs reduced modulo each cyclotomic factor -------------------


def _full_horner_rows(pair):
    """The weight rows in double precision by Horner over the full degree-N
    rungs at every root: the evaluation the reduction replaces.  Each row
    has the keys ``verify_weights`` reports."""
    n1 = pair.charpoly.degree
    deriv = [complex(c) for c in pair.charpoly.derivative().coeffs]
    phi_n = [complex(c) for c in pair.ramanujan.phis[n1 - 1].coeffs]
    h_num = float(pair.ramanujan.h[-1])
    equal_mass = 1 / float(n1)
    rows = []
    for z in numeric_roots(pair.spec):
        d_val, p_val = horner(deriv, z), horner(phi_n, z)
        w = h_num / (d_val.conjugate() * p_val)
        tw = p_val / d_val
        rows.append(
            {
                "root": z,
                "ramanujan_mass": w,
                "sturmian_mass": tw,
                "equal_mass_residual": float(abs(w - equal_mass) / equal_mass),
                "sturmian_positive": tw.real > 0,
            }
        )
    return rows


def _with_phi_n(pair, phi_n):
    """The pair with the Ramanujan ladder's Phi_N replaced by phi_n."""
    n1 = pair.charpoly.degree
    phis = pair.ramanujan.phis[: n1 - 1] + (phi_n,) + pair.ramanujan.phis[n1:]
    return dataclasses.replace(pair, ramanujan=dataclasses.replace(pair.ramanujan, phis=phis))


def test_single_order_weight_rows_are_bit_identical_to_full_horner():
    # deg C' < phi(M) and deg Phi_N < phi(M): each remainder is the rung itself.
    for m in range(1, 101):
        pair = build_dual_pair(KroneckerSpec([m]))
        rows = verify_weights(pair, tol=float("inf")).rows
        assert rows == _full_horner_rows(pair), m


@settings(deadline=None, max_examples=15)
@given(orders=st.sets(st.integers(min_value=1, max_value=20), min_size=2, max_size=4))
def test_reduced_and_direct_evaluation_agree_at_80_digits(orders):
    import mpmath

    pair = build_dual_pair(KroneckerSpec(orders))
    n1 = pair.charpoly.degree
    with mpmath.workdps(80):
        rows = verify_weights(pair, tol=1e-40, digits=80).rows
        deriv = [mpmath.mpmathify(c) for c in pair.charpoly.derivative().coeffs]
        phi_n = [mpmath.mpmathify(c) for c in pair.ramanujan.phis[n1 - 1].coeffs]
        h_num = mpmath.mpmathify(pair.ramanujan.h[-1])
        for row in rows:
            z = row["root"]
            d_val, p_val = horner(deriv, z), horner(phi_n, z)
            w = h_num / (d_val.conjugate() * p_val)
            tw = p_val / d_val
            assert abs(row["ramanujan_mass"] - w) < 1e-50 * abs(w)
            assert abs(row["sturmian_mass"] - tw) < 1e-50 * abs(tw)


def test_reduced_weights_pass_where_full_horner_lost_the_digits():
    # Horner over the full rungs gave 5.7e-11 and 0.17 on these two specs.
    wide = build_dual_pair(KroneckerSpec([7, 11, 13, 17, 19, 23, 29, 31]))
    assert verify_weights(wide, tol=1e-18, digits=30).max_residual < 1e-18
    dense = build_dual_pair(KroneckerSpec([1, 2, 3, 5, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18]))
    assert verify_weights(dense, tol=1e-10).max_residual < 1e-10


def test_perturbed_phi_n_coefficient_fails_at_30_digits():
    pair = build_dual_pair(KroneckerSpec([1, 16, 17, 21, 31, 38]))
    assert verify_weights(pair, tol=1e-12, digits=30).passed
    n1 = pair.charpoly.degree
    coeffs = list(pair.ramanujan.phis[n1 - 1].coeffs)
    k = n1 // 2
    assert coeffs[k] != 0
    coeffs[k] *= 1 + F(1, 10**12)
    with pytest.raises(WeightCheckFailureError):
        verify_weights(_with_phi_n(pair, Poly(coeffs)), tol=1e-12, digits=30)


def test_thirty_digits_deliver_residuals_at_the_working_precision():
    # Horner in mpmath gave 2.5e-26 at M = 211 and 5.6e-21 on the eight primes.
    pair = build_dual_pair(KroneckerSpec([211]))
    assert verify_weights(pair, tol=1e-28, digits=30).passed
    wide = build_dual_pair(KroneckerSpec([7, 11, 13, 17, 19, 23, 29, 31]))
    assert verify_weights(wide, tol=1e-28, digits=30).max_residual < 1e-28
    n1 = pair.charpoly.degree
    coeffs = list(pair.ramanujan.phis[n1 - 1].coeffs)
    k = n1 // 2
    assert coeffs[k] != 0
    coeffs[k] *= 1 + F(1, 10**26)
    with pytest.raises(WeightCheckFailureError):
        verify_weights(_with_phi_n(pair, Poly(coeffs)), tol=1e-28, digits=30)


@pytest.mark.parametrize("digits", [15, 30, 80])
def test_unit_table_is_within_one_unit_of_the_roots_of_unity(digits):
    import mpmath

    from ramanujan_popuc.duality import _unit_table

    with mpmath.workdps(digits):
        prec = mpmath.mp.prec
    for m in [*range(1, 131), 211, 401, 797]:
        bits = prec + 16 + m.bit_length()  # the kernel's bits for N+1 = m
        xs, ys = _unit_table(m, bits)
        assert len(xs) == len(ys) == m
        assert (xs[0], ys[0]) == (1 << bits, 0)
        assert all(xs[m - j] == xs[j] and ys[m - j] == -ys[j] for j in range(1, m)), m
        # reference: e^{2 pi i j/m} at twice the bits, scaled exactly by 2^bits
        with mpmath.workprec(2 * bits):
            for j in range(m):
                z = mpmath.expjpi(mpmath.mpf(2 * j) / m)
                x, y = mpmath.ldexp(z.real, bits), mpmath.ldexp(z.imag, bits)
                assert abs(xs[j] - x) <= 1 and abs(ys[j] - y) <= 1, (m, j)


@pytest.mark.parametrize("digits", [0, -3, 2.5, True, "30"])
def test_digits_other_than_a_positive_int_are_rejected(digits):
    pair = build_dual_pair(KroneckerSpec([5]))
    with pytest.raises(InvalidModulusError, match="digits must be an int >= 1"):
        verify_weights(pair, digits=digits)


@pytest.mark.parametrize("digits", [None, 30])
def test_phi_n_vanishing_at_a_root_is_a_failing_row(digits):
    # Phi_3 = z^3 + 1 reduces to the exact zero modulo C_2 = z + 1.
    pair = _with_phi_n(build_dual_pair(KroneckerSpec([1, 2, 3])), P(1, 0, 0, 1))
    with pytest.raises(WeightCheckFailureError, match=r"max residual inf; ") as err:
        verify_weights(pair, tol=1e-12, digits=digits)
    report = err.value.report
    assert len(report.rows) == 4 and not report.passed
    at_minus_one = report.rows[1]
    assert at_minus_one["sturmian_positive"] is False
    assert at_minus_one["equal_mass_residual"] == float("inf")


def test_a_mass_past_the_float_range_is_an_infinite_residual():
    # Phi_3(1) = 2^-1100 and the table is exact at z = 1, so w_s > 2^1024
    pair = _with_phi_n(build_dual_pair(KroneckerSpec([1, 2, 3])), P(F(1, 2**1100) - 1, 0, 0, 1))
    with pytest.raises(WeightCheckFailureError, match=r"max residual inf; ") as err:
        verify_weights(pair, tol=1e-12, digits=30)
    assert err.value.report.rows[0]["equal_mass_residual"] == float("inf")


@pytest.mark.parametrize("digits", [15, 30, 50])
def test_mpmath_conversion_is_correctly_rounded(digits):
    import random

    import mpmath

    from ramanujan_popuc.duality import _mpf_nearest

    rng = random.Random(digits)
    missed_by_mpmathify = 0
    for _ in range(200):
        p = rng.getrandbits(400) - (1 << 399)
        q = rng.getrandbits(400) | 1
        with mpmath.workdps(digits):
            prec = mpmath.mp.prec
            value = _mpf_nearest(p, q)
            missed_by_mpmathify += mpmath.mpmathify(F(p, q)) != value
        # reference: the quotient of the exact integers at twice the
        # precision, then rounded to nearest at the working precision
        with mpmath.workprec(2 * prec):
            wide = mpmath.fdiv(p, q)
        with mpmath.workprec(prec):
            assert value == +wide, (p, q)
    # the reference tells the two apart: mpmathify rounds down
    assert missed_by_mpmathify > 50


@pytest.mark.parametrize("tol", [float("nan"), True, "1e-3", None, 1e-3j])
def test_tol_other_than_a_real_number_is_rejected(tol):
    pair = build_dual_pair(KroneckerSpec([5]))
    with pytest.raises(InvalidModulusError, match="tol must be a real number"):
        verify_weights(pair, tol=tol, digits=30)
    # any real tolerance stays a threshold: infinite passes, 0 and below fail
    assert verify_weights(pair, tol=float("inf")).passed
    assert verify_weights(pair, tol=F(1, 10**9)).passed
    for impossible in (0, -1.0):
        with pytest.raises(WeightCheckFailureError):
            verify_weights(pair, tol=impossible)


def test_digits_residuals_take_no_mpmath_complex_arithmetic(monkeypatch):
    import mpmath

    pairs = [build_dual_pair(KroneckerSpec(o)) for o in ([1, 2, 5], [1, 6, 13, 15, 21, 25, 26, 35])]

    def refuse(*args):
        raise AssertionError("complex mpmath arithmetic in the weight check")

    monkeypatch.setattr(mpmath.mpc, "__truediv__", refuse)
    monkeypatch.setattr(mpmath.mpc, "__mul__", refuse)
    for pair in pairs:
        assert verify_weights(pair, tol=1e-12, digits=30).passed


def _within_an_ulp(value: float, square: F) -> bool:
    """|value - x| <= ulp(value) for the x >= 0 with x^2 = square, exactly."""
    lo, hi = F(max(value - math.ulp(value), 0.0)), F(value + math.ulp(value))
    return lo * lo <= square <= hi * hi


# complex rationals as (re, im) pairs of Fractions
def _cmul(u, v):
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _cdiv(u, v):
    norm = v[0] ** 2 + v[1] ** 2
    return _cmul(u, (v[0] / norm, -v[1] / norm))


def _exact_weight_values(pair, digits):
    """(d, w, tw) at every root, in the order of the report's rows, as
    exact complex rationals: d = C'(z_s) and p = Phi_N(z_s) are the sums of
    the remainders modulo C_m (by ``Poly.divmod``) against ``_unit_table``
    at the bits ``verify_weights`` takes for ``digits``, w = h_N / (conj(d) p)
    and tw = p / d."""
    import mpmath

    from ramanujan_popuc.duality import _root_angles, _unit_table

    n1 = pair.charpoly.degree
    with mpmath.workdps(digits):
        bits = mpmath.mp.prec + 16 + n1.bit_length()
    h = pair.ramanujan.h[-1]
    rungs = (pair.charpoly.derivative(), pair.ramanujan.phis[n1 - 1])
    tables = {m: _unit_table(m, bits) for m in pair.spec.orders}
    rems = {m: [rung.divmod(cyclotomic(m))[1] for rung in rungs] for m in pair.spec.orders}
    values = []
    for s, m in _root_angles(pair.spec):
        xs, ys = tables[m]
        d, p = (
            (
                F(sum(c * xs[s * k % m] for k, c in enumerate(r.ints)), r.den << bits),
                F(sum(c * ys[s * k % m] for k, c in enumerate(r.ints)), r.den << bits),
            )
            for r in rems[m]
        )
        values.append((d, _cdiv((h, F(0)), _cmul((d[0], -d[1]), p)), _cdiv(p, d)))
    return values


@pytest.mark.parametrize("orders", [[1, 2, 5], [7, 11, 13, 17, 19, 23, 29, 31], [61]])
def test_digits_residuals_are_the_exact_values_rounded_once(orders):
    pair = build_dual_pair(KroneckerSpec(orders))
    report = verify_weights(pair, tol=float("inf"), digits=30)
    n1 = pair.charpoly.degree
    for i, (row, (_, w, tw)) in enumerate(
        zip(report.rows, _exact_weight_values(pair, 30), strict=True)
    ):
        square = (n1 * w[0] - 1) ** 2 + (n1 * w[1]) ** 2
        assert _within_an_ulp(row["equal_mass_residual"], square), i
        assert row["sturmian_positive"] is (tw[0] > 0)


def test_folding_modulo_z_m_minus_1_keeps_the_remainder_modulo_c_m():
    from ramanujan_popuc.duality import _mod_cyclotomic

    rng = random.Random(25)
    for m in range(1, 61):
        for den in (1, rng.randrange(2, 10**6)):
            for degree in (-1, m - 1, m, rng.randrange(3 * m + 1), 3 * m):
                p = Poly.from_ints([rng.randrange(-(10**9), 10**9) for _ in range(degree + 1)], den)
                assert _mod_cyclotomic(p, m) == p.divmod(cyclotomic(m))[1], (m, p)


def _divmod_horner_weight_rows(pair):
    """The rows of ``verify_weights`` in double precision by its first
    formula: each rung's remainder from ``Poly.divmod`` by C_m, converted
    coefficient by coefficient and summed by Horner at every root.  Beside
    the equal-mass residual, each row carries the four residuals it bounds
    (``verify_weights``): |Im w|, |Im tw|, the product relation
    w tw |d|^2 = h_N and the two routes to the Sturmian mass."""
    n1 = pair.charpoly.degree
    rungs = (pair.charpoly.derivative(), pair.ramanujan.phis[n1 - 1])
    h_n = pair.ramanujan._norms[-1]
    h_num, equal_mass = h_n[0] / h_n[1], 1 / n1
    names = ("equal_mass", "ramanujan_imag", "sturmian_imag", "product", "two_route")
    rows = []
    for m in pair.spec.orders:
        rems = [rung.divmod(cyclotomic(m))[1] for rung in rungs]
        coeffs = [[complex(c / r.den) for c in r.ints] for r in rems]
        for s in range(1, m + 1):
            if math.gcd(s, m) != 1:
                continue
            z = cmath.exp(2j * cmath.pi * s / m)
            d_val, p_val = (horner(c, z) for c in coeffs)
            w = h_num / (d_val.conjugate() * p_val)
            tw = p_val / d_val
            speed2 = (d_val * d_val.conjugate()).real
            tw_sturm_route = h_num * n1 / speed2
            residuals = (
                abs(w - equal_mass) / equal_mass,
                abs(w.imag),
                abs(tw.imag),
                abs(w * tw * speed2 - h_num) / h_num,
                abs(tw.real - tw_sturm_route) / tw_sturm_route,
            )
            row = {"root": z, "ramanujan_mass": w, "sturmian_mass": tw,
                   "sturmian_positive": tw.real > 0}
            rows.append(row | {f"{k}_residual": r for k, r in zip(names, residuals)})
    return rows


@pytest.mark.parametrize(
    "orders",
    [[7], [61], [211], [422], [1], [2], [1, 2, 5], [3, 5, 7, 11],
     [1, 2, 3, 5, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 18]],
    ids=lambda orders: ",".join(map(str, orders)),
)
def test_double_precision_weight_rows_are_bit_identical_to_divmod_and_horner(orders):
    """The in-place reduction modulo C_m and the one root enumeration give
    every row float for float as the quotient-building ``Poly.divmod`` and
    a second enumeration did: repr tells -0.0 from 0.0 and every bit of a
    finite float.  M = 61 fails the default tolerance, so none is set."""
    pair = build_dual_pair(KroneckerSpec(orders))
    rows = verify_weights(pair, tol=math.inf).rows
    reference = [{k: r[k] for k in WEIGHT_ROW_KEYS} for r in _divmod_horner_weight_rows(pair)]
    assert repr(rows) == repr(reference)


WEIGHT_ROW_KEYS = ("root", "ramanujan_mass", "sturmian_mass", "equal_mass_residual",
                   "sturmian_positive")
EQUAL_POWER_SPECS = [[5], [13], [61], [1, 2, 3], [1, 2, 5], [3, 5, 7], [1, 6, 13, 15],
                     [7, 11, 13, 17, 19, 23, 29, 31]]


def _perturbed_pairs(orders):
    """The pair of ``orders`` with one or two interior coefficients of the
    Ramanujan ladder's Phi_N moved by +-k 10^-j, k in 1..9, once for each
    j = 0..16 (seeded).  Phi_N stays monic of degree N."""
    pair = build_dual_pair(KroneckerSpec(orders))
    n1 = pair.charpoly.degree
    rng = random.Random(str(orders))
    for j in range(17):
        coeffs = list(pair.ramanujan.phis[n1 - 1].coeffs)
        for i in rng.sample(range(1, n1 - 1), rng.randint(1, 2)):
            coeffs[i] += rng.choice((-1, 1)) * F(rng.randint(1, 9), 10**j)
        yield _with_phi_n(pair, Poly(coeffs))


def _report_at_any_residual(pair, digits=None):
    try:
        return verify_weights(pair, tol=math.inf, digits=digits)
    except WeightCheckFailureError as err:  # an infinite residual fails even tol = inf
        return err.report


@pytest.mark.parametrize("orders", EQUAL_POWER_SPECS, ids=lambda o: ",".join(map(str, o)))
def test_equal_mass_residual_bounds_the_dropped_residuals_in_doubles(orders):
    """Fault injection: on every perturbed Phi_N, the four double-precision
    residuals of ``_divmod_horner_weight_rows`` beside the equal-mass one e
    stay within the bounds e sets (``verify_weights``), up to a few ulps,
    and a non-positive Sturmian mass comes with e > 1."""
    eps = sys.float_info.epsilon
    for pair in _perturbed_pairs(orders):
        n1 = pair.charpoly.degree
        rows = _report_at_any_residual(pair).rows
        for row, ref in zip(rows, _divmod_horner_weight_rows(pair), strict=True):
            e = row["equal_mass_residual"]
            assert e == ref["equal_mass_residual"]
            g = e + 64 * eps * (1 + e)
            assert ref["ramanujan_imag_residual"] <= g / n1
            assert ref["sturmian_imag_residual"] <= g * abs(ref["sturmian_mass"])
            assert g >= 1 or ref["two_route_residual"] <= g / (1 - g)
            assert ref["product_residual"] <= 64 * eps
            assert ref["sturmian_positive"] or g > 1


@pytest.mark.parametrize("orders", EQUAL_POWER_SPECS, ids=lambda o: ",".join(map(str, o)))
def test_equal_mass_residual_bounds_the_dropped_residuals_exactly(orders):
    """The same bounds with no slack at 30 digits, on the exact values of
    d, p, w and tw from the table sums, of which the reported e is the
    square root rounded once."""
    for pair in _perturbed_pairs(orders):
        n1 = pair.charpoly.degree
        h = pair.ramanujan.h[-1]
        rows = _report_at_any_residual(pair, digits=30).rows
        for row, (d, w, tw) in zip(rows, _exact_weight_values(pair, 30), strict=True):
            e2 = (n1 * w[0] - 1) ** 2 + (n1 * w[1]) ** 2
            assert _within_an_ulp(row["equal_mass_residual"], e2)
            assert (n1 * w[1]) ** 2 <= e2  # |Im w| <= e / (N+1)
            assert tw[1] ** 2 <= e2 * (tw[0] ** 2 + tw[1] ** 2)  # |Im tw| <= e |tw|
            speed2 = d[0] ** 2 + d[1] ** 2
            route = h * n1 / speed2  # the Sturmian ladder's own mass
            two_route = abs(tw[0] - route) / route
            # two_route <= e / (1 - e), squared and cleared of the division
            assert e2 >= 1 or two_route**2 <= e2 * (1 + two_route) ** 2
            assert _cmul(_cmul(w, tw), (speed2, F(0))) == (h, F(0))
            assert tw[0] > 0 or e2 > 1


@pytest.mark.parametrize("orders", [[13], [1, 2, 5], [7, 11, 13, 17, 19, 23, 29, 31]])
def test_sturmian_masses_of_a_wrong_phi_n_still_sum_to_one(orders):
    """By Lagrange interpolation, sum_s Phi_N(z_s) / C'(z_s) = [z^N] Phi_N
    for any Phi_N of degree at most N, so a monic Phi_N that fails the
    equal-mass check still has Sturmian masses summing to 1: a mass-sum
    residual checks nothing."""
    import mpmath

    pair = build_dual_pair(KroneckerSpec(orders))
    n1 = pair.charpoly.degree
    coeffs = list(pair.ramanujan.phis[n1 - 1].coeffs)
    coeffs[n1 // 2] += F(1, 10**6)
    with pytest.raises(WeightCheckFailureError) as err:
        verify_weights(_with_phi_n(pair, Poly(coeffs)), tol=1e-12, digits=80)
    with mpmath.workdps(80):
        total = mpmath.fsum(row["sturmian_mass"] for row in err.value.report.rows)
        assert abs(total - 1) < mpmath.mpf("1e-70")
