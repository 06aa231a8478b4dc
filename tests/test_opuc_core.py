"""The moment-to-ladder engine: determinants, recurrence, orthogonality."""

import random
import re
from fractions import Fraction as F
from itertools import accumulate
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanujan_popuc import closed_forms, duality, opuc_core, polynomials
from ramanujan_popuc.duality import build_dual_pair, sturmian_from_charpoly
from ramanujan_popuc.errors import (
    InsufficientMomentsError,
    InteriorCoefficientOutOfRangeError,
    InternalInconsistencyError,
    InvalidCharacteristicError,
    InvalidModulusError,
    InvalidPayloadError,
    PopucError,
    SingularMomentError,
    TerminalMassError,
    UnimodularConstantTermError,
)
from ramanujan_popuc.number_theory import euler_totient
from ramanujan_popuc.opuc_core import (
    MomentSequence,
    PopucSystem,
    VerblunskySequence,
    _verify_annihilation,
    determinant_formula_poly,
    gram_matrix,
    inner_product,
    inverse_szego_step,
    leading_toeplitz_minors,
    moments_from_cyclotomic,
    moments_from_kronecker,
    moments_from_ladder,
    moments_from_power_sums,
    popuc_from_moments,
    szego_step,
    toeplitz_det,
)
from ramanujan_popuc.polynomials import (
    KroneckerSpec,
    Poly,
    _scaled,
    anti_cyclotomic,
    cyclotomic,
    kronecker_poly,
)


def P(*ascending):
    return Poly(ascending)


def det_gaussian(rows):
    """Independent determinant oracle: plain fraction Gaussian elimination
    with partial pivoting (no Bareiss)."""
    rows = [[F(x) for x in r] for r in rows]
    n = len(rows)
    det = F(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot_row is None:
            return F(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        det *= rows[k][k]
        inv = 1 / rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] * inv
            if f:
                for j in range(k, n):
                    rows[i][j] -= f * rows[k][j]
    return det


def toeplitz_rows(m: MomentSequence, n: int):
    return [[m.at(j - i) for j in range(n)] for i in range(n)]


def gram_reference(m: MomentSequence, polys):
    """Independent Gram oracle: the plain Fraction double sum
    sum_{j,k} p_j * q_k * sigma_{j-k} for every pair."""
    return [
        [
            sum(
                (a * b * m.at(j - k) for j, a in enumerate(p.coeffs) for k, b in enumerate(q.coeffs)),
                F(0),
            )
            for q in polys
        ]
        for p in polys
    ]


def newton_reference(charpoly: Poly, length: int):
    """Independent power-sum oracle: Newton's identities in Fractions on
    the elementary symmetric functions, sigma_k = p_k / degree."""
    d = charpoly.degree
    e = [(-1) ** i * charpoly[d - i] for i in range(d + 1)]
    p = [F(d)]
    for k in range(1, length + 1):
        acc = F(0)
        for i in range(1, min(k, d) + 1):
            if i == k:
                acc += (-1) ** (k - 1) * k * e[k]
            else:
                acc += (-1) ** (i - 1) * e[i] * p[k - i]
        p.append(acc)
    return tuple(s / d for s in p)


def first_annihilation_defect(m: MomentSequence, phi: Poly, below: int | None = None):
    """(j, <phi, z^j>) for the first j below deg(phi) (or below `below`)
    with a nonzero inner product, summed in Fractions; None when phi
    annihilates all."""
    for j in range(phi.degree if below is None else below):
        val = sum(c * m.at(k - j) for k, c in enumerate(phi.coeffs))
        if val != 0:
            return j, val
    return None


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=12)
rational_polys = st.lists(rationals, max_size=6).map(Poly)


# -- moment constructors -----------------------------------------------------


def test_moments_from_cyclotomic_examples():
    assert moments_from_cyclotomic(5, 4).sigma == (1, F(-1, 4), F(-1, 4), F(-1, 4), F(-1, 4))
    assert moments_from_cyclotomic(1, 2).sigma == (1, 1, 1)
    # frozen from the direct-summation oracle: c_10(0..4) = 4, 1, -1, 1, -1,
    # i.e. the sign-alternating pattern (-1)^(n+1)/4 for n >= 1
    assert moments_from_cyclotomic(10, 4).sigma == (1, F(1, 4), F(-1, 4), F(1, 4), F(-1, 4))


def test_moments_from_kronecker_examples():
    assert moments_from_kronecker(KroneckerSpec([1, 2]), 2).sigma == (1, 0, 1)
    # frozen from the oracle (c_1 + c_2 + c_3)(n) / 4 for n = 0..3:
    # (1+1+2, 1-1-1, 1+1-1, 1-1+2) / 4
    assert moments_from_kronecker(KroneckerSpec([1, 2, 3]), 3).sigma == (
        1, F(-1, 4), F(1, 4), F(1, 2),
    )
    assert moments_from_kronecker(KroneckerSpec([5]), 1).sigma == (1, F(-1, 4))
    assert moments_from_kronecker(KroneckerSpec([5]), 4).sigma == moments_from_cyclotomic(5, 4).sigma


def test_moments_from_power_sums_examples():
    assert moments_from_power_sums(P(-1, 0, 1), 2).sigma == (1, 0, 1)
    assert (
        moments_from_power_sums(cyclotomic(5), 2).sigma
        == moments_from_cyclotomic(5, 2).sigma
        == (1, F(-1, 4), F(-1, 4))
    )
    assert (
        moments_from_power_sums(P(-1, -1, 0, 1, 1), 1).sigma
        == moments_from_kronecker(KroneckerSpec([1, 2, 3]), 1).sigma
    )


@settings(deadline=None, max_examples=150)
@given(
    coeffs=st.lists(rationals, max_size=6),
    constant=rationals.filter(bool),
    length=st.integers(min_value=0, max_value=12),
)
def test_power_sums_match_fraction_reference(coeffs, constant, length):
    charpoly = Poly([constant, *coeffs, 1])  # monic, rational, nonzero roots
    assert moments_from_power_sums(charpoly, length).sigma == newton_reference(charpoly, length)


def test_moments_from_power_sums_rejects():
    with pytest.raises(InvalidCharacteristicError):
        moments_from_power_sums(P(1, 2), 3)  # not monic
    with pytest.raises(InvalidCharacteristicError):
        moments_from_power_sums(P(0, 1), 3)  # root at zero


def test_power_sum_double_oracle_sweep():
    # every single order to 120: Newton's identities tie each coefficient of
    # C_m to the Ramanujan-sum moments, not only the top two (Vieta)
    singles = [[m] for m in range(1, 121)]
    for orders in (*singles, [1, 2], [2, 3], [1, 2, 3], [3, 4, 5], [1, 6, 10]):
        spec = KroneckerSpec(orders)
        L = spec.total_degree + 2
        assert (
            moments_from_power_sums(kronecker_poly(spec), L).sigma
            == moments_from_kronecker(spec, L).sigma
        )


def test_moment_sequence_validation():
    with pytest.raises(SingularMomentError):
        MomentSequence(sigma=(F(-1),))
    m = MomentSequence(sigma=(F(1), F(1, 2)))
    assert m.at(-1) == m.at(1) == F(1, 2)
    with pytest.raises(InsufficientMomentsError):
        m.at(2)


@pytest.mark.parametrize(
    "sigma, index, kind",
    [
        ((1, 0.5), 1, "float"),
        ((1.0, F(1, 2)), 0, "float"),
        (("1", "1/2"), 0, "str"),
        ((F(1), F(-1, 4), True), 2, "bool"),
        ((True,), 0, "bool"),
    ],
)
def test_moment_sequence_rejects_entries_that_are_not_rational(sigma, index, kind):
    message = f"sigma_{index} is a {kind}, not an int or a Fraction (explicit)"
    with pytest.raises(InvalidPayloadError, match=re.escape(message)):
        MomentSequence(sigma=sigma)


@pytest.mark.parametrize(
    "a, index, kind",
    [
        ((0.5, 1), 0, "float"),
        (("1/2", 1), 0, "str"),
        ((F(1, 2), 1.0), 1, "float"),
        ((F(1, 2), False, -1), 1, "bool"),  # |False| < 1 passed as an interior a_k
        ((True,), 0, "bool"),  # |True| = 1 passed as the terminal a_N
    ],
)
def test_verblunsky_sequence_rejects_entries_that_are_not_rational(a, index, kind):
    message = f"a_{index} is a {kind}, not an int or a Fraction"
    with pytest.raises(InvalidPayloadError, match=f"^{re.escape(message)}$"):
        VerblunskySequence(a)


@settings(deadline=None, max_examples=150)
@given(
    sigma_0=st.fractions(min_value=F(1, 8), max_value=3, max_denominator=12),
    rest=st.lists(rationals, max_size=9),
    factor=st.integers(-30, 30).filter(bool),
)
def test_stored_form_matches_the_public_constructor(sigma_0, rest, factor):
    sigma = (sigma_0, *rest)
    m = MomentSequence(sigma)
    ints, den = _scaled(sigma)
    assert m.den > 0 and gcd(m.den, *m.ints) == 1 and len(m.ints) == len(sigma)
    # any integer multiple of the form reads back the same values
    for stored in (
        MomentSequence.from_ints(ints, den, "explicit"),
        MomentSequence.from_ints([factor * c for c in ints], factor * den, "explicit"),
    ):
        assert stored == m and hash(stored) == hash(m)
        assert stored.sigma == m.sigma == sigma
    # the provenance label is not part of the value
    other = MomentSequence(sigma, "other")
    assert other == m and hash(other) == hash(m)


def test_moment_producers_build_no_fraction(monkeypatch):
    sturmian = sturmian_from_charpoly(kronecker_poly(KroneckerSpec([1, 2, 5])))
    assert any(phi.den > 1 for phi in sturmian.phis)
    spec = KroneckerSpec([7, 11, 13, 17, 19, 23, 29, 31])
    charpoly = P(F(1, 2), F(-2, 3), F(3, 4), 1)

    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built by a moment producer")

    with monkeypatch.context() as patch:
        for module in (opuc_core, polynomials):
            patch.setattr(module, "Fraction", no_fraction)
        cyclotomic_moments = moments_from_cyclotomic(211)
        kronecker_moments = moments_from_kronecker(spec)
        ladder_moments = moments_from_ladder(list(sturmian.phis), "sturmian")
        power_moments = moments_from_power_sums(charpoly, 8)
    assert cyclotomic_moments.ints == (210,) + (-1,) * 210 and cyclotomic_moments.den == 210
    newton = moments_from_power_sums(kronecker_poly(spec), spec.total_degree)
    assert kronecker_moments.sigma == newton.sigma
    assert ladder_moments == sturmian.moments
    assert power_moments.sigma == newton_reference(charpoly, 8)


# -- Toeplitz determinants ----------------------------------------------------


def test_toeplitz_examples():
    m5 = moments_from_cyclotomic(5)
    assert toeplitz_det(m5, 2) == F(15, 16)
    assert toeplitz_det(m5, 1) == 1
    assert toeplitz_det(m5, 0) == 1  # empty determinant convention
    assert toeplitz_det(moments_from_cyclotomic(5, 5), 5) == 0
    with pytest.raises(InsufficientMomentsError):
        toeplitz_det(m5, 6)


def test_toeplitz_against_gaussian_oracle():
    for m in (
        moments_from_cyclotomic(5),
        moments_from_cyclotomic(12),
        moments_from_kronecker(KroneckerSpec([2, 3, 8])),
        MomentSequence(sigma=(F(1), F(1, 3), F(-1, 7), F(2, 5), F(0))),
    ):
        for n in range(0, m.max_index + 2):
            if n - 1 > m.max_index:
                continue
            assert toeplitz_det(m, n) == det_gaussian(toeplitz_rows(m, n))


def test_leading_minors_match_single_determinants():
    sturmian = build_dual_pair(KroneckerSpec([1, 2, 5])).sturmian
    for m, n in (
        (moments_from_cyclotomic(7), 6),
        # multi-order: Bareiss pivots of about 160 bits
        (moments_from_kronecker(KroneckerSpec([7, 11, 13, 17])), 44),
        # Sturmian moments with non-trivial denominators
        (sturmian.moments, sturmian.n_max + 1),
    ):
        minors = leading_toeplitz_minors(m, n)
        assert minors == [toeplitz_det(m, k) for k in range(1, n + 1)]
    sing = MomentSequence(sigma=(F(1), F(1), F(1)))
    with pytest.raises(SingularMomentError):
        leading_toeplitz_minors(sing, 2)
    # the first non-positive minor comes late: Delta_3 = 0 for the two-point
    # measure, Delta_4 < 0 for (1, 0, 0, 2)
    for m, first_bad in (
        (moments_from_kronecker(KroneckerSpec([1, 2]), 3), 3),
        (MomentSequence(sigma=(F(1), F(0), F(0), F(2))), 4),
    ):
        dets = [toeplitz_det(m, k) for k in range(1, first_bad + 1)]
        assert all(d > 0 for d in dets[:-1]) and dets[-1] <= 0
        message = f"Delta_{first_bad} = {dets[-1]} is not positive ({m.provenance})"
        with pytest.raises(SingularMomentError, match=re.escape(message)):
            leading_toeplitz_minors(m, first_bad)


def _moments_through_verblunsky(coeffs, breaker, scale):
    """scale * the moments of the ladder built by szego_step from coeffs.
    They are positive-definite while every |a_k| < 1; a breaker (i, v)
    sets the coefficient i places from the end (cyclically) to v, where
    |v| >= 1, so Delta_{k+2} <= 0 for that a_k."""
    coeffs = list(coeffs)
    if breaker:
        back, value = breaker
        coeffs[-1 - back % len(coeffs)] = value
    phis = [P(1)]
    for a in coeffs:
        phis.append(szego_step(phis[-1], a))
    sigma = moments_from_ladder(phis, "verblunsky").sigma
    return MomentSequence(sigma=tuple(scale * s for s in sigma), provenance="verblunsky")


interior = st.fractions(min_value=-1, max_value=1, max_denominator=9).filter(lambda a: abs(a) < 1)
random_moments = st.one_of(
    # arbitrary rationals: mostly indefinite after a few minors
    st.builds(
        lambda s0, rest: MomentSequence(sigma=(s0, *rest), provenance="random"),
        st.fractions(min_value=F(1, 4), max_value=3, max_denominator=7),
        st.lists(rationals, min_size=1, max_size=9),
    ),
    # positive-definite, or turned indefinite by one |a_k| >= 1 at a random k
    st.builds(
        _moments_through_verblunsky,
        st.lists(interior, min_size=1, max_size=12),
        st.none() | st.tuples(
            st.integers(0, 11),
            st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(
                lambda a: abs(a) >= 1
            ),
        ),
        st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
    ),
)


@settings(max_examples=150, deadline=None)
@given(random_moments)
def test_leading_minors_match_determinants_on_random_moments(m):
    n = m.max_index + 1
    dets = [toeplitz_det(m, k) for k in range(1, n + 1)]
    first_bad = next((k for k, d in enumerate(dets, 1) if d <= 0), None)
    if first_bad is None:
        assert leading_toeplitz_minors(m, n) == dets
        return
    assert leading_toeplitz_minors(m, first_bad - 1) == dets[: first_bad - 1]
    message = f"Delta_{first_bad} = {dets[first_bad - 1]} is not positive ({m.provenance})"
    with pytest.raises(SingularMomentError, match=re.escape(message)):
        leading_toeplitz_minors(m, n)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(interior, max_size=12),
    # the last coefficient: interior (Delta_n > 0), unimodular (the singular
    # extension of an n-1 point measure, Delta_n = 0) or past the circle (< 0)
    interior | st.sampled_from([F(1), F(-1)]) | st.sampled_from([F(3, 2), F(-7, 5)]),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
)
def test_schur_minors_end_at_the_bareiss_determinant(coeffs, last, scale):
    m = _moments_through_verblunsky([*coeffs, last], None, scale)
    n = m.max_index + 1
    pivots, d = opuc_core._schur_minors(m, n)
    # integer pivots P_k = D^k Delta_k over the least common denominator D
    assert all(type(p) is int for p in pivots)
    assert d == lcm(*(s.denominator for s in m.sigma[:n]))
    minors = [F(p, d**k) for k, p in enumerate(pivots, 1)]
    assert minors == [toeplitz_det(m, k) for k in range(1, n + 1)]
    assert (pivots[-1] == 0) == (abs(last) == 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(interior, max_size=12), st.sampled_from([F(1), F(-1)]), st.data())
def test_integer_norms_match_products_and_a_perturbed_norm_is_caught(coeffs, last, data):
    """The integer norm recurrence against accumulate(1 - a^2) as the oracle,
    and the integer Toeplitz check against a norm bumped at any k."""
    m = _moments_through_verblunsky([*coeffs, last], None, 1)
    system = popuc_from_moments(m, len(coeffs) + 1)
    a = system.verblunsky.a
    oracle = tuple(accumulate((1 - x * x for x in a[:-1]), mul, initial=F(1)))
    assert system.h == oracle
    assert all(gcd(hn, hd) == 1 and hd > 0 for hn, hd in system._norms)
    assert system.delta == tuple(accumulate(oracle, mul))
    pivots, d = opuc_core._schur_minors(m, system.n_max + 1)
    system.check_delta(pivots, "Toeplitz minors", d)
    k = data.draw(st.integers(0, system.n_max), label="k")
    bump = data.draw(st.sampled_from([F(1, 101), F(-1, 101), F(1, 2) * oracle[k]]), label="bump")
    norms = list(system._norms)
    wrong = oracle[k] + bump
    norms[k] = (wrong.numerator, wrong.denominator)
    system.__dict__["_norms"] = tuple(norms)
    own = system.delta[k] * wrong / oracle[k]  # h_k replaced in the product
    message = (
        f"Delta_{k + 1} = {system.delta[k]} by Toeplitz minors, but {own} from the "
        f"norms ({system.family})"
    )
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        system.check_delta(pivots, "Toeplitz minors", d)


# -- inner product ------------------------------------------------------------


def test_inner_product_examples():
    m5 = moments_from_cyclotomic(5)
    sys5 = popuc_from_moments(m5, 4)
    phi0, phi1, phi2 = sys5.phis[0], sys5.phis[1], sys5.phis[2]
    assert inner_product(m5, phi1, phi0) == 0
    assert inner_product(m5, phi1, phi1) == F(15, 16)
    assert inner_product(m5, phi2, phi2) == F(5, 6)
    with pytest.raises(InsufficientMomentsError):
        inner_product(m5, Poly.monomial(6), phi0)


def test_gram_matrix_is_diag_h():
    for m, count in (
        (moments_from_cyclotomic(7), 6),
        (moments_from_kronecker(KroneckerSpec([1, 2, 5])), 6),
    ):
        system = popuc_from_moments(m, count)
        g = gram_matrix(m, list(system.phis[:-1]))
        for i in range(count):
            for j in range(count):
                assert g[i][j] == (system.h[i] if i == j else 0)
                assert g[i][j] == inner_product(m, system.phis[i], system.phis[j])


@settings(deadline=None, max_examples=100)
@given(
    sigma_0=rationals.filter(lambda s: s > 0),
    sigma=st.lists(rationals, min_size=5, max_size=5),
    polys=st.lists(rational_polys, max_size=4),
)
def test_gram_and_inner_product_match_fraction_reference(sigma_0, sigma, polys):
    m = MomentSequence(sigma=(sigma_0, *sigma))
    polys = [*polys, Poly.zero()]
    reference = gram_reference(m, polys)
    assert gram_matrix(m, polys) == reference
    for i, p in enumerate(polys):
        for j, q in enumerate(polys):
            assert inner_product(m, p, q) == reference[i][j]


@st.composite
def gram_inputs(draw):
    """Moments sigma_0..sigma_L (L <= 6) and up to 8 polynomials of degree
    <= L in any order, drawn from a small pool that holds the zero
    polynomial, so duplicates and zeros land anywhere in the list."""
    sigma_0 = draw(rationals.filter(lambda s: s > 0))
    m = MomentSequence(sigma=(sigma_0, *draw(st.lists(rationals, max_size=6))))
    coeff_lists = st.lists(rationals, max_size=m.max_index + 1)
    pool = [*draw(st.lists(coeff_lists.map(Poly), min_size=1, max_size=4)), Poly.zero()]
    return m, draw(st.lists(st.sampled_from(pool), max_size=8))


@settings(deadline=None, max_examples=150)
@given(inputs=gram_inputs(), position=st.integers(0, 8), lead=rationals.filter(bool))
def test_gram_matrix_symmetric_half_matches_fraction_reference(inputs, position, lead):
    m, polys = inputs
    g = gram_matrix(m, polys)
    assert g == gram_reference(m, polys)
    assert all(g[i][j] == g[j][i] for i in range(len(polys)) for j in range(len(polys)))
    too_high = Poly.monomial(m.max_index + 1, lead)
    with pytest.raises(InsufficientMomentsError):
        gram_matrix(m, [*polys[:position], too_high, *polys[position:]])


@pytest.mark.parametrize(
    "m, count",
    [
        (moments_from_cyclotomic(7), 6),
        (moments_from_kronecker(KroneckerSpec([1, 2, 5])), 6),
    ],
    ids=["M=7", "orders=1,2,5"],
)
def test_gram_matrix_sees_a_perturbed_rung_in_its_row_and_column(m, count):
    """Adding 1/101 * z^k (k < n) to Phi_n makes <Phi_n, Phi_k> = h_k / 101
    nonzero; the Gram matrix, which computes each pair once, must show it
    at both (n, k) and (k, n)."""
    phis = list(popuc_from_moments(m, count).phis)
    for n in range(1, count + 1):
        for k in range(n):
            coeffs = list(phis[n].coeffs)
            coeffs[k] += F(1, 101)
            tampered = [*phis[:n], Poly(coeffs), *phis[n + 1 :]]
            g = gram_matrix(m, tampered)
            assert any(g[n][j] for j in range(len(g)) if j != n)
            assert any(g[i][n] for i in range(len(g)) if i != n)
            assert g == gram_reference(m, tampered)


@st.composite
def szego_chains(draw):
    """A Szego chain Phi_0..Phi_n with rational |a_k| < 1, on the moments the
    chain itself implies or on random ones, then any of: every polynomial
    scaled by a nonzero rational (negative ones included), a rational added
    to one coefficient, zero polynomials interleaved, entries duplicated,
    the list shuffled.  Scaling keeps the remainder against the rung below
    at R = 0 with any nonzero leading coefficients; a moved coefficient
    leaves R != 0 or a degree gap; zeros, duplicates and shuffles put a
    zero, an equal degree or a gap before a rung."""
    phis = [Poly.one()]
    for a in draw(st.lists(rationals.filter(lambda a: abs(a) < 1), max_size=7)):
        phis.append(szego_step(phis[-1], a))
    if draw(st.booleans()):
        m = moments_from_ladder(phis, "chain")
    else:
        sigma = draw(st.lists(rationals, min_size=len(phis) - 1, max_size=len(phis) - 1))
        m = MomentSequence(sigma=(draw(rationals.filter(lambda s: s > 0)), *sigma))
    polys = list(phis)
    if draw(st.booleans()):
        polys = [p * draw(rationals.filter(bool)) for p in polys]
    if draw(st.booleans()):
        n = draw(st.integers(0, len(polys) - 1))
        coeffs = list(polys[n].coeffs)
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(rationals)
        polys[n] = Poly(coeffs)
    for _ in range(draw(st.integers(0, 2))):
        polys.insert(draw(st.integers(0, len(polys))), Poly.zero())
    for _ in range(draw(st.integers(0, 2))):
        polys.append(draw(st.sampled_from(polys)))
    if draw(st.booleans()):
        polys = draw(st.permutations(polys))
    return m, polys


@settings(deadline=None, max_examples=200)
@given(inputs=szego_chains())
def test_gram_matrix_rows_from_the_rung_below_match_fraction_reference(inputs):
    m, polys = inputs
    assert gram_matrix(m, polys) == gram_reference(m, polys)


@pytest.mark.parametrize("orders", [(43,), (10, 15, 25, 34)], ids=["M=43", "orders=10,15,25,34"])
def test_gram_matrix_of_a_ladder_sums_one_moment_row(monkeypatch, orders):
    """Every rung's moment row comes from the rung below, so over
    Phi_0..Phi_N only the degree-0 rung sums a row from the moments."""
    pair = build_dual_pair(KroneckerSpec(orders))
    calls = []
    row = opuc_core._moment_row
    monkeypatch.setattr(opuc_core, "_moment_row", lambda *args: calls.append(args[2]) or row(*args))
    for system in (pair.ramanujan, pair.sturmian):
        calls.clear()
        n = system.n_max + 1
        g = gram_matrix(system.moments, list(system.phis[:-1]))
        assert g == [[system.h[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert calls == [Poly.one()], system.family


def test_gram_matrix_names_the_degree_and_the_last_moment():
    m = MomentSequence(sigma=(1, F(1, 2), F(1, 3)))
    with pytest.raises(
        InsufficientMomentsError,
        match=r"^Gram matrix of degree 3 needs moments up to index 3, has up to 2$",
    ):
        gram_matrix(m, [Poly.one(), Poly.monomial(3), Poly.monomial(1)])


# -- recurrence steps ---------------------------------------------------------


def test_szego_step_examples():
    assert szego_step(Poly.one(), F(-1, 4)) == P(F(1, 4), 1)
    assert szego_step(Poly.one(), F(0)) == P(0, 1)
    # Frozen via the bordered-determinant oracle below: stepping z + 1/2
    # with coefficient -1/3 lands on the degree-2 rung of the ladder whose
    # moments are reconstructed from [1, z+1/2, ...], NOT on z^2+(1/3)(z+1).
    stepped = szego_step(P(F(1, 2), 1), F(-1, 3))
    assert stepped == P(F(1, 3), F(2, 3), 1)
    ladder = [Poly.one(), P(F(1, 2), 1), stepped]
    m = moments_from_ladder(ladder, provenance="test")
    assert determinant_formula_poly(m, 2) == stepped


def test_inverse_szego_examples():
    assert inverse_szego_step(P(F(1, 4), 1)) == (Poly.one(), F(-1, 4))
    assert inverse_szego_step(P(F(-1, 5), F(1, 5), 1)) == (P(F(1, 4), 1), F(1, 5))
    with pytest.raises(UnimodularConstantTermError):
        inverse_szego_step(P(-1, 0, 1))


@settings(deadline=None, max_examples=200)
@given(
    coeffs=st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=9), min_size=0, max_size=5
    ),
    a=st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
def test_inverse_szego_round_trip(coeffs, a):
    if abs(a) == 1:
        return
    phi = Poly(list(coeffs) + [1])  # random monic
    recovered, a_rec = inverse_szego_step(szego_step(phi, a))
    assert recovered == phi and a_rec == a


# -- the ladder builder -------------------------------------------------------


def test_popuc_prime_example():
    sys5 = popuc_from_moments(moments_from_cyclotomic(5), 4, paranoid=True)
    assert sys5.verblunsky.a == (F(-1, 4), F(-1, 3), F(-1, 2), F(-1))
    assert sys5.terminal == cyclotomic(5)
    assert sys5.h == (1, F(15, 16), F(5, 6), F(5, 8))
    assert sys5.delta == (1, F(15, 16), F(25, 32), F(125, 256))


def test_popuc_two_point_example():
    system = popuc_from_moments(moments_from_kronecker(KroneckerSpec([1, 2])), 2)
    assert system.phis[1] == P(0, 1)
    assert system.phis[2] == P(-1, 0, 1)
    assert system.verblunsky.a == (0, 1)


def test_popuc_anti_cyclotomic_example():
    system = popuc_from_moments(moments_from_kronecker(KroneckerSpec([1, 2, 3])), 4)
    assert system.verblunsky.a == (F(-1, 4), F(1, 5), F(2, 3), 1)


def test_popuc_rejects_singular_and_open_moments():
    # sigma == 1 forever is a single point mass: Delta_2 = 0 kills N+1 = 2
    with pytest.raises(SingularMomentError):
        popuc_from_moments(MomentSequence(sigma=(F(1), F(1), F(1))), 2)
    # normalized arc measure: all |a_n| would be 0, never unimodular
    with pytest.raises(TerminalMassError):
        popuc_from_moments(MomentSequence(sigma=(F(1), 0, 0, 0)), 3)
    with pytest.raises(InsufficientMomentsError):
        popuc_from_moments(moments_from_cyclotomic(5, 2), 4)


def test_popuc_schur_sweep_stops_at_a_minor_that_is_not_positive():
    def build(*sigma):
        return popuc_from_moments(MomentSequence(tuple(F(s) for s in sigma)), 2)

    # z^2 + 1/4: roots +-i/2, Delta_3 = 15/16 != 0, and |a_1| = 1/4
    message = "|a_1| = 1/4 != 1: moments do not describe an 2-point measure"
    with pytest.raises(TerminalMassError, match=re.escape(message)):
        build(1, 0, "-1/4")
    # (z - 2)(z - 3): Delta_2 = -21/4, where the sweep stops
    with pytest.raises(SingularMomentError, match=re.escape("Delta_2 = -21/4 is not positive")):
        build(1, "5/2", "13/2")
    # z^2 - 2z - 1: Delta_2 = 0 and Delta_3 = -4; a zero lower minor stops it too
    with pytest.raises(SingularMomentError, match=re.escape("Delta_2 = 0 is not positive")):
        build(1, 1, 3)
    # z^2 - 1, the two-point measure on +-1: Delta_3 = 0 closes the ladder
    assert build(1, 0, 1).terminal == P(-1, 0, 1)


def test_determinant_formula_matches_recurrence():
    for m, count in (
        (moments_from_cyclotomic(9), euler_totient(9)),
        (moments_from_kronecker(KroneckerSpec([3, 4])), 4),
    ):
        system = popuc_from_moments(m, count, paranoid=True)
        for n in range(count + 1):
            assert determinant_formula_poly(m, n) == system.phis[n]


def bordered_oracle(m, n):
    """Phi_n as the cofactors of the bordered moment matrix, by Gaussian
    elimination on Fractions, over Delta_n from ``toeplitz_det``."""
    rows = [[m.at(c - i) for c in range(n + 1)] for i in range(n)]
    cofactors = [det_gaussian([r[:j] + r[j + 1 :] for r in rows]) for j in range(n + 1)]
    return Poly([(-1) ** (n + j) * c for j, c in enumerate(cofactors)]) * (1 / toeplitz_det(m, n))


def test_determinant_formula_rejects_a_zero_minor_and_divides_by_a_negative_one():
    message = "Delta_2 = 0; determinant formula undefined"
    with pytest.raises(SingularMomentError, match=re.escape(message)):
        determinant_formula_poly(MomentSequence((1, 1, 1)), 2)
    indefinite = MomentSequence((1, F(5, 2), F(13, 2)))
    assert toeplitz_det(indefinite, 2) == F(-21, 4)
    expected = P(F(1, 21), F(-55, 21), 1)
    assert determinant_formula_poly(indefinite, 2) == expected == bordered_oracle(indefinite, 2)
    assert determinant_formula_poly(indefinite, 0) == Poly.one()
    with pytest.raises(InvalidModulusError, match=re.escape("rung index must be >= 0, got -1")):
        determinant_formula_poly(indefinite, -1)


@settings(max_examples=40, deadline=None)
@given(random_moments)
def test_determinant_formula_matches_the_cofactor_oracle_on_random_moments(m):
    """Every rung the moments define, positive, negative or zero minors
    below it: Delta_n read off the last cofactor is Delta_n by Bareiss."""
    assert determinant_formula_poly(m, 0) == Poly.one()
    for n in range(1, m.max_index + 1):
        if toeplitz_det(m, n) == 0:
            with pytest.raises(SingularMomentError, match=re.escape(f"Delta_{n} = 0;")):
                determinant_formula_poly(m, n)
        else:
            assert determinant_formula_poly(m, n) == bordered_oracle(m, n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(interior, max_size=12),
    interior | st.sampled_from([F(1), F(-1)]),
    st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9),
)
def test_one_elimination_gives_every_rung_of_the_determinant_formula(coeffs, last, scale):
    """Positive minors below the last one, which may be 0 (a ladder's
    terminal rung): no swap, and row n of the one elimination of [T | I]
    is D^n Delta_n times determinant_formula_poly(m, n), then zeros."""
    m = _moments_through_verblunsky([*coeffs, last], None, scale)
    count = m.max_index + 1
    swaps, rows = opuc_core._bordered_elimination(m, count)
    assert swaps == 0
    d = lcm(*(s.denominator for s in m.sigma))
    for n, row in enumerate(rows):
        assert row[n + 1 :] == [0] * (count - 1 - n)
        assert row[n] == d**n * toeplitz_det(m, n)
        assert Poly.from_ints(row, row[n]) == determinant_formula_poly(m, n)


@pytest.mark.parametrize("orders", [(7,), (1, 2, 5)])
def test_paranoid_check_catches_every_rung_perturbation(orders):
    """Every coefficient below the leading one of every rung, moved by
    +-1/101, is caught at that rung with the message the per-rung
    determinant formula gives, on both families."""
    pair = build_dual_pair(KroneckerSpec(orders))
    for system, route in ((pair.ramanujan, "recurrence"), (pair.sturmian, "descent")):
        m = system.moments
        opuc_core._check_rungs_by_determinants(m, system.phis, route)
        for n in range(1, len(system.phis)):
            formula = determinant_formula_poly(m, n)
            for k in range(n):
                for bump in (F(1, 101), F(-1, 101)):
                    phis = list(system.phis)
                    phis[n] = phis[n] + Poly([0] * k + [bump])
                    message = f"rung {n}: {route} gives {phis[n]}, determinant formula {formula}"
                    with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
                        opuc_core._check_rungs_by_determinants(m, phis, route)


@pytest.mark.parametrize("sigma", [(1, 1, 0), (1, 1, 1)])
def test_paranoid_check_raises_where_the_elimination_needs_a_row_swap(sigma):
    """Delta_2 = 0 needs a swap at column 1, (1, 1, 0), or finds no pivot
    there, (1, 1, 1); the builders' proof of Delta_1..Delta_{N+1} > 0 rules
    both out, so the check raises."""
    message = "Delta_k = 0 for some k < 3 (explicit)"
    phis = [P(1), P(-1, 1), P(0, -1, 1)]
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        opuc_core._check_rungs_by_determinants(MomentSequence(sigma), phis, "test")


def test_the_levinson_loop_takes_no_norm_step(monkeypatch):
    """h_n has one home, ``PopucSystem._norms``: a build steps the norm
    recurrence N times, once per h_1..h_N, when check_delta reads them."""
    steps = []
    step = opuc_core._norm_step
    monkeypatch.setattr(opuc_core, "_norm_step", lambda h, a: steps.append(a) or step(h, a))
    system = popuc_from_moments(moments_from_cyclotomic(211), 210)
    assert len(steps) == system.n_max == 209
    assert tuple(steps) == system.verblunsky.a[:-1]


def test_terminal_is_cyclotomic_sweep():
    for m in range(1, 61):
        system = popuc_from_moments(
            moments_from_cyclotomic(m), euler_totient(m), family=f"sweep:{m}"
        )
        assert system.terminal == cyclotomic(m)


def test_singular_extension_of_finite_measures():
    for orders in ([1], [2], [5], [6], [1, 2], [1, 2, 3], [3, 4]):
        spec = KroneckerSpec(orders)
        n1 = spec.total_degree
        m = moments_from_kronecker(spec, n1 + 1)
        assert toeplitz_det(m, n1 + 1) == 0  # Delta_{N+2}
        assert all(toeplitz_det(m, k) > 0 for k in range(1, n1 + 1))
        assert toeplitz_det(_sturmian_moments(orders), n1 + 1) == 0  # the mirror side too


@pytest.mark.parametrize(
    "m, count",
    [
        (moments_from_cyclotomic(7), 6),
        (moments_from_kronecker(KroneckerSpec([1, 2, 5])), 6),
    ],
    ids=["M=7", "orders=1,2,5"],
)
def test_annihilation_check_catches_every_perturbed_coefficient(m, count):
    phis = list(popuc_from_moments(m, count).phis)
    _verify_annihilation(m, phis)
    for n in range(1, count + 1):
        for k in range(n):  # every coefficient below the leading one
            for delta in (F(1, 101), F(-7, 101)):
                coeffs = list(phis[n].coeffs)
                coeffs[k] += delta
                tampered = [*phis[:n], Poly(coeffs), *phis[n + 1 :]]
                j, val = first_annihilation_defect(m, tampered[n])
                message = f"<Phi_{n}, z^{j}> = {val} != 0 ({m.provenance})"
                with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
                    _verify_annihilation(m, tampered)


def first_ladder_defect(m: MomentSequence, phis):
    """(n, j, <Phi_n, z^j>) for the lowest rung that fails to annihilate
    some z^j, j < n, by the Fraction reference; None for a sound ladder."""
    for n in range(1, len(phis)):
        defect = first_annihilation_defect(m, phis[n], below=n)
        if defect:
            return (n, *defect)
    return None


def assert_check_matches_reference(m: MomentSequence, phis):
    defect = first_ladder_defect(m, phis)
    assert defect, "the fault left every rung annihilating"
    n, j, val = defect
    message = f"<Phi_{n}, z^{j}> = {val} != 0 ({m.provenance})"
    with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
        _verify_annihilation(m, phis)


def _sturmian_moments(orders):
    return build_dual_pair(KroneckerSpec(orders)).sturmian.moments


@pytest.mark.parametrize(
    "m",
    [
        moments_from_cyclotomic(31),
        moments_from_kronecker(KroneckerSpec([1, 2, 5, 7, 9])),
        _sturmian_moments([1, 2, 5, 7]),
    ],
    ids=["M=31", "orders=1,2,5,7,9", "sturmian 1,2,5,7"],
)
def test_recurrence_check_catches_wrong_ladders(m):
    """The O(N^2) check (recurrence plus <Phi_n, 1>) gives the verdict and
    the message of the direct O(N^3) sums on faulty ladders: a recurrence
    without the reversal, one a_n off by 1/97, and random perturbations of
    one to three coefficients below the leading ones."""
    system = popuc_from_moments(m, m.max_index)
    phis, a = list(system.phis), list(system.verblunsky)
    _verify_annihilation(m, phis)
    assert first_ladder_defect(m, phis) is None

    no_reversal = [Poly.one()]
    for a_n in a:
        no_reversal.append(P(0, 1) * no_reversal[-1] - no_reversal[-1] * a_n)
    assert_check_matches_reference(m, no_reversal)

    for off in range(len(a)):
        shifted = [Poly.one()]
        for n, a_n in enumerate(a):
            shifted.append(szego_step(shifted[-1], a_n + (F(1, 97) if n == off else 0)))
        assert_check_matches_reference(m, shifted)

    rng = random.Random(f"perturb {m.provenance}")
    for _ in range(40):
        tampered = list(phis)
        for _ in range(rng.randint(1, 3)):
            n = rng.randrange(1, len(phis))
            coeffs = list(tampered[n].coeffs)
            delta = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 200))
            coeffs[rng.randrange(n)] += delta
            tampered[n] = Poly(coeffs)
        assert_check_matches_reference(m, tampered)


def test_recurrence_check_catches_rungs_of_the_wrong_degree():
    # sigma_t = 0 unless 9 divides t, so <Phi_n, 1> alone misses these rungs
    m = moments_from_cyclotomic(27)
    phis = list(popuc_from_moments(m, 18).phis)
    for n in range(9, 19):
        tampered = [*phis[:n], phis[n] - P(*[0] * n, 1), *phis[n + 1 :]]
        assert_check_matches_reference(m, tampered)
    for n in range(8, 18):
        tampered = [*phis[:n], phis[n] + P(*[0] * (n + 1), 1), *phis[n + 1 :]]
        assert_check_matches_reference(m, tampered)


def test_recurrence_check_names_an_annihilating_rung_off_the_recurrence():
    # two-point measure on +-1: Delta_3 = 0, so Phi_4 is not unique
    two_point = moments_from_kronecker(KroneckerSpec([1, 2]), 4)
    # a rung that is not monic: 98/97 Phi_5 annihilates what Phi_5 does
    cyclotomic = moments_from_cyclotomic(31)
    scaled = list(popuc_from_moments(cyclotomic, 30).phis)
    scaled[5] = scaled[5] * F(98, 97)
    for m, phis, n in (
        (two_point, [P(1), P(0, 1), P(-1, 0, 1), P(0, -1, 0, 1), P(0, -1, -1, 1, 1)], 4),
        (cyclotomic, scaled, 5),
    ):
        assert first_ladder_defect(m, phis) is None
        message = (
            f"Phi_{n} annihilates z^0..z^{n - 1} but is not z Phi_{n - 1} - a Phi_{n - 1}^*, "
            f"a = -Phi_{n}(0) ({m.provenance})"
        )
        with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
            _verify_annihilation(m, phis)


@pytest.mark.parametrize(
    "build",
    [
        lambda: popuc_from_moments(moments_from_cyclotomic(7), 6, paranoid=True),
        lambda: sturmian_from_charpoly(anti_cyclotomic(10), paranoid=True),
    ],
    ids=["popuc_from_moments M=7", "sturmian_from_charpoly anti_cyclotomic(10)"],
)
def test_delta_check_catches_every_perturbed_minor(monkeypatch, build):
    """Every Delta_k, k <= N+1, is matched against the norms, and both
    sides close with Delta_{N+2}, which must be 0.  Under paranoid=True
    both sides check the integer pivots P_k = D^k Delta_k of their one
    bordered elimination (``_check_rungs_by_determinants``), which the
    Bareiss oracle confirms, each moved by one unit up and down in turn."""
    system = build()
    n2 = system.n_max + 2
    pivots_of = opuc_core._check_rungs_by_determinants
    pivots, d = pivots_of(system.moments, system.phis, "test")
    minors = [F(p, d**k) for k, p in enumerate(pivots, 1)]
    assert minors == [toeplitz_det(system.moments, k) for k in range(1, n2 + 1)]
    for k in range(1, n2 + 1):
        for unit in (1, -1):

            def bumped(m, phis, route, k=k, unit=unit):
                pivots, scale = pivots_of(m, phis, route)
                pivots[k - 1] += unit
                return pivots, scale

            monkeypatch.setattr(opuc_core, "_check_rungs_by_determinants", bumped)
            step = F(unit, d**k)  # one unit of P_k in Delta_k
            if k < n2:
                own = system.delta[k - 1]
                message = (
                    f"Delta_{k} = {own + step} by Toeplitz minors, but {own} from the "
                    f"norms ({system.family})"
                )
            else:
                message = (
                    f"Delta_{n2} = {step} by Toeplitz minors, but |a_{system.n_max}| = 1 "
                    f"makes it 0 ({system.family})"
                )
            with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
                build()


@pytest.mark.parametrize(
    "orders", [[7], [1, 2, 5], [1, 6, 13, 15, 21, 25, 26, 35]], ids=["M=7", "1,2,5", "8 orders"]
)
def test_sturmian_last_moment_is_proven_by_the_closing_minor(monkeypatch, orders):
    """sigma_{N+1} of the Sturmian side enters no minor below Delta_{N+2}
    and no rung below Phi_{N+1}: raised by one unit over its denominator,
    it is caught by the annihilation check of the terminal rung,
    <Phi_{N+1}, 1> = that unit, with or without the paranoid check.  The
    paranoid check alone catches it too, and the Bareiss oracle confirms
    that it moves Delta_{N+2} off 0."""
    recover = duality.moments_from_ladder
    seen, units = [], []

    def raised(phis, provenance):
        m = recover(phis, provenance)
        units.append(F(1, m.den))
        seen.append(_raised(m, m.max_index))
        return seen[-1]

    monkeypatch.setattr(duality, "moments_from_ladder", raised)
    spec = KroneckerSpec(orders)
    n1 = spec.total_degree
    for paranoid in (False, True):
        with pytest.raises(InternalInconsistencyError) as err:
            build_dual_pair(spec, paranoid=paranoid)
        assert str(err.value) == f"<Phi_{n1}, z^0> = {units[-1]} != 0 (sturmian:{spec.label})"
    monkeypatch.setattr(opuc_core, "_verify_annihilation", lambda m, phis: None)
    with pytest.raises(InternalInconsistencyError, match=f"^rung {n1}: descent gives "):
        build_dual_pair(spec, paranoid=True)
    delta = toeplitz_det(seen[0], n1 + 1)
    assert delta != 0
    if orders == [7]:
        assert delta == F(1, 16)


FAULT_SPECS = [[7], [1, 2, 5], [1, 6, 13, 15, 21, 25, 26, 35]]


def _raised(m: MomentSequence, k: int) -> MomentSequence:
    """m with sigma_k raised by one unit over its denominator."""
    ints = list(m.ints)
    ints[k] += 1
    return MomentSequence.from_ints(ints, m.den, m.provenance)


@pytest.mark.parametrize("orders", FAULT_SPECS, ids=["M=7", "1,2,5", "8 orders"])
def test_annihilation_catches_every_single_moment_bump_on_both_sides(orders):
    """The annihilation check ties a built ladder to its moments: any
    sigma_k, 1 <= k <= N+1, raised by one unit over its denominator is
    rejected on both sides, at the rung Phi_k, where <Phi_k, 1> moves by
    that unit."""
    pair = build_dual_pair(KroneckerSpec(orders))
    for system in (pair.ramanujan, pair.sturmian):
        m, phis = system.moments, list(system.phis)
        _verify_annihilation(m, phis)
        for k in range(1, system.n_max + 2):
            message = f"<Phi_{k}, z^0> = {F(1, m.den)} != 0 ({m.provenance})"
            with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
                _verify_annihilation(_raised(m, k), phis)


@pytest.mark.parametrize("orders", FAULT_SPECS, ids=["M=7", "1,2,5", "8 orders"])
def test_every_sturmian_moment_bump_fails_the_default_build(monkeypatch, orders):
    recover = duality.moments_from_ladder
    spec = KroneckerSpec(orders)
    unit = F(1, build_dual_pair(spec).sturmian.moments.den)
    for k in range(1, spec.total_degree + 1):
        monkeypatch.setattr(
            duality, "moments_from_ladder", lambda phis, provenance, k=k: _raised(recover(phis, provenance), k)
        )
        message = f"<Phi_{k}, z^0> = {unit} != 0 (sturmian:{spec.label})"
        with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
            build_dual_pair(spec)


@pytest.mark.parametrize("orders", [[7], [1, 2, 5]], ids=["M=7", "1,2,5"])
def test_a_rung_off_its_coefficient_fails_the_default_build(monkeypatch, orders):
    """szego_step using a_n + 1/101 for one n: the stored a_n then differs
    from -Phi_{n+1}(0).  The builder compares them before it tests
    |a_N| = 1, so at every step the fault is named as the recurrence's, at
    its own n, not as the moments' (TerminalMassError)."""
    step = opuc_core.szego_step
    spec = KroneckerSpec(orders)
    n_max = spec.total_degree - 1
    for off in range(n_max + 1):
        calls = []

        def wrong(phi, a, off=off):
            calls.append(a)
            return step(phi, a + F(1, 101) if len(calls) == off + 1 else a)

        monkeypatch.setattr(opuc_core, "szego_step", wrong)
        message = f"ramanujan:{spec.label} Phi_{off + 1} is not z Phi_{off} - a_{off} Phi_{off}^*"
        with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
            build_dual_pair(spec)


def test_the_default_build_runs_no_schur_sweep(monkeypatch):
    """Neither builder reaches ``_schur_minors``, with or without the
    paranoid check, whose minors come from its own elimination."""

    def forbidden(*args):
        raise AssertionError("a builder ran the Schur sweep")

    for namespace in (opuc_core, duality):
        monkeypatch.setattr(namespace, "_schur_minors", forbidden, raising=False)
    for orders, paranoid in (([7], False), ([7], True), ([211], False), ([1, 2, 5], False),
                             ([1, 2, 5], True), ([31], True)):
        pair = build_dual_pair(KroneckerSpec(orders), paranoid=paranoid)
        assert pair.ramanujan.terminal == pair.sturmian.terminal


def test_both_builders_prove_through_one_door(monkeypatch):
    """Both sides of a paranoid dual pair run the annihilation check and
    the bordered elimination through ``opuc_core._proven_ladder``, once
    per side: ``duality`` binds no proof helper of its own to call."""
    calls = {}
    for name in ("_verify_annihilation", "_check_rungs_by_determinants"):

        def counted(*args, check=getattr(opuc_core, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return check(*args)

        monkeypatch.setattr(opuc_core, name, counted)
    build_dual_pair(KroneckerSpec([1, 2, 5]), paranoid=True)
    assert calls == {"_verify_annihilation": 2, "_check_rungs_by_determinants": 2}
    for name in ("_check_closed_minors", "_check_constant_terms",
                 "_check_rungs_by_determinants", "_verify_annihilation"):
        assert not hasattr(duality, name), name


def test_loader_and_builders_share_the_constant_term_check():
    """One helper compares a_n with -Phi_{n+1}(0); the loader's message is
    unchanged, and a builder's names the family."""
    system = build_dual_pair(KroneckerSpec([7])).sturmian
    a = list(system.verblunsky)
    a[2] = -a[2]
    wrong = PopucSystem(system.family, system.moments, system.phis, VerblunskySequence(tuple(a)))
    for source, message in (
        ("payload", "payload Phi_3 is not z Phi_2 - a_2 Phi_2^*"),
        (system.family, "sturmian:7 Phi_3 is not z Phi_2 - a_2 Phi_2^*"),
    ):
        with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
            opuc_core._check_constant_terms(wrong.verblunsky, wrong.phis, source)
    payload = system.to_json_dict()
    payload["verblunsky"] = wrong.verblunsky.to_json_list()
    with pytest.raises(InternalInconsistencyError, match=re.escape("payload Phi_3 is not")):
        PopucSystem.from_json_dict(payload)


def _fraction_constant_term_check(verblunsky, phis, source):
    """The constant-term check as it read on Fractions: the oracle of the
    integer comparison in ``_check_constant_terms``."""
    for n, a_n in enumerate(verblunsky):
        if a_n != -phis[n + 1][0]:
            raise InternalInconsistencyError(
                f"{source} Phi_{n + 1} is not z Phi_{n} - a_{n} Phi_{n}^*"
            )


@pytest.mark.parametrize(
    "orders", [[7], [1, 2, 5], [1, 6, 13, 15, 21, 25, 26, 35]], ids=["M=7", "1,2,5", "8 orders"]
)
def test_the_integer_constant_term_check_sees_every_fault_the_fraction_check_sees(orders):
    """On both ladder sides and at every n, a rung's constant-term numerator
    moved by +-1 and a_n negated each raise the exact message at that n,
    as the Fraction comparison does; the unfaulted ladders pass both."""
    pair = build_dual_pair(KroneckerSpec(orders))
    for system in (pair.ramanujan, pair.sturmian):
        a, phis = list(system.verblunsky), list(system.phis)
        for check in (opuc_core._check_constant_terms, _fraction_constant_term_check):
            check(a, phis, system.family)
        for n, a_n in enumerate(a):
            assert a_n, (system.family, n)  # so that negating it is a fault
            rung = phis[n + 1]
            faults = [(a[:n] + [-a_n] + a[n + 1 :], phis)]
            for step in (1, -1):
                moved = Poly.from_ints((rung.ints[0] + step, *rung.ints[1:]), rung.den)
                faults.append((a, phis[: n + 1] + [moved] + phis[n + 2 :]))
            message = f"{system.family} Phi_{n + 1} is not z Phi_{n} - a_{n} Phi_{n}^*"
            for fault in faults:
                for check in (opuc_core._check_constant_terms, _fraction_constant_term_check):
                    with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
                        check(*fault, system.family)


def test_moments_from_ladder_inverts_construction():
    m = moments_from_cyclotomic(7)
    system = popuc_from_moments(m, 6)
    rebuilt = moments_from_ladder(list(system.phis), provenance="rebuilt")
    assert rebuilt.sigma == m.sigma


# -- data types ---------------------------------------------------------------


def test_verblunsky_validation():
    with pytest.raises(TerminalMassError):
        VerblunskySequence((F(1, 2),))
    with pytest.raises(SingularMomentError):
        VerblunskySequence((F(3, 2), F(1)))
    for unimodular in (F(1), F(-1)):  # |a_k| = 1 below the terminal index
        with pytest.raises(SingularMomentError):
            VerblunskySequence((unimodular, F(1)))
    v = VerblunskySequence((F(-1, 2), F(1)))
    assert v.n_max == 1 and list(v) == [F(-1, 2), F(1)]


def test_verblunsky_sequence_raises_the_interior_error_below_the_terminal_index():
    message = "|a_0| = 3/2 >= 1 below the terminal index"
    with pytest.raises(InteriorCoefficientOutOfRangeError, match=f"^{re.escape(message)}$"):
        VerblunskySequence((F(3, 2), F(1)))


def test_popuc_system_json_round_trip():
    system = popuc_from_moments(moments_from_kronecker(KroneckerSpec([1, 2, 3])), 4)
    clone = PopucSystem.from_json_dict(system.to_json_dict())
    assert clone.phis == system.phis
    assert clone.verblunsky == system.verblunsky
    assert clone.h == system.h
    assert clone.delta == system.delta
    assert clone.moments.sigma == system.moments.sigma


def test_from_json_dict_rejects_payloads_that_disagree_with_verblunsky():
    payload = popuc_from_moments(moments_from_cyclotomic(7), 6).to_json_dict()
    PopucSystem.from_json_dict(payload)

    def edit(key, index, value):
        return {**payload, key: [*payload[key][:index], value, *payload[key][index + 1 :]]}

    for tampered, message in (
        (edit("phis", 3, ["9", "0", "0", "1"]), "payload Phi_3 is not z Phi_2 - a_2 Phi_2^*"),
        (edit("moments", 2, "5"), "payload moments are not the ones the ladder implies"),
        (edit("h", 2, "1/2"), "payload h disagrees with prod(1 - a_k^2)"),
        # the list index 2 holds Delta_3
        (edit("delta", 2, "1/3"), "Delta_3 = 1/3 by payload"),
        ({**payload, "delta": payload["delta"][:-1]}, "5 determinants by payload"),
        ({**payload, "delta": [*payload["delta"], "0"]}, "7 determinants by payload"),
        ({**payload, "N": 4}, "payload N = 4 but a_0..a_N gives N = 5"),
    ):
        with pytest.raises(InternalInconsistencyError, match=re.escape(message)):
            PopucSystem.from_json_dict(tampered)
    # moments past sigma_{N+1} are fixed by the terminal rung: they load when
    # they are the measure's, and are checked like the others
    longer = popuc_from_moments(moments_from_cyclotomic(7, 13), 6).to_json_dict()
    assert PopucSystem.from_json_dict(longer).to_json_dict() == longer
    bad = {**longer, "moments": [*longer["moments"][:12], "1/2"]}
    with pytest.raises(InternalInconsistencyError, match="payload moments"):
        PopucSystem.from_json_dict(bad)


def test_from_json_dict_reports_a_rung_off_the_recurrence_by_its_inner_product():
    """A Phi_3 interior coefficient moved by 1/101, its constant term kept,
    so a_2 = -Phi_3(0) still holds: the annihilation check names the first
    inner product the moved rung does not kill."""
    payload = popuc_from_moments(moments_from_cyclotomic(7), 6).to_json_dict()
    phi_3 = payload["phis"][3]
    moved = [phi_3[0], str(F(phi_3[1]) + F(1, 101)), *phi_3[2:]]
    tampered = {**payload, "phis": [*payload["phis"][:3], moved, *payload["phis"][4:]]}
    message = (
        "payload moments are not the ones the ladder implies: "
        "<Phi_3, z^0> = -1/606 != 0 (cyclotomic:7)"
    )
    with pytest.raises(InternalInconsistencyError, match=f"^{re.escape(message)}$"):
        PopucSystem.from_json_dict(tampered)


def test_from_json_dict_rejects_a_moment_list_one_short_of_n_plus_2():
    payload = popuc_from_moments(moments_from_cyclotomic(7), 6).to_json_dict()
    short = {**payload, "moments": payload["moments"][:-1]}
    assert len(short["moments"]) == payload["N"] + 1
    with pytest.raises(InternalInconsistencyError, match="^payload moments are not the ones"):
        PopucSystem.from_json_dict(short)


def test_systems_equal_their_loaded_copies():
    """Equality ignores the moments' provenance, which a payload does not
    carry: the Ramanujan side's moments read kronecker:31 when built and
    ramanujan:31 when loaded."""
    spec = KroneckerSpec([31])
    systems = (
        duality.ramanujan_from_charpoly(spec),
        sturmian_from_charpoly(kronecker_poly(spec)),
        closed_forms.cf_ramanujan_anti2p(7),
    )
    for system in systems:
        clone = PopucSystem.from_json_dict(system.to_json_dict())
        assert clone == system and hash(clone.moments) == hash(system.moments)
    loaded = PopucSystem.from_json_dict(systems[0].to_json_dict())
    assert (systems[0].moments.provenance, loaded.moments.provenance) == (
        "kronecker:31",
        "ramanujan:31",
    )


def test_loading_a_payload_parses_each_string_once(monkeypatch):
    """Each payload string becomes one Fraction and a rung coefficient is
    not copied into its Poly; h is compared as integer pairs."""
    payload = popuc_from_moments(moments_from_cyclotomic(31), 30).to_json_dict()
    strings = sum(len(payload[key]) for key in ("verblunsky", "h", "delta", "moments"))
    strings += sum(map(len, payload["phis"]))
    built = []
    new = F.__new__

    def counting(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    system = PopucSystem.from_json_dict(payload)
    monkeypatch.undo()
    assert strings == 617 and system.n_max + 1 == 30
    assert len(built) <= strings + 5 * 30
    assert system.to_json_dict() == payload


def test_popuc_rejects_moments_past_the_terminal_rung_it_does_not_imply():
    m = moments_from_cyclotomic(5, 8)
    system = popuc_from_moments(m, 4)
    assert PopucSystem.from_json_dict(system.to_json_dict()).to_json_dict() == system.to_json_dict()
    tampered = MomentSequence(sigma=(*m.sigma[:7], F(9), *m.sigma[8:]), provenance=m.provenance)
    message = "sigma_7 = 9, but the terminal rung Phi_4 implies -1/4 (cyclotomic:5)"
    with pytest.raises(TerminalMassError, match=re.escape(message)):
        popuc_from_moments(tampered, 4)


def test_from_json_dict_rejects_malformed_payloads():
    payload = popuc_from_moments(moments_from_cyclotomic(5), 4).to_json_dict()
    no_delta = {k: v for k, v in payload.items() if k != "delta"}
    for malformed, message, cause in (
        ({}, "payload has no key 'family'", KeyError),
        (no_delta, "payload has no key 'delta'", KeyError),
        ({**payload, "moments": ["1", "x"]}, "payload moments: Invalid literal", ValueError),
        ({**payload, "h": ["1", "1/0"]}, "payload h: Fraction(1, 0)", ZeroDivisionError),
        ({**payload, "phis": "notalist"}, "payload phis must be a list of coefficient", None),
        ({**payload, "phis": [["1"], "1"]}, "payload phis[1] must be a list of rational", None),
        ({**payload, "verblunsky": [-1]}, "payload verblunsky must be a list of rational", None),
        ({**payload, "N": "3"}, "payload N must be an integer", None),
        ([], "payload is a list, not a JSON object", None),
    ):
        with pytest.raises(InvalidPayloadError, match=re.escape(message)) as info:
            PopucSystem.from_json_dict(malformed)
        assert isinstance(info.value, ValueError)
        assert type(info.value.__cause__) is (cause or type(None))


def test_from_json_dict_rejects_payloads_whose_fields_do_not_fit_together():
    payload = popuc_from_moments(moments_from_cyclotomic(5), 4).to_json_dict()
    phis, moments = payload["phis"], payload["moments"]
    for malformed, error, message in (
        ({**payload, "phis": phis[:-1]}, InternalInconsistencyError,
         "ladder length does not match coefficients"),
        ({**payload, "phis": [phis[0], ["1", "0", "1"], *phis[2:]]}, InternalInconsistencyError,
         "rung 1 is not monic of degree 1"),
        ({**payload, "moments": ["2", *moments[1:]]}, InternalInconsistencyError,
         "systems are normalized to sigma_0 = 1"),
        ({**payload, "family": 5}, InvalidPayloadError, "payload family must be a string"),
        ({**payload, "verblunsky": []}, TerminalMassError,
         "need at least the terminal coefficient"),
        ({**payload, "moments": []}, InsufficientMomentsError, "a moment sequence needs sigma_0"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            PopucSystem.from_json_dict(malformed)


def test_from_json_dict_names_a_zero_denominator_past_the_digit_limit():
    payload = popuc_from_moments(moments_from_cyclotomic(5), 4).to_json_dict()
    malformed = {**payload, "moments": ["1", "1" * 5000 + "/0"]}
    message = "payload moments: the denominator is 0"
    with pytest.raises(InvalidPayloadError, match=f"^{re.escape(message)}$") as info:
        PopucSystem.from_json_dict(malformed)
    assert type(info.value.__cause__) is ZeroDivisionError


def test_sturmian_system_of_twelve_orders_round_trips_past_the_digit_limit():
    # N + 1 = 224; its Delta_k pass Python's 4300-digit int/str limit
    spec = KroneckerSpec([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41])
    system = sturmian_from_charpoly(kronecker_poly(spec))
    payload = system.to_json_dict()
    assert max(len(d) for d in payload["delta"]) > 4300
    clone = PopucSystem.from_json_dict(payload)
    assert clone.delta == system.delta and clone.to_json_dict() == payload


def test_check_delta_names_a_minor_past_the_digit_limit():
    # at M = 1409, Delta_k has more than 4300 digits from about k = 1366
    system = popuc_from_moments(moments_from_cyclotomic(1409), 1408)
    delta = list(system.delta)
    delta[-1] += 1
    with pytest.raises(InternalInconsistencyError, match=r"^Delta_1408 = [0-9]{4300,}/"):
        system.check_delta(delta, "perturbed minors")


# -- the recurrence steps on the stored form ---------------------------------


def textbook_step(coeffs, a):
    """z * phi - a * phi^* on a Fraction list, coefficients ascending."""
    n = len(coeffs) - 1
    return tuple(
        (coeffs[i - 1] if i else 0) - a * (coeffs[n - i] if i <= n else 0) for i in range(n + 2)
    )


def textbook_descent(coeffs):
    """(phi, a) with coeffs = z * phi - a * phi^*, on a Fraction list."""
    a = -coeffs[0]
    num = [c + a * r for c, r in zip(coeffs, reversed(coeffs))]
    return tuple(c / (1 - a * a) for c in num[1:]), a


monic_rungs = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=30), min_size=0, max_size=6
).map(lambda cs: [*cs, F(1)])
reflections = st.fractions(min_value=-2, max_value=2, max_denominator=30) | st.sampled_from(
    [F(1), F(-1), F(0)]
)


@settings(deadline=None, max_examples=300)
@given(coeffs=monic_rungs, a=reflections)
def test_szego_steps_match_textbook_formulas(coeffs, a):
    stepped = szego_step(Poly(coeffs), a)
    assert stepped.coeffs == textbook_step(coeffs, a)
    assert stepped.den > 0 and stepped.ints[-1] == stepped.den
    assert gcd(*stepped.ints, stepped.den) == 1
    if abs(a) == 1:
        with pytest.raises(UnimodularConstantTermError):
            inverse_szego_step(stepped)
        return
    phi, a_rec = inverse_szego_step(stepped)
    expected_phi, expected_a = textbook_descent(list(stepped.coeffs))
    assert phi.coeffs == expected_phi == tuple(coeffs)
    assert a_rec == expected_a == a
    assert phi.den > 0 and gcd(*phi.ints, phi.den) == 1


def test_engine_guards_name_the_argument_out_of_range():
    m = moments_from_cyclotomic(5)
    twice = MomentSequence((F(2), F(-1), F(-1)))  # 2 x the moments of C_3
    for call, error, message in (
        (lambda: popuc_from_moments(m, 0), InvalidModulusError, "need n_plus_1 >= 1"),
        (lambda: popuc_from_moments(twice, 2), SingularMomentError,
         "ladder construction expects sigma_0 = 1"),
        (lambda: toeplitz_det(m, -1), InvalidModulusError, "determinant size must be >= 0, got -1"),
        (lambda: szego_step(P(1, 2), F(1, 2)), InvalidCharacteristicError,
         "recurrence steps need a monic polynomial"),
        (lambda: inverse_szego_step(Poly.one()), InvalidCharacteristicError,
         "descent needs a monic polynomial of degree >= 1"),
    ):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


@settings(deadline=None, max_examples=100)
@given(coeffs=monic_rungs, sign=st.sampled_from([1, -1]))
def test_descent_rejects_unimodular_constant_term(coeffs, sign):
    if len(coeffs) < 2:
        return
    with pytest.raises(UnimodularConstantTermError, match="descent cannot continue"):
        inverse_szego_step(Poly([F(sign), *coeffs[1:]]))


@pytest.mark.parametrize(
    "m, count",
    [
        (moments_from_cyclotomic(7), 6),
        (moments_from_kronecker(KroneckerSpec([1, 2, 5])), 6),
    ],
    ids=["M=7", "orders=1,2,5"],
)
def test_wrong_szego_step_is_caught(monkeypatch, m, count):
    """A recurrence step that is off by 1/101 in one coefficient below the
    leading one, on one rung, makes the build fail."""
    honest = opuc_core.szego_step
    for n in range(1, count + 1):
        for k in range(n):

            def wrong(phi, a, n=n, k=k):
                out = honest(phi, a)
                if out.degree != n:
                    return out
                coeffs = list(out.coeffs)
                coeffs[k] += F(1, 101)
                return Poly(coeffs)

            monkeypatch.setattr(opuc_core, "szego_step", wrong)
            with pytest.raises(PopucError):
                popuc_from_moments(m, count)
    monkeypatch.setattr(opuc_core, "szego_step", honest)
    popuc_from_moments(m, count)


def test_moments_past_a_terminal_rung_with_rational_coefficients():
    """Equal masses at e^{+-i theta} with cos theta = 1/4: sigma_n =
    T_n(1/4), and the terminal rung z^2 - z/2 + 1 is not integral."""
    sigma = [F(1), F(1, 4)]
    while len(sigma) < 6:
        sigma.append(2 * F(1, 4) * sigma[-1] - sigma[-2])
    system = popuc_from_moments(MomentSequence(sigma=tuple(sigma)), 2)
    assert system.terminal == P(1, F(-1, 2), 1)
    tampered = MomentSequence(sigma=(*sigma[:5], sigma[5] + F(1, 101)))
    message = (
        f"sigma_5 = {sigma[5] + F(1, 101)}, but the terminal rung Phi_2 implies "
        f"{sigma[5]} (explicit)"
    )
    with pytest.raises(TerminalMassError, match=re.escape(message)):
        popuc_from_moments(tampered, 2)
