"""Exact polynomial arithmetic and the cyclotomic family constructors."""

import re
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramanujan_popuc.errors import (
    DegreeBoundError,
    DuplicateOrderError,
    InvalidModulusError,
    NonzeroRemainderError,
)
from ramanujan_popuc.number_theory import (
    divisors,
    euler_totient,
    mobius,
    ramanujan_sum_direct,
)
from ramanujan_popuc.polynomials import (
    KroneckerSpec,
    Poly,
    _as_fraction,
    anti_cyclotomic,
    cyclotomic,
    kronecker_poly,
    parse_rational,
    render_rationals,
)


def P(*ascending):
    return Poly(ascending)


def sympy_poly(p: Poly):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c) for c in reversed(p.coeffs)] or [0], x)


small_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=6
)
small_polys = st.lists(small_fractions, min_size=0, max_size=6).map(Poly)


# -- ring arithmetic --------------------------------------------------------


def test_arithmetic_examples():
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)  # (z+1)(z-1)
    assert P(1, 1, 1) * P(-1, 1) == P(-1, 0, 0, 1)  # z^3 - 1
    assert P(F(1, 2), 1) + P(0, 0, 1) == P(F(1, 2), 1, 1)


def test_normalization_and_zero():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    z = Poly([0, 0])
    assert z.is_zero and z.degree == -1 and z == Poly.zero()
    assert (P(1, 1) - P(1, 1)).is_zero


@pytest.mark.parametrize("use", [lambda p: 3 in p, list, tuple, iter, lambda p: [*p]])
def test_iteration_raises_instead_of_running_past_the_degree(use):
    p = P(1, 2)
    with pytest.raises(TypeError):
        use(p)
    assert p[5] == 0 and list(p.coeffs) == [1, 2]


def test_divexact_examples():
    num = Poly.monomial(6) - Poly.one()
    assert num.divexact(P(1, -1, 1)) == P(-1, -1, 0, 1, 1)  # z^4+z^3-z-1
    assert P(-1, 0, 1).divexact(P(-1, 1)) == P(1, 1)
    with pytest.raises(NonzeroRemainderError):
        P(1, 0, 1).divexact(P(-1, 1))


def test_derivative_examples():
    assert P(-1, -1, 0, 1, 1).derivative() == P(-1, 0, 3, 4)
    assert P(7).derivative().is_zero
    assert P(1, 1, 1).derivative() == P(1, 2)


def test_reversal_examples():
    assert P(F(1, 2), 1).reversed(1) == P(1, F(1, 2))
    assert P(1, 1, 1).reversed(2) == P(1, 1, 1)  # palindromic fixed point
    assert P(F(-1, 5), F(1, 5), 1).reversed(2) == P(1, F(1, 5), F(-1, 5))
    assert P(1, 1).reversed(3) == P(0, 0, 1, 1)  # zero-padded
    with pytest.raises(DegreeBoundError):
        P(1, 1, 1).reversed(1)


def test_division_by_zero_default_reversal_repr_and_truth():
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        P(1, 1).divmod(Poly.zero())
    assert P(F(1, 2), 1).reversed() == P(1, F(1, 2))  # the bound defaults to the degree
    assert Poly.zero().reversed() == Poly.zero()
    assert repr(P(F(1, 2), 0, 3)) == "Poly(['1/2', '0', '3'])"
    assert repr(Poly.zero()) == "Poly([])"
    assert P(0, 1) and not Poly.zero()


def test_evaluation():
    p = P(F(1, 3), 0, 1)
    assert p(F(1, 2)) == F(7, 12)
    assert abs(p(1j) - (F(1, 3) - 1)) < 1e-15
    assert Poly.zero()(F(5)) == 0


def test_json_round_trip():
    p = P(F(-1, 4), 0, F(2, 3), 1)
    assert Poly(map(F, p.to_json_list())) == p
    assert p.to_json_list() == ["-1/4", "0", "2/3", "1"]


@given(nums=st.lists(st.integers()), den=st.integers(min_value=1))
def test_render_rationals_writes_str_of_fraction_below_the_digit_limit(nums, den):
    texts = [str(F(n, den)) for n in nums]
    assert render_rationals(nums, den) == texts
    assert render_rationals([F(n, den).as_integer_ratio() for n in nums]) == texts


# an integer of 1 to 20 000 decimal digits; Python's int/str limit is 4300
long_integers = st.integers(1, 20_000).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))


@settings(deadline=None, max_examples=30)
@given(n=long_integers, d=long_integers, sign=st.sampled_from([1, -1]))
@example(n=10**4300, d=10**4299 + 1, sign=-1)  # 4301 and 4300 digits
def test_parse_rational_inverts_render_rationals_at_any_length(n, d, sign):
    f = F(sign * n, d)
    (shared,) = render_rationals([sign * n], d)
    (paired,) = render_rationals([f.as_integer_ratio()])
    assert shared == paired and parse_rational(paired) == f
    assert parse_rational(render_rationals([sign * n], 1)[0]) == sign * n


def test_parse_rational_names_a_zero_denominator_past_the_digit_limit():
    for text in ("1" * 5000 + "/0", "-1/" + "0" * 5000):
        with pytest.raises(ZeroDivisionError, match="^the denominator is 0$"):
            parse_rational(text)


def test_parse_rational_rejects_long_text_that_is_not_plain():
    with pytest.raises(ValueError):
        parse_rational("1" * 5000 + ".5")
    with pytest.raises(ValueError):
        parse_rational("+" + "1" * 5000)


@settings(deadline=None, max_examples=150)
@given(a=small_polys, b=small_polys, c=small_polys)
def test_ring_properties(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)


@settings(deadline=None, max_examples=150)
@given(a=small_polys, b=small_polys)
def test_divmod_round_trip(a, b):
    if b.is_zero:
        return
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.degree < b.degree or r.is_zero


# -- cyclotomic constructors ------------------------------------------------


def test_cyclotomic_examples():
    assert cyclotomic(5) == P(1, 1, 1, 1, 1)
    assert cyclotomic(1) == P(-1, 1)
    # oracle first: exact division of z^12 - 1 by the product of the
    # proper-divisor cyclotomics, done through sympy's implementation
    x = sympy.Symbol("x")
    assert sympy_poly(cyclotomic(12)) == sympy.Poly(sympy.cyclotomic_poly(12, x), x)
    assert cyclotomic(12) == P(1, 0, -1, 0, 1)


def test_cyclotomic_against_sympy_sweep():
    x = sympy.Symbol("x")
    for m in range(1, 101):
        assert sympy_poly(cyclotomic(m)) == sympy.Poly(sympy.cyclotomic_poly(m, x), x)


def test_cyclotomic_structure():
    for m in range(1, 101):
        c = cyclotomic(m)
        assert c.is_monic
        assert c.degree == euler_totient(m)
        assert all(coef.denominator == 1 for coef in c.coeffs)
        if m >= 2:
            assert c.reversed(c.degree) == c  # palindromic


def test_divisor_product_identity():
    for m in range(1, 101):
        prod = Poly.one()
        for d in divisors(m):
            prod = prod * cyclotomic(d)
        assert prod == Poly.monomial(m) - Poly.one()


def test_anti_cyclotomic():
    assert anti_cyclotomic(6) == P(-1, -1, 0, 1, 1)
    assert anti_cyclotomic(1) == Poly.one()
    assert anti_cyclotomic(10) == P(-1, -1, 0, 0, 0, 1, 1)  # z^6+z^5-z-1
    for m in range(1, 80):
        assert anti_cyclotomic(m) * cyclotomic(m) == Poly.monomial(m) - Poly.one()


# -- Kronecker specs --------------------------------------------------------


def test_kronecker_examples():
    assert kronecker_poly(KroneckerSpec([1, 2])) == P(-1, 0, 1)
    assert kronecker_poly(KroneckerSpec([1, 2, 3])) == anti_cyclotomic(6)
    assert kronecker_poly(KroneckerSpec([5])) == cyclotomic(5)


def test_kronecker_singletons_match_cyclotomic():
    for m in range(1, 40):
        assert kronecker_poly(KroneckerSpec([m])) == cyclotomic(m)


def test_kronecker_spec_validation():
    with pytest.raises(DuplicateOrderError):
        KroneckerSpec([2, 2])
    with pytest.raises(InvalidModulusError):
        KroneckerSpec([0, 3])
    with pytest.raises(InvalidModulusError):
        KroneckerSpec([])
    spec = KroneckerSpec([3, 1, 2])
    assert spec.orders == (1, 2, 3)  # canonical ascending form
    assert spec.total_degree == 4
    assert spec.label == "1,2,3"


def test_kronecker_degree_and_constant_term():
    for orders in ([1], [2], [1, 2, 3], [4, 5], [1, 6, 10]):
        spec = KroneckerSpec(orders)
        k = kronecker_poly(spec)
        assert k.degree == spec.total_degree
        assert k.is_monic
        assert abs(k[0]) == 1  # all roots on the unit circle


def vieta(m):
    """C_m's top two elementary symmetric functions of the roots, read off
    its coefficients, beside the Ramanujan-sum side: kappa_1 = c_m(1) and,
    by Newton's identity, kappa_2 = (c_m(1)^2 - c_m(2))/2.  kappa_2 is
    None when phi(m) < 2."""
    c, phi = cyclotomic(m), euler_totient(m)
    kappa1 = -c[phi - 1]
    c1, c2 = ramanujan_sum_direct(m, 1), ramanujan_sum_direct(m, 2)
    if phi < 2:
        return kappa1, c1, None, None
    return kappa1, c1, c[phi - 2], F(c1 * c1 - c2, 2)


def test_vieta_examples():
    assert vieta(5)[:2] == (-1, -1) and mobius(5) == -1
    assert vieta(6)[:2] == (1, 1) and mobius(6) == 1
    # kappa_2 of C_12 = z^4 - z^2 + 1 is -1; the Ramanujan-sum side is
    # (c_12(1)^2 - c_12(2))/2 = (0 - 2)/2
    assert vieta(12) == (0, 0, -1, -1)


def test_vieta_sweep():
    for m in range(1, 121):
        kappa1, c1, kappa2, expected2 = vieta(m)
        assert kappa1 == c1 == mobius(m)
        assert kappa2 == expected2
# -- the stored form against a list-of-Fraction reference --------------------


def ref(coeffs):
    """Test-local reference: a tuple of Fractions with no trailing zero."""
    cs = [F(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    return ref((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref(out)


def ref_divmod(a, b):
    rem, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        q[i - len(b) + 1] = f
        for j, y in enumerate(b):
            rem[i - len(b) + 1 + j] -= f * y
    return ref(q), ref(rem)


def assert_stored(p: Poly, expected):
    """p is in the stored form and reads as the reference coefficients."""
    assert p.den > 0
    assert gcd(*p.ints, p.den) == 1
    assert not p.ints or p.ints[-1] != 0
    assert p.coeffs == expected
    assert all(type(c) is F for c in p.coeffs)


# mixed denominators, and the zero polynomial among the small lists
mixed_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=60)
mixed_lists = st.lists(mixed_fractions | st.just(F(0)), min_size=0, max_size=7)


@settings(deadline=None, max_examples=300)
@given(a=mixed_lists, b=mixed_lists, c=mixed_fractions, k=st.integers(0, 4))
def test_stored_form_matches_fraction_reference(a, b, c, k):
    pa, pb, ra, rb = Poly(a), Poly(b), ref(a), ref(b)
    assert_stored(pa, ra)
    assert_stored(pb, rb)
    assert_stored(pa + pb, ref_add(ra, rb))
    assert_stored(pa - pb, ref_add(ra, tuple(-x for x in rb)))
    assert_stored(-pa, tuple(-x for x in ra))
    assert_stored(pa * c, ref(x * c for x in ra))
    assert_stored(c * pa, ref(x * c for x in ra))
    assert_stored(pa * pb, ref_mul(ra, rb))
    n = max(len(ra) - 1, 0) + k
    assert_stored(pa.reversed(n), ref((ra + (F(0),) * (n + 1 - len(ra)))[::-1]))
    assert_stored(pa.derivative(), ref(i * x for i, x in enumerate(ra) if i))
    if rb:
        q, r = pa.divmod(pb)
        rq, rr = ref_divmod(ra, rb)
        assert_stored(q, rq)
        assert_stored(r, rr)
    for i in range(-1, len(ra) + 2):
        assert pa[i] == (ra[i] if 0 <= i < len(ra) else 0) and type(pa[i]) is F
    assert (pa == pb) == (ra == rb)
    assert hash(pa) == hash(ra)
    assert pa.to_json_list() == [str(x) for x in ra]
    assert Poly.from_ints(pa.ints, pa.den) == pa


def test_stored_form_examples():
    assert (Poly.zero().ints, Poly.zero().den) == ((), 1)
    p = P(F(1, 2), F(-1, 3), 1)
    assert (p.ints, p.den) == ((3, -2, 6), 6)
    assert (Poly.from_ints([4, -2, 0, 0], -6).ints, Poly.from_ints([4, -2], -6).den) == ((-2, 1), 3)
    assert Poly.from_ints([0, 0], -5) == Poly.zero()
    assert hash(P(1, F(1, 2))) == hash((F(1), F(1, 2)))


def test_kronecker_spec_rejects_non_integer_orders():
    for bad in (2.5, "3", True, F(3), 3.0):
        with pytest.raises(InvalidModulusError, match=re.escape(repr(bad))):
            KroneckerSpec([1, bad])


@pytest.mark.parametrize("bad", [2.0, "5", 0, -3, True])
@pytest.mark.parametrize("build", [cyclotomic, anti_cyclotomic])
def test_cyclotomic_orders_are_checked_as_moduli(build, bad):
    assert cyclotomic(1) == P(-1, 1)  # cached; True hashes as 1 but is still rejected
    with pytest.raises(InvalidModulusError, match=re.escape(f"got {bad!r}")):
        build(bad)


class _Tagged(F):
    pass


def test_a_plain_fraction_enters_a_poly_uncopied():
    f = F(3, 7)
    assert _as_fraction(f) is f
    converted = _as_fraction(_Tagged(3, 7))
    assert type(converted) is F and converted == f
    assert _as_fraction(2) == F(2) and _as_fraction("-5/10") == F(-1, 2)


@pytest.mark.parametrize("c", [1, -4, F(-3, 8), "5/6", "-2"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_monomial_from_integers_matches_the_general_constructor(k, c):
    p = Poly.monomial(k, c)
    assert p == Poly((0,) * k + (c,)) and p.degree == k
    assert p[k] == _as_fraction(c) and all(p[j] == 0 for j in range(k))


def test_monomial_of_zero_is_zero_and_of_a_non_rational_raises():
    assert Poly.monomial(2, 0) == Poly.zero() and Poly.monomial(2, F(0)).is_zero
    for bad in (2.5, Poly.one()):
        with pytest.raises(TypeError, match="as an exact coefficient"):
            Poly.monomial(2, bad)
