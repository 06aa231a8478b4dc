"""Mirror duality between equal-mass and Sturmian para-orthogonal families.

Two finite ladders sharing the same terminal polynomial are mirror-dual
when their reflection coefficients satisfy

    ta_n = -a_N * a_{N-n-1},   n = 0..N,   with a_{-1} = -1.

The equal-mass (Ramanujan) system on the roots of a Kronecker polynomial
is mirror-dual to the Sturmian system, whose next-to-last rung is the
normalized derivative of the terminal polynomial and whose masses are
proportional to 1/|Phi'_{N+1}(z_s)|^2.  Everything provable in Q is
checked with exact rational equality; the per-root weight identity lives
at irrational spectral points and is corroborated numerically (double
precision by default, or at any requested number of digits).

A spectral point z_s of order m is a root of the cyclotomic polynomial
C_m, so every value the weight identities need, C'(z_s) and Phi_N(z_s),
equals the value at z_s of the rung's exact remainder modulo C_m, of
degree below phi(m): only the rounding changes, and it shrinks.  With
``digits`` that remainder is summed exactly in integers against a
fixed-point table of the m-th roots of unity, and the residual is an
exact rational function of those sums, rounded once to a float, so the
table is the only approximation (formulas in ``verify_weights``).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from numbers import Real
from operator import mul

from .errors import (
    DualityViolationError,
    InternalInconsistencyError,
    InvalidCharacteristicError,
    InvalidModulusError,
    WeightCheckFailureError,
)
from .opuc_core import (
    PopucSystem,
    VerblunskySequence,
    _proven_ladder,
    _text,
    inverse_szego_step,
    moments_from_kronecker,
    moments_from_ladder,
    popuc_from_moments,
    szego_step,
)
from .polynomials import KroneckerSpec, Poly, cyclotomic, horner, kronecker_poly


def mirror_dual(v: VerblunskySequence) -> VerblunskySequence:
    """The mirror map ta_n = -a_N * a_{N-n-1} with a_{-1} = -1.

    Real case: conjugation is the identity.  The map is an involution
    because a_N^2 = 1 (a VerblunskySequence holds it), and it fixes the
    terminal coefficient.  With a_N = +-1 the product is a negation or nothing."""
    chain = (*reversed(v.a[:-1]), Fraction(-1))  # a_{N-1}, ..., a_0, a_{-1}
    return VerblunskySequence(tuple(-x for x in chain) if v.a[-1] > 0 else chain)


def sturmian_from_charpoly(
    charpoly: Poly, family: str | None = None, paranoid: bool = False
) -> PopucSystem:
    """The Sturmian ladder under a given characteristic polynomial.

    Phi_{N+1} is the input, Phi_N is its derivative divided by N+1, and
    the remaining rungs follow by inverse recurrence descent.  The input
    must be monic with simple unit-circle roots (in practice a
    kronecker_poly output).  Anything else raises InvalidCharacteristicError
    here, its subclass UnimodularConstantTermError from the descent, or
    InteriorCoefficientOutOfRangeError, a SingularMomentError, from
    VerblunskySequence when some |a_k| >= 1 below N.  ``_proven_ladder``
    proves it on the moments it implies, as it does ``popuc_from_moments``.
    """
    n1 = charpoly.degree  # N + 1
    if n1 < 1 or not charpoly.is_monic:
        raise InvalidCharacteristicError("characteristic polynomial must be monic, degree >= 1")
    if abs(charpoly.ints[0]) != charpoly.den:
        raise InvalidCharacteristicError(
            f"|constant term| = {_text(abs(charpoly[0]))} != 1: roots cannot all lie on the circle"
        )
    a_terminal = -charpoly[0]
    phi_n = Poly.from_ints([k * c for k, c in enumerate(charpoly.ints) if k], charpoly.den * n1)
    # The terminal step must regenerate the characteristic polynomial;
    # this pins down a_N and is where a non-self-inversive input fails.
    if szego_step(phi_n, a_terminal) != charpoly:
        raise InvalidCharacteristicError(
            "derivative condition is inconsistent with the terminal recurrence step"
        )
    ladder = [charpoly, phi_n]
    coeffs = [a_terminal]
    for _ in range(n1 - 1):
        phi, a_k = inverse_szego_step(ladder[-1])
        ladder.append(phi)
        coeffs.append(a_k)
    ladder.reverse()
    coeffs.reverse()
    family = family or "sturmian"
    moments = moments_from_ladder(ladder, provenance=family)
    return _proven_ladder(family, moments, ladder, coeffs, "descent" if paranoid else None)


def ramanujan_from_charpoly(spec: KroneckerSpec, paranoid: bool = False) -> PopucSystem:
    """The equal-mass ladder on the roots of kronecker_poly(spec), built
    from Ramanujan-sum moments.  The terminal rung must reproduce the
    Kronecker polynomial exactly; a mismatch is an implementation bug."""
    moments = moments_from_kronecker(spec)
    system = popuc_from_moments(
        moments,
        spec.total_degree,
        family=f"ramanujan:{spec.label}",
        paranoid=paranoid,
    )
    expected = kronecker_poly(spec)
    if system.terminal != expected:
        raise InternalInconsistencyError(
            f"terminal polynomial {system.terminal} != Kronecker product {expected}"
        )
    return system


@dataclass(frozen=True)
class DualPair:
    """An equal-mass system and its Sturmian mirror image over one shared
    characteristic polynomial."""

    spec: KroneckerSpec
    ramanujan: PopucSystem
    sturmian: PopucSystem
    charpoly: Poly
    checks: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "spec": list(self.spec.orders),
            "charpoly": self.charpoly.to_json_list(),
            "ramanujan": self.ramanujan.to_json_dict(),
            "sturmian": self.sturmian.to_json_dict(),
            "checks": dict(self.checks),
        }


def build_dual_pair(spec: KroneckerSpec, paranoid: bool = False) -> DualPair:
    """Construct both systems and enforce the exact duality assertions:
    shared terminal polynomial, the mirror map between the coefficient
    sequences, the derivative condition on the Sturmian side, and
    equality of the terminal norms h_N."""
    ram = ramanujan_from_charpoly(spec, paranoid=paranoid)
    charpoly = ram.terminal  # ramanujan_from_charpoly matched it to kronecker_poly(spec)
    stu = sturmian_from_charpoly(charpoly, family=f"sturmian:{spec.label}", paranoid=paranoid)

    checks = {}
    checks["shared_charpoly"] = ram.terminal == stu.terminal == charpoly
    checks["mirror_map"] = mirror_dual(ram.verblunsky) == stu.verblunsky
    n1 = charpoly.degree
    checks["sturm_condition"] = stu.phis[n1 - 1] * Fraction(n1) == charpoly.derivative()
    checks["h_terminal_equal"] = ram._norms[-1] == stu._norms[-1]
    if not all(checks.values()):
        failed = [k for k, ok in checks.items() if not ok]
        raise DualityViolationError(f"exact duality assertions failed: {failed}")
    return DualPair(spec=spec, ramanujan=ram, sturmian=stu, charpoly=charpoly, checks=checks)


# ---------------------------------------------------------------------------
# Floating-point corroboration at the spectral points
# ---------------------------------------------------------------------------


def _root_angles(spec: KroneckerSpec) -> list[tuple[int, int]]:
    """(s, m) pairs with gcd(s, m) = 1, one per root e^{2*pi*i*s/m}."""
    return [(s, m) for m in spec.orders for s in range(1, m + 1) if gcd(s, m) == 1]


def numeric_roots(spec: KroneckerSpec) -> tuple:
    """The roots of kronecker_poly(spec) at double precision.  They are
    enumerated by exact angle 2*pi*s/m over s coprime to m for each order m
    (never by iterative root finding), grouped by order in the order of
    ``_root_angles``, so each one pairs with the cyclotomic factor it is a
    root of."""
    return tuple(_numeric_root(s, m) for s, m in _root_angles(spec))


def _numeric_root(s: int, m: int) -> complex:
    """e^{2 pi i s/m} at double precision: the one formula for a root."""
    return cmath.exp(2j * cmath.pi * s / m)


@dataclass
class WeightReport:
    """The per-root residual of the weight identity of a dual pair.

    rows: one entry per root with the evaluated masses w_s and tw_s, (i)
    the residual of equal masses on the Ramanujan side, from which the
    Sturmian mass follows, and (ii) whether tw_s is positive, which a
    residual below 1 implies (``verify_weights`` gives both arguments).
    """

    tol: float
    rows: list[dict] = field(default_factory=list)
    max_residual: float = 0.0
    passed: bool = True

    def to_json_dict(self) -> dict:
        return {
            "tol": self.tol,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "roots_checked": len(self.rows),
        }


def verify_weights(pair: DualPair, tol: float = 1e-12, digits: int | None = None) -> WeightReport:
    """Check the weight identity of a dual pair at every spectral point.

    At each root z_s of the shared characteristic polynomial, with
    d = Phi'_{N+1}(z_s), p = Phi_N(z_s) (Ramanujan ladder's Phi_N) and
    c = conj(d) p, the equal-mass formula w_s = h_N / c must give 1/(N+1).
    Each row reports w_s, the Sturmian mass tw_s = p / d, whether tw_s > 0,
    and the residual e = (N+1) |w_s - 1/(N+1)| = |(N+1) h_N - c| / |c|;
    the pair passes when every e < tol.

    e decides every other weight statement.  For any nonzero d and p, with
    K = (N+1) h_N > 0 and |Im c| = |Im(K - c)| <= |K - c| = e |c|:

    * |Im w_s| = |Im(w_s - 1/(N+1))| <= e / (N+1);
    * tw_s = c / |d|^2, so |Im tw_s| <= e |tw_s|;
    * the Sturmian ladder's own mass h_N (N+1) / |d|^2 = K / |d|^2 differs
      from Re tw_s by |Re c - K| / K <= e |c| / K <= e / (1 - e) of itself
      when e < 1, since |c| <= K + e |c|;
    * w_s tw_s |d|^2 = h_N holds by the definitions of w_s and tw_s;
    * Re tw_s <= 0 means Re c <= 0, so |K - c|^2 >= K^2 + |c|^2 and e > 1;
    * the Sturmian masses sum to [z^N] Phi_N by Lagrange interpolation at
      the N+1 simple roots of C = Phi_{N+1}: sum_s g(z_s) / C'(z_s) = [z^N] g
      for deg g <= N.  That is 1 for every monic Phi_N, even a wrong one,
      so the sum measures only rounding.

    Both rungs are evaluated, at a root of order m, from their remainders
    modulo C_m (``_mod_cyclotomic``).  The division p = q * C_m + r is exact
    in Q[z] and z_s is a root of C_m, so p(z_s) = r(z_s) exactly, and only
    the rounding differs from Horner over the full degree-N rung.  For a
    single-order spec the remainders are the rungs themselves.  A root
    where either value is exactly zero (an order-1 or order-2 remainder is
    a constant) fails with an infinite residual and NaN masses.

    In double precision each remainder is evaluated by Horner's rule.  With
    `digits`, r = C / E (integer numerators C_k, denominator E) is summed
    exactly against the table (X_j, Y_j) of ``_unit_table`` at
    b = prec + 16 + bit_length(N+1) bits:

        r(z_s) ~ (sum_k C_k X_{sk mod m} + i sum_k C_k Y_{sk mod m}) / (E 2^b).

    Each table entry is within one unit of 2^b e^{2 pi i j/m} per part, so
    each part is within ||C||_1 / E * 2^-b = ||r||_1 * 2^-b of r(z_s),
    against about 2 deg(r) ||r||_1 2^-prec for Horner.  The bound is
    absolute: where r(z_s) cancels far below ||r||_1, the residual grows by
    that factor.  Write d = (dx + i dy) / q_d and p = (px + i py) / q_p for
    those sums, h_N = hn / hd, A + iB = (dx - i dy)(px + i py), S = A^2 + B^2,
    T = dx^2 + dy^2 and Q = q_d q_p, so c = (A + iB) / Q.  Then
    w = hn Q (A - iB) / (hd S), tw = q_d (A + iB) / (q_p T), tw > 0 exactly
    when A > 0, and the residual is an exact rational function of the sums,
    rounded once:

        e = |(N+1) hn Q (A - iB) - hd S| / (hd S).

    mpmath only builds the table and rounds the reported root and masses,
    so the table is the only approximation.

    Raises WeightCheckFailureError (with the report attached) when any
    residual reaches tol.  Raises InvalidModulusError, before any work, when
    digits is neither None nor an int >= 1, or tol is not a real number
    (NaN and bool included).
    """
    if digits is not None and (
        isinstance(digits, bool) or not isinstance(digits, int) or digits < 1
    ):
        raise InvalidModulusError(f"digits must be an int >= 1 or None, got {digits!r}")
    if isinstance(tol, bool) or not isinstance(tol, Real) or tol != tol:
        raise InvalidModulusError(f"tol must be a real number other than NaN, got {tol!r}")
    n1 = pair.charpoly.degree
    rungs = (pair.charpoly.derivative(), pair.ramanujan.phis[n1 - 1])
    reduced = {m: [_mod_cyclotomic(p, m) for p in rungs] for m in pair.spec.orders}
    h_n = pair.ramanujan._norms[-1]
    if digits is not None:
        import mpmath

        with mpmath.workdps(digits):
            return _verify_weights_impl(tol, _exact_rows(pair.spec, reduced, n1, *h_n))
    # Each remainder coefficient is converted once, correctly rounded (c / den
    # is, as complex(Fraction(c, den)) is): that is how the Horner step
    # `acc * z + c` converts a Fraction c, so where the remainder is the rung
    # itself the values are bit-identical to Horner over the full rung.
    coeffs = {
        m: [[complex(c / r.den) for c in r.ints] for r in rems] for m, rems in reduced.items()
    }
    h_num, equal_mass = h_n[0] / h_n[1], 1 / n1
    rows = []
    for s, m in _root_angles(pair.spec):
        z = _numeric_root(s, m)
        d_val, p_val = (horner(c, z) for c in coeffs[m])
        if not (d_val and p_val):
            rows.append((z, *_NO_MASS))
            continue
        w = h_num / (d_val.conjugate() * p_val)
        tw = p_val / d_val
        rows.append((z, w, tw, abs(w - equal_mass) / equal_mass, tw.real > 0))
    return _verify_weights_impl(tol, rows)


def _mod_cyclotomic(p: Poly, m: int) -> Poly:
    """p modulo C_m.  p is first folded modulo z^m - 1, which C_m divides,
    so the division runs on at most m coefficients, not deg p + 1; the
    remainder is the same.

    For p = P / E the remainder is (P mod C_m) / E: C_m is monic with
    integer coefficients, so each division step subtracts an integer
    multiple of it from the integer numerators, with no pseudo-division
    scaling, and the quotient is never needed.  A p of degree below
    phi(m), as every rung of a single-order spec is, is its own remainder."""
    c = cyclotomic(m).ints
    dd = len(c) - 1
    if len(p.ints) <= dd:
        return p
    ints = p.ints
    rem = [sum(ints[j::m]) for j in range(m)] if len(ints) > m else list(ints)
    for i in range(len(rem) - 1, dd - 1, -1):
        top = rem[i]
        if top:
            rem[i - dd : i] = [x - top * y for x, y in zip(rem[i - dd : i], c)]
    return Poly.from_ints(rem[:dd], p.den)


def _unit_table(m: int, bits: int) -> tuple[list[int], list[int]]:
    """The m-th roots of unity in fixed point: lists X, Y of m integers,
    X[j] and Y[j] each within one unit of 2^bits cos(2 pi j/m) and
    2^bits sin(2 pi j/m).

    One cos/sin of 2 pi/m at g = bits + bit_length(m) + 4 bits gives the
    generator w to within 2 units of 2^-g in each part; w^j, j <= m/2, is
    w^{j-1} * w rounded to those units, so its error grows by under 4 units
    a step and stays below 2m < 2^{g-bits} / 8 units.  Rounding to `bits`
    adds at most half a unit.
    X[0], Y[0] = 2^bits, 0 exactly, and the upper half is the exact
    conjugate of the lower: X[m-j] = X[j], Y[m-j] = -Y[j].
    """
    import mpmath

    g = bits + m.bit_length() + 4
    with mpmath.workprec(g):
        angle = 2 * mpmath.pi / m
        wx, wy = (int(mpmath.nint(mpmath.ldexp(f(angle), g))) for f in (mpmath.cos, mpmath.sin))
    half, shift = 1 << (g - 1), g - bits
    out_half = 1 << (shift - 1)
    x, y = 1 << g, 0
    xs, ys = [1 << bits], [0]
    for _ in range(m // 2):
        x, y = (x * wx - y * wy + half) >> g, (x * wy + y * wx + half) >> g
        xs.append((x + out_half) >> shift)
        ys.append((y + out_half) >> shift)
    mirror = slice((m - 1) // 2, 0, -1)
    xs.extend(xs[mirror])
    ys.extend([-v for v in ys[mirror]])
    return xs, ys


def _exact_rows(spec: KroneckerSpec, reduced: dict, n1: int, hn: int, hd: int):
    """The rows of ``verify_weights`` with digits, by its formulas from the
    exact integer sums of the two remainders modulo C_m in ``reduced[m]``
    over ``_unit_table``."""
    import mpmath

    def nearest(x, y, den):  # (x + iy) / den, each part rounded once
        return mpmath.mp.make_mpc((_mpf_nearest(x, den)._mpf_, _mpf_nearest(y, den)._mpf_))

    bits = mpmath.mp.prec + 16 + n1.bit_length()
    tables = {m: _unit_table(m, bits) for m in spec.orders}
    rows = []
    for s, m in _root_angles(spec):
        xs, ys = tables[m]
        idx = [s * k % m for k in range(max(len(r.ints) for r in reduced[m]))]
        xg, yg = [xs[i] for i in idx], [ys[i] for i in idx]
        (dx, dy, ed), (px, py, ep) = (
            (sum(map(mul, r.ints, xg)), sum(map(mul, r.ints, yg)), r.den) for r in reduced[m]
        )
        z = nearest(xs[s % m], ys[s % m], 1 << bits)
        if not ((dx or dy) and (px or py)):
            rows.append((z, *_NO_MASS))
            continue
        a, b = dx * px + dy * py, dx * py - dy * px
        s2, t, q = a * a + b * b, dx * dx + dy * dy, ed * ep << 2 * bits
        target = n1 * hn * q  # hd (A + iB) at equal masses
        residual = _sqrt_ratio((target * a - hd * s2) ** 2 + (target * b) ** 2, hd * s2)
        w, tw = nearest(hn * q * a, -hn * q * b, hd * s2), nearest(ed * a, ed * b, ep * t)
        rows.append((z, w, tw, residual, a > 0))
    return rows


def _sqrt_ratio(n: int, d: int) -> float:
    """sqrt(n) / d (n >= 0, d > 0) to within one ulp, inf past the float
    range: the integer square root has 64 bits or more before the rounding."""
    k = max(0, 65 - n.bit_length() // 2)
    try:
        return isqrt(n << 2 * k) / (d << k)
    except OverflowError:  # |w| = h_N / |d p| can pass 2^1024 on a wrong rung
        return float("inf")


def _mpf_nearest(p: int, q: int):
    """p / q (q > 0) rounded once, to the nearest mpmath float at the
    working precision: the integer quotient has at least prec + 2 bits,
    and a sticky last bit for a nonzero remainder keeps ties exact."""
    import mpmath

    prec, libmp = mpmath.mp.prec, mpmath.libmp
    shift = prec + 3 + q.bit_length() - abs(p).bit_length()
    man, rem = divmod(p << shift, q) if shift >= 0 else divmod(p, q << -shift)
    bits = libmp.from_man_exp(2 * man + (rem > 0), -shift - 1, prec, libmp.round_nearest)
    return mpmath.mp.make_mpf(bits)


_ROW_KEYS = ("root", "ramanujan_mass", "sturmian_mass", "equal_mass_residual", "sturmian_positive")
# a wrong rung can be exactly 0 at an order-1 or order-2 root (its remainder
# is a constant): no mass is defined there
_NO_MASS = (float("nan"), float("nan"), float("inf"), False)


def _verify_weights_impl(tol: float, points) -> WeightReport:
    """The report of ``verify_weights`` from the row values, in the order
    of ``_ROW_KEYS``, at every root."""
    report = WeightReport(tol=tol, rows=[dict(zip(_ROW_KEYS, point)) for point in points])
    report.max_residual = worst = max(0.0, *(r["equal_mass_residual"] for r in report.rows))
    report.passed = worst < tol
    if not report.passed:
        bad = [(i, r) for i, r in enumerate(report.rows) if r["equal_mass_residual"] >= tol]
        detail = "; ".join(
            f"root {i}: z={r['root']}, equal-mass residual {r['equal_mass_residual']:.3e}, "
            f"positive={r['sturmian_positive']}"
            for i, r in bad[:5]
        )
        raise WeightCheckFailureError(
            f"weight identities exceeded tol={tol}: max residual {worst:.3e}; {detail}",
            report=report,
        )
    return report
