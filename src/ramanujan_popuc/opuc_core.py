"""Moment sequences, Toeplitz determinants, and the recurrence ladder of
monic polynomials orthogonal on the unit circle, built by a Levinson-style
update of the fundamental recurrence

    Phi_{n+1}(z) = z * Phi_n(z) - a_n * Phi_n^*(z),

where Phi^* is coefficient reversal (all scalars are real rationals, so
conjugation is the identity).  A finite para-orthogonal family is a
ladder whose reflection coefficients satisfy |a_k| < 1 for k < N and
|a_N| = 1; the terminal polynomial then has simple roots on the unit
circle carrying a discrete orthogonality measure.

Everything is exact.  Public values (moments, coefficients, norms,
determinants, inner products) read as ``Fraction`` or ``Poly``; moments,
norms and determinants build their Fractions only when read.  Every loop
runs on integers over one common denominator, the form a MomentSequence
and a Poly store (the fraction-free idea of Bareiss 1968), with a gcd per
step or per result: Bareiss elimination for determinants and rungs, a
content-reduced Schur sweep in O(n^2) for the leading minors (Bareiss
1969, Collins 1967), the integer norms (``_norm_step``), the O(N^2)
ladder check (``_verify_annihilation``) and the Gram matrix, which
computes each symmetric pair once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd
from operator import mul

from .errors import (
    InsufficientMomentsError,
    InteriorCoefficientOutOfRangeError,
    InternalInconsistencyError,
    InvalidCharacteristicError,
    InvalidModulusError,
    InvalidPayloadError,
    SingularMomentError,
    TerminalMassError,
    UnimodularConstantTermError,
)
from .number_theory import euler_totient, ramanujan_table
from .polynomials import KroneckerSpec, Poly, _lowest_terms, _scaled
from .polynomials import parse_rational, render_rationals


def _text(x) -> str:
    """The text of one int or Fraction, for messages."""
    return render_rationals([x.as_integer_ratio()])[0]


def _check_exact(values, name: str, where: str = "") -> None:
    """InvalidPayloadError at the first value not an int or a Fraction (or a bool)."""
    for k, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            kind = type(v).__name__
            raise InvalidPayloadError(f"{name}_{k} is a {kind}, not an int or a Fraction{where}")


@dataclass(frozen=True)
class MomentSequence:
    """Trigonometric moments sigma_t = ints[t] / den, t = 0..L, of a positive
    measure on the unit circle (sigma_{-t} = sigma_t), stored as a Poly is
    but with trailing zeros kept; ``sigma`` and ``at`` build Fractions.
    Equal moments compare and hash equal whatever their ``provenance``."""

    ints: tuple[int, ...]
    den: int
    provenance: str = field(compare=False)

    def __init__(self, sigma, provenance: str = "explicit"):
        _check_exact(sigma, "sigma", f" ({provenance})")
        self.__dict__.update(vars(MomentSequence.from_ints(*_scaled(sigma), provenance)))

    @staticmethod
    def from_ints(ints, den: int, provenance: str) -> "MomentSequence":
        """sigma_t = ints[t] / den (integers, den != 0) in the stored form."""
        m = object.__new__(MomentSequence)
        m.__dict__.update(zip(("ints", "den"), _lowest_terms(ints, den)), provenance=provenance)
        if not m.ints:
            raise InsufficientMomentsError("a moment sequence needs sigma_0")
        if m.ints[0] <= 0:
            raise SingularMomentError(f"sigma_0 must be positive, got {_text(m.at(0))}")
        return m

    @property
    def sigma(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def max_index(self) -> int:
        return len(self.ints) - 1

    def at(self, n: int) -> Fraction:
        if abs(n) > self.max_index:
            raise InsufficientMomentsError(
                f"moment sigma_{n} requested but only indices up to "
                f"{self.max_index} are available ({self.provenance})"
            )
        return Fraction(self.ints[abs(n)], self.den)


def moments_from_cyclotomic(m: int, length: int | None = None) -> MomentSequence:
    """Moments of the equal-mass measure on the primitive m-th roots of
    unity: sigma_n = c_m(n) / phi(m), so sigma_0 = 1.

    The default length phi(m) is exactly what the ladder builder needs.
    """
    phi = euler_totient(m)
    if length is None:
        length = phi
    return MomentSequence.from_ints(ramanujan_table(m, length).values, phi, f"cyclotomic:{m}")


def moments_from_kronecker(spec: KroneckerSpec, length: int | None = None) -> MomentSequence:
    """Moments of the equal-mass measure on all roots of the Kronecker
    product polynomial: sigma_n = (c_{m_1}(n) + ... + c_{m_k}(n)) / M
    with M the total degree.  Reduces to the cyclotomic case for a
    singleton spec."""
    total = spec.total_degree
    if length is None:
        length = total
    sums = map(sum, zip(*(ramanujan_table(m, length).values for m in spec.orders)))
    return MomentSequence.from_ints(sums, total, f"kronecker:{spec.label}")


def moments_from_power_sums(charpoly: Poly, length: int) -> MomentSequence:
    """Equal-mass moments of the roots of a monic polynomial, computed
    from its coefficients alone via Newton's identities.

    sigma_n = (sum of n-th powers of the roots) / degree.  This never
    touches the roots themselves, which makes it an oracle independent
    of the Ramanujan-sum route.

    Newton runs in integers on q(z) = E^d * p(z / E), E the common
    denominator of p's coefficients: q is monic with integer coefficients
    and its roots are E times those of p, so its power sums are E^k * p_k.
    """
    if not charpoly.is_monic:
        raise InvalidCharacteristicError("power sums need a monic polynomial")
    if not charpoly.ints[0]:
        raise InvalidCharacteristicError("roots must be nonzero (constant term is 0)")
    d = charpoly.degree
    ints, scale = charpoly.ints, charpoly.den
    q = [c * scale ** (d - 1 - i) for i, c in enumerate(ints[:d])]
    # Newton for the power sums P_k of q: P_k = -(q_{d-1} P_{k-1} + ... +
    # q_{d-r} P_{k-r}) - k q_{d-k}, r = min(k - 1, d), the last term only
    # for k <= d
    power = [d]
    for k in range(1, length + 1):
        acc = sum(q[d - i] * power[k - i] for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            acc += k * q[d - k]
        power.append(-acc)
    ints = [s * scale ** (length - k) for k, s in enumerate(power)]  # sigma_k = P_k / (d E^k)
    return MomentSequence.from_ints(ints, d * scale**length, "power-sums")


# ---------------------------------------------------------------------------
# Exact Toeplitz determinants (fraction-free Bareiss)
# ---------------------------------------------------------------------------


def _scaled_prefix(m: MomentSequence, n: int) -> tuple[tuple[int, ...], int]:
    """(S, D) with S[t] == D * sigma_t for 0 <= t < n, D the common
    denominator of those moments: the data of an n x n Toeplitz matrix."""
    if n - 1 > m.max_index:
        raise InsufficientMomentsError(
            f"Toeplitz determinant of size {n} needs moments up to sigma_{n - 1}"
        )
    return _lowest_terms(m.ints[:n], m.den)


def _scaled_moments(m: MomentSequence, count: int) -> tuple[tuple[int, ...], int]:
    """(S, D) with S[count - 1 + t] == D * sigma_t for -count < t < count,
    D the common denominator of sigma_0..sigma_{count-1}."""
    ints, scale = _scaled_prefix(m, count)
    return ints[:0:-1] + ints, scale


def _bareiss(rows: list[list[int]], width: int) -> tuple[int, int]:
    """Fraction-free forward elimination (Bareiss 1968) in place, pivoting
    by row swaps in the first ``width`` columns and updating all columns:
    entry (i, j) after step k is the minor on rows 0..k, i and columns
    0..k, j, so each division is exact.  Return the number of swaps and the
    last pivot: 1 for width 0, 0 at a column with no pivot."""
    swaps, prev = 0, 1
    for k in range(width):
        i = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if i is None:
            return swaps, 0
        rows[k], rows[i] = rows[i], rows[k]
        swaps += i > k
        top, pivot = rows[k][k:], rows[k][k]
        for row in rows[k + 1 :]:
            row[k:] = [(pivot * y - row[k] * t) // prev for y, t in zip(row[k:], top)]
        prev = pivot
    return swaps, prev


def toeplitz_det(m: MomentSequence, n: int) -> Fraction:
    """Delta_n, the determinant of the n x n moment matrix; Delta_0 = 1."""
    if n < 0:
        raise InvalidModulusError(f"determinant size must be >= 0, got {n}")
    ints, scale = _scaled_prefix(m, n)
    rows = [[ints[abs(j - i)] for j in range(n)] for i in range(n)]  # D * sigma_{j-i}
    swaps, pivot = _bareiss(rows, n)
    return Fraction((-1) ** swaps * pivot, scale**n)


def _bordered_elimination(m: MomentSequence, count: int) -> tuple[int | None, list[list[int]]]:
    """(swaps or None if a column has no pivot, right blocks) of [T | I],
    T = (D sigma_{j-i}) of size count, after ``_bareiss`` over count - 1
    columns; row r's v_i is det of rows 0..r of [T[:, :r] | e_i], swapped."""
    ints, _ = _scaled_prefix(m, count)
    rows = [[ints[abs(j - i)] for j in range(count)] + [int(i == j) for j in range(count)]
            for i in range(count)]
    swaps, pivot = _bareiss(rows, count - 1)
    return (swaps if pivot else None), [row[count:] for row in rows]


def leading_toeplitz_minors(m: MomentSequence, n: int) -> list[Fraction]:
    """[Delta_1, ..., Delta_n] by content-reduced Schur elimination, O(n^2).

    The recursion runs on the scaled moments S_t = D * sigma_t (D their
    common denominator), whose k-th leading minor is D^k * Delta_k; call it P_k,
    with P_0 = 1.  For the monic orthogonal polynomial Phi_k of S and the
    form <f, g> = sum f_i g_j S_{i-j}, the fraction-free Schur recursion
    (Bareiss 1969) has two integer arrays

        E_k(j) = P_k * <Phi_k, z^j>    for -(n-1-k) <= j <= -1,
        F_k(j) = P_k * <Phi_k^*, z^j>  for -(n-1-k) <= j <= 0,

    starting from E_0(j) = F_0(j) = S_{-j} (Phi_0 = 1).  F_k(0) is
    P_k * h_k = P_{k+1}, the next minor.  With Q = E_k(-1), the real
    recurrence Phi_{k+1} = z Phi_k - a_k Phi_k^* and its reversal
    Phi_{k+1}^* = Phi_k^* - a_k z Phi_k, where a_k = Q / P_{k+1}, give

        P_k * E_{k+1}(j) = P_{k+1} * E_k(j-1) - Q * F_k(j),
        P_k * F_{k+1}(j) = P_{k+1} * F_k(j) - Q * E_k(j-1),

    O(n - k) operations per step.  E_k and F_k are integers (by Cramer's
    rule P_k * Phi_k is the bordered determinant of the integer matrix).
    They grow with P_k, but their content does not have to: the sweep
    keeps f = F_k / s and e = E_k / s for a positive integer s (s = 1 at
    the start), the primitive remainder-sequence idea of Collins (J. ACM
    14, 1967).  The pivot f[0] is P_{k+1} / s, and with q = e[0] it forms

        raw = pivot * f - q * e = (P_k / s^2) * F_{k+1}

    (and its e twin).  Write P_k / s^2 = u / v in lowest terms, u > 0.
    F_{k+1} is integral, so v divides it and raw = u * (F_{k+1} / v): the
    division raw // u is exact and leaves F_{k+1} / v.  Dividing f and e
    by their joint content g then leaves F_{k+1} / s' and E_{k+1} / s' with
    s' = v * g, and Delta_{k+1} = P_{k+1} / D^{k+1} = s * pivot / D^{k+1}.
    Dividing by u before the gcd keeps the gcd on short integers.
    ``_schur_minors`` keeps the integer pivots P_k and raises
    SingularMomentError at the first P_k, k < n, that is not positive (the
    next divisor); this function also rejects such a P_n, and divides each
    P_k by D^k.  The builders run no sweep (``_verify_annihilation``).
    The tests keep general Bareiss elimination (``toeplitz_det``) as the oracle.
    """
    pivots, scale = _schur_minors(m, n)
    if pivots and pivots[-1] <= 0:
        raise _not_positive(n, Fraction(pivots[-1], scale**n), m)
    return [Fraction(p, scale**k) for k, p in enumerate(pivots, 1)]


def _not_positive(k: int, delta: Fraction, m: MomentSequence) -> SingularMomentError:
    return SingularMomentError(f"Delta_{k} = {_text(delta)} is not positive ({m.provenance})")


def _schur_minors(m: MomentSequence, n: int) -> tuple[list[int], int]:
    """([P_1, ..., P_n], D), P_k = D^k * Delta_k, by the recursion of
    ``leading_toeplitz_minors``; P_n may have any sign."""
    ints, scale = _scaled_prefix(m, n)
    # f[i] = F_k(-i) / s, e[i] = E_k(-1 - i) / s
    f, e = ints, ints[1:]
    s = prev = 1  # prev = P_k
    pivots = []
    for _ in range(n):
        pivot = f[0]
        minor = s * pivot
        pivots.append(minor)
        if not e:
            break
        if pivot <= 0:
            raise _not_positive(len(pivots), Fraction(minor, scale ** len(pivots)), m)
        g = gcd(prev, s * s)
        u, v = prev // g, s * s // g
        q = e[0]
        f, e = (
            [(pivot * x - q * y) // u for x, y in zip(f, e)],
            [(pivot * y - q * x) // u for x, y in zip(f[1:], e[1:])],
        )
        g = gcd(*f, *e) or 1
        if g != 1:
            f, e = [x // g for x in f], [y // g for y in e]
        s, prev = v * g, minor
    return pivots, scale


# ---------------------------------------------------------------------------
# Inner product and the recurrence
# ---------------------------------------------------------------------------


def _moment_row(sym: list[int], mid: int, g: Poly, count: int) -> list[int]:
    """[D * E * <z^k, g> for k < count <= mid + 1], g = G / E, deg g <= mid and
    sym[mid + t] == D * sigma_t: sigma_{k-b} = sigma_{b-k} is sym[mid - k + b]."""
    n = len(g.ints)
    return [sum(map(mul, g.ints, sym[mid - k : mid - k + n])) for k in range(count)]


def inner_product(m: MomentSequence, f: Poly, g: Poly) -> Fraction:
    """The sesquilinear form of the measure realized through its moments:
    <f, g> = sum_{j,k} f_j * g_k * sigma_{j-k}.

    With real coefficients this equals the integral of
    f(e^{i theta}) * g(e^{-i theta}) against the measure, evaluated
    without materializing any root."""
    deg = max(f.degree, g.degree)
    if deg > m.max_index:
        raise InsufficientMomentsError(
            f"inner product of degrees {f.degree}, {g.degree} needs moments up "
            f"to index {deg}"
        )
    sym, scale = _scaled_moments(m, deg + 1)
    acc = sum(map(mul, f.ints, _moment_row(sym, deg, g, len(f.ints))))
    return Fraction(acc, f.den * g.den * scale)


def szego_step(phi: Poly, a: Fraction) -> Poly:
    """One forward recurrence step: z * phi - a * phi^* (real case), as
    (q z P - p P^*) / (q d) for phi = P / d and a = p / q in lowest terms."""
    p, q, ints = a.numerator, a.denominator, phi.ints
    if not (ints and ints[-1] == phi.den):
        raise InvalidCharacteristicError("recurrence steps need a monic polynomial")
    shifted, star = (0, *ints), (*ints[::-1], 0)
    return Poly.from_ints([q * x - p * y for x, y in zip(shifted, star)], q * phi.den)


def inverse_szego_step(phi_next: Poly) -> tuple[Poly, Fraction]:
    """Recover (phi, a) from phi_{next} = z*phi - a*phi^*.

    a is read off the constant term as a = -phi_next(0); the descent is
    exact for |a| != 1 because phi = (phi_next + a*phi_next^*) / ((1-a^2) z).
    For phi_next = P / d, a = -P_0 / d and phi = (d P - P_0 P^*) / (z (d^2 - P_0^2)).
    """
    if not phi_next.is_monic or phi_next.degree < 1:
        raise InvalidCharacteristicError(
            "descent needs a monic polynomial of degree >= 1"
        )
    ints, d = phi_next.ints, phi_next.den
    if abs(ints[0]) == d:
        raise UnimodularConstantTermError(
            f"|constant term| = 1 in {phi_next}; descent cannot continue"
        )
    num = [d * x - ints[0] * y for x, y in zip(ints, ints[::-1])]  # num[0] = 0: monic
    return Poly.from_ints(num[1:], d * d - ints[0] * ints[0]), Fraction(-ints[0], d)


def _norm_step(h: tuple[int, int], a: Fraction) -> tuple[int, int]:
    """h_{n+1} = h_n (q^2 - p^2) / q^2 for h_n = h[0] / h[1] and a_n = p / q,
    both in lowest terms, as a pair in lowest terms."""
    p, q = a.numerator, a.denominator
    num, den = h[0] * (q * q - p * p), h[1] * q * q
    g = gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# The assembled system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerblunskySequence:
    """Reflection coefficients a_0..a_N of a finite para-orthogonal
    family: |a_k| < 1 strictly for k < N and |a_N| = 1."""

    a: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.a:
            raise TerminalMassError("need at least the terminal coefficient")
        _check_exact(self.a, "a")
        for k, v in enumerate(self.a[:-1]):
            if abs(v.numerator) >= v.denominator:
                raise InteriorCoefficientOutOfRangeError(
                    f"|a_{k}| = {_text(abs(v))} >= 1 below the terminal index"
                )
        if abs(self.a[-1].numerator) != self.a[-1].denominator:
            raise TerminalMassError(f"terminal coefficient {_text(self.a[-1])} is not unimodular")

    @property
    def n_max(self) -> int:
        return len(self.a) - 1

    def __iter__(self):
        return iter(self.a)

    def __len__(self):
        return len(self.a)

    def __getitem__(self, k):
        return self.a[k]

    def to_json_list(self) -> list[str]:
        return render_rationals([v.as_integer_ratio() for v in self.a])


@dataclass(frozen=True)
class PopucSystem:
    """A complete finite para-orthogonal ladder.

    Stores the monic polynomials Phi_0..Phi_{N+1}, the reflection
    coefficients a_0..a_N, the generating moments, and a provenance
    label.  The squared norms h_0..h_N and the Toeplitz determinants
    Delta_1..Delta_{N+1} derive from the reflection coefficients alone:
    ``h`` and ``delta`` are built when read from the integer norms
    ``_norms``, and are positive because every |a_k| < 1 below N.
    Construction re-checks the cheap structural invariants; the builders
    enforce orthogonality, and ``from_json_dict`` rejects a payload whose
    rungs, moments, h or delta disagree with its reflection coefficients.
    """

    family: str
    moments: MomentSequence
    phis: tuple[Poly, ...]
    verblunsky: VerblunskySequence

    def __post_init__(self):
        if len(self.phis) != self.verblunsky.n_max + 2:
            raise InternalInconsistencyError("ladder length does not match coefficients")
        for n, phi in enumerate(self.phis):
            if len(phi.ints) != n + 1 or phi.ints[-1] != phi.den:
                raise InternalInconsistencyError(f"rung {n} is not monic of degree {n}")
        if self.moments.ints[0] != self.moments.den:
            raise InternalInconsistencyError("systems are normalized to sigma_0 = 1")

    @cached_property
    def _norms(self) -> tuple[tuple[int, int], ...]:
        """h_0..h_N as (numerator, denominator) pairs in lowest terms."""
        return tuple(accumulate(self.verblunsky.a[:-1], _norm_step, initial=(1, 1)))

    @cached_property
    def h(self) -> tuple[Fraction, ...]:
        """h_0..h_N, h_n = (1 - a_0^2) ... (1 - a_{n-1}^2)."""
        return tuple(Fraction(*h) for h in self._norms)

    @cached_property
    def delta(self) -> tuple[Fraction, ...]:
        """Delta_1..Delta_{N+1}, Delta_{n+1} = h_0 ... h_n."""
        return tuple(accumulate(self.h, mul))

    def check_delta(self, delta, route: str, scale: int = 1) -> None:
        """Match Delta_1..Delta_{N+1} found by another route (Toeplitz
        minors, a closed form, a payload) against the norms; raise
        InternalInconsistencyError naming the first Delta_k that differs.
        delta[k-1] = P_k = D^k Delta_k for D = scale (the integer pivots of
        an elimination), or Delta_k itself for scale = 1.  With P_0 = 1 and
        h_k = hn_k / hd_k it checks P_{k+1} hd_k == D P_k hn_k, that is
        Delta_{k+1} == Delta_k h_k, for k = 0..N: by induction from
        Delta_0 = 1, equal Delta_k for every k.  Fractions are built only
        for the message.  Delta_{N+2}, which a payload does not
        carry, is checked by ``_check_closed_minors``."""
        delta = tuple(delta)
        if len(delta) != len(self._norms):
            raise InternalInconsistencyError(
                f"{len(delta)} determinants by {route}, but the ladder has "
                f"{len(self._norms)} ({self.family})"
            )
        prev = 1
        for k, (other, (hn, hd)) in enumerate(zip(delta, self._norms), 1):
            if other * hd != scale * prev * hn:
                raise InternalInconsistencyError(
                    f"Delta_{k} = {_text(Fraction(other, scale**k))} by {route}, but "
                    f"{_text(Fraction(scale * prev * hn, scale**k * hd))} from the norms "
                    f"({self.family})"
                )
            prev = other

    @property
    def n_max(self) -> int:
        """N: index of the last interior-normed polynomial Phi_N."""
        return self.verblunsky.n_max

    @property
    def terminal(self) -> Poly:
        """Phi_{N+1}, the characteristic polynomial carrying the spectrum."""
        return self.phis[-1]

    def series_text(self) -> dict[str, list[str]]:
        """The text of the scalar series, h from the integer norms: the one
        rendering that the payload, the CSV rows and the table lines read."""
        return {
            "verblunsky": self.verblunsky.to_json_list(),
            "h": render_rationals(self._norms),
            "delta": render_rationals([v.as_integer_ratio() for v in self.delta]),
            "moments": render_rationals(self.moments.ints, self.moments.den),
        }

    def to_json_dict(self) -> dict:
        text = self.series_text()
        phis = [p.to_json_list() for p in self.phis]
        return {"family": self.family, "N": self.n_max, "verblunsky": text.pop("verblunsky"),
                "phis": phis, **text}

    @staticmethod
    def from_json_dict(d: dict) -> "PopucSystem":
        """Load a ``to_json_dict`` payload.  Every field but ``family`` is
        checked against ``verblunsky`` by the builder's own checks: ``N`` is
        its last index and a_n = -Phi_{n+1}(0).  The rungs are monic of
        degree n, so check (i) of ``_verify_annihilation`` then says each is
        z Phi_n - a_n Phi_n^* of the one below, and its check (ii) and
        ``_check_moments_past_terminal`` say the moments are the ones the
        ladder implies.  ``h`` and ``delta`` must be the derived values.  A
        mismatch raises InternalInconsistencyError; a missing key, a value
        of the wrong type or a number that does not parse raises
        InvalidPayloadError.  Lists that cannot form a ladder raise the
        constructors' TerminalMassError, InsufficientMomentsError or
        SingularMomentError (InteriorCoefficientOutOfRangeError if |a_n| >= 1)."""
        if not isinstance(d, dict):
            raise InvalidPayloadError(f"payload is a {type(d).__name__}, not a JSON object")
        try:
            family, n_max, raw_phis = d["family"], d["N"], d["phis"]
            values = {
                key: _payload_rationals(d[key], key)
                for key in ("moments", "verblunsky", "h", "delta")
            }
        except KeyError as exc:
            raise InvalidPayloadError(f"payload has no key {exc}") from exc
        if not isinstance(family, str):
            raise InvalidPayloadError("payload family must be a string")
        if type(n_max) is not int:
            raise InvalidPayloadError("payload N must be an integer")
        if not isinstance(raw_phis, list):
            raise InvalidPayloadError("payload phis must be a list of coefficient lists")
        system = PopucSystem(
            family=family,
            moments=MomentSequence(sigma=values["moments"], provenance=family),
            phis=tuple(Poly(_payload_rationals(p, f"phis[{n}]")) for n, p in enumerate(raw_phis)),
            verblunsky=VerblunskySequence(values["verblunsky"]),
        )
        if n_max != system.n_max:
            raise InternalInconsistencyError(
                f"payload N = {n_max} but a_0..a_N gives N = {system.n_max}"
            )
        _check_constant_terms(system.verblunsky.a, system.phis, "payload")
        try:
            _verify_annihilation(system.moments, list(system.phis))
            _check_moments_past_terminal(system.moments, system.terminal)
        except (InsufficientMomentsError, InternalInconsistencyError, TerminalMassError) as exc:
            raise InternalInconsistencyError(
                f"payload moments are not the ones the ladder implies: {exc}"
            ) from exc
        if tuple(h.as_integer_ratio() for h in values["h"]) != system._norms:
            raise InternalInconsistencyError("payload h disagrees with prod(1 - a_k^2)")
        system.check_delta(values["delta"], "payload")
        return system


def _check_constant_terms(verblunsky, phis, source: str) -> None:
    """a_n = -Phi_{n+1}(0), n = 0..N: ``_norms`` are the rungs' own norms.
    For a_n = p / q and Phi_{n+1}(0) = C_0 / E, both in their stored forms
    (q > 0, E > 0), a_n == -C_0 / E exactly when p E == -C_0 q: multiplying
    both sides by the positive q E changes no verdict, so no Fraction is built."""
    for n, a_n in enumerate(verblunsky):
        rung = phis[n + 1]
        if a_n.numerator * rung.den != -rung.ints[0] * a_n.denominator:
            raise InternalInconsistencyError(
                f"{source} Phi_{n + 1} is not z Phi_{n} - a_{n} Phi_{n}^*"
            )


def _check_closed_minors(system: PopucSystem, pivots, scale: int, route: str) -> None:
    """pivots[k-1] = P_k = D^k Delta_k (D = scale), k = 1..N+2, found by
    `route`: P_1..P_{N+1} must match the norms (``check_delta``) and
    Delta_{N+2} = Delta_{N+1} h_N (1 - a_N^2) must be 0, as |a_N| = 1."""
    *pivots, last = pivots
    system.check_delta(pivots, route, scale)
    if last:
        n2 = len(pivots) + 1
        raise InternalInconsistencyError(
            f"Delta_{n2} = {_text(Fraction(last, scale**n2))} by {route}, but "
            f"|a_{n2 - 2}| = 1 makes it 0 ({system.family})"
        )


def _payload_rationals(items, key: str) -> tuple[Fraction, ...]:
    """The exact rationals of a payload list of "num/den" strings, any length."""
    if not isinstance(items, list) or not all(isinstance(s, str) for s in items):
        raise InvalidPayloadError(f"payload {key} must be a list of rational strings")
    try:
        return tuple(map(parse_rational, items))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidPayloadError(f"payload {key}: {exc}") from exc


def _check_moments_past_terminal(m: MomentSequence, terminal: Poly) -> None:
    """Phi_{N+1} vanishes on the support, so <z^j Phi_{N+1}, 1> = 0 for
    every j >= 0: each moment past sigma_{N+1} is fixed by the ones below
    it.  Raise TerminalMassError naming the first sigma_k that is not."""
    d, lower, sigma = terminal.degree, terminal.ints[:-1], m.ints
    for k in range(d + 1, m.max_index + 1):
        # D * E times the sigma_k that Phi_d = C / E implies, for sigma_t = S_t / D
        implied = -sum(map(mul, lower, sigma[k - d :]))
        if implied != terminal.den * sigma[k]:
            raise TerminalMassError(
                f"sigma_{k} = {_text(m.at(k))}, but the terminal rung Phi_{d} implies "
                f"{_text(Fraction(implied, m.den * terminal.den))} ({m.provenance})"
            )


def _verify_annihilation(m: MomentSequence, phis: list[Poly]) -> None:
    """Every rung must kill z^j for j below its degree; this is the moment
    characterization of the ladder and holds for the terminal rung too
    (it vanishes on the support).  It proves the ladders of both builders
    and the payloads ``PopucSystem.from_json_dict`` loads.

    The check is O(N^2).  For each n >= 1 it asks two things of the rung
    Phi_n, in integers over the common denominators Phi_{n-1} = B / E_b,
    Phi_n = C / E and sigma_t = S_t / D:

    (i)  Phi_n = z Phi_{n-1} - a Phi_{n-1}^* with a = -Phi_n(0) read from
         the rung itself, deg Phi_{n-1} = n - 1 and deg Phi_n = n,
         coefficient by coefficient:
         C_k * E_b == B_{k-1} * E + C_0 * B_{n-1-k} (B_{-1} = 0);
    (ii) <Phi_n, 1> = 0, that is sum_k C_k S_k == 0.

    Why this is enough: the moments are real and symmetric, so
    <Phi^*, z^j> = <Phi, z^{n-1-j}> for Phi of degree n - 1.  Hence if
    Phi_{n-1} kills z^0..z^{n-2}, both z Phi_{n-1} and Phi_{n-1}^* kill
    z^1..z^{n-1}, (i) carries that to Phi_n whatever a is, and (ii) adds
    z^0.  From Phi_0 (which has nothing to kill), induction shows that a
    ladder passing (i) and (ii) at every rung passes the direct check of
    every <Phi_n, z^j>.  Conversely, let the rungs be monic of degree n
    from Phi_0 = 1, as in every ladder, and the minors Delta_1..Delta_{N+1}
    nonzero.  If every rung kills z^0..z^{n-1}, Phi_n is the unique monic
    orthogonal polynomial of degree n, so it satisfies the recurrence with
    a = a_{n-1} = -Phi_n(0), and (i) and (ii) hold.  Multiplying by the
    positive integers E * E_b and D * E changes no verdict.

    It also proves the minors.  Let sigma_0 = 1, a_n = -Phi_{n+1}(0)
    (``_check_constant_terms``) and h_n = <Phi_n, z^n>.  By that symmetry
    (ii) at n + 1 gives <z Phi_n, 1> = a_n h_n, so (i) gives h_{n+1} =
    h_n (1 - a_n^2), as ``_norms`` steps.  The rungs are unit-triangular
    and orthogonal, so Delta_{n+1} = h_0 ... h_n: |a_n| < 1 below N gives
    Delta_1..Delta_{N+1} > 0, and |a_N| = 1 gives Delta_{N+2} = 0.

    At the first failing rung, the first nonzero <Phi_n, z^j> is reported
    as Fraction(sum, D * E) with its j: the rungs below passed, so this is
    the message the direct check gives.  If there is none, the rung kills
    z^0..z^{n-1} but breaks the recurrence (with nonzero minors, a rung
    that is not monic of degree n, or a Phi_0 other than 1), and that is
    reported as such.
    """
    count = len(phis)
    moments, _ = _scaled_prefix(m, count)
    for n in range(1, count):
        b, b_scale = phis[n - 1].ints, phis[n - 1].den
        c, c_scale = phis[n].ints, phis[n].den
        if len(c) == len(b) + 1 == n + 1:
            shifted, star = (0, *b), (*b[::-1], 0)
            if all(
                ck * b_scale == bk * c_scale + c[0] * rk for ck, bk, rk in zip(c, shifted, star)
            ) and not sum(map(mul, c, moments)):
                continue
        # the first failing rung: sum its inner products one by one
        sym, scale = _scaled_moments(m, count)
        for j in range(n):
            start = count - 1 - j  # sym[start + k] = D * sigma_{k-j}
            val = sum(map(mul, c, sym[start : start + len(c)]))
            if val:
                raise InternalInconsistencyError(
                    f"<Phi_{n}, z^{j}> = {_text(Fraction(val, scale * c_scale))} != 0 "
                    f"({m.provenance})"
                )
        raise InternalInconsistencyError(
            f"Phi_{n} annihilates z^0..z^{n - 1} but is not z Phi_{n - 1} - a Phi_{n - 1}^*, "
            f"a = -Phi_{n}(0) ({m.provenance})"
        )


def determinant_formula_poly(m: MomentSequence, n: int) -> Poly:
    """Phi_n by the bordered-determinant formula: expand the matrix whose
    top n rows are the moments sigma_{j-i} (j = 0..n) and whose last row
    is 1, z, ..., z^n along that last row, then divide by Delta_n, which
    is the cofactor of z^n.  They are (-1)^swaps times the last row of
    ``_bordered_elimination`` of size n + 1, whatever the lower minors."""
    if n < 0:
        raise InvalidModulusError(f"rung index must be >= 0, got {n}")
    swaps, rows = _bordered_elimination(m, n + 1)
    if swaps is None or not rows[n][n]:
        raise SingularMomentError(f"Delta_{n} = 0; determinant formula undefined")
    return Poly.from_ints(rows[n], rows[n][n])


def _check_rungs_by_determinants(m: MomentSequence, phis, route: str) -> tuple[list[int], int]:
    """The paranoid cross-check of a ladder built by `route`: every rung
    Phi_1..Phi_{N+1} must equal the bordered-determinant formula on the
    moments m, all from one O(N^3) ``_bordered_elimination`` of the moment
    table alone.  The builders proved Delta_1..Delta_{N+1} > 0, so column k
    has the pivot P_{k+1} = D^{k+1} Delta_{k+1}, no swap occurs (one raises)
    and row n's block is the cofactors of Phi_n, then zeros, for n <= N+1.
    Row n of the left block is that block times T, so its pivot P_{n+1} is
    the block against column n: return P_1..P_{N+2} and D."""
    swaps, rows = _bordered_elimination(m, len(phis))
    if swaps != 0:
        raise InternalInconsistencyError(f"Delta_k = 0 for some k < {len(phis)} ({m.provenance})")
    for n in range(1, len(phis)):
        det_poly = Poly.from_ints(rows[n], rows[n][n])
        if det_poly != phis[n]:
            raise InternalInconsistencyError(
                f"rung {n}: {route} gives {phis[n]}, determinant formula {det_poly}"
            )
    ints, scale = _scaled_prefix(m, len(phis))
    return [sum(map(mul, row, ints[n::-1])) for n, row in enumerate(rows)], scale


def _proven_ladder(family, moments, phis, a, route=None, norms=None) -> PopucSystem:
    """Prove a finished ladder Phi_0..Phi_{N+1}, a_0..a_N, the one proof
    both builders run.  In order: ``_check_constant_terms``; |a_N| = 1; the
    system, with `norms` (the Levinson loop's h_0..h_N) as its ``_norms``;
    ``_verify_annihilation`` and ``_check_moments_past_terminal``, which
    prove every rung and minor (see there); with a `route`, every rung
    against the bordered-determinant formula, in one O(N^3) elimination
    whose pivots close the minors (``_check_closed_minors``).  The first
    two run before the system is built.  From moments, a rung off its own
    a_n is then reported as the recurrence's fault, not the moments'.  In
    the descent both hold by construction, so the order changes no outcome:
    each a_n is read off its rung as -Phi_{n+1}(0), and a_N = -C(0) after
    the builder checked |C(0)| = 1."""
    _check_constant_terms(a, phis, family)
    if abs(a[-1].numerator) != a[-1].denominator:
        raise TerminalMassError(
            f"|a_{len(a) - 1}| = {_text(abs(a[-1]))} != 1: moments do not describe "
            f"an {len(a)}-point measure ({moments.provenance})"
        )
    system = PopucSystem(family, moments, tuple(phis), VerblunskySequence(tuple(a)))
    if norms is not None:
        system.__dict__["_norms"] = norms
    _verify_annihilation(moments, phis)
    _check_moments_past_terminal(moments, phis[-1])
    if route:
        found = _check_rungs_by_determinants(moments, phis, route)
        _check_closed_minors(system, *found, "Toeplitz minors")
    return system


def popuc_from_moments(
    m: MomentSequence,
    n_plus_1: int,
    family: str | None = None,
    paranoid: bool = False,
) -> PopucSystem:
    """Build the full ladder Phi_0..Phi_{N+1} from moments, N+1 = n_plus_1.

    A Levinson-style update reads a_n = <z Phi_n, 1> / <Phi_n^*, 1>, whose
    divisor sum_k C_k S_{n-k} is D E h_n for Phi_n = C / E, S_t = D sigma_t.
    The loop steps h_{n+1} = h_n (1 - a_n^2) (the system's ``_norms``):
    h_{n+1} > 0, |a_n| < 1, for n < N keeps the divisor positive.
    ``_proven_ladder`` then proves the ladder and every minor;
    paranoid=True adds its bordered-determinant check.

    Raises SingularMomentError when some Delta_k <= 0 for k <= N+1, and
    TerminalMassError when |a_N| != 1 or a moment past sigma_{N+1} is not
    the one the terminal rung implies (no (N+1)-point measure).
    """
    if n_plus_1 < 1:
        raise InvalidModulusError("need n_plus_1 >= 1")
    n_terminal = n_plus_1  # degree of the characteristic polynomial
    if m.max_index < n_terminal:
        raise InsufficientMomentsError(
            f"building {n_terminal + 1} rungs needs sigma_0..sigma_{n_terminal}, "
            f"got up to sigma_{m.max_index}"
        )
    if m.ints[0] != m.den:
        raise SingularMomentError("ladder construction expects sigma_0 = 1")

    ints = _scaled_prefix(m, n_terminal + 1)[0]  # S_t, so D E <z Phi_n, 1> = sum_k C_k S_{k+1}
    phis, a, h = [Poly.one()], [], [(1, 1)]
    for n in range(n_terminal):
        c = phis[n].ints
        a.append(Fraction(sum(map(mul, c, ints[1 : n + 2])), sum(map(mul, c, ints[n::-1]))))
        if n < n_terminal - 1:
            h.append(_norm_step(h[-1], a[n]))
            if h[-1][0] <= 0:
                delta = list(accumulate(map(Fraction, *zip(*h)), mul))
                raise _not_positive(n + 2, delta[-1], m)
        phis.append(szego_step(phis[n], a[n]))
    route = "recurrence" if paranoid else None
    return _proven_ladder(family or m.provenance, m, phis, a, route, tuple(h))


def moments_from_ladder(phis: list[Poly], provenance: str) -> MomentSequence:
    """Recover sigma_0..sigma_{N+1} from a monic ladder by solving the
    annihilation conditions <Phi_n, 1> = 0 upward: each rung determines
    the next moment because it is monic.  Used for systems defined by
    descent, whose measure is known only implicitly."""
    # sigma_k = ints[k] / den, den the least common denominator so far
    ints, den = [1], 1
    for phi in phis[1:]:
        num, div = -sum(map(mul, phi.ints, ints)), phi.den * den
        g = gcd(num, div)
        num, div = num // g, div // g
        if den % div:
            grow = div // gcd(den, div)
            ints, den = [x * grow for x in ints], den * grow
        ints.append(num * (den // div))
    return MomentSequence.from_ints(ints, den, provenance)


def gram_matrix(m: MomentSequence, polys: list[Poly]) -> list[list[Fraction]]:
    """All pairwise inner products <p_i, p_j>, each pair computed once.

    Real symmetric moments and real coefficients make the matrix
    symmetric.  In ascending degree, for each p_j = G / E_j and moments
    over D, the integers w[k] = D * E_j * <z^k, p_j>, k <= deg p_j, are
    formed once (``_moment_row``); every p_i = F / E_i visited so far gets
    <p_i, p_j> = sum_k F_k w[k] / (D E_i E_j) at (i, j) and (j, i).  For
    N + 1 rungs that is about N^3/3 + N^3/6 products against N^3 for
    P * S * P^T, and (N + 1)^2 / 2 Fractions; a zero entry is one shared
    Fraction(0), with no gcd."""
    deg = max((p.degree for p in polys), default=0)
    if deg > m.max_index:
        raise InsufficientMomentsError("Gram matrix needs moments up to the max degree")
    sym, scale = _scaled_moments(m, deg + 1)
    zero = Fraction(0)
    gram = [[zero] * len(polys) for _ in polys]
    seen: list[int] = []
    for j in sorted(range(len(polys)), key=lambda i: polys[i].degree):
        p_j = polys[j]
        w = _moment_row(sym, deg, p_j, len(p_j.ints))
        seen.append(j)
        for i in seen:
            acc = sum(map(mul, polys[i].ints, w))
            if acc:
                gram[i][j] = gram[j][i] = Fraction(acc, scale * polys[i].den * p_j.den)
    return gram
