"""Workload definitions: what each seed draws, how one op runs, and how its
output is checked against the recorded oracle.

Every pool below was chosen so that the specs in it cost about the same
at the seed commit.  A seed then varies the inputs (which specs, p or 2p,
the order of the ops) without moving the cost profile, so figures from
different seeds are comparable.  ``make_oracle.py`` records a digest for
every op any seed can draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

# ladder-cyclotomic: every op is at N+1 = 210, the north star's
# interactive size; the seed draws p = 211 or 2p = 422.
CYCLOTOMIC_ORDERS = (211, 422)

# ladder-kronecker: specs of 6 to 8 distinct orders <= 40 with
# 84 <= N+1 <= 92, 270 to 370-bit coefficients.
KRONECKER_POOL = (
    (1, 6, 13, 15, 21, 25, 26, 35),
    (4, 14, 15, 16, 19, 25, 31),
    (11, 14, 15, 20, 21, 22, 37),
    (10, 12, 15, 17, 18, 21, 37),
    (1, 16, 17, 21, 31, 38),
    (8, 13, 15, 29, 32, 38),
    (3, 14, 20, 27, 34, 37),
    (6, 10, 25, 26, 28, 30, 36, 40),
    (2, 18, 24, 31, 32, 36, 40),
    (15, 18, 26, 30, 31, 35),
    (5, 18, 19, 21, 22, 24, 26, 33),
    (2, 7, 8, 19, 20, 24, 27, 39),
)
KRONECKER_PER_PASS = 6

# orthogonality: single-order specs (p or 2p, N+1 = 42 or 46) and
# multi-order specs (3 to 5 orders, 46 <= N+1 <= 48).  A pass holds more
# multi-order specs, so the median op is a multi-order one.
ORTHO_SINGLE_POOL = ((43,), (47,), (86,), (94,))
ORTHO_MULTI_POOL = (
    (10, 15, 25, 34),
    (22, 25, 38),
    (13, 19, 27),
    (5, 9, 15, 28, 38),
    (16, 25, 33),
    (7, 10, 13, 19, 30),
    (18, 30, 38, 40),
    (2, 20, 23, 24, 30),
    (14, 34, 39),
    (3, 13, 28, 33),
)
ORTHO_SINGLE_PER_PASS = 2
ORTHO_MULTI_PER_PASS = 8

SWEEP_ARGV = ("verify", "--max-m", "60", "--families", "all")
SWEEP_SPECS = 332

WARM_UP_ARGV = ("dual", "--m", "7", "--format", "json")


# The CLI's default --precision 1e-12 fails for M >= 61 (an open defect),
# so the cyclotomic op uses verify's own tolerance, 1e-10.
def cyclotomic_argv(m: int) -> tuple[str, ...]:
    return ("dual", "--m", str(m), "--precision", "1e-10", "--format", "json")


def kronecker_argv(orders: tuple[int, ...]) -> tuple[str, ...]:
    return ("dual", "--kronecker", ",".join(map(str, orders)), "--digits", "30", "--format", "json")


# ---------------------------------------------------------------------------
# Output canonicalization and the integer-growth counters
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_dual(stdout: str) -> tuple[str, dict]:
    """The dual JSON with the floating-point weights block reduced to its
    verdict: residuals may move in the last digits, the verdict may not."""
    payload = json.loads(stdout)
    payload["weights"] = {"passed": payload["weights"]["passed"]}
    return json.dumps(payload), payload


def canonical_text(stdout: str) -> tuple[str, None]:
    return stdout, None


def _bits(x: Fraction) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


@dataclass(frozen=True)
class Growth:
    """Largest integers one ladder holds: coefficient bits, Bareiss
    pivot bits (Delta_k * scale^k, the integer pivot of the elimination
    over the scaled Toeplitz matrix) and moment denominator bits."""

    coeff_bits: int
    pivot_bits: int
    moment_den_bits: int


def ladder_growth(phis, delta, moments) -> Growth:
    phis = [[Fraction(c) for c in phi] for phi in phis]
    delta = [Fraction(d) for d in delta]
    moments = [Fraction(s) for s in moments]
    scale = lcm(*(s.denominator for s in moments[: len(delta)]))
    pivots = [d * scale ** (k + 1) for k, d in enumerate(delta)]
    if any(p.denominator != 1 for p in pivots):
        raise ValueError("Delta_k * scale^k is not an integer")
    return Growth(
        coeff_bits=max(_bits(c) for phi in phis for c in phi),
        pivot_bits=max(p.numerator.bit_length() for p in pivots),
        moment_den_bits=max(s.denominator.bit_length() for s in moments),
    )


def growth_of_system(system) -> Growth:
    return ladder_growth([p.coeffs for p in system.phis], system.delta, system.moments.sigma)


def _coeff_bits(payload: dict) -> int:
    """Largest ladder coefficient, in bits, over both sides of a dual JSON."""
    sides = (payload["ramanujan"], payload["sturmian"])
    return max(ladder_growth(s["phis"], s["delta"], s["moments"]).coeff_bits for s in sides)


def cyclotomic_gate(payload: dict) -> str | None:
    bits = _coeff_bits(payload)
    if bits > 8:
        return f"ladder-cyclotomic spec drew {bits}-bit ladder coefficients (expected <= 8)"
    return None


def kronecker_gate(payload: dict) -> str | None:
    bits = _coeff_bits(payload)
    if bits < 100:
        return f"ladder-kronecker spec drew only {bits}-bit ladder coefficients (expected >= 100)"
    return None


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


def run_cli(cli, argv) -> tuple[int, str, str]:
    """cli.main in-process, as ``ramanujan-popuc ARGV`` would run it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


@dataclass(frozen=True)
class Op:
    """One timed call.  ``call`` returns (exit code, stdout, stderr);
    ``canonical`` maps stdout to the text the oracle digests and to the
    parsed payload the gate reads."""

    key: str
    specs: int
    call: Callable[[], tuple[int, str, str]]
    canonical: Callable[[str], tuple[str, object]]
    gate: Callable[[object], str | None] | None = None
    side: str | None = None

    def check(self, code: int | None, stdout: str, oracle: dict[str, str]) -> tuple[str | None, str | None]:
        """(digest of the exact output, None when the op passed else why
        it failed)."""
        if code != 0:
            return None, f"exit code {code}"
        try:
            text, payload = self.canonical(stdout)
            problem = self.gate(payload) if self.gate else None
        except (ValueError, KeyError, TypeError) as exc:
            return None, f"unreadable output: {exc!r}"
        found = digest(text)
        expected = oracle.get(self.key)
        if expected is None:
            return found, "no oracle entry for this op"
        if found != expected:
            return found, "output differs from the oracle"
        return found, problem


def cli_op(cli, argv, canonical, specs=1, gate=None) -> Op:
    return Op(
        key=" ".join(argv),
        specs=specs,
        call=lambda: run_cli(cli, argv),
        canonical=canonical,
        gate=gate,
    )


def orthogonality_check(lib, system) -> str:
    """Acceptance criterion 6 on one system: the Gram matrix of
    Phi_0..Phi_N is diag(h) entrywise and the Toeplitz minors equal delta."""
    rungs = list(system.phis[:-1])
    g = lib.gram_matrix(system.moments, rungs)
    gram_ok = all(
        g[i][j] == (system.h[i] if i == j else 0) for i in range(len(rungs)) for j in range(len(rungs))
    )
    minors_ok = tuple(lib.leading_toeplitz_minors(system.moments, system.n_max + 1)) == system.delta
    return json.dumps({"gram_is_diag_h": gram_ok, "minors_equal_delta": minors_ok})


def orthogonality_op(lib, orders, side, system) -> Op:
    return Op(
        key=f"orthogonality {','.join(map(str, orders))} {side}",
        specs=1,
        call=lambda: (0, orthogonality_check(lib, system), ""),
        canonical=canonical_text,
        side=side,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``draw`` turns a seed into the inputs of one pass; ``build`` turns
    those inputs into ops, doing any set-up work (ladders built ahead of
    the timed phase); ``pool`` lists every input any seed can draw."""

    name: str
    draw: Callable[[random.Random], list]
    build: Callable[[object, object, list], tuple[list[Op], list]]
    pool: Callable[[], list]


def _cli_build(argv_of, canonical, gate=None, specs=1):
    def build(lib, cli, inputs):
        return [cli_op(cli, argv_of(x), canonical, specs, gate) for x in inputs], []

    return build


def _ortho_build(lib, cli, inputs):
    ops, pairs = [], []
    for orders in inputs:
        pair = lib.build_dual_pair(lib.KroneckerSpec(orders))
        pairs.append(pair)
        ops.append(orthogonality_op(lib, orders, "ramanujan", pair.ramanujan))
        ops.append(orthogonality_op(lib, orders, "sturmian", pair.sturmian))
    return ops, pairs


def cyclotomic_workload(orders=CYCLOTOMIC_ORDERS):
    return Workload(
        "ladder-cyclotomic",
        lambda rng: [rng.choice(orders)],
        _cli_build(cyclotomic_argv, canonical_dual, cyclotomic_gate),
        lambda: list(orders),
    )


def kronecker_workload(pool=KRONECKER_POOL, per_pass=KRONECKER_PER_PASS):
    return Workload(
        "ladder-kronecker",
        lambda rng: rng.sample(pool, per_pass),
        _cli_build(kronecker_argv, canonical_dual, kronecker_gate),
        lambda: list(pool),
    )


def sweep_workload(argv=SWEEP_ARGV, specs=SWEEP_SPECS):
    return Workload(
        "sweep",
        lambda rng: [argv],
        _cli_build(lambda a: a, canonical_text, specs=specs),
        lambda: [argv],
    )


def orthogonality_workload(
    single=ORTHO_SINGLE_POOL,
    multi=ORTHO_MULTI_POOL,
    single_per_pass=ORTHO_SINGLE_PER_PASS,
    multi_per_pass=ORTHO_MULTI_PER_PASS,
):
    def draw(rng):
        inputs = rng.sample(single, single_per_pass) + rng.sample(multi, multi_per_pass)
        rng.shuffle(inputs)
        return inputs

    return Workload("orthogonality", draw, _ortho_build, lambda: list(single) + list(multi))


def workloads() -> dict[str, Workload]:
    return {
        w.name: w
        for w in (cyclotomic_workload(), kronecker_workload(), sweep_workload(), orthogonality_workload())
    }
