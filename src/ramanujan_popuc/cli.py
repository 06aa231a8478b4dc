"""Command-line surface: compute, verify, and export everything the
library builds, in human, JSON, or CSV form.  Every subcommand but
verify prints through ``_emit``, which builds only the form the chosen
format needs.  Per spec, verify adds the weights, the power-sum oracle
and the closed form to what ``build_dual_pair`` proves.

Exit codes: 0 = success / all checks verified, 1 = a mathematical check
failed, 2 = usage error.  Rationals are rendered exactly, at any length,
as "num/den" (integers without the "/1") by the library's one renderer
(``polynomials.render_rationals``), so exactness survives the text
boundary.  The default output format can be set with the
RAMANUJAN_POPUC_FORMAT environment variable; any value other than
table, json or csv is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import lru_cache
from itertools import combinations

from .closed_forms import cf_ramanujan_2p, cf_ramanujan_anti2p, cf_ramanujan_prime
from .duality import (
    build_dual_pair, ramanujan_from_charpoly, sturmian_from_charpoly, verify_weights
)
from .errors import (
    DuplicateOrderError,
    InsufficientMomentsError,
    InternalInconsistencyError,
    InvalidModulusError,
    NonPrimeError,
    PopucError,
)
from .number_theory import is_odd_prime, ramanujan_table
from .opuc_core import moments_from_power_sums
from .polynomials import KroneckerSpec, kronecker_poly

USAGE_ERRORS = (
    InvalidModulusError,
    DuplicateOrderError,
    NonPrimeError,
    InsufficientMomentsError,
)

FORMATS = ("table", "json", "csv")


def _default_format(parser: argparse.ArgumentParser) -> str:
    """RAMANUJAN_POPUC_FORMAT, or table when unset; any other value is a
    usage error (exit 2)."""
    fmt = os.environ.get("RAMANUJAN_POPUC_FORMAT", "table")
    if fmt not in FORMATS:
        parser.exit(
            2,
            f"{parser.prog}: error: RAMANUJAN_POPUC_FORMAT={fmt!r} is not a format; "
            f"choose from {', '.join(FORMATS)}\n",
        )
    return fmt


def _parse_kronecker(text: str) -> KroneckerSpec:
    try:
        orders = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InvalidModulusError(f"cannot parse order list {text!r}") from exc
    return KroneckerSpec(orders)


def _spec_from_args(args) -> KroneckerSpec:
    if (args.m is None) == (args.kronecker is None):
        raise InvalidModulusError("exactly one of --m / --kronecker is required")
    if args.m is not None:
        if args.m < 1:
            raise InvalidModulusError(f"--m must be >= 1, got {args.m}")
        return KroneckerSpec([args.m])
    return _parse_kronecker(args.kronecker)


def _emit(fmt: str, payload, rows, lines) -> None:
    """Print one result in format fmt.  payload, rows and lines are
    zero-argument callables giving the JSON object, the CSV rows (dicts)
    and the table lines; only the one fmt needs is called.  The CSV header
    is the keys of the first row: every subcommand emits at least one row
    (c_M(0), Phi_0, and one per root or coefficient for N + 1 >= 1)."""
    if fmt == "json":
        print(json.dumps(payload()))
    elif fmt == "csv":
        records = rows()
        writer = csv.DictWriter(sys.stdout, fieldnames=list(records[0]))
        writer.writeheader()
        writer.writerows(records)
    else:
        print("\n".join(lines()))


def _system_csv_rows(system) -> list[dict]:
    """One row per (series, n, k, value); polynomials expand to one row
    per coefficient, scalar series (moments as "moment") leave k empty."""
    rows = [{"series": "phi", "n": n, "k": k, "value": c}
            for n, phi in enumerate(system.phis) for k, c in enumerate(phi.to_json_list())]
    for series, values in system.series_text().items():
        series = "moment" if series == "moments" else series
        rows += ({"series": series, "n": n, "k": "", "value": v} for n, v in enumerate(values))
    return rows


def _system_table(system) -> list[str]:
    return [
        f"family     : {system.family}",
        f"N          : {system.n_max}",
        *(f"{series:<11}: {'  '.join(values)}" for series, values in system.series_text().items()),
        *(f"Phi_{n:<3}    : {phi}" for n, phi in enumerate(system.phis)),
    ]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sums(args) -> int:
    if args.m < 1:
        raise InvalidModulusError(f"--m must be >= 1, got {args.m}")
    if args.n_max < 0:
        raise InvalidModulusError(f"--n-max must be >= 0, got {args.n_max}")
    table = ramanujan_table(args.m, args.n_max)
    _emit(
        args.format,
        table.to_json_dict,
        lambda: [{"n": n, "value": v} for n, v in enumerate(table.values)],
        lambda: [" ".join(str(v) for v in table.values)],
    )
    return 0


def _build_system(args):
    spec = _spec_from_args(args)
    if args.family == "sturmian":
        return sturmian_from_charpoly(
            kronecker_poly(spec), family=f"sturmian:{spec.label}", paranoid=args.paranoid
        )
    return ramanujan_from_charpoly(spec, paranoid=args.paranoid)


def cmd_popuc(args) -> int:
    system = _build_system(args)
    _emit(
        args.format,
        system.to_json_dict,
        lambda: _system_csv_rows(system),
        lambda: _system_table(system),
    )
    return 0


def cmd_dual(args) -> int:
    if args.digits is not None and args.digits < 1:
        raise InvalidModulusError(f"--digits must be >= 1, got {args.digits}")
    if not math.isfinite(args.precision):
        raise InvalidModulusError(f"--precision must be finite, got {args.precision}")
    spec = _spec_from_args(args)
    pair = build_dual_pair(spec)
    report = verify_weights(pair, tol=args.precision, digits=args.digits)
    _emit(
        args.format,
        lambda: pair.to_json_dict() | {"weights": report.to_json_dict()},
        lambda: [
            {
                "root_index": i,
                "root_re": float(r["root"].real),
                "root_im": float(r["root"].imag),
                "equal_mass_residual": r["equal_mass_residual"],
                "sturmian_positive": r["sturmian_positive"],
            }
            for i, r in enumerate(report.rows)
        ],
        lambda: [
            f"spec             : {{{spec.label}}}",
            f"charpoly         : {pair.charpoly}",
            f"ramanujan a      : {'  '.join(pair.ramanujan.verblunsky.to_json_list())}",
            f"sturmian  a      : {'  '.join(pair.sturmian.verblunsky.to_json_list())}",
            *(f"exact {name:<22}: {'ok' if ok else 'FAIL'}" for name, ok in pair.checks.items()),
            f"weights          : max residual {report.max_residual:.3e} "
            f"over {len(report.rows)} roots (tol {report.tol:g})",
        ],
    )
    return 0


def cmd_explore(args) -> int:
    if not is_odd_prime(args.p) or not is_odd_prime(args.q):
        raise NonPrimeError(f"--p and --q must be odd primes, got {args.p}, {args.q}")
    if args.p == args.q:
        raise NonPrimeError("--p and --q must be distinct")
    m = args.p * args.q
    verblunsky = ramanujan_from_charpoly(KroneckerSpec([m])).verblunsky.to_json_list()
    note = "exploratory - no closed form known"
    _emit(
        args.format,
        lambda: {"p": args.p, "q": args.q, "M": m, "verblunsky": verblunsky, "note": note},
        lambda: [{"n": n, "a": v} for n, v in enumerate(verblunsky)],
        lambda: [f"M = {args.p} * {args.q} = {m}   ({note})", " ".join(verblunsky)],
    )
    return 0


# ---------------------------------------------------------------------------
# Batch verification
# ---------------------------------------------------------------------------


def _check_subject(spec: KroneckerSpec, closed_form=None) -> tuple[bool, str]:
    """Run the invariant suite over one spectral spec; (ok, detail), detail
    naming the first failed check.  On top of the exact identities that
    ``build_dual_pair`` proves (Delta_{N+2} = 0 included), it checks the
    weights in double precision, the moments against the power sums of the
    roots (independent of the Ramanujan sums) and the closed form, if any."""
    try:
        pair = build_dual_pair(spec)
        verify_weights(pair, tol=1e-10)
        eng = pair.ramanujan
        if moments_from_power_sums(pair.charpoly, spec.total_degree) != eng.moments:
            return False, "power-sum moments disagree with Ramanujan-sum moments"
        if closed_form is not None and (
            closed_form.phis != eng.phis
            or closed_form.verblunsky != eng.verblunsky
            or closed_form.moments != eng.moments
        ):
            return False, "closed form disagrees with engine"
    except PopucError as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return True, "ok"


def cmd_verify(args) -> int:
    if args.max_m < 1:
        raise InvalidModulusError(f"--max-m must be >= 1, got {args.max_m}")
    subjects: list[tuple[str, KroneckerSpec, object]] = []
    fams = args.families
    primes = [p for p in range(3, args.max_m + 1) if is_odd_prime(p)]
    halves = [p for p in primes if 2 * p <= args.max_m]
    if fams in ("prime", "all"):
        subjects += [(f"prime M={p}", KroneckerSpec([p]), cf_ramanujan_prime(p)) for p in primes]
    if fams in ("2p", "all"):
        subjects += [(f"2p M={2 * p}", KroneckerSpec([2 * p]), cf_ramanujan_2p(p)) for p in halves]
    if fams in ("anti2p", "all"):
        subjects += [
            (f"anti-2p p={p}", KroneckerSpec([1, 2, p]), cf_ramanujan_anti2p(p)) for p in halves
        ]
    if fams in ("kronecker-enum", "all"):
        top = min(args.max_m, 12)
        if args.max_m > top:
            note = f"note: kronecker-enum caps orders at {top}, below --max-m {args.max_m}"
            print(note, file=sys.stderr)
        for size in (1, 2, 3):
            for orders in combinations(range(1, top + 1), size):
                subjects.append((f"kronecker {{{','.join(map(str, orders))}}}",
                                 KroneckerSpec(orders), None))

    failures = 0
    for label, spec, closed in sorted(subjects, key=lambda s: (s[1].total_degree, s[0])):
        ok, detail = _check_subject(spec, closed)
        print(f"{'PASS' if ok else 'FAIL'}  {label:<28} {'' if ok else detail}".rstrip())
        if not ok:
            failures += 1
    print(f"{len(subjects) - failures}/{len(subjects)} verified")
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanujan-popuc",
        description=(
            "Exact construction of finite para-orthogonal polynomial families on "
            "the unit circle from Ramanujan trigonometric sums, their Sturmian "
            "mirror duals, and batch verification of every identity."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=FORMATS,
            help="output format (default from RAMANUJAN_POPUC_FORMAT, else table)",
        )

    p_sums = sub.add_parser("sums", help="Ramanujan sums c_M(0..L)")
    p_sums.add_argument("--m", type=int, required=True)
    p_sums.add_argument("--n-max", type=int, required=True)
    add_format(p_sums)
    p_sums.set_defaults(func=cmd_sums)

    p_popuc = sub.add_parser("popuc", help="build one para-orthogonal system")
    p_popuc.add_argument("--m", type=int, help="cyclotomic order M")
    p_popuc.add_argument("--kronecker", help="comma-separated distinct orders, e.g. 1,2,3")
    p_popuc.add_argument("--family", choices=("ramanujan", "sturmian"), default="ramanujan")
    p_popuc.add_argument(
        "--paranoid",
        action="store_true",
        help="cross-check every rung against the bordered-determinant formula",
    )
    add_format(p_popuc)
    p_popuc.set_defaults(func=cmd_popuc)

    p_dual = sub.add_parser("dual", help="build a mirror-dual pair and verify it")
    p_dual.add_argument("--m", type=int)
    p_dual.add_argument("--kronecker")
    p_dual.add_argument(
        "--precision",
        type=float,
        default=1e-12,
        help="tolerance for the floating-point weight checks (default 1e-12)",
    )
    p_dual.add_argument(
        "--digits",
        type=int,
        default=None,
        help="work at this many significant digits (mpmath) instead of doubles",
    )
    add_format(p_dual)
    p_dual.set_defaults(func=cmd_dual)

    p_verify = sub.add_parser("verify", help="sweep families and run the invariant suite")
    p_verify.add_argument("--max-m", type=int, required=True)
    p_verify.add_argument(
        "--families",
        choices=("all", "prime", "2p", "anti2p", "kronecker-enum"),
        default="all",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_explore = sub.add_parser(
        "explore", help="exact coefficients for M = p*q (no assertions)"
    )
    p_explore.add_argument("--p", type=int, required=True)
    p_explore.add_argument("--q", type=int, required=True)
    add_format(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    return parser


@lru_cache(maxsize=1)  # one per process: each parser leaves cycles for the collector
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    default_format = _default_format(parser)
    args = parser.parse_args(argv)
    if getattr(args, "format", "") is None:
        args.format = default_format
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except PopucError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
