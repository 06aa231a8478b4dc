#!/usr/bin/env python3
"""Benchmark of ramanujan-popuc as its users call it: the CLI in-process
and the public library API, one process, one closed-loop client, no
threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed draws the workload's inputs; set-up imports the library from
``src/``, builds the CLI parser, runs one small warm-up op and builds any
ladders the workload reads (caches persist into the timed phase, as for
a library user).  The timed phase cycles through the seed's ops until S
seconds have passed (at least one op), and checks each op against
``oracle.json``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  ``--trace 1`` is a separate run that makes one
untraced pass over the ops, then traced passes, and reports per-layer
metrics instead; the untraced run never patches anything.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from spans import PACKAGE, Tracer
from workloads import WARM_UP_ARGV, growth_of_system, run_cli, workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
ORACLE = BENCH / "oracle.json"
TRACES = BENCH / "traces"
SETUP_REPEATS = 3
DUAL_DEFAULT_TOL = 1e-12  # the default of `dual --precision`

CF_FUNCTIONS = (
    "cf_ramanujan_prime",
    "cf_ramanujan_2p",
    "cf_ramanujan_anti2p",
    "cf_single_moment",
    "cf_sturmian_anti2p",
)
# Besides the layers reported below, spans of build_dual_pair (whose
# result the counters read), the two ladder builders (which name a side)
# and moments_from_kronecker keep their work out of cli.main's self time.
TRACE_TARGETS = {
    name: name
    for name in (
        "cli.main",
        "cli._check_subject",
        "duality.build_dual_pair",
        "duality.ramanujan_from_charpoly",
        "duality.sturmian_from_charpoly",
        "duality.verify_weights",
        "opuc_core.popuc_from_moments",
        "opuc_core.leading_toeplitz_minors",
        "opuc_core._verify_annihilation",
        "opuc_core.szego_step",
        "opuc_core.inverse_szego_step",
        "opuc_core.moments_from_ladder",
        "opuc_core.moments_from_kronecker",
        "opuc_core.moments_from_power_sums",
        "opuc_core.toeplitz_det",
        "opuc_core.gram_matrix",
        "number_theory.ramanujan_table",
        "polynomials.kronecker_poly",
    )
} | {f"closed_forms.{f}": "closed_forms.cf" for f in CF_FUNCTIONS}

SELF_TIMES = (
    "opuc_core._verify_annihilation",
    "opuc_core.leading_toeplitz_minors.ramanujan",
    "opuc_core.leading_toeplitz_minors.sturmian",
    "opuc_core.popuc_from_moments",
    "opuc_core.szego_step",
    "opuc_core.inverse_szego_step",
    "opuc_core.moments_from_ladder",
    "duality.verify_weights.float",
    "duality.verify_weights.mpmath",
    "opuc_core.moments_from_power_sums",
    "opuc_core.toeplitz_det",
    "number_theory.ramanujan_table",
    "closed_forms.cf",
    "polynomials.kronecker_poly",
    "opuc_core.gram_matrix",
    "cli.main",
)
CALL_COUNTS = ("opuc_core.szego_step", "opuc_core.inverse_szego_step", "polynomials.kronecker_poly")
CACHES = (("polynomials", "cyclotomic"), ("number_theory", "factorize"))


class HarnessError(Exception):
    """Set-up could not produce a runnable benchmark."""


def import_library():
    """Import the package from this checkout's ``src/``, afresh."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise HarnessError(f"library source not found: {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    lib = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    if Path(lib.__file__).resolve() != init.resolve():
        raise HarnessError(f"imported {lib.__file__}, not {init}")
    return lib, cli


@dataclass
class Prepared:
    lib: object
    ops: list
    pairs: list


def set_up(workload, inputs) -> Prepared:
    lib, cli = import_library()
    cli.build_parser()
    code, _, err = run_cli(cli, WARM_UP_ARGV)
    if code != 0:
        raise HarnessError(f"warm-up op exited {code}: {err.strip()}")
    ops, pairs = workload.build(lib, cli, inputs)
    return Prepared(lib, ops, pairs)


@dataclass
class OpResult:
    key: str
    latency: float
    specs: int
    digest: str | None
    error: str | None


def run_op(op, oracle, tracer: Tracer | None = None) -> OpResult:
    if tracer:
        tracer.op_id += 1
        span = tracer.open("op", op.side)
    start = time.perf_counter()
    try:
        code, stdout, stderr = op.call()
    except Exception:
        code, stdout, stderr = None, "", traceback.format_exc()
    latency = time.perf_counter() - start
    if tracer:
        tracer.close(span)
    found, error = op.check(code, stdout, oracle)
    if error:
        print(f"FAILED {op.key}: {error}\n{stderr}", file=sys.stderr)
    return OpResult(op.key, latency, op.specs, found, error)


def run_pass(ops, oracle, tracer: Tracer | None = None) -> list[OpResult]:
    return [run_op(op, oracle, tracer) for op in ops]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def load_oracle() -> dict[str, str]:
    try:
        return json.loads(ORACLE.read_text())["digests"]
    except (OSError, ValueError, KeyError) as exc:
        raise HarnessError(f"cannot read the oracle {ORACLE}: {exc}") from exc


def measure(workload, seed: int, seconds: float) -> tuple[list[OpResult], dict]:
    """The untraced run: end-to-end metrics."""
    oracle = load_oracle()
    inputs = workload.draw(random.Random(seed))
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = set_up(workload, inputs)
        setups.append(time.perf_counter() - start)
    results: list[OpResult] = []
    ops = itertools.cycle(prepared.ops)
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_op(next(ops), oracle))
    elapsed = time.perf_counter() - start
    passed = [r for r in results if r.error is None]
    return results, {
        "setup_s": (statistics.median(setups), "s"),
        "specs_per_s": (sum(r.specs for r in passed) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(r.latency for r in results), "s"),
        "ok_ratio": (len(passed) / len(results), "ratio"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def _cache_counts() -> list[tuple[int, int]]:
    return [
        tuple(getattr(sys.modules[f"{PACKAGE}.{mod}"], fn).cache_info()[:2]) for mod, fn in CACHES
    ]


def _weight_probe(lib, pair) -> float:
    """Double-precision max residual of one pair, whatever its size."""
    try:
        return lib.verify_weights(pair, tol=float("inf")).max_residual
    except lib.WeightCheckFailureError as exc:
        return exc.report.max_residual


def cache_hit_ratios(before) -> dict:
    metrics = {}
    for (mod, fn), (h0, m0), (h1, m1) in zip(CACHES, before, _cache_counts()):
        calls = (h1 - h0) + (m1 - m0)
        metrics[f"{mod}.{fn}.hit_ratio"] = ((h1 - h0) / calls if calls else 0.0, "ratio")
    return metrics


def ladder_counters(lib, pairs) -> dict:
    """Integer growth and double-precision weight residuals of the dual
    pairs one pass built (or set-up built)."""
    growth = [growth_of_system(s) for pair in pairs for s in (pair.ramanujan, pair.sturmian)]
    sturmian = [growth_of_system(pair.sturmian) for pair in pairs]
    residuals = [_weight_probe(lib, pair) for pair in pairs]
    return {
        "ladder.max_coeff_bits": (max(g.coeff_bits for g in growth), "bits"),
        "opuc_core.bareiss.max_pivot_bits": (max(g.pivot_bits for g in growth), "bits"),
        "duality.sturmian.moment_den_bits": (max(g.moment_den_bits for g in sturmian), "bits"),
        "duality.verify_weights.float_max_residual": (max(residuals), "ratio"),
        "duality.verify_weights.float_over_default_tol": (
            sum(not r < DUAL_DEFAULT_TOL for r in residuals),
            "count",
        ),
    }


def measure_traced(workload, seed: int, seconds: float) -> tuple[list[OpResult], dict]:
    """The traced run: one untraced pass over the seed's ops, then traced
    passes until S seconds have passed since the start (at least one).
    Counts come from the first pass of each kind, so they repeat exactly."""
    oracle = load_oracle()
    prepared = set_up(workload, workload.draw(random.Random(seed)))
    tracer = Tracer()
    seen_pairs: list = []
    tracer.observers["duality.build_dual_pair"] = seen_pairs.append
    start = time.perf_counter()
    caches_before = _cache_counts()
    plain = run_pass(prepared.ops, oracle)
    metrics = cache_hit_ratios(caches_before)
    traced: list[OpResult] = []
    tracer.install(TRACE_TARGETS)
    try:
        while not traced or time.perf_counter() - start < seconds:
            traced += run_pass(prepared.ops, oracle, tracer)
            tracer.observers.clear()
    finally:
        tracer.uninstall()
    tracer.write(TRACES / f"{workload.name}-seed{seed}.jsonl")
    summary = tracer.summary()
    for key in SELF_TIMES:
        metrics[f"{key}.self_s"] = (summary.get(key, {}).get("self_s", 0.0) / len(traced), "s")
    for key in CALL_COUNTS:
        metrics[f"{key}.calls"] = (summary.get(key, {}).get("calls", 0) / len(traced), "count")
    subject = sorted(summary.get("cli._check_subject", {}).get("durations", []))
    quantiles = statistics.quantiles(subject, n=20) if len(subject) >= 2 else [0.0] * 19
    metrics["cli._check_subject.p50_s"] = (statistics.median(subject) if subject else 0.0, "s")
    metrics["cli._check_subject.p95_s"] = (quantiles[18], "s")
    metrics.update(ladder_counters(prepared.lib, seen_pairs or prepared.pairs))
    mean_traced = sum(r.latency for r in traced) / len(traced)
    mean_plain = sum(r.latency for r in plain) / len(plain)
    metrics["trace.overhead_ratio"] = (mean_traced / mean_plain, "ratio")
    return plain + traced, metrics


def report(results: list[OpResult], metrics: dict) -> None:
    failed = sum(r.error is not None for r in results)
    print(f"ops attempted {len(results)}, failed {failed}, fail_ratio {failed / len(results):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


def main(argv=None) -> int:
    table = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(table))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run = measure_traced if args.trace else measure
    try:
        results, metrics = run(table[args.workload], args.seed, args.seconds)
    except HarnessError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    report(results, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
