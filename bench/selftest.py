#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Runs the code path of every workload on tiny specs (``dual --m 7``,
``verify --max-m 7``, ...), untraced and traced, and checks that

* every metric named in BENCHMARK.json is emitted, with its unit;
* every op passes its oracle check, and the traced and untraced runs
  give identical exact outputs;
* the harness imported nothing beyond the standard library, the library
  under test and its dependency mpmath (no pytest, no pytest-benchmark).

Prints one line per problem and exits 1 if there is any.
"""

from __future__ import annotations

import json
import sys

# Modules the interpreter loaded before the harness (site hooks may load
# third-party ones); only what the harness adds is checked.
AT_START = set(sys.modules)

import run  # noqa: E402
from workloads import (  # noqa: E402
    cyclotomic_workload,
    kronecker_workload,
    orthogonality_workload,
    sweep_workload,
)

# A small spec (N+1 = 37) whose ladders still carry >= 100-bit
# coefficients, so the ladder-kronecker gate is exercised for real.
TINY_KRONECKER = (2, 3, 5, 7, 8, 9, 11, 12)
TINY_SWEEP = ("verify", "--max-m", "7", "--families", "all")
ALLOWED_IMPORTS = {run.PACKAGE, "mpmath", "run", "spans", "workloads", "selftest", "__main__"}


def tiny_workloads():
    return {
        w.name: w
        for w in (
            cyclotomic_workload(orders=(7, 14)),
            kronecker_workload(pool=(TINY_KRONECKER,), per_pass=1),
            sweep_workload(argv=TINY_SWEEP, specs=68),
            orthogonality_workload(single=((7,),), multi=((1, 2, 3),), single_per_pass=1, multi_per_pass=1),
        )
    }


def _units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


def main() -> int:
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    want = {
        "end-to-end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per-layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name, workload in tiny_workloads().items():
        # Half a second cycles through every tiny op several times.
        plain, e2e = run.measure(workload, seed=0, seconds=0.5)
        traced, layer = run.measure_traced(workload, seed=0, seconds=1e-3)
        for kind, got in (("end-to-end", e2e), ("per-layer", layer)):
            if _units(got) != want[kind]:
                problems.append(f"{name}: {kind} metrics {_units(got)} != BENCHMARK.json {want[kind]}")
        problems += [f"{name}: {r.key}: {r.error}" for r in plain + traced if r.error]
        outputs = {r.key: r.digest for r in plain}
        problems += [
            f"{name}: {r.key}: traced output differs from untraced" for r in traced if outputs.get(r.key) != r.digest
        ]
        print(f"{name}: {len(plain)} untraced + {len(traced)} traced-run ops checked", flush=True)
    outside = sorted(
        top
        for top in {key.split(".")[0] for key in set(sys.modules) - AT_START}
        if top not in sys.stdlib_module_names and not top.startswith("_") and top not in ALLOWED_IMPORTS
    )
    if outside:
        problems.append(f"imported beyond the standard library: {outside}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
