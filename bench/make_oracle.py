#!/usr/bin/env python3
"""Record the exact-output oracle: a digest of every op that any seed of
any workload (and the self-test) can draw.

    python3 bench/make_oracle.py

Run it only at a commit whose outputs define correctness; a later commit
that changes an exact output fails the benchmark until the change is
argued and the oracle re-recorded.  The integer-size gates of the ladder
workloads are checked here too, for the whole pool.
"""

from __future__ import annotations

import json
import sys

from run import ORACLE, import_library
from selftest import tiny_workloads
from workloads import digest, workloads


def main() -> int:
    lib, cli = import_library()
    digests = {}
    for workload in list(workloads().values()) + list(tiny_workloads().values()):
        ops, _ = workload.build(lib, cli, workload.pool())
        for op in ops:
            code, stdout, stderr = op.call()
            if code != 0:
                print(f"{op.key}: exit code {code}\n{stderr}", file=sys.stderr)
                return 1
            text, payload = op.canonical(stdout)
            problem = op.gate(payload) if op.gate else None
            if problem:
                print(f"{op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = digest(text)
        print(f"{workload.name}: {len(ops)} ops recorded", flush=True)
    ORACLE.write_text(json.dumps({"digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
