"""Set-up of one workload in a fresh interpreter, for the setup_s metric.

Usage: python3 bench/setup_probe.py <workload> <src dir>

Imports forms6.cli, loads the built-in algebras the workload uses and builds
their operators, then prints one JSON line {"import_s": ...}.  The caller
times the interval from starting this interpreter to reading that line.
"""

import json
import sys
import time

t0 = time.perf_counter()
workload, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

import forms6.cli  # noqa: E402

t_import = time.perf_counter() - t0

from fractions import Fraction  # noqa: E402

from forms6 import flow, hessian, invariants, liealg  # noqa: E402

if workload == "exact-identities":
    liealg.builtin_setup("nil-debartolomeis")
    liealg.InvariantSetup.standard(liealg.solv_algebra(Fraction(7, 5)))
elif workload == "orbits":
    invariants.volume_of(invariants.standard_omega())
elif workload == "flow-sweep":
    for name in ("solv-tomassini", "nil-debartolomeis"):
        flow.reduced_rhs(liealg.builtin_setup(name), [0.0] * 14)
elif workload == "leaves":
    hessian.BaseMetric3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
else:
    sys.exit(f"unknown workload {workload!r}")

print(json.dumps({"import_s": t_import}), flush=True)
