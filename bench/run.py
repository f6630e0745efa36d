"""forms6 benchmark: one named workload per process, timed in kernel units.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --repeat N --workload NAME|all --seconds S [--trace 0|1]
    python3 bench/run.py --smoke [--workload NAME]

Workloads: exact-identities, orbits, flow-sweep, leaves (see README.md).

Every item (one call a user makes) is timed in units of ``ref``, one run of
a fixed calibration kernel that runs between the items: an item's ref is the
median kernel time in a window around it, so a machine that slows down for a
while slows the items and their ref alike.  The run attempts whole rounds of
its workload's pool until ``--seconds`` have passed and at least MIN_ITEMS
items have completed, checks every output outside the timed span, and prints
one JSON line: {"correct", "attempted", "failed", "metrics"}.

``--trace 1`` alternates untraced and traced rounds until ``--seconds`` have
passed, ending on a traced round; the traced rounds give the per-layer
metrics, and their items_per_kref against the untraced rounds' gives the
tracing overhead.  ``--repeat`` runs a workload in N fresh
processes with seeds N0..N0+N-1 and prints the median and quartiles of every
metric.  ``--smoke`` runs one small round per workload untraced and one
traced, with every check on.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("exact-identities", "orbits", "flow-sweep", "leaves")
MIN_ITEMS = 100        # so that at least 10 items lie beyond the p90
MAX_LOOP_S = 120       # stop even short of MIN_ITEMS, when most items fail
SETUP_PROBES = 7       # fresh interpreters per run for setup_s, spread over the run
WINDOW = 2             # kernel runs on each side of an item that set its ref

END_TO_END_UNITS = {"setup_s": "s", "items_per_kref": "1/kref", "item_p50_ref": "ref",
                    "item_p90_ref": "ref", "peak_rss_mib": "MiB"}


def layer_unit(name):
    if name.endswith(".self_ref"):
        return "ref"
    return {"flow.accept_ratio": "ratio", "io.bytes_written": "bytes",
            "setup.import_s": "s", "trace.overhead_pct": "%"}.get(name, "count")


# --- calibration kernel ----------------------------------------------------------

def calibration_kernel():
    """Fixed interpreter-bound work: Fraction, int, dict and float arithmetic."""
    acc = Fraction(0)
    table = {}
    h = 0
    x = 1.0
    for i in range(1, 241):
        acc += Fraction(i % 5 - 2, i % 7 + 1)
        h = (h * 31 + i) & 0xFFFFFFFF
        table[h & 255] = table.get(h & 255, 0) + i
        x = x * 0.999 + i / (x + 1.0)
    return acc, len(table), h, round(x, 6)


KERNEL_RESULT = calibration_kernel()


def time_kernel():
    t0 = time.perf_counter()
    out = calibration_kernel()
    dt = time.perf_counter() - t0
    if out != KERNEL_RESULT:
        raise RuntimeError("calibration kernel returned a different result")
    return dt


def item_refs(kernel, n):
    """ref of item i: median of the kernel runs kernel[i-WINDOW+1 .. i+WINDOW];
    kernel[i] ran just before item i and kernel[i+1] just after it."""
    return [statistics.median(kernel[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(n)]


# --- set-up in fresh interpreters ----------------------------------------------------

def probe_setup(workload):
    """Seconds from starting an interpreter to the workload being ready, and
    the part of it that the import of forms6.cli took."""
    probe = os.path.join(HERE, "setup_probe.py")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, probe, workload, SRC],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        dt = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line:
            raise RuntimeError(f"set-up probe for {workload} failed")
    return dt, json.loads(line)["import_s"]


def import_program():
    if not os.path.isfile(os.path.join(SRC, "forms6", "__init__.py")):
        raise SystemExit(f"bench: no forms6 sources under {SRC}")
    sys.path.insert(0, SRC)
    import forms6
    if not os.path.abspath(forms6.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported forms6 from {forms6.__file__}, not {SRC}")


# --- one run ---------------------------------------------------------------------------

class Run:
    """Timings and outcomes of one run of one workload."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.kernel = []      # kernel[i] ran just before item i
        self.durs = []        # seconds per attempted item
        self.traced = []      # item ran in a traced round
        self.failed = []      # item raised or failed its check
        self.errors = []      # failures not explained by the known fault
        self.rounds = 0
        self.tracer = None
        self.setup = []       # (seconds to ready, import seconds) per probe

    def refs(self):
        return item_refs(self.kernel, len(self.durs))

    def norm(self):
        return [d / r for d, r in zip(self.durs, self.refs())]

    def items_per_kref(self, traced):
        norm = self.norm()
        sel = [i for i, t in enumerate(self.traced) if t == traced]
        done = sum(1 for i in sel if not self.failed[i])
        return 1000.0 * done / sum(norm[i] for i in sel)

    def end_to_end(self):
        norm = self.norm()
        done = [x for x, t, f in zip(norm, self.traced, self.failed) if not (t or f)]
        p90 = statistics.quantiles(done, n=10, method="inclusive")[8] if len(done) > 1 \
            else statistics.fmean(done or [0.0])
        return {
            "setup_s": statistics.median(s for s, _ in self.setup),
            "items_per_kref": self.items_per_kref(False),
            "item_p50_ref": statistics.median(done or [0.0]),
            "item_p90_ref": p90,
            "peak_rss_mib": self.peak_rss_mib,
        }

    def per_layer(self):
        traced = [i for i, t in enumerate(self.traced) if t]
        out = self.tracer.layer_metrics(self.refs(), len(traced))
        out["setup.import_s"] = statistics.median(i for _, i in self.setup)
        out["trace.overhead_pct"] = 100.0 * (
            1.0 - self.items_per_kref(True) / self.items_per_kref(False))
        return out


def run_item(run, wl, item, tracer):
    """Time one call of the program, check its output outside the timed span
    and record the outcome.  An item that raises or fails its check is a
    failed operation; unless it is the item's known fault, it is also an
    error that makes the run's output incorrect."""
    if tracer:
        tracer.current_item = len(run.durs)
        root = tracer.open(0)
    exc = out = None
    t0 = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as e:
        exc = e
    dt = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    if exc is None:
        try:
            err = wl.check(item, out)
        except Exception as e:  # unreadable output is a wrong output
            err = f"check raised {type(e).__name__}: {e}"
    else:
        err = f"{type(exc).__name__}: {exc}"
    if err and not (item.known_fault and err.startswith(item.known_fault)):
        run.errors.append(f"{item.kind}: {err}")
    run.durs.append(dt)
    run.traced.append(tracer is not None)
    run.failed.append(err is not None)


def run_workload(name, seed, seconds, trace, smoke=False):
    import_program()
    import workloads
    from spans import Tracer

    run = Run(name, seed)
    rundir = os.path.join(OUT, f"run-{name}-{seed}-{os.getpid()}")
    os.makedirs(rundir, exist_ok=True)
    try:
        probes = 1 if smoke else SETUP_PROBES
        wl = workloads.WORKLOADS[name](seed, rundir, smoke=smoke)
        warm = {}
        for item in wl.pool:
            warm.setdefault(item.kind, item)
        for item in warm.values():
            try:
                wl.run(item)
            except Exception:  # failures are counted in the timed rounds
                pass

        tracer = run.tracer = Tracer() if trace else None
        run.kernel.append(time_kernel())
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            on = trace and run.rounds % 2 == 1
            if on:
                tracer.install()
            try:
                for item in wl.pool:
                    run_item(run, wl, item, tracer if on else None)
                    # set-up probes run between items, spread over the run so
                    # that they meet the machine in the states the items meet
                    if len(run.setup) < probes and \
                            time.perf_counter() >= start + len(run.setup) * seconds / probes:
                        run.setup.append(probe_setup(name))
                    run.kernel.append(time_kernel())
            finally:
                if on:
                    tracer.uninstall()
            run.rounds += 1
            if smoke:
                if run.rounds >= (2 if trace else 1):
                    break
            elif time.perf_counter() >= deadline and (
                    run.rounds % 2 == 0 if trace
                    else len(run.failed) - sum(run.failed) >= MIN_ITEMS
                    or time.perf_counter() - start >= MAX_LOOP_S):
                break
        while len(run.setup) < probes:
            run.setup.append(probe_setup(name))
        run.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        run.errors += [f"final: {e}" for e in wl.final_checks()]
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"bench: {name} seed {seed}: {run.rounds} rounds, {len(run.durs)} items, "
          f"{sum(run.failed)} failed, kernel median "
          f"{statistics.median(run.kernel) * 1e3:.4f} ms", file=sys.stderr)
    for err in run.errors[:10]:
        print(f"bench: CHECK FAILED {err}", file=sys.stderr)
    return run


def result_line(run, trace):
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in run.per_layer().items()}
        traced = sum(run.traced)
        path = os.path.join(OUT, f"spans-{run.name}-{run.seed}.npz")
        run.tracer.write(path)
        print(f"bench: spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
        for group, v in run.tracer.breakdown(run.refs(), traced):
            print(f"bench:   self {group:32s} {v:12.3f} ref/item", file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in run.end_to_end().items()}
    return {"correct": not run.errors, "attempted": len(run.durs),
            "failed": sum(run.failed), "metrics": metrics}


# --- repeat and smoke modes ---------------------------------------------------------------

def repeat(names, n, seed0, seconds, trace):
    """Run each workload in n fresh processes and summarize every metric."""
    summary = {}
    for name in names:
        values, shares = {}, set()
        for k in range(n):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed0 + k), "--seconds", str(seconds),
                   "--trace", str(int(trace))]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise SystemExit(f"bench: run {k} of {name} exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                raise SystemExit(f"bench: run {k} of {name} reported incorrect output")
            shares.add(Fraction(res["failed"], res["attempted"]))
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        rows = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            rows[metric] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / med if med else 0.0}
            print(f"{name:17s} {metric:36s} median {med:11.5g}  q1 {q1:11.5g}  "
                  f"q3 {q3:11.5g}  spread {rows[metric]['spread']:7.2%}  "
                  f"runs {' '.join(f'{v:.4g}' for v in vals)}")
        print(f"{name:17s} failed share {sorted(str(s) for s in shares)}")
        summary[name] = rows
    print(json.dumps(summary))


def smoke(names):
    bad = []
    for name in names:
        for trace in (False, True):
            res = result_line(run_workload(name, 0, 0, trace, smoke=True), trace)
            print(json.dumps({"workload": name, "trace": trace, **res}))
            if not res["correct"]:
                bad.append(name)
    if bad:
        raise SystemExit(f"bench: smoke checks failed on {sorted(set(bad))}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run the workload in this many fresh processes and summarize")
    p.add_argument("--smoke", action="store_true",
                   help="one small round per workload with every check on")
    args = p.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if args.smoke:
        return smoke(names)
    if args.repeat:
        return repeat(names, args.repeat, args.seed, args.seconds, args.trace)
    if args.workload == "all":
        p.error("a single run needs one --workload")
    run = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result_line(run, args.trace)))


if __name__ == "__main__":
    main()
