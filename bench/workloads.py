"""The four workloads: seeded inputs, one timed call per item, and checks.

A workload is a pool of items built from the seed.  Every round runs the
whole pool in the same order, so each round does the same work and a run's
count of failed items is a fixed share of the items it attempted.  ``run``
is the only part that is timed; ``check`` runs after it, outside the timed
span, and returns an error string or None.  The program is reached only
through ``forms6.cli.main`` and the public functions of ``invariants``,
``flow`` and ``hessian``.
"""

import csv
import itertools
import json
import os
import random
from fractions import Fraction

import numpy as np

import oracle

from forms6 import Form, cli, flow, hessian, invariants as inv

COORDS = "ABCDEFGHIJKLMN"


class Item:
    """One call of a workload.  ``known_fault`` names a fault of the program
    that this item hits on every run: the start of the failure message it
    must give, which then counts as a failed item, not as a wrong output."""
    __slots__ = ("kind", "data", "known_fault")

    def __init__(self, kind, data, known_fault=None):
        self.kind = kind
        self.data = data
        self.known_fault = known_fault


def _form(dense):
    return Form(3, {oracle.mask_of(k): v for k, v in oracle.terms_from_dense(dense).items()})


def _float_form(dense, scale):
    return Form(3, {oracle.mask_of(k): float(v) * scale
                    for k, v in oracle.terms_from_dense(dense).items()})


def _exact_K_Q_check(phi, dense, omega):
    """compute_K/compute_Q against the integer Levi-Civita contraction, and
    K K = (Q/4) id on the program's own output."""
    K, Q = oracle.exact_K_Q(dense)
    Kp = [list(r) for r in inv.compute_K(phi, omega=omega).rows]
    Qp = inv.compute_Q(phi, omega)
    if Kp != K:
        return "compute_K differs from the Levi-Civita contraction"
    if Qp != Q:
        return f"compute_Q = {Qp}, Levi-Civita contraction gives {Q}"
    if not oracle.K_squared_is_Q_over_4(Kp, Qp):
        return "K K != (Q/4) id"
    return None


# --- exact-identities -------------------------------------------------------------

class ExactIdentities:
    """forms6 verify through cli.main on the exact suites, small trial counts.

    Per round: four calls of each suite; the trial counts are a seeded
    shuffle of a fixed multiset, so every seed does the same amount of
    exact work in different orders and on different random forms."""

    name = "exact-identities"
    TRIALS = {"identities": (2, 3, 3, 4), "lemma-bc": (6, 8, 8, 10),
              "nijenhuis": (1, 2, 2, 3)}
    SAMPLE_FORMS = 6

    def __init__(self, seed, rundir, smoke=False):
        rng = random.Random(seed)
        calls = []
        for suite, trials in self.TRIALS.items():
            trials = list(trials)[:1 if smoke else None]
            rng.shuffle(trials)
            calls += [(suite, rng.randrange(1 << 30), n) for n in trials]
        rng.shuffle(calls)
        self.pool = [Item("verify", c + (os.path.join(rundir, f"verify-{k}.json"),))
                     for k, c in enumerate(calls)]
        self.sample = [self._random_form(rng) for _ in range(2 if smoke else self.SAMPLE_FORMS)]

    @staticmethod
    def _random_form(rng):
        terms = {}
        for axes in itertools.combinations(range(6), 3):
            x = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
            if x:
                terms[axes] = x
        return oracle.dense_from_terms(terms)

    def run(self, item):
        suite, vseed, trials, path = item.data
        return cli.main(["verify", "--suite", suite, "--seed", str(vseed),
                         "--trials", str(trials), "--out", path])

    def check(self, item, rc):
        suite, vseed, trials, path = item.data
        if rc != 0:
            return f"verify {suite} seed {vseed}: exit {rc}"
        with open(path) as fh:
            rep = json.load(fh)
        os.remove(path)  # the next round's call must write its own report
        if rep.get("passed") is not True:
            return f"verify {suite} seed {vseed}: passed = {rep.get('passed')}"
        if rep.get("trials") != trials or trials < 1:
            return f"verify {suite}: ran {rep.get('trials')} trials, asked {trials}"
        if rep.get("residual") != 0.0:
            return f"verify {suite}: residual {rep.get('residual')} != 0"
        return None

    def final_checks(self):
        omega = inv.standard_omega()
        errs = []
        for dense in self.sample:
            err = _exact_K_Q_check(_form(dense), dense, omega)
            if err:
                errs.append(err)
        return errs


# --- orbits -------------------------------------------------------------------------

class Orbits:
    """classify_sp, classify_gl, the q-form signature and subspace_dims on
    Sp-transformed normal forms of all nine orbits.

    Per round and per orbit: PER_ORBIT seeded forms, each classified on the
    exact backend and as floats at scale 1, then one float form at scale
    1e-4.  The scale-1e-4 forms use a fixed map and mu = 1, not the seed,
    and hit two known faults on every run: on O-+, O-- and O+, Q ~ 1e-16
    counts as zero because the zero test floors its scale at 1, so
    classify_sp raises; on O3, q vanishes identically and the signature
    counts its rounding noise, cut relative to its own largest eigenvalue,
    as (0, 3, 3)."""

    name = "orbits"
    PER_ORBIT = 2
    SMALL = 1e-4
    FIXED_SEED = 20240507
    TOL = 1e-8

    def __init__(self, seed, rundir, smoke=False):
        rng = random.Random(seed)
        fixed = random.Random(self.FIXED_SEED)
        self.omega = inv.standard_omega()
        exact_items, float_items, small_items = [], [], []
        for label in oracle.SP_LABELS:
            base = oracle.sp_normal_terms(label)
            for _ in range(1 if smoke else self.PER_ORBIT):
                mu = Fraction(rng.randint(2, 8), rng.choice((2, 4))) \
                    if label in oracle.STABLE else 1
                dense = oracle.pullback3(oracle.random_symplectic(rng),
                                         oracle.dense_from_terms(base))
                dense = [[[x * mu for x in b] for b in a] for a in dense]
                if not oracle.is_primitive(dense):
                    raise AssertionError("Sp transform broke primitivity")
                exact_items.append(Item("exact", (label, mu, 1, _form(dense), dense)))
                float_items.append(Item("float", (label, mu, 1, _float_form(dense, 1.0), None)))
            dense = oracle.pullback3(oracle.random_symplectic(fixed),
                                     oracle.dense_from_terms(base))
            fault = "ClassificationError" if label in oracle.STABLE \
                else "q-form signature" if label == "O3" else None
            small_items.append(Item("float-small", (label, 1, self.SMALL,
                                                    _float_form(dense, self.SMALL), None),
                                    known_fault=fault))
        # interleave backends so a slow stretch of the machine hits both
        self.pool = [x for pair in zip(exact_items, float_items) for x in pair] + small_items

    def run(self, item):
        label, mu, scale, phi, dense = item.data
        sp = inv.classify_sp(phi, self.omega, tol=self.TOL)
        gl = inv.classify_gl(phi, tol=self.TOL)
        sig = inv.signature(inv.q_form(phi, self.omega, self.TOL), self.TOL)
        dims = inv.subspace_dims(phi, self.omega, tol=self.TOL)
        return sp, gl, sig, dims

    def check(self, item, out):
        label, mu, scale, phi, dense = item.data
        sp, gl, sig, dims = out
        if sp.label != label:
            return f"classify_sp gave {sp.label} for a form made from {label}"
        if gl != oracle.GL_OF_SP[label]:
            return f"classify_gl gave {gl} for Sp orbit {label}"
        if tuple(sig) != oracle.SIGNATURE[label]:
            return f"q-form signature {tuple(sig)} on {label}"
        if tuple(dims) != oracle.DIMS[gl]:
            return f"subspace_dims {tuple(dims)} on {label}"
        if label in oracle.STABLE:
            want = float(mu) * scale
            if sp.mu is None or abs(float(sp.mu) - want) > 1e-8 * want:
                return f"mu = {sp.mu}, generated {want}"
        elif sp.mu is not None:
            return f"mu = {sp.mu} on unstable orbit {label}"
        return None

    def final_checks(self):
        errs = []
        for item in self.pool:
            if item.kind == "exact":
                err = _exact_K_Q_check(item.data[3], item.data[4], self.omega)
                if err:
                    errs.append(f"{item.data[0]}: {err}")
        return errs


# --- flow-sweep -----------------------------------------------------------------------

class FlowSweep:
    """forms6 flow through cli.main on seeded sweep files.

    Per round: SOLV_SWEEPS solv-tomassini sweeps (positive closed starts,
    blow-up, then the normalized limit), each followed by an equal share of
    the NIL_SWEEPS nil-debartolomeis sweeps (H != 0, convergence to
    R/(4H^2)), each sweep file holding STARTS starts.  A solv sweep takes about three times as long
    as a nil sweep and its step count hardly depends on the start (CV about
    2%, against about 17% for a nil start).  With one solv sweep to three
    nil sweeps the median lies inside the nil mode of the item times and the
    p90 near the middle of the solv mode, never in the gap between them, and
    an item costs about 0.2 s, so that 100 items fit in a short run."""

    name = "flow-sweep"
    SOLV_SWEEPS = 3
    NIL_SWEEPS = 9
    STARTS = 2
    NIL_T_MAX = 40.0
    SOLV_T_MAX = 100.0

    def __init__(self, seed, rundir, smoke=False):
        rng = random.Random(seed)
        self.kept = {}    # kind -> (first start, its trajectory rows), for final_checks
        n_solv, n_nil = (1, 1) if smoke else (self.SOLV_SWEEPS, self.NIL_SWEEPS)
        kinds = (["solv"] + ["nil"] * (n_nil // n_solv)) * n_solv
        self.pool = []
        for k, kind in enumerate(kinds):
            starts = [self._solv_start(rng) if kind == "solv" else self._nil_start(rng)
                      for _ in range(self.STARTS)]
            path = os.path.join(rundir, f"sweep-{k}.json")
            with open(path, "w") as fh:
                json.dump(starts, fh)
            out = os.path.join(rundir, f"flow-{k}")
            os.makedirs(out, exist_ok=True)
            self.pool.append(Item(kind, (starts, path, out)))

    @staticmethod
    def _solv_start(rng):
        while True:
            al, be, ga, de = (rng.uniform(0.5, 2.0) for _ in range(4))
            M, N = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            if oracle.solv_positive(al, be, ga, de, M, N):
                return {"A": al, "B": al, "C": be, "D": -be, "E": ga, "F": -ga,
                        "G": -de, "H": -de, "M": M, "N": N}

    @staticmethod
    def _nil_start(rng):
        c = {k: rng.uniform(-1.0, 1.0) for k in COORDS}
        c["H"] = rng.uniform(0.5, 1.2) * rng.choice((-1, 1))
        return c

    def run(self, item):
        starts, path, out = item.data
        if item.kind == "solv":
            return cli.main(["flow", "solv-tomassini", path, "--t-max", str(self.SOLV_T_MAX),
                             "--blow-norm", "1e5", "--require-positive", "--out", out])
        return cli.main(["flow", "nil-debartolomeis", path,
                         "--t-max", str(self.NIL_T_MAX), "--out", out])

    @staticmethod
    def _read(out, k):
        """Status and trajectory rows of start k; the files are removed so
        that the next round's call must write its own."""
        paths = (os.path.join(out, f"status-{k:03d}.json"),
                 os.path.join(out, f"trajectory-{k:03d}.csv"))
        with open(paths[0]) as fh:
            status = json.load(fh)
        with open(paths[1]) as fh:
            rows = list(csv.reader(fh))
        for p in paths:
            os.remove(p)
        return status, rows

    def check(self, item, rc):
        starts, path, out = item.data
        if rc != 0:
            return f"forms6 flow exited {rc}"
        for k, c in enumerate(starts):
            status, rows = self._read(out, k)
            self.kept.setdefault(item.kind, (c, rows))
            last = dict(zip(rows[0], (float(x) for x in rows[-1])))
            if item.kind == "nil":
                lim = oracle.nil_limit(c)
                if abs(last["A"] - lim) > 1e-6 * max(1.0, abs(lim)):
                    return f"nil start {k}: final A = {last['A']}, R/(4H^2) = {lim}"
                continue
            if status["status"] != "blow_up":
                return f"solv start {k}: status {status['status']}, expected blow_up"
            tp = oracle.solv_t_prime(c["A"], c["C"], c["E"], -c["G"], c["M"], c["N"])
            if tp is not None and status["t_final"] > tp + 1e-9:
                return f"solv start {k}: blow-up at {status['t_final']} after T' = {tp}"
            lim = {term["axes"][0] * 100 + term["axes"][1] * 10 + term["axes"][2]: term["coeff"]
                   for term in status.get("limit_form") or ()}
            if not lim:
                return f"solv start {k}: no normalized limit ({status.get('limit_error')})"
            al, be, ga, de = (lim.get(135, 0.0), lim.get(145, 0.0),
                              lim.get(235, 0.0), -lim.get(245, 0.0))
            if abs(al * de - be * ga) > 1e-4:
                return f"solv start {k}: limit off the alpha delta = beta gamma locus"
        return None

    def final_checks(self):
        """The first start of the first solv and nil sweeps against scipy's
        DOP853 on flow.reduced_rhs, at the CSV row nearest half the run's time
        (closer to a blow-up the flow itself amplifies any rounding)."""
        from scipy.integrate import solve_ivp
        from forms6 import liealg
        errs = []
        for kind, (start, rows) in self.kept.items():
            setup = liealg.builtin_setup("solv-tomassini" if kind == "solv"
                                         else "nil-debartolomeis")
            half = float(rows[-1][0]) / 2
            row = min(rows[1:], key=lambda r: abs(float(r[0]) - half))
            t = float(row[0])
            y = np.array([float(x) for x in row[1:15]])
            y0 = [start.get(k, 0.0) for k in COORDS]
            sol = solve_ivp(lambda _t, v: np.array(flow.reduced_rhs(setup, v)),
                            (0.0, t), y0, method="DOP853", rtol=1e-11, atol=1e-13,
                            t_eval=[t])
            ref = sol.y[:, -1]
            if not sol.success or np.max(np.abs(ref - y)) > 1e-6 * max(1.0, np.max(np.abs(ref))):
                errs.append(f"{kind} start differs from DOP853 at t = {t}: "
                            f"{np.max(np.abs(ref - y))} ({sol.message})")
        return errs


# --- leaves -------------------------------------------------------------------------------

class Leaves:
    """Hessian leaf data at seeded fiber points over seeded SPD base metrics,
    for each profile constant C in {-0.1, 0, 0.5, 2}."""

    name = "leaves"
    METRICS = 2
    POINTS = 3
    CS = (-0.1, 0.0, 0.5, 2.0)
    LIMITS = {"primitivity": 1e-12, "F_closed_form": 1e-10, "K_kills_fibers": 1e-10,
              "K_frame_match": 1e-9, "det_h_minus_8detg": 1e-10,
              "h_inv_vs_numeric": 1e-10}

    def __init__(self, seed, rundir, smoke=False):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(1 if smoke else self.METRICS):
            a = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
            g = (a @ a.T + 1.5 * np.eye(3)).tolist()
            metric = hessian.BaseMetric3(g)
            for C in self.CS:
                for _ in range(1 if smoke else self.POINTS):
                    while True:
                        t = tuple(rng.uniform(0.5, 1.8) * rng.choice((-1, 1))
                                  for _ in range(3))
                        r, det = oracle.leaf_r(g, t)
                        if C >= 0 or r > 1.5 * (-C) ** (2.0 / 3.0):
                            break
                    self.pool.append(Item("leaf", (metric, g, det, r, C,
                                                   hessian.FiberPoint(t, C))))

    def run(self, item):
        metric, g, det, r, C, p = item.data
        checks = hessian.fiber_verifications(metric, p)
        data = hessian.leaf_data(metric, p)
        S, ricci = hessian.scalar_curvature(data)
        S_closed = hessian.closed_form_scalar_curvature(metric, p)
        fd = hessian.affine_derivative_check(metric, p)
        return checks, data, S, ricci, S_closed, fd

    def check(self, item, out):
        metric, g, det, r, C, p = item.data
        checks, data, S, ricci, S_closed, fd = out
        for key, lim in self.LIMITS.items():
            if not checks[key] <= lim:
                return f"fiber check {key} = {checks[key]} > {lim}"
        h = [[float(x) for x in row] for row in data.h]
        det_h = oracle.det3(h)
        if abs(det_h - 8 * det) > 1e-10 * max(1.0, 8 * det):
            return f"det h = {det_h}, 8 det g = {8 * det}"
        if float(np.linalg.eigvalsh(ricci).min()) < -1e-10:
            return "negative Ricci eigenvalue"
        want = oracle.leaf_scalar_curvature(r, C)
        for name, got in (("scalar_curvature", S), ("closed_form_scalar_curvature", S_closed)):
            if abs(got - want) > 1e-8 * max(1.0, abs(want)):
                return f"{name} = {got}, closed form {want}"
        if not fd < 1e-4:
            return f"affine derivative check {fd}"
        return None

    def final_checks(self):
        return []


WORKLOADS = {w.name: w for w in (ExactIdentities, Orbits, FlowSweep, Leaves)}
