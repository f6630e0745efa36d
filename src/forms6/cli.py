"""Command-line entry points.

Subcommands: classify (orbit report for a 3-form file), verify (seeded
verification suites with JSON reports), flow (trajectory CSV + status JSON),
hessian (leaf-geometry check report).  Every error path exits nonzero with a
message on stderr; reports are written atomically and are byte-reproducible
for a fixed seed and configuration apart from the single generated_at header
field.
"""

import argparse
import csv
import datetime
import io as _stringio
import json
import math
import os
import random
import sys
from fractions import Fraction

import numpy as np

from . import flow, hessian, invariants as inv, io, liealg, linalg
from .exterior import Form, interior, wedge
from .invariants import COORD_NAMES, PrimitiveCoords


class CliError(Exception):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"malformed JSON in {path}: {e}")


def _load_form(path, grade=None):
    try:
        return io.form_from_json(_load_json(path), grade=grade)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"bad form file {path}: {e}")


def _stamp(report):
    report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report


def _emit(report, out_path):
    text = io.dumps_report(report)
    if out_path:
        io.atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _num(x):
    if isinstance(x, Fraction):
        return float(x)
    return x


# --- classify ----------------------------------------------------------------

def cmd_classify(args):
    phi = _load_form(args.form, grade=3)
    report = {
        "input": os.path.abspath(args.form),
        "gl_orbit": None, "sp_orbit": None, "mu": None, "Q": None,
        "signature": None, "dims": None,
    }
    if args.omega:
        omega = _load_form(args.omega, grade=2)
        report["gl_orbit"] = inv.classify_gl(phi, vol=inv.volume_of(omega), tol=args.tol)
        sp = inv.classify_sp(phi, omega, tol=args.tol)
        report["sp_orbit"] = sp.label
        report["mu"] = _num(sp.mu) if sp.mu is not None else None
        report["Q"] = _num(inv.compute_Q(phi, omega))
        report["signature"] = list(inv.signature(inv.q_form(phi, omega), args.tol))
        report["dims"] = list(inv.subspace_dims(phi, omega, tol=args.tol))
    else:
        report["gl_orbit"] = inv.classify_gl(phi, tol=args.tol)
        report["Q"] = _num(inv.compute_Q(phi, vol=inv.standard_volume()))
        report["dims"] = list(inv.subspace_dims(phi, tol=args.tol))
    _emit(_stamp(report), args.out)
    return 0


# --- verify suites -------------------------------------------------------------

def _rand_fraction(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3)))


def random_primitive_coords(rng):
    return PrimitiveCoords(*(_rand_fraction(rng) for _ in range(14)))


def random_three_form(rng):
    import itertools
    coeffs = {}
    for axes in itertools.combinations(range(1, 7), 3):
        c = _rand_fraction(rng)
        if c:
            coeffs[sum(1 << (a - 1) for a in axes)] = c
    return Form(3, coeffs)


def _suite_identities(seed, trials, report):
    """Exact polynomial identities of K, F, Q and the contraction lemma."""
    rng = random.Random(seed)
    omega = inv.standard_omega()
    vol = inv.volume_of(omega)
    for n in range(trials):
        phi = inv.coords_to_form(random_primitive_coords(rng)) if n % 2 \
            else random_three_form(rng)
        K = inv.compute_K(phi, vol=vol)
        F = inv.compute_F(phi, vol=vol)
        Q = -wedge(phi, F).coeffs.get(63, 0)
        KK = K.compose(K)
        ok = all(KK.rows[i][j] == (Fraction(Q, 4) if i == j else 0)
                 for i in range(6) for j in range(6))
        KF = inv.compute_K(F, vol=vol)
        ok = ok and all(KF.rows[i][j] == -Q * K.rows[i][j]
                        for i in range(6) for j in range(6))
        FF = inv.compute_F(F, vol=vol)
        ok = ok and FF == phi.map_coeffs(lambda x: -Q * Q * x)
        X = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        Y = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        pf = wedge(phi, F)
        ok = ok and wedge(interior(X, phi), F) == -wedge(phi, interior(X, F))
        ok = ok and wedge(interior(X, phi), F) == interior(X, pf).map_coeffs(
            lambda v: Fraction(v, 2))
        o21 = wedge(interior(X, phi), interior(Y, F)) \
            + wedge(interior(Y, phi), interior(X, F))
        ok = ok and not o21.coeffs
        ok = ok and wedge(interior(Y, interior(X, phi)), F) \
            == wedge(phi, interior(Y, interior(X, F)))
        if not ok:
            report["counterexample"] = io.form_to_json(phi)
            return False
    report["residual"] = 0.0
    return True


def _suite_lemma_bc(seed, trials, report, hat_fn=None):
    """Closed-form hat map and quartic against the brute-force invariants."""
    hat_fn = hat_fn or inv.hat_map
    rng = random.Random(seed)
    omega = inv.standard_omega()
    for _ in range(trials):
        c = random_primitive_coords(rng)
        phi = inv.coords_to_form(c)
        lhs = inv.coords_to_form(hat_fn(c))
        F = inv.compute_F(phi, omega)
        rhs = F.map_coeffs(lambda x: Fraction(x, -2))
        if lhs != rhs or inv.q_from_coords(c) != inv.compute_Q(phi, omega):
            report["counterexample"] = io.coords_to_json(c)
            return False
    report["residual"] = 0.0
    return True


def _suite_gradients(seed, trials, report):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        c = PrimitiveCoords(*(rng.uniform(-2, 2) for _ in range(14)))
        worst = max(worst, inv.gradient_relations_check(c))
    report["residual"] = worst
    return worst < 1e-6


def _suite_nijenhuis(seed, trials, report):
    rng = random.Random(seed)
    setups = (liealg.builtin_setup("nil-debartolomeis"),
              liealg.InvariantSetup.standard(liealg.solv_algebra(Fraction(7, 5))))
    worst = 0.0
    for n in range(trials):
        c = random_primitive_coords(rng)
        res = liealg.verify_nijenhuis_identity(setups[n % 2], inv.coords_to_form(c))
        if res != 0.0:
            report["counterexample"] = io.coords_to_json(c)
            report["residual"] = res
            return False
        worst = max(worst, res)
    report["residual"] = worst
    return True


def _suite_hessian(seed, trials, report):
    rng = random.Random(seed)
    worst = {}
    ok = True
    for _ in range(max(1, trials // 32)):
        a = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        metric = hessian.BaseMetric3((a @ a.T + 1.5 * np.eye(3)).tolist())
        for C in (-0.1, 0.0, 0.5, 2.0):
            for _ in range(4):
                t = tuple(rng.uniform(0.5, 1.8) * rng.choice((-1, 1))
                          for _ in range(3))
                p = hessian.FiberPoint(t, C)
                try:
                    p.validate(metric)
                except hessian.DomainError:
                    continue
                checks = hessian.fiber_verifications(metric, p)
                data = hessian.leaf_data(metric, p)
                S, ricci = hessian.scalar_curvature(data)
                checks["scalar_closed_form"] = abs(
                    S - hessian.closed_form_scalar_curvature(metric, p))
                checks["ricci_min_eig"] = -min(
                    0.0, float(np.linalg.eigvalsh(ricci).min()))
                checks["affine_fd"] = hessian.affine_derivative_check(metric, p)
                for k, v in checks.items():
                    worst[k] = max(worst.get(k, 0.0), v)
    limits = {"primitivity": 1e-12, "F_closed_form": 1e-10,
              "K_kills_fibers": 1e-10, "K_frame_match": 1e-9,
              "det_h_minus_8detg": 1e-10, "h_inv_vs_numeric": 1e-10,
              "scalar_closed_form": 1e-8, "ricci_min_eig": 1e-10,
              "affine_fd": 1e-4}
    report["residuals"] = worst
    for k, lim in limits.items():
        if worst.get(k, 0.0) > lim:
            ok = False
            report.setdefault("failures", []).append(f"{k} = {worst[k]} > {lim}")
    return ok


VERIFY_SUITES = {
    "identities": _suite_identities,
    "lemma-bc": _suite_lemma_bc,
    "gradients": _suite_gradients,
    "nijenhuis": _suite_nijenhuis,
    "hessian": _suite_hessian,
}


def run_verify_suite(suite, seed, trials, hat_fn=None):
    """Run one named verification suite; returns (passed, report dict)."""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    report = {"suite": suite, "seed": seed, "trials": trials}
    fn = VERIFY_SUITES[suite]
    if suite == "lemma-bc" and hat_fn is not None:
        passed = fn(seed, trials, report, hat_fn=hat_fn)
    else:
        passed = fn(seed, trials, report)
    report["passed"] = bool(passed)
    return passed, report


def cmd_verify(args):
    if args.suite not in VERIFY_SUITES:
        raise CliError(f"unknown suite {args.suite!r}; "
                       f"choose from {sorted(VERIFY_SUITES)}")
    passed, report = run_verify_suite(args.suite, args.seed, args.trials)
    _emit(_stamp(report), args.out)
    return 0 if passed else 1


# --- flow ----------------------------------------------------------------------

def _load_setup(name_or_path):
    try:
        return liealg.builtin_setup(name_or_path)
    except KeyError:
        pass
    data = _load_json(name_or_path)
    try:
        alg = liealg.algebra_from_json(data, name=os.path.basename(name_or_path))
        omega = io.form_from_json(data["omega"], grade=2) if "omega" in data else None
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"bad algebra file {name_or_path}: {e}")
    if omega is not None:
        return liealg.InvariantSetup(alg, omega)
    return liealg.InvariantSetup.standard(alg)


def _flow_one(setup, c0, args, out_dir, tag=""):
    controls = flow.FlowControls(rtol=args.tol, blow_norm=args.blow_norm,
                                 detect_stationary=not args.no_stationary)
    if args.require_positive:
        try:
            sd = flow.SolvData.from_coords(c0)
        except ValueError as e:
            raise CliError(f"--require-positive: {e}")
        rep = flow.positivity_check(sd)
        if not rep.ok:
            raise CliError(
                f"initial data violates positivity: failed {rep.failed()}")
    traj = flow.integrate(setup, c0, args.t_max, controls)

    is_nil = setup.algebra.name == "nil-debartolomeis"
    is_solv = setup.algebra.name == "solv-tomassini"
    extra = []
    if is_nil:
        nd = flow.NilData.from_coords(c0)
        extra = [("A_closed", lambda i, t: flow.nil_closed_form(nd, float(c0[0]), t))]
    elif is_solv:
        def u_of(i, t):
            st = traj.states[i]
            return 4.0 * st[0] * -st[6]

        def v_of(i, t):
            st = traj.states[i]
            return 4.0 * st[2] * st[4]
        extra = [("u", u_of), ("v", v_of)]
        try:
            sd = flow.SolvData.from_coords(c0)
            tools = flow.solv_uv_tools(sd)
            if tools.t_prime.available:
                tp = tools.t_prime.value
                extra.append(("u_comparison",
                              lambda i, t: tools.w_closed_form(t)
                              * math.exp(-flow.UV_RATE * sd.lam ** 2 * sd.S * t)
                              if t < tp else float("nan")))
        except ValueError:
            pass

    buf = _stringio.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", *COORD_NAMES, *(name for name, _ in extra)])
    for i, t in enumerate(traj.times):
        row = [repr(float(t))] + [repr(float(x)) for x in traj.states[i]]
        row += [repr(float(fn(i, float(t)))) for _, fn in extra]
        w.writerow(row)
    csv_path = os.path.join(out_dir, f"trajectory{tag}.csv")
    io.atomic_write_text(csv_path, buf.getvalue())

    status = {
        "status": traj.status,
        "message": traj.message,
        "t_final": traj.t_final,
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "limit_form": None,
        "limit_orbit": None,
    }
    if traj.status in ("blow_up", "reached_t_max"):
        try:
            form, orbit = flow.normalized_limit(traj, args.normalizer)
            status["limit_form"] = io.form_to_json(
                form.map_coeffs(lambda x: 0.0 if abs(float(x)) < 1e-10 else float(x)))
            status["limit_orbit"] = orbit.label
            if orbit.mu is not None:
                status["limit_mu"] = float(orbit.mu)
        except flow.LimitError as e:
            status["limit_error"] = str(e)
    _emit(_stamp(status), os.path.join(out_dir, f"status{tag}.json"))
    return traj


def cmd_flow(args):
    for opt in ("t_max", "tol", "blow_norm"):
        value = getattr(args, opt)
        if not (math.isfinite(value) and value > 0):
            raise CliError(f"--{opt.replace('_', '-')} must be finite and > 0, "
                           f"got {value}")
    setup = _load_setup(args.algebra)
    data = _load_json(args.initial)
    os.makedirs(args.out or ".", exist_ok=True)
    out_dir = args.out or "."
    if isinstance(data, list):
        starts = [io.coords_from_json(entry) for entry in data]
        for k, c0 in enumerate(starts):
            _flow_one(setup, c0, args, out_dir, tag=f"-{k:03d}")
    else:
        _flow_one(setup, io.coords_from_json(data), args, out_dir)
    return 0


# --- hessian -------------------------------------------------------------------

def cmd_hessian(args):
    passed, report = run_verify_suite("hessian", args.seed, args.trials)
    report["grid"] = "per metric: C in {-0.1, 0, 0.5, 2}, 4 random fiber points each"
    _emit(_stamp(report), args.out)
    return 0 if passed else 1


# --- argument parsing ------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="forms6",
        description="3-forms on symplectic 6-space: classification, "
                    "verification suites, reduced flows, leaf geometry")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="orbit classification of a 3-form file")
    c.add_argument("form", help="JSON form file (grade 3)")
    c.add_argument("--omega", help="JSON 2-form file; enables Sp classification")
    c.add_argument("--tol", type=float, default=1e-8)
    c.add_argument("--out", help="write the report here instead of stdout")
    c.set_defaults(fn=cmd_classify)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=sorted(VERIFY_SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("flow", help="integrate the reduced flow")
    f.add_argument("algebra", help="built-in name or algebra JSON file")
    f.add_argument("initial", help="initial coefficients JSON "
                                   "(object, or array for a sweep)")
    f.add_argument("--t-max", type=float, default=10.0)
    f.add_argument("--tol", type=float, default=1e-9)
    f.add_argument("--blow-norm", type=float, default=1e8)
    f.add_argument("--normalizer", default="A", choices=COORD_NAMES)
    f.add_argument("--no-stationary", action="store_true",
                   help="disable stationary-point termination")
    f.add_argument("--require-positive", action="store_true",
                   help="refuse solv initial data violating positivity")
    f.add_argument("--out", help="output directory", default=".")
    f.set_defaults(fn=cmd_flow)

    h = sub.add_parser("hessian", help="verify the leaf geometry example")
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--trials", type=int, default=96)
    h.add_argument("--out")
    h.set_defaults(fn=cmd_hessian)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"forms6: {e}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as e:
        print(f"forms6: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
