"""Command-line entry points.

Subcommands: classify (orbit report for a 3-form file), verify (seeded
verification suites with JSON reports), flow (trajectory CSV + status JSON),
hessian (verify --suite hessian: the leaf-geometry report).  Every error
path exits nonzero with a message on stderr; reports are written atomically
and are byte-reproducible for a fixed seed and configuration apart from the
single generated_at header field.
"""

import argparse
import datetime
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import flow, invariants as inv, io, liealg, verify
from .invariants import COORD_NAMES


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
    except RecursionError:
        raise CliError(f"JSON in {path} is nested too deeply")


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
    """With --omega, the GL orbit and q's signature are the SP_ORBITS entry
    of the Sp label, whose signature classify_sp measured, exactly on exact
    input and at --tol on floats (on O3 and O6 it measures none, so q is
    taken here): 3 K evaluations, 4 there."""
    phi = _load_form(args.form, grade=3)
    report = {
        "input": args.form,
        "gl_orbit": None, "sp_orbit": None, "mu": None, "Q": None,
        "signature": None, "dims": None,
    }
    if args.omega:
        omega = _load_form(args.omega, grade=2)
        sp = inv.classify_sp(phi, omega, tol=args.tol)
        orbit = inv.SP_ORBITS[sp.label]
        sig = orbit.signature
        if sig is None:
            sig = inv.signature(inv.q_form(phi, omega, args.tol), args.tol)
        report["gl_orbit"] = orbit.gl
        report["sp_orbit"] = sp.label
        report["mu"] = _num(sp.mu) if sp.mu is not None else None
        report["Q"] = _num(inv.compute_Q(phi, omega))
        report["signature"] = list(sig)
        report["dims"] = list(inv.subspace_dims(phi, omega, tol=args.tol))
    else:
        report["gl_orbit"] = inv.classify_gl(phi, tol=args.tol)
        report["Q"] = _num(inv.compute_Q(phi, vol=inv.standard_volume()))
        report["dims"] = list(inv.subspace_dims(phi, tol=args.tol))
    _emit(_stamp(report), args.out)
    return 0


# --- verify --------------------------------------------------------------------

def cmd_verify(args):
    passed, report = verify.run(args.suite, args.seed, args.trials)
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


def _check_positive(c0):
    try:
        sd = flow.SolvData.from_coords(c0)
    except ValueError as e:
        raise CliError(f"--require-positive: {e}")
    rep = flow.positivity_check(sd)
    if not rep.ok:
        raise CliError(f"initial data violates positivity: failed {rep.failed()}")


def _extra_columns(setup, c0, traj):
    """(name, values) of the closed-form and reduced columns that follow the
    coefficients in the trajectory CSV of the nil and solv algebras."""
    times = traj.times.tolist()
    if setup.algebra.name == "nil-debartolomeis":
        nd = flow.NilData.from_coords(c0)
        A0 = float(c0[0])
        return [("A_closed", [flow.nil_closed_form(nd, A0, t) for t in times])]
    if setup.algebra.name != "solv-tomassini":
        return []
    st = traj.states
    extra = [("u", 4.0 * st[:, 0] * -st[:, 6]), ("v", 4.0 * st[:, 2] * st[:, 4])]
    try:
        sd = flow.SolvData.from_coords(c0)
    except ValueError:
        return extra
    tools = flow.SolvUVTools(sd)
    if tools.t_prime.available:
        tp = tools.t_prime.value
        rate = -flow.UV_RATE * sd.lam ** 2 * sd.S
        # math.exp per element: numpy's exp rounds differently on some inputs
        extra.append(("u_comparison",
                      [tools.w_closed_form(t) * math.exp(rate * t) if t < tp
                       else float("nan") for t in times]))
    return extra


def _trajectory_csv(setup, c0, traj):
    """The trajectory as CSV text, the same bytes as csv.writer gives for
    the repr of each value."""
    extra = _extra_columns(setup, c0, traj)
    header = ["t", *COORD_NAMES, *(name for name, _ in extra)]
    table = np.column_stack((traj.times, traj.states, *(col for _, col in extra)))
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in table.tolist()]
    return "\r\n".join(lines) + "\r\n"


def _write_flow(setup, c0, traj, args, out_dir, tag):
    io.atomic_write_text(os.path.join(out_dir, f"trajectory{tag}.csv"),
                         _trajectory_csv(setup, c0, traj))
    status = {
        "status": traj.status,
        "message": traj.message,
        "t_final": traj.t_final,
        "n_accepted": traj.n_accepted,
        "n_rejected": traj.n_rejected,
        "rhs_rows": traj.rhs_rows,
        "min_step": traj.min_step,
        "max_step": traj.max_step,
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


def cmd_flow(args):
    """Parse and check the whole sweep, integrate it as one batch, then
    write each start's files; a refused start leaves no file behind."""
    for opt in ("t_max", "tol", "blow_norm"):
        value = getattr(args, opt)
        if not (math.isfinite(value) and value > 0):
            raise CliError(f"--{opt.replace('_', '-')} must be finite and > 0, "
                           f"got {value}")
    setup = _load_setup(args.algebra)
    data = _load_json(args.initial)
    if isinstance(data, list):
        starts = [io.coords_from_json(entry) for entry in data]
        tags = [f"-{k:03d}" for k in range(len(starts))]
    else:
        starts, tags = [io.coords_from_json(data)], [""]
    if args.require_positive:
        for c0 in starts:
            _check_positive(c0)
    controls = flow.FlowControls(rtol=args.tol, blow_norm=args.blow_norm,
                                 detect_stationary=not args.no_stationary)
    trajs = flow.integrate_sweep(setup, starts, args.t_max, controls)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for c0, traj, tag in zip(starts, trajs, tags):
        _write_flow(setup, c0, traj, args, out_dir, tag)
    return 0


# --- argument parsing ------------------------------------------------------------

@functools.cache
def build_parser():
    """The forms6 argument parser, built once per process: parse_args keeps
    no state between calls, so main reuses it."""
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
    v.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    f = sub.add_parser("flow", help="integrate the reduced flow")
    f.add_argument("algebra", help="built-in name or algebra JSON file")
    f.add_argument("initial", help="initial coefficients JSON "
                                   "(object, or array for a sweep)")
    f.add_argument("--t-max", type=float, default=10.0)
    f.add_argument("--tol", type=float, default=1e-9,
                   help="relative bound on the last Taylor terms of a step, "
                        "which sets the step size, and the stationarity cut "
                        "max|f(y)| <= tol max|y|^3 (default 1e-9)")
    f.add_argument("--blow-norm", type=float, default=1e8,
                   help="growth of max|y| over the start's past which a step whose "
                        "t-advance is below --tol times t stops a start as blow_up; "
                        "a flow that can blow up is stepped in a projective time, "
                        "and the status message gives the growth rate and blow-up "
                        "time estimate at the stop (default 1e8)")
    f.add_argument("--normalizer", default="A", choices=COORD_NAMES)
    f.add_argument("--no-stationary", action="store_true",
                   help="disable stationary-point termination")
    f.add_argument("--require-positive", action="store_true",
                   help="refuse solv initial data violating positivity")
    f.add_argument("--out", help="output directory", default=".")
    f.set_defaults(fn=cmd_flow)

    h = sub.add_parser("hessian", help="verify the leaf geometry example "
                                       "(verify --suite hessian)")
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--trials", type=int, default=96)
    h.add_argument("--out")
    h.set_defaults(fn=cmd_verify, suite="hessian")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, ArithmeticError) as e:
        print(f"forms6: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
