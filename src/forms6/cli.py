"""Command-line entry points.

Subcommands: classify (orbit report for a 3-form file), verify (seeded
verification suites with JSON reports), flow (trajectory CSV + status JSON),
hessian (verify --suite hessian: the leaf-geometry report).  An error exits
nonzero with one stderr line, naming any input file of the wrong content,
and writes no file.  Reports are written atomically and are byte-exact for
a fixed seed and configuration apart from their generated_at field.
"""

import argparse
import contextlib
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


def _load(path, parse, what):
    """parse(the JSON of path); an error in its content names the file."""
    data = _load_json(path)
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError, ArithmeticError) as e:
        raise CliError(f"bad {what} file {path}: {e}")


def _stamp(report):
    report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return report


@contextlib.contextmanager
def _writing(path):
    """Refuse an OSError raised inside as 'cannot write PATH: reason'."""
    try:
        yield
    except OSError as e:
        raise CliError(f"cannot write {path}: {e.strerror or e}") from None


def _emit(report, out_path):
    text = io.dumps_report(report)
    if out_path:
        with _writing(out_path):
            io.atomic_write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _num(x, name):
    """A report number: an exact x as its float, refused by name past the float range."""
    if isinstance(x, Fraction) and x and not 2.0 ** -1074 <= abs(x) <= sys.float_info.max:
        raise OverflowError(f"{name} is out of the float range")
    return float(x) if isinstance(x, Fraction) else x


# --- classify ----------------------------------------------------------------

def _orbit_fields(phi, omega, tol):
    """The orbit fields of a classify report.  With omega, the GL orbit and
    q's signature are the SP_ORBITS entry of the Sp label, whose signature
    classify_sp measured, exactly on exact input and at tol on floats (on
    O3 and O6, where q = 0, it is the table's (6, 0, 0)): one K evaluation,
    shared by every call on phi."""
    if omega is None:
        return dict(gl_orbit=inv.classify_gl(phi, tol=tol),
                    Q=_num(inv.compute_Q(phi, vol=inv.standard_volume()), "Q"),
                    dims=list(inv.subspace_dims(phi, tol=tol)))
    sp = inv.classify_sp(phi, omega, tol=tol)
    orbit = inv.SP_ORBITS[sp.label]
    return dict(gl_orbit=orbit.gl, sp_orbit=sp.label, mu=_num(sp.mu, "mu"),
                Q=_num(inv.compute_Q(phi, omega), "Q"), signature=list(orbit.signature),
                dims=list(inv.subspace_dims(phi, omega, tol=tol)))


def cmd_classify(args):
    """Classify the form file, under --omega when it is given.  A refusal is
    the library's text after 'cannot classify FILE [under --omega FILE]: ',
    and a ClassificationError is reported as it is.  --tol is a relative
    cut in (0, 1): at 1 or more every float rank is 0."""
    if not (math.isfinite(args.tol) and 0 < args.tol < 1):
        raise CliError(f"--tol must be finite and in (0, 1), got {args.tol}")
    form_of = functools.partial(io.form_from_json, grade=3)
    phi = _load(args.form, form_of, "form")
    omega = _load(args.omega, functools.partial(form_of, grade=2), "--omega") \
        if args.omega else None
    report = {"input": args.form, **dict.fromkeys(("sp_orbit", "mu", "signature"))}
    try:
        report.update(_orbit_fields(phi, omega, args.tol))
    except (ValueError, ArithmeticError) as e:
        if isinstance(e, inv.ClassificationError):
            raise
        under = f" under --omega {args.omega}" if args.omega else ""
        raise CliError(f"cannot classify {args.form}{under}: {e}")
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

    def parse(data):
        alg = liealg.algebra_from_json(data, name=os.path.basename(name_or_path))
        setup = (liealg.InvariantSetup(alg, io.form_from_json(data["omega"], grade=2))
                 if "omega" in data else liealg.InvariantSetup.standard(alg))
        flow.reduced_flow(setup)  # refuses an omega other than the standard one
        return setup
    return _load(name_or_path, parse, "algebra")


def _parse_starts(data):
    """(float PrimitiveCoords, file tags) of a start (object) or sweep (array)."""
    if isinstance(data, list):
        if not data:
            raise ValueError("a sweep needs at least one start")
        return ([io.coords_from_json(x).to_floats() for x in data],
                [f"-{k:03d}" for k in range(len(data))])
    return [io.coords_from_json(data).to_floats()], [""]


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
        # in the start's power-of-two units, y = 2^e Y and t = 4^-e T, so
        # that 4 H^2 cannot overflow; every factor is exact
        e = math.frexp(max(map(abs, c0)))[1]
        nd = flow.NilData.from_coords([math.ldexp(x, -e) for x in c0])
        return [("A_closed", [math.ldexp(flow.nil_closed_form(
            nd, nd.constants.A, math.ldexp(t, 2 * e)), e) for t in times])]
    if setup.algebra.name != "solv-tomassini":
        return []
    st = traj.states
    extra = [("u", 4.0 * (st[:, 0] * -st[:, 6])), ("v", 4.0 * (st[:, 2] * st[:, 4]))]
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


def _flow_files(setup, c0, traj, args, tag):
    """(name, text) of a start's trajectory CSV and status JSON."""
    status = {key: getattr(traj, key) for key in (
        "status", "message", "t_final", "n_accepted", "n_rejected", "rhs_rows",
        "min_step", "max_step")}
    status.update(limit_form=None, limit_orbit=None)
    if traj.status in ("blow_up", "reached_t_max"):
        try:
            form, orbit = flow.normalized_limit(traj, args.normalizer)
            status["limit_form"] = io.form_to_json(
                form.map_coeffs(lambda x: 0.0 if abs(float(x)) < 1e-10 else float(x)))
            status["limit_orbit"] = orbit.label
            if orbit.mu is not None:
                status["limit_mu"] = float(orbit.mu)
        except (flow.LimitError, ValueError, ArithmeticError) as e:
            status["limit_error"] = str(e)  # taking or classifying the limit
    return [(f"trajectory{tag}.csv", _trajectory_csv(setup, c0, traj)),
            (f"status{tag}.json", io.dumps_report(_stamp(status)))]


def cmd_flow(args):
    """Parse and check the whole sweep, integrate it as one batch, and
    format every start's files before --out is made: a refused run, one
    refused for a start it cannot format included, writes no file."""
    for opt in ("t_max", "tol", "blow_norm"):
        value = getattr(args, opt)
        if not (math.isfinite(value) and value > 0):
            raise CliError(f"--{opt.replace('_', '-')} must be finite and > 0, "
                           f"got {value}")
    setup = _load_setup(args.algebra)
    starts, tags = _load(args.initial, _parse_starts, "initial")
    if args.require_positive:
        for c0 in starts:
            _check_positive(c0)
    controls = flow.FlowControls(rtol=args.tol, blow_norm=args.blow_norm,
                                 detect_stationary=not args.no_stationary)
    trajs = flow.integrate_sweep(setup, starts, args.t_max, controls)
    files = []
    for k, (c0, traj, tag) in enumerate(zip(starts, trajs, tags)):
        try:
            with np.errstate(over="raise", invalid="raise"):
                files += _flow_files(setup, c0, traj, args, tag)
        except (ArithmeticError, ValueError) as e:
            raise CliError(f"cannot format the files of start {k}: {e}")
    out_dir = args.out or "."
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        path = os.path.join(out_dir, name)
        with _writing(path):
            io.atomic_write_text(path, text)
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
    c.add_argument("--tol", type=float, default=inv.ORBIT_TOL,
                   help="relative tolerance of the float orbit decisions, "
                        "in (0, 1) (default %(default)g)")
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
    f.add_argument("--tol", type=float, default=flow.FlowControls.rtol,
                   help="relative bound on the last Taylor terms of a step, "
                        "which sets the step size, and the stationarity cut "
                        "max|f(y)| <= tol max|y|^3 (default %(default)g)")
    f.add_argument("--blow-norm", type=float, default=flow.FlowControls.blow_norm,
                   help="growth of max|y| over the start's past which a step whose "
                        "t-advance is below --tol times t stops a start as blow_up; "
                        "a flow that can blow up is stepped in a projective time, "
                        "and the status message gives the growth rate and blow-up "
                        "time estimate at the stop (default %(default)g)")
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
