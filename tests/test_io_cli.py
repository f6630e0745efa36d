import json
import os
import re
import shutil
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import forget_evaluations, rand_coords, rand_form, seed11_moved_form
from forms6 import cli, flow, hessian, io, verify
from forms6 import invariants as inv
from forms6 import liealg as la
from forms6.exterior import Form, basis, wedge

DATA = os.path.join(os.path.dirname(cli.__file__), "data")


def data_file(rel):
    return os.path.join(DATA, rel)


# --- serialization -----------------------------------------------------------------

def test_form_json_round_trip(rng):
    for grade in (2, 3):
        f = rand_form(rng, grade, 0.6)
        assert io.form_from_json(io.form_to_json(f)) == f
    f = basis(1, 3, 5) * 0.25 + basis(2, 4, 6) * -1.5
    assert io.form_from_json(io.form_to_json(f)) == f


def test_form_json_fraction_encoding():
    f = basis(1, 2) * Fraction(3, 7)
    data = io.form_to_json(f)
    assert data == [{"axes": [1, 2], "coeff": "3/7"}]
    assert io.form_from_json(data) == f


# terms on one mask that sum past the float range: an int past it plus a
# float (the sum raises OverflowError), and two floats (the sum is inf)
OVERFLOWING_TERMS = ([{"axes": [1, 3, 5], "coeff": 10 ** 400}, {"axes": [1, 3, 5], "coeff": 1.0}],
                     [{"axes": [1, 3, 5], "coeff": 1e308}, {"axes": [1, 3, 5], "coeff": 1e308}])


def test_form_json_errors():
    with pytest.raises(ValueError):
        io.form_from_json([])  # no grade to infer
    with pytest.raises(ValueError):
        io.form_from_json([{"axes": [1, 2], "coeff": 1},
                           {"axes": [1, 2, 3], "coeff": 1}])
    with pytest.raises(ValueError):
        io.form_from_json({"axes": [1]})
    for terms in OVERFLOWING_TERMS:
        with pytest.raises(ValueError, match=r"axes \[1, 3, 5\] sum past the float range"):
            io.form_from_json(terms, grade=3)
    assert io.form_from_json([], grade=3) == Form.zero(3)


def test_coords_json_round_trip(rng):
    c = rand_coords(rng)
    assert io.coords_from_json(io.coords_to_json(c)) == c
    assert io.coords_from_json({"A": 1}) == inv.PrimitiveCoords(A=1)
    for bad in ({"Z": 1}, [1, 2], 3, {"A": float("nan")}, {"A": float("inf")},
                {"A": -float("inf")}):
        with pytest.raises(ValueError):
            io.coords_from_json(bad)


def test_atomic_write(tmp_path):
    path = tmp_path / "out.json"
    io.atomic_write_text(str(path), "hello\n")
    assert path.read_text() == "hello\n"
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp")]


# --- classify ---------------------------------------------------------------------

def run_cli(*argv):
    return cli.main(list(argv))


def assert_refused(capsys, *argv):
    """The command exits 2 with one ``forms6:`` line on stderr."""
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("forms6: ") and err.count("\n") == 1, err
    return err


# what each packaged form's report must say, from the orbit tables: dims are
# (ker phi, ker K, im K, (Ann phi)^perp) of the GL orbit, and the Sp forms
# carry (GL orbit, signature of q)
GL_DIMS = {"O-": [0, 0, 6, 6], "O+": [0, 0, 6, 6], "O0": [0, 3, 3, 6],
           "O1": [1, 5, 1, 5], "O3": [3, 6, 0, 3], "O6": [6, 6, 0, 0]}
SP_DATA = {"O-+": ("O-", [0, 6, 0]), "O--": ("O-", [0, 2, 4]),
           "O+": ("O+", [0, 3, 3]), "O0+": ("O0", [3, 3, 0]),
           "O0-": ("O0", [3, 1, 2]), "O1+": ("O1", [5, 1, 0]),
           "O1-": ("O1", [5, 0, 1]), "O3": ("O3", [6, 0, 0]),
           "O6": ("O6", [6, 0, 0])}
OMEGA_FILE = data_file("forms/omega_standard.json")


def test_classify_normal_forms(tmp_path, capsys):
    for gl, dims in GL_DIMS.items():
        assert run_cli("classify", data_file(f"forms/gl_{gl}.json")) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["gl_orbit"] == gl
        assert rep["dims"] == dims
        assert rep["sp_orbit"] is None and rep["signature"] is None


def test_classify_with_omega(monkeypatch, capsys):
    # classify_sp, compute_Q and subspace_dims share one K evaluation on
    # every label; the signature is the SP_ORBITS entry's, (6, 0, 0) on O3
    # and O6
    calls = []
    K = inv._K_numerators
    monkeypatch.setattr(inv, "_K_numerators", lambda v: calls.append(1) or K(v))
    for label, (gl, sig) in SP_DATA.items():
        calls.clear()
        forget_evaluations(monkeypatch)
        assert run_cli("classify", data_file(f"forms/sp_{label}.json"),
                       "--omega", OMEGA_FILE) == 0
        assert len(calls) == 1, label
        rep = json.loads(capsys.readouterr().out)
        assert rep["sp_orbit"] == label
        assert rep["gl_orbit"] == gl
        assert rep["signature"] == sig
        assert rep["dims"] == GL_DIMS[gl]
        assert (rep["mu"] == 1.0) == (gl in ("O-", "O+"))


def test_classify_takes_the_primitivity_cut_at_tol(tmp_path, capsys):
    # |omega ^ phi| = 5e-9 |phi| passes the default --tol of 1e-8 on every
    # step of the report
    phi = inv.sp_normal_form("O1+").to_float() + basis(1, 2, 5) * 5e-9
    assert wedge(inv.standard_omega(), phi).max_abs() == 5e-9 * phi.max_abs()
    path = tmp_path / "near.json"
    path.write_text(json.dumps(io.form_to_json(phi)))
    assert run_cli("classify", str(path), "--omega", OMEGA_FILE) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["sp_orbit"] == "O1+" and rep["signature"] == [5, 1, 0]


def test_classify_zero_form(capsys):
    assert run_cli("classify", data_file("forms/gl_O6.json")) == 0
    assert json.loads(capsys.readouterr().out)["gl_orbit"] == "O6"


def test_classify_report_is_the_same_from_any_directory(tmp_path, monkeypatch):
    # the report names its input as given, so the same relative command
    # gives the same bytes from two working directories
    texts = []
    for name in ("a", "b"):
        here = tmp_path / name
        here.mkdir()
        for rel in ("forms/sp_O0+.json", "forms/omega_standard.json"):
            shutil.copy(data_file(rel), here)
        monkeypatch.chdir(here)
        assert run_cli("classify", "sp_O0+.json", "--omega", "omega_standard.json",
                       "--out", "report.json") == 0
        texts.append(_unstamped(here / "report.json"))
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["input"] == "sp_O0+.json"


def test_classify_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("classify", str(bad)) != 0
    assert "malformed" in capsys.readouterr().err
    assert run_cli("classify", str(tmp_path / "missing.json")) != 0
    capsys.readouterr()
    # non-primitive with Sp requested
    nonprim = tmp_path / "nonprim.json"
    nonprim.write_text(json.dumps([{"axes": [1, 2, 3], "coeff": 1}]))
    assert run_cli("classify", str(nonprim), "--omega", OMEGA_FILE) != 0
    assert "primitive" in capsys.readouterr().err


# --- verify ------------------------------------------------------------------------

def test_verify_suites_pass(tmp_path):
    for suite in ("identities", "lemma-bc", "gradients", "nijenhuis"):
        out = tmp_path / f"{suite}.json"
        assert run_cli("verify", "--suite", suite, "--seed", "7",
                       "--trials", "25", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["passed"] is True


def test_verify_determinism(tmp_path):
    outs = []
    for k in (0, 1):
        out = tmp_path / f"rep{k}.json"
        assert run_cli("verify", "--suite", "identities", "--seed", "11",
                       "--trials", "20", "--out", str(out)) == 0
        text = re.sub(r'"generated_at": "[^"]*"', '"generated_at": "X"',
                      out.read_text())
        outs.append(text)
    assert outs[0] == outs[1]


def test_verify_negative_control(monkeypatch, tmp_path):
    # a corrupted hat formula must fail with a serialized counterexample
    hat_map = inv.hat_map

    def corrupted(c):
        h = hat_map(c)
        return h._replace(H=h.H + 1)

    monkeypatch.setattr(inv, "hat_map", corrupted)
    out = tmp_path / "neg.json"
    assert run_cli("verify", "--suite", "lemma-bc", "--seed", "3",
                   "--trials", "50", "--out", str(out)) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["failed_check"] == "hat_map"
    inv.coords_to_form(io.coords_from_json(rep["counterexample"]))


@pytest.mark.parametrize("error, check", [(Fraction(1, 7), "D^3 F integral"),
                                          (1, "K K = (Q/4) id")],
                         ids=("seventh", "integer"))
def test_verify_identities_negative_control(monkeypatch, tmp_path, error, check):
    # a corrupted F must fail with a serialized counterexample and the name
    # of the check it broke; the suite scales F by D^3 with D in {1, 2, 3, 6},
    # which cannot clear a seventh, so that error fails as non-integral
    # instead of being truncated away
    compute_F = inv.compute_F

    def corrupted(phi, *args, **kwargs):
        return compute_F(phi, *args, **kwargs) + basis(1, 3, 5) * error

    monkeypatch.setattr(inv, "compute_F", corrupted)
    out = tmp_path / "neg.json"
    assert run_cli("verify", "--suite", "identities", "--seed", "3",
                   "--trials", "50", "--out", str(out)) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["failed_check"] == check
    io.form_from_json(rep["counterexample"], grade=3)


def test_verify_nijenhuis_negative_control(monkeypatch, tmp_path):
    # one flipped entry of the nil setup's cached d table must fail the
    # nijenhuis suite, naming the first basis pair and 5-form that broke
    setup = verify._nijenhuis_setups()[0]
    tables = la._identity_tables(setup)
    d = tables.d.copy()
    r, m = np.argwhere(d)[0]
    d[r, m] = -d[r, m]
    monkeypatch.setattr(setup, "_identity", tables._replace(d=d))
    out = tmp_path / "neg.json"
    assert run_cli("verify", "--suite", "nijenhuis", "--seed", "3",
                   "--trials", "20", "--out", str(out)) == 1
    rep = json.loads(out.read_text())
    assert rep["passed"] is False
    assert rep["failed_check"] == "iota_N vol = rhs at (X, Y) = (e_1, e_2), e^12345"
    assert rep["residual"] > 0
    inv.coords_to_form(io.coords_from_json(rep["counterexample"]))


def test_verify_hessian_negative_control(monkeypatch, tmp_path):
    # a residual over its limit must fail the hessian suite, naming the
    # check, its worst value and its limit
    monkeypatch.setattr(hessian, "affine_derivative_check", lambda metric, p: 1.0)
    passed, rep = verify.run("hessian", 0, 32)
    assert passed is False and rep["passed"] is False
    assert rep["failures"] == ["affine_fd = 1.0 > 0.0001"]
    out = tmp_path / "neg.json"
    assert run_cli("verify", "--suite", "hessian", "--trials", "32",
                   "--out", str(out)) == 1
    assert json.loads(out.read_text())["failures"] == rep["failures"]


def test_verify_and_hessian_require_trials(capsys):
    # a run that checked nothing must never report "passed"
    for trials in ("0", "-5"):
        assert "--trials" in assert_refused(
            capsys, "verify", "--suite", "identities", "--trials", trials)
    assert "--trials" in assert_refused(capsys, "hessian", "--trials", "0")


def test_verify_unknown_suite(capsys):
    # the parser is built once per process; it still refuses after a run
    assert run_cli("verify", "--suite", "lemma-bc", "--trials", "1") == 0
    with pytest.raises(SystemExit):
        run_cli("verify", "--suite", "nope")


def _unstamped(path):
    return re.sub(rb'"generated_at": "[^"]*"', b'"generated_at": "X"',
                  path.read_bytes())


def test_repeated_calls_in_one_process_write_the_same_bytes(tmp_path, capsys):
    # the parser and the per-omega tables outlive a call; a second round of
    # the same calls, each followed by a refused one, writes the same bytes
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"A": 0.1, "H": 0.5}, {"A": -0.3, "H": 0.7}]))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    refused = [("classify", str(bad)),
               ("verify", "--suite", "identities", "--trials", "0"),
               ("flow", "nil-debartolomeis", str(sweep), "--t-max", "nan"),
               ("flow", "nil-debartolomeis", str(bad))]
    rounds = []
    for k in (0, 1):
        out = tmp_path / f"round-{k}"
        out.mkdir()
        for suite, bad_call in zip(("identities", "lemma-bc", "nijenhuis"), refused):
            assert run_cli("verify", "--suite", suite, "--seed", "5", "--trials", "6",
                           "--out", str(out / f"{suite}.json")) == 0
            assert_refused(capsys, *bad_call)
        assert run_cli("flow", "nil-debartolomeis", str(sweep), "--t-max", "2",
                       "--out", str(out / "flow")) == 0
        assert_refused(capsys, *refused[-1])
        files = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert len(files) == 7
        rounds.append({f: _unstamped(out / f) for f in files})
    assert rounds[0] == rounds[1]


# --- flow --------------------------------------------------------------------------

def write_coords(path, **kw):
    path.write_text(json.dumps(kw))


def test_flow_nil_run(tmp_path):
    init = tmp_path / "init.json"
    write_coords(init, A=0.2, B=0.5, D=1.0, F=1.2, G=-0.8, H=0.9, J=0.6)
    assert run_cli("flow", "nil-debartolomeis", str(init),
                   "--t-max", "5", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,A,B,") and lines[0].endswith("A_closed")
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["status"] in ("reached_t_max", "converged")
    # closed-form column tracks the A column
    import csv
    rows = list(csv.DictReader(lines))
    for row in rows:
        assert abs(float(row["A"]) - float(row["A_closed"])) < 1e-6


def test_flow_nil_linear_divergence_limit(tmp_path):
    init = tmp_path / "lin.json"
    write_coords(init, A=0.2, D=1.0, F=1.2, G=-0.8, J=0.6, L=0.4, N=-0.5)
    assert run_cli("flow", "nil-debartolomeis", str(init),
                   "--t-max", "1e8", "--no-stationary",
                   "--out", str(tmp_path)) == 0
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["status"] == "reached_t_max"
    assert status["limit_orbit"] == "O3"
    terms = {tuple(t["axes"]): t["coeff"] for t in status["limit_form"]}
    assert set(terms) == {(1, 3, 5)}
    assert abs(terms[(1, 3, 5)] - 1.0) < 1e-6


def test_flow_reports_a_limit_it_cannot_classify(tmp_path, monkeypatch):
    # a limit that cannot be classified is that start's limit_error; the
    # run still writes every start
    def refuse(traj, normalizer):
        raise inv.ClassificationError("O0 form with unexpected signature")

    monkeypatch.setattr(flow, "normalized_limit", refuse)
    init = tmp_path / "lin.json"
    write_coords(init, A=0.2, D=1.0, F=1.2, G=-0.8, J=0.6, L=0.4, N=-0.5)
    assert run_cli("flow", "nil-debartolomeis", str(init), "--t-max", "5",
                   "--no-stationary", "--out", str(tmp_path)) == 0
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["status"] == "reached_t_max" and status["limit_orbit"] is None
    assert status["limit_error"] == "O0 form with unexpected signature"


def test_flow_writes_no_limit_after_max_steps(tmp_path, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    init = tmp_path / "init.json"
    write_coords(init, A=0.2, B=0.5, D=1.0, F=1.2, G=-0.8, H=0.9, J=0.6)
    assert run_cli("flow", "nil-debartolomeis", str(init),
                   "--t-max", "40", "--out", str(tmp_path)) == 0
    text = (tmp_path / "status.json").read_text()
    assert '"limit_orbit": null' in text
    status = json.loads(text)
    assert (status["status"], status["message"]) == ("error", "exceeded 3 steps")
    assert status["n_accepted"] == status["rhs_rows"] == 3
    assert status["limit_form"] is None


@pytest.mark.parametrize("setup", ["nil-debartolomeis", "solv-tomassini"])
@pytest.mark.parametrize("s", [1e-160, 1e-320])
def test_flow_tiny_start_writes_its_files(tmp_path, setup, s):
    init = tmp_path / "tiny.json"
    write_coords(init, **dict.fromkeys(inv.COORD_NAMES, s))
    assert run_cli("flow", setup, str(init), "--out", str(tmp_path)) == 0
    status = json.loads((tmp_path / "status.json").read_text())
    assert (status["status"], status["n_accepted"]) == ("reached_t_max", 20)
    assert (tmp_path / "trajectory.csv").read_text().count("\n") == 22


def test_flow_sweep(tmp_path):
    init = tmp_path / "sweep.json"
    init.write_text(json.dumps([{"A": 0.1, "H": 0.5}, {"A": -0.3, "H": 0.7}]))
    outdir = tmp_path / "runs"
    assert run_cli("flow", "nil-debartolomeis", str(init),
                   "--t-max", "2", "--out", str(outdir)) == 0
    assert sorted(os.listdir(outdir)) == [
        "status-000.json", "status-001.json",
        "trajectory-000.csv", "trajectory-001.csv"]


def _without_stamp(path):
    status = json.loads(path.read_text())
    del status["generated_at"]
    return status


def test_flow_sweep_matches_solo_runs(tmp_path):
    # one batch of three starts that stop in different ways writes the
    # files of three single runs
    starts = [{"A": 0.2, "B": 0.5, "D": 1.0, "F": 1.2, "G": -0.8, "H": 0.9, "J": 0.6},
              {"A": 0.2, "D": 1.0, "F": 1.2, "G": -0.8, "J": 0.6, "L": 0.4},
              {}]
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(starts))
    assert run_cli("flow", "nil-debartolomeis", str(sweep), "--t-max", "20",
                   "--out", str(tmp_path / "sweep")) == 0
    seen = set()
    for k, start in enumerate(starts):
        init = tmp_path / f"start-{k}.json"
        write_coords(init, **start)
        solo = tmp_path / f"solo-{k}"
        assert run_cli("flow", "nil-debartolomeis", str(init), "--t-max", "20",
                       "--out", str(solo)) == 0
        assert (tmp_path / "sweep" / f"trajectory-{k:03d}.csv").read_bytes() == \
            (solo / "trajectory.csv").read_bytes()
        status = _without_stamp(tmp_path / "sweep" / f"status-{k:03d}.json")
        assert status == _without_stamp(solo / "status.json")
        rows = len((solo / "trajectory.csv").read_text().splitlines()) - 1
        # one Taylor coefficient build per step, and one more at the state a
        # start converges or underflows at
        attempts = status["n_accepted"] + status["n_rejected"]
        assert status["rhs_rows"] == attempts + (status["status"] == "converged")
        if status["n_accepted"]:
            assert 0 < status["min_step"] <= status["max_step"]
        else:
            assert status["min_step"] is status["max_step"] is None
        assert rows == 1 + status["n_accepted"]
        seen.add(status["status"])
    assert seen == {"converged", "reached_t_max"}


def test_flow_calls_in_one_process_write_the_same_files(tmp_path):
    # the built-in setup and its right-side table are built once per
    # process; a second call must not depend on what the first left behind
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([{"A": 0.2, "D": 1.0, "F": 1.2, "H": 0.9},
                                 {"A": -0.3, "H": 0.7, "J": 0.6}]))
    for k in (1, 2):
        assert run_cli("flow", "nil-debartolomeis", str(sweep), "--t-max", "20",
                       "--out", str(tmp_path / f"run-{k}")) == 0
    def unstamped(path):
        return re.sub(rb'"generated_at": "[^"]*"', b"", path.read_bytes())

    for name in ("trajectory-000.csv", "trajectory-001.csv",
                 "status-000.json", "status-001.json"):
        assert unstamped(tmp_path / "run-1" / name) == \
            unstamped(tmp_path / "run-2" / name)
    assert b'"generated_at"' in (tmp_path / "run-1" / "status-000.json").read_bytes()


def test_flow_require_positive_refuses_whole_sweep(tmp_path, capsys):
    good = {"A": 1.0, "B": 1.0, "C": 0.8, "D": -0.8, "E": 1.1, "F": -1.1,
            "G": -0.9, "H": -0.9, "M": 0.1, "N": 0.05}
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps([good, dict(good, M=3.0), good]))
    out = tmp_path / "out"
    err = assert_refused(capsys, "flow", "solv-tomassini", str(sweep),
                         "--require-positive", "--out", str(out))
    assert "dominates_M" in err
    assert not out.exists() or not os.listdir(out)


def test_flow_require_positive_refuses_a_start_off_the_ansatz(tmp_path, capsys):
    # B != A: no closed solv ansatz, so no positivity to check
    init = tmp_path / "open.json"
    write_coords(init, A=1.0, B=0.5, C=0.8, D=-0.8, E=1.1, F=-1.1, G=-0.9, H=-0.9)
    out = tmp_path / "out"
    err = assert_refused(capsys, "flow", "solv-tomassini", str(init),
                         "--require-positive", "--out", str(out))
    assert err == "forms6: --require-positive: coefficients are not a closed solv ansatz\n"
    assert not out.exists()


def test_flow_solv_start_without_a_bound_has_no_comparison_column(tmp_path):
    # u0 = 4 alpha delta = 0 for alpha = 1e308 and delta = 0: T' is invalid,
    # so the CSV ends at the u and v columns
    init = tmp_path / "big.json"
    write_coords(init, A=1e308, B=1e308, C=1, D=-1, E=1, F=-1)
    assert run_cli("flow", "solv-tomassini", str(init), "--out", str(tmp_path)) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[0].endswith(",N,u,v") and "nan" not in rows[1]


def test_flow_solv_with_positivity(tmp_path, capsys, monkeypatch):
    # u_comparison needs T' and the closed form of w only, not the u-v or
    # comparison systems as flows
    from forms6 import flow

    def refuse(*args):
        raise AssertionError("a u-v flow was built")

    monkeypatch.setattr(flow, "_uv_flow", refuse)
    init = tmp_path / "solv.json"
    write_coords(init, A=1.0, B=1.0, C=0.8, D=-0.8, E=1.1, F=-1.1,
                 G=-0.9, H=-0.9, M=0.1, N=0.05)
    assert run_cli("flow", "solv-tomassini", str(init), "--t-max", "50",
                   "--blow-norm", "1e5", "--require-positive",
                   "--out", str(tmp_path)) == 0
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["status"] == "blow_up"
    assert status["limit_orbit"] == "O-+"
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert rows[0].endswith("u,v,u_comparison")
    assert float(rows[1].split(",")[-1]) == pytest.approx(4.0 * 1.0 * 0.9, rel=1e-14)


def test_flow_positivity_refusal(tmp_path, capsys):
    init = tmp_path / "bad.json"
    write_coords(init, A=1.0, B=1.0, C=0.8, D=-0.8, E=1.1, F=-1.1,
                 G=-0.9, H=-0.9, M=3.0, N=0.0)
    assert run_cli("flow", "solv-tomassini", str(init),
                   "--require-positive", "--out", str(tmp_path)) != 0
    assert "dominates_M" in capsys.readouterr().err


def test_flow_custom_algebra_file(tmp_path):
    # abelian algebra passed as an explicit file rather than by name
    alg = {"d": {str(i): [] for i in range(1, 7)}}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(alg))
    init = tmp_path / "init.json"
    write_coords(init, A=1.0)
    assert run_cli("flow", str(path), str(init), "--out", str(tmp_path)) == 0
    status = json.loads((tmp_path / "status.json").read_text())
    assert status["status"] == "converged"


def test_flow_rejects_malformed_initial_data(tmp_path, capsys):
    init = tmp_path / "init.json"
    for text in ("[1, 2]", '[{"A": 0.1, "H": 0.5}, [1, 2]]', "3",
                 '{"A": NaN, "H": 0.5}', '{"A": 0.1, "H": Infinity}'):
        init.write_text(text)
        assert_refused(capsys, "flow", "nil-debartolomeis", str(init),
                       "--out", str(tmp_path))
    # a sweep is checked whole before any start is integrated
    assert not [p for p in os.listdir(tmp_path) if p != "init.json"]


def test_flow_refuses_an_empty_sweep(tmp_path, capsys):
    # a run that would do nothing is refused, not reported as a success
    init, out = tmp_path / "init.json", tmp_path / "out"
    init.write_text("[]")
    err = assert_refused(capsys, "flow", "nil-debartolomeis", str(init), "--out", str(out))
    assert err == f"forms6: bad initial file {init}: a sweep needs at least one start\n"
    assert not out.exists()


def test_classify_refuses_an_unwritable_out(tmp_path, capsys):
    # --out names a directory: refused with the path, and no temp file is left
    err = assert_refused(capsys, "classify", data_file("forms/sp_O3.json"),
                         "--out", str(tmp_path))
    assert err.startswith(f"forms6: cannot write {tmp_path}: "), err
    assert os.listdir(tmp_path) == []


def test_flow_refuses_an_unwritable_out(tmp_path, capsys):
    # --out names a file: makedirs fails, and no trajectory is written
    init, out = tmp_path / "init.json", tmp_path / "taken"
    write_coords(init, A=0.1, H=0.5)
    out.write_text("kept\n")
    err = assert_refused(capsys, "flow", "nil-debartolomeis", str(init),
                         "--t-max", "1", "--out", str(out))
    assert err.startswith(f"forms6: cannot write {out}: "), err
    assert out.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["init.json", "taken"]


def test_verify_refuses_an_unwritable_out(tmp_path, capsys):
    # the directory of --out does not exist
    out = tmp_path / "missing" / "x.json"
    err = assert_refused(capsys, "verify", "--suite", "lemma-bc", "--trials", "2",
                         "--out", str(out))
    assert err.startswith(f"forms6: cannot write {out}: "), err
    assert os.listdir(tmp_path) == []


def test_flow_rejects_bad_controls(tmp_path, capsys):
    init = tmp_path / "init.json"
    write_coords(init, A=0.1, H=0.5)
    for opt in ("--t-max", "--tol", "--blow-norm"):
        for value in ("nan", "inf", "-5", "0"):
            err = assert_refused(capsys, "flow", "nil-debartolomeis", str(init),
                                 opt, value, "--out", str(tmp_path))
            assert opt in err


def test_classify_rejects_bad_tol(tmp_path, capsys):
    # --tol is a relative cut: at 1 or more every float rank reads 0, and nan
    # or a cut at most 0 decides nothing; each is refused before any file is read
    out = tmp_path / "report.json"
    omega = ("--omega", data_file("forms/omega_standard.json"))
    for extra in ((), omega):
        for value in ("nan", "inf", "-5", "0", "1"):
            err = assert_refused(capsys, "classify", data_file("forms/sp_O1+.json"),
                                 *extra, "--tol", value, "--out", str(out))
            assert "--tol" in err and str(float(value)) in err
            assert not out.exists()


def test_classify_refuses_an_extreme_float_omega_without_a_warning(tmp_path, capsys):
    # these coefficients span past the float range, so omega^3 would
    # underflow and q read nan; the library refuses the span, naming omega
    # and its smallest coefficient, and no numpy warning leaks on the way
    omega = tmp_path / "omega.json"
    omega.write_text(json.dumps([{"axes": [1, 2], "coeff": 5e-324},
                                 {"axes": [3, 4], "coeff": 2.2250738585072014e-308},
                                 {"axes": [5, 6], "coeff": 1e308}]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = assert_refused(capsys, "classify", data_file("forms/sp_O0+.json"),
                             "--omega", str(omega))
    assert err == (f"forms6: cannot classify {data_file('forms/sp_O0+.json')} under --omega "
                   f"{omega}: the coefficients of omega span past the float range: 5e-324 "
                   "against max|omega| = 1e+308\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_flow_rejects_malformed_algebra_file(tmp_path, capsys):
    init = tmp_path / "init.json"
    write_coords(init, A=1.0)
    alg = tmp_path / "alg.json"
    empty_d = {str(i): [] for i in range(1, 7)}
    for data in ({"d": 5}, [1, 2], {"d": empty_d, "omega": [{"coeff": 1}]}):
        alg.write_text(json.dumps(data))
        assert "bad algebra file" in assert_refused(
            capsys, "flow", str(alg), str(init), "--out", str(tmp_path))


def test_input_errors_name_their_file(tmp_path, capsys):
    # a content error of any input file, a zero denominator or a number past
    # the float range included, names the file, and a refused flow makes no
    # --out directory
    form = tmp_path / "form.json"
    form.write_text(json.dumps([{"axes": [1, 3, 5], "coeff": "1/0"}]))
    err = assert_refused(capsys, "classify", str(form))
    assert err == f"forms6: bad form file {form}: zero denominator in coefficient '1/0'\n"
    err = assert_refused(capsys, "classify", data_file("forms/sp_O3.json"),
                         "--omega", str(form))
    assert err.startswith(f"forms6: bad --omega file {form}: ")
    for terms in OVERFLOWING_TERMS:
        form.write_text(json.dumps(terms))
        err = assert_refused(capsys, "classify", str(form))
        assert err == (f"forms6: bad form file {form}: the terms on axes [1, 3, 5] "
                       "sum past the float range\n")
    init, out = tmp_path / "init.json", tmp_path / "out"
    for text in ('"A"', '{"A": "1/0"}', '{"Z": 1}', '[{"A": 1}, {"A": "2/0"}]',
                 '{"A": 1' + "0" * 400 + "}"):
        init.write_text(text)
        err = assert_refused(capsys, "flow", "nil-debartolomeis", str(init),
                             "--out", str(out))
        assert err.startswith(f"forms6: bad initial file {init}: "), err
        assert not out.exists()
    # InvariantSetup's refusal of a degenerate omega names the algebra file
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps({"d": {}, "omega": [{"axes": [1, 2], "coeff": 1}]}))
    write_coords(init, A=1.0)
    err = assert_refused(capsys, "flow", str(alg), str(init), "--out", str(out))
    assert err.startswith(f"forms6: bad algebra file {alg}: degenerate"), err
    assert not out.exists()
    # so does the reduced flow's refusal of a closed, nondegenerate omega
    # other than the standard one
    alg.write_text(json.dumps({"d": {}, "omega": io.form_to_json(inv.standard_omega() * 2)}))
    err = assert_refused(capsys, "flow", str(alg), str(init), "--out", str(out))
    assert err == (f"forms6: bad algebra file {alg}: the primitive coefficient basis "
                   "assumes the standard omega\n")
    assert not out.exists()


def test_classify_names_an_out_of_range_scalar(tmp_path, capsys):
    # a classification that leaves the float range names the file(s) and
    # what leaves it, after "cannot classify", and writes no report
    form, omega, out = tmp_path / "form.json", tmp_path / "omega.json", tmp_path / "out"
    O_plus = inv.sp_normal_form("O+")
    # a float phi is classified in its own binade, so it is refused where a
    # reported output, here Q, leaves the float range, or where a coefficient,
    # here e^246's, falls below the float range in the binade; an exact Q past
    # the float range is refused by the report field's name
    Q_out = "Q(phi) is out of the float range at max|phi| = {}, vol = 1"
    for phi, text in ((inv.sp_normal_form("O-+", 1e308), Q_out.format("1e+308")),
                      (O_plus + basis(1, 3, 5) * 1e308, "the coefficients of phi span past "
                       "the float range: 1 against max|phi| = 1e+308"),
                      (O_plus + basis(1, 3, 5) * 10 ** 400, "Q is out of the float range"),
                      (inv.sp_normal_form("O-+", 1e77), Q_out.format("1e+77"))):
        form.write_text(json.dumps(io.form_to_json(phi)))
        for extra in ((), ("--omega", OMEGA_FILE)):
            err = assert_refused(capsys, "classify", str(form), *extra, "--out", str(out))
            under = f" under --omega {OMEGA_FILE}" if extra else ""
            assert err == f"forms6: cannot classify {form}{under}: {text}\n", err
            assert not out.exists()
    omega.write_text(json.dumps(io.form_to_json(
        inv.standard_omega() + basis(5, 6) * (Fraction(1, 10 ** 400) - 1))))
    err = assert_refused(capsys, "classify", data_file("forms/sp_O-+.json"),
                         "--omega", str(omega), "--out", str(out))
    assert err == (f"forms6: cannot classify {data_file('forms/sp_O-+.json')} under --omega "
                   f"{omega}: Q is out of the float range\n"), err
    # an exact phi under a float omega is decided on its ints, each output
    # rounded once: mu = 1e100 is read, and Q past the float range names itself
    form.write_text(json.dumps(io.form_to_json(inv.sp_normal_form("O-+") * 10 ** 100)))
    omega.write_text(json.dumps(io.form_to_json(inv.standard_omega().to_float())))
    err = assert_refused(capsys, "classify", str(form), "--omega", str(omega), "--out", str(out))
    assert err == (f"forms6: cannot classify {form} under --omega {omega}: "
                   f"{Q_out.format('1e+100')}\n"), err
    assert not out.exists()
    # a ClassificationError on well-scaled input is reported as it is: the
    # O-+ normal form moved by seed-11 map 38, as floats (fault (g))
    phi = seed11_moved_form("O-+", 38)
    form.write_text(json.dumps(io.form_to_json(phi)))
    with pytest.raises(inv.ClassificationError) as verdict:
        inv.classify_sp(phi, inv.standard_omega())
    err = assert_refused(capsys, "classify", str(form), "--omega", OMEGA_FILE)
    assert err == f"forms6: {verdict.value}\n"
    # any other refusal of classify names both files
    form.write_text(json.dumps(io.form_to_json(basis(1, 2, 3))))
    err = assert_refused(capsys, "classify", str(form), "--omega", OMEGA_FILE)
    assert err == (f"forms6: cannot classify {form} under --omega {OMEGA_FILE}: "
                   "form is not primitive: |omega ^ phi| = 1.0\n")


def test_classify_refuses_a_mu_that_is_not_a_normal_float(tmp_path, capsys):
    # mu of the O-+ normal form under 10^300 omega_0 is 1e-450: it read
    # "mu": 0.0 with exit 0; it is refused by name, exact phi or float
    form, omega, out = tmp_path / "form.json", tmp_path / "omega.json", tmp_path / "out"
    omega.write_text(json.dumps(io.form_to_json(inv.standard_omega() * 10 ** 300)))
    for phi in (inv.sp_normal_form("O-+").to_float(), inv.sp_normal_form("O-+")):
        form.write_text(json.dumps(io.form_to_json(phi)))
        err = assert_refused(capsys, "classify", str(form), "--omega", str(omega),
                             "--out", str(out))
        assert err == (f"forms6: cannot classify {form} under --omega {omega}: mu is out "
                       "of the float range at max|phi| = 1, vol = 1e+900\n"), err
        assert not out.exists()


def test_flow_columns_in_the_start_units(tmp_path, capsys):
    # A_closed is computed in each start's power-of-two units, where 4 H^2
    # cannot overflow at H = 1e308 (and underflows, taking the linear
    # branch, where H is 2^-1021 of the largest coefficient); a unit-scale
    # start's column is nil_closed_form itself, bit for bit
    starts = [{"A": 0.2, "D": 1.0, "F": 1.2, "G": -0.8, "H": 0.9},
              {"A": 0.1, "D": 1e308, "H": 1e308},
              {"G": 1.7976931348623157e308, "H": 8.0, "I": 10.0, "M": -3843.0}]
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps(starts))
    out = tmp_path / "out"
    assert run_cli("flow", "nil-debartolomeis", str(sweep), "--t-max", "20",
                   "--out", str(out)) == 0
    assert len(os.listdir(out)) == 6
    c0 = inv.PrimitiveCoords(**starts[0])
    nd = flow.NilData.from_coords(c0)
    for k in range(3):
        rows = (out / f"trajectory-{k:03d}.csv").read_text().splitlines()[1:]
        for row in rows:
            t, *_, closed = row.split(",")
            assert np.isfinite(float(closed))
            if k == 0:
                assert closed == repr(flow.nil_closed_form(nd, 0.2, float(t)))
    # u = 4 A (-G) is 0, not inf times 0, at A = 1e308 and G = 0; a column
    # that overflows in any units refuses the run, naming the start
    sweep.write_text(json.dumps([{"A": 1e308}]))
    assert run_cli("flow", "solv-tomassini", str(sweep), "--t-max", "1",
                   "--out", str(out)) == 0
    rows = (out / "trajectory-000.csv").read_text().splitlines()
    assert rows[0].endswith(",u,v") and rows[1].endswith(",-0.0,0.0")
    sweep.write_text(json.dumps([{"A": 1.0}, {"A": 1e308, "G": -1e308}]))
    out = tmp_path / "refused"
    err = assert_refused(capsys, "flow", "solv-tomassini", str(sweep),
                         "--t-max", "1", "--out", str(out))
    assert "start 1" in err and not out.exists()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open fault: integrate_ode keeps t in absolute units, so this "
                          "start stops blow_up at t = 1.9e-321 and the run is refused with "
                          "'cannot format the files of start 0: overflow encountered in "
                          "multiply'")
def test_ledger_flow_start_at_1e160(tmp_path):
    init = tmp_path / "init.json"
    init.write_text(json.dumps(dict.fromkeys(inv.COORD_NAMES, 1e160)))
    assert run_cli("flow", "solv-tomassini", str(init), "--out", str(tmp_path / "out")) == 0


def test_deeply_nested_json_is_refused(tmp_path, capsys):
    # the JSON decoder recurses once per level; a file that nests past the
    # recursion limit is refused with one line, wherever it is given
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    init = tmp_path / "init.json"
    write_coords(init, A=0.1, H=0.5)
    form = data_file("forms/gl_O0.json")
    out = str(tmp_path / "out")
    for argv in (("classify", str(deep)),
                 ("classify", form, "--omega", str(deep)),
                 ("flow", "nil-debartolomeis", str(deep), "--out", out),
                 ("flow", str(deep), str(init), "--out", out)):
        assert "nested too deeply" in assert_refused(capsys, *argv)

# --- hessian ----------------------------------------------------------------------

def test_hessian_subcommand(tmp_path):
    out = tmp_path / "hessian.json"
    assert run_cli("hessian", "--seed", "5", "--trials", "32",
                   "--out", str(out)) == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["residuals"]["det_h_minus_8detg"] < 1e-10
    # forms6 hessian is verify --suite hessian: the same report
    via_verify = tmp_path / "verify.json"
    assert run_cli("verify", "--suite", "hessian", "--seed", "5", "--trials", "32",
                   "--out", str(via_verify)) == 0
    assert _unstamped(via_verify) == _unstamped(out)
