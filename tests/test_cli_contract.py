"""The CLI contract as a property: whatever JSON an input file holds, a run
exits 0, or exits 2 with exactly one ``forms6:`` line on stderr and writes
no file; a file whose JSON is not of its kind is named in that line, and so
is every file of a classify or of a flow's algebra that is refused, unless
the refusal is the classifier's verdict (a ClassificationError) on input
it has read."""

import contextlib
import io as _io
import json
import os
import tempfile
import warnings
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from forms6 import cli, flow, invariants, io, liealg
from forms6.invariants import COORD_NAMES

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
FORM = os.path.join(DATA, "forms", "sp_O0+.json")
OMEGA = os.path.join(DATA, "forms", "omega_standard.json")

# finite scalars at the edges of what JSON can carry: subnormals, the float
# range's ends, ints past it, long and zero-denominator "p/q" strings
EXTREME = st.one_of(
    st.sampled_from([5e-324, 2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, 10 ** 400, -(2 ** 1024), 2 ** 1023,
                     "1/0", "-7/0", "0/0", "1" * 200 + "/" + "3" * 199, "1/3"]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
    st.fractions().map(lambda x: f"{x.numerator}/{x.denominator}"),
)
JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | EXTREME,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=3), kids, max_size=4)),
    max_leaves=12)


def _terms(grade):
    axes = st.sets(st.integers(1, 6), min_size=grade, max_size=grade).map(sorted)
    return st.lists(st.fixed_dictionaries({"axes": axes, "coeff": EXTREME}),
                    max_size=6)


# kind-shaped data, so that the property reaches past the parsers
FORMS = JSON | _terms(3)
OMEGAS = JSON | _terms(2) | st.tuples(EXTREME, EXTREME, EXTREME).map(
    lambda c: [{"axes": [2 * i + 1, 2 * i + 2], "coeff": x} for i, x in enumerate(c)])
COORDS = st.dictionaries(st.sampled_from(COORD_NAMES), EXTREME, max_size=6)
STARTS = JSON | COORDS | st.lists(COORDS, max_size=3)
ALGEBRAS = JSON | st.fixed_dictionaries(
    {"d": st.dictionaries(st.sampled_from("123456"), _terms(2), max_size=2)},
    optional={"omega": OMEGAS})

PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _form(data):
    io.form_from_json(data, grade=3)


def _omega(data):
    io.form_from_json(data, grade=2)


def _starts(data):
    for x in data if isinstance(data, list) else [data]:
        io.coords_from_json(x).to_floats()


def _algebra(data):
    alg = liealg.algebra_from_json(data)
    if "omega" in data:
        liealg.InvariantSetup(alg, io.form_from_json(data["omega"], grade=2))
    else:
        liealg.InvariantSetup.standard(alg)


def _of_kind(parse, data):
    try:
        parse(data)
    except (ValueError, KeyError, TypeError, ArithmeticError):
        return False
    return True


def assert_contract(data, parse, argv, named=False):
    """Run argv(path, out) on a file holding data; out is a path no one
    has made.  Flows are held to 500 steps, which only bounds the time a
    start can take: a start that uses them up still exits 0.  With named,
    every refusal but a ClassificationError's own line names the file."""
    verdicts = []

    def verdict(self, *args):
        verdicts.append(f"forms6: {ValueError(*args)}\n")
        ValueError.__init__(self, *args)

    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
        with open(path, "w") as fh:
            json.dump(data, fh)
        stdout, stderr = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(flow, "MAX_STEPS", 500), \
                mock.patch.object(invariants.ClassificationError, "__init__", verdict):
            warnings.simplefilter("always")
            code = cli.main(argv(path, out))
        err = stderr.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert err == "" and os.path.exists(out)
            return
        assert code == 2, (code, err)
        assert err.startswith("forms6: ") and err.count("\n") == 1, err
        assert not os.path.exists(out), err
        if not _of_kind(parse, data) or named and err not in verdicts:
            assert path in err, err


@PROPERTY
@given(FORMS)
def test_classify_form_file(data):
    assert_contract(data, _form, lambda path, out: ["classify", path, "--out", out], named=True)


@PROPERTY
@given(FORMS)
def test_classify_form_file_with_omega(data):
    assert_contract(data, _form, lambda path, out: [
        "classify", path, "--omega", OMEGA, "--out", out], named=True)


@PROPERTY
@given(OMEGAS)
def test_classify_omega_file(data):
    assert_contract(data, _omega, lambda path, out: [
        "classify", FORM, "--omega", path, "--out", out], named=True)


@PROPERTY
@given(ALGEBRAS)
def test_flow_algebra_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        init = os.path.join(tmp, "init.json")
        with open(init, "w") as fh:
            json.dump({"A": 1.0, "C": 0.5, "H": -0.25}, fh)
        assert_contract(data, _algebra, lambda path, out: [
            "flow", path, init, "--t-max", "1", "--out", out], named=True)


@PROPERTY
@given(st.sampled_from(["nil-debartolomeis", "solv-tomassini", "abelian"]), STARTS)
def test_flow_initial_file(algebra, data):
    assert_contract(data, _starts, lambda path, out: [
        "flow", algebra, path, "--t-max", "1", "--out", out])


def test_a_form_of_the_wrong_grade_is_refused_for_its_grade():
    # a 2-form given as the form, or a 3-form as --omega, is refused for the
    # grade of its terms; "mixed grades" is kept for a form whose own terms
    # disagree
    with tempfile.TemporaryDirectory() as tmp:
        mixed, out = os.path.join(tmp, "mixed.json"), os.path.join(tmp, "out")
        with open(mixed, "w") as fh:
            json.dump([{"axes": [1, 3, 5], "coeff": 1}, {"axes": [1, 2], "coeff": 1}], fh)
        for argv, line in (
                ([OMEGA], f"bad form file {OMEGA}: a term of grade 2 (axes [1, 2]) "
                          f"where grade 3 was expected"),
                ([FORM, "--omega", FORM], f"bad --omega file {FORM}: a term of grade 3 "
                                          f"(axes [1, 4, 6]) where grade 2 was expected"),
                ([mixed], f"bad form file {mixed}: mixed grades in form terms: [1, 2]")):
            stderr = _io.StringIO()
            with contextlib.redirect_stdout(_io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(["classify", *argv, "--out", out])
            assert (code, stderr.getvalue()) == (2, f"forms6: {line}\n")
            assert not os.path.exists(out)
