import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_coords, rand_form
from forms6 import invariants as inv
from forms6 import liealg as la
from forms6 import linalg
from forms6.exterior import Form, GradeError, basis, form_max_diff, interior, wedge

NIL = la.builtin_setup("nil-debartolomeis")
SOLV = la.builtin_setup("solv-tomassini")
AB = la.builtin_setup("abelian")
SOLV_EXACT = la.InvariantSetup.standard(la.solv_algebra(Fraction(7, 5)))


def d_oracle(algebra, form):
    # independent antiderivation expansion: d(a ^ b) = da ^ b + (-1)^|a| a ^ db
    # applied recursively over an explicit factorization into 1-forms
    out = Form.zero(form.grade + 1)
    for m, c in form.coeffs.items():
        axes = [i for i in range(6) if m >> i & 1]
        for p, i in enumerate(axes):
            rest = [basis(a + 1) for a in axes if a != i]
            term = algebra.d_one[i]
            for r in rest:
                term = wedge(term, r)
            out = out + term * (c if p % 2 == 0 else -c)
    return out


def is_unimodular(alg):
    """True when every ad_X is traceless."""
    for j in range(6):
        ej = [0] * 6
        ej[j] = 1
        tr = 0
        for k in range(6):
            ek = [0] * 6
            ek[k] = 1
            tr += alg.bracket(ej, ek)[k]
        if tr != 0:
            return False
    return True


# --- construction and validation ------------------------------------------------

def test_builtin_algebras_are_valid_and_unimodular():
    for setup in (NIL, SOLV, AB):
        assert is_unimodular(setup.algebra)
        for i in range(6):
            e = basis(i + 1)
            assert not setup.algebra.d(setup.algebra.d(e)).coeffs
        assert not setup.algebra.d(setup.omega).coeffs


def test_jacobi_violation_rejected():
    bad = [Form.zero(2)] * 3 + [basis(1, 2) + basis(3, 4)] + [Form.zero(2)] * 2
    with pytest.raises(ValueError, match="Jacobi"):
        la.LieAlgebra6(bad)


def test_non_unimodular_detected():
    alg = la.LieAlgebra6([basis(1, 2)] + [Form.zero(2)] * 5)
    assert not is_unimodular(alg)


def test_nil_structure_constants():
    # d e4 = e15 translates to [e1, e5] = -e4
    e1 = (1, 0, 0, 0, 0, 0)
    e5 = (0, 0, 0, 0, 1, 0)
    assert NIL.algebra.bracket(e1, e5) == (0, 0, 0, -1, 0, 0)


# --- differential -----------------------------------------------------------------

def test_ce_d_examples():
    assert NIL.algebra.d(basis(2, 4, 6)) == basis(1, 2, 5, 6) - basis(1, 2, 3, 4)
    assert not SOLV.algebra.d(basis(1, 2)).coeffs
    assert not AB.algebra.d(rand_form(random.Random(0), 3)).coeffs


def test_ce_d_matches_expansion_oracle(rng):
    for setup in (NIL, SOLV_EXACT):
        for g in (2, 3, 4):
            for _ in range(10):
                a = rand_form(rng, g, 0.5)
                assert setup.algebra.d(a) == d_oracle(setup.algebra, a)


def test_d_squared_zero_on_random_forms(rng):
    for setup in (NIL, SOLV_EXACT, AB):
        for g in (1, 2, 3, 4):
            a = rand_form(rng, g, 0.6)
            assert not setup.algebra.d(setup.algebra.d(a)).coeffs


def test_d_squared_zero_for_random_solv_family(rng):
    # the lam-family satisfies Jacobi for every lam
    for _ in range(5):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        setup = la.InvariantSetup.standard(la.solv_algebra(lam))
        a = rand_form(rng, 3, 0.6)
        assert not setup.algebra.d(setup.algebra.d(a)).coeffs


def test_d_of_top_form_rejected():
    with pytest.raises(GradeError):
        NIL.algebra.d(basis(1, 2, 3, 4, 5, 6))


# --- Lefschetz operator --------------------------------------------------------------

def test_lambda_of_omega_is_three():
    out = la.lefschetz_lambda(NIL, NIL.omega)
    assert out == Form(0, {0: Fraction(3)})


def test_lambda_paired_contraction_oracle(rng):
    # for the standard omega, Lambda = sum iota_{e_{2i}} iota_{e_{2i-1}}
    def oracle(a):
        out = Form.zero(a.grade - 2)
        for k in (0, 2, 4):
            u = [0] * 6
            v = [0] * 6
            u[k] = 1
            v[k + 1] = 1
            out = out + interior(v, interior(u, a))
        return out

    assert la.lefschetz_lambda(NIL, basis(1, 2, 5, 6)) == basis(5, 6) + basis(1, 2)
    for g in (2, 3, 4, 5):
        for _ in range(10):
            a = rand_form(rng, g, 0.5)
            assert la.lefschetz_lambda(NIL, a) == oracle(a)


def test_lambda_grade_error():
    with pytest.raises(GradeError):
        la.lefschetz_lambda(NIL, basis(1))


def test_dlambdad_matrix_takes_omega_inverse_from_cached_tables(monkeypatch):
    # Lambda reads W^-1 from the per-omega tables: the 14 x 14 matrix equals
    # the one built on a fresh inverse, and a warm build inverts nothing
    def fresh_lambda(setup, a):
        P = linalg.inverse(inv.omega_matrix(setup.omega))
        out = Form.zero(a.grade - 2)
        for i in range(6):
            for j in range(i + 1, 6):
                if P[j][i]:
                    ei, ej = [0] * 6, [0] * 6
                    ei[i] = ej[j] = 1
                    out = out + interior(ej, interior(ei, a)) * P[j][i]
        return out

    setups = (NIL, SOLV, SOLV_EXACT)
    for setup in setups:
        d = setup.algebra.d
        cols = [inv.form_to_coords(d(fresh_lambda(setup, d(b))))
                for b in inv.PRIMITIVE_BASIS]
        assert la.dlambdad_coords_matrix(setup) == \
            [[cols[j][i] for j in range(14)] for i in range(14)]
    calls = []
    plain_inverse = linalg.inverse

    def counting(rows):
        calls.append(1)
        return plain_inverse(rows)

    monkeypatch.setattr(linalg, "inverse", counting)
    for setup in setups:
        la.dlambdad_coords_matrix(setup)
    assert calls == []


def test_primitive_iff_lambda_zero(rng):
    for _ in range(20):
        a = rand_form(rng, 3, 0.5)
        lam_zero = not la.lefschetz_lambda(NIL, a).coeffs
        wedge_zero = not wedge(NIL.omega, a).coeffs
        assert lam_zero == wedge_zero


def test_dlambdad_sign_convention_pin():
    # the computed value -2 e135 fixes both the Lambda normalization and sign
    assert la.dlambdad(NIL, basis(2, 4, 6)) == basis(1, 3, 5) * -2


def test_solv_dlambdad_table():
    l2 = la.SOLV_LAMBDA ** 2
    table = [
        (basis(1, 3, 5), (basis(1, 3, 5) + basis(1, 3, 6)) * -l2),
        (basis(1, 3, 6), (basis(1, 3, 5) + basis(1, 3, 6)) * l2),
        (basis(1, 4, 5), (basis(1, 4, 5) - basis(1, 4, 6)) * l2),
        (basis(1, 4, 6), (basis(1, 4, 5) - basis(1, 4, 6)) * l2),
        (basis(2, 3, 5), (basis(2, 3, 5) - basis(2, 3, 6)) * l2),
        (basis(2, 3, 6), (basis(2, 3, 5) - basis(2, 3, 6)) * l2),
        (basis(2, 4, 5), (basis(2, 4, 5) + basis(2, 4, 6)) * -l2),
        (basis(2, 4, 6), (basis(2, 4, 5) + basis(2, 4, 6)) * l2),
    ]
    for src, expect in table:
        assert form_max_diff(la.dlambdad(SOLV, src), expect) < 1e-14


# --- flow operator and kernel ----------------------------------------------------------

def test_flow_operator_nil_is_hat_H(rng):
    for _ in range(10):
        c = rand_coords(rng)
        out = la.flow_operator(NIL, inv.coords_to_form(c))
        assert out == basis(1, 3, 5) * (4 * inv.hat_map(c).H)


def test_flow_operator_abelian_zero(rng):
    assert not la.flow_operator(AB, inv.coords_to_form(rand_coords(rng))).coeffs


def test_flow_operator_rejects_non_primitive():
    with pytest.raises(ValueError, match="primitive"):
        la.flow_operator(NIL, basis(1, 2, 3))


def test_flow_operator_output_cut_relative_to_input(monkeypatch):
    # a float image whose exact value is 0 is rounding residue, so its
    # primitivity is cut at tol |phi|^3, its degree in the input, never at
    # its own size; on the F-harmonic solv family the image is such residue
    phi = inv.coords_to_form(inv.PrimitiveCoords(
        A=1.5, B=1.5, C=0.7, D=-0.7, E=0.7, F=-0.7, G=-1.5, H=-1.5, M=2.2, N=0.8))
    for scale in (1e-3, 1.0, 3.7, 1e3):
        form = phi * scale
        assert la.flow_operator(SOLV, form).max_abs() <= 1e-12 * form.max_abs() ** 3
    monkeypatch.setattr(la, "dlambdad", lambda setup, F: basis(1, 2, 3) * 1e-20)
    assert la.flow_operator(SOLV, phi) == basis(1, 2, 3) * 1e-20
    with pytest.raises(ValueError, match="flow output"):
        la.flow_operator(SOLV, phi * 1e-5)


def test_nil_stationary_iff_hat_H_zero(rng):
    for _ in range(20):
        c = rand_coords(rng)
        stationary = not la.flow_operator(NIL, inv.coords_to_form(c)).coeffs
        assert stationary == (inv.hat_map(c).H == 0)
    c = rand_coords(rng)._replace(H=Fraction(0), J=Fraction(0), L=Fraction(0),
                                  N=Fraction(0), D=Fraction(0), I=Fraction(0))
    assert inv.hat_map(c).H == 0
    assert not la.flow_operator(NIL, inv.coords_to_form(c)).coeffs


def test_kernel_dimensions():
    assert len(la.kernel_of_dlambdad(NIL)) == 13
    assert len(la.kernel_of_dlambdad(AB)) == 14
    assert len(la.kernel_of_dlambdad(SOLV)) == 10


def test_solv_kernel_contains_listed_combinations():
    listed = [
        basis(1, 3, 5) + basis(1, 3, 6),
        basis(1, 4, 5) - basis(1, 4, 6),
        basis(2, 3, 5) - basis(2, 3, 6),
        basis(2, 4, 5) + basis(2, 4, 6),
        basis(1, 3, 4) - basis(1, 5, 6),
        basis(2, 3, 4) - basis(2, 5, 6),
        basis(1, 2, 3) - basis(3, 5, 6),
        basis(1, 2, 4) - basis(4, 5, 6),
        basis(1, 2, 5) - basis(3, 4, 5),
        basis(1, 2, 6) - basis(3, 4, 6),
    ]
    for f in listed:
        assert la.dlambdad(SOLV, f).max_abs() < 1e-13


# --- Nijenhuis tensor and the integrability identity --------------------------------------

def test_nijenhuis_abelian_vanishes(rng):
    n = la.nijenhuis(AB, inv.coords_to_form(rand_coords(rng)))
    assert all(all(x == 0 for x in v) for v in n.values())


def test_nijenhuis_antisymmetric_slots(rng):
    phi = inv.coords_to_form(rand_coords(rng))
    K = inv.compute_K(phi, NIL.omega)
    alg = NIL.algebra
    n = la.nijenhuis(NIL, phi)

    def kv(v):
        return tuple(sum(K.rows[i][j] * v[j] for j in range(6)) for i in range(6))

    # direct bilinear evaluation with swapped arguments flips the sign
    for (i, j), val in list(n.items())[:5]:
        X = tuple(int(m == i - 1) for m in range(6))
        Y = tuple(int(m == j - 1) for m in range(6))
        t1 = kv(kv(alg.bracket(Y, X)))
        mid = tuple(a + b for a, b in zip(alg.bracket(kv(Y), X), alg.bracket(Y, kv(X))))
        swapped = tuple(-t1[k] + kv(mid)[k] - alg.bracket(kv(Y), kv(X))[k]
                        for k in range(6))
        assert swapped == tuple(-x for x in val)


def test_nijenhuis_identity_exact(rng):
    for setup in (NIL, SOLV_EXACT):
        for _ in range(15):
            phi = inv.coords_to_form(rand_coords(rng))
            assert la.verify_nijenhuis_identity(setup, phi) == 0.0


def test_nijenhuis_identity_evaluates_K_once(rng, K_evaluations):
    for setup in (NIL, SOLV_EXACT):
        K_evaluations.clear()
        assert la.verify_nijenhuis_identity(setup, inv.coords_to_form(rand_coords(rng))) == 0.0
        assert len(K_evaluations) == 1


def test_volume_of_setup_omega_taken_from_cached_tables(rng, monkeypatch):
    # omega^3/3! comes from the per-omega tables, not from fresh wedges
    phi = inv.coords_to_form(rand_coords(rng))
    for setup in (NIL, SOLV_EXACT):
        la.verify_nijenhuis_identity(setup, phi)
        la.integrability_flags(setup, phi)
    calls = []
    plain_wedge = inv.wedge

    def counting(a, b):
        calls.append(1)
        return plain_wedge(a, b)

    monkeypatch.setattr(inv, "wedge", counting)
    for setup in (NIL, SOLV_EXACT):
        la.verify_nijenhuis_identity(setup, phi)
        la.integrability_flags(setup, phi)
    assert calls == []


def _form_level_arrays(setup, phi):
    # the Form-level sides, as (15, 6) lists over the table route's pairs and
    # 5-forms
    sides = la.nijenhuis_identity_sides(setup, phi)
    return tuple([[side.coeffs.get(m, 0) for m in la._MASKS5]
                  for side in (sides[(i + 1, j + 1)][k] for i, j in la._PAIRS)]
                 for k in (0, 1))


def _scale(setup, phi):
    # c E D^4, c E 2^-4e on a float phi (c = 2^g c'): the table sides over it
    # are the Form-level sides
    ev = inv._evaluate(phi, inv.volume_of(setup.omega))
    E = la._identity_tables(setup).E
    return ev.c * E * ev.D ** 4 if ev.exact else math.ldexp(ev.c * E, ev.g - 4 * ev.e)


def _divided(lhs, rhs, scale):
    # the table sides over their scale, as exact Fractions
    return tuple([[Fraction(int(x)) / scale for x in row] for row in side.tolist()]
                 for side in (lhs, rhs))


def test_table_sides_equal_form_level_sides(rng):
    # the tables hold D phi over the constants scaled by E, with c = 1, so
    # each side over E D^4 is the Form-level side on phi, entry for entry
    for setup in (NIL, SOLV_EXACT):
        E = la._identity_tables(setup).E
        for _ in range(12):
            phi = inv.coords_to_form(rand_coords(rng))
            D = inv._evaluate(phi, inv.volume_of(setup.omega)).D
            lhs, rhs = la._table_sides(la._table_core(setup, phi))
            scale = _scale(setup, phi)
            assert lhs.dtype == np.int64 and scale == E * D ** 4
            assert _divided(lhs, rhs, scale) == _form_level_arrays(setup, phi)
            assert la._identity_failure(setup, phi) is None


def test_table_sides_fall_back_to_python_ints(rng):
    # coefficients near 2^40 put K near 2^80, past the int64 bound: the same
    # expressions run on Python ints and stay exact
    for setup in (NIL, SOLV_EXACT):
        c = inv.PrimitiveCoords(*(Fraction(2 ** 40 + rng.randint(-9, 9),
                                           rng.choice((1, 2, 3))) for _ in range(14)))
        phi = inv.coords_to_form(c)
        lhs, rhs = la._table_sides(la._table_core(setup, phi))
        assert lhs.dtype == object and (lhs == rhs).all()
        assert la.verify_nijenhuis_identity(setup, phi) == 0.0
        assert _divided(lhs, rhs, _scale(setup, phi)) == _form_level_arrays(setup, phi)


def test_large_structure_constants_keep_python_int_tables(rng):
    # lam = 2^70 puts the structure constants themselves past the int64
    # bound: the tables are Python ints from the start, and the identity
    # still holds exactly, on the zero form too
    setup = la.InvariantSetup.standard(la.solv_algebra(2 ** 70))
    tables = la._identity_tables(setup)
    assert tables.d.dtype == tables.bracket.dtype == object
    for phi in [Form.zero(3)] + [inv.coords_to_form(rand_coords(rng)) for _ in range(6)]:
        assert la._table_core(setup, phi)[-1].dtype == object
        assert la.verify_nijenhuis_identity(setup, phi) == 0.0


def test_python_int_route_equals_int64_route(rng, monkeypatch):
    # the Python-int route, forced on input that the int64 route takes,
    # gives the int64 route's sides and core entry for entry
    cases = [(setup, inv.coords_to_form(rand_coords(rng)))
             for setup in (NIL, SOLV_EXACT) for _ in range(6)]
    want = [_core_and_sides(setup, phi) for setup, phi in cases]
    monkeypatch.setattr(la, "_INT64_BOUND", 0)
    for (setup, phi), arrays in zip(cases, want):
        assert arrays[-1].dtype == np.int64
        _assert_python_ints_equal(_core_and_sides(setup, phi), arrays)


def _core_and_sides(setup, phi):
    # the arrays of the core, then lhs and rhs
    core = la._table_core(setup, phi)
    return (*core[2:], *la._table_sides(core))


def _assert_python_ints_equal(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.dtype == object and x.tolist() == y.tolist()


def test_growth_bound_holds_at_the_int64_edge(monkeypatch):
    # an int64 overflow wraps silently, so at the largest p with
    # growth p^4 < 2^62 the int64 route, on a form whose 14 coordinates are
    # +-p, must equal the Python-int route entry for entry; p + 1 takes
    # Python ints
    rng = random.Random(40)
    setups = (NIL, SOLV_EXACT, la.InvariantSetup.standard(la.solv_algebra(Fraction(2 ** 20, 3))))
    cases = []
    for setup in setups:
        G = la._identity_tables(setup).growth
        p = math.isqrt(math.isqrt((inv._INT64_BOUND - 1) // G))
        assert G * p ** 4 < inv._INT64_BOUND <= G * (p + 1) ** 4
        signs = [rng.choice((-1, 1)) for _ in range(14)]
        phi, over = (inv.coords_to_form(inv.PrimitiveCoords(*(s * x for s in signs)))
                     for x in (p, p + 1))
        assert la._table_core(setup, over)[-1].dtype == object
        cases.append((setup, phi, _core_and_sides(setup, phi)))
    assert [case[2][-1].dtype for case in cases] == [np.int64] * 3
    monkeypatch.setattr(la, "_INT64_BOUND", 0)
    for setup, phi, arrays in cases:
        _assert_python_ints_equal(_core_and_sides(setup, phi), arrays)


def test_float_table_sides_match_form_route(rng):
    for setup in (NIL, SOLV_EXACT, SOLV):
        for _ in range(4):
            phi = inv.coords_to_form(rand_coords(rng)).to_float()
            lhs, rhs = la._table_sides(la._table_core(setup, phi))
            assert lhs.dtype == np.float64
            want = np.array(_form_level_arrays(setup, phi), dtype=float)
            got = np.array([lhs, rhs]) / _scale(setup, phi)
            assert abs(got - want).max() <= 1e-12 * abs(want).max()
            assert la.verify_nijenhuis_identity(setup, phi) <= 1e-12 * abs(want).max()


def test_float_nijenhuis_values_are_relative(rng):
    # on floats both values are relative to c^2 E |P|^4, the scale at which
    # integrability_flags cuts N: the identity's rounding stays near the
    # unit roundoff at every scale, and a power-of-two scaling gives the
    # same values
    phi = inv.coords_to_form(rand_coords(rng)).to_float()
    for scale in (1.0, 2.0 ** 20 + 1, 2.0 ** 41 + 1):
        assert la.verify_nijenhuis_identity(SOLV, phi * scale) <= 1e-12
    want = (la.verify_nijenhuis_identity(SOLV, phi), la.nijenhuis_max(SOLV, phi))
    assert want[1] > 0
    for scale in (2.0 ** 20, 2.0 ** 41, 2.0 ** -30):
        assert (la.verify_nijenhuis_identity(SOLV, phi * scale),
                la.nijenhuis_max(SOLV, phi * scale)) == want


def test_identity_tables_built_on_first_use(monkeypatch):
    # the tables are read off the setup's own algebra: no scaled copy of it
    # is built, and they are cached on the setup after the first call
    setup = la.InvariantSetup.standard(la.solv_algebra(Fraction(3, 2)))
    assert setup._identity is None
    built = []
    plain_init = la.LieAlgebra6.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(la.LieAlgebra6, "__init__", counting)
    phi = basis(1, 3, 5) + basis(2, 4, 6)
    assert la.verify_nijenhuis_identity(setup, phi) == 0.0
    tables = setup._identity
    assert tables is not None and not tables.d.flags.writeable and tables.E == 2
    la.verify_nijenhuis_identity(setup, phi)
    la.integrability_flags(setup, phi)
    la.nijenhuis_max(setup, phi)
    assert setup._identity is tables and built == []


def test_identity_tables_clear_the_structure_constants():
    # lam = 7/5 clears with E = 5; the tables are then 5 times d and bracket
    tables = la._identity_tables(SOLV_EXACT)
    assert tables.E == 5 and tables.d.dtype == np.int64
    unit = inv._unit
    for i in range(6):
        for j in range(6):
            want = SOLV_EXACT.algebra.bracket(unit(i), unit(j))
            assert tables.bracket[:, i, j].tolist() == [5 * x for x in want]
    for n, m in enumerate(inv._MASKS3):
        dm = SOLV_EXACT.algebra.d(Form(3, {m: 1}))
        assert tables.d[:, n].tolist() == [5 * dm.coeffs.get(r, 0) for r in la._MASKS4]
    assert la._identity_tables(NIL).E == 1
    float_tables = la._identity_tables(SOLV)
    assert float_tables.E == 1 and float_tables.d.dtype == np.float64


def _extra_df_term(setup, phi, i, j):
    """dphi ^ iota_Y iota_X F(phi) for X = e_i, Y = e_j (1-based): the
    candidate term whose coefficient in the Nijenhuis identity is zero."""
    X = tuple(int(m == i - 1) for m in range(6))
    Y = tuple(int(m == j - 1) for m in range(6))
    F = inv.compute_F(phi, setup.omega)
    return wedge(setup.algebra.d(phi), interior(Y, interior(X, F)))


def _sides_with_the_extra_df_term(setup, phi):
    """nijenhuis_identity_sides with - dphi ^ iota_Y iota_X F added to the
    right side, which does not belong to the identity."""
    return {(i, j): (lhs, rhs - _extra_df_term(setup, phi, i, j))
            for (i, j), (lhs, rhs) in la.nijenhuis_identity_sides(setup, phi).items()}


def test_nijenhuis_residual_is_homogeneous(rng):
    # verify_nijenhuis_identity checks D phi on int coefficients, on the
    # algebra with its structure constants scaled to int by E, and divides the
    # residual by E D^4; pin both degrees on the variant whose residual does
    # not vanish
    def worst(setup, form):
        sides = _sides_with_the_extra_df_term(setup, form)
        return max(max((abs(x) for x in (l - r).coeffs.values()), default=0)
                   for l, r in sides.values())

    solv_times_5 = la.InvariantSetup.standard(la.solv_algebra(7))
    for setup in (NIL, SOLV_EXACT):
        phi = inv.coords_to_form(rand_coords(rng))
        D = math.lcm(*(x.denominator for x in phi.coeffs.values()))
        assert D > 1
        res = worst(setup, phi)
        assert res != 0
        assert worst(setup, phi.map_coeffs(lambda x: int(x * D))) == D ** 4 * res
    assert worst(solv_times_5, phi) == 5 * res


def test_nijenhuis_identity_erratum_regression(rng):
    # the variant carrying the extra - dphi ^ iota_Y iota_X F term misses the
    # tensor by exactly that term; pin the counterexample so the correction
    # cannot silently regress
    phi = basis(1, 3, 5) + basis(2, 4, 6)
    sides = _sides_with_the_extra_df_term(NIL, phi)
    mismatched = 0
    for (i, j), (lhs, rhs) in sides.items():
        extra = _extra_df_term(NIL, phi, i, j)
        assert lhs == rhs + extra
        if extra.coeffs:
            mismatched += 1
    assert mismatched > 0  # the variant genuinely differs on this input


def test_f_harmonic_implies_k_integrable(rng):
    # nil: H=J=L=N=0 with D=I=0 kills all four product obstructions
    for _ in range(10):
        c = rand_coords(rng)._replace(H=Fraction(0), J=Fraction(0), L=Fraction(0),
                                      N=Fraction(0), D=Fraction(0), I=Fraction(0))
        flags = la.integrability_flags(NIL, inv.coords_to_form(c))
        assert flags.F_harmonic
        assert la.nijenhuis_max(NIL, inv.coords_to_form(c)) == 0.0
        assert flags.K_integrable


def test_integrability_flags_nil(rng):
    # integrable iff H = J = L = N = 0
    for _ in range(20):
        c = rand_coords(rng)
        flags = la.integrability_flags(NIL, inv.coords_to_form(c))
        assert flags.integrable == (c.H == 0 and c.J == 0 and c.L == 0 and c.N == 0)
        assert flags.F_harmonic == (flags.integrable and flags.F_integrable)
        assert flags.Q_integrable
        c0 = c._replace(H=Fraction(0), J=Fraction(0), L=Fraction(0), N=Fraction(0))
        assert la.integrability_flags(NIL, inv.coords_to_form(c0)).integrable


def test_f_harmonic_conditions_nil(rng):
    # given integrability, F-harmonic iff DFG = DKG = DFM = IFG = 0
    for _ in range(40):
        c = rand_coords(rng)._replace(H=Fraction(0), J=Fraction(0), L=Fraction(0),
                                      N=Fraction(0))
        flags = la.integrability_flags(NIL, inv.coords_to_form(c))
        conds = (c.D * c.F * c.G == 0 and c.D * c.K * c.G == 0
                 and c.D * c.F * c.M == 0 and c.I * c.F * c.G == 0)
        assert flags.F_harmonic == conds


def test_integrability_flags_solv(rng):
    for _ in range(20):
        c = rand_coords(rng)
        flags = la.integrability_flags(SOLV_EXACT, inv.coords_to_form(c))
        closed = (c.A == c.B and c.C == -c.D and c.E == -c.F and c.G == c.H
                  and c.I == 0 and c.J == 0 and c.K == 0 and c.L == 0)
        assert flags.integrable == closed
    c = rand_coords(rng)
    closed = c._replace(B=c.A, D=-c.C, F=-c.E, H=c.G,
                        I=Fraction(0), J=Fraction(0), K=Fraction(0), L=Fraction(0))
    assert la.integrability_flags(SOLV_EXACT, inv.coords_to_form(closed)).integrable


def test_solv_f_harmonic_q_value():
    # F-harmonic closed data has Q = 64 alpha beta gamma delta >= 0
    p, q = Fraction(3, 2), Fraction(2, 3)
    alpha = delta = p
    beta = gamma = q
    M, N = p + q, p - q
    c = inv.PrimitiveCoords(A=alpha, B=alpha, C=beta, D=-beta, E=gamma,
                            F=-gamma, G=-delta, H=-delta, M=M, N=N)
    flags = la.integrability_flags(SOLV_EXACT, inv.coords_to_form(c))
    assert flags.F_harmonic
    assert la.nijenhuis_max(SOLV_EXACT, inv.coords_to_form(c)) == 0.0
    Q = inv.q_from_coords(c)
    assert Q == 64 * alpha * beta * gamma * delta
    assert Q >= 0


def test_solv_f_harmonic_degenerate_case():
    # beta = gamma = 0 with M = N kills every hat, so F vanishes outright
    c = inv.PrimitiveCoords(A=2, B=2, G=-3, H=-3, M=Fraction(5, 2), N=Fraction(5, 2))
    phi = inv.coords_to_form(c)
    assert not inv.compute_F(phi, SOLV_EXACT.omega).coeffs
    sd_flags = la.integrability_flags(SOLV_EXACT, phi)
    assert sd_flags.integrable and sd_flags.F_harmonic
    assert la.nijenhuis_max(SOLV_EXACT, phi) == 0.0


def test_algebra_json_round_trip(tmp_path):
    import json
    from forms6 import io
    data = {"d": {str(i + 1): io.form_to_json(NIL.algebra.d_one[i])
                  for i in range(6)}}
    alg = la.algebra_from_json(data, name="nil-copy")
    for i in range(6):
        assert alg.d_one[i] == NIL.algebra.d_one[i]


def test_flags_and_nijenhuis_max_match_definitions_on_phi(rng):
    # exact input is tested as D phi over the tables' int constants; every
    # flag and the tensor's maximum must read as the definitions on phi
    seen = set()
    for setup in (NIL, SOLV_EXACT):
        for n in range(24):
            c = rand_coords(rng)
            if n % 3 == 1:  # closed on nil, F-harmonic when D = I = 0 too
                c = c._replace(H=Fraction(0), J=Fraction(0), L=Fraction(0),
                               N=Fraction(0), D=Fraction(0), I=Fraction(0))
            elif n % 3 == 2:  # closed stationary family on solv
                p, q = c.A, c.C
                c = inv.PrimitiveCoords(A=p, B=p, C=q, D=-q, E=q, F=-q, G=-p,
                                        H=-p, M=p + q, N=p - q)
            phi = inv.coords_to_form(c)
            K, F = inv.compute_K(phi, setup.omega), inv.compute_F(phi, setup.omega)
            N = la._nijenhuis_of(setup.algebra, K)
            flags = la.integrability_flags(setup, phi)
            assert flags.integrable == (not setup.algebra.d(phi).coeffs)
            assert flags.F_integrable == (not setup.algebra.d(F).coeffs)
            assert flags.K_integrable == (not any(x for v in N.values() for x in v))
            assert la.nijenhuis_max(setup, phi) == float(max(abs(x) for v in N.values()
                                                             for x in v))
            seen.add((setup is NIL, flags.F_harmonic, flags.K_integrable))
    assert {(True, True, True), (False, True, True), (True, False, False),
            (False, False, False)} <= seen


def _seeded_coords(seed, kind, solv):
    # random, closed, or closed and F-harmonic (nil: D = I = 0 on top of the
    # closed slots; solv: the closed stationary family)
    c = rand_coords(random.Random(seed))
    zero = Fraction(0)
    if kind == "random":
        return c
    if solv and kind == "closed":
        return c._replace(B=c.A, D=-c.C, F=-c.E, H=c.G, I=zero, J=zero, K=zero, L=zero)
    if solv:
        p, q = c.A, c.C
        return inv.PrimitiveCoords(A=p, B=p, C=q, D=-q, E=q, F=-q, G=-p, H=-p,
                                   M=p + q, N=p - q)
    c = c._replace(H=zero, J=zero, L=zero, N=zero)
    return c if kind == "closed" else c._replace(D=zero, I=zero)


@settings(max_examples=150, deadline=None)
@given(solv=st.booleans(), seed=st.integers(0, 2 ** 32),
       kind=st.sampled_from(("random", "closed", "harmonic")),
       scale=st.sampled_from((2.0 ** -30, 1e-6, 1e-4, 1e-3, 3.7, 1e4, 2.0 ** 30))
       | st.floats(2.0 ** -30, 2.0 ** 30))
def test_integrability_flags_are_scale_free(solv, seed, kind, scale):
    # each float cut is relative to |phi| in the degree of its quantity, so
    # the float flags of s phi are the exact flags of phi at every scale s
    setup = SOLV_EXACT if solv else NIL
    phi = inv.coords_to_form(_seeded_coords(seed, kind, solv))
    scaled = phi.map_coeffs(lambda x: float(x) * scale)
    assert la.integrability_flags(setup, scaled) == la.integrability_flags(setup, phi)


def _flag_definitions(setup, phi):
    # the flags and max|N_K| from the Form-level d, F and Nijenhuis tensor
    K, F = inv.compute_K(phi, setup.omega), inv.compute_F(phi, setup.omega)
    top = max(abs(x) for v in la._nijenhuis_of(setup.algebra, K).values() for x in v)
    return ((not setup.algebra.d(phi).coeffs, not setup.algebra.d(F).coeffs, top == 0),
            float(top))


def test_flags_on_python_ints_match_definitions():
    # coefficients near 2^40 push K past the int64 bound, so the flags and
    # the maximum come from Python ints; they still read as the definitions
    for solv, setup in ((False, NIL), (True, SOLV_EXACT)):
        for seed, kind in enumerate(("random", "closed", "harmonic")):
            phi = inv.coords_to_form(_seeded_coords(seed, kind, solv)) * (2 ** 40 + 7)
            assert la._table_core(setup, phi)[-1].dtype == object
            flags = la.integrability_flags(setup, phi)
            want, top = _flag_definitions(setup, phi)
            assert (flags.integrable, flags.F_integrable, flags.K_integrable) == want
            assert flags.F_harmonic == (kind == "harmonic")
            assert la.nijenhuis_max(setup, phi) == top


def test_integrability_flags_are_bool(rng):
    # Python bools on the int64, Python-int and float routes, so that a report
    # serializes them as they are
    phi = inv.coords_to_form(rand_coords(rng))
    for setup in (NIL, SOLV_EXACT, SOLV):
        for form in (phi, phi.to_float(), phi * (2 ** 40 + 7)):
            flags = la.integrability_flags(setup, form)
            assert all(type(x) is bool for x in flags)
            assert json.loads(json.dumps(flags._asdict())) == flags._asdict()


def test_flags_read_the_cached_d_table(monkeypatch):
    # d vanishes on every basis 3-form that a closed nil form uses, so one
    # entry of the cached d table in such a column, set from 0 to 1, changes
    # the form's flags: they are read off the tables
    phi = inv.coords_to_form(_seeded_coords(0, "harmonic", False))
    assert la.integrability_flags(NIL, phi) == (True, True, True, True, True)
    tables = la._identity_tables(NIL)
    m = np.flatnonzero(la._table_core(NIL, phi)[3])[0]
    assert not tables.d[:, m].any()
    d = tables.d.copy()
    d[0, m] = 1
    monkeypatch.setattr(NIL, "_identity", tables._replace(d=d))
    flags = la.integrability_flags(NIL, phi)
    assert not flags.integrable and not flags.F_harmonic


def test_builtin_setup_built_once_per_process():
    for name in ("nil-debartolomeis", "solv-tomassini", "abelian"):
        assert la.builtin_setup(name) is la.builtin_setup(name)
    assert la.builtin_setup("nil-debartolomeis") is NIL
