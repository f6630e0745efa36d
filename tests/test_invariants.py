import math
import random
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (_seed11_maps, coframe_block_map, exact_rank, forget_evaluations,
                      ill_conditioned_symplectic, rand_coords, rand_form, rand_fraction,
                      rand_invertible, rand_symplectic, rand_vector, seed11_moved_form)
from forms6 import invariants as inv
from forms6 import io, linalg, verify
from forms6.exterior import (DEFAULT_TOL, Form, LinearMap6, basis, eval_form,
                             form_max_diff, interior, pullback, vector_of_five_form,
                             wedge)

OMEGA = inv.standard_omega()
VOL = inv.volume_of(OMEGA)


# --- K -------------------------------------------------------------------------

def test_K_of_zero_form():
    K = inv.compute_K(Form.zero(3), OMEGA)
    assert all(x == 0 for r in K.rows for x in r)


def test_K_of_O0_normal_form_brute_force():
    phi = inv.gl_normal_form("O0")
    K = inv.compute_K(phi, OMEGA)
    assert K.rows == oracle_K(phi, VOL)
    KK = K.compose(K)
    assert all(x == 0 for r in KK.rows for x in r)
    assert exact_rank(K.rows) == 3


def test_K_of_stable_form_gives_complex_structure():
    for mu in (Fraction(1, 2), 1, 3):
        phi = inv.sp_normal_form("O-+", mu)
        K = inv.compute_K(phi, OMEGA)
        lam = Fraction(inv.compute_Q(phi, OMEGA), 4)
        root = inv._exact_sqrt(-lam)
        J = LinearMap6([[Fraction(x) / root for x in r] for r in K.rows])
        JJ = J.compose(J)
        assert JJ.rows == tuple(tuple(-1 if i == j else 0 for j in range(6))
                                for i in range(6))


def test_K_degenerate_omega_rejected():
    with pytest.raises(ValueError):
        inv.compute_K(basis(1, 3, 5), basis(1, 2) + basis(3, 4))


# --- F -------------------------------------------------------------------------

def test_F_of_O0_normal_form():
    assert inv.compute_F(inv.gl_normal_form("O0"), OMEGA) == basis(2, 4, 6) * 4


def test_F_of_O_plus():
    for mu in (Fraction(1, 2), 2):
        phi = inv.sp_normal_form("O+", mu)
        F = inv.compute_F(phi, OMEGA)
        assert F == (basis(2, 4, 6) - basis(1, 3, 5)) * (2 * mu ** 3)
        out = inv.classify_sp(F, OMEGA)
        assert out.label == "O+"
        assert abs(float(out.mu) - 2 * float(mu) ** 3) < 1e-12


def test_F_vanishes_on_degenerate_orbits():
    for label in ("O1+", "O1-", "O3", "O6"):
        assert not inv.compute_F(inv.sp_normal_form(label), OMEGA).coeffs


def test_F_contraction_identity(rng):
    # iota_X F = -2 iota_{KX} phi
    for _ in range(10):
        phi = rand_form(rng, 3, 0.6)
        K = inv.compute_K(phi, OMEGA)
        F = inv.compute_F(phi, OMEGA)
        X = rand_vector(rng)
        KX = tuple(sum(K.rows[i][j] * X[j] for j in range(6)) for i in range(6))
        assert interior(X, F) == interior(KX, phi) * -2


# --- Q -------------------------------------------------------------------------

@pytest.mark.parametrize("label,mu,expect", [
    ("O-+", 1, -16), ("O-+", 2, -256), ("O--", 1, -16),
    ("O+", 1, 4), ("O+", Fraction(1, 2), Fraction(1, 4)),
    ("O0+", 1, 0),
])
def test_Q_values(label, mu, expect):
    phi = inv.sp_normal_form(label, mu) if label not in ("O0+",) \
        else inv.sp_normal_form(label)
    assert inv.compute_Q(phi, OMEGA) == expect


# --- the table kernel against the Form-level definitions ----------------------------

def oracle_K(phi, vol):
    # column j solves iota_{K e_j} vol = -iota_{e_j} phi ^ phi
    cols = []
    for j in range(6):
        ej = [0] * 6
        ej[j] = 1
        cols.append(vector_of_five_form(-wedge(interior(ej, phi), phi), vol))
    return tuple(tuple(cols[j][i] for j in range(6)) for i in range(6))


def oracle_F(phi, vol):
    # F(e_i, e_j, e_k) = -2 (iota_{K e_i} phi)(e_j, e_k), contracting phi with
    # the columns of K
    K = oracle_K(phi, vol)
    out = Form.zero(3)
    for i in range(6):
        contracted = interior([K[l][i] for l in range(6)], phi)
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                c = contracted.coeffs.get((1 << j) | (1 << k), 0)
                out = out + basis(i + 1, j + 1, k + 1) * (-2 * c)
    return out


def oracle_Q(phi, vol):
    return -wedge(phi, oracle_F(phi, vol)).coeffs.get(63, 0) / vol.coeffs[63]


MASKS3 = [m for m in range(64) if bin(m).count("1") == 3]
exact_forms = st.dictionaries(
    st.sampled_from(MASKS3),
    st.fractions(min_value=-6, max_value=6, max_denominator=6)).map(lambda d: Form(3, d))
exact_vols = st.sampled_from([VOL, inv.standard_volume(),
                              inv.standard_volume() * Fraction(3, 2),
                              inv.standard_volume() * Fraction(-5, 7)])
float_forms = st.tuples(
    st.lists(st.integers(-10 ** 6, 10 ** 6).map(lambda n: n / 1e6), min_size=20, max_size=20),
    st.integers(-6, 6)).map(lambda t: Form(3, {m: x * 10.0 ** t[1]
                                              for m, x in zip(MASKS3, t[0])}))


@settings(max_examples=40, deadline=None)
@given(exact_forms, exact_vols)
def test_kernel_matches_form_level_definitions_exactly(phi, vol):
    K = inv.compute_K(phi, vol=vol)
    assert K.rows == oracle_K(phi, vol)
    assert linalg.matrix_is_exact(K.rows)
    assert inv.compute_F(phi, vol=vol) == oracle_F(phi, vol)
    Q = inv.compute_Q(phi, vol=vol)
    assert isinstance(Q, Fraction) and Q == oracle_Q(phi, vol)


@settings(max_examples=40, deadline=None)
@given(float_forms, st.sampled_from([1.0, 1.5, -0.4]))
def test_kernel_matches_form_level_definitions_on_floats(phi, c):
    vol = inv.standard_volume() * c
    m = phi.max_abs()
    K, expect = inv.compute_K(phi, vol=vol), oracle_K(phi, vol)
    assert all(abs(K.rows[i][j] - expect[i][j]) <= 1e-12 * m ** 2 / abs(c)
               for i in range(6) for j in range(6))
    assert form_max_diff(inv.compute_F(phi, vol=vol), oracle_F(phi, vol)) \
        <= 1e-12 * m ** 3 / abs(c)


def left_to_right(terms):
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def loop_numerators(v):
    """The K numerators and reading 0 of the F numerators as plain
    left-to-right sums from 0 over the terms of the tables, none skipped."""
    kn = [left_to_right(t * (v[a] * v[b]) for a, b, t in terms) for terms in inv._K_TABLE]
    fn = [left_to_right(sign * kn[o] * v[m] for o, m, sign in readings[0])
          for readings in inv._F_TABLE]
    return kn, fn


# the largest max|v| whose K and F gathers run in int64
INT64_EDGE = int((inv._INT64_BOUND / (inv._FMAX * inv._KMAX)) ** (1 / 3)) + 2
while inv._FMAX * inv._KMAX * INT64_EDGE ** 3 >= inv._INT64_BOUND:
    INT64_EDGE -= 1
# kind: (the scalar of the coefficients, vol, the dtype of the gathers)
GATHER_KINDS = {
    "int64 below the bound": (INT64_EDGE, VOL, "int64"),
    "ints above the bound": (INT64_EDGE + 1, VOL, "object"),
    # an exact phi is cleared to ints under a float vol too: D = 7, max|D v| = INT64_EDGE
    "Fractions under a float vol": (Fraction(INT64_EDGE, 7), inv.standard_volume() * -0.4,
                                    "int64"),
    "floats at 1e-150": (1e-150, inv.standard_volume() * 1.5, "float64"),
    "floats at 1": (1.0, VOL, "float64"),
    "floats at 1e100": (1e100, inv.standard_volume() * -0.4, "float64"),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(GATHER_KINDS)),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=20, max_size=20),
       st.lists(st.booleans(), min_size=20, max_size=20) | st.just([True] * 20))
def test_gathers_match_the_form_level_definitions_and_loop_sums(kind, ints, keep):
    # dense and sparse forms on each route of the K and F gathers; floats
    # must keep the bits of a plain left-to-right sum, signed zeros too
    assume(any(ints))
    scale, vol, dtype = GATHER_KINDS[kind]
    top = max(ints, key=abs)
    keep[ints.index(top)] = True
    if isinstance(scale, int):  # max|v| is the scale itself
        v = [n * scale // abs(top) for n in ints]
    elif isinstance(scale, float):
        v = [n * scale / 10 ** 6 for n in ints]
    else:  # max|v| is the scale itself, over its denominator
        v = [Fraction(n * scale.numerator // abs(top), scale.denominator) for n in ints]
    phi = Form(3, {m: x for m, x, k in zip(inv._MASKS3, v, keep) if k and x})
    ev = inv._evaluate(phi, vol)
    assert ev.a.dtype == ev.ka.dtype == ev.fa.dtype == dtype
    kn, fn = loop_numerators(ev.a.tolist())
    ka, fa = ev.ka.tolist(), ev.fa.tolist()
    assert ka.pop() == 0
    if dtype == "float64":
        assert [x.hex() for x in ka] == [float(x).hex() for x in kn]
        assert [x.hex() for x in fa] == [float(x).hex() for x in fn]
    else:
        assert ka == kn and fa == fn
        if isinstance(scale, int):
            assert all(type(x) is int for x in ka + fa)
    K, F, c = inv.compute_K(phi, vol=vol), inv.compute_F(phi, vol=vol), vol.coeffs[63]
    if linalg.matrix_is_exact(K.rows):
        assert K.rows == oracle_K(phi, vol) and F == oracle_F(phi, vol)
    else:
        m = float(phi.max_abs()) if phi else 0.0
        expect = oracle_K(phi, vol)
        assert all(abs(K.rows[i][j] - expect[i][j]) <= 1e-12 * m ** 2 / abs(c)
                   for i in range(6) for j in range(6))
        assert form_max_diff(F, oracle_F(phi, vol)) <= 1e-12 * m ** 3 / abs(c)


GL_OMEGA_MAP = rand_invertible(random.Random(5))
# (omega, a map that moves a form primitive under the standard omega to one
# primitive under omega)
OMEGAS = {"standard": (OMEGA, LinearMap6.diagonal([1] * 6)),
          "3/2 standard": (OMEGA * Fraction(3, 2), LinearMap6.diagonal([1] * 6)),
          "GL-moved": (pullback(GL_OMEGA_MAP, OMEGA), GL_OMEGA_MAP)}


def binade_coeffs(phi):
    """(e, a): the coefficients a of 2^-e phi in _MASKS3 order and a trailing
    0, with max|a| in [1/2, 1), as a float phi's evaluation reads it."""
    e = math.frexp(phi.max_abs())[1]
    return e, [math.ldexp(phi.coeffs.get(m, 0.0), -e) for m in inv._MASKS3] + [0.0]


@pytest.mark.parametrize("name", sorted(OMEGAS))
def test_q_and_primitivity_sums_keep_the_bits_of_a_loop(rng, name):
    # float q and the residual P a, with W and P dense, must keep the bits
    # of a left-to-right loop from 0 over the nonzero entries, as the K and
    # F gathers do, on phi in its binade, multiplied by the float tables'
    # m = 1/c', and scaled back by 2^(2e - g); a BLAS W @ kn, which sums in
    # another order, fails here under the GL-moved omega.  An exact omega's
    # float tables are its matrix rounded once, as a float omega's are
    omega, g = OMEGAS[name]
    for om in (omega, omega.to_float()):
        tables = inv._omega_tables(om, False)
        W, P = tables.W.tolist(), tables.P.tolist()
        assert tables.W.dtype == tables.P.dtype == np.float64
        assert W == [[float(x) for x in r] for r in inv.omega_matrix(om)]
        assert tables.m == 1 / inv._vol_binade(tables.vol.coeffs[63])[1] and tables.den == 1
        for _ in range(15):
            prim = pullback(g, pullback(rand_symplectic(rng), inv.coords_to_form(rand_coords(rng))))
            phi = prim.to_float() * rng.choice((1e-3, 1.0, 7.0))
            e, a = binade_coeffs(phi)
            ev = inv._evaluate(phi, tables.vol)
            assert ev.e == e and ev.a.tolist() == a
            kn = ev.ka.tolist()
            want = [[math.ldexp(tables.m * left_to_right(w * kn[l * 6 + j] for l, w in
                                                         enumerate(r) if w), 2 * e - ev.g)
                     for j in range(6)] for r in W]
            got = inv.q_form(phi, om)
            assert [[x.hex() for x in r] for r in got] == [[x.hex() for x in r] for r in want]
            bad = (phi + rand_form(rng, 3)).to_float()
            e, a = binade_coeffs(bad)
            assert inv._evaluate(bad, tables.vol).a.tolist() == a
            w = [left_to_right(a[n] * x for n, x in enumerate(col) if x) for col in zip(*P)]
            with pytest.raises(ValueError, match="not primitive") as err:
                inv.q_form(bad, om)
            assert str(err.value).endswith(f"= {math.ldexp(max(map(abs, w)) / tables.dP, e)}")


# route: (the form made of a Fraction form, vol, the dtype of ev.a and its rows)
ROW_ROUTES = {
    "int64": (lambda phi: phi, VOL, "int64"),
    "ints above the bound": (lambda phi: phi * 10 ** 7, VOL, "object"),
    "Fractions under a float vol": (lambda phi: phi, VOL.to_float(), "int64"),
    "float64": (Form.to_float, VOL, "float64"),
}


def test_basis_tables_match_interior_and_wedge(rng):
    # entry for entry on every dtype route of an evaluation's array, so that
    # a wrong complement, row order or sign shows: row i of the _CONTR gather
    # is iota_{e_i} P over the basis 2-forms, P = D phi the table input, row
    # j of the _WEDGE1 gather is e^j ^ P over the 4-forms by their
    # complements (P = 2^-e phi on a float phi, in its binade), entry
    # (q, p) of the _WEDGE2 gather is the coefficient of the q-th basis
    # 5-form in e^p ^ P, and _IVOL of the vector x made of P's first six
    # coefficients is iota_x e^123456 over the 5-forms; the
    # _Q_TABLE sum over the coefficients of phi and psi is (phi ^ psi)/e^123456
    e6 = inv.standard_volume()
    for make, vol, dtype in ROW_ROUTES.values():
        for _ in range(10):
            phi, psi = rand_form(rng, 3, 0.6), rand_form(rng, 3, 0.6)
            ev = inv._evaluate(make(phi), vol)
            P = make(phi) * ev.D
            if ev.e:  # exactly, on a float phi
                P = P.map_coeffs(lambda x: x * Fraction(2) ** -ev.e)
            x = ev.a[:6]
            C, W1, W2, I = inv._CONTR(ev.a), inv._WEDGE1(ev.a), inv._WEDGE2(ev.a), inv._IVOL(x)
            assert ev.a.dtype == C.dtype == W1.dtype == W2.dtype == I.dtype == dtype
            for i, row in enumerate(C.tolist()):
                e = [int(k == i) for k in range(6)]
                assert row == [interior(e, P).coeffs.get(p, 0) for p in inv._MASKS2]
            for j, row in enumerate(W1.tolist()):
                assert row == [wedge(basis(j + 1), P).coeffs.get(63 ^ p, 0)
                               for p in inv._MASKS2]
            wedges = [wedge(Form(2, {p: 1}), P).coeffs for p in inv._MASKS2]
            for q, row in zip(inv._MASKS5, W2.tolist()):
                assert row == [w.get(q, 0) for w in wedges]
            assert I.tolist() == [interior(x.tolist(), e6).coeffs.get(q, 0)
                                  for q in inv._MASKS5]
            v = [phi.coeffs.get(m, 0) for m in inv._MASKS3]
            for chi in (psi, inv.compute_F(phi, OMEGA)):
                u = [chi.coeffs.get(m, 0) for m in inv._MASKS3]
                assert sum(s * v[n] * u[c] for n, (c, s) in enumerate(inv._Q_TABLE)) \
                    == wedge(phi, chi).coeffs.get(63, 0)


def test_gather_refuses_two_terms_in_one_output():
    # a table whose output 1 reads two inputs is not a gather
    with pytest.raises(ValueError, match="two nonzero entries"):
        inv._Gather.of([[1, 0, 0], [0, 1, -1]])
    g = inv._Gather.of([[0, 0, -1], [0, 0, 0]])
    assert g.src.tolist() == [2, 0] and g.sign.tolist() == [-1, 0]


@pytest.mark.parametrize("tol", (math.nan, math.inf, -math.inf, -1.0, 0.0, 1.0, 2.0))
def test_orbit_decisions_refuse_a_bad_tol(K_evaluations, monkeypatch, tol):
    # tol is a relative cut: nan or a cut at most 0 decides nothing and at 1
    # or more every float rank reads 0 (nan labelled the O1+ form O+ and 2
    # labelled it O6); each entry point refuses it before phi is evaluated,
    # on either backend
    for phi in (inv.sp_normal_form("O1+"), inv.sp_normal_form("O1+").to_float()):
        q = inv.q_form(phi, OMEGA)
        forget_evaluations(monkeypatch)
        K_evaluations.clear()
        for call in (lambda: inv.classify_gl(phi, tol=tol),
                     lambda: inv.classify_sp(phi, OMEGA, tol),
                     lambda: inv.subspace_dims(phi, OMEGA, tol=tol),
                     lambda: inv.q_form(phi, OMEGA, tol),
                     lambda: inv.signature(q, tol)):
            with pytest.raises(ValueError, match=r"tol must be finite and in \(0, 1\)"):
                call()
        assert not K_evaluations


def test_F_of_scaled_float_forms_is_cubic():
    # the alternation check inside compute_F is relative to max|phi|^3, so
    # scaling float Sp-transformed normal forms never trips it (an absolute
    # floor of 1 made 31-33 of these 180 forms raise at scales 1e2-1e6)
    rng = random.Random(11)
    maps = [rand_symplectic(rng) for _ in range(20)]
    for g in maps:
        for label in inv.SP_LABELS:
            phi = pullback(g, inv.sp_normal_form(label)).to_float()
            F = inv.compute_F(phi, OMEGA)
            for s in (1e-6, 1e-4, 1e-2, 1e2, 1e4, 1e6):
                Fs = inv.compute_F(phi * s, OMEGA)
                assert form_max_diff(Fs, F * s ** 3) <= 1e-12 * (phi * s).max_abs() ** 3


def test_one_K_evaluation_per_call(rng, K_evaluations):
    phi, prim = rand_form(rng, 3), inv.coords_to_form(rand_coords(rng))
    calls = ((inv.compute_K, phi, (OMEGA,)), (inv.compute_F, phi, (OMEGA,)),
             (inv.compute_Q, phi, (OMEGA,)), (inv.classify_sp, prim, (OMEGA,)),
             (inv.classify_gl, prim, ()), (inv.q_form, prim, (OMEGA,)),
             (inv.subspace_dims, prim, (OMEGA,)),
             (inv.hitchin_data, inv.sp_normal_form("O-+", 2), (OMEGA,)))
    for fn, form, args in calls:
        for f in (form, form.to_float()):
            K_evaluations.clear()
            fn(f, *args)
            assert len(K_evaluations) == 1, fn.__name__


def test_one_form_is_evaluated_once(rng, K_evaluations, monkeypatch):
    # the orbits workload's calls on one form, then compute_Q, share the
    # memo's single evaluation of the K and F tables and its entries for Q,
    # dim ker phi and the checked q; classify_gl's standard vol, whose
    # coefficient is the int 1, shares it with omega's Fraction(1).  Emptying
    # the memo empties the entries too: the second round counts anew
    counts = {"_K_numerators": K_evaluations}
    for name in ("_F_numerators", "_Q_of", "_ker_phi", "_q_of", "_require_primitive"):
        calls, kernel = counts.setdefault(name, []), getattr(inv, name)
        monkeypatch.setattr(inv, name, lambda *args, calls=calls, kernel=kernel:
                            calls.append(1) or kernel(*args))
    prim = inv.coords_to_form(rand_coords(rng))
    o1 = pullback(rand_symplectic(rng), inv.sp_normal_form("O1+"))  # Q = 0, so
    tol = inv.ORBIT_TOL                               # _gl_orbit reads ker phi
    for phi in (prim, prim.to_float(), o1, o1.to_float()):
        forget_evaluations(monkeypatch)
        for calls in counts.values():
            calls.clear()
        for rounds in (1, 2):
            inv.classify_sp(phi, OMEGA, tol=tol)
            inv.classify_gl(phi, tol=tol)
            inv.signature(inv.q_form(phi, OMEGA, tol), tol)
            inv.subspace_dims(phi, OMEGA, tol=tol)
            inv.compute_Q(phi, OMEGA)
            assert {name: len(calls) for name, calls in counts.items()} == \
                dict.fromkeys(counts, rounds), rounds
            forget_evaluations(monkeypatch)


def _outcome(read, *args):
    """read(*args), or the type and message of the error it raises."""
    try:
        return read(*args)
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)


def _cold(read, *args):
    """_outcome from an empty memo, which is put back afterwards."""
    with pytest.MonkeyPatch.context() as m:
        forget_evaluations(m)
        return _outcome(read, *args)


# each reading of a form with the type of every value, so that a float
# served for an int, or an exact rank for a float one, fails the comparison;
# a refusal reads as its error's type and message
_READINGS = (
    lambda phi, vol, omega, tol: [(type(x), x)
                                  for r in inv.compute_K(phi, vol=vol).rows for x in r],
    lambda phi, vol, omega, tol: [(m, type(x), x)
                                  for m, x in inv.compute_F(phi, vol=vol).coeffs.items()],
    lambda phi, vol, omega, tol: (lambda Q: (type(Q), Q))(inv.compute_Q(phi, vol=vol)),
    lambda phi, vol, omega, tol: inv.subspace_dims(phi, vol=vol, tol=tol),
    lambda phi, vol, omega, tol: inv.classify_gl(phi, vol, tol),
    lambda phi, vol, omega, tol: [(type(x), x) for r in inv.q_form(phi, omega, tol)
                                  for x in r],
    lambda phi, vol, omega, tol: inv.classify_sp(phi, omega, tol),
)


def test_memo_never_serves_a_stale_result(rng):
    # each reading follows one of the same form in its previous state, or of
    # another form, and must equal a reading from an empty memo
    phi0, psi = rand_form(rng, 3), rand_form(rng, 3)
    prim = inv.coords_to_form(rand_coords(rng))
    edits = (
        lambda phi, m: phi.coeffs.update({m: phi.coeffs[m] + 1}),  # a changed value
        lambda phi, m: phi.coeffs.update({m: 1}),
        lambda phi, m: phi.coeffs.update({m: 1.0}),                # int -> float
        lambda phi, m: phi.coeffs.update({m: Fraction(1)}),        # float -> Fraction
        lambda phi, m: phi.coeffs.update({m: 1}),                  # Fraction(1) -> 1
        lambda phi, m: setattr(phi, "coeffs", dict(reversed(phi.coeffs.items()))),
        lambda phi, m: setattr(phi, "coeffs", dict(zip(reversed(phi.coeffs),  # other
                                                       phi.coeffs.values()))),  # masks
    )
    at = (OMEGA, inv.ORBIT_TOL)
    for start in (phi0, phi0.to_float(), prim, prim.to_float()):
        m = next(iter(start.coeffs))
        for read in _READINGS:
            phi = start * 1
            for edit in edits:
                _outcome(read, phi, VOL, *at)
                edit(phi, m)
                assert _outcome(read, phi, VOL, *at) == _cold(read, phi, VOL, *at)
            for vol in (VOL, VOL.to_float(), VOL, VOL * Fraction(1)):  # exact vs float c
                assert _outcome(read, phi, vol, *at) == _cold(read, phi, vol, *at)
            for form in (phi, psi, phi, psi):  # two forms in turn
                assert _outcome(read, form, VOL, *at) == _cold(read, form, VOL, *at)
    # Fraction(1) and 1 share an entry, 1.0 does not
    phi = phi0 * 1
    m = next(iter(phi.coeffs))
    phi.coeffs[m] = 1
    ev = inv._evaluate(phi, VOL)
    phi.coeffs[m] = Fraction(1)
    assert inv._evaluate(phi, VOL) is ev
    phi.coeffs[m] = 1.0
    assert inv._evaluate(phi, VOL) is not ev
    # the rows q_form hands out are the caller's to edit
    inv.q_form(prim, OMEGA)[0][0] += 1
    assert inv.q_form(prim, OMEGA) == _cold(inv.q_form, prim, OMEGA)


def test_memo_key_compares_no_fraction_with_a_float(monkeypatch):
    # the exactness markers lead the key, so a form of the other backend
    # fails the comparison there, before a Fraction meets its float copy
    exact = inv.sp_normal_form("O-+", Fraction(3, 2))
    forms = (exact, exact.to_float()) * 3
    calls = []
    eq = Fraction.__eq__

    def counting(self, other):
        calls.append(1)
        return eq(self, other)

    forget_evaluations(monkeypatch)
    monkeypatch.setattr(Fraction, "__eq__", counting)
    for phi in forms:
        assert inv._evaluate(phi, VOL).exact == phi.is_exact()
    assert not calls


def test_memo_entries_follow_tol_and_omega(rng):
    # Q = 0 and dim ker phi on a float form that the tols decide apart, and
    # primitivity on one that is primitive to 1e-4 but not to 1e-8
    phi = basis(1, 3, 5) + basis(2, 4, 6) * 1e-3
    assert [_cold(inv.classify_gl, phi, None, tol) for tol in (1e-8, 1e-4, 1e-2)] \
        == [inv.O_PLUS, inv.O_0, inv.O_3]
    near = inv.sp_normal_form("O-+").to_float() + basis(1, 2, 3) * 1e-6
    assert _cold(inv.q_form, near, OMEGA, 1e-8)[0] is ValueError
    assert isinstance(_cold(inv.q_form, near, OMEGA, 1e-4), list)
    for form in (phi, near):
        for read in _READINGS[3:]:
            for tol in (1e-8, 1e-2, 1e-4, 1e-2, 1e-8):
                assert _outcome(read, form, VOL, OMEGA, tol) == \
                    _cold(read, form, VOL, OMEGA, tol)
    # q under 20 diagonal omegas, all with volume coefficient 1, so one
    # evaluation of phi serves them all; twice round evicts their tables
    # from the per-omega cache, whose ids could then be reused
    omegas = [basis(1, 2) * a + basis(3, 4) * b + basis(5, 6) * Fraction(1, a * b)
              for a in range(1, 6) for b in (1, -1, 2, -3)]
    forms = [pullback(rand_symplectic(rng), inv.sp_normal_form("O-+")),
             inv.sp_normal_form("O--"), inv.sp_normal_form("O0-").to_float()]
    for phi in forms:
        labels = set()
        for omega in omegas * 2:
            for read in _READINGS[5:]:
                got = _outcome(read, phi, None, omega, inv.ORBIT_TOL)
                assert got == _cold(read, phi, None, omega, inv.ORBIT_TOL)
            labels.add(got)
        assert len(labels) > 1  # the omegas tell the readings apart


_CALLS = (
    lambda phi, tol: inv.classify_sp(phi, OMEGA, tol),
    lambda phi, tol: inv.classify_gl(phi, tol=tol),
    lambda phi, tol: inv.q_form(phi, OMEGA, tol),
    lambda phi, tol: inv.subspace_dims(phi, OMEGA, tol=tol),
    lambda phi, tol: inv.compute_Q(phi, OMEGA),
)
_RNG = random.Random(5)
# exact and float forms: Sp-moved normal forms, three forms near the
# decision boundaries (Q = 0, dim ker phi, primitivity), which the three tols
# decide apart on floats, and a form that is not primitive
_MEMO_FORMS = tuple(f for phi in (
    [pullback(rand_symplectic(_RNG), inv.sp_normal_form(label)) for label in inv.SP_LABELS]
    + [basis(1, 3, 5) + basis(2, 4, 6) * Fraction(1, 1000),
       inv.sp_normal_form("O1+") + basis(2, 4, 6) * Fraction(1, 1000),
       inv.sp_normal_form("O-+") + basis(1, 2, 3) * Fraction(1, 10 ** 6),
       rand_form(_RNG, 3)]) for f in (phi, phi.to_float()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CALLS), st.sampled_from(_MEMO_FORMS),
                          st.sampled_from((1e-8, 1e-4, 1e-2))), min_size=1, max_size=12))
def test_any_interleaving_of_calls_equals_cold_calls(calls):
    with pytest.MonkeyPatch.context() as m:
        forget_evaluations(m)
        for call, phi, tol in calls:
            assert _outcome(call, phi, tol) == _cold(call, phi, tol)


def test_volume_of_omega_taken_from_cached_tables(rng, monkeypatch):
    # omega^3/3! comes from the per-omega tables, not from fresh wedges
    phi = inv.coords_to_form(rand_coords(rng))
    inv.compute_K(phi, OMEGA)
    calls = []
    plain_wedge = inv.wedge

    def counting(a, b):
        calls.append(1)
        return plain_wedge(a, b)

    monkeypatch.setattr(inv, "wedge", counting)
    inv.compute_K(phi, OMEGA)
    inv.subspace_dims(phi, OMEGA)
    inv.hitchin_data(inv.sp_normal_form("O-+"), OMEGA)
    assert calls == []


# --- q-form and signatures -------------------------------------------------------

def test_q_form_zero():
    q = inv.q_form(Form.zero(3), OMEGA)
    assert all(x == 0 for r in q for x in r)


def test_q_form_rejects_non_primitive():
    with pytest.raises(ValueError, match="primitive"):
        inv.q_form(basis(1, 2, 3), OMEGA)


def oracle_q_routes(phi, omega):
    # the three Form-level routes: omega(v1, K v2), (iota_{v1}phi ^
    # iota_{v2}phi ^ omega)/vol, and -<iota_{v1}phi, iota_{v2}phi> under the
    # determinant extension of -W^-1 to 2-forms
    vol = inv.volume_of(omega)
    volc = vol.coeffs[63]  # a Fraction on exact omega
    W = inv.omega_matrix(omega)
    K = oracle_K(phi, vol)
    q1 = [[sum(W[i][l] * K[l][j] for l in range(6)) for j in range(6)]
          for i in range(6)]
    contr = [interior([int(k == i) for k in range(6)], phi) for i in range(6)]
    q2 = [[wedge(wedge(contr[i], contr[j]), omega).coeffs.get(63, 0) / volc
           for j in range(6)] for i in range(6)]
    O1 = [[-x for x in r] for r in linalg.inverse(W)]

    def pair2(a, b):
        tot = 0
        for ma, ca in a.coeffs.items():
            i, j = (x for x in range(6) if ma >> x & 1)
            for mb, cb in b.coeffs.items():
                k, l = (x for x in range(6) if mb >> x & 1)
                tot += ca * cb * (O1[i][k] * O1[j][l] - O1[i][l] * O1[j][k])
        return tot

    q3 = [[-pair2(contr[i], contr[j]) for j in range(6)] for i in range(6)]
    return q1, q2, q3


exact_coords = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
                        min_size=14, max_size=14).map(lambda c: inv.PrimitiveCoords(*c))
# (omega, g): phi is moved by g, so it stays primitive for omega = g* omega_0
GL_MAPS = [rand_invertible(random.Random(n)) for n in range(3)]
exact_omegas = st.sampled_from([(OMEGA, None), (OMEGA * Fraction(3, 2), None)]
                               + [(pullback(g, OMEGA), g) for g in GL_MAPS])


@settings(max_examples=40, deadline=None)
@given(exact_coords, exact_omegas)
def test_q_form_matches_form_level_routes_exactly(c, omega_and_map):
    omega, g = omega_and_map
    phi = inv.coords_to_form(c)
    if g is not None:
        phi = pullback(g, phi)
    q = inv.q_form(phi, omega)
    assert linalg.matrix_is_exact(q)
    for route in oracle_q_routes(phi, omega):
        assert route == q


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=14, max_size=14),
       st.integers(-6, 6))
def test_q_form_matches_form_level_routes_on_floats(ints, t):
    phi = inv.coords_to_form(inv.PrimitiveCoords(*(n / 1e6 * 10.0 ** t for n in ints)))
    q, bound = inv.q_form(phi, OMEGA), 1e-12 * phi.max_abs() ** 2
    for route in oracle_q_routes(phi, OMEGA):
        assert all(abs(q[i][j] - route[i][j]) <= bound
                   for i in range(6) for j in range(6))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-6, 6), min_size=14, max_size=14),
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=6),
             min_size=14, max_size=14),
    st.lists(st.floats(-1e6, 1e6), min_size=14, max_size=14)))
def test_coords_to_form_is_the_form_level_sum(c):
    want = Form.zero(3)
    for x, b in zip(c, inv.PRIMITIVE_BASIS):
        if x != 0:
            want = want + b * x
    got = inv.coords_to_form(inv.PrimitiveCoords(*c))
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert [type(x) for x in got.coeffs.values()] == [type(x) for x in want.coeffs.values()]


def test_exact_primitivity_is_exact():
    # a residual of 1e-12 is inside the float tolerance, but not zero
    phi = inv.sp_normal_form("O-+") + basis(1, 2, 3) * Fraction(1, 10 ** 12)
    with pytest.raises(ValueError, match="not primitive"):
        inv.q_form(phi, OMEGA)
    with pytest.raises(ValueError, match="not primitive"):
        inv.classify_sp(phi, OMEGA)
    assert inv.classify_sp(phi.to_float(), OMEGA).label == "O-+"


def _shift_K_numerator(monkeypatch, rel):
    # shift the K numerator (0, 2) by rel |phi|^2 on floats and by one unit on
    # ints; through W it lands in q[1][2] and not in q[2][1].  The memo of
    # the last evaluation is emptied, so that it cannot hide the fault, and
    # restored with the kernel, so that no shifted evaluation outlives it
    forget_evaluations(monkeypatch)
    numerators = inv._K_numerators

    def shifted(a):
        out = numerators(a)
        exact = all(isinstance(x, int) for x in a.tolist())
        out[2] += 1 if exact else rel * max(map(abs, a)) ** 2
        return out

    monkeypatch.setattr(inv, "_K_numerators", shifted)


def test_exact_q_symmetry_is_checked_by_equality(monkeypatch):
    # one unit of a K numerator at D = 10^6 is a relative asymmetry of 1e-12
    # in q, far inside the float cut, yet the exact backend refuses it
    _shift_K_numerator(monkeypatch, 1e-12)
    phi = inv.sp_normal_form("O-+", Fraction(10 ** 6 + 1, 10 ** 6))
    for f in (inv.q_form, inv.classify_sp):
        with pytest.raises(ArithmeticError, match="not symmetric"):
            f(phi, OMEGA)
        f(phi.to_float(), OMEGA)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_float_q_symmetry_cut_is_relative(monkeypatch, scale):
    # at scale 1e-4 a relative asymmetry of 1e-6 is 1e-14 in q: inside a cut
    # floored at |phi| = 1, far outside tol |phi|^2
    phi = inv.sp_normal_form("O-+", scale)
    with monkeypatch.context() as m:
        _shift_K_numerator(m, 1e-12)
        inv.q_form(phi, OMEGA)
    _shift_K_numerator(monkeypatch, 1e-6)
    with pytest.raises(ArithmeticError, match="not symmetric"):
        inv.q_form(phi, OMEGA)


@pytest.mark.parametrize("route, check", [(2, "q = (i phi ^ i phi ^ omega)/vol"),
                                          (3, "q = -<i phi, i phi>")],
                         ids=("G2", "G3"))
def test_identities_suite_catches_a_broken_q_route(monkeypatch, route, check):
    # q is computed one way at run time; the other two routes live in the
    # identities suite, which must fail, naming the route, when one entry of
    # its table is off by one
    tables = list(verify._q_route_tables())
    G = tables[route] = tables[route].copy()
    G[0, np.flatnonzero(G[0])[0]] += 1
    monkeypatch.setattr(verify, "_q_route_tables", lambda: tuple(tables))
    _, rep = verify.run("identities", 5, 6)
    assert rep["passed"] is False
    assert rep["failed_check"] == check
    inv.form_to_coords(io.form_from_json(rep["counterexample"], grade=3))


SIGNATURE_TABLE = {
    "O-+": (0, 6, 0),
    "O--": (0, 2, 4),
    "O+": (0, 3, 3),
    "O0+": (3, 3, 0),
    "O0-": (3, 1, 2),
    "O1+": (5, 1, 0),
    "O1-": (5, 0, 1),
    "O3": (6, 0, 0),
    "O6": (6, 0, 0),
}


@pytest.mark.parametrize("label,expect", sorted(SIGNATURE_TABLE.items()))
def test_signature_case_list(label, expect):
    phi = inv.sp_normal_form(label)
    assert tuple(inv.signature(inv.q_form(phi, OMEGA))) == expect


def test_o1_sign_pairing_pinned_by_oracle():
    # the (e13 - e24)^e5 representative carries signature (5,1,0), hence O1+
    minus = wedge(basis(1, 3) - basis(2, 4), basis(5))
    plus = wedge(basis(1, 3) + basis(2, 4), basis(5))
    assert tuple(inv.signature(inv.q_form(minus, OMEGA))) == (5, 1, 0)
    assert tuple(inv.signature(inv.q_form(plus, OMEGA))) == (5, 0, 1)
    assert inv.classify_sp(minus, OMEGA).label == "O1+"
    assert inv.classify_sp(plus, OMEGA).label == "O1-"


def test_signature_basics():
    assert tuple(inv.signature([[1 if i == j else 0 for j in range(6)]
                                for i in range(6)])) == (0, 6, 0)
    d = [[0] * 6 for _ in range(6)]
    for i in range(6):
        d[i][i] = 1 if i < 3 else -1
    assert tuple(inv.signature(d)) == (0, 3, 3)


def test_q_form_null_space_is_ker_K_on_O0():
    phi = inv.sp_normal_form("O0+")
    q = inv.q_form(phi, OMEGA)
    K = inv.compute_K(phi, OMEGA)
    null_q = linalg.exact_nullspace(q)
    assert len(null_q) == 3
    for v in null_q:
        assert all(sum(K.rows[i][j] * v[j] for j in range(6)) == 0
                   for i in range(6))


# --- subspace dimensions and the GL table ------------------------------------------

DIM_TABLE = {
    "O-": (0, 0, 6, 6),
    "O+": (0, 0, 6, 6),
    "O0": (0, 3, 3, 6),
    "O1": (1, 5, 1, 5),
    "O3": (3, 6, 0, 3),
    "O6": (6, 6, 0, 0),
}


@pytest.mark.parametrize("label,expect", sorted(DIM_TABLE.items()))
def test_subspace_dimension_table(label, expect):
    phi = inv.gl_normal_form(label)
    assert tuple(inv.subspace_dims(phi, OMEGA)) == expect


@pytest.mark.parametrize("label", sorted(DIM_TABLE))
def test_classify_gl_table(label):
    assert inv.classify_gl(inv.gl_normal_form(label)) == label


def test_classify_gl_pullback_invariance(rng):
    for label in DIM_TABLE:
        phi = inv.gl_normal_form(label)
        for _ in range(3):
            g = rand_invertible(rng)
            assert inv.classify_gl(pullback(g, phi)) == label


def test_classify_gl_examples():
    assert inv.classify_gl(basis(1, 2, 3) + basis(4, 5, 6)) == "O+"
    assert inv.classify_gl(basis(1, 3, 5) + basis(2, 4, 5)) == "O1"
    assert inv.classify_gl(Form.zero(3)) == "O6"


def test_normal_forms_are_fresh_copies_of_the_orbit_table():
    # every GL normal form but O+'s is an SP_ORBITS entry; editing a
    # returned form leaves the table as it was
    sp_of = {"O-": "O-+", "O0": "O0+", "O1": "O1-", "O3": "O3", "O6": "O6"}
    assert inv.gl_normal_form("O+") == basis(1, 2, 3) + basis(4, 5, 6)
    before = {label: dict(o.normal_form.coeffs) for label, o in inv.SP_ORBITS.items()}
    for phi, label in [(inv.gl_normal_form(g), s) for g, s in sp_of.items()]:
        assert phi == inv.SP_ORBITS[label].normal_form
        phi.coeffs[0b000111] = 5
        assert inv.SP_ORBITS[label].normal_form.coeffs == before[label]


# --- Sp classification ----------------------------------------------------------

@pytest.mark.parametrize("label", sorted(SIGNATURE_TABLE))
@pytest.mark.parametrize("mu", [Fraction(1, 2), 1, 3])
def test_classify_sp_table(label, mu):
    has_mu = label in ("O-+", "O--", "O+")
    phi = inv.sp_normal_form(label, mu) if has_mu else inv.sp_normal_form(label)
    out = inv.classify_sp(phi, OMEGA)
    assert out.label == label
    if has_mu:
        assert abs(float(out.mu) - float(mu)) < 1e-10
    else:
        assert out.mu is None


def test_classify_sp_symplectic_invariance(rng):
    for label in ("O-+", "O--", "O+", "O0+", "O0-", "O1+", "O1-", "O3"):
        phi = inv.sp_normal_form(label, 2)
        for _ in range(2):
            g = rand_symplectic(rng)
            assert pullback(g, OMEGA) == OMEGA
            out = inv.classify_sp(pullback(g, phi), OMEGA)
            assert out.label == label


GL_OF_SP = {"O-+": "O-", "O--": "O-", "O+": "O+", "O0+": "O0", "O0-": "O0",
            "O1+": "O1", "O1-": "O1", "O3": "O3", "O6": "O6"}


UNIT_VECTORS = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))


def _assert_exact_table_answers(g, mu=1):
    """Exact classify_sp, classify_gl, signature(q_form) and subspace_dims
    on the nine normal forms (scaled by mu on the stable orbits) moved by g
    give their SP_ORBITS entry, and mu; ker phi and rank K equal exact_rank
    of the uncleared Form-level rows iota_{e_i} phi and K(phi)."""
    for label, orbit in inv.SP_ORBITS.items():
        phi = pullback(g, inv.sp_normal_form(label, mu))
        assert phi.is_exact()
        sp = inv.classify_sp(phi, OMEGA)
        assert sp.label == label
        if sp.mu is not None:
            assert abs(sp.mu - mu) <= 1e-12 * mu
        assert inv.classify_gl(phi) == orbit.gl
        assert tuple(inv.signature(inv.q_form(phi, OMEGA))) == SIGNATURE_TABLE[label]
        dims = inv.subspace_dims(phi, OMEGA)
        assert tuple(dims) == DIM_TABLE[orbit.gl]
        C = [[interior(e, phi).coeffs.get(m, 0) for m in inv._MASKS2]
             for e in UNIT_VECTORS]
        assert dims.ker_phi == 6 - exact_rank(C)
        assert dims.im_K == exact_rank(inv.compute_K(phi, OMEGA).rows)


def _sheared(b):
    """The integer Sp shear [[I, B], [0, I]] with B = diag(b, 0, 0)."""
    block = [[int(i == j) for j in range(6)] for i in range(6)]
    block[0][3] = b
    return coframe_block_map(block)


@pytest.mark.parametrize("b", [10 ** 2, 10 ** 4, 10 ** 8, 10 ** 12])
def test_exact_classification_of_sheared_normal_forms(b):
    # the shear [[I, B], [0, I]] with B = diag(b, 0, 0) spreads q's
    # eigenvalues over b^2 to 1/b^2; a float zero cut misreads them from
    # b = 10^2, so the exact backend must not read one
    g = _sheared(b)
    assert pullback(g, OMEGA) == OMEGA
    _assert_exact_table_answers(g)


@settings(max_examples=15, deadline=None)
@given(ill_conditioned_symplectic())
def test_exact_classification_under_ill_conditioned_symplectic_maps(g):
    assert pullback(g, OMEGA) == OMEGA
    _assert_exact_table_answers(g)


@pytest.mark.parametrize("mu", [1, Fraction(3, 2)])
def test_exact_classification_of_forms_with_denominators(mu):
    # rand_symplectic draws lifts and shears with entries of denominator 2,
    # so the moved forms carry denominators that _evaluate clears for every
    # rank and for the q inertia
    rng = random.Random(24)
    maps = [g for g in (rand_symplectic(rng) for _ in range(12))
            if any(Fraction(x).denominator > 1 for r in g.rows for x in r)]
    assert len(maps) >= 4
    for g in maps[:4]:
        assert pullback(g, OMEGA) == OMEGA
        _assert_exact_table_answers(g, mu)


def test_exact_phi_under_float_vol_keeps_exact_ranks():
    # the shear of test_exact_classification_of_sheared_normal_forms at
    # b = 10^8: only the volume form is float, so every rank stays exact
    g = _sheared(10 ** 8)
    for label, orbit in inv.SP_ORBITS.items():
        phi = pullback(g, orbit.normal_form)
        dims = inv.subspace_dims(phi, vol=VOL.to_float())
        assert tuple(dims) == DIM_TABLE[orbit.gl], label


def test_float_omega_with_an_exact_volume_runs_on_floats():
    # the float term 0.5 e^13 drops out of omega^3, so the volume comes out
    # exact; the omega tables still give a float volume, and a form that is
    # not primitive is refused as such, not with a TypeError
    omega = OMEGA + basis(1, 3) * 0.5
    with pytest.raises(ValueError, match="not primitive"):
        inv.classify_sp(basis(2, 4, 6), omega)
    assert inv.classify_sp(basis(1, 3, 5), omega).label == "O3"
    assert inv.compute_Q(basis(1, 3, 5), omega) == 0.0
    assert all(type(x) is float for x in inv._omega_tables(omega).vol.coeffs.values())


def test_backend_decided_once_per_form(monkeypatch):
    # the _Evaluation decides exact or float once per form: no rank or
    # inertia scans a matrix for exactness again, and only its constructor
    # clears denominators, once on an exact form and never on a float one
    import sys
    from forms6 import exterior
    g = coframe_block_map([[1, 0, 0, Fraction(1, 2), 0, 0],
                                 [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                                 [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0],
                                 [0, 0, 0, 0, 0, 1]])
    assert pullback(g, OMEGA) == OMEGA
    inv.q_form(inv.sp_normal_form("O3"), OMEGA)  # the cached omega tables
    scans, clears = [], []
    is_exact_matrix, clear = linalg.matrix_is_exact, exterior._clear_denominators

    def counting_scan(rows):
        scans.append(1)
        return is_exact_matrix(rows)

    def counting_clear(xs):
        clears.append(sys._getframe(1).f_code.co_name)
        return clear(xs)

    monkeypatch.setattr(linalg, "matrix_is_exact", counting_scan)
    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("forms6") and \
                getattr(mod, "_clear_denominators", None) is clear:
            monkeypatch.setattr(mod, "_clear_denominators", counting_clear)
    for label, orbit in inv.SP_ORBITS.items():
        if label == "O6":  # the zero form has no float copy
            continue
        phi = pullback(g, orbit.normal_form) * Fraction(3, 2)
        assert any(type(x) is Fraction for x in phi.coeffs.values())
        for f, want in ((phi, ["__init__"]), (phi.to_float(), [])):
            for call in (lambda: inv.classify_sp(f, OMEGA),
                         lambda: inv.classify_gl(f),
                         lambda: inv.subspace_dims(f, OMEGA)):
                scans.clear()
                clears.clear()
                forget_evaluations(monkeypatch)  # each call from a cold memo
                call()
                assert (scans, clears) == ([], want), (label, f)


def test_sp_orbit_table_agrees_with_the_test_tables():
    assert inv.SP_LABELS == tuple(inv.SP_ORBITS) and set(inv.SP_ORBITS) == set(GL_OF_SP)
    for label, orbit in inv.SP_ORBITS.items():
        assert orbit.gl == GL_OF_SP[label]
        # O3 and O6 are told apart by dim ker phi, not by q, which is 0 on both
        assert orbit.signature == SIGNATURE_TABLE[label]
        assert inv.sp_normal_form(label) == orbit.normal_form
        assert inv.classify_sp(orbit.normal_form, OMEGA) == (
            label, 1.0 if orbit.gl in ("O-", "O+") else None)
    # sp_normal_form gives a fresh Form, so a caller cannot edit the table
    inv.sp_normal_form("O3").coeffs.clear()
    assert inv.SP_ORBITS["O3"].normal_form == basis(1, 3, 5)


def _classify_scaled(labels, scales):
    """Sp-transformed float normal forms keep their label, and mu scales with
    phi, at every scale given."""
    rng = random.Random(11)
    maps = [rand_symplectic(rng) for _ in range(10)]
    for g in maps:
        for label in labels:
            phi = pullback(g, inv.sp_normal_form(label)).to_float()
            for s in scales:
                out = inv.classify_sp(phi * s, OMEGA)
                assert out.label == label, (label, s)
                assert inv.classify_gl(phi * s) == GL_OF_SP[label], (label, s)
                if out.mu is not None:
                    assert abs(out.mu - s) <= 1e-8 * s, (label, s)


def test_classification_of_scaled_float_forms_is_scale_free():
    # phi is read in its own binade, so the ends of the float range decide
    # as scale 1 does
    _classify_scaled(inv.SP_LABELS, (1e-300, 1e-30, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e80, 1e300))
    _classify_scaled(("O0+", "O0-", "O1+", "O1-", "O3", "O6"), (1e-6, 1e-4))


def test_classification_of_small_stable_float_forms():
    # the Q = 0 cut is tol |phi|^4 in phi's binade, with no floor at
    # |phi| = 1 that read Q ~ 1e-16 of a stable form at 1e-4 as 0
    _classify_scaled(("O-+", "O--", "O+"), (1e-6, 1e-4))


# reader: (degree in phi, degree in omega, the reader's floats under omega,
# in a fixed order); omega enters through vol = omega^3/3! and W
POWER_READERS = {
    "K": (2, -3, lambda phi, om: [x for r in inv.compute_K(phi, om).rows for x in r]),
    "F": (3, -3, lambda phi, om: [inv.compute_F(phi, om).coeffs.get(m, 0.0)
                                  for m in inv._MASKS3]),
    "Q": (4, -6, lambda phi, om: [inv.compute_Q(phi, om)]),
    "q": (2, -2, lambda phi, om: [x for r in inv.q_form(phi, om) for x in r]),
    "mu": (1, Fraction(-3, 2), lambda phi, om: [inv.classify_sp(phi, om).mu or 0.0]),
}


def is_normal(x):
    return math.isfinite(x) and abs(x) >= sys.float_info.min


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(inv.SP_LABELS), st.integers(0, 9), st.floats(0.1, 10),
       st.integers(-1100, 1100), st.integers(-300, 300), st.booleans())
def test_power_of_two_scalings_read_alike(label, n, s, k, j, exact_omega):
    # phi and 2^k phi, both with only normal coefficients, under omega and
    # 2^j omega, exact or float, have the same table input in their binades,
    # and vol = 2^(3j) omega^3/3! is read in its own: the same labels, q's
    # signature and dims, and each output of degrees d in phi and d' in
    # omega is 2^(d k + d' j) times phi's wherever both are normal floats,
    # or refused where that leaves the float range (mu when d' j is an int)
    phi = seed11_moved_form(label, n) * s
    exponents = [math.frexp(x)[1] for x in phi.coeffs.values()] or [0]
    assume(-1021 <= min(exponents) + min(k, 0) and max(exponents) + max(k, 0) <= 1024)
    assume(abs(k - 1.5 * j) < 1000)  # mu = s 2^(k - 3j/2) stays in the float range
    big = phi.map_coeffs(lambda x: math.ldexp(x, k))
    om = OMEGA if exact_omega else OMEGA.to_float()
    om_big = om * (Fraction(2) ** j if exact_omega else 2.0 ** j)
    assert inv.classify_sp(big, om_big).label == inv.classify_sp(phi, om).label == label
    assert inv.classify_gl(big, inv.volume_of(om_big)) == inv.classify_gl(phi)
    assert inv.subspace_dims(big, om_big) == inv.subspace_dims(phi, om)
    for name, (degree, omega_degree, read) in POWER_READERS.items():
        shift = degree * k + omega_degree * j
        if shift.denominator != 1:
            continue
        shift = int(shift)
        x = read(phi, om)
        try:
            y = read(big, om_big)
        except OverflowError:
            assert max(math.frexp(a)[1] for a in x if a) + shift > 1024, name
            continue
        for a, b in zip(x, y):
            if a == 0:
                assert b == 0, (name, b)
                continue
            want = math.ldexp(a, shift) if math.frexp(a)[1] + shift <= 1024 else math.inf
            if is_normal(a) and is_normal(want):
                assert b == want, (name, a, b)
        # q's signature, where q is not rounding noise (O3, O6) and reads
        # normal; its eigenvalues may reach 6 max|q|, past the float range
        if name == "q" and label not in ("O3", "O6") and all(
                is_normal(b) for a, b in zip(x, y) if a):
            assert inv.signature([y[i:i + 6] for i in range(0, 36, 6)]) == \
                inv.signature([x[i:i + 6] for i in range(0, 36, 6)])


@pytest.mark.parametrize("scale", ("1e-3", "2", "10", "1e2", "1e8", "1e40"))
def test_labels_do_not_read_the_scale_of_omega(scale):
    # the Q = 0 cut reads Q's numerator, and the q and primitivity cuts are
    # relative to max|omega|, so no decision reads vol: the moved normal
    # forms keep their labels under a scaled omega, exact or float
    for om in (OMEGA * Fraction(scale), OMEGA.to_float() * float(scale)):
        for label in inv.SP_LABELS:
            for n in range(10):
                assert inv.classify_sp(seed11_moved_form(label, n), om).label == label, (om, n)


# the smallest input of each open float orbit fault, pinned as a strict xfail
# so that a fix fails tier-1 until the pin becomes a plain test
@pytest.mark.xfail(strict=True, raises=inv.ClassificationError,
                   reason="fault (g): Q = -16 of the O-+ form moved by map 38 falls under "
                          "the cut tol |phi|^4 at |phi| = 274, so classify_sp raises "
                          "'O0 form with unexpected signature (0, 6, 0)' and classify_gl "
                          "says O0")
def test_ledger_stable_form_under_an_ill_conditioned_map():
    phi = seed11_moved_form("O-+", 38)
    assert inv.classify_sp(phi, OMEGA).label == "O-+"
    assert inv.classify_gl(phi) == inv.O_MINUS


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="fault (c): float_inertia reads the rounding of q = 0 on the O3 "
                          "form moved by map 0 at 3.7 as the signature (0, 3, 3)")
def test_ledger_signature_of_q_on_a_moved_O3_form():
    phi = seed11_moved_form("O3", 0) * 3.7
    assert inv.signature(inv.q_form(phi, OMEGA)) == (6, 0, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="float_inertia reads the rounded q of the exact O-+ form sheared "
                          "at b = 10^2 under the float omega as the signature (1, 5, 0): "
                          "q's eigenvalues spread over b^4, past its cut tol max|eigenvalue|")
def test_ledger_signature_of_q_on_a_sheared_form_under_a_float_omega():
    phi = pullback(_sheared(10 ** 2), inv.sp_normal_form("O-+"))
    om_f = OMEGA.to_float()
    assert inv.classify_sp(phi, om_f).label == "O-+"
    assert inv.signature(inv.q_form(phi, om_f)) == (0, 6, 0)


def test_classify_sp_rejects_non_primitive():
    with pytest.raises(ValueError):
        inv.classify_sp(basis(1, 2, 3), OMEGA)  # omega ^ e123 != 0


def test_O0_lagrangian_structure(rng):
    for label in ("O0+", "O0-"):
        phi0 = inv.sp_normal_form(label)
        for k in range(3):
            g = rand_symplectic(rng) if k else LinearMap6.diagonal([1] * 6)
            phi = pullback(g, phi0)
            K = inv.compute_K(phi, OMEGA)
            F = inv.compute_F(phi, OMEGA)
            L = linalg.exact_nullspace(K.rows)
            assert len(L) == 3
            # ker K = Im K: K v in ker K for all v; and ker F = ker K
            for j in range(6):
                col = [K.rows[i][j] for i in range(6)]
                assert all(sum(K.rows[i][l] * col[l] for l in range(6)) == 0
                           for i in range(6))
            for v in L:
                assert not interior(v, F).coeffs or all(
                    c == 0 for c in interior(v, F).coeffs.values())
            # omega, phi, F all restrict to zero on L
            for a in L:
                for b in L:
                    assert eval_form(OMEGA, a, b) == 0
            a, b, c = L
            assert eval_form(phi, a, b, c) == 0
            assert eval_form(F, a, b, c) == 0


# --- algebraic identities ---------------------------------------------------------

def test_prop_identities_exact(rng):
    for n in range(60):
        phi = rand_form(rng, 3, 0.7) if n % 2 else inv.coords_to_form(rand_coords(rng))
        K = inv.compute_K(phi, OMEGA)
        Q = inv.compute_Q(phi, OMEGA)
        F = inv.compute_F(phi, OMEGA)
        KK = K.compose(K)
        assert all(KK.rows[i][j] == (Fraction(Q, 4) if i == j else 0)
                   for i in range(6) for j in range(6))
        KF = inv.compute_K(F, OMEGA)
        assert all(KF.rows[i][j] == -Q * K.rows[i][j]
                   for i in range(6) for j in range(6))
        assert inv.compute_F(F, OMEGA) == phi.map_coeffs(lambda x: -Q * Q * x)


def test_lemma_contraction_identities_exact(rng):
    for _ in range(40):
        phi = rand_form(rng, 3, 0.7)
        F = inv.compute_F(phi, OMEGA)
        X, Y = rand_vector(rng), rand_vector(rng)
        pf = wedge(phi, F)
        assert wedge(interior(X, phi), F) == -wedge(phi, interior(X, F))
        assert wedge(interior(X, phi), F) == interior(X, pf).map_coeffs(
            lambda v: Fraction(v, 2))
        o21 = wedge(interior(X, phi), interior(Y, F)) \
            + wedge(interior(Y, phi), interior(X, F))
        assert not o21.coeffs
        assert wedge(interior(Y, interior(X, phi)), F) == \
            wedge(phi, interior(Y, interior(X, F)))


# --- coordinates ------------------------------------------------------------------

def test_coords_zero_and_A():
    assert not inv.coords_to_form(inv.PrimitiveCoords()).coeffs
    assert inv.coords_to_form(inv.PrimitiveCoords(A=1)) == basis(1, 3, 5)


def test_coords_basis_is_primitive():
    for b in inv.PRIMITIVE_BASIS:
        assert not wedge(OMEGA, b).coeffs


def test_coords_round_trip(rng):
    for _ in range(300):
        c = rand_coords(rng)
        assert inv.form_to_coords(inv.coords_to_form(c)) == c


@pytest.mark.parametrize("name", sorted(OMEGAS))
def test_primitivity_rows_are_the_wedge(rng, name):
    # the per-omega table P, in the arithmetic of phi, gives
    # dP D (omega ^ phi) = sum_n a_n P[n], a the table input of phi: exactly
    # on exact forms, a float omega read as the dyadic rationals it holds,
    # and to rounding on floats, where a is 2^-e phi, phi in its binade
    omega = OMEGAS[name][0]
    for om in (omega, omega.to_float()):
        for _ in range(10):
            phi = rand_form(rng, 3, sparsity=0.6)
            for form in (phi, phi.to_float()):
                tables = inv._omega_tables(om, form.is_exact())
                ev = inv._evaluate(form, tables.vol)
                assert not any(tables.P[-1].tolist())  # the trailing 0 of ev.a
                a = ev.a.tolist()
                if not ev.exact:
                    e, want_a = binade_coeffs(form)
                    assert ev.e == e and a == want_a
                form = form.map_coeffs(lambda x: x * Fraction(2) ** -ev.e)
                got = [sum(a[n] * x for n, x in enumerate(col)) for col in zip(*tables.P.tolist())]
                w = wedge(om.map_coeffs(Fraction) if ev.exact else om, form)
                want = [w.coeffs.get(63 ^ (1 << i), 0) for i in range(6)]
                if ev.exact:
                    assert [Fraction(x, tables.dP * ev.D) for x in got] == want
                else:
                    assert all(abs(x / tables.dP - float(y))
                               <= 1e-12 * max(1.0, form.max_abs() * om.max_abs())
                               for x, y in zip(got, want))


def test_form_to_coords_rejects_non_primitive():
    with pytest.raises(ValueError, match="not primitive"):
        inv.form_to_coords(basis(1, 2, 3))


@pytest.mark.parametrize("scale", (1e-12, 1e-9, 1e-6, 1e-3, 1.0, 3.7, 1e3, 1e6))
def test_float_primitivity_check_is_scale_free(rng, scale):
    # the float cut is tol |phi|: a non-primitive form is refused at every
    # scale, and a primitive one moved by Sp(6), whose omega ^ phi is rounding
    # residue, is not
    def scaled(form):
        return form.map_coeffs(lambda x: float(x) * scale)

    for _ in range(10):
        bad = rand_form(rng, 3)
        assert wedge(OMEGA, bad).coeffs
        for form in (scaled(bad), scaled(basis(1, 2, 3))):
            with pytest.raises(ValueError, match="not primitive"):
                inv.form_to_coords(form)
            with pytest.raises(ValueError, match="not primitive"):
                inv.classify_sp(form, OMEGA)
        good = scaled(pullback(rand_symplectic(rng), inv.coords_to_form(rand_coords(rng))))
        inv._check_primitive(good, OMEGA, DEFAULT_TOL, "form")
        assert inv.coords_to_form(inv.form_to_coords(good)) == good


def test_hat_map_examples():
    c = inv.PrimitiveCoords(D=1, F=1, G=1)
    hats = inv.hat_map(c)
    assert hats == inv.PrimitiveCoords(H=-2)
    mu = Fraction(3, 2)
    hats = inv.hat_map(inv.PrimitiveCoords(A=mu, H=mu))
    assert hats == inv.PrimitiveCoords(A=mu ** 3, H=-mu ** 3)
    assert inv.hat_map(inv.PrimitiveCoords()) == inv.PrimitiveCoords()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(-8, 8, max_denominator=12), min_size=14, max_size=14))
def test_hat_monomial_table_matches_hat_map_exactly(c):
    # the table is derived from the K and F tables, not typed in or fitted
    monos, rows = inv.hat_monomial_table()
    assert len(monos) == 156
    got = [0] * 14
    for (p, q, r), row in zip(monos, rows):
        x = c[p] * c[q] * c[r]
        for i, t in enumerate(row):
            if t:
                got[i] += t * x
    assert got == list(inv.hat_map(c))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(-8, 8, max_denominator=12), min_size=14, max_size=14),
       exact_forms, exact_vols)
def test_scaling_by_cleared_denominators_is_exact(c, phi, vol):
    # the exact verification suites check each identity on D c and D phi,
    # D the lcm of the denominators, and rely on these degrees
    c = inv.PrimitiveCoords(*c)
    D = math.lcm(*(x.denominator for x in c))
    cD = inv.PrimitiveCoords(*(x * D for x in c))
    assert inv.hat_map(cD) == tuple(x * D ** 3 for x in inv.hat_map(c))
    assert inv.q_from_coords(cD) == inv.q_from_coords(c) * D ** 4
    assert inv.coords_to_form(cD) == inv.coords_to_form(c) * D
    ev = inv._evaluate(phi, vol)
    D, P = ev.D, Form(3, dict(zip(inv._MASKS3, ev.a.tolist())))
    assert P == phi * D and all(type(x) is int for x in P.coeffs.values())
    assert inv.compute_K(P, vol=vol) == inv.compute_K(phi, vol=vol).scale(D ** 2)
    assert inv.compute_F(P, vol=vol) == inv.compute_F(phi, vol=vol) * D ** 3


def test_hat_map_matches_brute_force(rng):
    for _ in range(60):
        c = rand_coords(rng)
        F = inv.compute_F(inv.coords_to_form(c), OMEGA)
        assert inv.coords_to_form(inv.hat_map(c)) == F.map_coeffs(
            lambda x: Fraction(x, -2))


def test_q_from_coords_examples():
    assert inv.q_from_coords(inv.PrimitiveCoords(A=1, H=1)) == 4
    assert inv.q_from_coords(inv.PrimitiveCoords(D=1, F=1, G=1)) == 0
    assert inv.q_from_coords(inv.PrimitiveCoords()) == 0


def test_q_from_coords_matches_brute_force(rng):
    for _ in range(60):
        c = rand_coords(rng)
        assert inv.q_from_coords(c) == inv.compute_Q(inv.coords_to_form(c), OMEGA)


# --- gradient relations -------------------------------------------------------------

def test_gradient_relations_random(rng):
    for _ in range(20):
        c = inv.PrimitiveCoords(*(rng.uniform(-2, 2) for _ in range(14)))
        assert inv.gradient_relations_check(c) < 1e-6


def test_gradient_on_q_flat_line():
    # with only D, F, G alive, Q vanishes identically along A but dQ/dA = 16 DFG
    c = inv.PrimitiveCoords(A=0.37, D=1.0, F=1.0, G=1.0)
    hats = inv.hat_map(c)
    assert hats.H == -2.0
    assert inv.gradient_relations_check(c) < 1e-6
    h = 1e-5
    up = inv.q_from_coords(c._replace(A=c.A + h))
    dn = inv.q_from_coords(c._replace(A=c.A - h))
    assert abs((up - dn) / (2 * h) - 16.0) < 1e-6


def test_gradient_zero_coords():
    assert inv.gradient_relations_check(inv.PrimitiveCoords()) == 0.0


# --- stabilizer predicates ------------------------------------------------------------
# the block conditions for stabilizing phi0 = sp_normal_form("O0+") and
# F(phi0), which the tests below hold to direct pullbacks

class StabilizerCheck(NamedTuple):
    stabilizes_F: bool
    stabilizes_phi: bool
    reason: str = ""


def stabilizer_predicates(block):
    """Block conditions for stabilizing F(phi0) and phi0 for the normal form
    phi0 = sp_normal_form("O0+"), with block = [[A, 0], [B, C]] in (dx, dy)
    order.

    Stabilizing F(phi0) (a 3-form twisted by a volume factor) needs the
    lower-triangular shape and det A det^2 C = 1; stabilizing phi0 further
    needs A = C/det C and Tr(B C^{-1}) = 0.
    """
    block = [list(r) for r in block]
    A = [r[:3] for r in block[:3]]
    Z = [r[3:] for r in block[:3]]
    B = [r[:3] for r in block[3:]]
    C = [r[3:] for r in block[3:]]

    exact = linalg.matrix_is_exact(block)

    def near(x, y):
        return (x == y if exact
                else abs(float(x - y)) <= DEFAULT_TOL * max(1.0, abs(float(y))))

    if any(not near(x, 0) for r in Z for x in r):
        return StabilizerCheck(False, False, "upper-right block is nonzero")
    detC = linalg.det(C)
    if detC == 0 or (not exact and abs(float(detC)) <= DEFAULT_TOL):
        return StabilizerCheck(False, False, "C block is singular")
    detA = linalg.det(A)
    f_ok = near(detA * detC * detC, 1)
    if not f_ok:
        return StabilizerCheck(False, False, f"det A det^2 C = {detA * detC * detC}")
    Cinv = linalg.inverse(C)
    a_ok = all(near(A[i][j] * detC, C[i][j]) for i in range(3) for j in range(3))
    tr = sum(B[i][k] * Cinv[k][i] for i in range(3) for k in range(3))
    phi_ok = a_ok and near(tr, 0)
    reason = "" if phi_ok else (
        "A != C/det C" if not a_ok else f"Tr(B C^-1) = {tr}")
    return StabilizerCheck(True, phi_ok, reason)


def _embed(A, B, C):
    return [list(A[0]) + [0, 0, 0], list(A[1]) + [0, 0, 0], list(A[2]) + [0, 0, 0],
            list(B[0]) + list(C[0]), list(B[1]) + list(C[1]), list(B[2]) + list(C[2])]


def _pullback_oracle(block):
    phi0 = inv.sp_normal_form("O0+")
    F0 = inv.compute_F(phi0, OMEGA)
    g = coframe_block_map(block)
    detg = linalg.det(g.rows)
    return (pullback(g, F0) * detg == F0, pullback(g, phi0) == phi0)


def test_stabilizer_identity():
    idm = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    check = stabilizer_predicates(idm)
    assert (check.stabilizes_F, check.stabilizes_phi) == (True, True)


def test_stabilizer_diag_example():
    C = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    A = [[Fraction(1, 2), 0, 0], [0, Fraction(1, 2), 0], [0, 0, 1]]
    M = _embed(A, [[0] * 3] * 3, C)
    check = stabilizer_predicates(M)
    assert (check.stabilizes_F, check.stabilizes_phi) == (True, True)
    assert _pullback_oracle(M) == (True, True)


def test_stabilizer_traceful_shear():
    I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    M = _embed(I3, I3, I3)
    check = stabilizer_predicates(M)
    assert (check.stabilizes_F, check.stabilizes_phi) == (True, False)
    assert _pullback_oracle(M) == (True, False)


def test_stabilizer_random_agreement(rng):
    n = 0
    while n < 15:
        A = [[rand_fraction(rng, -3, 3, (1, 2)) for _ in range(3)] for _ in range(3)]
        B = [[rand_fraction(rng, -3, 3, (1, 2)) for _ in range(3)] for _ in range(3)]
        C = [[rand_fraction(rng, -3, 3, (1, 2)) for _ in range(3)] for _ in range(3)]
        if linalg.exact_det(C) == 0 or linalg.exact_det(A) == 0:
            continue
        n += 1
        M = _embed(A, B, C)
        check = stabilizer_predicates(M)
        assert (check.stabilizes_F, check.stabilizes_phi) == _pullback_oracle(M)


def test_stabilizer_singular_C():
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    C = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    check = stabilizer_predicates(_embed(A, [[0] * 3] * 3, C))
    assert not check.stabilizes_F and not check.stabilizes_phi
    assert "singular" in check.reason


# --- Hitchin data -----------------------------------------------------------------

def test_hitchin_data_normal_form():
    hd = inv.hitchin_data(inv.sp_normal_form("O-+"), OMEGA)
    assert hd.normsq == 4
    assert hd.lam == -4
    JJ = hd.J.compose(hd.J)
    assert all(JJ.rows[i][j] == (-1 if i == j else 0)
               for i in range(6) for j in range(6))
    F = inv.compute_F(inv.sp_normal_form("O-+"), OMEGA)
    assert F == hd.phihat.map_coeffs(lambda x: hd.normsq * x)
    assert inv.compute_Q(inv.sp_normal_form("O-+"), OMEGA) == -hd.normsq ** 2


def test_hitchin_scale_invariance():
    phi = inv.sp_normal_form("O-+", 1)
    hd1 = inv.hitchin_data(phi, OMEGA)
    hd2 = inv.hitchin_data(phi * 2, OMEGA)
    assert hd1.J == hd2.J
    assert hd2.normsq == 4 * hd1.normsq


def test_hitchin_rejects_other_orbits():
    with pytest.raises(ValueError, match="not in O-"):
        inv.hitchin_data(inv.sp_normal_form("O+"), OMEGA)
    with pytest.raises(ValueError, match="not in O-"):
        inv.hitchin_data(inv.sp_normal_form("O0+"), OMEGA)


def test_float_Q_past_the_float_range_is_refused_by_every_reader():
    # on the float O-+ normal form at 1e77, Q = -16e308 leaves the float
    # range: compute_Q and hitchin_data, whose lambda is Q/4, hand Q out and
    # raise an OverflowError naming it, where they gave -inf and a zero J;
    # classify_sp and classify_gl decide in phi's binade and answer.  At
    # 1e76 every reader gives finite, correct values
    calls = {"compute_Q": lambda phi: inv.compute_Q(phi, OMEGA),
             "classify_sp": lambda phi: inv.classify_sp(phi, OMEGA),
             "classify_gl": inv.classify_gl,
             "hitchin_data": lambda phi: inv.hitchin_data(phi, OMEGA)}
    big = inv.sp_normal_form("O-+", 1e77)
    for name in ("compute_Q", "hitchin_data"):
        with pytest.raises(OverflowError) as e:
            calls[name](big)
        assert str(e.value) == ("Q(phi) is out of the float range at "
                                "max|phi| = 1e+77, vol = 1"), name
    sp = calls["classify_sp"](big)
    assert sp.label == "O-+" and math.isclose(sp.mu, 1e77, rel_tol=1e-12), sp
    assert calls["classify_gl"](big) == inv.O_MINUS
    phi = inv.sp_normal_form("O-+", 1e76)
    Q = calls["compute_Q"](phi)
    sp = calls["classify_sp"](phi)
    J = calls["hitchin_data"](phi).J.rows
    JJ = [[sum(J[i][k] * J[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    assert math.isclose(Q, -16e304, rel_tol=1e-12), Q
    assert sp.label == "O-+" and math.isclose(sp.mu, 1e76, rel_tol=1e-12), sp
    assert calls["classify_gl"](phi) == inv.O_MINUS
    assert all(abs(JJ[i][j] + (i == j)) <= 1e-12 for i in range(6) for j in range(6)), JJ


@pytest.mark.parametrize("c", (1e-200, 1e-310, 5e-324, 1e200, 1.7e308))
def test_vol_is_read_in_its_binade(c):
    # c, the coefficient of vol, is read as 2^g c': Q = -16/c^2 of the float
    # O-+ normal form leaves the float range below c = 4e-154 and K = 2/c
    # below 1.1e-308, and each refuses naming its output and both scales,
    # where c c underflowed to a bare ZeroDivisionError; the label, whose
    # Q = 0 cut reads Q's numerator, does not read c at all
    phi, vol = inv.sp_normal_form("O-+").to_float(), inv.standard_volume() * c
    assert inv.classify_gl(phi, vol) == inv.O_MINUS
    Q = -16 / c / c
    if math.isfinite(Q):
        assert math.isclose(inv.compute_Q(phi, vol=vol), Q, rel_tol=1e-15)
    else:
        with pytest.raises(OverflowError) as e:
            inv.compute_Q(phi, vol=vol)
        assert str(e.value) == f"Q(phi) is out of the float range at max|phi| = 1, vol = {c:.6g}"
    K = inv.compute_K(phi, vol=vol).rows if c > 1.2e-308 else None
    if K is None:
        with pytest.raises(OverflowError) as e:
            inv.compute_K(phi, vol=vol)
        assert str(e.value).startswith("K(phi) is out of the float range at max|phi| = 1, vol")
    else:  # one rounding more where 2/c is subnormal
        assert math.isclose(max(abs(x) for r in K for x in r), 2 / c,
                            rel_tol=1e-15, abs_tol=1e-323)


def test_exact_mu_is_read_in_its_binade():
    # the fourth root of an exact mu^4 is taken of 2^-4k mu^4, near 1, and
    # scaled back by 2^k: mu of 10^100 O-+ is 1e100, where float(mu^4)
    # overflowed, and O+ under 10^150 omega has mu = 1e-225, where float(mu^4)
    # read 0; only a mu past the float range is refused, by name
    assert inv.classify_sp(inv.sp_normal_form("O-+") * 10 ** 100) == ("O-+", 1e100)
    assert inv.classify_sp(inv.sp_normal_form("O+"), OMEGA * 10 ** 150) == ("O+", 1e-225)
    assert inv.classify_sp(inv.sp_normal_form("O-+", 3)) == ("O-+", 3.0)
    with pytest.raises(OverflowError) as e:
        inv.classify_sp(inv.sp_normal_form("O-+") * 10 ** 400)
    assert str(e.value) == "mu is out of the float range at max|phi| = 1e+400, vol = 1"


def test_exact_phi_under_a_float_omega_is_read_in_its_binade():
    # an exact phi under a float vol is evaluated on its cleared ints and
    # each output rounded once, so only an output past the float range is
    # refused, by name
    omega = OMEGA.to_float()
    big = inv.sp_normal_form("O-+") * 10 ** 100
    assert inv.classify_sp(big, omega) == ("O-+", 1e100)
    assert inv.q_form(big, omega)[0][0] == 2e200
    for read, name in ((inv.compute_Q, "Q(phi)"), (inv.compute_F, "F(phi)")):
        with pytest.raises(OverflowError) as e:
            read(big * 10 ** 3, omega)
        assert str(e.value) == f"{name} is out of the float range at max|phi| = 1e+103, vol = 1"
    # under omega_0, c = 1: K and Q are the floats nearest their exact values
    for phi in (inv.sp_normal_form("O+") * Fraction(3, 7),
                pullback(rand_symplectic(random.Random(3)), inv.sp_normal_form("O-+")) * 10 ** 30):
        assert inv.compute_K(phi, omega).rows == tuple(
            tuple(map(float, r)) for r in inv.compute_K(phi, OMEGA).rows)
        assert inv.compute_Q(phi, omega) == float(inv.compute_Q(phi, OMEGA))
        assert inv.classify_sp(phi, omega).label == inv.classify_sp(phi, OMEGA).label


def _decisions(phi, omega, vol):
    """classify_sp, classify_gl, subspace_dims and signature(q_form) of phi
    under omega (and its vol), each as _outcome reads it."""
    return [_outcome(lambda: inv.classify_sp(phi, omega)),
            _outcome(lambda: inv.classify_gl(phi, vol)),
            _outcome(lambda: inv.subspace_dims(phi, vol=vol)),
            _outcome(lambda: inv.signature(inv.q_form(phi, omega)))]


def test_exact_phi_is_decided_exactly_under_a_float_omega():
    # an exact phi is decided on its cleared ints, a float omega or vol read
    # as the dyadic rational it holds, so every decision is the exact-omega
    # one: on the Sp normal forms sheared by [[I, B], [0, I]],
    # B = diag(b, 0, 0), where q's eigenvalues spread over b^2 to 1/b^2
    # (Fractions under a float cut mislabelled 17 of these 36, the O-+ at
    # b = 10^4 as O0 with no error), and on 9 labels x 20 seed-11 maps
    # moved by GL_OMEGA_MAP under the GL-moved omega, whose float copy is
    # exact (3 of these 180 were refused).  On the sheared forms q_form
    # hands out q rounded, whose float signature cannot resolve that
    # spread, so there only classify_sp reads q's signature, exactly
    om, om_f = OMEGA, OMEGA.to_float()
    for b in (10 ** 2, 10 ** 4, 10 ** 8, 10 ** 12):
        g = _sheared(b)
        assert pullback(g, OMEGA) == OMEGA
        for label, orbit in inv.SP_ORBITS.items():
            phi = pullback(g, orbit.normal_form)
            want = _decisions(phi, om, VOL)
            assert want[0] == (label, 1.0 if orbit.gl in (inv.O_MINUS, inv.O_PLUS) else None)
            assert _decisions(phi, om_f, VOL.to_float())[:3] == want[:3], (b, label)
    om, h = OMEGAS["GL-moved"]
    om_f = om.to_float()
    assert om_f.map_coeffs(Fraction) == om
    for g in _seed11_maps(20):
        for label, orbit in inv.SP_ORBITS.items():
            phi = pullback(h, pullback(g, orbit.normal_form))
            want = _decisions(phi, om, inv.volume_of(om))
            assert want[0][0] == label
            assert _decisions(phi, om_f, inv.volume_of(om_f)) == want, label


@pytest.mark.parametrize("scale", (1, Fraction(3, 2)))
def test_exact_phi_under_a_float_omega_rounds_each_output_once(scale):
    # K, F, Q and q of an exact phi under a float omega are the exact
    # values, rounded once (mixed Fraction and float arithmetic missed K on
    # 47 of these 180 forms under 3/2 omega_0)
    om = OMEGA * scale
    om_f = om.to_float()
    for g in _seed11_maps(20):
        for label in inv.SP_LABELS:
            phi = pullback(g, inv.sp_normal_form(label))
            assert inv.compute_K(phi, om_f).rows == tuple(
                tuple(map(float, r)) for r in inv.compute_K(phi, om).rows)
            assert inv.compute_F(phi, om_f) == inv.compute_F(phi, om).map_coeffs(float)
            assert inv.compute_Q(phi, om_f) == float(inv.compute_Q(phi, om))
            assert inv.q_form(phi, om_f) == [list(map(float, r)) for r in inv.q_form(phi, om)]
            assert all(type(x) is float for r in inv.q_form(phi, om_f) for x in r)


@pytest.mark.parametrize("omega, vol", [(OMEGA * 10 ** 300, "1e+900"),
                                        (OMEGA * 10 ** 210, "1e+630")])
def test_mu_that_is_not_a_normal_float_is_refused(omega, vol):
    # mu is positive on O-+-, O-- and O+: where it underflows to 0 or to a
    # subnormal (1e-450 and 1e-315 here, read as 0.0 and 1e-315), it is
    # refused by name, on an exact or float phi; Q's underflow is a value
    for label in ("O-+", "O+"):
        for phi in (inv.sp_normal_form(label), inv.sp_normal_form(label).to_float()):
            with pytest.raises(OverflowError) as e:
                inv.classify_sp(phi, omega)
            assert str(e.value) == f"mu is out of the float range at max|phi| = 1, vol = {vol}"
            assert inv.classify_gl(phi, inv.volume_of(omega)) == inv.SP_ORBITS[label].gl


def test_exact_omega_past_the_float_range_of_a_float_phi():
    # a float phi reads an exact omega's tables rounded once, so a coefficient
    # that is not a normal float is refused by name, where a bare "int too
    # large to convert to float" came from W kn and P a; an exact phi reads
    # them exactly and answers
    O_mp = inv.sp_normal_form("O-+")
    tiny = OMEGA + basis(5, 6) * (Fraction(1, 10 ** 400) - 1)
    for omega, text in ((tiny, "the coefficients of omega span past the float range: "
                                "0.0 against max|omega| = 1"),
                        (OMEGA * 10 ** 400, "the coefficients of omega reach past the "
                                            "float range")):
        for read in (inv.classify_sp, inv.q_form):
            with pytest.raises(OverflowError) as e:
                read(O_mp.to_float(), omega)
            assert str(e.value) == text
        assert inv.classify_gl(O_mp, inv.volume_of(omega)) == inv.O_MINUS
    assert inv.classify_sp(O_mp, tiny) == ("O-+", 1e200)
    assert inv.q_form(O_mp, OMEGA * 10 ** 400)[0][0] == Fraction(2, 10 ** 800)


def test_q_signature_reads_eigenvalues_past_the_float_range():
    # q's entries reach 1.4e308 and its eigenvalues pass the float range:
    # float_inertia reads q in its binade, where it read every eigenvalue 0
    phi = seed11_moved_form("O+", 0) * (1.25 * 2.0 ** 211)
    q = inv.q_form(phi, OMEGA.to_float() * 2.0 ** -300)
    assert all(map(math.isfinite, np.ravel(q)))
    assert inv.signature(q) == (0, 3, 3)


@pytest.mark.parametrize("omega, text", [
    (OMEGA.to_float() * 1e-110, "omega^3/3! = 0 is not a normal float"),
    # subnormal: 5e-324 where omega^3/3! is 5.36e-324, so its bits are lost
    (OMEGA.to_float() * 1.75e-108, "omega^3/3! = 5e-324 is not a normal float"),
    (OMEGA.to_float() * 1e110, "omega^3/3! = inf is not a normal float"),
    (basis(1, 2) * 5e-324 + basis(3, 4) + basis(5, 6) * 1e308,
     "the coefficients of omega span past the float range: 5e-324 against max|omega| = 1e+308")])
def test_float_omega_past_the_float_range_is_refused_by_name(omega, text):
    phi = inv.sp_normal_form("O-+").to_float()
    for read in (inv.classify_sp, inv.compute_Q, inv.q_form):
        with pytest.raises(OverflowError) as e:
            read(phi, omega)
        assert str(e.value) == text
    with pytest.raises(ValueError, match="degenerate"):
        inv.classify_sp(phi, (basis(1, 2) + basis(3, 4)).to_float())


def test_float_overflow_names_the_invariant_out_of_range(capfd):
    # phi is read in its own binade, so only an output can leave the float
    # range, where it is scaled back: each reader refuses exactly when its
    # own output does, with an OverflowError naming that output, and no
    # reader hands out inf or nan.  On the float O-+ normal form at scale s,
    # K and q are 2 s^2 on the diagonal, F is 4 s^3 times a sign form and
    # Q = -16 s^4; the orbit readings answer at every scale, with nothing
    # written to stderr
    readers = {"K(phi)": lambda phi: inv.compute_K(phi, OMEGA).rows,
               "q(omega, phi)": lambda phi: inv.q_form(phi, OMEGA),
               "F(phi)": lambda phi: list(inv.compute_F(phi, OMEGA).coeffs.values()),
               "Q(phi)": lambda phi: [inv.compute_Q(phi, OMEGA)]}
    O_mp = inv.sp_normal_form("O-+").to_float()
    for s, at, refused in ((4e153, "4e+153", ("F(phi)", "Q(phi)")),
                           (1e154, "1e+154", tuple(readers)),
                           (1e300, "1e+300", tuple(readers))):
        phi = O_mp * s
        for name, read in readers.items():
            if name in refused:
                with pytest.raises(OverflowError) as e:
                    read(phi)
                assert str(e.value) == (f"{name} is out of the float range at "
                                        f"max|phi| = {at}, vol = 1")
            else:
                assert all(map(math.isfinite, np.ravel(read(phi)))), name
        sp = inv.classify_sp(phi, OMEGA)
        assert sp.label == "O-+" and math.isclose(sp.mu, s, rel_tol=1e-12), (s, sp)
        assert inv.classify_gl(phi) == inv.O_MINUS
        assert inv.subspace_dims(phi, OMEGA) == (0, 0, 6, 6)
    assert inv.q_form(O_mp * 4e153, OMEGA) == [[3.2e307 * (i == j) for j in range(6)]
                                               for i in range(6)]
    # a float phi whose largest entry is a Fraction is named the same way
    mixed = Form(3, {**(O_mp * 1e154).coeffs, 21: Fraction(2 * 10 ** 154)})
    for name, read in readers.items():
        with pytest.raises(OverflowError) as e:
            read(mixed)
        assert str(e.value) == (f"{name} is out of the float range at "
                                "max|phi| = 2e+154, vol = 1")
    # K = 0 on O3 and Q = 0 on O0+: their readers answer far past 1e77
    O3 = inv.sp_normal_form("O3").to_float() * 1e200
    assert inv.q_form(O3, OMEGA) == [[0.0] * 6 for _ in range(6)]
    assert inv.classify_sp(O3, OMEGA) == ("O3", None)
    assert inv.subspace_dims(O3, OMEGA) == (3, 6, 0, 3)
    O0 = inv.sp_normal_form("O0+").to_float() * 1e80
    assert inv.compute_Q(O0, OMEGA) == 0
    assert inv.classify_gl(O0) == inv.O_0 and inv.classify_sp(O0, OMEGA).label == "O0+"
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("big, small", [(1e308, 1.0), (1.0, 1e-310), (2.0 ** -50, 5e-324)])
def test_float_coefficients_spanning_past_the_float_range_are_refused(big, small):
    # big e^135 + small e^246 is an O+ form; where small is not a normal
    # float in phi's binade, its products underflow there and would read Q
    # as 0 and the form as O3, so every reader refuses it, naming the span.
    # At the edge, where small is the least normal float in the binade, the
    # form is read, and the cut tol |phi|^4 takes its Q for 0
    phi = basis(1, 3, 5) * big + basis(2, 4, 6) * small
    readers = (lambda: inv.compute_K(phi, OMEGA), lambda: inv.compute_Q(phi, OMEGA),
               lambda: inv.q_form(phi, OMEGA), lambda: inv.classify_sp(phi, OMEGA),
               lambda: inv.classify_gl(phi), lambda: inv.subspace_dims(phi, OMEGA))
    for read in readers:
        with pytest.raises(OverflowError) as e:
            read()
        assert str(e.value) == ("the coefficients of phi span past the float range: "
                                f"{small!r} against max|phi| = {big:.6g}")
    edge = basis(1, 3, 5) * big + basis(2, 4, 6) * math.ldexp(1.0, math.frexp(big)[1] - 1022)
    assert inv.classify_sp(edge, OMEGA) == ("O3", None)


# --- F-map orbit images --------------------------------------------------------------

def test_F_orbit_images(rng):
    for mu in (Fraction(1, 2), 1, 3):
        for label, factor in (("O-+", 4), ("O--", 4), ("O+", 2)):
            F = inv.compute_F(inv.sp_normal_form(label, mu), OMEGA)
            out = inv.classify_sp(F, OMEGA)
            assert out.label == label
            assert abs(float(out.mu) - factor * float(mu) ** 3) < 1e-10
    for label in ("O0+", "O0-"):
        F = inv.compute_F(inv.sp_normal_form(label), OMEGA)
        assert inv.classify_sp(F, OMEGA).label == "O3"


def test_stabilizer_form_fixes_normal_form_via_pullback():
    # block lower-triangular with A = C/det C and Tr(B C^-1) = 0 fixes phi0
    C = [[2, 1, 0], [0, 1, 0], [1, 0, 1]]
    dC = linalg.exact_det(C)
    A = [[Fraction(C[i][j], dC) for j in range(3)] for i in range(3)]
    B = [[1, 2, 0], [0, -3, 1], [0, 0, 2]]
    Cinv = linalg.exact_inverse(C)
    tr = sum(B[i][k] * Cinv[k][i] for i in range(3) for k in range(3))
    B[0][0] -= tr / Cinv[0][0]
    M = _embed(A, B, C)
    g = coframe_block_map(M)
    assert pullback(g, inv.sp_normal_form("O0+")) == inv.sp_normal_form("O0+")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_form_is_refused(bad):
    # a NaN coefficient would otherwise read as Q != 0 and not Q < 0: O+
    phi = (basis(1, 3, 5) - basis(1, 4, 6) - basis(2, 3, 6)) * 1.0 + basis(2, 4, 5) * bad
    with pytest.raises(ValueError, match="non-finite coefficient"):
        inv.classify_gl(phi)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        inv.classify_sp(phi)
    with pytest.raises(ValueError, match="non-finite coefficient"):
        inv.compute_Q(phi, OMEGA)
