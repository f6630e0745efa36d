"""Six-dimensional Lie algebras and calculus of invariant forms.

A :class:`LieAlgebra6` is given by the 2-forms d e^i; the differential
extends to all invariant forms as an antiderivation (the Chevalley-Eilenberg
differential), with d^2 = 0 enforced at construction (equivalently Jacobi).
On top of an :class:`InvariantSetup` (algebra + closed symplectic form) this
module provides the Lefschetz contraction, the flow operator d Lambda d F,
Nijenhuis tensors of K(phi) and the integrability predicates for invariant
primitive 3-forms.  The predicates, max|N_K| and the Nijenhuis identity are
all read off one set of per-setup tables (d on the basis 3-forms and the
bracket, int on an exact algebra), derived from ``LieAlgebra6.d`` and
``bracket`` and held to the Form-level definitions by the tests.

Built-in algebras ("nil-debartolomeis", "solv-tomassini", "abelian") are
loaded from the packaged JSON data files, so the same files double as CLI
inputs.
"""

import functools
import json
import math
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import invariants, io, linalg
from .exterior import (DIM, DEFAULT_TOL, Form, GradeError,
                       _clear_denominators, axes_from_mask, basis_matrix,
                       interior, is_exact, wedge)
from .invariants import (_INT64_BOUND, _IVOL, _MASKS5, _WEDGE2, PRIMITIVE_BASIS,
                         PrimitiveCoords, compute_F, compute_K, coords_to_form,
                         form_to_coords, standard_omega, volume_of)

#: growth rate of the built-in solvable algebra, log((3 + sqrt 5)/2)
SOLV_LAMBDA = math.log((3 + math.sqrt(5)) / 2)


class LieAlgebra6:
    """A 6-dimensional Lie algebra, presented through d e^1 .. d e^6."""

    def __init__(self, d_one_forms, name=""):
        d1 = tuple(d_one_forms)
        if len(d1) != DIM or any(f.grade != 2 for f in d1):
            raise ValueError("need six 2-forms d e^1 .. d e^6")
        self.d_one = d1
        self.name = name
        for i, f in enumerate(d1):
            dd = self._d_raw(f)
            if dd.coeffs:
                raise ValueError(
                    f"d^2 e^{i + 1} = {dd!r} != 0: structure constants violate Jacobi")
        # bracket coefficients c^k_{ij} = -(d e^k)(e_i, e_j)
        table = {}
        for i in range(DIM):
            for j in range(i + 1, DIM):
                mask = (1 << i) | (1 << j)
                vec = tuple(-d1[k].coeffs.get(mask, 0) for k in range(DIM))
                table[(i, j)] = vec
        self._brackets = table

    def _d_raw(self, a):
        out = Form.zero(a.grade + 1)
        for m, c in a.coeffs.items():
            pos = 0
            for i in range(DIM):
                if m >> i & 1:
                    di = self.d_one[i]
                    if di.coeffs:
                        rest = Form(a.grade - 1, {m ^ (1 << i): c if pos % 2 == 0 else -c})
                        out = out + wedge(di, rest)
                    pos += 1
        return out

    def d(self, a):
        """Chevalley-Eilenberg differential of an invariant form."""
        if a.grade == 0:
            return Form.zero(1)
        if a.grade == DIM:
            raise GradeError("no 7-forms: d of a 6-form is not represented")
        return self._d_raw(a)

    def bracket(self, u, v):
        """Lie bracket of two vectors (length-6 sequences)."""
        out = [0] * DIM
        for (i, j), vec in self._brackets.items():
            c = u[i] * v[j] - u[j] * v[i]
            if c:
                for k in range(DIM):
                    if vec[k]:
                        out[k] = out[k] + c * vec[k]
        return tuple(out)

    def is_unimodular(self):
        """True when every ad_X is traceless."""
        for j in range(DIM):
            ej = [0] * DIM
            ej[j] = 1
            tr = 0
            for k in range(DIM):
                ek = [0] * DIM
                ek[k] = 1
                tr += self.bracket(ej, ek)[k]
            if tr != 0:
                return False
        return True

    def __repr__(self):
        return f"LieAlgebra6({self.name or 'anonymous'})"


class InvariantSetup:
    """A Lie algebra together with a closed, nondegenerate invariant 2-form.

    Treated as immutable after construction; derived operators cache on it."""

    def __init__(self, algebra, omega):
        volume_of(omega)  # nondegeneracy
        dw = algebra.d(omega)
        if dw.coeffs:
            raise ValueError(f"omega is not closed: d omega = {dw!r}")
        self.algebra = algebra
        self.omega = omega
        self._reduced_flow = None
        self._identity = None

    @classmethod
    def standard(cls, algebra):
        return cls(algebra, standard_omega())

    def __repr__(self):
        return f"InvariantSetup({self.algebra!r})"


def lefschetz_lambda(setup, a):
    """Lefschetz contraction Lambda by omega (paired contraction for the
    standard form, normalized so Lambda omega = 3)."""
    if a.grade < 2:
        raise GradeError("Lambda needs a form of grade >= 2")
    P = invariants._omega_tables(setup.omega).Winv
    out = Form.zero(a.grade - 2)
    for i in range(DIM):
        for j in range(i + 1, DIM):
            c = P[j][i]
            if c:
                ei = [0] * DIM
                ei[i] = 1
                ej = [0] * DIM
                ej[j] = 1
                out = out + interior(ej, interior(ei, a)) * c
    return out


def dlambdad(setup, a):
    """The composition d Lambda d."""
    return setup.algebra.d(lefschetz_lambda(setup, setup.algebra.d(a)))


# LieAlgebra6.is_unimodular and flow_operator are used only by the tests; each
# states a paper claim they check: the built-in algebras are unimodular, and
# d Lambda d F is 4 hat_H e^135 on the nil algebra and 0 on the abelian one.
def flow_operator(setup, phi):
    """d Lambda d F(phi) for an invariant primitive 3-form.

    The result is invariant by construction and must come back primitive;
    a non-primitive image violates the operator's contract and raises.  On
    floats the output is cut relative to tol |phi|^3, its degree in the
    input, since a vanishing image is itself rounding residue.
    """
    invariants._check_primitive(phi, setup.omega, DEFAULT_TOL, "flow input")
    F = compute_F(phi, setup.omega)
    out = dlambdad(setup, F)
    invariants._check_primitive(out, setup.omega, DEFAULT_TOL,
                                "flow output (internal error)", phi.max_abs() ** 3)
    return out


def dlambdad_coords_matrix(setup):
    """14x14 matrix of d Lambda d on the primitive basis (columns = images).

    Requires the standard symplectic form, since the coefficient basis is
    tied to it."""
    if setup.omega != standard_omega():
        raise ValueError("the primitive coefficient basis assumes the standard omega")
    cols = []
    for b in PRIMITIVE_BASIS:
        img = dlambdad(setup, b)
        cols.append(form_to_coords(img))
    return [[cols[j][i] for j in range(14)] for i in range(14)]


def kernel_of_dlambdad(setup):
    """Basis (list of Forms) of the kernel of d Lambda d on invariant
    primitive 3-forms; a float matrix cuts its singular values at 1e-10
    of the largest."""
    mat = dlambdad_coords_matrix(setup)
    vecs = linalg.nullspace(mat, 1e-10)
    return [coords_to_form(PrimitiveCoords(*v)) for v in vecs]


def nijenhuis(setup, phi):
    """Nijenhuis tensor of K(phi) on the 15 basis pairs.

    Returns {(i, j): vector} for 1 <= i < j <= 6 with
    N(X,Y) = -K^2[X,Y] + K([KX,Y] + [X,KY]) - [KX,KY].
    """
    return _nijenhuis_of(setup.algebra, compute_K(phi, setup.omega))


def _nijenhuis_of(alg, K):
    rows = K.rows

    def kvec(v):
        return tuple(sum(rows[l][m] * v[m] for m in range(DIM)) for l in range(DIM))

    out = {}
    for i in range(DIM):
        for j in range(i + 1, DIM):
            X = tuple(int(m == i) for m in range(DIM))
            Y = tuple(int(m == j) for m in range(DIM))
            KX, KY = kvec(X), kvec(Y)
            term1 = kvec(kvec(alg.bracket(X, Y)))
            mid = tuple(a + b for a, b in zip(alg.bracket(KX, Y), alg.bracket(X, KY)))
            term2 = kvec(mid)
            term3 = alg.bracket(KX, KY)
            out[(i + 1, j + 1)] = tuple(-term1[k] + term2[k] - term3[k]
                                        for k in range(DIM))
    return out


def nijenhuis_identity_sides(setup, phi, extra_df_term=False):
    """Both sides of the Nijenhuis identity on all 15 basis pairs.

    For an invariant primitive 3-form the contraction of N_K(X,Y) into
    omega^3/3! expands as

        iota_Y iota_X dphi ^ F
        + 2 phi ^ (iota_Y iota_{KX} - iota_X iota_{KY}) dphi
        + phi ^ iota_Y iota_X dF.

    The further candidate term - dphi ^ iota_Y iota_X F does NOT belong to
    the identity (its coefficient is zero); set ``extra_df_term`` to include
    it anyway and observe the exact mismatch it produces.

    Returns {(i, j): (lhs 5-form, rhs 5-form)}.
    """
    vol = invariants._resolve_vol(setup.omega, None)
    K, F = compute_K(phi, vol=vol), compute_F(phi, vol=vol)
    dphi = setup.algebra.d(phi)
    dF = setup.algebra.d(F)
    N = _nijenhuis_of(setup.algebra, K)
    rows = K.rows
    out = {}
    for i in range(DIM):
        for j in range(i + 1, DIM):
            X = tuple(int(m == i) for m in range(DIM))
            Y = tuple(int(m == j) for m in range(DIM))
            KX = tuple(rows[l][i] for l in range(DIM))
            KY = tuple(rows[l][j] for l in range(DIM))
            lhs = interior(N[(i + 1, j + 1)], vol)
            rhs = wedge(interior(Y, interior(X, dphi)), F)
            mixed = interior(Y, interior(KX, dphi)) - interior(X, interior(KY, dphi))
            rhs = rhs + 2 * wedge(phi, mixed)
            rhs = rhs + wedge(phi, interior(Y, interior(X, dF)))
            if extra_df_term:
                rhs = rhs - wedge(dphi, interior(Y, interior(X, F)))
            out[(i + 1, j + 1)] = (lhs, rhs)
    return out


# --- integrability and the Nijenhuis identity on tables -------------------------
#
# d phi, dF, N_K and both sides of the identity are polynomial in phi (K
# quadratic, F cubic, d phi linear, dF cubic) and linear in the structure
# constants, so all 15 basis pairs are contracted at once from the K and F
# numerators and a few arrays.  Every array is read off interior, wedge, d and
# bracket on basis forms, so d, nijenhuis and nijenhuis_identity_sides stay the
# definitions; the tests hold the tables to them entry for entry.

_MASKS4 = tuple(m for m in range(1 << DIM) if m.bit_count() == 4)
_PAIRS = tuple((i, j) for i in range(DIM) for j in range(i + 1, DIM))
_PAIR_I, _PAIR_J = (np.array(x) for x in zip(*_PAIRS))


class _Contractions(NamedTuple):
    """ii[i, j] takes the coefficients of a 4-form to those of iota_{e_j}
    iota_{e_i} of it, an invariants._Gather: of the 8100 entries of the
    dense table, 180 are nonzero, at most one per output.  The wedge with
    the basis 2-forms onto 5-forms and iota_x e^123456 are invariants'
    _WEDGE2 and _IVOL.  The r_* are the largest absolute row sums over the
    contracted indices of ii, _WEDGE2 (over the 2-forms and the 3-forms)
    and _IVOL."""
    ii: invariants._Gather
    r_ii: int
    r_w: int
    r_vol: int


@functools.cache
def _contraction_tables():
    """The _Contractions, ii read off interior on basis forms as an int64
    array on first use, not at import."""
    unit, m2 = invariants._unit, invariants._MASKS2
    ii = np.array([[basis_matrix(lambda e: interior(unit(j), interior(unit(i), e)),
                                 _MASKS4, m2) for j in range(DIM)] for i in range(DIM)],
                  np.int64)
    return _Contractions(invariants._Gather.of(ii), int(abs(ii).sum(axis=3).max()),
                         int(abs(_WEDGE2.sign).sum(axis=1).max()),
                         int(abs(_IVOL.sign).max()))


class _IdentityTables(NamedTuple):
    """d[r, m]: E times the coefficient of the r-th basis 4-form in d of the
    m-th basis 3-form; bracket[k, i, j] = E [e_i, e_j]^k.  When the
    structure constants are exact, E is the lcm of their denominators, so
    the tables are int: int64 when small, object (Python ints) when large;
    otherwise E = 1 and they are float64.  d_rows is the largest absolute
    row sum of d and bracket_max the largest |entry| of bracket."""
    d: np.ndarray
    bracket: np.ndarray
    E: int
    d_rows: object
    bracket_max: object


def _identity_tables(setup):
    """The setup's _IdentityTables, built from d and bracket on basis forms
    on first use and cached on the setup.  Every structure constant is a
    bracket entry, so E clears the constants themselves."""
    if setup._identity is None:
        alg, unit = setup.algebra, invariants._unit
        d = np.array(basis_matrix(alg.d, invariants._MASKS3, _MASKS4), object)
        br = np.array([[alg.bracket(unit(i), unit(j)) for j in range(DIM)]
                       for i in range(DIM)], object).transpose(2, 0, 1)
        entries = [*d.flat, *br.flat]
        E, dtype = 1, np.float64
        if all(map(is_exact, entries)):
            E, ints = _clear_denominators(entries)
            d = np.array(ints[:d.size], object).reshape(d.shape)
            br = np.array(ints[d.size:], object).reshape(br.shape)
            dtype = np.int64 if max(map(abs, ints)) < _INT64_BOUND else object
        tables = _IdentityTables(d.astype(dtype), br.astype(dtype), E,
                                 abs(d).sum(axis=1).max(), abs(br).max())
        tables.d.flags.writeable = tables.bracket.flags.writeable = False
        setup._identity = tables
    return setup._identity


def _sides_dtype(ev, t):
    """float64 unless phi, whose _Evaluation is ev, and the setup are both
    exact.  Then int64 when a bound from max|P|, max|k|, max|f| and the
    tables' absolute row sums shows that no intermediate of _table_sides
    reaches 2^62, else object, on Python ints."""
    if not ev.exact or t.d.dtype == np.float64:
        return "float64"
    if t.d.dtype == object:
        return "object"
    c = _contraction_tables()
    p, k, f = ev.size, int(abs(ev.ka).max()), 2 * int(abs(ev.fa).max())  # f = -2 ev.fa
    dp, df = t.d_rows * p, t.d_rows * f
    a, af = c.r_ii * dp, c.r_ii * df
    u = DIM * k * a                            # U sums DIM terms
    inner = 4 * u + af
    rhs = c.r_w * (f * a + p * inner)
    n = 4 * DIM * DIM * t.bracket_max * k * k  # N sums 144 products k k [e_a, e_b]
    bound = max(p, k, f, dp, df, a, u, inner, c.r_w * max(p, f), rhs, n, c.r_vol * n)
    return "int64" if bound < _INT64_BOUND else "object"


def _table_core(setup, phi):
    """(ev, E, k, P, f, dP, df, N): what every reader of the tables needs.

    P = D phi is the coefficient vector of phi in _MASKS3 order, D the lcm
    of the denominators of an exact phi (else 1), and ev its _Evaluation,
    with c the coefficient of vol; k = c K(P) (6x6) and f = c F(P) are the
    K and F numerators.  Over the tables, whose structure constants carry
    E, dP = E D d phi and df = c E D^3 dF on the basis 4-forms, and
    N[:, i, j] = -k^2[e_i,e_j] + k([ke_i,e_j] + [e_i,ke_j]) - [ke_i,ke_j]
    is c^2 E D^4 N_K(e_i, e_j).  Exact input runs in int64 or on Python
    ints, as _sides_dtype decides, and float input in float64."""
    vol = invariants._resolve_vol(setup.omega, None)
    ev = invariants._evaluate(phi, vol)
    t = _identity_tables(setup)
    dtype = _sides_dtype(ev, t)
    with np.errstate(over="ignore"):  # -2 fa overflows as a Python float does
        d, br, P, k, f = (x.astype(dtype, copy=False) for x in (
            t.d, t.bracket, ev.a[:-1], ev.ka[:-1].reshape(DIM, DIM), -2 * ev.fa))
    kb = np.einsum("ka,aij->kij", k, br)         # k [e_i, e_j]
    bk = np.einsum("kaj,ai->kij", br, k)         # [k e_i, e_j]
    # [k e_i, k e_j] = sum_b [k e_i, e_b] k[b, j] is bk @ k
    N = np.einsum("ka,aij->kij", k, bk - bk.transpose(0, 2, 1) - kb) - bk @ k
    return ev, t.E, k, P, f, d @ P, d @ f, N


def _max_over(x, scale, core):
    """max|x| / |scale| as a float, an int x divided exactly, as a
    Fraction.  A float x is divided by c^2 E |P|^4 instead, with the names
    of core, a _table_core: the scale of N, at which integrability_flags
    cuts it, so that rounding reads alike at every scale of phi."""
    ev, E, *_ = core
    top = abs(x).max()
    if x.dtype == np.float64:
        c, size = float(ev.c), float(ev.size) or 1.0
        return float(top) / (c * c * E) / (size * size * size * size)
    return float(Fraction(int(top)) / abs(scale))


def _table_sides(setup, phi, core=None):
    """(lhs, rhs, scale): both sides of the Nijenhuis identity as (15, 6)
    arrays over the basis pairs _PAIRS and the basis 5-forms _MASKS5, each
    scale = c E D^4 times the side of nijenhuis_identity_sides; core is
    phi's _table_core, when the caller has it.

    With the names of _table_core, the lhs is iota_N e^123456, so
    c E D^4 iota_{N_K} vol.  The rhs is
    a W_f + (2(U - U^T) + iota_Y iota_X df) W_P, with a = iota_Y iota_X dP,
    U = iota_Y iota_{kX} dP and W_f, W_P the wedges with f and P; each of
    its three terms carries c from k or f, E from d and D^4 from its degree
    4 in phi."""
    ev, E, k, P, f, dP, df, N = core or _table_core(setup, phi)
    c = _contraction_tables()
    a = c.ii(dP)                                 # a[i, j] = iota_{e_j} iota_{e_i} dP
    # U[i, j] - U[j, i] at the pairs, U[i, j] = iota_{e_j} iota_{k e_i} dP
    U = (np.einsum("ln,lnp->np", k[:, _PAIR_I], a[:, _PAIR_J])
         - np.einsum("ln,lnp->np", k[:, _PAIR_J], a[:, _PAIR_I]))
    inner = 2 * U + c.ii(df)[_PAIR_I, _PAIR_J]
    rhs = a[_PAIR_I, _PAIR_J] @ _WEDGE2(f).T + inner @ _WEDGE2(P).T
    lhs = _IVOL(N[:, _PAIR_I, _PAIR_J]).T
    return lhs, rhs, ev.c * E * ev.D ** 4


def verify_nijenhuis_identity(setup, phi):
    """Largest coefficient residual of the Nijenhuis identity over all 15
    basis pairs; exactly zero on the rational backend for any invariant
    primitive phi.

    Both sides are homogeneous of degree 4 in phi and of degree 1 in the
    structure constants.  So an exact phi is checked as D phi, D the lcm of
    its denominators, over the setup's tables, whose constants carry E,
    with _table_sides, and the residual is divided by |c| E D^4.  On
    floats it is relative: divided by c^2 E |P|^4, |P| = max|P_i|."""
    core = _table_core(setup, phi)
    lhs, rhs, scale = _table_sides(setup, phi, core)
    return _max_over(lhs - rhs, scale, core)


def nijenhuis_max(setup, phi):
    """Largest |entry| of the Nijenhuis tensor of K(phi): max|N| over
    |c^2 E D^4|, with N of _table_core, divided as a Fraction on exact
    input; on floats relative, over c^2 E |P|^4."""
    core = _table_core(setup, phi)
    ev, E, *_, N = core
    return _max_over(N, ev.c * ev.c * E * ev.D ** 4, core)


def _identity_failure(setup, phi):
    """The first basis pair and 5-form component where the two sides of the
    exact identity differ, named as a check; None when they agree."""
    lhs, rhs, _ = _table_sides(setup, phi)
    bad = np.flatnonzero(lhs != rhs)
    if not len(bad):
        return None
    n, q = divmod(int(bad[0]), len(_MASKS5))
    i, j = _PAIRS[n]
    axes = "".join(str(a) for a in axes_from_mask(_MASKS5[q]))
    return f"iota_N vol = rhs at (X, Y) = (e_{i + 1}, e_{j + 1}), e^{axes}"


class IntegrabilityFlags(NamedTuple):
    integrable: bool       # d phi = 0
    F_integrable: bool     # d F(phi) = 0
    F_harmonic: bool       # both of the above
    K_integrable: bool     # Nijenhuis tensor of K(phi) vanishes
    Q_integrable: bool     # Q is constant: automatic for invariant forms


def integrability_flags(setup, phi):
    """d phi = 0, d F(phi) = 0 and N_K = 0, read off _table_core's dP, df
    and N, which are E D, c E D^3 and c^2 E D^4 times them.  On exact input
    each is an all-zero test on ints.  On floats each cut is relative to
    |P| = max|P_i| in its degree: tol |P| E for dP, tol |P|^3 |c| E for df
    and tol |P|^4 c^2 E for N."""
    ev, E, _, P, _, dP, df, N = _table_core(setup, phi)
    cuts = (0, 0, 0)
    if P.dtype == np.float64:
        size, c = float(ev.size), abs(float(ev.c))
        tol = DEFAULT_TOL * E
        cuts = (tol * size, tol * c * size ** 3, tol * c * c * size ** 4)
    integrable, F_integrable, K_integrable = (
        bool(abs(x).max() <= cut) for x, cut in zip((dP, df, N), cuts))
    return IntegrabilityFlags(integrable, F_integrable,
                              integrable and F_integrable, K_integrable, True)


# --- built-in algebras -------------------------------------------------------

def algebra_from_json(data, name=""):
    d = data["d"]
    if not isinstance(d, dict):
        raise ValueError('"d" must be an object keyed "1".."6"')
    d1 = []
    for i in range(1, DIM + 1):
        terms = d.get(str(i), [])
        d1.append(io.form_from_json(terms, grade=2))
    return LieAlgebra6(d1, name=data.get("name", name))


def load_builtin(name):
    path = resources.files("forms6").joinpath(f"data/algebras/{name}.json")
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise KeyError(f"no built-in algebra named {name!r}") from None
    return algebra_from_json(data, name=name)


def solv_algebra(lam=None):
    """Solvable algebra d e^1 = -lam e^15, d e^2 = lam e^25, d e^3 = -lam e^36,
    d e^4 = lam e^46.  The built-in value of lam is log((3+sqrt5)/2); any
    other lam (e.g. a rational stand-in for exact identity checks) yields the
    same family."""
    if lam is None:
        return load_builtin("solv-tomassini")
    e15 = Form(2, {0b010001: 1})
    e25 = Form(2, {0b010010: 1})
    e36 = Form(2, {0b100100: 1})
    e46 = Form(2, {0b101000: 1})
    zero = Form.zero(2)
    return LieAlgebra6([e15 * -lam, e25 * lam, e36 * -lam, e46 * lam, zero, zero],
                       name=f"solv(lam={lam})")


@functools.cache
def builtin_setup(name):
    """InvariantSetup for a named built-in algebra (standard omega), built
    once per process: the setup is immutable, and its derived operators,
    the reduced flow's table among them, cache on it."""
    return InvariantSetup.standard(load_builtin(name))
