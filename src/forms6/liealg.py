"""Six-dimensional Lie algebras and calculus of invariant forms.

A :class:`LieAlgebra6` is given by the 2-forms d e^i; the differential
extends to all invariant forms as an antiderivation (the Chevalley-Eilenberg
differential), with d^2 = 0 enforced at construction (equivalently Jacobi).
On top of an :class:`InvariantSetup` (algebra + closed symplectic form) this
module provides the Lefschetz contraction, the flow operator d Lambda d F,
Nijenhuis tensors of K(phi) and the integrability predicates for invariant
primitive 3-forms.

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

from . import invariants, io, linalg
from .exterior import (DIM, DEFAULT_TOL, Form, GradeError, _clear_denominators,
                       interior, wedge)
from .invariants import (PRIMITIVE_BASIS, PrimitiveCoords, compute_F,
                         compute_K, coords_to_form, form_to_coords,
                         standard_omega, volume_of)

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
        self._integral = None

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


def flow_operator(setup, phi):
    """d Lambda d F(phi) for an invariant primitive 3-form.

    The result is invariant by construction and must come back primitive;
    a non-primitive image violates the operator's contract and raises.
    """
    invariants._check_primitive(phi, setup.omega, DEFAULT_TOL, "flow input")
    F = compute_F(phi, setup.omega)
    out = dlambdad(setup, F)
    invariants._check_primitive(out, setup.omega, DEFAULT_TOL,
                                "flow output (internal error)")
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


def _is_exact_problem(setup, phi):
    return phi.is_exact() and setup.omega.is_exact() and all(
        f.is_exact() for f in setup.algebra.d_one)


def nijenhuis_max(setup, phi):
    """Largest |entry| of the Nijenhuis tensor of K(phi).  On exact input it
    is computed on D phi over the algebra scaled to int constants by E (see
    verify_nijenhuis_identity), and the exact maximum is divided by E D^4."""
    if not _is_exact_problem(setup, phi):
        return _max_entry(nijenhuis(setup, phi))
    D, phi = invariants._cleared(phi)
    E, setup = _integral_setup(setup)
    top = max((abs(x) for v in nijenhuis(setup, phi).values() for x in v), default=0)
    return float(Fraction(top, E * D ** 4))


def _max_entry(n):
    return max((abs(float(x)) for v in n.values() for x in v), default=0.0)


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
    K, F = invariants._K_and_F(phi, vol)
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


def _integral_setup(setup):
    """(E, the setup with every structure constant multiplied by E), E the lcm
    of their denominators, so that the constants are int; (1, setup) when one
    is not exact.  Cached on the setup."""
    if setup._integral is None:
        d1 = setup.algebra.d_one
        if all(f.is_exact() for f in d1):
            E, ints = _clear_denominators(x for f in d1 for x in f.coeffs.values())
            it = iter(ints)
            alg = LieAlgebra6([Form(f.grade, {m: next(it) for m in f.coeffs}) for f in d1],
                              name=f"{E} x {setup.algebra.name}")
            setup._integral = (E, InvariantSetup(alg, setup.omega))
        else:
            setup._integral = (1, setup)
    return setup._integral


def verify_nijenhuis_identity(setup, phi):
    """Largest coefficient residual of the Nijenhuis identity over all 15
    basis pairs; exactly zero on the rational backend for any invariant
    primitive phi.

    Both sides are homogeneous of degree 4 in phi and of degree 1 in the
    structure constants.  So an exact phi is checked as D phi, D the lcm of
    its denominators, on the algebra with its constants scaled by E to int,
    and the residual is divided by E D^4."""
    D = 1
    if phi.is_exact():
        D, phi = invariants._cleared(phi)
    E, setup = _integral_setup(setup)
    sides = nijenhuis_identity_sides(setup, phi)
    return max((l - r).max_abs() for l, r in sides.values()) / (E * D ** 4)


class IntegrabilityFlags(NamedTuple):
    integrable: bool       # d phi = 0
    F_integrable: bool     # d F(phi) = 0
    F_harmonic: bool       # both of the above
    K_integrable: bool     # Nijenhuis tensor of K(phi) vanishes
    Q_integrable: bool     # Q is constant: automatic for invariant forms


def integrability_flags(setup, phi):
    """d phi = 0, d F(phi) = 0 and N_K = 0 are each unchanged when phi is
    scaled by D and the structure constants by E, so exact input is tested
    on D phi over the integral algebra, where every zero test runs on int."""
    exact = _is_exact_problem(setup, phi)
    if exact:
        phi = invariants._cleared(phi)[1]
        setup = _integral_setup(setup)[1]
    ztol = 0.0 if exact else DEFAULT_TOL * max(1.0, phi.max_abs()) ** 3

    dphi = setup.algebra.d(phi)
    integrable = dphi.is_zero(0.0 if exact else DEFAULT_TOL * max(1.0, phi.max_abs()))
    K, F = invariants._K_and_F(phi, invariants._resolve_vol(setup.omega, None))
    F_integrable = setup.algebra.d(F).is_zero(ztol)
    K_integrable = _max_entry(_nijenhuis_of(setup.algebra, K)) <= ztol
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
