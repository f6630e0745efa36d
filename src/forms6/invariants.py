"""Equivariant invariants and orbit classification of 3-forms on (V^6, omega).

Built around three polynomial invariants of a 3-form phi, trivialized by the
volume form omega^3/3!:

* ``compute_K``  -- the quadratic endomorphism, iota_{K v} vol = -iota_v phi ^ phi
* ``compute_F``  -- the cubic 3-form, F(v1,v2,v3) = -2 phi(K v1, v2, v3)
* ``compute_Q``  -- the quartic scalar, Q = -(phi ^ F) / vol

together with the symmetric bilinear form ``q_form``, GL and Sp orbit
classification, and the 14-coefficient parametrization of primitive 3-forms
(``PrimitiveCoords``) with its closed-form image ``hat_map`` under -F/2.
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .exterior import (DIM, DEFAULT_TOL, FULL_MASK, Form, GradeError,
                       LinearMap6, _clear_denominators, _exact_div, basis,
                       basis_matrix, interior, is_exact, pullback, wedge)

# GL(V) orbit labels
O_MINUS = "O-"
O_PLUS = "O+"
O_0 = "O0"
O_1 = "O1"
O_3 = "O3"
O_6 = "O6"


class _OrbitEntry(NamedTuple):
    gl: str
    signature: tuple  # (n0, n+, n-) of q; (6, 0, 0) on O3 and O6, where q = 0
    normal_form: Form


# The Sp(V, omega) orbits of primitive 3-forms: each label's GL orbit (the
# sign of Q, or dim ker phi where Q = 0), the signature of q that splits it,
# and its normal form at mu = 1 (standard omega).
SP_ORBITS = {
    "O-+": _OrbitEntry(O_MINUS, (0, 6, 0), basis(1, 3, 5) - basis(1, 4, 6)
                       - basis(2, 3, 6) - basis(2, 4, 5)),
    "O--": _OrbitEntry(O_MINUS, (0, 2, 4), basis(1, 3, 5) - basis(1, 4, 6)
                       + basis(2, 3, 6) + basis(2, 4, 5)),
    "O+": _OrbitEntry(O_PLUS, (0, 3, 3), basis(1, 3, 5) + basis(2, 4, 6)),
    "O0+": _OrbitEntry(O_0, (3, 3, 0),
                       basis(1, 4, 6) + basis(2, 3, 6) + basis(2, 4, 5)),
    "O0-": _OrbitEntry(O_0, (3, 1, 2),
                       basis(1, 4, 6) - basis(2, 3, 6) - basis(2, 4, 5)),
    "O1+": _OrbitEntry(O_1, (5, 1, 0), basis(1, 3, 5) - basis(2, 4, 5)),
    "O1-": _OrbitEntry(O_1, (5, 0, 1), basis(1, 3, 5) + basis(2, 4, 5)),
    "O3": _OrbitEntry(O_3, (6, 0, 0), basis(1, 3, 5)),
    "O6": _OrbitEntry(O_6, (6, 0, 0), Form.zero(3)),
}
SP_LABELS = tuple(SP_ORBITS)
_SP_OF = {(o.gl, o.signature): label for label, o in SP_ORBITS.items()}
_GL_OF_KERNEL = {0: O_0, 1: O_1, 3: O_3, 6: O_6}  # dim ker phi where Q = 0

# default tolerance of the float orbit decisions: Q = 0, ranks, signatures
ORBIT_TOL = 1e-8


def _check_tol(tol):
    """Refuse a relative cut that decides nothing, or reads every rank 0."""
    if not (math.isfinite(tol) and 0 < tol < 1):
        raise ValueError(f"tol must be finite and in (0, 1), got {tol}")


def standard_omega():
    """The standard symplectic form e^12 + e^34 + e^56."""
    return basis(1, 2) + basis(3, 4) + basis(5, 6)


def standard_volume():
    return basis(1, 2, 3, 4, 5, 6)


def volume_of(omega):
    """omega^3/3!; raises on degenerate omega."""
    if omega.grade != 2:
        raise GradeError("symplectic form must have grade 2")
    vol = wedge(wedge(omega, omega), omega).map_coeffs(lambda c: _exact_div(c, 6))
    if not vol:
        raise ValueError("degenerate symplectic form: omega^3 = 0")
    return vol


def _resolve_vol(omega, vol):
    if vol is not None:
        if not vol or vol.grade != DIM:
            raise ValueError("volume form must be a nonzero 6-form")
        return vol
    if omega is None:
        raise ValueError("need a symplectic form or a volume form")
    return _omega_tables(omega).vol


# --- K, F and Q on cleared denominators -------------------------------------
#
# K(phi) is quadratic in phi and phi(K., ., .) is cubic, so with c the
# coefficient of vol, c K(phi) and c phi(K., ., .) are fixed integer
# combinations of products of the coefficients of phi.  The tables below are
# derived at import from the Form-level definitions and evaluated on the
# coefficient vector of phi.  An exact phi is first scaled by the lcm D of
# its denominators, so the tables run on int, and each output entry is
# divided once at the end: K by D^2 c, F by D^3 c and Q by D^4 c^2.
# Each table with one signed term per output is a _Gather, read off interior
# or wedge on basis forms by basis_matrix: _CONTR, _WEDGE1, _WEDGE2 and
# _IVOL.  K's table is their composition and F's reads _CONTR.
# The K and F tables run as one gather-multiply-reduce each: column o of the
# (L, n) index and sign arrays holds the terms of output o in table order,
# padded with sign 0 at a zero slot, and the sum runs down axis 0 from 0, bit
# for bit as a Python loop would (numpy sums 8 or more terms pairwise along
# the last axis).  Float terms overflow as Python floats do, with no warning.

_MASKS2 = tuple(m for m in range(1 << DIM) if m.bit_count() == 2)
_MASKS3 = tuple(m for m in range(1 << DIM) if m.bit_count() == 3)
_MASKS5 = tuple(m for m in range(1 << DIM) if m.bit_count() == 5)
_INDEX3 = {m: n for n, m in enumerate(_MASKS3)}


def _unit(j):
    e = [0] * DIM
    e[j] = 1
    return e


class _Gather(NamedTuple):
    """A contraction table with at most one nonzero entry per output, as
    the index of that entry and its value (0 where there is none): the
    table applied to x, contracting x's first axis, is sign x[src], in x's
    dtype and with every bit of x."""
    src: np.ndarray
    sign: np.ndarray

    @classmethod
    def of(cls, table):
        """The _Gather of an int table over its last axis; raises if an
        output has two nonzero entries."""
        table = np.asarray(table)
        nonzero = table != 0
        if nonzero.sum(axis=-1).max() > 1:
            raise ValueError("not a gather: an output has two nonzero entries")
        src = nonzero.argmax(axis=-1)
        return cls(src, np.take_along_axis(table, src[..., None], -1)[..., 0])

    def __call__(self, x):
        sign = self.sign.reshape(self.sign.shape + (1,) * (x.ndim - 1))
        return sign * x[self.src]


# over the coefficients of a 3-form in _MASKS3 order: _CONTR[i, p] gives the
# coefficient of e^(_MASKS2[p]) in iota_{e_i} of it, _WEDGE1[j, p] that of
# e^(all axes but _MASKS2[p]) in e^j ^ it (a 4-form by its complement), and
# _WEDGE2[q, p] that of e^(_MASKS5[q]) in e^(_MASKS2[p]) ^ it; over a vector
# x, _IVOL[q] gives that of e^(_MASKS5[q]) in iota_x e^123456
_CONTR = _Gather.of([basis_matrix(functools.partial(interior, _unit(i)), _MASKS3, _MASKS2)
                     for i in range(DIM)])
_WEDGE1 = _Gather.of([basis_matrix(functools.partial(wedge, basis(j + 1)), _MASKS3,
                                   [FULL_MASK ^ p for p in _MASKS2]) for j in range(DIM)])
_WEDGE2 = _Gather.of(np.stack([basis_matrix(functools.partial(wedge, Form._trusted(2, {p: 1})),
                                            _MASKS3, _MASKS5) for p in _MASKS2], axis=1))
_IVOL = _Gather.of(np.hstack([basis_matrix(functools.partial(interior, _unit(k)),
                                           (FULL_MASK,), _MASKS5) for k in range(DIM)]))


def _build_K_table():
    """Row o of the table: the terms (a, b, t), in (a, b) order, of entry
    o = i*DIM + j of c K(phi) as a sum of t phi_a phi_b over index pairs
    a < b, read off iota_{K e_j} vol = -iota_{e_j} e^a ^ e^b.  By the
    gathers, iota_{e_j} e^a = s e^p, e^p ^ e^b = s' e^(_MASKS5[q]) and
    iota_{e_i} vol = s'' e^(_MASKS5[q]), so each (j, q, p) adds -s s' s''
    on the pair {a, b} at entry (i, j)."""
    j, q, p = np.ix_(range(DIM), range(len(_MASKS5)), range(len(_MASKS2)))
    a, b = _CONTR.src[j, p], _WEDGE2.src[q, p]
    dense = np.zeros((DIM * DIM, len(_MASKS3), len(_MASKS3)), np.int64)
    np.add.at(dense, (_IVOL.src[q] * DIM + j, np.minimum(a, b), np.maximum(a, b)),
              -_CONTR.sign[j, p] * _WEDGE2.sign[q, p] * _IVOL.sign[q])
    table = []
    for d in dense:
        a, b = np.nonzero(d)
        table.append(tuple(zip(a.tolist(), b.tolist(), d[a, b].tolist())))
    return tuple(table)


def _build_F_table():
    """For each basis 3-form e^t, t = {i < j < k}, the three readings
    phi(K e_i, e_j, e_k) = -phi(K e_j, e_i, e_k) = phi(K e_k, e_i, e_j)
    of -c F_t/2, each a sum of s (c K)_{l, first} phi_m over the terms
    iota_{e_l} e^m = s e^pair of _CONTR that reach the pair."""
    table = []
    for t in _MASKS3:
        readings = []
        for pos, i in enumerate(j for j in range(DIM) if t >> j & 1):
            p = _MASKS2.index(t ^ (1 << i))
            src, s = _CONTR.src[:, p].tolist(), _CONTR.sign[:, p].tolist()
            sign = -1 if pos == 1 else 1
            readings.append(tuple((l * DIM + i, src[l], sign * s[l])
                                  for l in range(DIM) if s[l]))
        table.append(tuple(readings))
    return tuple(table)


_K_TABLE = _build_K_table()
_F_TABLE = _build_F_table()


def _columns(groups, pad):
    """One (L, len(groups)) array per slot of the term tuples: row l of
    column n holds term l of groups[n], or pad past its end."""
    rows = max(map(len, groups))
    return tuple(np.array(x).reshape(rows, -1) for x in zip(*(
        g[l] if l < len(g) else pad for l in range(rows) for g in groups)))


# the zero slots: a trailing 0 of the coefficients, and of the K numerators
# from an empty last group; column t + 20 r of F is reading r of -c F_t/2
_ZERO_V, _ZERO_K = len(_MASKS3), DIM * DIM
_K_A, _K_B, _K_T = _columns(_K_TABLE + ((),), (_ZERO_V, _ZERO_V, 0))
_F_K, _F_V, _F_S = _columns([terms for reading in zip(*_F_TABLE) for terms in reading],
                             (_ZERO_K, _ZERO_V, 0))
#: the int64 route runs only when every intermediate is bounded below this
_INT64_BOUND = 1 << 62
# every K and F term and partial sum is at most _KMAX size^2, _FMAX _KMAX size^3
_KMAX = int(abs(_K_T).sum(axis=0).max())
_FMAX = int(abs(_F_S).sum(axis=0).max())
# entry t: (index of the complement of e^t, sign of e^t ^ e^(complement)), read
# off e^t ^ (the sum of all basis 3-forms), where only the complement survives
_ALL3 = Form._trusted(3, dict.fromkeys(_MASKS3, 1))
_Q_TABLE = tuple((_INDEX3[FULL_MASK ^ t], s) for t, s in zip(
    _MASKS3, basis_matrix(lambda e: wedge(e, _ALL3), _MASKS3, (FULL_MASK,))[0]))


@np.errstate(over="ignore", invalid="ignore")
def _K_numerators(a):
    """The 36 entries of c K(phi), row-major, and a trailing 0, from the
    coefficient array a of an _Evaluation, in its dtype."""
    return (_K_T * (a[_K_A] * a[_K_B])).sum(axis=0, initial=0)


@np.errstate(over="ignore", invalid="ignore")
def _F_numerators(ev):
    """The 20 coefficients of -c F(phi)/2, in a's dtype, from ev.ka.

    That phi(K v1, v2, v3) alternates in its first slot against the others is
    a theorem, not bookkeeping, so every reading is checked: exactly on the
    exact backend, and relative to DEFAULT_TOL max|phi|^3 (c F is cubic in
    phi) on floats.  A failure means K is broken and raises."""
    scale = 0.0 if ev.exact else DEFAULT_TOL * ev.size ** 3
    g0, g1, g2 = ((_F_S * ev.ka[_F_K]) * ev.a[_F_V]).sum(axis=0, initial=0).reshape(3, -1)
    bad = (abs(g0 - g1) > scale) | (abs(g0 - g2) > scale)
    if bad.any():
        axes = tuple(i + 1 for i in range(DIM) if _MASKS3[bad.argmax()] >> i & 1)
        raise ArithmeticError(f"F(phi) is not alternating at {axes}; K is inconsistent")
    return g0


def _divider(ev, power):
    """x -> x / (D^power c).  On the exact backend the quotient stays an int
    when D^power c = 1, so integer forms keep integer K and F."""
    c = ev.c
    if not ev.exact:
        return lambda x: x / c
    den = ev.D ** power * c.numerator
    mul = c.denominator
    if den == mul == 1:
        return lambda x: x
    return lambda x: Fraction(x * mul, den) if x else 0


def _K_of(ev):
    div, kn = _divider(ev, 2), ev.ka.tolist()
    return LinearMap6([[div(kn[i * DIM + j]) for j in range(DIM)]
                       for i in range(DIM)])


def _F_of(ev):
    div = _divider(ev, 3)
    return Form._trusted(3, {m: div(-2 * g) for m, g in zip(_MASKS3, ev.fa.tolist()) if g})


# --- one evaluation per form ------------------------------------------------
#
# _evaluate keeps the evaluation of the last form, which serves the calls a
# caller makes on one form in a row.  Forms are mutable, so the key is their
# content.  It leads with the two exactness markers: the types of phi's
# values (exactness only, on exact input, whose a is cleared ints) and of
# vol's coefficient (likewise), so a form of the other backend fails at its
# marker and no Fraction is compared with its float copy.  Then come grade,
# masks in dict order, values and vol's coefficient.  The slot is one tuple
# swap and ka, fa and the derived entries are filled idempotently, so a race
# can only miss.  No caller mutates an _Evaluation or a value it hands out.
# The contraction and one-form wedge rows, for dim ker phi and the
# (Ann phi)^perp rank, are the gathers _CONTR(a) and _WEDGE1(a).

class _Evaluation:
    """phi as the table input: a, the coefficients of D phi in _MASKS3 order
    and a trailing 0, size = max|a_i| unconverted (an exact int may lie past
    the float range), and c, the coefficient of vol.  On the exact backend
    (phi and vol exact) D clears every denominator of phi, so a holds ints;
    otherwise D = 1, and a is exact when phi is (exact_phi).  a is int64
    below the bound _FMAX _KMAX size^3 < _INT64_BOUND, else objects (Python
    ints, or an exact phi under a float vol), and float64 on floats.  On
    first use, its K numerators ka (a's dtype, and a 0), its F numerators fa,
    checked at DEFAULT_TOL, and the entries derived from them, each keyed on
    what it reads beyond phi and vol: Q, dim ker phi (at tol on a float
    rank) and the checked q (under omega's tables, at tol).  A check that
    raises stores nothing."""
    __slots__ = ("a", "D", "c", "exact", "exact_phi", "size", "_ka", "_fa", "_derived")

    def __init__(self, phi, vol):
        if phi.grade != 3:
            raise GradeError("K is defined for 3-forms")
        c = vol.coeffs[FULL_MASK]
        self.exact_phi = phi.is_exact()
        self.exact = self.exact_phi and is_exact(c)
        D, xs = 1, phi.coeffs.values()
        if self.exact:
            D, xs = _clear_denominators(xs)
        else:
            for x in xs:
                if not math.isfinite(x):
                    raise ValueError(f"non-finite coefficient {x!r}")
            if is_exact(c):
                c = float(c)
        v = [0] * (len(_MASKS3) + 1)
        for m, x in zip(phi.coeffs, xs):
            v[_INDEX3[m]] = x
        self.D, self.c, self.size = D, c, max(map(abs, v))
        small = self.exact and _FMAX * _KMAX * self.size ** 3 < _INT64_BOUND
        self.a = np.array(v, np.int64 if small else object if self.exact_phi else np.float64)
        self._ka = self._fa = self._derived = None

    @property
    def ka(self):
        if self._ka is None:
            self._ka = _K_numerators(self.a)
        return self._ka

    @property
    def fa(self):
        if self._fa is None:
            self._fa = _F_numerators(self)
        return self._fa

    def _entry(self, key, make, *args):
        d = self._derived
        if d is None:  # made on the first derived read: a cold K costs no more
            d = self._derived = {}
        if key not in d:
            d[key] = make(*args)
        return d[key]

    def Q(self):
        return self._entry("Q", _Q_of, self)

    def ker_phi(self, tol):
        return self._entry(("ker", None if self.exact_phi else tol), _ker_phi, self, tol)

    def q(self, tables, tol, what):
        """(n, den) of q under omega's tables, after the primitivity check,
        which names phi as what.  The entry holds tables, so while it lives
        no other tables object can take its id."""
        return self._entry(("q", id(tables), tol), _checked_q, self, tables, tol, what)[1:]


_EXACT_TYPES = frozenset((int, Fraction))
_last = (None, None)  # (key, _Evaluation) of the last form evaluated


def _evaluate(phi, vol):
    """The _Evaluation of phi against vol, the last one when its key holds."""
    global _last
    c, xs = vol.coeffs[FULL_MASK], tuple(phi.coeffs.values())
    types = tuple(map(type, xs))
    key = (_EXACT_TYPES.issuperset(types) or types, type(c) in _EXACT_TYPES or type(c),
           phi.grade, tuple(phi.coeffs), xs, c)
    last = _last  # read once: another thread may swap the slot
    if last[0] != key:
        last = _last = key, _Evaluation(phi, vol)
    return last[1]


def compute_K(phi, omega=None, vol=None):
    """The endomorphism K(phi) relative to vol = omega^3/3! (or a given vol).

    Column j is K(e_j), the unique vector with
    iota_{K e_j} vol = -iota_{e_j} phi ^ phi.
    """
    return _K_of(_evaluate(phi, _resolve_vol(omega, vol)))


def compute_F(phi, omega=None, vol=None):
    """The 3-form F(phi), F(v1,v2,v3) = -2 phi(K v1, v2, v3), trivialized by vol.

    Alternation in the first slot against the others is not formal, so it is
    verified internally; a failure indicates a broken K and raises.
    """
    return _F_of(_evaluate(phi, _resolve_vol(omega, vol)))


def _Q_of(ev):
    """Q(phi) from its _Evaluation; a float Q past the float range raises."""
    v, gn = ev.a.tolist(), ev.fa.tolist()
    # -(phi ^ F)/vol with F = -2 gn / (D^3 c) and phi = v / D
    top = 2 * sum(sign * x * gn[n] for x, (n, sign) in zip(v, _Q_TABLE) if x)
    Q = _exact_div(top, ev.D ** 4) / (ev.c * ev.c)
    if not (ev.exact or math.isfinite(Q)):
        raise OverflowError(f"Q(phi) = {Q} is not a finite float")
    return Q


def compute_Q(phi, omega=None, vol=None):
    """The scalar Q(phi) = -(phi ^ F(phi)) / vol."""
    return _evaluate(phi, _resolve_vol(omega, vol)).Q()


def omega_matrix(omega):
    """W[i][j] = omega(e_i, e_j)."""
    w = [[0] * DIM for _ in range(DIM)]
    for m, c in omega.coeffs.items():
        i, j = (b for b in range(DIM) if m >> b & 1)
        w[i][j] = c
        w[j][i] = -c
    return w


@np.errstate(over="ignore", invalid="ignore")
def _require_primitive(ev, tables, tol, what, size=None):
    """Reject a form with omega ^ phi != 0, read off tables.P a on the table
    input a of its _Evaluation ev: exactly on the exact backend, above
    tol |phi| on floats, or above tol size when the caller gives the
    reference size (for a phi that may itself be rounding residue)."""
    w = (tables.P * ev.a[:, None]).sum(axis=0, initial=0).tolist()
    if ev.exact:
        if not any(w):
            return
        res = max(abs(float(Fraction(x, tables.dP * ev.D))) for x in w)
    else:
        res = max(map(abs, w)) / tables.dP
        if not res > tol * (float(ev.size) if size is None else size):
            return
    raise ValueError(f"{what} is not primitive: |omega ^ phi| = {res}")


def _check_primitive(phi, omega, tol, what, size=None):
    """_require_primitive on a 3-form phi and a symplectic form omega."""
    tables = _omega_tables(omega)
    _require_primitive(_evaluate(phi, tables.vol), tables, tol, what, size)


# --- q on cleared denominators ------------------------------------------------
#
# q(v1, v2) = omega(v1, K v2) is quadratic in phi: W kn / (D^2 c), with W the
# matrix of omega and kn the K numerators.  That it equals
# (iota_{v1}phi ^ iota_{v2}phi ^ omega)/vol and -<iota_{v1}phi, iota_{v2}phi>
# is a theorem, checked by the ``identities`` verification suite, not here.
# W and the primitivity table P are built once per omega as dense arrays,
# int64, Python ints or float64 (see _omega_tables_of), and both products
# sum down axis 0 from 0, bit for bit as the K and F gathers do.

class _OmegaTables(NamedTuple):
    """W, the matrix of one omega, cleared to int when omega is exact, with
    a multiplier m and den such that den D^2 q = m W kn.  Winv is W^-1 as
    linalg.inverse gives it, for the Lefschetz contraction.  Row n of P is
    what a_n of the table input adds to omega ^ phi on the basis 5-forms
    e^(all axes but i), cleared likewise: dP D (omega ^ phi) = sum_n a_n P[n]."""
    vol: Form
    Winv: tuple
    W: np.ndarray
    m: object
    den: object
    P: np.ndarray
    dP: object


@functools.lru_cache(maxsize=16)
def _omega_tables_of(grade, items, types):
    omega = Form(grade, dict(items))
    vol = volume_of(omega)
    c = vol.coeffs[FULL_MASK]
    W = omega_matrix(omega)
    inverse = tuple(map(tuple, linalg.inverse(W)))
    P, dP = basis_matrix(functools.partial(wedge, omega), _MASKS3,
                         [FULL_MASK ^ (1 << i) for i in range(DIM)]), 1
    if omega.is_exact():
        c = Fraction(c)
        dW, W = linalg._integral(W)
        dP, P = linalg._integral(P)
        den = dW * abs(c.numerator)
        m = c.denominator if c > 0 else -c.denominator
        # int64 when no product with an int64 ka or a can reach _INT64_BOUND (P's entries are W's)
        dtype = np.int64 if abs(m) * max(sum(map(abs, r)) for r in W) <= _FMAX else object
    else:  # float, vol too, though a float term of omega drops out of it
        vol, den, m, dtype = vol.to_float(), 1, 1 / float(c), np.float64
    return _OmegaTables(vol, inverse, np.array(W, dtype), m, den,
                        np.array([*zip(*P), (0,) * DIM], dtype), dP)


def _omega_tables(omega):
    # the value types key the cache too: 1, 1.0 and Fraction(1) hash alike
    items = tuple(omega.coeffs.items())
    return _omega_tables_of(omega.grade, items, tuple(type(x) for _, x in items))


@np.errstate(over="ignore", invalid="ignore")
def _q_of(ev, tables, tol):
    """(n, den) with q(omega, phi) = W kn / (D^2 c) = n / den, den > 0; n
    must be symmetric: exactly on the exact backend, where it is an int
    matrix, to tol max|phi|^2 on floats, where the division is done here
    and den = 1."""
    k = ev.ka[:-1].reshape(DIM, DIM)
    q = tables.m * (tables.W.T[:, :, None] * k[:, None]).sum(axis=0, initial=0)
    den, scale = tables.den * ev.D ** 2, 0
    if not ev.exact:
        q, den, scale = q / den, 1, tol * ev.size ** 2
    # NaN fails too; bad is symmetric, so its first entry is on or above the diagonal
    bad = ~(abs(q - q.T) <= scale)
    q = q.tolist()
    if bad.any():
        i, j = divmod(int(bad.argmax()), DIM)
        raise ArithmeticError(f"q-form is not symmetric at ({i},{j}): {q[i][j]} against "
                              f"{q[j][i]}; K is inconsistent")
    return q, den


def _checked_q(ev, tables, tol, what):
    _require_primitive(ev, tables, tol, what)
    return (tables, *_q_of(ev, tables, tol))


def q_form(phi, omega, tol=DEFAULT_TOL):
    """The symmetric bilinear form q(omega, phi) = omega(v1, K v2) of a
    primitive 3-form.

    Its symmetry holds on the primitive subspace only, which is the natural
    domain of this form, and is checked on every call: a failure means K is
    broken and raises.  Non-primitive input is rejected.  That q also equals
    (iota_{v1}phi ^ iota_{v2}phi ^ omega)/vol and -<iota_{v1}phi,
    iota_{v2}phi> is checked by ``forms6 verify --suite identities``.
    Primitivity is read off the per-omega table of omega ^ phi on the same
    coefficients that K is computed from.  On the exact backend the entries
    are int, or Fractions when a denominator is left.
    """
    _check_tol(tol)
    tables = _omega_tables(omega)
    q, den = _evaluate(phi, tables.vol).q(tables, tol, "q-form input")
    return [list(r) if den == 1 else [Fraction(x, den) for x in r] for r in q]


class SignatureTriple(NamedTuple):
    n0: int
    nplus: int
    nminus: int


def signature(sym, tol=ORBIT_TOL):
    """Inertia (n_zero, n_plus, n_minus) of a symmetric matrix: exact when
    every entry is exact, tol in (0, 1) unread; on floats, eigenvalues within
    tol * max|eigenvalue| of zero count as zero (linalg.signature_counts)."""
    _check_tol(tol)
    return SignatureTriple(*linalg.signature_counts(sym, tol))


class SubspaceDims(NamedTuple):
    ker_phi: int
    ker_K: int
    im_K: int
    ann_perp: int


def subspace_dims(phi, omega=None, vol=None, tol=ORBIT_TOL):
    """Dimensions (ker phi, ker K, im K, (Ann phi)^perp).

    Ranks of v -> iota_v phi (the contraction matrix), of K and of
    alpha -> alpha ^ phi, all taken on D phi: rank does not see the scale."""
    _check_tol(tol)
    ev = _evaluate(phi, _resolve_vol(omega if omega is not None else standard_omega(), vol))
    rk = _rank(ev, ev.ka[:-1].reshape(DIM, DIM), tol)
    return SubspaceDims(ev.ker_phi(tol), DIM - rk, rk,
                        _rank(ev, _WEDGE1(ev.a), tol))


def _rank(ev, rows, tol):
    """Rank of a (DIM, n) array in ev.a's dtype: exact on Python ints, or on
    Fractions for an exact phi under a float vol, else float at tol."""
    if not ev.exact_phi:
        return linalg.float_rank(rows, tol)
    rows = rows.tolist()
    return linalg.int_rank(rows) if ev.exact else linalg.exact_rank(rows)


def _ker_phi(ev, tol):
    """dim ker phi from the contraction matrix (row i: iota_{e_i} phi)."""
    return DIM - _rank(ev, _CONTR(ev.a), tol)


class ClassificationError(ValueError):
    """Raised when tolerancing produces an impossible orbit datum."""


def _q_is_zero(ev, Q, tol):
    if ev.exact:
        return Q == 0
    return abs(float(Q)) <= tol * max(1.0, float(ev.size)) ** 4


def _gl_orbit(ev, tol):
    """(GL(V) orbit label, Q) of phi from its _Evaluation ev.

    Stable orbits by the sign of Q; on the Q = 0 hypersurface dim ker phi
    (0, 1, 3, 6), from the contraction matrix on the same cleared
    coefficients, separates the remaining orbits."""
    Q = ev.Q()
    if not _q_is_zero(ev, Q, tol):
        return (O_MINUS if Q < 0 else O_PLUS), Q
    k = ev.ker_phi(tol)
    if k not in _GL_OF_KERNEL:
        raise ClassificationError(
            f"dim ker phi = {k} is impossible for a 3-form; check tolerances")
    return _GL_OF_KERNEL[k], Q


def classify_gl(phi, vol=None, tol=ORBIT_TOL):
    """GL(V) orbit label of a 3-form: the sign of Q, or where Q = 0 the
    dimension of ker phi."""
    _check_tol(tol)
    ev = _evaluate(phi, _resolve_vol(None, standard_volume() if vol is None else vol))
    return _gl_orbit(ev, tol)[0]


class SpOrbit(NamedTuple):
    label: str
    mu: object = None  # positive scalar for the stable orbits, else None


def classify_sp(phi, omega=None, tol=ORBIT_TOL):
    """Sp(V, omega) orbit of a primitive 3-form, with mu for stable orbits.

    The label is the SP_ORBITS entry with the GL orbit of _gl_orbit and the
    signature of q, measured except on O3 and O6.  On the exact backend that
    signature is linalg.exact_inertia of the int matrix den q, so tol is
    never read there; on floats it is measured at tol.  mu is recovered
    from Q: Q = -16 mu^4 on O- and 4 mu^4 on O+.  One K evaluation.
    """
    _check_tol(tol)
    if omega is None:
        omega = standard_omega()
    tables = _omega_tables(omega)
    ev = _evaluate(phi, tables.vol)
    q, _ = ev.q(tables, tol, "form")  # checked for primitivity and symmetry
    gl, Q = _gl_orbit(ev, tol)
    # q vanishes on O3 and O6: its inertia is (6, 0, 0), which a float
    # signature would misread in the rounding noise
    sig = (6, 0, 0) if gl in (O_3, O_6) else SignatureTriple(*(
        linalg.exact_inertia(q) if ev.exact else linalg.float_inertia(q, tol)))
    label = _SP_OF.get((gl, sig))
    if label is None:
        raise ClassificationError(f"{gl} form with unexpected signature {sig}")
    mu4 = {O_MINUS: -Q / 16, O_PLUS: Q / 4}.get(gl)
    return SpOrbit(label, None if mu4 is None else float(mu4) ** 0.25)


# --- the 14-coefficient parametrization of primitive 3-forms ----------------

class PrimitiveCoords(NamedTuple):
    """Coefficients of a primitive 3-form in the standard basis below."""
    A: object = 0
    B: object = 0
    C: object = 0
    D: object = 0
    E: object = 0
    F: object = 0
    G: object = 0
    H: object = 0
    I: object = 0
    J: object = 0
    K: object = 0
    L: object = 0
    M: object = 0
    N: object = 0

    def to_floats(self):
        return PrimitiveCoords(*(float(x) for x in self))


COORD_NAMES = PrimitiveCoords._fields

# basis of primitive 3-forms matching PrimitiveCoords slot by slot:
# eight pure masks, then six two-mask combinations e^a ^ (pair - pair)
PRIMITIVE_BASIS = (
    basis(1, 3, 5),
    basis(1, 3, 6),
    basis(1, 4, 5),
    basis(1, 4, 6),
    basis(2, 3, 5),
    basis(2, 3, 6),
    basis(2, 4, 5),
    basis(2, 4, 6),
    basis(1, 3, 4) - basis(1, 5, 6),
    basis(2, 3, 4) - basis(2, 5, 6),
    basis(1, 2, 3) - basis(3, 5, 6),
    basis(1, 2, 4) - basis(4, 5, 6),
    basis(1, 2, 5) - basis(3, 4, 5),
    basis(1, 2, 6) - basis(3, 4, 6),
)

_LEAD_MASKS = tuple(sorted(f.coeffs)[0] for f in PRIMITIVE_BASIS)


def coords_to_form(c):
    """The primitive 3-form with the given coefficients (standard omega):
    the sum of x b over the PRIMITIVE_BASIS forms b, whose masks are
    disjoint, so each coefficient is s x for the sign s of its mask."""
    return Form._trusted(3, {m: s * x for x, b in zip(c, PRIMITIVE_BASIS) if x != 0
                             for m, s in b.coeffs.items()})


def form_to_coords(phi):
    """Coefficients of a primitive 3-form; rejects non-primitive input."""
    if phi.grade != 3:
        raise GradeError("expected a 3-form")
    _check_primitive(phi, standard_omega(), DEFAULT_TOL, "form")
    return PrimitiveCoords(*(phi.coeffs.get(m, 0) for m in _LEAD_MASKS))


def hat_map(c):
    """Closed-form coefficients of -F(phi)/2 for phi = coords_to_form(c).

    This is the polynomial shortcut for the cubic invariant on primitive
    forms; coords_to_form(hat_map(c)) == -compute_F(coords_to_form(c))/2
    exactly on the rational backend.
    """
    A, B, C, D, E, F, G, H, I, J, K, L, M, N = c
    hA = A * (A * H - B * G - C * F - D * E + 2 * I * J + 2 * K * L + 2 * M * N) \
        - 2 * (B * M**2 + C * K**2 + E * I**2 - B * C * E + 2 * I * K * M)
    hB = B * (A * H - B * G + C * F + D * E + 2 * I * J + 2 * K * L - 2 * M * N) \
        - 2 * (-A * N**2 + D * K**2 + F * I**2 + A * D * F + 2 * I * K * N)
    hC = C * (A * H + B * G - C * F + D * E + 2 * I * J - 2 * K * L + 2 * M * N) \
        - 2 * (-A * L**2 + D * M**2 + G * I**2 + A * D * G + 2 * I * L * M)
    hD = D * (-A * H - B * G - C * F + D * E + 2 * I * J - 2 * K * L - 2 * M * N) \
        - 2 * (-B * L**2 - C * N**2 + H * I**2 - B * C * H + 2 * I * L * N)
    hE = E * (A * H + B * G + C * F - D * E - 2 * I * J + 2 * K * L + 2 * M * N) \
        - 2 * (-A * J**2 + F * M**2 + G * K**2 + A * F * G + 2 * J * K * M)
    hF = F * (-A * H - B * G + C * F - D * E - 2 * I * J + 2 * K * L - 2 * M * N) \
        - 2 * (-B * J**2 + H * K**2 - E * N**2 - B * E * H + 2 * J * K * N)
    hG = G * (-A * H + B * G - C * F - D * E - 2 * I * J - 2 * K * L + 2 * M * N) \
        - 2 * (-C * J**2 - E * L**2 + H * M**2 - C * E * H + 2 * J * L * M)
    hH = H * (-A * H + B * G + C * F + D * E - 2 * I * J - 2 * K * L - 2 * M * N) \
        - 2 * (-D * J**2 - F * L**2 - G * N**2 + D * F * G + 2 * J * L * N)
    hI = I * (A * H - B * G - C * F + D * E) - 2 * J * (A * D - B * C) \
        + 2 * (A * L * N - B * L * M - C * K * N + D * K * M)
    hJ = J * (-A * H + B * G + C * F - D * E) + 2 * I * (E * H - F * G) \
        + 2 * (E * L * N - F * L * M - G * K * N + H * K * M)
    hK = K * (A * H - B * G + C * F - D * E) - 2 * L * (A * F - B * E) \
        + 2 * (A * J * N - B * J * M - E * I * N + F * I * M)
    hL = L * (-A * H + B * G - C * F + D * E) + 2 * K * (C * H - D * G) \
        + 2 * (C * J * N - D * J * M - G * I * N + H * I * M)
    hM = M * (A * H + B * G - C * F - D * E) - 2 * N * (A * G - C * E) \
        + 2 * (A * J * L - C * J * K - E * I * L + G * I * K)
    hN = N * (-A * H - B * G + C * F + D * E) + 2 * M * (B * H - D * F) \
        + 2 * (B * J * L - D * J * K - F * I * L + H * I * K)
    return PrimitiveCoords(hA, hB, hC, hD, hE, hF, hG, hH, hI, hJ, hK, hL, hM, hN)


@functools.cache
def hat_monomial_table():
    """hat_map as integer coefficients on cubic monomials.

    Returns (monos, rows): monos the sorted index triples p <= q <= r of the
    monomials c_p c_q c_r that occur, and rows[n] the 14 coefficients of
    monomial n, so that hat_map(c)[i] = sum_n rows[n][i] c_p c_q c_r.
    Derived on first use, not at import, by the route of -compute_F/2 with
    the standard vol (c = 1): reading 0 of _F_TABLE at each lead mask,
    expanded through _K_TABLE, then the coefficients of phi written in c
    through PRIMITIVE_BASIS."""
    lin = [[] for _ in _MASKS3]     # lin[a]: (j, s) with phi_a = sum s c_j
    for j, b in enumerate(PRIMITIVE_BASIS):
        for m, s in b.coeffs.items():
            lin[_INDEX3[m]].append((j, s))
    acc = {}
    for i, lead in enumerate(_LEAD_MASKS):
        for o, m, sign in _F_TABLE[_INDEX3[lead]][0]:
            for a, b, t in _K_TABLE[o]:
                for (ja, sa), (jb, sb), (jm, sm) in itertools.product(
                        lin[a], lin[b], lin[m]):
                    row = acc.setdefault(tuple(sorted((ja, jb, jm))), [0] * 14)
                    row[i] += sign * t * sa * sb * sm
    monos = sorted(k for k, row in acc.items() if any(row))
    return tuple(monos), tuple(tuple(acc[k]) for k in monos)


def q_from_coords(c):
    """Q(phi) for phi = coords_to_form(c), via the closed quartic polynomial."""
    A, B, C, D, E, F, G, H, I, J, K, L, M, N = c
    q4 = 2 * (A**2 * H**2 + B**2 * G**2 + C**2 * F**2 + D**2 * E**2) \
        - (A * H + B * G + C * F + D * E)**2 + 4 * (A * D * F * G + B * C * E * H) \
        + 4 * I**2 * (F * G - E * H) + 4 * J**2 * (B * C - A * D) \
        + 4 * I * J * (A * H - B * G - C * F + D * E) \
        + 4 * K**2 * (D * G - C * H) + 4 * L**2 * (B * E - A * F) \
        + 4 * K * L * (A * H - B * G + C * F - D * E) \
        + 4 * M**2 * (D * F - B * H) + 4 * N**2 * (C * E - A * G) \
        + 4 * M * N * (A * H + B * G - C * F - D * E) \
        + 8 * (A * J * L * N - B * J * L * M - C * J * K * N + D * J * K * M
               - E * I * L * N + F * I * L * M + G * I * K * N - H * I * K * M)
    return 4 * q4


# signed pairing between dQ and the hat coefficients: dQ/dc_i = factor * hat_j
GRADIENT_TABLE = (
    ("A", -8, "H"), ("B", 8, "G"), ("C", 8, "F"), ("D", -8, "E"),
    ("E", 8, "D"), ("F", -8, "C"), ("G", -8, "B"), ("H", 8, "A"),
    ("I", -16, "J"), ("J", 16, "I"), ("K", -16, "L"), ("L", 16, "K"),
    ("M", -16, "N"), ("N", 16, "M"),
)


def gradient_relations_check(c):
    """Worst relative error of central differences of Q against the hat table."""
    h = 1e-5
    c = c.to_floats()
    hats = hat_map(c)
    worst = 0.0
    for name, factor, hat_name in GRADIENT_TABLE:
        i = COORD_NAMES.index(name)
        up = list(c)
        dn = list(c)
        up[i] += h
        dn[i] -= h
        fd = (q_from_coords(PrimitiveCoords(*up))
              - q_from_coords(PrimitiveCoords(*dn))) / (2 * h)
        target = factor * getattr(hats, hat_name)
        err = abs(fd - target) / max(1.0, abs(target))
        worst = max(worst, err)
    return worst


# --- stabilizer of the O0 normal form ---------------------------------------
# o0_normal_form, block_matrix_to_map, stabilizer_predicates and hitchin_data
# are used only by the tests; each states a paper claim they check: the
# stabilizer of phi0 and F(phi0) on O0, and Hitchin's J on O-.

# coframe order (dx1, dx2, dx3, dy1, dy2, dy3) -> axes (1, 3, 5, 2, 4, 6)
_BLOCK_TO_AXIS = (1, 3, 5, 2, 4, 6)


def o0_normal_form():
    """e^146 + e^236 + e^245, i.e. dx1^dy2^dy3 + dx2^dy3^dy1 + dx3^dy1^dy2,
    the O0+ normal form."""
    return sp_normal_form("O0+")


def block_matrix_to_map(block):
    """Convert a 6x6 matrix in the (dx, dy) coframe basis into the LinearMap6
    whose pullback realizes it, under dx^j = e^{2j-1}, dy^j = e^{2j}.

    The coframe column transforms by the transpose, g* c^a = sum_b M[b][a] c^b,
    so a lower-triangular block matrix [[A,0],[B,C]] keeps the span of the dy
    covectors invariant (B feeds dy components into the images of the dx)."""
    rows = [[0] * DIM for _ in range(DIM)]
    for a in range(DIM):
        for b in range(DIM):
            rows[_BLOCK_TO_AXIS[a] - 1][_BLOCK_TO_AXIS[b] - 1] = block[b][a]
    return LinearMap6(rows)


class StabilizerCheck(NamedTuple):
    stabilizes_F: bool
    stabilizes_phi: bool
    reason: str = ""


def stabilizer_predicates(block):
    """Block conditions for stabilizing F(phi0) and phi0 for the normal form
    phi0 = o0_normal_form(), with block = [[A, 0], [B, C]] in (dx, dy) order.

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


# --- Hitchin data on the stable orbit O- ------------------------------------

class HitchinData(NamedTuple):
    J: LinearMap6
    normsq: object   # |phi|^2 = sqrt(-Q)
    phihat: Form     # J-pullback of phi
    lam: object      # lambda(phi) = Q/4


def _exact_sqrt(x):
    """sqrt of a nonnegative Fraction if it is a perfect square, else float."""
    if is_exact(x):
        fr = Fraction(x)
        rn = math.isqrt(fr.numerator)
        rd = math.isqrt(fr.denominator)
        if rn * rn == fr.numerator and rd * rd == fr.denominator:
            return Fraction(rn, rd)
    return math.sqrt(float(x))


def hitchin_data(phi, omega=None):
    """Almost complex structure data for phi with Q(phi) < 0.

    J = K/sqrt(-lambda) squares to -id, phihat = J* phi, and
    F = |phi|^2 phihat with |phi|^2 = sqrt(-Q), lambda = Q/4.
    """
    ev = _evaluate(phi, _omega_tables(omega if omega is not None else standard_omega()).vol)
    gl, Q = _gl_orbit(ev, ORBIT_TOL)
    if gl != O_MINUS:
        raise ValueError(f"not in O-: Q(phi) = {Q} >= 0")
    normsq = _exact_sqrt(-Q)
    lam = Q / 4
    root = _exact_sqrt(-lam)  # = normsq / 2
    J = LinearMap6([[_exact_div(x, root) for x in r] for r in _K_of(ev).rows])
    phihat = pullback(J, phi)
    return HitchinData(J, normsq, phihat, lam)


# --- normal forms ------------------------------------------------------------

# the Sp orbit whose SP_ORBITS normal form is that of its GL orbit; O+ has
# its own, e^123 + e^456
_GL_NORMAL = {O_MINUS: "O-+", O_0: "O0+", O_1: "O1-", O_3: "O3", O_6: "O6"}


def gl_normal_form(label):
    """A fresh copy of the normal form of a GL orbit."""
    if label == O_PLUS:
        return basis(1, 2, 3) + basis(4, 5, 6)
    return sp_normal_form(_GL_NORMAL[label])


def sp_normal_form(label, mu=1):
    """A fresh copy of the SP_ORBITS normal form of an Sp orbit, scaled by
    mu on the stable orbits O-+, O-- and O+ (standard omega)."""
    orbit = SP_ORBITS[label]
    return orbit.normal_form * (mu if orbit.gl in (O_MINUS, O_PLUS) else 1)
