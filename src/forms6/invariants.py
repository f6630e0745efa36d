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
from decimal import Context
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
    """omega^3/3!; raises on degenerate omega, and by name past the float range."""
    if omega.grade != 2:
        raise GradeError("symplectic form must have grade 2")
    vol = wedge(wedge(omega, omega), omega).map_coeffs(lambda c: _exact_div(c, 6))
    c = vol.coeffs.get(FULL_MASK, 0)
    if not (omega.is_exact() or 2.0 ** -1022 <= abs(c) < math.inf):  # subnormal: bits lost
        volume_of(omega.map_coeffs(Fraction))  # raises on a degenerate omega
        raise OverflowError(f"omega^3/3! = {c!r} is not a normal float")
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
# divided once at the end: K by D^2 c, F by D^3 c and Q by D^4 c^2.  A float
# phi is first scaled into its own binade, by 2^-e with max|2^-e phi| in
# [1/2, 1), and c into its own, c = 2^g c', so no table or cut (none reads c)
# can leave the float range, and each output is scaled back once (_at_scale).
# Each table with one signed term per output is a _Gather, read off interior
# or wedge on basis forms by basis_matrix: _CONTR, _WEDGE1, _WEDGE2 and
# _IVOL.  K's table is their composition and F's reads _CONTR.
# The K and F tables run as one gather-multiply-reduce each: column o of the
# (L, n) index and sign arrays holds the terms of output o in table order,
# padded with sign 0 at a zero slot, and the sum runs down axis 0 from 0, bit
# for bit as a Python loop would (numpy sums 8 or more terms pairwise along
# the last axis).

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


def _K_numerators(a):
    """The 36 entries of c K(phi), row-major, and a trailing 0, from the
    coefficient array a of an _Evaluation, in its dtype."""
    return (_K_T * (a[_K_A] * a[_K_B])).sum(axis=0, initial=0)


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


def _at_scale(ev, xs, n, name, least=0.0):
    """2^n x for each x of xs, as a list of floats: outputs read off the
    table input of ev, put back at the scale of phi and vol, an exact x
    rounded once.  An output past the float range, or below least in
    magnitude, raises an OverflowError that names it and both scales."""
    try:
        ys = [math.ldexp(x, n) for x in xs]
        if all(map(math.isfinite, ys)) and not (least and min(map(abs, ys)) < least):
            return ys
    except OverflowError:
        pass
    size, c = (f"{Context(prec=6).divide(*x.as_integer_ratio()).normalize():g}" for x in (
        Fraction(ev.size) * Fraction(2) ** ev.e / ev.D, Fraction(ev.c) * Fraction(2) ** ev.g))
    raise OverflowError(f"{name} is out of the float range at max|phi| = {size}, vol = {c}")


def _divided(ev, x, power, name):
    """x / (D^power c) at phi's scale, as a list, for an array x of degree
    power in phi: on floats over c' and scaled back by _at_scale, which names
    the output as name; on an exact phi an int when D^power c = 1, so integer
    forms keep integer K and F, and rounded once by it under a float vol."""
    if not ev.exact:
        return _at_scale(ev, (x / ev.c).tolist(), power * ev.e - ev.g, name)
    den, mul = ev.D ** power * ev.c.numerator, ev.c.denominator
    x = x.tolist()
    x = x if den == mul == 1 else [Fraction(n * mul, den) if n else 0 for n in x]
    return _at_scale(ev, x, 0, name) if ev.rounded else x


def _K_of(ev):
    kn = _divided(ev, ev.ka, 2, "K(phi)")
    return LinearMap6([kn[i * DIM:(i + 1) * DIM] for i in range(DIM)])


def _F_of(ev):
    f = _divided(ev, -2 * ev.fa, 3, "F(phi)")
    return Form._trusted(3, {m: x for m, x in zip(_MASKS3, f) if x})


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

def _binade(xs, what):
    """(e, 2^-e xs) with max|2^-e x| in [1/2, 1), e = 0 for no xs, for the
    coefficients of a float form.  Refuses, naming the form, a non-finite x
    and an x that is not a normal float there (its products underflow)."""
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"non-finite coefficient {next(x for x in xs if not math.isfinite(x))!r}")
    mags = list(map(abs, xs))  # nonzero: a Form holds no 0
    size, e = math.frexp(max(mags, default=0.0))
    if math.ldexp(min(mags, default=1.0), -e) < 2.0 ** -1022:
        raise OverflowError(f"the coefficients of {what} span past the float range: "
                            f"{min(mags)!r} against max|{what}| = {math.ldexp(size, e):.6g}")
    return e, [math.ldexp(x, -e) for x in xs]


def _log2(x):
    """k with |x| in [2^(k-1), 2^(k+1)), for a nonzero exact or float x."""
    n, d = abs(x).as_integer_ratio()
    return n.bit_length() - d.bit_length()


def _vol_binade(c):
    """(g, c'): c = 2^g c', g even and c' in [1/2, 4) the float nearest 2^-g c."""
    n, d = c.as_integer_ratio()
    g = _log2(c) // 2 * 2
    return g, n / (d << g) if g >= 0 else (n << -g) / d


class _Evaluation:
    """phi as the table input, in the one arithmetic that phi's type picks:
    a, the coefficients of 2^-e D phi in _MASKS3 order and a trailing 0,
    size = max|a_i| unconverted (an exact int may lie past the float range),
    and c, the coefficient of vol.  An exact phi (exact) is cleared by D, the
    lcm of its denominators: a holds ints, int64 below the bound _FMAX _KMAX
    size^3 < _INT64_BOUND, else Python ints, e = g = 0, and a float c is read
    as the dyadic rational it holds; each output is then rounded once
    (rounded).  A float phi is read in its binade: D = 1, e (an int, as
    2^(-k e) may leave the float range) puts size in [1/2, 1), a is float64,
    and c is c' of c = 2^g c' (_vol_binade).  On first use, its K numerators
    ka (a's dtype, and a 0), its F numerators fa, checked at DEFAULT_TOL,
    and the entries derived from them, none reading c, each keyed on what
    it reads beyond phi and vol: Q's numerator, dim ker phi (at tol on a
    float rank) and the checked q (under omega's tables, at tol).  A check
    that raises stores nothing."""
    __slots__ = ("a", "D", "e", "c", "g", "exact", "rounded", "size", "_ka", "_fa", "_derived")

    def __init__(self, phi, vol):
        if phi.grade != 3:
            raise GradeError("K is defined for 3-forms")
        c, xs = vol.coeffs[FULL_MASK], list(phi.coeffs.values())
        self.exact = phi.is_exact()
        self.rounded = self.exact and not is_exact(c)
        if self.exact:
            (D, xs), c, self.e, self.g = _clear_denominators(xs), Fraction(c), 0, 0
        else:
            D, (self.g, c), (self.e, xs) = 1, _vol_binade(c), _binade(xs, "phi")
        v = [0] * (len(_MASKS3) + 1)
        for m, x in zip(phi.coeffs, xs):
            v[_INDEX3[m]] = x
        self.D, self.c, self.size = D, c, max(map(abs, v))
        small = self.exact and _FMAX * _KMAX * self.size ** 3 < _INT64_BOUND
        self.a = np.array(v, np.int64 if small else object if self.exact else np.float64)
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
        return self._entry(("ker", None if self.exact else tol), _ker_phi, self, tol)

    def q(self, tables, tol, what):
        """(n, den, ref) of q under omega's tables (_q_of), after the
        primitivity check, which names phi as what.  The entry holds tables,
        so while it lives no other tables object can take its id."""
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
    """Q's numerator on the table input of ev: c^2 D^4 Q(phi), 2^-4e on floats."""
    v, gn = ev.a.tolist(), ev.fa.tolist()
    # -(phi ^ F)/vol with F = -2 gn / (D^3 c) and phi = v / D
    return 2 * sum(sign * x * gn[n] for x, (n, sign) in zip(v, _Q_TABLE) if x)


def compute_Q(phi, omega=None, vol=None):
    """The scalar Q(phi) = -(phi ^ F(phi)) / vol, its numerator over D^4 c^2."""
    ev = _evaluate(phi, _resolve_vol(omega, vol))
    Q = Fraction(ev.Q(), ev.D ** 4) / (ev.c * ev.c) if ev.exact else ev.Q() / (ev.c * ev.c)
    return Q if ev.exact and not ev.rounded else _at_scale(
        ev, [Q], 4 * ev.e - 2 * ev.g, "Q(phi)")[0]


def omega_matrix(omega):
    """W[i][j] = omega(e_i, e_j)."""
    w = [[0] * DIM for _ in range(DIM)]
    for m, c in omega.coeffs.items():
        i, j = (b for b in range(DIM) if m >> b & 1)
        w[i][j] = c
        w[j][i] = -c
    return w


def _require_primitive(ev, tables, tol, what, size=None):
    """Reject a form with omega ^ phi != 0, read off tables.P a on the table
    input a of its _Evaluation ev: exactly on the exact backend, above
    tol |phi| max|P| on floats, or above tol size max|P| when the caller
    gives the reference size at phi's scale (for a phi that may itself be
    rounding residue)."""
    w = (tables.P * ev.a[:, None]).sum(axis=0, initial=0).tolist()
    if ev.exact:
        if not any(w):
            return
        res = max(abs(float(Fraction(x, tables.dP * ev.D))) for x in w)
    else:
        res = max(map(abs, w))
        if not res > tol * tables.wmax * (ev.size if size is None else math.ldexp(size, -ev.e)):
            return
        res = math.ldexp(res / tables.dP, ev.e)
    raise ValueError(f"{what} is not primitive: |omega ^ phi| = {res}")


def _check_primitive(phi, omega, tol, what, size=None):
    """_require_primitive on a 3-form phi and a symplectic form omega."""
    tables = _omega_tables(omega, phi.is_exact())
    _require_primitive(_evaluate(phi, tables.vol), tables, tol, what, size)


# --- q on cleared denominators ------------------------------------------------
#
# q(v1, v2) = omega(v1, K v2) is quadratic in phi: W kn / (D^2 c), with W the
# matrix of omega and kn the K numerators.  That it equals
# (iota_{v1}phi ^ iota_{v2}phi ^ omega)/vol and -<iota_{v1}phi, iota_{v2}phi>
# is a theorem, checked by the ``identities`` verification suite, not here.
# W and the primitivity table P are built once per omega and arithmetic as
# dense arrays, int64, Python ints or float64 (see _omega_tables_of), and
# both products sum down axis 0 from 0, bit for bit as the K and F gathers do.

class _OmegaTables(NamedTuple):
    """The tables of one omega in the arithmetic of the phi that reads them,
    with omega's own vol (float on a float omega) and Winv = W^-1 as
    linalg.inverse gives it, for the Lefschetz contraction.  W is omega's
    matrix with den D^2 q = m W kn: cleared to int for an exact phi, a float
    coefficient read as the dyadic rational it holds, and for a float phi
    rounded once to float64, m = 1/c' (c = 2^g c') and den = 1.  Row n of P
    is what a_n of the table input adds to omega ^ phi on the basis 5-forms
    e^(all axes but i), likewise: dP D (omega ^ phi) = sum_n a_n P[n];
    wmax = max|W| = max|P|."""
    vol: Form
    Winv: tuple
    W: np.ndarray
    m: object
    den: object
    wmax: object
    P: np.ndarray
    dP: object


@functools.lru_cache(maxsize=16)
def _omega_tables_of(grade, items, types, exact):
    omega = Form(grade, dict(items))
    if not (exact and omega.is_exact()):  # read as floats, each coefficient rounded once
        try:
            xs = list(map(float, omega.coeffs.values()))
        except OverflowError:
            raise OverflowError("the coefficients of omega reach past the float range") from None
        _binade(xs, "omega")  # refuses a span past the float range
    vol = volume_of(omega)
    vol = vol if omega.is_exact() else vol.to_float()  # a float term of omega may drop out
    inverse = tuple(map(tuple, linalg.inverse(omega_matrix(omega))))
    c = vol.coeffs[FULL_MASK]
    if exact:
        omega, c = omega.map_coeffs(Fraction), Fraction(c)
    W = omega_matrix(omega)
    P, dP = basis_matrix(functools.partial(wedge, omega), _MASKS3,
                         [FULL_MASK ^ (1 << i) for i in range(DIM)]), 1
    if exact:
        dW, W = linalg._integral(W)
        dP, P = linalg._integral(P)
        den = dW * abs(c.numerator)
        m = c.denominator if c > 0 else -c.denominator
        # int64 when no product with an int64 ka or a can reach _INT64_BOUND (P's entries are W's)
        dtype = np.int64 if abs(m) * max(sum(map(abs, r)) for r in W) <= _FMAX else object
    else:
        m, den, dtype = 1 / _vol_binade(c)[1], 1, np.float64
    W = np.array(W, dtype)
    return _OmegaTables(vol, inverse, W, m, den, abs(W).max(),
                        np.array([*zip(*P), (0,) * DIM], dtype), dP)


def _omega_tables(omega, exact=True):
    # phi's kind (exact) and the value types key the cache: 1, 1.0 and Fraction(1) hash alike
    items = tuple(omega.coeffs.items())
    return _omega_tables_of(omega.grade, items, tuple(type(x) for _, x in items), exact)


def _q_of(ev, tables, tol):
    """(n, den, ref) with q = W kn / (D^2 c) = n / den, den > 0, on the table
    input of ev, as a (DIM, DIM) array: n = m W kn on an exact phi, an int
    matrix, ref = None; on floats n = 2^(g - 2e) q, den = 1, ref = size^2
    max|W| |m|.  n must be symmetric: exactly, or to tol ref on floats."""
    k = ev.ka[:-1].reshape(DIM, DIM)
    n = tables.m * (tables.W.T[:, :, None] * k[:, None]).sum(axis=0, initial=0)
    ref = None if ev.exact else float(ev.size ** 2 * tables.wmax * abs(tables.m))
    # NaN fails too; bad is symmetric, so its first entry is on or above the diagonal
    bad = ~(abs(n - n.T) <= (0 if ev.exact else tol * ref))
    if bad.any():
        i, j = divmod(int(bad.argmax()), DIM)
        raise ArithmeticError(f"q-form is not symmetric at ({i},{j}): m W K reads {n[i, j]} "
                              f"against {n[j, i]}; K is inconsistent")
    return n, tables.den * ev.D ** 2, ref


def _checked_q(ev, tables, tol, what):
    _require_primitive(ev, tables, tol, what)
    return (tables, *_q_of(ev, tables, tol))


class _QRows(list):
    """q_form's rows, holding a copy of (n, ref) of _q_of for signature."""


def q_form(phi, omega, tol=DEFAULT_TOL):
    """The symmetric bilinear form q(omega, phi) = omega(v1, K v2) of a
    primitive 3-form.

    Its symmetry holds on the primitive subspace only, which is the natural
    domain of this form, and is checked on every call: a failure means K is
    broken and raises.  Non-primitive input is rejected.  That q also equals
    (iota_{v1}phi ^ iota_{v2}phi ^ omega)/vol and -<iota_{v1}phi,
    iota_{v2}phi> is checked by ``forms6 verify --suite identities``.
    Primitivity is read off the per-omega table of omega ^ phi on the same
    coefficients that K is computed from.  The entries are int on an exact phi,
    or Fractions when a denominator is left, each rounded once under a float
    omega; the list holds the matrix q was checked on, which signature reads."""
    _check_tol(tol)
    tables = _omega_tables(omega, phi.is_exact())
    ev = _evaluate(phi, tables.vol)
    n, den, ref = ev.q(tables, tol, "q-form input")
    rows = _QRows(r if den == 1 else [Fraction(x, den) for x in r] for r in n.tolist())
    if not ev.exact or ev.rounded:  # e = g = 0 on an exact phi
        rows[:] = [_at_scale(ev, r, 2 * ev.e - ev.g, "q(omega, phi)") for r in rows]
    rows.held = n.copy(), ref
    return rows


class SignatureTriple(NamedTuple):
    n0: int
    nplus: int
    nminus: int


def _inertia(n, ref, tol):
    """Inertia of the symmetric array n: exact on ints (ref None), else cut at tol ref."""
    return SignatureTriple(*(linalg.exact_inertia(n.tolist()) if ref is None
                             else linalg.float_inertia(n, tol * ref)))


def signature(sym, tol=ORBIT_TOL):
    """Inertia (n_zero, n_plus, n_minus) of a symmetric matrix: of a q_form
    result as classify_sp reads q, of any other exact one on its cleared
    ints (tol in (0, 1) unread), else cut at tol max|entry| in its binade."""
    _check_tol(tol)
    held = sym.held if isinstance(sym, _QRows) else None
    if held is None and linalg.matrix_is_exact(sym):
        held = np.array(linalg._integral(sym)[1], object), None
    elif held is None:
        a = np.array(sym, dtype=float)
        top, e = math.frexp(float(abs(a).max(initial=0.0)))
        held = np.ldexp(a, -e), top
    return _inertia(*held, tol)


class SubspaceDims(NamedTuple):
    ker_phi: int
    ker_K: int
    im_K: int
    ann_perp: int


def subspace_dims(phi, omega=None, vol=None, tol=ORBIT_TOL):
    """Dimensions (ker phi, ker K, im K, (Ann phi)^perp).

    Ranks of v -> iota_v phi (the contraction matrix), of K and of
    alpha -> alpha ^ phi, all taken on the table input 2^-e D phi; a float
    rank cuts at tol |phi|^degree there, so it does not see the scale."""
    _check_tol(tol)
    ev = _evaluate(phi, _resolve_vol(omega if omega is not None else standard_omega(), vol))
    rk = _rank(ev, ev.ka[:-1].reshape(DIM, DIM), 2, tol)
    return SubspaceDims(ev.ker_phi(tol), DIM - rk, rk, _rank(ev, _WEDGE1(ev.a), 1, tol))


def _rank(ev, rows, degree, tol):
    """Rank of a (DIM, n) array in ev.a's dtype, of the given degree in phi:
    exact on the ints of an exact phi, else float, its singular values cut
    at tol size^degree."""
    if ev.exact:
        return linalg.int_rank(rows.tolist())
    return linalg.float_rank(rows, tol * ev.size ** degree)


def _ker_phi(ev, tol):
    """dim ker phi from the contraction matrix (row i: iota_{e_i} phi)."""
    return DIM - _rank(ev, _CONTR(ev.a), 1, tol)


class ClassificationError(ValueError):
    """Raised when tolerancing produces an impossible orbit datum."""


def _gl_orbit(ev, tol):
    """GL(V) orbit label of phi from its _Evaluation ev.

    Stable orbits by the sign of Q's numerator ev.Q(), on floats 0 where
    |F| <= tol |phi|^3 or |Q| <= 4 tol |F| |phi| (within tol |phi| of the cone
    Q = 0: dQ(psi) = -4 psi ^ F / vol); then dim ker phi (0, 1, 3, 6)."""
    Q = ev.Q()
    if not ev.exact:  # in the binades: c' |F| = 2 max|fa|, Q's numerator c'^2 Q
        f, cut = 2 * float(abs(ev.fa).max()), tol * ev.size * abs(ev.c)
    if not (Q == 0 if ev.exact else f <= cut * ev.size ** 2 or abs(Q) <= 4 * f * cut):
        return O_MINUS if Q < 0 else O_PLUS
    k = ev.ker_phi(tol)
    if k not in _GL_OF_KERNEL:
        raise ClassificationError(
            f"dim ker phi = {k} is impossible for a 3-form; check tolerances")
    return _GL_OF_KERNEL[k]


def classify_gl(phi, vol=None, tol=ORBIT_TOL):
    """GL(V) orbit label of a 3-form: the sign of Q, or where Q = 0 the
    dimension of ker phi."""
    _check_tol(tol)
    ev = _evaluate(phi, _resolve_vol(None, standard_volume() if vol is None else vol))
    return _gl_orbit(ev, tol)


class SpOrbit(NamedTuple):
    label: str
    mu: object = None  # positive scalar for the stable orbits, else None


def classify_sp(phi, omega=None, tol=ORBIT_TOL):
    """Sp(V, omega) orbit of a primitive 3-form, with mu for stable orbits.

    The label is the SP_ORBITS entry with the GL orbit of _gl_orbit and the
    signature of q, measured except on O3 and O6.  On an exact phi that
    signature is linalg.exact_inertia of the int matrix den q, so tol is
    never read there; on floats it is cut at tol |phi|^2 max|W|.  mu is recovered
    from Q: Q = -16 mu^4 on O- and 4 mu^4 on O+, its root taken in the
    binades of phi and c, or of an exact mu^4, and refused where it is not a
    normal float.  One K evaluation.
    """
    _check_tol(tol)
    if omega is None:
        omega = standard_omega()
    tables = _omega_tables(omega, phi.is_exact())
    ev = _evaluate(phi, tables.vol)
    n, _, ref = ev.q(tables, tol, "form")  # checked for primitivity and symmetry
    gl = _gl_orbit(ev, tol)
    sig = (6, 0, 0) if gl in (O_3, O_6) else _inertia(n, ref, tol)  # q = 0 on O3, O6
    label = _SP_OF.get((gl, sig))
    if label is None:
        raise ClassificationError(f"{gl} form with unexpected signature {sig}")
    if gl not in (O_MINUS, O_PLUS):
        return SpOrbit(label)
    over = -16 if gl == O_MINUS else 4
    if ev.exact:  # mu^4 over 2^4k, near 1, so that its float keeps every bit
        mu4 = Fraction(ev.Q(), over * ev.D ** 4) / (ev.c * ev.c)
        k = _log2(mu4) // 4
        mu4 /= Fraction(2) ** (4 * k)
    else:
        mu4, k = ev.Q() / (ev.c * ev.c) / over, ev.e - ev.g // 2
    return SpOrbit(label, _at_scale(ev, [float(mu4) ** 0.25], k, "mu", 2.0 ** -1022)[0])


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
    omega = standard_omega() if omega is None else omega
    ev, Q = _evaluate(phi, _omega_tables(omega).vol), compute_Q(phi, omega)
    if _gl_orbit(ev, ORBIT_TOL) != O_MINUS:
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
