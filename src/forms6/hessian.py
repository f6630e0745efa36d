"""Hessian geometry of Lagrangian leaves over a 3-dimensional base.

Models the six-dimensional total space of 2-forms over a Riemannian
3-manifold at one base point: coordinates (x^1, x^2, x^3, t^1, t^2, t^3)
map to coframe axes 1..6, the symplectic form is induced by the metric
through the Hodge-star identification with the cotangent bundle, and the
canonical primitive 3-form phi_f = d(f alpha) is built from the tautological
2-form alpha and a radial profile f chosen so that f^2 (f + 2 r f') = 1.

Each fiber is a leaf of the induced Lagrangian foliation; this module
computes the affine frame on the leaf, the Hessian leaf metric, its inverse
and third derivatives in closed form, and the resulting Ricci and scalar
curvature, together with finite-difference and rotationally-symmetric
cross-checks.

Exactness: with C = 0 the profile degenerates to f = 1, and all leaf data
stays rational whenever the metric, the fiber point and sqrt(det g) are
rational.  Any other C forces floats.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .exterior import Form, _exact_div, basis, form_max_diff, is_exact, wedge
from .invariants import _exact_sqrt, compute_F, compute_K, volume_of


class DomainError(ValueError):
    """Fiber point outside the admissible region for the chosen constant."""


@dataclass(frozen=True)
class BaseMetric3:
    """A positive-definite 3x3 base metric (constant along each leaf).
    det, inv and sqrt_det are computed on first use and kept."""
    g: tuple

    def __init__(self, g):
        rows = tuple(tuple(r) for r in g)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("base metric must be 3x3")
        for i in range(3):
            for j in range(3):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("base metric must be symmetric")
        if not linalg.is_positive_definite(rows):
            raise ValueError("base metric must be positive definite")
        object.__setattr__(self, "g", rows)

    @functools.cached_property
    def det(self):
        return linalg.det(self.g)

    @functools.cached_property
    def inv(self):
        return linalg.inverse(self.g)

    @functools.cached_property
    def sqrt_det(self):
        return _exact_sqrt(self.det)


def profile(r, C):
    """(f, f') for f = r^(-1/2) (r^(3/2) + C)^(1/3); exact (1, 0) when C = 0."""
    if C == 0:
        return (Fraction(1), Fraction(0)) if is_exact(r) else (1.0, 0.0)
    r = float(r)
    w = r ** 1.5 + float(C)
    if w <= 0.0:
        raise DomainError(f"r^(3/2) + C = {w} <= 0")
    f = r ** -0.5 * w ** (1.0 / 3.0)
    fp = -0.5 * r ** -1.5 * w ** (1.0 / 3.0) + 0.5 * w ** (-2.0 / 3.0)
    return f, fp


@dataclass(frozen=True)
class FiberPoint:
    """A point of one leaf: fiber coordinates t and the profile constant C."""
    t: tuple
    C: object = 0

    def __init__(self, t, C=0):
        t = tuple(t)
        if len(t) != 3:
            raise ValueError("fiber point needs three coordinates")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "C", C)

    def r(self, metric):
        g = metric.g
        t = self.t
        num = sum(t[j] * t[k] * g[j][k] for j in range(3) for k in range(3))
        return _exact_div(num, metric.det)

    def rho(self, metric):
        return math.sqrt(float(self.r(metric)))

    def validate(self, metric):
        r = self.r(metric)
        if self.C != 0 and float(r) <= 0.0:
            raise DomainError("r must be positive when C != 0")
        if self.C < 0 and float(r) <= (1 + 1e-6) * (-float(self.C)) ** (2.0 / 3.0):
            raise DomainError(
                f"r = {float(r):.6g} inside the excised ball r <= (-C)^(2/3)")
        return r


def _grad_r(metric, p):
    """dr/dt^j = 2 g_{jk} t^k / det g."""
    g, d, t = metric.g, metric.det, p.t
    return tuple(_exact_div(2 * sum(g[j][k] * t[k] for k in range(3)), d)
                 for j in range(3))


def _point(metric, p):
    """The per-point kernel: (exact, g, det g, sqrt det g, t, r, dr/dt, f, f').

    This is the one home of the exact-or-float rule: the point stays exact
    only for C = 0 with rational g, t and sqrt(det g), and otherwise every
    returned scalar is a float."""
    r = p.validate(metric)
    g, d, s, t = metric.g, metric.det, metric.sqrt_det, p.t
    exact = p.C == 0 and is_exact(s) and all(is_exact(x) for x in t) \
        and all(is_exact(x) for row in g for x in row)
    P = _grad_r(metric, p)
    if not exact:
        g = [[float(x) for x in row] for row in g]
        d, s, r = float(d), float(s), float(r)
        P = tuple(float(x) for x in P)
        t = tuple(float(x) for x in t)
    f, fp = profile(r, p.C)
    return exact, g, d, s, t, r, P, f, fp


def _leaf_h(metric, p):
    """(h, kernel): the Hessian leaf metric h_jk = 2 g_jk / f - f f' det g
    r_j r_k in the affine frame, with the kernel values it was built on."""
    pt = _point(metric, p)
    _, g, d, _, _, _, P, f, fp = pt
    h = tuple(tuple([2 * g[j][k] / f - f * fp * d * P[j] * P[k] for k in range(3)])
              for j in range(3))
    return h, pt


def build_six_forms(metric, p):
    """(omega, phi_f) at the fiber point.

    omega = (g_kj / sqrt(det g)) dx^k ^ dt^j, with dx -> axes 1..3 and
    dt -> axes 4..6; phi_f = f d(alpha) + f' dr ^ alpha for the tautological
    2-form alpha."""
    exact, _, _, _, t, _, P, f, fp = _point(metric, p)
    g, s = metric.g, metric.sqrt_det
    conv = (lambda x: x) if exact else float
    # g_kj / sqrt(det g) on the metric's own scalars, rounded once
    omega = Form(2, {(1 << k) | (1 << (3 + j)): conv(_exact_div(g[k][j], s))
                     for k in range(3) for j in range(3)})
    alpha = Form(2, {0b000110: t[0], 0b000101: -t[1], 0b000011: t[2]})
    dalpha = basis(2, 3, 4) - basis(1, 3, 5) + basis(1, 2, 6)
    phi = dalpha * f
    if fp != 0:
        dr = Form(1, {1 << (3 + j): P[j] for j in range(3)})
        phi = phi + wedge(dr, alpha) * fp
    return omega, phi


@dataclass(frozen=True)
class HessianLeafData:
    """Leaf metric package at one fiber point: the Hessian metric h in the
    affine frame, its closed-form inverse, the totally symmetric third
    derivatives and the affine frame vectors (rows = frame vectors in the
    fiber coordinates), all as tuple rows: leaf_data hands one package to
    every caller at its point, so none may change it.  The curvature is read
    off this package by scalar_curvature."""
    h: tuple
    h_inv: tuple
    h3: tuple
    V_frame: tuple


def _build_leaf_data(metric, p):
    h, (exact, g, d, s, t, r, P, f, fp) = _leaf_h(metric, p)
    ginv = metric.inv if exact else [[float(x) for x in row] for row in metric.inv]

    # closed-form inverse, valid because f^2 (f + 2 r f') = 1
    T = [2 * t[j] / d for j in range(3)]  # = g^{jp} P_p
    h_inv = tuple(tuple([(f / 2) * (ginv[j][k] + (fp * d / (2 * f)) * T[j] * T[k])
                         for k in range(3)]) for j in range(3))

    h3 = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    if fp != 0:
        C = float(p.C)
        rr = float(r)
        cub = C * (5 * rr ** 1.5 + 2 * C) / (2 * rr ** 4 * (rr ** 1.5 + C) ** (2.0 / 3.0))
        # evaluate once per index multiset so symmetry is exact in floats too
        for j in range(3):
            for k in range(j, 3):
                for l in range(k, 3):
                    first = -4 * fp * s * (g[j][k] * P[l] + g[k][l] * P[j]
                                           + g[l][j] * P[k])
                    val = first - cub * d ** 1.5 * P[j] * P[k] * P[l]
                    for (a, b, c) in {(j, k, l), (j, l, k), (k, j, l),
                                      (k, l, j), (l, j, k), (l, k, j)}:
                        h3[a][b][c] = val
    h3 = tuple(tuple(map(tuple, m)) for m in h3)

    fr = f + 2 * r * fp
    V = tuple(tuple([2 * f * s * ((fr if j == k else 0) - fp * P[j] * t[k])
                     for k in range(3)]) for j in range(3))
    return HessianLeafData(h, h_inv, h3, V)


# leaf_data keeps the package of the last fiber point, which serves the
# calls a caller makes on one point in a row: fiber_verifications, leaf_data
# and affine_derivative_check on one point build one package, not three.
# The key leads with the exactness markers, the types of g's and t's entries
# and of C, so an exact point and its equal-valued float copy miss; then come
# the values and the signs of their zeros, which reach the package's bits
# (a -0.0 of g turns up in h).  The slot is one tuple swap and the package
# is frozen, so a race can only miss.
_last_leaf = (None, None)  # (key, HessianLeafData) of the last point built


def leaf_data(metric, p):
    """The HessianLeafData at the fiber point p over metric, the last one
    built when its key holds."""
    global _last_leaf
    xs = (*metric.g[0], *metric.g[1], *metric.g[2], *p.t, p.C)
    key = (tuple(map(type, xs)), xs, tuple(math.copysign(1.0, x) for x in xs if not x))
    last = _last_leaf  # read once: another thread may swap the slot
    if last[0] != key:
        last = _last_leaf = key, _build_leaf_data(metric, p)
    return last[1]


def scalar_curvature(data):
    """(S, Ricci) of the leaf metric, on floats: Ricci_{jk} = (1/4) h^{st}
    h^{lp} h_{jps} h_{klt} from the contracted third derivatives, and S =
    h^{jk} Ricci_{jk}, which is (1/4) h^{st} h^{ik} h^{jl} h_{sil} h_{tkj}
    (Shima, The Geometry of Hessian Structures, 2007).  This is the one place
    the curvature is computed."""
    hi = np.array([[float(x) for x in row] for row in data.h_inv])
    t3 = np.array([[[float(x) for x in row] for row in mat] for mat in data.h3])
    ricci = 0.25 * np.einsum("st,lp,jps,klt->jk", hi, hi, t3, t3)
    return float(np.einsum("jk,jk->", hi, ricci)), ricci


def closed_form_scalar_curvature(metric, p):
    """5 C^2 / (rho^4 (rho^3 + C)^(4/3)) at the fiber point."""
    if p.C == 0:
        return 0.0
    rho = p.rho(metric)
    C = float(p.C)
    return 5 * C * C / (rho ** 4 * (rho ** 3 + C) ** (4.0 / 3.0))


def leaf_metric_value(metric, p, X, Y):
    """The leaf metric evaluated on fiber-coordinate tangent vectors, via the
    affine frame: g_L(X, Y) = h(V^{-1} X, V^{-1} Y)."""
    data = leaf_data(metric, p)
    V = [[float(x) for x in row] for row in data.V_frame]
    # columns of the change-of-frame matrix are the frame vectors
    M = np.array(V).T
    a = np.linalg.solve(M, np.array([float(x) for x in X]))
    b = np.linalg.solve(M, np.array([float(x) for x in Y]))
    h = np.array([[float(x) for x in row] for row in data.h])
    return float(a @ h @ b)


def polar_leaf_metric(p, metric):
    """Radial and unit-tangential leaf metric coefficients of the
    rotationally symmetric closed form (identity base metric)."""
    rho = p.rho(metric)
    C = float(p.C)
    radial = rho ** 2 / (2 * (rho ** 3 + C) ** (2.0 / 3.0))
    tangential = (rho ** 3 + C) ** (1.0 / 3.0) / (2 * rho)
    return radial, tangential


def affine_derivative_check(metric, p):
    """Finite-difference derivative of the leaf metric along each affine
    frame vector against the closed-form third derivatives; returns the
    largest componentwise residual.  The full leaf package is built once, at
    p; the 6 neighbour points evaluate h alone.

    The step keeps the truncation error small even close to the excised
    boundary for C < 0, where the third derivatives grow."""
    step = 1e-6
    base = leaf_data(metric, p)
    V = [[float(x) for x in row] for row in base.V_frame]
    t = tuple(float(x) for x in p.t)
    worst = 0.0
    for l in range(3):
        tp = tuple(t[k] + step * V[l][k] for k in range(3))
        tm = tuple(t[k] - step * V[l][k] for k in range(3))
        hp = _leaf_h(metric, FiberPoint(tp, p.C))[0]
        hm = _leaf_h(metric, FiberPoint(tm, p.C))[0]
        for j in range(3):
            for k in range(3):
                fd = (float(hp[j][k]) - float(hm[j][k])) / (2 * step)
                worst = max(worst, abs(fd - float(base.h3[j][k][l])))
    return worst


def fiber_verifications(metric, p):
    """Pointwise checks of the construction: primitivity of phi_f, the closed
    form of F(phi_f), annihilation of the fiber directions by K, agreement of
    the K-images of the base directions with the affine frame, the
    Monge-Ampere determinant and the inverse identity.  Returns a dict of
    residuals."""
    omega, phi = build_six_forms(metric, p)
    vol = volume_of(omega)
    prim = wedge(omega, phi).max_abs()
    K, F = compute_K(phi, vol=vol), compute_F(phi, vol=vol)
    s = float(metric.sqrt_det)
    F_res = form_max_diff(F, basis(1, 2, 3) * (-4.0 * s))
    fiber_res = max(abs(float(K.rows[i][j])) for i in range(6) for j in range(3, 6))
    data = leaf_data(metric, p)
    frame_res = 0.0
    for j in range(3):
        for i in range(6):
            expect = float(data.V_frame[j][i - 3]) if i >= 3 else 0.0
            frame_res = max(frame_res, abs(float(K.rows[i][j]) - expect))
    det_res = abs(float(linalg.det(data.h)) - 8.0 * float(metric.det))
    inv_num = linalg.inverse(data.h)
    inv_res = max(abs(float(inv_num[i][j]) - float(data.h_inv[i][j]))
                  for i in range(3) for j in range(3))
    return {
        "primitivity": prim,
        "F_closed_form": F_res,
        "K_kills_fibers": fiber_res,
        "K_frame_match": frame_res,
        "det_h_minus_8detg": det_res,
        "h_inv_vs_numeric": inv_res,
    }
