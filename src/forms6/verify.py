"""Seeded verification suites and the random data they draw.

Each suite checks one family of identities on ``trials`` inputs drawn from
``random.Random(seed)``: the exact polynomial identities of K, F and Q with
the contraction lemma, and on primitive forms the agreement of the three
routes to the q-form, which the library computes one way (``identities``);
the closed-form hat map and quartic of the 14-coefficient chart
(``lemma-bc``); the gradient relations of Q (``gradients``); the Nijenhuis
identity on the built-in algebras (``nijenhuis``); and the Hessian leaf
geometry (``hessian``).  ``run`` returns (passed, report); the CLI and the
acceptance tests both call it.

The two exact suites call the library's K, F and Q on the drawn Fraction
phi (or c), so its clearing of denominators is exercised, and run their own
algebra on ints, on D phi (or D c) with D the lcm of the denominators.  Each
identity is homogeneous in phi and linear in the integer vectors X and Y, so
equality there is the same check, each side carrying a known power of D
(named in the suite docstrings).  A failed report names the first check that
broke in ``failed_check``.
"""

import functools
import itertools
import random
from fractions import Fraction

import numpy as np

from . import hessian, invariants as inv, io, liealg, linalg
from .exterior import (FULL_MASK, Form, LinearMap6, _clear_denominators,
                       _exact_div, interior, wedge)


def rand_fraction(rng, lo=-6, hi=6, dens=(1, 1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rand_coords(rng):
    return inv.PrimitiveCoords(*(rand_fraction(rng) for _ in range(14)))


def rand_three_form(rng):
    coeffs = {}
    for axes in itertools.combinations(range(1, 7), 3):
        c = rand_fraction(rng)
        if c:
            coeffs[sum(1 << (a - 1) for a in axes)] = c
    return Form(3, coeffs)


def _integral(values, s):
    """The ints s x for the x in values, or None when one of them is not an
    int: a library value scaled by its power of D is checked, never
    truncated."""
    out = [x * s for x in values]
    if any(y.denominator != 1 for y in out):
        return None
    return [y.numerator for y in out]


@functools.cache
def _q_route_tables():
    """(W, d, G2, G3) for the standard omega, with G2 and G3 sparse rows over
    the basis 2-forms scaled to int by their lcm denominator d: G2[p][r] is
    (e^p ^ e^r ^ omega)/vol and G3[p][r] the pairing of e^p and e^r induced
    by omega, the determinant extension of -W^-1.  Derived from wedge and
    W^-1 on first use, not at import."""
    omega = inv.standard_omega()
    c = inv.volume_of(omega).coeffs[FULL_MASK]
    W = inv.omega_matrix(omega)
    e2 = [Form(2, {m: 1}) for m in inv._MASKS2]
    G2 = [[_exact_div(wedge(wedge(a, b), omega).coeffs.get(FULL_MASK, 0), c)
           for b in e2] for a in e2]
    O = [[-x for x in r] for r in linalg.inverse(W)]
    pairs = [tuple(i for i in range(6) if m >> i & 1) for m in inv._MASKS2]
    G3 = [[O[i][k] * O[j][l] - O[i][l] * O[j][k] for k, l in pairs]
          for i, j in pairs]
    d, ints = linalg._integral(G2 + G3)
    return W, d, inv._sparse(ints[:len(G2)]), inv._sparse(ints[len(G2):])


def _bilinear(C, G):
    """C G C^T for G given by sparse rows."""
    GC = [[sum(g * Cj[r] for r, g in row) for row in G] for Cj in C]
    return [[sum(x * y for x, y in zip(Ci, gj)) for gj in GC] for Ci in C]


def _q_route_checks(ev, k):
    """(name, holds) for the two other routes to q = omega(v1, K v2) on a
    primitive P = D phi, the table input of the exact _Evaluation ev, and
    k = D^2 K: C G2 C^T and -C G3 C^T, C the contraction matrix of P, each
    carry d D^2 q, as does d W k."""
    W, d, G2, G3 = _q_route_tables()
    C = inv._CONTR(ev.a).tolist()
    q = [[d * sum(W[i][l] * k[l * 6 + j] for l in range(6)) for j in range(6)]
         for i in range(6)]
    yield "q = (i phi ^ i phi ^ omega)/vol", _bilinear(C, G2) == q
    yield "q = -<i phi, i phi>", _bilinear(C, G3) == [[-x for x in r] for r in q]


def _identity_checks(phi, primitive, vol, rng):
    """(name, holds) for each check of one ``identities`` trial, in order;
    X and Y are drawn from rng only once the K/F/Q identities hold, and the
    q routes are checked on primitive phi only."""
    ev = inv._evaluate(phi, vol)
    D, P = ev.D, Form._trusted(3, dict(zip(inv._MASKS3, ev.v)))  # P = D phi
    k = _integral(itertools.chain(*inv.compute_K(phi, vol=vol).rows), D ** 2)
    yield "D^2 K integral", k is not None
    K = LinearMap6([k[i:i + 6] for i in range(0, 36, 6)])
    F = inv.compute_F(phi, vol=vol)
    f = _integral(F.coeffs.values(), D ** 3)
    yield "D^3 F integral", f is not None
    FP = Form(3, dict(zip(F.coeffs, f)))        # D^3 F
    pf = wedge(P, FP)                           # D^4 phi ^ F
    Q = -pf.coeffs.get(63, 0)                   # D^4 Q
    yield "K K = (Q/4) id", K.compose(K).scale(4) == LinearMap6.diagonal([Q] * 6)
    # by homogeneity K(FP) = D^6 K(F) and F(FP) = D^9 F(F), on the int FP
    yield "K(F) = -Q K", inv.compute_K(FP, vol=vol) == K.scale(-Q)
    yield "F(F) = -Q^2 phi", inv.compute_F(FP, vol=vol) == P * (-Q * Q)
    if primitive:
        yield from _q_route_checks(ev, k)
    X = [rng.randint(-4, 4) for _ in range(6)]
    Y = [rng.randint(-4, 4) for _ in range(6)]
    iXP, iXF = interior(X, P), interior(X, FP)
    iXP_F = wedge(iXP, FP)                      # both sides of each: D^4
    yield "i_X phi ^ F = -phi ^ i_X F", iXP_F == -wedge(P, iXF)
    yield "i_X phi ^ F = i_X(phi ^ F)/2", iXP_F * 2 == interior(X, pf)
    o21 = wedge(iXP, interior(Y, FP)) + wedge(interior(Y, P), iXF)
    yield "i_X phi ^ i_Y F + i_Y phi ^ i_X F = 0", not o21
    yield ("i_Y i_X phi ^ F = phi ^ i_Y i_X F",
           wedge(interior(Y, iXP), FP) == wedge(P, interior(Y, iXF)))


def _suite_identities(seed, trials, report):
    """Exact polynomial identities of K, F, Q and the contraction lemma, on
    P = D phi: K carries D^2, F D^3, Q D^4, K(F) D^6, F(F) D^9 and each side
    of the contraction lemma D^4.  On the primitive trials (odd n) the three
    routes to the q-form must agree, each carrying D^2."""
    rng = random.Random(seed)
    vol = inv.volume_of(inv.standard_omega())
    for n in range(trials):
        primitive = n % 2
        phi = inv.coords_to_form(rand_coords(rng)) if primitive else rand_three_form(rng)
        # the checks are drawn lazily: none runs after the first failure
        checks = _identity_checks(phi, primitive, vol, rng)
        failed = next((name for name, holds in checks if not holds), None)
        if failed:
            report["counterexample"] = io.form_to_json(phi)
            report["failed_check"] = failed
            return False
    report["residual"] = 0.0
    return True


def _lemma_bc_checks(c, omega):
    """(name, holds) for each check of one ``lemma-bc`` trial."""
    D, ints = _clear_denominators(c)
    cD = inv.PrimitiveCoords(*ints)
    phi = inv.coords_to_form(cD).map_coeffs(lambda x: Fraction(x, D))
    hat = inv.coords_to_form(inv.hat_map(cD))   # D^3 (-F/2)
    yield "hat_map", hat * -2 == inv.compute_F(phi, omega) * D ** 3
    yield "q_from_coords", inv.q_from_coords(cD) == inv.compute_Q(phi, omega) * D ** 4


def _suite_lemma_bc(seed, trials, report):
    """Closed-form hat map and quartic against the brute-force invariants,
    on D c: hat(D c) = D^3 hat(c) against D^3 F and q(D c) = D^4 q(c)
    against D^4 Q, with F and Q from the library on the Fraction phi."""
    rng = random.Random(seed)
    omega = inv.standard_omega()
    for _ in range(trials):
        c = rand_coords(rng)
        failed = next((name for name, holds in _lemma_bc_checks(c, omega)
                       if not holds), None)
        if failed:
            report["counterexample"] = io.coords_to_json(c)
            report["failed_check"] = failed
            return False
    report["residual"] = 0.0
    return True


def _suite_gradients(seed, trials, report):
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(trials):
        c = inv.PrimitiveCoords(*(rng.uniform(-2, 2) for _ in range(14)))
        worst = max(worst, inv.gradient_relations_check(c))
    report["residual"] = worst
    return worst < 1e-6


@functools.cache
def _nijenhuis_setups():
    """The nil setup and the exact solv one with lam = 7/5, built once per
    process, so that their identity tables are too."""
    return (liealg.builtin_setup("nil-debartolomeis"),
            liealg.InvariantSetup.standard(liealg.solv_algebra(Fraction(7, 5))))


def _suite_nijenhuis(seed, trials, report):
    """The Nijenhuis identity on the nil and solv setups in turn; a failed
    report names the first basis pair and 5-form component that broke."""
    rng = random.Random(seed)
    setups = _nijenhuis_setups()
    for n in range(trials):
        c = rand_coords(rng)
        phi = inv.coords_to_form(c)
        res = liealg.verify_nijenhuis_identity(setups[n % 2], phi)
        if res != 0.0:
            report["counterexample"] = io.coords_to_json(c)
            report["failed_check"] = liealg._identity_failure(setups[n % 2], phi)
            report["residual"] = res
            return False
    report["residual"] = 0.0
    return True


_LEAF_CS = (-0.1, 0.0, 0.5, 2.0)
_LEAF_POINTS = 4


def _suite_hessian(seed, trials, report):
    """The leaf-geometry checks on one random base metric per 32 trials, at
    _LEAF_POINTS random fiber points for each C in _LEAF_CS."""
    rng = random.Random(seed)
    worst = {}
    ok = True
    cs = ", ".join(f"{C:g}" for C in _LEAF_CS)
    report["grid"] = f"per metric: C in {{{cs}}}, {_LEAF_POINTS} random fiber points each"
    for _ in range(max(1, trials // 32)):
        a = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        metric = hessian.BaseMetric3((a @ a.T + 1.5 * np.eye(3)).tolist())
        for C in _LEAF_CS:
            for _ in range(_LEAF_POINTS):
                t = tuple(rng.uniform(0.5, 1.8) * rng.choice((-1, 1))
                          for _ in range(3))
                p = hessian.FiberPoint(t, C)
                try:
                    p.validate(metric)
                except hessian.DomainError:
                    continue
                checks = hessian.fiber_verifications(metric, p)
                data = hessian.leaf_data(metric, p)
                S, ricci = hessian.scalar_curvature(data)
                checks["scalar_closed_form"] = abs(
                    S - hessian.closed_form_scalar_curvature(metric, p))
                checks["ricci_min_eig"] = -min(
                    0.0, float(np.linalg.eigvalsh(ricci).min()))
                checks["affine_fd"] = hessian.affine_derivative_check(metric, p)
                for k, v in checks.items():
                    worst[k] = max(worst.get(k, 0.0), v)
    limits = {"primitivity": 1e-12, "F_closed_form": 1e-10,
              "K_kills_fibers": 1e-10, "K_frame_match": 1e-9,
              "det_h_minus_8detg": 1e-10, "h_inv_vs_numeric": 1e-10,
              "scalar_closed_form": 1e-8, "ricci_min_eig": 1e-10,
              "affine_fd": 1e-4}
    report["residuals"] = worst
    for k, lim in limits.items():
        if worst.get(k, 0.0) > lim:
            ok = False
            report.setdefault("failures", []).append(f"{k} = {worst[k]} > {lim}")
    return ok


SUITES = {
    "identities": _suite_identities,
    "lemma-bc": _suite_lemma_bc,
    "gradients": _suite_gradients,
    "nijenhuis": _suite_nijenhuis,
    "hessian": _suite_hessian,
}


def run(suite, seed, trials):
    """Run one named verification suite; returns (passed, report dict)."""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    report = {"suite": suite, "seed": seed, "trials": trials}
    passed = SUITES[suite](seed, trials, report)
    report["passed"] = bool(passed)
    return passed, report
