"""Seeded verification suites and the random data they draw.

Each suite checks one family of identities on ``trials`` inputs drawn from
``random.Random(seed)``: the exact polynomial identities of K, F and Q with
the contraction lemma (``identities``), the closed-form hat map and quartic
of the 14-coefficient chart (``lemma-bc``), the gradient relations of Q
(``gradients``), the Nijenhuis identity on the built-in algebras
(``nijenhuis``) and the Hessian leaf geometry (``hessian``).  ``run`` returns
(passed, report); the CLI and the acceptance tests both call it.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from . import hessian, invariants as inv, io, liealg
from .exterior import Form, interior, wedge


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


def _suite_identities(seed, trials, report):
    """Exact polynomial identities of K, F, Q and the contraction lemma."""
    rng = random.Random(seed)
    vol = inv.volume_of(inv.standard_omega())
    for n in range(trials):
        phi = inv.coords_to_form(rand_coords(rng)) if n % 2 else rand_three_form(rng)
        K = inv.compute_K(phi, vol=vol)
        F = inv.compute_F(phi, vol=vol)
        pf = wedge(phi, F)
        Q = -pf.coeffs.get(63, 0)
        KK = K.compose(K)
        ok = all(KK.rows[i][j] == (Fraction(Q, 4) if i == j else 0)
                 for i in range(6) for j in range(6))
        KF = inv.compute_K(F, vol=vol)
        ok = ok and all(KF.rows[i][j] == -Q * K.rows[i][j]
                        for i in range(6) for j in range(6))
        FF = inv.compute_F(F, vol=vol)
        ok = ok and FF == phi.map_coeffs(lambda x: -Q * Q * x)
        X = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        Y = [Fraction(rng.randint(-4, 4)) for _ in range(6)]
        iXphi, iXF = interior(X, phi), interior(X, F)
        iXphi_F = wedge(iXphi, F)
        ok = ok and iXphi_F == -wedge(phi, iXF)
        ok = ok and iXphi_F == interior(X, pf).map_coeffs(lambda v: Fraction(v, 2))
        o21 = wedge(iXphi, interior(Y, F)) + wedge(interior(Y, phi), iXF)
        ok = ok and not o21.coeffs
        ok = ok and wedge(interior(Y, iXphi), F) == wedge(phi, interior(Y, iXF))
        if not ok:
            report["counterexample"] = io.form_to_json(phi)
            return False
    report["residual"] = 0.0
    return True


def _suite_lemma_bc(seed, trials, report):
    """Closed-form hat map and quartic against the brute-force invariants."""
    rng = random.Random(seed)
    omega = inv.standard_omega()
    for _ in range(trials):
        c = rand_coords(rng)
        phi = inv.coords_to_form(c)
        lhs = inv.coords_to_form(inv.hat_map(c))
        F = inv.compute_F(phi, omega)
        rhs = F.map_coeffs(lambda x: Fraction(x, -2))
        if lhs != rhs or inv.q_from_coords(c) != inv.compute_Q(phi, omega):
            report["counterexample"] = io.coords_to_json(c)
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


def _suite_nijenhuis(seed, trials, report):
    rng = random.Random(seed)
    setups = (liealg.builtin_setup("nil-debartolomeis"),
              liealg.InvariantSetup.standard(liealg.solv_algebra(Fraction(7, 5))))
    worst = 0.0
    for n in range(trials):
        c = rand_coords(rng)
        res = liealg.verify_nijenhuis_identity(setups[n % 2], inv.coords_to_form(c))
        if res != 0.0:
            report["counterexample"] = io.coords_to_json(c)
            report["residual"] = res
            return False
        worst = max(worst, res)
    report["residual"] = worst
    return True


def _suite_hessian(seed, trials, report):
    rng = random.Random(seed)
    worst = {}
    ok = True
    for _ in range(max(1, trials // 32)):
        a = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        metric = hessian.BaseMetric3((a @ a.T + 1.5 * np.eye(3)).tolist())
        for C in (-0.1, 0.0, 0.5, 2.0):
            for _ in range(4):
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
