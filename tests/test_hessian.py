import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from forms6 import hessian as hs
from forms6 import invariants as inv
from forms6 import linalg, verify
from forms6.exterior import is_exact, wedge


@pytest.fixture
def rng():
    return random.Random(424242)


def rand_spd(rng, shift=1.5):
    a = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
    return hs.BaseMetric3((a @ a.T + shift * np.eye(3)).tolist())


def domain_point(rng, metric, C, lo=0.6, hi=1.8):
    while True:
        t = tuple(rng.uniform(lo, hi) * rng.choice((-1, 1)) for _ in range(3))
        p = hs.FiberPoint(t, C)
        try:
            p.validate(metric)
            return p
        except hs.DomainError:
            continue


# --- construction ------------------------------------------------------------------

def test_base_metric_validation():
    with pytest.raises(ValueError, match="positive definite"):
        hs.BaseMetric3([[1, 2, 0], [2, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="symmetric"):
        hs.BaseMetric3([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


def test_domain_constraints():
    g = hs.BaseMetric3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(hs.DomainError):
        hs.FiberPoint((0, 0, 0), 1).validate(g)       # r = 0 with C != 0
    with pytest.raises(hs.DomainError):
        # r = 0.09 < 0.1^(2/3) ~ 0.215: inside the excised ball for C = -0.1
        hs.FiberPoint((0.3, 0, 0), -0.1).validate(g)
    hs.FiberPoint((0.3, 0, 0), 0).validate(g)          # fine when C = 0


def test_excision_margin_is_relative():
    # the leaf geometry is homogeneous under t -> s t, C -> s^3 C, and r has
    # degree 2 in t: a point at r = 1.5 (-C)^(2/3) lies outside the excised
    # ball at every scale s
    g = hs.BaseMetric3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for s in (2.0 ** -20, 1.0, 2.0 ** 20):
        C = -0.1 * s ** 3
        p = hs.FiberPoint((math.sqrt(1.5) * (-C) ** (1 / 3), 0.0, 0.0), C)
        assert p.validate(g) > (-C) ** (2 / 3)
        hs.leaf_data(g, p)


def test_profile_choice_normalization(rng):
    # the defining property of the chosen profile: f^2 (f + 2 r f') = 1
    for _ in range(20):
        r = rng.uniform(0.2, 9.0)
        C = rng.choice((-0.1, 0.5, 2.0))
        if r ** 1.5 + C <= 0:
            continue
        f, fp = hs.profile(r, C)
        assert abs(f * f * (f + 2 * r * fp) - 1.0) < 1e-12
    f, fp = hs.profile(Fraction(7, 3), 0)
    assert (f, fp) == (1, 0)


# --- the exact rational path --------------------------------------------------------

EXACT_METRIC = hs.BaseMetric3([[1, 0, 0], [0, 4, 0], [0, 0, 1]])  # det 4, sqrt 2


def test_exact_primitivity_and_determinant():
    p = hs.FiberPoint((Fraction(1, 2), 1, Fraction(-3, 2)), 0)
    omega, phi = hs.build_six_forms(EXACT_METRIC, p)
    assert not wedge(omega, phi).coeffs
    data = hs.leaf_data(EXACT_METRIC, p)
    assert linalg.det(data.h) == 8 * EXACT_METRIC.det
    assert all(isinstance(x, Fraction) for row in data.h for x in row)
    assert hs.scalar_curvature(data)[0] == 0.0
    assert all(x == 0 for mat in data.h3 for row in mat for x in row)


def test_exact_checks_all_zero(rng):
    for _ in range(5):
        p = hs.FiberPoint(tuple(Fraction(rng.randint(1, 8), rng.randint(1, 4))
                                * rng.choice((-1, 1)) for _ in range(3)), 0)
        checks = hs.fiber_verifications(EXACT_METRIC, p)
        assert all(v == 0.0 for v in checks.values()), checks


# C = 0 with rational g, t and sqrt(det g) keeps a point exact; anything else
# is float.  g = A A^T has sqrt(det g) = |det A|, and 2 A A^T does not.
_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(_rationals, min_size=3, max_size=3), min_size=3, max_size=3),
       st.lists(st.tuples(st.fractions(min_value=1, max_value=4, max_denominator=4),
                          st.sampled_from((1, -1))).map(lambda xs: xs[0] * xs[1]),
                min_size=3, max_size=3))
def test_one_exact_or_float_rule(A, t):
    assume(linalg.det(A) != 0)
    AAt = [[sum(A[i][k] * A[j][k] for k in range(3)) for j in range(3)]
           for i in range(3)]
    metrics = {"square": AAt, "non-square": [[2 * x for x in row] for row in AAt],
               "float": [[float(x) for x in row] for row in AAt]}
    points = {"rational": tuple(t), "float": tuple(float(x) for x in t),
              "mixed": (t[0], float(t[1]), t[2])}
    for mkind, g in metrics.items():
        metric = hs.BaseMetric3(g)
        for pkind, coords in points.items():
            for C in (0, 0.0, Fraction(1, 2), 0.5, 2.0, -0.1):
                p = hs.FiberPoint(coords, C)
                try:
                    p.validate(metric)
                except hs.DomainError:
                    continue
                exact = C == 0 and mkind == "square" and pkind == "rational"
                omega, phi = hs.build_six_forms(metric, p)
                for scalars in (list(omega.coeffs.values()) + list(phi.coeffs.values()),
                                [x for row in hs.leaf_data(metric, p).h for x in row],
                                [x for row in hs._leaf_h(metric, p)[0] for x in row]):
                    assert all(is_exact(x) if exact else type(x) is float
                               for x in scalars), (mkind, pkind, C)


# --- float path over the domain grid ---------------------------------------------------

@pytest.mark.parametrize("C", [-0.1, 0.0, 0.5, 2.0])
def test_pointwise_verifications(rng, C):
    for _ in range(3):
        metric = rand_spd(rng)
        p = domain_point(rng, metric, C)
        checks = hs.fiber_verifications(metric, p)
        assert checks["primitivity"] < 1e-12
        assert checks["F_closed_form"] < 1e-10
        assert checks["K_kills_fibers"] < 1e-10
        assert checks["K_frame_match"] < 1e-9
        assert checks["det_h_minus_8detg"] < 1e-10
        assert checks["h_inv_vs_numeric"] < 1e-10


@pytest.mark.parametrize("C", [-0.1, 0.0, 0.5, 2.0])
def test_scalar_curvature_closed_form(rng, C):
    for _ in range(3):
        metric = rand_spd(rng)
        p = domain_point(rng, metric, C)
        data = hs.leaf_data(metric, p)
        S, ricci = hs.scalar_curvature(data)
        assert abs(S - hs.closed_form_scalar_curvature(metric, p)) < 1e-8
        # the 5-index contraction (1/4) h^{st} h^{ik} h^{jl} h_{sil} h_{tkj}
        hi = np.array([[float(x) for x in row] for row in data.h_inv])
        t3 = np.array([[[float(x) for x in row] for row in mat] for mat in data.h3])
        S5 = 0.25 * np.einsum("st,ik,jl,sil,tkj->", hi, hi, hi, t3, t3)
        assert abs(S - S5) < 1e-12 * max(1.0, abs(S))
        # trace consistency and positive semidefiniteness
        assert abs(np.einsum("jk,jk->", hi, ricci) - S) < 1e-10 * max(1.0, abs(S))
        assert np.linalg.eigvalsh(ricci).min() > -1e-10


def test_curvature_rho_grid():
    # rho from 0.5 to 5 on the identity metric, all admissible C
    gid = hs.BaseMetric3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for C in (-0.1, 0.0, 0.5, 2.0):
        for rho in (0.5, 1.0, 2.0, 3.5, 5.0):
            if rho ** 3 + C <= 0:
                continue
            p = hs.FiberPoint((rho, 0.0, 0.0), C)
            try:
                p.validate(gid)
            except hs.DomainError:
                continue
            data = hs.leaf_data(gid, p)
            S, _ = hs.scalar_curvature(data)
            assert abs(S - hs.closed_form_scalar_curvature(gid, p)) < 1e-8


def test_h3_total_symmetry(rng):
    metric = rand_spd(rng)
    p = domain_point(rng, metric, 0.7)
    h3 = hs.leaf_data(metric, p).h3
    for j in range(3):
        for k in range(3):
            for l in range(3):
                assert h3[j][k][l] == h3[k][j][l] == h3[l][k][j] == h3[j][l][k]


def test_metric_is_read_once(rng, monkeypatch):
    """On a warm metric leaf_data computes no det or inverse, and a whole
    leaves item only the det and inverse of h in fiber_verifications."""
    metric = rand_spd(rng)
    p = domain_point(rng, metric, 0.5)
    hs.leaf_data(metric, p)
    calls = []
    for name in ("det", "inverse"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name,
                            lambda rows, fn=fn, name=name: calls.append(name) or fn(rows))
    hs.leaf_data(metric, domain_point(rng, metric, -0.1))
    assert calls == []
    hs.fiber_verifications(metric, p)
    hs.scalar_curvature(hs.leaf_data(metric, p))
    hs.affine_derivative_check(metric, p)
    assert calls == ["det", "inverse"]


@pytest.mark.parametrize("C", [-0.1, 0.5, 2.0])
def test_affine_derivative_check(rng, C):
    metric = rand_spd(rng)
    p = domain_point(rng, metric, C, lo=0.8)
    assert hs.affine_derivative_check(metric, p) < 1e-4


def test_affine_derivative_exact_when_flat(rng):
    metric = rand_spd(rng)
    p = domain_point(rng, metric, 0.0)
    assert hs.affine_derivative_check(metric, p) < 1e-6


@pytest.mark.parametrize("C", [-0.1, 0.0, 0.5, 2.0])
def test_affine_derivative_check_differentiates_h_alone(rng, monkeypatch, C):
    """One full leaf package per call; at each of the 6 neighbour points the h
    it differentiates is that of leaf_data, bit for bit."""
    metric = rand_spd(rng)
    p = domain_point(rng, metric, C, lo=0.8)
    leaf_data, leaf_h = hs.leaf_data, hs._leaf_h
    packages, evaluated = [], []

    def counting_leaf_data(m, q):
        packages.append(q)
        return leaf_data(m, q)

    def recording_leaf_h(m, q):
        out = leaf_h(m, q)
        evaluated.append((q, out[0]))
        return out

    monkeypatch.setattr(hs, "leaf_data", counting_leaf_data)
    monkeypatch.setattr(hs, "_leaf_h", recording_leaf_h)
    hs.affine_derivative_check(metric, p)
    monkeypatch.undo()
    assert packages == [p]
    neighbours = [(q, h) for q, h in evaluated if q != p]
    assert len(neighbours) == 6
    for q, h in neighbours:
        assert repr(h) == repr(hs.leaf_data(metric, q).h)


# --- one leaf package per fiber point ----------------------------------------------------

def leaf_bits(data):
    """The package's scalars in repr, which keeps the bits of a float, -0.0
    included, and tells a Fraction from a float."""
    return repr((data.h, data.h_inv, data.h3, data.V_frame))


def counting_builds(monkeypatch):
    """Empty the leaf_data slot and record the point of every package built."""
    build, built = hs._build_leaf_data, []

    def counting(metric, p):
        built.append(p)
        return build(metric, p)

    monkeypatch.setattr(hs, "_last_leaf", (None, None))
    monkeypatch.setattr(hs, "_build_leaf_data", counting)
    return built


@pytest.mark.parametrize("C", [-0.1, 0, 0.5, 2])
def test_leaf_data_hit_keeps_the_bits_of_a_fresh_build(rng, C):
    # a hit hands back the package a fresh build makes, bit for bit, also
    # when the point differs from the last one only in the sign of a zero
    # of t, or the metric in the sign of its zero entries
    plus = hs.BaseMetric3([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    minus = hs.BaseMetric3([[1.0, -0.0, 0.0], [-0.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    for metric in (rand_spd(rng), plus, minus):
        for t in ((1.3, 0.0, -0.9), (1.3, -0.0, -0.9), (-0.0, 1.1, 0.0)):
            p = hs.FiberPoint(t, C)
            fresh = leaf_bits(hs._build_leaf_data(metric, p))
            assert leaf_bits(hs.leaf_data(metric, p)) == fresh
            assert leaf_bits(hs.leaf_data(metric, hs.FiberPoint(t, C))) == fresh
    # the sign of a zero of g reaches h: the two metrics may not share a slot
    p = hs.FiberPoint((1.0, 0.5, 0.3), 0.0)
    assert leaf_bits(hs._build_leaf_data(plus, p)) != leaf_bits(hs._build_leaf_data(minus, p))
    for first, second in ((plus, minus), (minus, plus)):
        hs.leaf_data(first, p)
        assert leaf_bits(hs.leaf_data(second, p)) == leaf_bits(hs._build_leaf_data(second, p))


def test_leaf_data_alternating_points_get_their_own_packages(rng, monkeypatch):
    metric = rand_spd(rng)
    a, b = domain_point(rng, metric, 0.5), domain_point(rng, metric, -0.1)
    want = {p: leaf_bits(hs._build_leaf_data(metric, p)) for p in (a, b)}
    built = counting_builds(monkeypatch)
    for p in (a, b, a):
        assert leaf_bits(hs.leaf_data(metric, p)) == want[p]
        assert hs.leaf_data(metric, p) is hs.leaf_data(metric, p)
    assert built == [a, b, a]


def test_leaf_data_keeps_the_exact_or_float_rule_across_the_slot():
    # an exact point and its equal-valued float copy, of the metric, the
    # point or both, compare equal; each gets a package of its own backend.
    # C = 0.0 keeps a rational point exact, and C = 0 is its exact copy
    p = hs.FiberPoint((Fraction(1, 2), 1, Fraction(-3, 2)), 0)
    float_metric = hs.BaseMetric3([[float(x) for x in row] for row in EXACT_METRIC.g])
    float_p = hs.FiberPoint(tuple(float(x) for x in p.t), 0.0)
    exact = (EXACT_METRIC, p, True)
    for copy in ((float_metric, p, False), (EXACT_METRIC, float_p, False),
                 (float_metric, float_p, False), (EXACT_METRIC, hs.FiberPoint(p.t, 0.0), True)):
        for first, second in ((exact, copy), (copy, exact)):
            hs.leaf_data(*first[:2])
            data = hs.leaf_data(*second[:2])
            scalars = [x for rows in (data.h, data.h_inv, data.V_frame) for row in rows
                       for x in row]
            assert all(is_exact(x) if second[2] else type(x) is float for x in scalars)


def test_leaf_package_is_immutable(rng):
    metric = rand_spd(rng)
    for C in (0, 0.5):
        p = domain_point(rng, metric, C)
        data = hs.leaf_data(metric, p)
        with pytest.raises(AttributeError):
            data.h = ()
        for rows in (data.h, data.h_inv, data.V_frame, *data.h3, hs._leaf_h(metric, p)[0]):
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            with pytest.raises(TypeError):
                rows[0][0] = 1.0
        assert type(data.h3) is tuple


@pytest.mark.parametrize("C", [-0.1, 0.0, 0.5, 2.0])
def test_one_leaves_item_builds_one_package(rng, monkeypatch, C):
    # the calls of one leaves item on one point (bench/workloads.py) build
    # its package once, where each of its three leaf_data reads built it
    metric = rand_spd(rng)
    p = domain_point(rng, metric, C, lo=0.8)
    built = counting_builds(monkeypatch)
    hs.fiber_verifications(metric, p)
    hs.scalar_curvature(hs.leaf_data(metric, p))
    hs.closed_form_scalar_curvature(metric, p)
    hs.affine_derivative_check(metric, p)
    assert built == [p]


def test_hessian_suite_builds_one_package_per_point(monkeypatch):
    built = counting_builds(monkeypatch)
    checked, fiber_verifications = [], hs.fiber_verifications

    def recording(metric, p):
        checked.append(p)
        return fiber_verifications(metric, p)

    monkeypatch.setattr(hs, "fiber_verifications", recording)
    passed, report = verify.run("hessian", 0, 64)
    assert passed, report
    assert len(checked) > 16 and built == checked


def test_polar_cross_check(rng):
    gid = hs.BaseMetric3([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for C in (0.0, 0.5, 2.0, -0.1):
        p = domain_point(rng, gid, C, lo=0.7)
        t = np.array([float(x) for x in p.t])
        ur = t / np.linalg.norm(t)
        ut = np.array([-t[1], t[0], 0.0])
        ut /= np.linalg.norm(ut)
        rad, tan = hs.polar_leaf_metric(p, gid)
        assert abs(hs.leaf_metric_value(gid, p, ur, ur) - rad) < 1e-10
        assert abs(hs.leaf_metric_value(gid, p, ut, ut) - tan) < 1e-10
        assert abs(hs.leaf_metric_value(gid, p, ur, ut)) < 1e-10


def test_phi_f_classifies_into_O0_plus(rng):
    # the construction lands in the nondegenerate unstable orbit with
    # signature (3,3,0), for the induced (non-standard) omega
    metric = rand_spd(rng)
    p = domain_point(rng, metric, 0.5)
    omega, phi = hs.build_six_forms(metric, p)
    vol = inv.volume_of(omega)
    Q = inv.compute_Q(phi, vol=vol)
    assert abs(float(Q)) < 1e-10
    dims = inv.subspace_dims(phi, vol=vol)
    assert tuple(dims) == (0, 3, 3, 6)
    sig = inv.signature(inv.q_form(phi, omega))
    assert tuple(sig) == (3, 3, 0)
