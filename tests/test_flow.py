import functools
import math
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_coords
from forms6 import flow
from forms6 import invariants as inv
from forms6 import liealg as la
from forms6.exterior import basis, form_max_diff

NIL = la.builtin_setup("nil-debartolomeis")
SOLV = la.builtin_setup("solv-tomassini")
AB = la.builtin_setup("abelian")
SOLV_EXACT = la.InvariantSetup.standard(la.solv_algebra(Fraction(7, 5)))


def rand_nil_coords(rng, h_min=0.3, h_max=1.2):
    c = [rng.uniform(-1, 1) for _ in range(14)]
    c[7] = rng.uniform(h_min, h_max) * rng.choice((-1, 1))
    return inv.PrimitiveCoords(*c)


def rand_solv_data(rng):
    while True:
        sd = flow.SolvData(*(rng.uniform(0.5, 2.0) for _ in range(4)),
                           M=rng.uniform(-0.3, 0.3), N=rng.uniform(-0.3, 0.3))
        if flow.positivity_check(sd).ok:
            return sd


def solv_system(sd):
    """The four-component closed-ansatz system, hand-written, as a
    ReducedFlow on rows (alpha, beta, gamma, delta, 1): the paper's closed
    system on the solv algebra, which the tests hold the generic right side
    to.  The integrator always goes through the generic reduced right side."""
    l2 = 4.0 * sd.lam ** 2
    MN2m = (sd.M - sd.N) ** 2
    MN2p = (sd.M + sd.N) ** 2
    # alpha' = l2 alpha (4 beta gamma - (M-N)^2), beta' = l2 beta (4 alpha
    # delta - (M+N)^2), gamma' likewise, delta' like alpha'
    return flow._padded_flow(5, [
        (0, 4.0 * l2, (0, 1, 2)), (0, -l2 * MN2m, (0, 4, 4)),
        (1, 4.0 * l2, (0, 1, 3)), (1, -l2 * MN2p, (1, 4, 4)),
        (2, 4.0 * l2, (0, 2, 3)), (2, -l2 * MN2p, (2, 4, 4)),
        (3, 4.0 * l2, (1, 2, 3)), (3, -l2 * MN2m, (3, 4, 4)),
    ])


# --- right side --------------------------------------------------------------------

def test_reduced_rhs_nil_structure(rng):
    for _ in range(10):
        c = inv.PrimitiveCoords(*(rng.uniform(-1, 1) for _ in range(14)))
        r = flow.reduced_rhs(NIL, c)
        hats = inv.hat_map(c.to_floats())
        assert abs(r.A - 4 * hats.H) < 1e-12 * max(1.0, abs(4 * hats.H))
        assert abs(r.A - (-4 * c.A * c.H ** 2
                          + flow.NilData.from_coords(c).R)) < 1e-10
        assert all(x == 0 for x in r[1:])


def test_reduced_rhs_solv_matches_hand_coded_system(rng):
    for _ in range(10):
        sd = flow.SolvData(*(rng.uniform(-2, 2) for _ in range(4)),
                           M=rng.uniform(-1, 1), N=rng.uniform(-1, 1))
        r = flow.reduced_rhs(SOLV, sd.to_coords())
        hand = solv_system(sd).rhs(
            np.array([sd.alpha, sd.beta, sd.gamma, sd.delta, 1.0]))
        got = np.array([r.A, r.C, r.E, -r.G, 0.0])
        assert np.allclose(got, hand, rtol=1e-12, atol=1e-12)
        # the ansatz shape is preserved slot by slot
        assert r.A == r.B and r.C == -r.D and r.E == -r.F and r.G == r.H
        assert all(x == 0 for x in (r.I, r.J, r.K, r.L, r.M, r.N))


@functools.cache
def _matrix(setup):
    return [[Fraction(x) for x in row] for row in la.dlambdad_coords_matrix(setup)]


def _minus_2_M_hat(setup, c):
    M, hat = _matrix(setup), inv.hat_map(c)
    return [-2 * sum(M[i][j] * hat[j] for j in range(14) if M[i][j]) for i in range(14)]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(-8, 8, max_denominator=12), min_size=14, max_size=14))
def test_rhs_table_is_minus_2_M_hat_exactly(c):
    for setup in (NIL, SOLV_EXACT):
        monos, rows = flow.rhs_table(setup)
        got = [0] * 14
        for (p, q, r), row in zip(monos, rows):
            x = c[p] * c[q] * c[r]
            for i, t in enumerate(row):
                if t:
                    got[i] += t * x
        assert got == _minus_2_M_hat(setup, c)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=14, max_size=14),
       st.floats(-6.0, 6.0))
def test_rhs_rows_agree_with_closed_form_at_scale(c, e):
    # against -2 M hat(y) evaluated exactly on the float y, at |y| from
    # 1e-6 to 1e6; the rows of a batch are those of single calls, bit for bit
    y = np.array(c) * 10.0 ** e
    bound = 1e-14 * float(np.max(np.abs(y))) ** 3
    for setup in (NIL, SOLV):
        rhs = flow.reduced_flow(setup).rhs
        got = rhs(y)
        want = _minus_2_M_hat(setup, [Fraction(x) for x in y.tolist()])
        assert max(abs(g - float(w)) for g, w in zip(got.tolist(), want)) <= bound
        batch = rhs(np.stack((y[::-1], y, 2.0 * y)))
        assert np.array_equal(batch[1], got) and np.array_equal(batch[0], rhs(y[::-1]))


def test_reduced_rhs_abelian_zero(rng):
    r = flow.reduced_rhs(AB, rand_coords(rng))
    assert all(x == 0 for x in r)


def test_reduced_rhs_matches_full_operator(rng):
    for setup in (NIL, SOLV):
        c = inv.PrimitiveCoords(*(rng.uniform(-1, 1) for _ in range(14)))
        r1 = flow.reduced_rhs(setup, c)
        r2 = inv.form_to_coords(la.flow_operator(setup, inv.coords_to_form(c)))
        assert max(abs(a - b) for a, b in zip(r1, r2)) < 1e-11


# --- nil closed form -----------------------------------------------------------------

def test_nil_closed_form_values():
    nd = flow.NilData(H=0.5, R=2.0, constants=inv.PrimitiveCoords())
    assert flow.nil_closed_form(nd, 0.7, 0.0) == 0.7
    assert abs(flow.nil_closed_form(nd, 0.7, 1e6) - nd.R / (4 * nd.H ** 2)) < 1e-12
    nd0 = flow.NilData(H=0.0, R=2.0, constants=inv.PrimitiveCoords())
    assert flow.nil_closed_form(nd0, 0.7, 3.0) == 0.7 + 6.0


def test_nil_trajectory_matches_closed_form(rng):
    for _ in range(4):
        c = rand_nil_coords(rng)
        nd = flow.NilData.from_coords(c)
        traj = flow.integrate(NIL, c, 10.0,
                              flow.FlowControls(detect_stationary=False))
        assert traj.status == "reached_t_max"
        for i, t in enumerate(traj.times):
            expect = flow.nil_closed_form(nd, float(c.A), float(t))
            assert abs(traj.states[i, 0] - expect) <= 1e-6 * max(1.0, abs(expect))
        assert np.array_equal(traj.states[:, 1:],
                              np.tile(traj.states[0, 1:], (len(traj.times), 1)))


def test_nil_linear_branch_exact(rng):
    c = rand_nil_coords(rng)._replace(H=0.0)
    nd = flow.NilData.from_coords(c)
    assert nd.H == 0.0
    traj = flow.integrate(NIL, c, 100.0, flow.FlowControls(detect_stationary=False))
    for i, t in enumerate(traj.times):
        expect = float(c.A) + nd.R * float(t)
        assert abs(traj.states[i, 0] - expect) <= 1e-9 * max(1.0, abs(expect))


def test_nil_convergence_to_stationary_value(rng):
    c = rand_nil_coords(rng, 0.5, 1.0)
    nd = flow.NilData.from_coords(c)
    t_needed = 18.0 / (4 * nd.H ** 2)
    traj = flow.integrate(NIL, c, max(10.0, t_needed))
    limit = nd.R / (4 * nd.H ** 2)
    assert abs(traj.final_state[0] - limit) <= 1e-6 * max(1.0, abs(limit))


SCALED_NIL = inv.PrimitiveCoords(A=0.2, B=0.5, C=-0.3, D=1.0, E=0.7, F=1.2,
                                 G=-0.8, H=0.9, I=0.3, J=0.6, K=-0.2, L=0.4,
                                 M=0.1, N=-0.5)


@pytest.mark.parametrize("s", [1e-6, 2.0 ** -20, 1e-4, 1e-3, 1e-2, 1.0, 1e2])
def test_nil_flow_is_scale_equivariant(s):
    # f is a homogeneous cubic: c -> s c maps t -> t / s^2 and the limit
    # R/(4H^2) -> s R/(4H^2), so no scale may stop early or settle off it
    c = SCALED_NIL
    nd = flow.NilData.from_coords(c)
    t_max = 10.0 / s ** 2
    traj = flow.integrate(NIL, [s * x for x in c], t_max)
    assert traj.t_final == t_max
    limit = s * nd.R / (4 * nd.H ** 2)
    assert abs(traj.final_state[0] - limit) <= 1e-12 * abs(limit)
    # run on four times as long, the state stays on the limit
    traj = flow.integrate(NIL, [s * x for x in c], 4 * t_max,
                          flow.FlowControls(detect_stationary=False))
    assert abs(traj.final_state[0] - limit) <= 1e-12 * abs(limit)


@pytest.mark.parametrize("detect", [True, False])
def test_power_of_two_scaling_takes_the_same_steps(detect):
    # the step rule, the stationarity cut and its norm hold are relative to
    # |y|, so a scaling by s = 2^j scales every time by 2^-2j and every
    # state by 2^j, for either sign of j
    controls = flow.FlowControls(detect_stationary=detect)
    ref = flow.integrate(NIL, SCALED_NIL, 40.0, controls)
    assert ref.status == ("converged" if detect else "reached_t_max")
    for s in (2.0 ** -20, 2.0 ** 20):
        got = flow.integrate(NIL, [s * x for x in SCALED_NIL], 40.0 / s ** 2, controls)
        assert (got.status, got.n_accepted, got.n_rejected) == \
            (ref.status, ref.n_accepted, ref.n_rejected)
        assert np.array_equal(got.times * s ** 2, ref.times)
        assert np.array_equal(got.states / s, ref.states)


def _draw_solv(rng):
    """A closed, positive solv start drawn as the flow-sweep benchmark draws
    them."""
    while True:
        abgd = [rng.uniform(0.5, 2.0) for _ in range(4)]
        sd = flow.SolvData(*abgd, rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        if flow.positivity_check(sd).ok:
            return list(sd.to_coords())


def _bench_pool(seed):
    """The solv and nil starts of the flow-sweep benchmark pool of a seed:
    three rounds of one solv sweep then three nil sweeps, two starts each;
    solv starts closed and positive, nil starts with 0.5 <= |H| <= 1.2."""
    rng = random.Random(seed)
    solv, nil = [], []
    for kind in (["solv"] + ["nil"] * 3) * 3:
        for _ in range(2):
            if kind == "solv":
                solv.append(_draw_solv(rng))
                continue
            c = [rng.uniform(-1.0, 1.0) for _ in range(14)]
            c[7] = rng.uniform(0.5, 1.2) * rng.choice((-1, 1))
            nil.append(c)
    return solv, nil


POOLS = [_bench_pool(seed) for seed in (7, 11, 23)]
POOL_RUNS = {"solv": (SOLV, [c for p in POOLS for c in p[0]], 100.0),
             "nil": (NIL, [c for p in POOLS for c in p[1]], 40.0)}
DEFAULT_BLOW_NORM = flow.FlowControls().blow_norm


@functools.cache
def _pool_run(kind, blow_norm, s):
    """The pool's starts of one kind scaled by s, run to t_max / s^2."""
    setup, starts, t_max = POOL_RUNS[kind]
    return flow.integrate_sweep(setup, [[s * x for x in c] for c in starts],
                                t_max / s / s, flow.FlowControls(blow_norm=blow_norm))


def _limit(traj):
    try:
        form, orbit = flow.normalized_limit(traj, "A")
    except flow.LimitError:
        return None
    return form, orbit.label


@pytest.mark.parametrize("blow_norm", [1e5, DEFAULT_BLOW_NORM])
@pytest.mark.parametrize("kind", ["solv", "nil"])
def test_pool_starts_scale_by_powers_of_two(kind, blow_norm):
    # every row is stepped in its own power-of-two units and every stop test
    # is relative, so a start scaled by 2^j takes the same steps, stops the
    # same way and gives the scaled bits and the same limit, up to |y| of
    # 2^400 where cubes of y itself would overflow
    refs = _pool_run(kind, blow_norm, 1.0)
    for j in (-400, -30, 30, 400):
        s = 2.0 ** j
        for ref, got in zip(refs, _pool_run(kind, blow_norm, s)):
            assert (got.status, got.n_accepted, got.n_rejected, got.rhs_rows) == \
                (ref.status, ref.n_accepted, ref.n_rejected, ref.rhs_rows)
            assert np.array_equal(got.states / s, ref.states)
            assert np.array_equal(got.times * s * s, ref.times)
            assert _limit(got) == _limit(ref)
    if kind == "solv":
        assert {t.status for t in refs} == {"blow_up"}
        assert {_limit(t)[1] for t in refs} == {"O-+"}


@pytest.mark.parametrize("kind, held", [("solv", "IJKLMN"), ("nil", "BCDEFGHIJKLMN")])
def test_unmoved_coordinates_keep_their_start_bits(kind, held):
    # f moves A..H on the solv algebra and only A on the nil one; a
    # monomial with fewer than two moving factors gets no Cauchy product,
    # and every other coordinate keeps the bits of its start at each sample
    poly = flow.reduced_flow(POOL_RUNS[kind][0])
    moved = "".join(n for n, col in zip(inv.COORD_NAMES, poly.table.T) if col.any())
    assert moved == {"solv": "ABCDEFGH", "nil": "A"}[kind]
    assert (poly.n_cauchy, len(poly.table)) == {"solv": (40, 96), "nil": (0, 12)}[kind]
    cols = [inv.COORD_NAMES.index(n) for n in held]
    for s in (1.0, 2.0 ** -30, 2.0 ** 30):
        for c0, traj in zip(POOL_RUNS[kind][1], _pool_run(kind, DEFAULT_BLOW_NORM, s)):
            start = np.array([s * x for x in c0])[cols]
            assert np.all(traj.states[:, cols] == start)
            assert traj.n_accepted > 0


@pytest.mark.parametrize("blow_norm", [1e5, DEFAULT_BLOW_NORM])
@pytest.mark.parametrize("s", [1e-3, 3.7])
def test_solv_pool_blows_up_alike_at_other_scales(s, blow_norm):
    refs = _pool_run("solv", blow_norm, 1.0)
    for ref, got in zip(refs, _pool_run("solv", blow_norm, s)):
        assert got.status == "blow_up"
        assert _limit(got)[1] == "O-+"
        assert abs(got.t_final * s * s - ref.t_final) <= 1e-9 * ref.t_final


@pytest.mark.parametrize("blow_norm", [1e5, DEFAULT_BLOW_NORM])
def test_solv_pool_blows_up_in_few_projective_steps(blow_norm):
    # stepped in tau, each step covers a fixed share of log(T - t), so a
    # start reaches its blow-up in a few passes: at most 11 and 17 at the
    # two gates, against about 50 and 78 in t (and 14 and 19 with the
    # gauge's rate recomputed at every order).  Its limit is O-+ on the
    # alpha delta = beta gamma locus to 1e-8
    most = {1e5: 11, DEFAULT_BLOW_NORM: 17}[blow_norm]
    for traj in _pool_run("solv", blow_norm, 1.0):
        assert traj.status == "blow_up"
        assert traj.n_accepted <= most and traj.rhs_rows == traj.n_accepted + 1
        form, label = _limit(traj)
        cc = inv.form_to_coords(form)
        assert label == "O-+"
        assert abs(cc.A * -cc.G - cc.C * cc.E) <= 1e-8


@pytest.mark.parametrize("seed", [53, 97])
def test_blow_up_limit_is_read_on_the_last_sample(seed):
    # the limit of a blow-up is its last sample's ratios, which lie on the
    # alpha delta = beta gamma locus to 1e-8 on 30 benchmark-style starts;
    # a mean over the final window reached 1.5e-8 and 3.5e-8 on these
    rng = random.Random(seed)
    starts = [_draw_solv(rng) for _ in range(30)]
    for traj in flow.integrate_sweep(SOLV, starts, 100.0, SOLV_CONTROLS):
        assert traj.status == "blow_up"
        form, label = _limit(traj)
        cc = inv.form_to_coords(form)
        assert label == "O-+"
        assert abs(cc.A * -cc.G - cc.C * cc.E) <= 1e-8


@pytest.mark.parametrize("blow_norm", [1e5, DEFAULT_BLOW_NORM])
def test_blow_up_message_states_growth_and_estimate(blow_norm):
    # a blow_up start reports the growth rate g = <y, f(y)>/|y|^2 at its stop
    # and T^ = t + 1/(2g), which lies within 2 rtol t past the stop and below
    # the comparison bound T'
    rtol = flow.FlowControls().rtol
    for c0, traj in zip(POOL_RUNS["solv"][1], _pool_run("solv", blow_norm, 1.0)):
        m = re.search(r"; growth d log\|y\|/dt = (\S+), T\^ = t \+ 1/\(2 growth\) = (\S+)$",
                      traj.message)
        assert m is not None, traj.message
        g, t_hat = map(float, m.groups())
        assert g > 0
        assert traj.t_final <= t_hat <= traj.t_final + 2 * rtol * traj.t_final
        tp = flow.SolvUVTools(flow.SolvData.from_coords(c0)).t_prime
        assert not tp.available or t_hat <= tp.value + 1e-9


def test_blow_up_without_growth_has_no_estimate():
    # a nil start of |y| = 2^544 whose A decays: its first step, 4^-544 in
    # its own units, underflows and cannot move t, while |y| does not grow,
    # so the message says so rather than give a blow-up time
    c0 = [2.0 ** 540 * x for x in SCALED_NIL._replace(A=10.0)]
    traj = flow.integrate(NIL, c0, 1.0, flow.FlowControls(detect_stationary=False))
    assert traj.status == "blow_up" and "cannot move" in traj.message
    assert traj.message.endswith("<= 0, T^ unavailable")


# a generic solv-tomassini start, all 14 coefficients free, that creeps
# toward blow-up along the cone of equilibria
DRIFT_START = [-1.139, -0.662, 0.983, -0.526, -0.550, 0.430, 0.919,
               -0.490, -0.297, 0.515, 0.701, 0.273, -0.770, -0.766]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open fault: an explicit step cannot outrun the drift, so the "
                          "start ends 'error' ('exceeded MAX_STEPS steps')")
def test_ledger_drift_start_is_decided_in_bounded_work(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 1000)
    traj = flow.integrate(SOLV, DRIFT_START, 100.0)
    assert traj.status != "error", traj.message


def test_projective_steps_land_on_t_max():
    # stopped short of its blow-up, a solv start is capped by t_max / 20 and
    # lands on t_max; its state is DOP853's there
    integrate = pytest.importorskip("scipy.integrate")
    c0 = POOL_RUNS["solv"][1][0]
    t_max = 0.5 * _pool_run("solv", 1e5, 1.0)[0].t_final
    traj = flow.integrate(SOLV, c0, t_max)
    assert traj.status == "reached_t_max" and traj.t_final == t_max
    assert traj.n_accepted >= 20 and traj.max_step <= t_max / 20
    rhs = flow.reduced_flow(SOLV).rhs
    sol = integrate.solve_ivp(lambda _t, y: rhs(y), (0.0, t_max), c0, method="DOP853",
                              rtol=1e-12, atol=1e-14)
    ref = sol.y[:, -1]
    assert np.max(np.abs(traj.final_state - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_nil_pool_starts_converge_by_t_100():
    # near a stable nil fixed point the Taylor step grows to a h ~ 8.8,
    # a = 4H^2, where the order-20 series leaves A - R/a bouncing at about
    # 1.3e-10 |y|; the cut at the run's rtol = 1e-9 lies above that bounce
    trajs = flow.integrate_sweep(NIL, POOL_RUNS["nil"][1], 100.0)
    assert len(trajs) == 54
    assert [t.status for t in trajs] == ["converged"] * 54


@pytest.mark.parametrize("rtol", [1e-7, 1e-9, 1e-11])
def test_stationarity_cut_follows_rtol(rtol):
    # the cut is the run's own tolerance, so every start of the pool
    # converges at each rtol and stops within rtol of its limit R/(4H^2)
    starts = POOL_RUNS["nil"][1]
    trajs = flow.integrate_sweep(NIL, starts, 100.0, flow.FlowControls(rtol=rtol))
    assert [t.status for t in trajs] == ["converged"] * 54
    for c0, traj in zip(starts, trajs):
        nd = flow.NilData.from_coords(c0)
        limit = nd.R / (4 * nd.H ** 2)
        assert abs(traj.final_state[0] - limit) <= rtol * max(1.0, abs(limit))
        assert f"<= rtol = {rtol:.3e} over t = " in traj.message


@pytest.mark.parametrize("t_max", [1e4, 1e5, 1e6])
def test_linear_growth_never_converges(t_max):
    # with H = 0, A = A0 + R t grows without bound: f is constant, so it
    # falls below rtol |y|^3 once |y| is large, but max|y| never holds
    # still over a span t_s..2t_s and the start runs to t_max
    c = SCALED_NIL._replace(H=0.0)
    assert flow.NilData.from_coords(c).R != 0.0
    traj = flow.integrate(NIL, c, t_max)
    assert traj.status == "reached_t_max"
    assert traj.t_final == t_max


def test_converged_message_states_the_stop():
    # a converged start reports the cut, its residual at the stop, the hold
    # span and how far max|y| moved over it, in fixed formats
    traj = flow.integrate(NIL, SCALED_NIL, 40.0)
    assert traj.status == "converged"
    m = re.fullmatch(r"max\|f\|/max\|y\|\^3 = (\S+) <= rtol = 1\.000e-09 over "
                     r"t = (\S+)\.\.(\S+), max\|y\| moved (\S+) relative", traj.message)
    assert m is not None, traj.message
    residual, t_s, t, moved = map(float, m.groups())
    assert residual <= 1e-9
    assert 0 < t_s < t == pytest.approx(traj.t_final, rel=1e-5)
    assert moved <= flow.NORM_HOLD


def test_max_steps_stops_with_error(monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    traj = flow.integrate(NIL, POOL_RUNS["nil"][1][0], 40.0)
    assert (traj.status, traj.message) == ("error", "exceeded 3 steps")
    assert traj.n_accepted == traj.rhs_rows == 3
    with pytest.raises(flow.LimitError, match="exceeded 3 steps"):
        flow.normalized_limit(traj, "A")


def test_abelian_converges_immediately(rng):
    traj = flow.integrate(AB, rand_coords(rng), 50.0)
    assert traj.status == "converged"
    assert traj.t_final == 0.0


# --- normalized limits ----------------------------------------------------------------

def test_normalized_limit_nil_divergent(rng):
    c = rand_nil_coords(rng)._replace(H=0.0)
    nd = flow.NilData.from_coords(c)
    if abs(nd.R) < 0.5:
        c = c._replace(D=1.3, J=1.1, F=0.9, L=0.8)
        nd = flow.NilData.from_coords(c)
    assert nd.R != 0
    traj = flow.integrate(NIL, c, 1e8, flow.FlowControls(detect_stationary=False))
    form, orbit = flow.normalized_limit(traj, "A")
    assert orbit.label == "O3"
    assert form_max_diff(form, basis(1, 3, 5)) < 1e-6


def test_normalized_limit_rejects_stationary(rng):
    traj = flow.integrate(AB, rand_coords(rng), 10.0)
    with pytest.raises(flow.LimitError, match="stationary"):
        flow.normalized_limit(traj, "A")


def test_normalized_limit_rejects_a_vanishing_normalizer():
    # B = 0 all along the linearly growing nil start
    c = inv.PrimitiveCoords(A=0.2, D=1.0, F=1.2, G=-0.8, J=0.6, L=0.4, N=-0.5)
    traj = flow.integrate(NIL, c, 1e8, flow.FlowControls(detect_stationary=False))
    assert traj.status == "reached_t_max"
    flow.normalized_limit(traj, "A")
    with pytest.raises(flow.LimitError, match="normalizing coefficient vanishes"):
        flow.normalized_limit(traj, "B")


def test_normalized_limit_rejects_unsettled_ratios():
    # B/A = t/(1 + t) still moves by 1e-2 over the final window of a blow-up
    times = np.linspace(0.0, 1.0, 40)
    states = np.zeros((40, 14))
    states[:, 0], states[:, 1] = 1.0 + times, times
    traj = flow.Trajectory(times, states, "blow_up")
    with pytest.raises(flow.LimitError, match="ratios not settled"):
        flow.normalized_limit(traj, "A")


def test_normalized_limit_rejects_bounded(rng):
    c = rand_nil_coords(rng)  # H != 0: A converges, nothing diverges
    traj = flow.integrate(NIL, c, 5.0, flow.FlowControls(detect_stationary=False))
    with pytest.raises(flow.LimitError, match="divergence"):
        flow.normalized_limit(traj, "A")


# --- solv flow ---------------------------------------------------------------------------

SOLV_CONTROLS = flow.FlowControls(blow_norm=1e5)


def test_solv_blow_up_and_limit(rng):
    sd = rand_solv_data(rng)
    traj = flow.integrate(SOLV, sd.to_coords(), 100.0, SOLV_CONTROLS)
    assert traj.status == "blow_up"
    al, be = traj.states[:, 0], traj.states[:, 2]
    ga, de = traj.states[:, 4], -traj.states[:, 6]
    # ratios frozen along the flow
    assert np.max(np.abs(al / de - al[0] / de[0])) < 1e-8
    assert np.max(np.abs(be / ga - be[0] / ga[0])) < 1e-8
    u, v = 4 * al * de, 4 * be * ga
    assert u[-1] > 1e8
    # |u/v - 1| decreases monotonically over the final resolvable window
    w = max(3, int(0.05 * len(traj.times)))
    tail = np.abs(u[-w:] / v[-w:] - 1.0)
    assert np.all(np.diff(tail) <= 1e-12 + 1e-9 * tail[:-1])
    assert tail[-1] < 1e-2
    assert np.all(np.diff(traj.times) > 0)
    # M, N frozen exactly
    assert np.array_equal(traj.states[:, 12], np.full(len(traj.times), sd.M))
    assert np.array_equal(traj.states[:, 13], np.full(len(traj.times), sd.N))
    form, orbit = flow.normalized_limit(traj, "A")
    cc = inv.form_to_coords(form)
    assert abs(cc.A * (-cc.G) - cc.C * cc.E) < 1e-4
    assert orbit.label == "O-+"


@pytest.mark.parametrize("j", [-400, -30, 30, 400])
def test_normalized_limit_is_scale_free(rng, j):
    # the spread cut acts on ratios of coefficients, of degree 0 in phi, so
    # a solv start scaled by 2^j, run to t_max scaled by 4^-j, gives the same
    # limit coordinates and orbit bit for bit
    c0 = rand_solv_data(rng).to_coords()
    ref = flow.integrate(SOLV, c0, 100.0, SOLV_CONTROLS)
    got = flow.integrate(SOLV, [2.0 ** j * x for x in c0], 100.0 * 4.0 ** -j, SOLV_CONTROLS)
    assert got.status == ref.status == "blow_up"

    def bits(traj):
        form, orbit = flow.normalized_limit(traj, "A")
        return sorted((m, x.hex()) for m, x in form.coeffs.items()), orbit.label, orbit.mu.hex()

    assert bits(got) == bits(ref)
    assert bits(ref)[1] == "O-+"


def test_solv_positivity_preserved_along_flow(rng):
    sd = rand_solv_data(rng)
    traj = flow.integrate(SOLV, sd.to_coords(), 100.0, SOLV_CONTROLS)
    for i in range(0, len(traj.times), max(1, len(traj.times) // 20)):
        st = traj.states[i]
        here = flow.SolvData(st[0], st[2], st[4], -st[6], st[12], st[13])
        assert flow.positivity_check(here).ok


def test_solv_blow_up_time_below_bound(rng):
    for _ in range(3):
        sd = rand_solv_data(rng)
        traj = flow.integrate(SOLV, sd.to_coords(), 100.0, SOLV_CONTROLS)
        tools = flow.SolvUVTools(sd)
        if tools.t_prime.available:
            assert traj.t_final <= tools.t_prime.value + 1e-9


def test_solv_blow_up_rarely_rejects(rng):
    # the Taylor step is chosen before it is taken, so a blow-up run that
    # stops at the blow_norm gate rejects no step
    for _ in range(3):
        traj = flow.integrate(SOLV, rand_solv_data(rng).to_coords(), 100.0,
                              SOLV_CONTROLS)
        assert traj.status == "blow_up"
        assert traj.n_rejected == 0


def test_solv_default_gate_blows_up(rng):
    # with the default growth factor the sqrt-type growth runs until the
    # step can no longer move t; that is a blow-up with a limit, not an error
    for _ in range(3):
        sd = rand_solv_data(rng)
        traj = flow.integrate(SOLV, sd.to_coords(), 100.0)
        assert traj.status == "blow_up"
        assert traj.n_rejected == ("cannot move" in traj.message)
        tools = flow.SolvUVTools(sd)
        if tools.t_prime.available:
            assert traj.t_final <= tools.t_prime.value
        assert flow.normalized_limit(traj, "A")[1].label == "O-+"


def test_solv_rhs_vanishes_on_stationary_locus():
    # closed data with 4 beta gamma = (M-N)^2 and 4 alpha delta = (M+N)^2
    p, q = 1.5, 0.75
    sd = flow.SolvData(p, q, q, p, M=p + q, N=p - q)
    r = flow.reduced_rhs(SOLV, sd.to_coords())
    assert max(abs(x) for x in r) < 1e-12
    # degenerate branch: beta = gamma = 0 with M = N
    sd2 = flow.SolvData(2.0, 0.0, 0.0, -3.0, M=1.25, N=1.25)
    r2 = flow.reduced_rhs(SOLV, sd2.to_coords())
    assert max(abs(x) for x in r2) < 1e-12


def test_grid_consistency_of_blow_up_time(rng):
    sd = rand_solv_data(rng)
    t1 = flow.integrate(SOLV, sd.to_coords(), 100.0,
                        flow.FlowControls(rtol=1e-9, blow_norm=1e5)).t_final
    t2 = flow.integrate(SOLV, sd.to_coords(), 100.0,
                        flow.FlowControls(rtol=5e-10, blow_norm=1e5)).t_final
    assert abs(t1 - t2) < 1e-9


# --- integrator cost and accuracy -------------------------------------------------------

def test_taylor_coefficients_built_once_per_step(rng, monkeypatch):
    # each pass builds the Taylor coefficients of every running start once
    # and steps from them; a start that stops on convergence or blow-up has
    # built the coefficients of its last state.  The integrator builds in
    # the buffers of a _TaylorWork, one alive at a time
    runs = ((SOLV, rand_solv_data(rng).to_coords(), 100.0, SOLV_CONTROLS),
            (SOLV, rand_solv_data(rng).to_coords(), 100.0, flow.FlowControls()),
            (NIL, rand_nil_coords(rng), 40.0, flow.FlowControls()),
            (NIL, rand_nil_coords(rng), 10.0,
             flow.FlowControls(detect_stationary=False)))
    run, alive = flow._TaylorWork.run, weakref.WeakSet()
    calls = rows = 0

    def counting(work, y):
        nonlocal calls, rows
        alive.add(work)
        assert len(alive) == 1
        calls += 1
        rows += len(y)
        return run(work, y)

    monkeypatch.setattr(flow._TaylorWork, "run", counting)
    seen = set()
    for setup, c0, t_max, controls in runs:
        calls = rows = 0
        traj = flow.integrate_ode(flow.reduced_flow(setup), [float(x) for x in c0],
                                  t_max, controls)
        seen.add(traj.status)
        stopped_early = traj.status in ("converged", "blow_up")
        assert traj.n_accepted > 0
        assert traj.n_rejected == ("cannot move" in traj.message)
        assert calls == rows == traj.rhs_rows == traj.n_accepted + stopped_early
        # each step as t_{k+1} - t_k, up to the rounding of t
        steps = np.diff(traj.times)
        slack = 4 * np.finfo(float).eps * traj.t_final
        assert abs(traj.min_step - steps.min()) <= slack
        assert abs(traj.max_step - steps.max()) <= slack
    assert seen == {"blow_up", "converged", "reached_t_max"}


def test_taylor_work_is_laid_out_once_per_batch_size(monkeypatch):
    # a sweep lays out one _TaylorWork per batch size: a zero start stops at
    # once, then the two nil starts with H != 0 run on as a batch of 2 until
    # the first converges; each start gets the bits of its solo run
    starts = [[0.0] * 14, list(SCALED_NIL), list(SCALED_NIL._replace(H=-0.6, J=0.3))]
    init, sizes = flow._TaylorWork.__init__, []

    def recording(work, poly, rows):
        sizes.append(rows)
        init(work, poly, rows)

    monkeypatch.setattr(flow._TaylorWork, "__init__", recording)
    trajs = flow.integrate_sweep(NIL, starts, 40.0)
    assert sizes == [3, 2, 1]
    assert [t.status for t in trajs] == ["converged"] * 3
    assert trajs[0].message == "stationary initial data"
    monkeypatch.undo()
    for c0, traj in zip(starts, trajs):
        solo = flow.integrate(NIL, c0, 40.0)
        assert np.array_equal(solo.states, traj.states)
        assert np.array_equal(solo.times, traj.times)


def _taylor_oracle(poly, y, table):
    """y_0..y_ORDER from y_{k+1} = f(y)_k / (k + 1), f the monomials of poly
    with coefficients table, the k-th coefficient of every monomial a
    Cauchy product over all three factors, sum_{i+j+l=k} y_{a,i} y_{b,j}
    y_{c,l}, whichever coordinates move."""
    coef = [y]
    for k in range(flow.ORDER):
        mono = sum(coef[i][:, poly.a] * coef[j][:, poly.b] * coef[k - i - j][:, poly.c]
                   for i in range(k + 1) for j in range(k + 1 - i))
        coef.append(mono @ table / (k + 1))
    return np.array(coef)


#: |taylor - oracle| allowed at each order of a row, relative to the max of
#: the oracle run on |y| and |table|, which bounds every term either sums
TAYLOR_RTOL = 32 * np.finfo(float).eps


def _taylor(poly, y):
    """The coefficients of a fresh _TaylorWork build on the rows of y."""
    return flow._TaylorWork(poly, len(y)).run(y)


def test_taylor_coefficients_match_derivatives(rng):
    # the t series of a flow without Cauchy monomials: y_1 = f(y), and
    # 2 y_2 = f'(y) f(y) by a central difference
    poly = flow.reduced_flow(NIL)
    assert poly.n_cauchy == 0
    y = np.array([[rng.uniform(-1, 1) for _ in range(14)] for _ in range(3)])
    coef = _taylor(poly, y)
    assert coef.shape == (flow.ORDER + 1, 3, 14)
    assert np.array_equal(coef[0], y)
    assert np.allclose(coef[1], poly.rhs(y), rtol=1e-13, atol=1e-13)
    e = 1e-6
    jf = (poly.rhs(y + e * coef[1]) - poly.rhs(y - e * coef[1])) / (2 * e)
    assert np.allclose(2 * coef[2], jf, rtol=1e-6, atol=1e-7)
    # every order against full Cauchy products over the whole table, on a
    # zero row, unit rows and rows scaled by 2^40 and 2^-40.  y_k scales as
    # s^(2k+1), so on the scaled rows the orders past about 10 over- or
    # underflow; an order is compared where its bound is finite and normal
    tiny = np.finfo(float).tiny / np.finfo(float).eps
    for poly in (flow.reduced_flow(NIL), flow.reduced_flow(AB)):
        assert poly.n_cauchy == 0
        n = poly.table.shape[1]
        unit = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(4)])
        y = np.vstack([np.zeros(n), unit, 2.0 ** 40 * unit[:1], 2.0 ** -40 * unit[1:2]])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _taylor(poly, y)
            want = _taylor_oracle(poly, y, poly.table)
            bound = np.max(_taylor_oracle(poly, np.abs(y), np.abs(poly.table)), axis=-1)
            err = np.max(np.abs(got - want), axis=-1)
        assert got.shape == want.shape == (flow.ORDER + 1, len(y), n)
        compared = np.isfinite(bound) & ((bound == 0.0) | (bound > tiny))
        assert compared[:, :5].all() and compared[:11].all()
        assert np.all(err[compared] <= TAYLOR_RTOL * bound[compared])
        assert not np.any(got[:, 0])
        # a row's coefficients are the same bits alone as in the batch
        for r in range(len(y)):
            with np.errstate(over="ignore", invalid="ignore"):
                assert np.array_equal(_taylor(poly, y[r:r + 1])[:, 0], got[:, r],
                                      equal_nan=True)


def _gauge_oracle(poly, y, table, sign=-1.0):
    """z_0..z_ORDER in tau of the gauged system z' = f(z) - s z from z = y,
    with the rate frozen at s0 = <y, f(y)> / |y|^2 (0 on a zero row), so
    s_k = 0 for k > 0, every order by full Cauchy products over all three
    factors of every monomial, and s0.  With sign = +1, on |y| and |table|,
    every term is added in absolute value, which bounds each term the build
    sums, and s0 bounds the build's |s0|."""
    n0 = np.sum(y * y, axis=-1)
    z, s0 = [y], None
    for k in range(flow.ORDER):
        mono = sum(z[i][:, poly.a] * z[j][:, poly.b] * z[k - i - j][:, poly.c]
                   for i in range(k + 1) for j in range(k + 1 - i))
        f = mono @ table
        if k == 0:
            s0 = np.divide(np.sum(y * f, axis=-1), n0, out=np.zeros_like(n0), where=n0 > 0.0)
        z.append((f + sign * s0[:, None] * z[k]) / (k + 1))
    return np.array(z), s0


def test_gauged_build_matches_oracle(rng):
    # the tau build of every flow with Cauchy monomials, order by order
    # against full Cauchy products, on a zero row, unit rows and rows scaled
    # by 2^40 and 2^-40, compared where the bound is finite and normal; its
    # rate is s0 = <y, f(y)>/|y|^2, its first order is f(Y) - s0 Y, and a
    # row gives the same bits alone as in the batch
    sd = rand_solv_data(rng)
    tools = flow.SolvUVTools(sd)
    polys = [flow.reduced_flow(SOLV), solv_system(sd), tools.uv_flow,
             tools.comparison_flow]
    tiny = np.finfo(float).tiny / np.finfo(float).eps
    for poly in polys:
        assert poly.n_cauchy > 0
        n = poly.table.shape[1]
        unit = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(4)])
        y = np.vstack([np.zeros(n), unit, 2.0 ** 40 * unit[:1], 2.0 ** -40 * unit[1:2]])
        work = flow._TaylorWork(poly, len(y))
        with np.errstate(over="ignore", invalid="ignore"):
            got = work.run(y).copy()
            want, s0 = _gauge_oracle(poly, y, poly.table)
            bound, s0_bound = _gauge_oracle(poly, np.abs(y), np.abs(poly.table), 1.0)
            bound = np.max(bound, axis=-1)
            err = np.max(np.abs(got - want), axis=-1)
        assert got.shape == want.shape == (flow.ORDER + 1, len(y), n)
        compared = np.isfinite(bound) & ((bound == 0.0) | (bound > tiny))
        assert compared[:, :5].all() and compared[:11].all()
        assert np.all(err[compared] <= TAYLOR_RTOL * bound[compared])
        assert np.all(np.abs(work.s0 - s0) <= TAYLOR_RTOL * s0_bound)
        # the zero row takes s0 = 0, and z stays 0
        assert work.s0[0] == 0.0 and not np.any(got[:, 0])
        f = poly.rhs(y)
        assert np.allclose(work.f, f, rtol=0.0, atol=TAYLOR_RTOL * np.max(bound[1]))
        ref = np.sum(y * f, axis=-1)[1:] / np.sum(y * y, axis=-1)[1:]
        assert np.allclose(work.s0[1:], ref, rtol=1e-14, atol=0.0)
        assert np.allclose(got[1, 1:], f[1:] - ref[:, None] * y[1:],
                           rtol=0.0, atol=TAYLOR_RTOL * np.max(bound[1]))
        for r in range(len(y)):
            solo = flow._TaylorWork(poly, 1)
            with np.errstate(over="ignore", invalid="ignore"):
                solo.run(y[r:r + 1])
            assert np.array_equal(solo.coef[:, 0], got[:, r], equal_nan=True)
            assert (solo.s0[0], *solo.f[0]) == (work.s0[r], *work.f[r])


def test_reused_taylor_work_gives_fresh_bits(rng):
    # one work object run on successive different batches gives the bits of
    # a fresh build each time, the gauged rate s0 and f(y) included; the
    # constant monomials' slot is zeroed past order 0 and must be refilled
    # by the next run
    sd = rand_solv_data(rng)
    tools = flow.SolvUVTools(sd)
    polys = [flow.reduced_flow(NIL), flow.reduced_flow(SOLV), flow.reduced_flow(AB),
             solv_system(sd), tools.uv_flow, tools.comparison_flow]
    for poly in polys:
        n = poly.table.shape[1]
        unit = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(6)])
        batches = [np.vstack([np.zeros(n), unit[0]]), unit[1:3],
                   np.vstack([2.0 ** 40 * unit[3], 2.0 ** -40 * unit[4]]),
                   np.zeros((2, n)), unit[4:6]]
        work = flow._TaylorWork(poly, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            for y in batches:
                work.run(y)
                fresh = flow._TaylorWork(poly, 2)
                fresh.run(y)
                assert np.array_equal(work.coef, fresh.coef, equal_nan=True)
                if poly.n_cauchy:
                    assert np.array_equal(work.s0, fresh.s0)
                    assert np.array_equal(work.f, fresh.f)
        assert np.isfinite(work.coef).all()    # so the last comparison is not nan with nan


def test_sweep_members_match_solo_runs(rng):
    # a start gives the same bits alone or in a batch, whichever of the
    # others stop first and after however many steps; the solv starts are
    # the first and third draws, which stop after 10 and 11 steps
    zero = inv.PrimitiveCoords(*[0.0] * 14)
    first, _, third = (rand_solv_data(rng).to_coords() for _ in range(3))
    sweeps = ((SOLV, [first, zero, third], 100.0, SOLV_CONTROLS),
              (NIL, [rand_nil_coords(rng, 0.9, 1.2),
                     rand_nil_coords(rng, 0.9, 1.2)._replace(H=0.0), zero],
               40.0, flow.FlowControls()))
    statuses = []
    for setup, starts, t_max, controls in sweeps:
        batch = flow.integrate_sweep(setup, starts, t_max, controls)
        assert len({len(t.times) for t in batch}) == 3
        statuses += [t.status for t in batch]
        for c0, got in zip(starts, batch):
            solo = flow.integrate(setup, c0, t_max, controls)
            assert np.array_equal(got.times, solo.times)
            assert np.array_equal(got.states, solo.states)
            assert (got.status, got.message, got.n_accepted, got.n_rejected,
                    got.rhs_rows, got.min_step, got.max_step) == \
                (solo.status, solo.message, solo.n_accepted, solo.n_rejected,
                 solo.rhs_rows, solo.min_step, solo.max_step)
    # the nil batch shrinks at its first pass, when the zero start converges,
    # and again when the start with H != 0 converges while the one with
    # H = 0 grows on to t_max
    assert [t.status for t in batch] == ["converged", "reached_t_max", "converged"]
    assert 0 < batch[0].n_accepted < batch[1].n_accepted
    assert {"blow_up", "converged", "reached_t_max"} <= set(statuses)
    assert flow.integrate_sweep(NIL, [], 1.0) == []


def test_trajectory_matches_dop853_at_mid_run(rng):
    integrate = pytest.importorskip("scipy.integrate")
    runs = ((SOLV, rand_solv_data(rng).to_coords(), 100.0, SOLV_CONTROLS),
            (NIL, rand_nil_coords(rng), 10.0,
             flow.FlowControls(detect_stationary=False)))
    for setup, c0, t_max, controls in runs:
        traj = flow.integrate(setup, c0, t_max, controls)
        i = int(np.searchsorted(traj.times, 0.5 * traj.t_final))
        rhs = flow.reduced_flow(setup).rhs
        sol = integrate.solve_ivp(lambda _t, y: rhs(y),
                                  (0.0, float(traj.times[i])),
                                  [float(x) for x in c0], method="DOP853",
                                  rtol=1e-11, atol=1e-13)
        assert sol.success
        ref = sol.y[:, -1]
        assert np.max(np.abs(traj.states[i] - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_huge_state_steps_in_its_own_units():
    # each row is stepped divided by the power of two of its max|y|, so
    # cubes that would overflow float64 are never formed: a state of 2^400
    # takes the steps of the unit state, and one of 1e160 run to t = 1 blows
    # up through finite states once its steps, of order 1e-320, stop moving t
    s = 2.0 ** 400
    ref = flow.integrate(SOLV, [1.0] * 14, 1.0)
    got = flow.integrate(SOLV, [s] * 14, 1.0 / s / s)
    assert ref.status == got.status == "blow_up"
    assert (got.n_accepted, got.n_rejected, got.rhs_rows) == \
        (ref.n_accepted, ref.n_rejected, ref.rhs_rows)
    assert np.array_equal(got.states / s, ref.states)
    assert np.array_equal(got.times * s * s, ref.times)
    traj = flow.integrate(SOLV, [1e160] * 14, 1.0)
    assert traj.status == "blow_up" and "cannot move" in traj.message
    assert traj.n_accepted > 0 and np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("setup", [NIL, SOLV], ids=["nil", "solv"])
@pytest.mark.parametrize("s", [1e-160, 1e-320])
def test_tiny_start_steps_at_the_cap(setup, s):
    # below about 2^-512 the t-advance of a step, taken in the start's own
    # units, lies past the float range: it is over the cap, so every step is
    # the cap, and a cubic flow does not move such a start in float
    traj = flow.integrate(setup, [s] * 14, 100.0)
    assert traj.status == "reached_t_max" and traj.n_accepted == 20
    assert traj.min_step == traj.max_step == 5.0 and traj.times[-1] == 100.0
    assert np.array_equal(traj.final_state, traj.states[0])


@pytest.mark.parametrize("c0", [[1.0, 1.0, 1.0], [1.9, 1.9, 1.0]])
def test_gauged_series_past_the_float_range_stops_at_once(c0):
    # on a flow with coefficients of 1e308 the series of the first start
    # overflows past its first order, and on the second f(Y) and s0
    # themselves do; either start stops at its first pass, whose step
    # cannot move t, instead of stepping on with nan
    poly = flow._padded_flow(3, [(0, 1e308, (0, 0, 1)), (0, 1e308, (0, 1, 1)),
                                 (0, 1e308, (0, 0, 0)), (1, 1.0, (0, 1, 2))])
    assert poly.n_cauchy > 0
    traj = flow.integrate_ode(poly, c0, 1.0)
    assert traj.status == "blow_up" and "cannot move" in traj.message
    assert traj.n_accepted == 0 and np.all(np.isfinite(traj.states))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_start_is_refused(bad):
    c0 = [0.5] * 14
    c0[3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        flow.integrate(NIL, c0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        flow.integrate_sweep(NIL, [[0.5] * 14, c0], 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        flow.integrate_ode(flow.reduced_flow(NIL), c0, 1.0)


@pytest.mark.parametrize("t_max", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bad_t_max_is_refused(t_max):
    c0 = [0.5] * 14
    with pytest.raises(ValueError, match="t_max"):
        flow.integrate(NIL, c0, t_max)
    with pytest.raises(ValueError, match="t_max"):
        flow.integrate_sweep(NIL, [c0, c0], t_max)
    with pytest.raises(ValueError, match="t_max"):
        flow.integrate_ode(flow.reduced_flow(NIL), c0, t_max)


# --- u-v tools ------------------------------------------------------------------------------

def test_uv_rhs_definitions():
    sd = flow.SolvData(1.0, 2.0, 0.5, 1.5, 0.3, -0.2)
    tools = flow.SolvUVTools(sd)
    l2 = flow.UV_RATE * sd.lam ** 2
    u, v = 3.0, 4.0
    np.testing.assert_allclose(
        tools.uv_flow.rhs(np.array([u, v, 1.0])),
        [l2 * u * (v - (sd.M - sd.N) ** 2), l2 * v * (u - (sd.M + sd.N) ** 2), 0.0])
    np.testing.assert_allclose(
        tools.comparison_flow.rhs(np.array([u, v, 1.0])),
        [l2 * u * (v - sd.S), l2 * v * (u - sd.S), 0.0])


def test_uv_rate_regression(rng):
    # the factor in the u-v reduction: differentiating u = 4 alpha delta and
    # v = 4 beta gamma through the generic reduced right side must reproduce
    # uv_flow exactly; this rules out the quarter-speed variant
    for _ in range(8):
        sd = flow.SolvData(*(rng.uniform(0.3, 2.0) for _ in range(4)),
                           M=rng.uniform(-1, 1), N=rng.uniform(-1, 1))
        r = flow.reduced_rhs(SOLV, sd.to_coords())
        du = 4 * (r.A * sd.delta + sd.alpha * -r.G)
        dv = 4 * (r.C * sd.gamma + sd.beta * r.E)
        tools = flow.SolvUVTools(sd)
        expect = tools.uv_flow.rhs(np.array([sd.u0, sd.v0, 1.0]))
        assert abs(du - expect[0]) < 1e-9 * max(1.0, abs(expect[0]))
        assert abs(dv - expect[1]) < 1e-9 * max(1.0, abs(expect[1]))


def test_uv_consistency_with_coefficient_flow(rng):
    # u = 4 alpha delta and v = 4 beta gamma satisfy the reduced 2x2 system;
    # compare away from the pole, where values are not singularly sensitive
    sd = rand_solv_data(rng)
    tools = flow.SolvUVTools(sd)
    traj = flow.integrate(SOLV, sd.to_coords(), 100.0, SOLV_CONTROLS)
    t_check = 0.8 * traj.t_final
    uv = flow.integrate_ode(tools.uv_flow, [sd.u0, sd.v0, 1.0], t_check,
                            flow.FlowControls(detect_stationary=False))
    assert uv.status == "reached_t_max"
    i = int(np.searchsorted(traj.times, t_check))
    st = traj.states[min(i, len(traj.times) - 1)]
    t_at = traj.times[min(i, len(traj.times) - 1)]
    # re-integrate the uv system to the exact sample time of the trajectory
    uv = flow.integrate_ode(tools.uv_flow, [sd.u0, sd.v0, 1.0], float(t_at),
                            flow.FlowControls(detect_stationary=False))
    u_coeff = 4 * st[0] * -st[6]
    v_coeff = 4 * st[2] * st[4]
    assert abs(uv.final_state[0] - u_coeff) / u_coeff < 1e-6
    assert abs(uv.final_state[1] - v_coeff) / v_coeff < 1e-6


def test_symmetric_branch_closed_form():
    sd = flow.SolvData(1.0, 1.0, 1.0, 1.0, 0.3, 0.1)  # u0 = v0 = 4
    tools = flow.SolvUVTools(sd)
    assert sd.C0 == 0.0
    tp = tools.t_prime
    assert tp.available and tp.branch == "symmetric"
    l2 = flow.UV_RATE * sd.lam ** 2
    assert abs(tp.value - math.log(sd.u0 / (sd.u0 - sd.S)) / (l2 * sd.S)) < 1e-15
    # numeric comparison-system blow-up agrees
    tr = flow.integrate_ode(tools.comparison_flow, [sd.u0, sd.v0, 1.0], 10.0,
                            flow.FlowControls(detect_stationary=False))
    assert tr.status == "blow_up"
    assert abs(tr.t_final - tp.value) / tp.value < 0.01


def test_general_t_prime_matches_numeric_pole(rng):
    for _ in range(3):
        sd = rand_solv_data(rng)
        if sd.C0 == 0 or sd.S == 0:
            continue
        tools = flow.SolvUVTools(sd)
        assert tools.t_prime.available
        tr = flow.integrate_ode(tools.comparison_flow, [sd.u0, sd.v0, 1.0], 50.0,
                                flow.FlowControls(detect_stationary=False))
        assert tr.status == "blow_up"
        assert abs(tr.t_final - tools.t_prime.value) / tools.t_prime.value < 0.01
        # w closed form matches e^{8 lam^2 S t} u away from the pole
        for frac in (0.2, 0.5, 0.8):
            i = int(np.searchsorted(tr.times, frac * tr.t_final))
            t_i = float(tr.times[i])
            w_num = math.exp(flow.UV_RATE * sd.lam ** 2 * sd.S * t_i) * tr.states[i, 0]
            assert abs(tools.w_closed_form(t_i) - w_num) / abs(w_num) < 1e-5


def test_full_uv_blows_up_before_comparison(rng):
    sd = rand_solv_data(rng)
    tools = flow.SolvUVTools(sd)
    full = flow.integrate_ode(tools.uv_flow, [sd.u0, sd.v0, 1.0], 50.0,
                              flow.FlowControls(detect_stationary=False))
    comp = flow.integrate_ode(tools.comparison_flow, [sd.u0, sd.v0, 1.0], 50.0,
                              flow.FlowControls(detect_stationary=False))
    assert full.status == comp.status == "blow_up"
    assert full.t_final <= comp.t_final + 1e-9


def test_t_prime_unavailable_branch():
    # far outside the admissible region the bound's logarithm domain fails
    sd = flow.SolvData(10.0, 0.25, 1.0, 0.25, 2.0, -0.2)
    tp = flow._t_prime(sd)
    assert not tp.available
    assert "no finite bound" in tp.reason


def test_s_zero_branch():
    sd = flow.SolvData(1.5, 1.0, 1.0, 1.0, 0.0, 0.0)
    tp = flow._t_prime(sd)
    assert tp.branch == "S=0" and tp.available
    tools = flow.SolvUVTools(sd)
    tr = flow.integrate_ode(tools.comparison_flow, [sd.u0, sd.v0, 1.0], 10.0,
                            flow.FlowControls(detect_stationary=False))
    assert tr.status == "blow_up"
    assert abs(tr.t_final - tp.value) / tp.value < 0.01


def test_s_zero_c0_zero_branch():
    # u = v: the comparison system is u' = 8 lam^2 u^2, with its pole at
    # 1/(8 lam^2 u0)
    sd = flow.SolvData(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    tp = flow._t_prime(sd)
    assert tp.branch == "S=0,C0=0"
    assert tp.value == 1.0 / (flow.UV_RATE * sd.lam ** 2 * sd.u0)
    tr = flow.integrate_ode(flow.SolvUVTools(sd).comparison_flow, [sd.u0, sd.v0, 1.0],
                            10.0, flow.FlowControls(detect_stationary=False))
    assert tr.status == "blow_up"
    assert abs(tr.t_final - tp.value) / tp.value < 0.01


def test_symmetric_branch_without_a_pole():
    # u0 = v0 = S: the symmetric comparison system sits at its fixed point
    sd = flow.SolvData(0.5, 0.5, 0.5, 0.5, 1.0, 0.0)
    assert sd.C0 == 0.0 and sd.u0 == sd.S == 1.0
    tp = flow._t_prime(sd)
    assert (tp.value, tp.branch, tp.reason) == (None, "symmetric", "u0 = 1.0 <= S = 1.0")


@pytest.mark.parametrize("sd", [flow.SolvData(1.0, 1.0, 1.0, 1.0, 0.0, 0.0),
                                flow.SolvData(1.5, 1.0, 1.0, 1.0, 0.0, 0.0),
                                flow.SolvData(1.0, 1.0, 1.0, 1.0, 0.3, 0.1)],
                         ids=("S=0,C0=0", "S=0", "symmetric"))
def test_w_closed_form_matches_comparison_flow(sd):
    # w = e^{8 lam^2 S t} u along the comparison system, away from the pole
    tools = flow.SolvUVTools(sd)
    tr = flow.integrate_ode(tools.comparison_flow, [sd.u0, sd.v0, 1.0], 10.0,
                            flow.FlowControls(detect_stationary=False))
    assert tr.status == "blow_up"
    for frac in (0.2, 0.5, 0.8):
        i = int(np.searchsorted(tr.times, frac * tr.t_final))
        t_i = float(tr.times[i])
        w_num = math.exp(flow.UV_RATE * sd.lam ** 2 * sd.S * t_i) * tr.states[i, 0]
        assert abs(tools.w_closed_form(t_i) - w_num) / abs(w_num) < 1e-5


def test_u0_and_v0_keep_a_zero_product():
    # 4 alpha delta with alpha = 1e308 and delta = 0 is 0, not inf * 0 = NaN:
    # the start has no valid bound, and the CSV no comparison column
    sd = flow.SolvData.from_coords(inv.PrimitiveCoords(A=1e308, B=1e308, C=1.0, D=-1.0,
                                                       E=1.0, F=-1.0))
    assert sd.u0 == 0.0 and sd.v0 == 4.0
    assert flow.SolvUVTools(sd).t_prime.branch == "invalid"
    # at unit scale the factor 4 is exact, so the bits are those of 4 alpha delta
    rng = random.Random(3)
    for _ in range(50):
        a, b, g, d = (rng.uniform(-2.0, 2.0) for _ in range(4))
        sd = flow.SolvData(a, b, g, d)
        assert (sd.u0, sd.v0) == (4.0 * a * d, 4.0 * b * g)


# --- positivity --------------------------------------------------------------------------

def test_positivity_examples():
    ok = flow.positivity_check(flow.SolvData(1, 1, 1, 1, 0, 0))
    assert ok.ok and ok.matrix_positive_definite
    bad = flow.positivity_check(flow.SolvData(1, 1, 1, 1, 2, 0))
    assert not bad.ok and not bad.matrix_positive_definite
    assert "dominates_M" in bad.failed()
    mixed = flow.positivity_check(flow.SolvData(1, 1, 1, -1, 0, 0))
    assert not mixed.ok and "same_sign" in mixed.failed()
    neg = flow.positivity_check(flow.SolvData(-1, -1, -1, -1, 0, 0))
    assert neg.ok


def test_positivity_matrix_agreement_random(rng):
    for _ in range(50):
        sd = flow.SolvData(*(rng.uniform(-2, 2) for _ in range(4)),
                           M=rng.uniform(-1.5, 1.5), N=rng.uniform(-1.5, 1.5))
        flow.positivity_check(sd)  # raises if the two characterizations split


def test_solv_data_coords_round_trip(rng):
    sd = rand_solv_data(rng)
    back = flow.SolvData.from_coords(sd.to_coords())
    assert (back.alpha, back.beta, back.gamma, back.delta, back.M, back.N) == \
        (sd.alpha, sd.beta, sd.gamma, sd.delta, sd.M, sd.N)
    with pytest.raises(ValueError):
        flow.SolvData.from_coords(inv.PrimitiveCoords(A=1.0, B=0.5))


@pytest.mark.parametrize("s", [1e-13, 1e-6, 1.0, 3.7, 1e6, 1e13])
def test_solv_data_from_coords_cuts_relative_to_the_data(s):
    # the closed-ansatz cuts are 1e-12 max|c|: at every scale closed data is
    # accepted, also with rounding-size noise, and a broken pair or a
    # nonzero I..L coefficient of the data's own size is refused
    c = [s * x for x in flow.SolvData(1.0, 0.8, 1.1, 0.9, 0.1, 0.05).to_coords()]
    back = flow.SolvData.from_coords(c)
    assert (back.alpha, back.beta, back.gamma, back.delta, back.M, back.N) == \
        (c[0], c[2], c[4], -c[6], c[12], c[13])
    noisy = list(c)
    noisy[1] *= 1.0 + 1e-15
    noisy[9] = 1e-15 * s
    flow.SolvData.from_coords(noisy)
    for k, x in ((1, 1.5 * s), (3, 0.5 * s), (9, 1e-3 * s)):
        bad = list(c)
        bad[k] = x
        with pytest.raises(ValueError):
            flow.SolvData.from_coords(bad)
