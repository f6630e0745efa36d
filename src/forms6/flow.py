"""Reduced geometric flow of invariant primitive 3-forms.

The evolution d phi/dt = d Lambda d F(phi) restricted to invariant forms on
a 6-dimensional symplectic Lie algebra is a cubic polynomial ODE on the 14
primitive coefficients.  This module evaluates that right side generically
(one table of cubic monomials per setup, derived exactly from the K and F
tables and the cached linear operator of d Lambda d, never hand-coded per
algebra), integrates a batch of starts at once with an adaptive
step-doubling RK4 scheme that stacks the stages of the full and the first
half step and stops each start on blow-up or on a stationarity test
relative to |y|^3, extracts normalized limits, and carries the closed-form
solutions used as cross-checks: the scalar ODE on the nil algebra and the
u-v comparison system with its blow-up bound on the solv algebra.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import liealg, linalg
from .invariants import (COORD_NAMES, PrimitiveCoords, classify_sp,
                         coords_to_form, hat_monomial_table)

# --- generic reduced right side ---------------------------------------------


def rhs_table(setup):
    """The reduced right side as a table of cubic monomials.

    Returns (monos, rows) with rhs(c)[i] = sum_n rows[n][i] c_p c_q c_r over
    (p, q, r) = monos[n]: the hat monomials composed with -2 M, M the matrix
    of d Lambda d on the primitive basis (built through the full form-level
    operator), keeping those that M does not annihilate (96 of 156 on the
    solv algebra, 12 on the nil one).  The composition is exact when M is."""
    mat = liealg.dlambdad_coords_matrix(setup)
    cols = [[(i, row[j]) for i, row in enumerate(mat) if row[j]]
            for j in range(len(COORD_NAMES))]
    monos, rows = [], []
    for mono, hat in zip(*hat_monomial_table()):
        out = [0] * len(COORD_NAMES)
        for j, x in enumerate(hat):
            for i, m in cols[j] if x else ():
                out[i] -= 2 * m * x
        if any(out):
            monos.append(mono)
            rows.append(out)
    return monos, rows


class ReducedFlow:
    """The flow's right side on rows of coefficients, for one setup.

    rhs(Y) = mono(Y) . P with mono(Y) = Y[:, a] Y[:, b] Y[:, c], from
    rhs_table in floats.  The contraction is an einsum, whose rows do not
    depend on the batch as those of a BLAS product do, so a row gives the
    same bits alone or in a sweep.
    """

    def __init__(self, setup):
        self.setup = setup
        monos, rows = rhs_table(setup)
        self.a, self.b, self.c = np.array(monos, dtype=np.intp).reshape(-1, 3).T
        self.table = np.array(rows, dtype=float).reshape(-1, len(COORD_NAMES))

    def rhs(self, y):
        """The right side of each row of y, shape (R, 14) or (14,)."""
        mono = y.take(self.a, axis=-1) * y.take(self.b, axis=-1) * y.take(self.c, axis=-1)
        return np.einsum("...m,mn->...n", mono, self.table)


def _reduced(setup):
    flow = setup._reduced_flow
    if flow is None:
        flow = ReducedFlow(setup)
        setup._reduced_flow = flow
    return flow


def reduced_rhs(setup, coords):
    """Coefficient vector of d Lambda d F(phi) in the primitive basis."""
    y = np.array([float(x) for x in coords], dtype=float)
    return PrimitiveCoords(*_reduced(setup).rhs(y))


# --- adaptive integrator ------------------------------------------------------

# thresholds of integrate_ode that no caller sets; FlowControls holds the
# ones the CLI exposes
ATOL = 1e-12
H0 = 1e-3
H_MIN = 1e-14
BLOW_STEP = 1e-12            # blow-up once accepted steps shrink below this
STATIONARY_RESIDUAL = 1e-10  # max|f(y)| relative to max|y|^3
STATIONARY_STEPS = 10
MAX_STEPS = 2_000_000


@dataclass
class FlowControls:
    rtol: float = 1e-9
    blow_norm: float = 1e8       # coefficient norm declaring blow-up
    detect_stationary: bool = True


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray           # shape (n_samples, dim)
    status: str                  # reached_t_max | converged | blow_up | error
    message: str = ""
    n_accepted: int = 0
    n_rejected: int = 0
    rhs_rows: int = 0            # rows of the right side evaluated for this start
    min_step: Optional[float] = None    # smallest and largest accepted step
    max_step: Optional[float] = None

    @property
    def t_final(self):
        return float(self.times[-1])

    @property
    def final_state(self):
        return self.states[-1]


class _Member:
    """The run of one row of a batch: its step size, time, samples, counters
    and, once it stops, its status."""

    def __init__(self, y0, h):
        self.t = 0.0
        self.h = h
        self.still = 0
        self.times = [0.0]
        self.states = [y0]
        self.n_acc = self.n_rej = 0
        self.rows = 1
        self.min_step = self.max_step = None
        self.status = None
        self.message = ""

    def running(self, t_max):
        """Whether the start takes another attempt; one that has used up
        MAX_STEPS stops here with status "error"."""
        if self.status is not None or self.t >= t_max:
            return False
        if self.n_acc + self.n_rej >= MAX_STEPS:
            self.status, self.message = "error", f"exceeded {MAX_STEPS} steps"
            return False
        return True

    def accept(self, y, h):
        self.t += h
        self.n_acc += 1
        self.times.append(self.t)
        self.states.append(y)
        if self.min_step is None:
            self.min_step = self.max_step = h
        else:
            self.min_step = min(self.min_step, h)
            self.max_step = max(self.max_step, h)

    def check_underflow(self, norm, c):
        if self.h < H_MIN or self.t + self.h == self.t:
            if norm > c.blow_norm:
                self.status = "blow_up"
                self.message = f"|y| = {norm:.3e} at step underflow"
            else:
                self.status = "error"
                self.message = f"step underflow at t = {self.t} without blow-up"

    def trajectory(self):
        return Trajectory(np.array(self.times), np.array(self.states),
                          self.status or "reached_t_max", self.message,
                          self.n_acc, self.n_rej, self.rows,
                          self.min_step, self.max_step)


def _rk4(f, y, h, k1):
    # h is a column: one step size per row
    half = 0.5 * h
    k2 = f(y + half * k1)
    k3 = f(y + half * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _is_still(fy, norm, residual):
    # relative to |y|^3, as the reduced flow is a homogeneous cubic
    return (np.max(np.abs(fy), axis=-1) <= residual * norm * norm * norm).tolist()


def integrate_ode(f, y0, t_max, controls=None):
    """Adaptive RK4 with step doubling (5th-order local extrapolation).

    y0 is one start, shape (n,), or a batch of starts, shape (B, n); the
    result is one Trajectory, or a list with one per start.  f maps rows to
    rows, (R, n) to (R, n), and must treat each row alone, so that a start
    integrated in a batch gives the same bits as integrated alone.  Every
    start keeps its own step size, time, counters and status; those still
    running attempt one step each per pass.

    The local error estimate is the Richardson difference of one full step
    against two half steps (Hairer, Norsett and Wanner, Solving ODEs I,
    II.4).  f(y) is evaluated once per accepted state and serves as the k1
    of the full step, of the first half step, and of every retry from that
    state, and as the stationarity residual.  The full step and the first
    half step run their remaining stages as one stacked call on 2 rows per
    start, so an attempt costs 3 stacked calls, 4 calls for the second half
    step and 1 for f at the accepted states: 8 calls in all, and per start
    10 rows per attempt plus 1 per accepted step (``Trajectory.rhs_rows``).
    After each attempt h is rescaled by 0.9 err^(-1/5), within [0.2, 5], so
    it shrinks again on an accepted step whose error is close to the
    tolerance.

    Blow-up is declared when the state norm exceeds ``blow_norm`` while
    accepted steps have shrunk below ``BLOW_STEP``.  A start converges once
    max|f(y)| <= ``STATIONARY_RESIDUAL`` * max|y|^3 has held for
    ``STATIONARY_STEPS`` accepted steps in a row (at once for stationary
    initial data, y = 0 included); the test is relative because the
    reduced flow is a homogeneous cubic, so it is unchanged by the
    rescaling y -> s y, t -> t / s^2.  Step underflow without norm growth
    surfaces as status "error".  Non-finite values are left to these
    tests: an error estimate that is not finite rejects the step.
    """
    c = controls or FlowControls()
    y = np.array(y0, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None]
    h0 = min(H0, t_max) if t_max > 0 else H0
    # cap growth so a run always resolves at least ~20 samples; otherwise the
    # x5 step doubling outruns both the sampling and the stationarity window
    h_cap = t_max / 20.0 if t_max > 0 else math.inf
    members = [_Member(row, h0) for row in y]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fy = f(y)
        if c.detect_stationary:
            norm = np.max(np.abs(y), axis=-1)
            for m, still in zip(members, _is_still(fy, norm, STATIONARY_RESIDUAL)):
                if still:
                    m.status, m.message = "converged", "stationary initial data"
        active = members
        while True:
            keep = [k for k, m in enumerate(active) if m.running(t_max)]
            if len(keep) < len(active):
                active = [active[k] for k in keep]
                y, fy = y[keep], fy[keep]
            if not active:
                break
            y, fy = _attempt(f, y, fy, active, t_max, h_cap, c)
    trajs = [m.trajectory() for m in members]
    return trajs[0] if single else trajs


def _attempt(f, y, fy, active, t_max, h_cap, c):
    """One step attempt of every running start; returns the next (y, f(y))."""
    n = len(active)
    for m in active:
        m.h = min(m.h, t_max - m.t, h_cap)
        m.rows += 10
    h = np.array([m.h for m in active])[:, None]
    both = _rk4(f, np.concatenate((y, y)), np.concatenate((h, 0.5 * h)),
                np.concatenate((fy, fy)))
    full, half = both[:n], both[n:]
    two = _rk4(f, half, 0.5 * h, f(half))
    diff = (two - full) / 15.0
    scale = ATOL + c.rtol * np.maximum(np.abs(y), np.abs(two))
    err = np.max(np.abs(diff) / scale, axis=-1).tolist()
    y_new = two + diff  # 5th-order extrapolation
    norm = np.max(np.abs(y_new), axis=-1).tolist()

    moved = []      # accepted and still running: f is needed at y_new
    for k, m in enumerate(active):
        e = err[k] if math.isfinite(err[k]) else math.inf
        if e <= 1.0:
            m.accept(y_new[k], m.h)
            if norm[k] > c.blow_norm and m.h < BLOW_STEP:
                m.status, m.message = "blow_up", f"|y| = {norm[k]:.3e} with step {m.h:.3e}"
            else:
                moved.append(k)
        else:
            m.n_rej += 1
            m.h *= max(0.2, 0.9 * e ** -0.2)
            m.check_underflow(float(np.max(np.abs(y[k]))), c)
    if not moved:
        return y, fy

    if len(moved) == n:
        y, fy = y_new, f(y_new)
        fy_moved = fy
    else:
        mask = np.zeros(n, dtype=bool)
        mask[moved] = True
        y = np.where(mask[:, None], y_new, y)
        fy_moved = f(y_new[moved])
        fy = fy.copy()
        fy[moved] = fy_moved
    if c.detect_stationary:
        still = _is_still(fy_moved, np.array([norm[k] for k in moved]),
                          STATIONARY_RESIDUAL)
    for i, k in enumerate(moved):
        m = active[k]
        m.rows += 1
        if c.detect_stationary:
            m.still = m.still + 1 if still[i] else 0
            if m.still >= STATIONARY_STEPS:
                m.status = "converged"
                m.message = (f"residual <= {STATIONARY_RESIDUAL} |y|^3 "
                             f"for {m.still} steps")
                continue
        e = err[k]
        m.h *= 5.0 if e == 0.0 else min(5.0, 0.9 * e ** -0.2)
        m.check_underflow(norm[k], c)
    return y, fy


def integrate_sweep(setup, starts, t_max, controls=None):
    """Integrate the reduced flow from each of the initial coefficient
    vectors in starts as one batch; one Trajectory per start, each the same
    as integrating that start alone."""
    y0 = np.array([[float(x) for x in c0] for c0 in starts], dtype=float)
    y0 = y0.reshape(len(starts), len(COORD_NAMES))
    return integrate_ode(_reduced(setup).rhs, y0, t_max, controls)


def integrate(setup, c0, t_max, controls=None):
    """Integrate the reduced flow from initial coefficients c0."""
    return integrate_sweep(setup, [c0], t_max, controls)[0]


# --- nil algebra closed form --------------------------------------------------

@dataclass
class NilData:
    """Constants of the scalar flow on the nil algebra.

    Only the leading coefficient moves; its source term R and damping H are
    frozen by the initial data."""
    H: float
    R: float
    constants: PrimitiveCoords

    @classmethod
    def from_coords(cls, c):
        c = PrimitiveCoords(*(float(x) for x in c))
        (_, B, C, D, E, F, G, H, I, J, K, L, M, N) = c
        R = 4 * H * (B * G + C * F + D * E - 2 * I * J - 2 * K * L - 2 * M * N) \
            + 8 * (D * J**2 + F * L**2 + G * N**2 - D * F * G - 2 * J * L * N)
        return cls(H, R, c)


def nil_closed_form(nd, A0, t):
    """A(t) of the scalar nil flow; the H = 0 branch is linear A0 + R t."""
    if nd.H == 0.0:
        return A0 + nd.R * t
    a = 4.0 * nd.H ** 2
    limit = nd.R / a
    return limit + (A0 - limit) * math.exp(-a * t)


# --- normalized limits ---------------------------------------------------------

class LimitError(RuntimeError):
    pass


def normalized_limit(traj, normalizer="A"):
    """Limit of phi(t)/c_normalizer(t) over the final window (the last 5% of
    the samples, at least 3), classified.

    Blow-up trajectories use final-window averaging (ratio drift there is
    negligible); reached_t_max trajectories must have grown in norm by 1e3,
    and extrapolate each ratio with a c + k/t model, which removes the
    O(1/t) tail of linear growth.  Stationary trajectories are rejected:
    there is nothing to normalize.
    """
    idx = COORD_NAMES.index(normalizer) if isinstance(normalizer, str) else normalizer
    if traj.status == "converged":
        raise LimitError("trajectory is stationary; no normalized limit to take")
    if traj.status == "error":
        raise LimitError(f"trajectory failed: {traj.message}")
    norm0 = float(np.max(np.abs(traj.states[0]))) or 1.0
    normf = float(np.max(np.abs(traj.final_state)))
    if traj.status == "reached_t_max" and normf < 1e3 * norm0:
        raise LimitError(
            f"no divergence detected: final norm {normf:.3e} vs initial {norm0:.3e}")
    n = len(traj.times)
    w = max(3, int(0.05 * n))
    ts = traj.times[-w:]
    den = traj.states[-w:, idx]
    if np.any(den == 0.0):
        raise LimitError("normalizing coefficient vanishes in the final window")
    ratios = traj.states[-w:] / den[:, None]

    coords = np.empty(14)
    spread = np.empty(14)
    if traj.status == "blow_up":
        coords[:] = ratios.mean(axis=0)
        spread[:] = ratios.max(axis=0) - ratios.min(axis=0)
    else:
        design = np.column_stack([np.ones_like(ts), 1.0 / ts])
        sol, *_ = np.linalg.lstsq(design, ratios, rcond=None)
        coords[:] = sol[0]
        fit = design @ sol
        spread[:] = np.max(np.abs(fit - ratios), axis=0)
    bad = float(np.max(spread))
    if bad > 1e-4 * max(1.0, float(np.max(np.abs(coords)))):
        raise LimitError(
            f"ratios not settled in the final window (spread {bad:.3e}); "
            f"window of {w} samples ending at t = {ts[-1]:.6g}")
    limit_coords = PrimitiveCoords(*coords)
    form = coords_to_form(limit_coords)
    orbit = classify_sp(form)
    return form, orbit


# --- solv algebra: closed ansatz, u-v systems, blow-up bound -------------------

@dataclass
class SolvData:
    """Closed invariant initial data on the solv algebra.

    alpha..delta are the coefficients of the d-closed ansatz; M, N the two
    residual moduli (constant along the flow); lam the structure constant.
    """
    alpha: float
    beta: float
    gamma: float
    delta: float
    M: float = 0.0
    N: float = 0.0
    lam: float = liealg.SOLV_LAMBDA

    @property
    def u0(self):
        return 4.0 * self.alpha * self.delta

    @property
    def v0(self):
        return 4.0 * self.beta * self.gamma

    @property
    def S(self):
        return max((self.M + self.N) ** 2, (self.M - self.N) ** 2)

    @property
    def C0(self):
        return self.u0 - self.v0

    def to_coords(self):
        return PrimitiveCoords(A=self.alpha, B=self.alpha,
                               C=self.beta, D=-self.beta,
                               E=self.gamma, F=-self.gamma,
                               G=-self.delta, H=-self.delta,
                               M=self.M, N=self.N)

    @classmethod
    def from_coords(cls, c, lam=liealg.SOLV_LAMBDA, tol=1e-12):
        c = PrimitiveCoords(*(float(x) for x in c))
        pairs = ((c.A, c.B), (c.C, -c.D), (c.E, -c.F), (-c.G, -c.H))
        for a, b in pairs:
            if abs(a - b) > tol * max(1.0, abs(a), abs(b)):
                raise ValueError("coefficients are not a closed solv ansatz")
        if any(abs(x) > tol for x in (c.I, c.J, c.K, c.L)):
            raise ValueError("closed solv ansatz needs I = J = K = L = 0")
        return cls(c.A, c.C, c.E, -c.G, c.M, c.N, lam)


def solv_system_rhs(sd):
    """Hand-written right side of the four-component closed-ansatz system.

    Cross-check oracle only: the integrator always goes through the generic
    reduced right side.  Maps rows (alpha, beta, gamma, delta) to rows, as
    integrate_ode asks of a right side."""
    l2 = 4.0 * sd.lam ** 2
    MN2m = (sd.M - sd.N) ** 2
    MN2p = (sd.M + sd.N) ** 2

    def rhs(y):
        a, b, g, d = np.asarray(y).T
        return np.stack([
            l2 * a * (4.0 * b * g - MN2m),
            l2 * b * (4.0 * a * d - MN2p),
            l2 * g * (4.0 * a * d - MN2p),
            l2 * d * (4.0 * b * g - MN2m),
        ], axis=-1)

    return rhs


@dataclass
class PositivityReport:
    same_sign: bool
    dominates_M: bool
    dominates_N: bool
    q_negative: bool
    matrix_positive_definite: bool

    @property
    def ok(self):
        return (self.same_sign and self.dominates_M and self.dominates_N
                and self.q_negative)

    def failed(self):
        names = ("same_sign", "dominates_M", "dominates_N", "q_negative")
        return [n for n in names if not getattr(self, n)]


def positivity_matrix(sd):
    a, b, g, d, M, N = sd.alpha, sd.beta, sd.gamma, sd.delta, sd.M, sd.N
    return [
        [2 * a * b, 0, a * (N - M), b * (M + N), 0, 0],
        [0, 2 * g * d, g * (M + N), d * (M - N), 0, 0],
        [a * (N - M), g * (M + N), 2 * a * g, 0, 0, 0],
        [b * (M + N), d * (M - N), 0, 2 * b * d, 0, 0],
        [0, 0, 0, 0, a * d + b * g - M * M, a * d - b * g - M * N],
        [0, 0, 0, 0, a * d - b * g - M * N, a * d + b * g - N * N],
    ]


def positivity_check(sd):
    """The three inequality groups guaranteeing stable initial data, plus the
    direct positive-definiteness of the associated 6x6 matrix.  The two
    characterizations must agree."""
    vals = (sd.alpha, sd.beta, sd.gamma, sd.delta)
    same = all(v > 0 for v in vals) or all(v < 0 for v in vals)
    ad, bg = sd.alpha * sd.delta, sd.beta * sd.gamma
    dm = ad + bg > sd.M ** 2
    dn = ad + bg > sd.N ** 2
    q16 = -4 * ad * bg + ad * (sd.M - sd.N) ** 2 + bg * (sd.M + sd.N) ** 2
    qn = q16 < 0
    pd = linalg.is_positive_definite(positivity_matrix(sd))
    rep = PositivityReport(same, dm, dn, qn, pd)
    if rep.ok != pd:
        raise ArithmeticError(
            f"positivity inequalities ({rep.ok}) disagree with Sylvester "
            f"minors ({pd}) for {sd}")
    return rep


@dataclass
class TPrimeBound:
    """Closed-form upper bound for the blow-up time of the comparison system."""
    value: Optional[float]
    branch: str
    reason: str = ""

    @property
    def available(self):
        return self.value is not None


@dataclass
class SolvUVTools:
    uv_rhs: Callable
    comparison_rhs: Callable
    w_closed_form: Callable
    t_prime: TPrimeBound


#: rate constant of the u-v reduction: with u = 4 alpha delta, v = 4 beta gamma
#: the product rule applied to the four-component system gives
#: du/dt = 8 lam^2 u (v - (M-N)^2), dv/dt = 8 lam^2 v (u - (M+N)^2).
UV_RATE = 8.0


def _t_prime(sd):
    u0, v0, S, C0 = sd.u0, sd.v0, sd.S, sd.C0
    l2 = UV_RATE * sd.lam ** 2
    if u0 <= 0 or v0 <= 0:
        return TPrimeBound(None, "invalid", "u0 and v0 must be positive")
    if S == 0.0 and C0 == 0.0:
        return TPrimeBound(1.0 / (l2 * u0), "S=0,C0=0")
    if S == 0.0:
        # u - v constant; pole of u = C0/(1 - (v0/u0) e^{l2 C0 t})
        return TPrimeBound(math.log(u0 / v0) / (l2 * C0), "S=0")
    if C0 == 0.0:
        if u0 <= S:
            return TPrimeBound(None, "symmetric", f"u0 = {u0} <= S = {S}")
        return TPrimeBound(math.log(u0 / (u0 - S)) / (l2 * S), "symmetric")
    bracket = 1.0 + (S / C0) * math.log(v0 / u0)
    if bracket <= 0.0:
        return TPrimeBound(None, "general",
                           f"no finite bound from this comparison: "
                           f"1 + (S/C0) log(v0/u0) = {bracket:.6g} <= 0")
    return TPrimeBound(-math.log(bracket) / (l2 * S), "general")


def solv_uv_tools(sd):
    """The u = 4 alpha delta, v = 4 beta gamma reduction: its right side, the
    symmetric comparison system, the closed form of w = e^{8 lam^2 S t} u for
    the comparison system, and the blow-up bound T'.  Both right sides map
    rows (u, v) to rows, as integrate_ode asks."""
    l2 = UV_RATE * sd.lam ** 2
    MN2m = (sd.M - sd.N) ** 2
    MN2p = (sd.M + sd.N) ** 2
    S, C0, u0, v0 = sd.S, sd.C0, sd.u0, sd.v0

    def uv_rhs(y):
        u, v = np.asarray(y).T
        return np.stack([l2 * u * (v - MN2m), l2 * v * (u - MN2p)], axis=-1)

    def comparison_rhs(y):
        u, v = np.asarray(y).T
        return np.stack([l2 * u * (v - S), l2 * v * (u - S)], axis=-1)

    def w_closed_form(t):
        if S == 0.0:
            if C0 == 0.0:
                return u0 / (1.0 - l2 * u0 * t)
            return C0 / (1.0 - (v0 / u0) * math.exp(l2 * C0 * t))
        if C0 == 0.0:
            # w for the symmetric branch: u = S/(1-(1-S/u0)e^{l2 S t}), w = e^{l2 S t} u
            es = math.exp(l2 * S * t)
            return es * S / (1.0 - (1.0 - S / u0) * es)
        expo = math.exp(-(C0 / S) * (math.exp(-l2 * S * t) - 1.0))
        return C0 / (1.0 - ((u0 - C0) / u0) * expo)

    return SolvUVTools(uv_rhs, comparison_rhs, w_closed_form, _t_prime(sd))
