"""Reduced geometric flow of invariant primitive 3-forms.

The evolution d phi/dt = d Lambda d F(phi) restricted to invariant forms on
a 6-dimensional symplectic Lie algebra is a cubic polynomial ODE on the 14
primitive coefficients.  This module evaluates that right side generically
(through the cached linear operator of d Lambda d composed with the cubic
hat map on Python floats, never hand-coded per algebra), integrates it with
an adaptive step-doubling RK4 scheme that shares its first stages and stops
on blow-up or on a stationarity test relative to |y|^3, extracts normalized
limits, and carries the closed-form solutions used as cross-checks: the
scalar ODE on the nil algebra and the u-v comparison system with its
blow-up bound on the solv algebra.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import liealg, linalg
from .invariants import (PrimitiveCoords, classify_sp, coords_to_form,
                         hat_map, q_from_coords)

# --- generic reduced right side ---------------------------------------------


class ReducedFlow:
    """The flow's right side on coefficient vectors, for one setup.

    rhs(c) = -2 * M @ hat(c), where M is the matrix of d Lambda d on the
    primitive basis (built once through the full form-level operator) and
    hat is the closed-form cubic for -F/2.  Identical to pushing phi through
    flow_operator, but cheap enough for inner integration loops.
    """

    def __init__(self, setup):
        self.setup = setup
        mat = liealg.dlambdad_coords_matrix(setup)
        self.matrix = linalg.to_float_matrix(mat)

    def rhs(self, y):
        # Python floats run the cubic twice as fast as numpy float64 scalars,
        # with the same rounding, but their ** raises where float64 gives inf
        try:
            hats = hat_map(y.tolist())
        except OverflowError:
            hats = hat_map(y)
        return -2.0 * (self.matrix @ np.array(hats, dtype=float))


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

@dataclass
class FlowControls:
    rtol: float = 1e-9
    atol: float = 1e-12
    h0: float = 1e-3
    h_min: float = 1e-14
    h_max: float = math.inf     # additionally capped at t_max/20 per run
    blow_norm: float = 1e8       # coefficient norm declaring blow-up ...
    blow_step: float = 1e-12     # ... once accepted steps shrink below this
    stationary_residual: float = 1e-10  # max|f(y)| relative to max|y|^3
    stationary_steps: int = 10
    detect_stationary: bool = True
    max_steps: int = 2_000_000


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray           # shape (n_samples, dim)
    status: str                  # reached_t_max | converged | blow_up | error
    message: str = ""
    n_accepted: int = 0
    n_rejected: int = 0

    @property
    def t_final(self):
        return float(self.times[-1])

    @property
    def final_state(self):
        return self.states[-1]


def _rk4(f, y, h, k1):
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _is_still(fy, y, residual):
    # relative to |y|^3, as the reduced flow is a homogeneous cubic; products
    # rather than ** so that a huge |y| gives inf instead of OverflowError
    norm = float(np.max(np.abs(y)))
    return float(np.max(np.abs(fy))) <= residual * norm * norm * norm


def integrate_ode(f, y0, t_max, controls=None):
    """Adaptive RK4 with step doubling (5th-order local extrapolation).

    The local error estimate is the Richardson difference of one full step
    against two half steps (Hairer, Norsett and Wanner, Solving ODEs I,
    II.4).  f(y) is evaluated once per accepted state and serves as the k1
    of the full step, of the first half step, and of every retry from that
    state, and as the stationarity residual: a run costs 1 + 10 (accepted +
    rejected) + accepted evaluations at most.  After each attempt h is
    rescaled by 0.9 err^(-1/5), within [0.2, 5], so it shrinks again on an
    accepted step whose error is close to the tolerance.

    Blow-up is declared when the state norm exceeds ``blow_norm`` while
    accepted steps have shrunk below ``blow_step``.  The run converges once
    max|f(y)| <= ``stationary_residual`` * max|y|^3 has held for
    ``stationary_steps`` accepted steps in a row (at once for stationary
    initial data, y = 0 included); the test is relative because the
    reduced flow is a homogeneous cubic, so it is unchanged by the
    rescaling y -> s y, t -> t / s^2.  Step underflow without norm growth
    surfaces as status "error".
    """
    c = controls or FlowControls()
    y = np.array(y0, dtype=float)
    t = 0.0
    times = [0.0]
    states = [y.copy()]
    h = min(c.h0, t_max) if t_max > 0 else c.h0
    # cap growth so a run always resolves at least ~20 samples; otherwise the
    # x5 step doubling outruns both the sampling and the stationarity window
    h_cap = min(c.h_max, t_max / 20.0) if t_max > 0 else c.h_max
    n_acc = n_rej = 0
    still = 0
    status, message = "reached_t_max", ""

    fy = f(y)
    if c.detect_stationary and _is_still(fy, y, c.stationary_residual):
        return Trajectory(np.array(times), np.array(states), "converged",
                          "stationary initial data", 0, 0)

    while t < t_max:
        if n_acc + n_rej >= c.max_steps:
            status, message = "error", f"exceeded {c.max_steps} steps"
            break
        h = min(h, t_max - t, h_cap)
        full = _rk4(f, y, h, fy)
        half = _rk4(f, y, 0.5 * h, fy)
        two = _rk4(f, half, 0.5 * h, f(half))
        diff = (two - full) / 15.0
        scale = c.atol + c.rtol * np.maximum(np.abs(y), np.abs(two))
        with np.errstate(invalid="ignore", divide="ignore"):
            err = float(np.max(np.abs(diff) / scale))
        if not np.isfinite(err):
            err = math.inf
        if err <= 1.0:
            y = two + diff  # 5th-order extrapolation
            t += h
            n_acc += 1
            times.append(t)
            states.append(y.copy())
            norm = float(np.max(np.abs(y)))
            if norm > c.blow_norm and h < c.blow_step:
                status, message = "blow_up", f"|y| = {norm:.3e} with step {h:.3e}"
                break
            fy = f(y)
            if c.detect_stationary:
                still = still + 1 if _is_still(fy, y, c.stationary_residual) else 0
                if still >= c.stationary_steps:
                    status = "converged"
                    message = (f"residual <= {c.stationary_residual} |y|^3 "
                               f"for {still} steps")
                    break
            h *= 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            n_rej += 1
            h *= max(0.2, 0.9 * err ** -0.2)
        if h < c.h_min or t + h == t:
            norm = float(np.max(np.abs(y)))
            if norm > c.blow_norm:
                status, message = "blow_up", f"|y| = {norm:.3e} at step underflow"
            else:
                status, message = "error", f"step underflow at t = {t} without blow-up"
            break

    return Trajectory(np.array(times), np.array(states), status, message,
                      n_acc, n_rej)


def integrate(setup, c0, t_max, controls=None):
    """Integrate the reduced flow from initial coefficients c0."""
    flow = _reduced(setup)
    y0 = np.array([float(x) for x in c0], dtype=float)
    return integrate_ode(flow.rhs, y0, t_max, controls)


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


def normalized_limit(traj, normalizer="A", tol=1e-8, window_frac=0.05,
                     growth_factor=1e3):
    """Limit of phi(t)/c_normalizer(t) over the final window, classified.

    Blow-up trajectories use final-window averaging (ratio drift there is
    negligible); divergent reached_t_max trajectories extrapolate each ratio
    with a c + k/t model, which removes the O(1/t) tail of linear growth.
    Stationary trajectories are rejected: there is nothing to normalize.
    """
    from .invariants import COORD_NAMES
    idx = COORD_NAMES.index(normalizer) if isinstance(normalizer, str) else normalizer
    if traj.status == "converged":
        raise LimitError("trajectory is stationary; no normalized limit to take")
    if traj.status == "error":
        raise LimitError(f"trajectory failed: {traj.message}")
    norm0 = float(np.max(np.abs(traj.states[0]))) or 1.0
    normf = float(np.max(np.abs(traj.final_state)))
    if traj.status == "reached_t_max" and normf < growth_factor * norm0:
        raise LimitError(
            f"no divergence detected: final norm {normf:.3e} vs initial {norm0:.3e}")
    n = len(traj.times)
    w = max(3, int(window_frac * n))
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
    orbit = classify_sp(form, tol=tol)
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
    reduced right side."""
    l2 = 4.0 * sd.lam ** 2
    MN2m = (sd.M - sd.N) ** 2
    MN2p = (sd.M + sd.N) ** 2

    def rhs(y):
        a, b, g, d = y
        return np.array([
            l2 * a * (4.0 * b * g - MN2m),
            l2 * b * (4.0 * a * d - MN2p),
            l2 * g * (4.0 * a * d - MN2p),
            l2 * d * (4.0 * b * g - MN2m),
        ])

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
    the comparison system, and the blow-up bound T'."""
    l2 = UV_RATE * sd.lam ** 2
    MN2m = (sd.M - sd.N) ** 2
    MN2p = (sd.M + sd.N) ** 2
    S, C0, u0, v0 = sd.S, sd.C0, sd.u0, sd.v0

    def uv_rhs(y):
        u, v = y
        return np.array([l2 * u * (v - MN2m), l2 * v * (u - MN2p)])

    def comparison_rhs(y):
        u, v = y
        return np.array([l2 * u * (v - S), l2 * v * (u - S)])

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
