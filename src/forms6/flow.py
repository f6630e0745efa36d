"""Reduced geometric flow of invariant primitive 3-forms.

The evolution d phi/dt = d Lambda d F(phi) restricted to invariant forms on
a 6-dimensional symplectic Lie algebra is a cubic polynomial ODE on the 14
primitive coefficients.  This module evaluates that right side generically
(one table of cubic monomials per setup, derived exactly from the K and F
tables and the cached linear operator of d Lambda d, never hand-coded per
algebra), integrates a batch of starts at once with a fixed-order Taylor
series whose coefficients come from Cauchy products, built in buffers laid
out once per batch size, each row in its own power-of-two units, and on a
flow that can blow up (one with monomials of two or more factors the flow
moves) in a projective time tau, dt/dtau = e^(-2 s0 tau) with s0 the
growth rate of |y| at the start of each pass, in which the blow-up lies at
tau = infinity, stops each start on scale-free blow-up
and stationarity tests (the latter cut at the run's own rtol and held with
max|y| steady), which read t, extracts normalized limits,
and carries the closed-form solutions used as cross-checks: the scalar
ODE on the nil algebra and the u-v comparison system with its blow-up
bound on the solv algebra, whose polynomial systems are tables of the same
kind.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

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


#: order of the Taylor series that steps every flow
ORDER = 20


class ReducedFlow:
    """A polynomial flow dy/dt = f(y) whose monomials are all cubic.

    f(y)[i] = sum_n table[n, i] y_a y_b y_c over (a, b, c) = monos[n].  The
    reduced flow of a setup is one (``reduced_flow``); the closed reductions
    of the solv flow are others, with a constant coordinate 1 making their
    lower-degree monomials cubic.  The coordinates f moves are the nonzero
    columns of the table; every other one, the constant 1 included, is held
    at its start.  ``n_cauchy`` counts the monomials with two or more moving
    factors: 40 of 96 on the solv algebra, none of 12 on the nil one.  A flow
    without them is affine in each moving coordinate and cannot blow up; one
    with them is built and stepped in a projective time (``_TaylorWork``).
    The builds' sums are vecdots, one dot product per entry, whose bits do
    not depend on the batch as those of a matrix product may, so a row gives
    the same bits alone or in a sweep.
    """

    def __init__(self, monos, rows, dim):
        idx = np.array(monos, dtype=np.intp).reshape(-1, 3)
        self.a, self.b, self.c = idx.T
        self.table = np.array(rows, dtype=float).reshape(-1, dim)
        moving = np.any(self.table != 0.0, axis=0)[idx]
        # each monomial's factors, moving ones first, and the monomials in
        # the order _TaylorWork fills them: Cauchy, then one moving factor, then none
        fac = np.take_along_axis(idx, np.argsort(~moving, axis=1, kind="stable"), 1)
        n_moving = np.count_nonzero(moving, axis=1)
        order = np.argsort(-n_moving, kind="stable")
        self.factors, n_moving = fac[order], n_moving[order]
        self.n_cauchy = int(np.count_nonzero(n_moving >= 2))
        self.n_moved = self.n_cauchy + int(np.count_nonzero(n_moving == 1))
        # table / (k + 1), the step from f(y)_k to y_{k+1}, transposed; with
        # Cauchy monomials followed by -1/(k + 1) times the identity, the step
        # of _TaylorWork's gauge term s0 z_k
        ks = np.arange(1.0, ORDER + 1)[:, None, None]
        self.tables = self.table[order].T / ks
        if self.n_cauchy:
            self.tables = np.concatenate((self.tables, -np.eye(dim) / ks), axis=-1)

    def rhs(self, y):
        """The right side of each row of y, shape (R, n) or (n,)."""
        mono = y.take(self.a, axis=-1) * y.take(self.b, axis=-1) * y.take(self.c, axis=-1)
        return np.einsum("...m,mn->...n", mono, self.table)


class _TaylorWork:
    """The buffers of a Taylor coefficient build for a batch of a fixed
    number of rows, and the views that each order reads and writes, laid out
    once, so that a run is only the arithmetic of a build.  integrate_ode
    keeps one for its current batch size and runs it on every pass, and
    _step sums the series in its other buffers.  A run writes every buffer
    before it reads it, so it gives the bits of a fresh build; the
    coefficients it returns are its own ``coef``, overwritten by the next
    run.

    On a flow without Cauchy monomials a run builds the coefficients
    y_0..y_ORDER in t of the solution through each row: with
    y(t) = sum_k y_k t^k, y_{k+1} = f(y)_k / (k + 1), where f(y)_k contracts
    the k-th coefficients of the monomials with the table.  A coordinate
    that f does not move has y_k = 0 past k = 0, so a monomial has k-th
    coefficient w y_k at its one moving factor, or w at k = 0 and 0 past it
    with none, w the product of its other factors at y_0.

    A flow with Cauchy monomials can blow up in finite t.  There a run
    builds the series in tau of z' = f(z) - s0 z from z = y, with the rate
    s0 = <y, f(y)> / |y|_2^2 (0 on a zero row) held for the whole pass, kept
    in ``s0`` with f(y) in ``f``.  For a cubic f, z e^(s0 tau) solves
    y' = f(y) in t = v(tau) = (1 - e^(-2 s0 tau)) / (2 s0), for any s0
    (``_step`` takes both closed forms); this s0 is |y|'s own growth rate,
    so the series in tau has no pole where y has one in t (the Poincare
    compactification: Dumortier, Llibre and Artes, Qualitative Theory of
    Planar Differential Systems, ch. 5).  The gauge moves every coordinate,
    so every monomial's k-th coefficient is a Cauchy product: first of b
    and c, (z_b z_c)_k = sum_j z_{b,j} z_{c,k-j}, then of a with that (Jorba
    and Zou, Experimental Mathematics 14, 2005).  The gauge term s0 z_k sits
    after the monomials, so one contraction with the flow's table step gives
    z_{k+1} = f(z)_k / (k + 1) - s0 z_k / (k + 1).  No further evaluation of
    f is made."""

    def __init__(self, flow, rows):
        n, dim = flow.table.shape
        self.cauchy = cauchy = flow.n_cauchy > 0
        # the factors taken at every order: a, b and c of each Cauchy
        # monomial, then the moving factor of each linear one, and those taken
        # at order 0 only: the two fixed factors of each linear or constant
        # monomial, and the third of each constant one.  On a flow with
        # Cauchy monomials the gauge moves every coordinate, so every
        # monomial is a Cauchy product there
        fac = flow.factors
        nc, nm = (n, n) if cauchy else (0, flow.n_moved)
        moving = np.concatenate((fac[:nc, 0], fac[:nc, 1], fac[:nc, 2], fac[nc:nm, 0]))
        self.fixed_factors = fac[nc:, 1], fac[nc:, 2], fac[nm:, 0]
        self.coef = coef = np.empty((ORDER + 1, rows, dim))
        # the monomials' k-th coefficients, then on a gauged flow s0 z_k
        self.mono = mono = np.empty((rows, 1, flow.tables.shape[-1]))
        fwd = np.empty((ORDER, rows, len(moving)))   # y_j at each moving factor
        a, b, c = (fwd[..., i * nc:(i + 1) * nc] for i in range(3))
        bc = np.empty((ORDER, rows, nc))             # (y_b y_c)_j at each Cauchy monomial
        # the fixed factors at y_0 and the products w of the first two; the
        # constant monomials' coefficient is w f0 at k = 0 and 0 past it
        self.fixed = [np.empty((rows, len(i))) for i in self.fixed_factors]
        self.w = np.empty((rows, n - nc))
        self.w_const = self.w[:, nm - nc:]
        self.cauchy_out, self.const = mono[:, 0, :nc], mono[:, 0, nm:n]
        # the product taken at each order: the linear monomials' moving
        # factors by w, or on a gauged flow z_k by s0
        if cauchy:
            self.s0, self.f = np.empty(rows), np.empty((rows, dim))
            scaled, self.weight, self.scaled_out = coef, self.s0[:, None], mono[:, 0, n:]
            self.f_table = flow.tables[0, :, :n]
        else:
            scaled, self.weight = fwd[..., 3 * nc:], self.w[:, :nm - nc]
            self.scaled_out = mono[:, 0, nc:nm]

        def j_last(x):
            return x.transpose(1, 2, 0)
        # per order k: y_k, the moving factors and where they go, the Cauchy
        # operands with j last (sums over j = 0..k of u_j v_{k-j}, v read
        # backwards), the scaled factors, the table step and y_{k+1}
        self.orders = [(coef[k], moving, fwd[k],
                        j_last(b[:k + 1]), j_last(c[k::-1]), bc[k],
                        j_last(a[:k + 1]), j_last(bc[k::-1]),
                        scaled[k], flow.tables[k], coef[k + 1]) for k in range(ORDER)]
        # for _step: |f(y)_0|, |Y_ORDER-1| and |Y_ORDER|; the powers H^k of
        # each row's step (k = 0 stays 1); the terms H^k Y_k, highest k
        # first, and their sum
        self.ends = np.empty((3,) + coef.shape[1:])
        self.slope = self.ends[0]
        self.powers = np.empty((ORDER + 1, rows))
        self.powers[0] = 1.0
        self.terms = np.empty_like(coef)
        self.series = np.empty(coef.shape[1:])
        if cauchy:
            self.held = np.flatnonzero(~np.any(flow.table != 0.0, axis=0))

    def run(self, y):
        """The series of y, or on a flow with Cauchy monomials of z, for y
        of this work's row count, written into ``coef`` and returned."""
        dot, multiply, coef = np.vecdot, np.multiply, self.coef
        y0 = coef[0]
        y0[...] = y
        # the indices are in range; "clip" lets take write out unbuffered
        for i, out in zip(self.fixed_factors, self.fixed):
            y0.take(i, -1, out, "clip")
        f1, f2, f0 = self.fixed
        multiply(f1, f2, self.w)
        multiply(self.w_const, f0, self.const)
        cauchy, cauchy_out, mono, weight, scaled_out = (
            self.cauchy, self.cauchy_out, self.mono, self.weight, self.scaled_out)
        # arguments go by position, the fastest for numpy to parse
        for k, (y_k, moving, fwd, b, c, bc, a, bc_back, scaled, table, y_next) in \
                enumerate(self.orders):
            y_k.take(moving, -1, fwd, "clip")
            if cauchy:
                dot(b, c, bc)
                dot(a, bc_back, cauchy_out)
                if k == 0:
                    # f(y) and s0, 0 on a zero row
                    dot(cauchy_out[:, None], self.f_table, self.f)
                    n0 = dot(y0, y0)
                    self.s0.fill(0.0)
                    np.divide(dot(y0, self.f), n0, out=self.s0, where=n0 > 0.0)
            multiply(scaled, weight, scaled_out)
            dot(mono, table, y_next)
            if k == 0:
                self.const.fill(0.0)
        return coef


def reduced_flow(setup):
    """The setup's ReducedFlow, built on first use and kept on the setup."""
    flow = setup._reduced_flow
    if flow is None:
        flow = ReducedFlow(*rhs_table(setup), len(COORD_NAMES))
        setup._reduced_flow = flow
    return flow


def reduced_rhs(setup, coords):
    """Coefficient vector of d Lambda d F(phi) in the primitive basis."""
    y = np.array([float(x) for x in coords], dtype=float)
    return PrimitiveCoords(*reduced_flow(setup).rhs(y))


# --- Taylor integrator --------------------------------------------------------

# thresholds of integrate_ode that no caller sets; FlowControls holds the
# ones the CLI exposes
NORM_HOLD = 1e-6             # change of max|y| over a stationarity hold, relative
MAX_STEPS = 2_000_000


@dataclass
class FlowControls:
    rtol: float = 1e-9
    blow_norm: float = 1e8       # growth of max|y| over the start's that declares blow-up
    detect_stationary: bool = True


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray           # shape (n_samples, dim)
    status: str                  # reached_t_max | converged | blow_up | error
    message: str = ""
    n_accepted: int = 0
    n_rejected: int = 0          # 1 when the start stopped on a step that cannot move t
    rhs_rows: int = 0            # Taylor coefficient builds for this start
    min_step: Optional[float] = None    # smallest and largest accepted step
    max_step: Optional[float] = None

    @property
    def t_final(self):
        return float(self.times[-1])

    @property
    def final_state(self):
        return self.states[-1]


class _Member:
    """The run of one row of a batch: its time, samples, max|y| now, at the
    start and at a stationarity hold's start, counters and, once it stops,
    its status.  Its stop tests compare max|f(y)| with max|y|^3, max|y| with
    those other two and a step with t, so the rescaling y -> s y,
    t -> t / s^2 of the cubic flow leaves them unchanged, and a power of
    two s bit for bit."""

    def __init__(self, y0, norm):
        self.t, self.still_since, self.still_norm = 0.0, None, None
        self.times, self.states = [0.0], [y0]
        self.norm = self.norm0 = norm
        self.n_acc = self.n_rej = self.rows = 0
        self.min_step = self.max_step = self.status = None
        self.message = ""

    def running(self, t_max):
        """Whether the start takes another step; one that has used up
        MAX_STEPS stops here with status "error"."""
        if self.status is not None or self.t >= t_max:
            return False
        if self.n_acc + self.n_rej >= MAX_STEPS:
            self.status, self.message = "error", f"exceeded {MAX_STEPS} steps"
            return False
        return True

    def converged(self, slope, norm, rtol):
        """Whether max|f(y)| = slope has stayed within rtol max|y|^3, the
        run's own tolerance, at every sample from the time t_s it first did
        so up to t >= 2 t_s, with max|y| within NORM_HOLD of its value at
        t_s, or does so on the initial data.  The first span measures how
        long the start takes to come this close, so holding as long again
        brings it about as much closer.  A hold whose max|y| moved more
        restarts at t, so a start growing without bound never converges."""
        if not slope <= rtol * norm * norm * norm:
            self.still_since = None
            return False
        if self.n_acc == 0:
            self.status, self.message = "converged", "stationary initial data"
            return True
        if self.still_since is None:
            self.still_since, self.still_norm = self.t, self.norm
        if self.t < 2.0 * self.still_since:
            return False
        moved = abs(self.norm - self.still_norm)
        if not moved <= NORM_HOLD * self.still_norm:
            self.still_since, self.still_norm = self.t, self.norm
            return False
        self.status = "converged"
        self.message = (f"max|f|/max|y|^3 = {slope / norm ** 3:.3e} <= rtol = {rtol:.3e} "
                        f"over t = {self.still_since:.6g}..{self.t:.6g}, max|y| moved "
                        f"{moved / self.still_norm if moved else 0.0:.3e} relative")
        return True

    def blows_up(self, dt, c):
        """Whether the start stops as "blow_up" instead of taking a step that
        advances t by dt: dt cannot move t (counted in n_rejected), or
        max|y| > blow_norm max|y0| while dt < rtol t, the time left being
        below the run's own tolerance."""
        if self.t + dt == self.t:
            self.n_rej += 1
            self.message = f"step {dt:.3e} cannot move t = {self.t!r} at |y| = {self.norm:.3e}"
        elif self.norm > c.blow_norm * self.norm0 and dt < c.rtol * self.t:
            self.message = f"|y| = {self.norm:.3e} > {c.blow_norm:g} |y0|, step {dt:.3e} < {c.rtol:g} t"
        else:
            return False
        self.status = "blow_up"
        return True

    def accept(self, y, h, norm):
        self.t += h
        self.n_acc += 1
        self.times.append(self.t)
        self.states.append(y)
        self.norm = norm
        self.min_step = min(self.min_step or h, h)     # steps are > 0
        self.max_step = max(self.max_step or h, h)

    def trajectory(self):
        return Trajectory(np.array(self.times), np.array(self.states),
                          self.status or "reached_t_max", self.message,
                          self.n_acc, self.n_rej, self.rows,
                          self.min_step, self.max_step)


def _step_size(eps, sizes):
    """min over k = ORDER - 1, ORDER of (eps / |y_k|)^(1/k), with |y_k| the
    two norms in sizes; 0, a step that stops the start, where one is not
    finite."""
    if not all(map(math.isfinite, sizes)):
        return 0.0
    return min([(eps / size) ** (1.0 / k)
                for k, size in zip((ORDER - 1, ORDER), sizes) if size > 0.0],
               default=math.inf)


def integrate_ode(flow, y0, t_max, controls=None):
    """Integrate the polynomial flow of a ReducedFlow by a Taylor series of
    order ORDER.

    y0 is one start, shape (n,), or a batch of starts, shape (B, n); the
    result is one Trajectory, or a list with one per start, each the same
    bits as integrating that start alone.  Every start keeps its own time,
    counters and status.  A pass builds the Taylor coefficients of every
    running start in one batch (one build per start and pass,
    ``Trajectory.rhs_rows``), each row in its own power-of-two units
    (``_step``), in buffers laid out once per batch size (``_TaylorWork``;
    when starts stop, the batch's buffers are laid out anew for the rows
    left and the old ones dropped), and steps each by
    h = min((eps/|y_{p-1}|)^(1/(p-1)), (eps/|y_p|)^(1/p)), p = ORDER,
    eps = rtol max|y| (Jorba and Zou, 2005).  A flow with Cauchy monomials
    is stepped in the projective time tau of ``_TaylorWork``'s gauge, whose
    rate s0 is held for the pass, so that y and t at tau are closed forms of
    the series of z (``_gauge_step``, which also holds |s0| h to about 1.3),
    and one without in t; either way the
    step's t-advance is capped at t_max / 20, so that a run resolves at
    least 20 samples, and at t_max - t.  The step is chosen before it is
    taken, so none is rejected.

    A start stops as "blow_up" by ``_Member.blows_up``: when its step cannot
    move t, or when max|y| exceeds ``blow_norm`` max|y0| with a t-advance
    below rtol t.  With detect_stationary, a start converges by
    ``_Member.converged``: once max|f(y)| <= rtol max|y|^3 has held from
    t_s to 2 t_s with max|y| steady to NORM_HOLD, or at once for stationary
    initial data, y = 0 included.  A start or t_max that is not finite, or
    t_max <= 0, raises ValueError.
    """
    c = controls or FlowControls()
    y = np.array(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite initial coefficient")
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    single = y.ndim == 1
    y = np.atleast_2d(y)
    h_cap = t_max / 20.0
    members = [_Member(row, norm)
               for row, norm in zip(y, np.max(np.abs(y), axis=-1).tolist())]
    active, work = members, _TaylorWork(flow, len(members))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            keep = [k for k, m in enumerate(active) if m.running(t_max)]
            if len(keep) < len(active):
                active = [active[k] for k in keep]
                y = y[keep]
                work = _TaylorWork(flow, len(active)) if active else None
            if not active:
                break
            y = _step(work, y, active, t_max, h_cap, c)
    trajs = [m.trajectory() for m in members]
    return trajs[0] if single else trajs


def _advance(v, e2):
    """The t-advance 4^-e v of a step v in units 2^-e (e2 = 2e); inf where
    it lies past the float range, as it does for tiny starts, so that the
    cap cuts it."""
    try:
        return math.ldexp(v, -e2)
    except OverflowError:
        return math.inf


def _gauge_step(s0, eps, sizes, cap, e2):
    """The step in tau of a gauged row of rate s0 in its units (e2 = 2e),
    its t-advance and the growth of y over it: (h, 4^-e v(h), e^(s0 h)),
    v(h) = (1 - e^(-2 s0 h)) / (2 s0), or h where s0 = 0.  h is the step
    of _step_size on the sizes of Z_ORDER-1 and Z_ORDER, and at most the
    step it would take on the terms of those orders of the series of
    e^(-2 s0 tau) and of v, (2|s0|)^k / k! and (2|s0|)^(k-1) / k!, as if
    they were summed as series.  That holds |s0| h to about 1.3 at the
    default rtol, so a step grows |y| by at most about e^1.3, and samples
    the approach to the blow-up, which normalized_limit reads.  Where the
    advance is over cap, h is cut to h' with v(h') = 4^e cap and the advance
    is cap; v increases and, for s0 > 0, stays below 1/(2 s0), so the cap
    never binds where 2 s0 4^e cap >= 1."""
    r = 2.0 * s0
    a = abs(r)
    h = _step_size(eps, sizes)
    # (eps k! / (max(a, 1) a^(k-1)))^(1/k), taken so that no power overflows
    for k in (ORDER - 1, ORDER) if a else ():
        h = min(h, (eps * math.factorial(k) / max(a, 1.0)) ** (1.0 / k) / a ** (1.0 - 1.0 / k))
    # h = 0 where Y or f(Y) is not finite, and so s0 may be nan
    v = -math.expm1(-r * h) / r if r and h else h
    dt = _advance(v, e2)
    if dt > cap:
        x = r * math.ldexp(cap, e2)
        if x < 1.0:
            h = -math.log1p(-x) / r if r else math.ldexp(cap, e2)
        dt = cap
    return h, dt, math.exp(s0 * h)


def _blow_up_estimate(y, f, t, e):
    """The growth rate g = <y, f(y)> / |y|_2^2 = d log|y|/dt of a row y in
    its power-of-two units 2^-e, f = f(y), and the blow-up time
    T^ = t + 1/(2g) that it gives, as the tail of a blow_up message; in
    tau, T^ - t is 1/(2 s0) in step units, the t-advance of a pass as its
    tau goes to infinity."""
    yy = float(np.vecdot(y, y))
    growth = float(np.vecdot(y, f)) / yy if yy else 0.0
    g = float(np.ldexp(growth, 2 * e))
    if not growth > 0.0:
        return f"; growth d log|y|/dt = {g:.6e} <= 0, T^ unavailable"
    t_hat = t + math.ldexp(0.5 / growth, -2 * e)
    return f"; growth d log|y|/dt = {g:.6e}, T^ = t + 1/(2 growth) = {t_hat!r}"


_FLOAT_MAX = np.finfo(float).max


def _step(work, y, active, t_max, h_cap, c):
    """One coefficient build and step of every running start, in the
    buffers of work, a _TaylorWork of their row count; returns the new rows
    (those of starts that stopped are dropped by the caller).

    Each row is stepped in its own units: y = 2^e Y, e the binary exponent
    of max|y|, and by the flow's scaling y(t + H 4^-e) = 2^e Y(H).  Every
    factor is a power of two, so no coefficient over- or underflows, and a
    row scaled by 2^j takes the same steps and gives the scaled bits.  A
    gauged row of rate s0 steps by H in tau (``_gauge_step``): Y becomes
    z(H) e^(s0 H), with the coordinates the flow does not move written back
    with their start bits, and t advances by 4^-e v(H); both closed forms
    are taken per row with math, whose bits do not depend on the batch.  The
    stop tests read the row's own f(Y) and t-advance, in both gauges."""
    e = [math.frexp(m.norm)[1] for m in active]
    rows_e = np.array(e)[:, None]
    work.run(np.ldexp(y, -rows_e))
    coef, ends, powers, gauge = work.coef, work.ends, work.powers, work.cauchy
    f0 = work.f if gauge else coef[1]       # f(Y)
    np.abs(f0, out=work.slope)
    np.abs(coef[ORDER - 1:], out=ends[1:])
    slope, *last = np.maximum.reduce(ends, axis=-1).tolist()
    s0 = work.s0.tolist() if gauge else None
    steps, H, grow = [0.0] * len(active), [0.0] * len(active), [1.0] * len(active)
    for k, m in enumerate(active):
        m.rows += 1
        norm = math.ldexp(m.norm, -e[k])
        if c.detect_stationary and m.converged(slope[k], norm, c.rtol):
            continue
        eps, sizes = c.rtol * norm, (last[0][k], last[1][k])
        cap = min(t_max - m.t, h_cap)
        if gauge:
            h, dt, g = _gauge_step(s0[k], eps, sizes, cap, 2 * e[k])
        else:
            dt, g = min(_advance(_step_size(eps, sizes), 2 * e[k]), cap), 1.0
            h = math.ldexp(dt, 2 * e[k])
        if m.blows_up(dt, c):
            m.message += _blow_up_estimate(coef[0, k], f0[k], m.t, e[k])
        else:
            steps[k], H[k], grow[k] = dt, h, g
    # sum_k H^k Y_k, smallest terms first; H^k overflows only against Y_k
    # that are exactly 0 (linear growth), where a power clamped at the float
    # maximum gives 0 and inf would give nan
    powers[1:] = H
    np.cumprod(powers, axis=0, out=powers)
    np.minimum(powers, _FLOAT_MAX, out=powers)
    np.multiply(powers[::-1, :, None], coef[::-1], out=work.terms)
    series = np.add.reduce(work.terms, axis=0, out=work.series)
    if gauge:
        y_new = np.ldexp(series * np.array(grow)[:, None], rows_e)
        y_new[:, work.held] = y[:, work.held]
    else:
        y_new = np.ldexp(series, rows_e)
    norm_new = np.maximum.reduce(np.abs(y_new, out=work.slope), axis=-1).tolist()
    for k, m in enumerate(active):
        if steps[k]:
            m.accept(y_new[k], steps[k], norm_new[k])
    return y_new


def integrate_sweep(setup, starts, t_max, controls=None):
    """Integrate the reduced flow from each of the initial coefficient
    vectors in starts as one batch; one Trajectory per start, each the same
    as integrating that start alone."""
    y0 = np.array([[float(x) for x in c0] for c0 in starts], dtype=float)
    y0 = y0.reshape(len(starts), len(COORD_NAMES))
    return integrate_ode(reduced_flow(setup), y0, t_max, controls)


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
    """A(t) of the scalar nil flow; the H = 0 branch is linear A0 + R t,
    as is one where 4 H^2 underflows, to within 4 H^2 t relative."""
    a = 4.0 * nd.H ** 2
    if a == 0.0:
        return A0 + nd.R * t
    limit = nd.R / a
    return limit + (A0 - limit) * math.exp(-a * t)


# --- normalized limits ---------------------------------------------------------

class LimitError(RuntimeError):
    pass


def normalized_limit(traj, normalizer="A"):
    """Limit of phi(t)/c_normalizer(t), normalizer a name in COORD_NAMES,
    read on the final window (the last 5% of the samples, at least 3),
    classified.

    Blow-up trajectories take the last sample's ratios, the closest to the
    blow-up, once the ratios have settled over the window; reached_t_max
    trajectories must have grown in norm by 1e3, and extrapolate each ratio
    with a c + k/t model, which removes the O(1/t) tail of linear growth.
    Stationary trajectories are rejected: there is nothing to normalize.
    """
    idx = COORD_NAMES.index(normalizer)
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
        coords[:] = ratios[-1]
        spread[:] = ratios.max(axis=0) - ratios.min(axis=0)
    else:
        design = np.column_stack([np.ones_like(ts), 1.0 / ts])
        sol, *_ = np.linalg.lstsq(design, ratios, rcond=None)
        coords[:] = sol[0]
        fit = design @ sol
        spread[:] = np.max(np.abs(fit - ratios), axis=0)
    bad = float(np.max(spread))
    # the ratios are of degree 0 in phi, so this cut is scale-free: a start
    # scaled by 2^j gives the same ratios, spread and verdict bit for bit
    if bad > 1e-4 * float(np.max(np.abs(coords))):
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
        return 4.0 * (self.alpha * self.delta)

    @property
    def v0(self):
        return 4.0 * (self.beta * self.gamma)

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
    def from_coords(cls, c):
        c = PrimitiveCoords(*(float(x) for x in c))
        cut = 1e-12 * max(map(abs, c))    # scales with c
        pairs = ((c.A, c.B), (c.C, -c.D), (c.E, -c.F), (-c.G, -c.H))
        if any(abs(a - b) > cut for a, b in pairs):
            raise ValueError("coefficients are not a closed solv ansatz")
        if any(abs(x) > cut for x in (c.I, c.J, c.K, c.L)):
            raise ValueError("closed solv ansatz needs I = J = K = L = 0")
        return cls(c.A, c.C, c.E, -c.G, c.M, c.N)


def _padded_flow(dim, terms):
    """A ReducedFlow on rows (y_0, ..., y_{dim-2}, 1) from terms (i, x, mono):
    f_i gains x y_a y_b y_c over (a, b, c) = mono, where the index dim - 1
    stands for the constant coordinate 1, whose own f is 0."""
    monos = sorted({mono for _, _, mono in terms})
    rows = [[0.0] * dim for _ in monos]
    for i, x, mono in terms:
        rows[monos.index(mono)][i] += x
    return ReducedFlow(monos, rows, dim)


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


def _uv_flow(l2, su, sv):
    # u' = l2 u (v - su), v' = l2 v (u - sv) on rows (u, v, 1)
    return _padded_flow(3, [(0, l2, (0, 1, 2)), (0, -l2 * su, (0, 2, 2)),
                            (1, l2, (0, 1, 2)), (1, -l2 * sv, (1, 2, 2))])


class SolvUVTools:
    """The u = 4 alpha delta, v = 4 beta gamma reduction of closed solv data:
    the blow-up bound T' of the symmetric comparison system, the closed form
    of its w = e^{8 lam^2 S t} u, and both the u-v flow and the comparison
    system as ReducedFlows on rows (u, v, 1), for integrate_ode.  The flows
    are built on first use, so reading T' and w builds no table."""

    def __init__(self, sd):
        self.sd = sd
        self.rate = UV_RATE * sd.lam ** 2
        self.t_prime = _t_prime(sd)
        self._w_constants = self.rate, sd.S, sd.C0, sd.u0, sd.v0

    @functools.cached_property
    def uv_flow(self):
        sd = self.sd
        return _uv_flow(self.rate, (sd.M - sd.N) ** 2, (sd.M + sd.N) ** 2)

    @functools.cached_property
    def comparison_flow(self):
        return _uv_flow(self.rate, self.sd.S, self.sd.S)

    def w_closed_form(self, t):
        l2, S, C0, u0, v0 = self._w_constants
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
