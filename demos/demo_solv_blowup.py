# Finite-time blow-up of the reduced flow on the solv algebra
# ===========================================================
#
# Closed invariant initial data on the solvable algebra reduces the flow to
# four coupled cubic ODEs in (alpha, beta, gamma, delta) with two frozen
# moduli M, N.  Inside the positivity region the solution blows up in finite
# time; the products u = 4 alpha delta, v = 4 beta gamma obey an autonomous
# 2x2 system whose symmetric comparison version integrates in closed form,
# giving a computable upper bound T' for the singular time.

import numpy as np

from forms6 import flow
from forms6 import invariants as inv
from forms6 import liealg as la

solv = la.builtin_setup("solv-tomassini")

sd = flow.SolvData(alpha=1.2, beta=0.8, gamma=1.5, delta=0.9, M=0.2, N=-0.1)
rep = flow.positivity_check(sd)
print("positivity report:", rep)
print(f"u0 = {sd.u0}, v0 = {sd.v0}, S = {sd.S:.4f}, C0 = {sd.C0:.4f}")

tools = flow.SolvUVTools(sd)
print(f"closed-form blow-up bound T' = {tools.t_prime.value:.8f} "
      f"({tools.t_prime.branch} branch)")

traj = flow.integrate(solv, sd.to_coords(), 100.0,
                      flow.FlowControls(blow_norm=1e5))
print(f"trajectory status: {traj.status} at t_b = {traj.t_final:.8f} "
      f"({traj.n_accepted} accepted steps)")
print("t_b <= T':", traj.t_final <= tools.t_prime.value)

al, be = traj.states[:, 0], traj.states[:, 2]
ga, de = traj.states[:, 4], -traj.states[:, 6]
u, v = 4 * al * de, 4 * be * ga
print(f"alpha/delta drift along the flow: {np.max(np.abs(al/de - al[0]/de[0])):.2e}")
print(f"final u = {u[-1]:.3e}, |u/v - 1| = {abs(u[-1]/v[-1] - 1):.2e}")

form, orbit = flow.normalized_limit(traj, "A")
cc = inv.form_to_coords(form)
print("normalized limit: orbit", orbit.label, "with mu =", f"{float(orbit.mu):.6f}")
print("alpha*delta - beta*gamma at the limit:",
      f"{abs(cc.A * (-cc.G) - cc.C * cc.E):.2e}")

# The comparison system blows up exactly at T'; the full u-v system, driven
# by the larger right side, gets there first.
tr_cmp = flow.integrate_ode(tools.comparison_flow, [sd.u0, sd.v0, 1.0], 100.0,
                            flow.FlowControls(detect_stationary=False))
tr_uv = flow.integrate_ode(tools.uv_flow, [sd.u0, sd.v0, 1.0], 100.0,
                           flow.FlowControls(detect_stationary=False))
print(f"comparison system pole: {tr_cmp.t_final:.8f} (vs T' {tools.t_prime.value:.8f})")
print(f"full u-v system pole:   {tr_uv.t_final:.8f} (earlier)")
