# The reduced flow on the nil algebra: one scalar ODE
# ===================================================
#
# On the nilpotent algebra the flow d phi/dt = d Lambda d F(phi) moves a
# single coefficient: dA/dt = -4 A H^2 + R with every other slot frozen.
# The solution is elementary -- exponential relaxation to R/(4H^2) when
# H != 0, straight-line growth when H = 0 -- which makes this a sharp
# integrator test and a worked example of limit extraction.

from forms6 import flow
from forms6 import invariants as inv
from forms6 import liealg as la
from forms6.exterior import basis, form_max_diff

nil = la.builtin_setup("nil-debartolomeis")

c = inv.PrimitiveCoords(A=0.3, B=-0.7, C=0.4, D=1.1, E=-0.2, F=0.9, G=-1.3,
                        H=0.8, I=0.1, J=-0.5, K=0.6, L=0.2, M=-0.4, N=0.3)
nd = flow.NilData.from_coords(c)
print(f"H = {nd.H},  R = {nd.R:.6f},  limit A = R/(4H^2) = {nd.R/(4*nd.H**2):.6f}")

traj = flow.integrate(nil, c, 10.0, flow.FlowControls(detect_stationary=False))
errs = [abs(traj.states[i, 0] - flow.nil_closed_form(nd, c.A, t))
        for i, t in enumerate(traj.times)]
print(f"integrated to t = {traj.t_final} in {traj.n_accepted} steps; "
      f"max deviation from the closed form: {max(errs):.2e}")

print("\nt        A(numeric)   A(closed form)")
for frac in (0.0, 0.1, 0.3, 1.0):
    i = min(int(frac * (len(traj.times) - 1)), len(traj.times) - 1)
    t = float(traj.times[i])
    print(f"{t:8.4f} {traj.states[i,0]:12.8f} "
          f"{flow.nil_closed_form(nd, c.A, t):14.8f}")

# With H = 0 the leading coefficient grows linearly and the normalized
# trajectory phi(t)/A(t) settles on the decomposable form e135, a point of
# the degenerate orbit with three-dimensional kernel.
c0 = c._replace(H=0.0)
nd0 = flow.NilData.from_coords(c0)
print(f"\nH = 0 branch: R = {nd0.R:.6f}, integrating far out...")
traj0 = flow.integrate(nil, c0, 1e8, flow.FlowControls(detect_stationary=False))
form, orbit = flow.normalized_limit(traj0, "A")
print("normalized limit classifies as:", orbit.label)
print("distance from e135:", f"{form_max_diff(form, basis(1, 3, 5)):.2e}")
