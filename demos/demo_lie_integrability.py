# Invariant 3-forms on two symplectic Lie algebras
# ================================================
#
# Structure constants determine a differential on invariant forms; with the
# standard symplectic form this gives a Lefschetz operator, the flow
# operator d Lambda d F, and integrability predicates for invariant
# primitive 3-forms.  This script walks the two built-in algebras: a
# nilpotent one (d e4 = e15, d e6 = e13) and a solvable one.

import random
from fractions import Fraction

from forms6 import invariants as inv
from forms6 import liealg as la
from forms6.exterior import basis

nil = la.builtin_setup("nil-debartolomeis")
solv = la.builtin_setup("solv-tomassini")
ab = la.builtin_setup("abelian")

print("d(e246) on the nil algebra:", nil.algebra.d(basis(2, 4, 6)))
print("d Lambda d (e246):", la.dlambdad(nil, basis(2, 4, 6)))
for setup, name in ((nil, "nil"), (solv, "solv"), (ab, "abelian")):
    dim = len(la.kernel_of_dlambdad(setup))
    print(f"kernel of d Lambda d on primitive invariant 3-forms ({name}): {dim}")

# Integrability on the nil algebra is a linear condition on the coefficient
# slots; being additionally F-integrable imposes four cubic equations.
rng = random.Random(3)
c = inv.PrimitiveCoords(*(Fraction(rng.randint(-4, 4)) for _ in range(14)))
closed = c._replace(H=Fraction(0), J=Fraction(0), L=Fraction(0), N=Fraction(0))
harmonic = closed._replace(D=Fraction(0), I=Fraction(0))
for name, cc in (("generic", c), ("closed", closed), ("F-harmonic", harmonic)):
    flags = la.integrability_flags(nil, inv.coords_to_form(cc))
    print(f"nil {name:>11}: integrable={flags.integrable} "
          f"F_integrable={flags.F_integrable} K_integrable={flags.K_integrable}")

# The Nijenhuis tensor of K(phi) contracts into the volume form as an exact
# combination of d phi, F and dF; the residual is identically zero on the
# rational backend.
phi = inv.coords_to_form(c)
print("Nijenhuis identity residual (nil, exact):",
      la.verify_nijenhuis_identity(nil, phi))
solv_exact = la.InvariantSetup.standard(la.solv_algebra(Fraction(7, 5)))
print("Nijenhuis identity residual (solv family, exact):",
      la.verify_nijenhuis_identity(solv_exact, phi))
print("N_K of the F-harmonic form vanishes:",
      la.nijenhuis_max(nil, inv.coords_to_form(harmonic)) == 0.0)
