"""forms6: 3-forms on symplectic 6-space.

Exact and floating-point exterior algebra in dimension six, the K/F/Q
invariants and orbit classification of 3-forms, invariant-form calculus on
6-dimensional Lie algebras, reduced geometric flows of primitive 3-forms,
and the Hessian geometry of the associated Lagrangian leaves.
"""

from .exterior import (DEFAULT_TOL, Form, GradeError, LinearMap6, basis,
                       eval_form, interior, pullback,
                       vector_of_five_form, wedge)
from .invariants import (PrimitiveCoords, SpOrbit, classify_gl, classify_sp,
                         compute_F, compute_K, compute_Q, coords_to_form,
                         form_to_coords, hat_map, hitchin_data, q_form,
                         q_from_coords, signature, standard_omega,
                         subspace_dims)

__version__ = "0.1.0"
