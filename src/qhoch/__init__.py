"""Exact Gerstenhaber structure of Hochschild cohomology for quantum
exterior algebras twisted by finite diagonal group actions."""

from .algebra import (Algebra, Group, SkewElement, build_algebra,
                      formal_algebra, group_act, make_cyclic_group,
                      quantum_coefficient_action_algebra, trivial_group)
from .cohomology import (CohomologyBasis, class_equal, coboundary_oracle,
                         g_action_on_cochain, hh_component_basis,
                         invariant_basis, invariant_rank_oracle,
                         is_coboundary, is_cocycle, rank_oracle, average)
from .gerstenhaber import (axiom_suite, bracket, bracket_oracle, circ,
                           circ_oracle, cup, cup_oracle)
from .resolution import (Cochain, Tensor, Tensor2, bar_check, diagonal,
                         f_beta_expand, hom_differential, homotopy, is_flat,
                         norm_g, omega_big, omega_small, phi_generator,
                         phi_identity_check, resolution_differential)
from .scalars import (CycloElement, CycloField, Frac, Scalar, Unit,
                      Universe, cyclotomic_polynomial, scalar_str)

__version__ = "0.1.0"
