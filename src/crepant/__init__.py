"""Exact-arithmetic verification of the Z3 crepant resolution identity.

The package computes trigonal Hurwitz-Hodge integral tables by
independent routes (WDVV recursions against tangent-shift closed forms),
assembles the two equivariant genus-0 potentials, and compares their
third partial derivatives coefficient by coefficient under the
cyclotomic change of variables.  Every number is an exact rational or
cyclotomic quantity; there is no floating point anywhere.
"""
from .algebra import (BiSeries, Cyc3, CycElement, CycField, DegreeOverflowError,
                      LinT, OMEGA, OMEGA_BAR, I_SQRT3, I_OVER_SQRT3, USeries,
                      compose_linear, tangent_series, tau_series)
from .hurwitz import (ComponentLabel, HodgeTable, LabelParityError,
                      SingularSystemError, a_closed, a_values,
                      abullet_functional, abullet_recursive, b_closed,
                      b_recursive, b_values, build_hodge_table, delta,
                      delta_direct, gamma_bruteforce, gamma_formula,
                      solve_components, theta_check, theta_pair)
from .mckay import DuValTransform, check_n3_specialization, duval_transform
from .potentials import (ChangeOfVars, FixedPointData, InverseT1T2,
                         fx_third_partial, fy_third_partial,
                         multicover_invariant, orbifold_invariant,
                         triple_intersection, verify_crc)

__version__ = "0.1.0"
