"""Exact-arithmetic verification of the Z3 crepant resolution identity.

The package computes trigonal Hurwitz-Hodge integral tables by
independent routes (WDVV recursions against tangent-shift closed forms),
assembles the two equivariant genus-0 potentials, and compares their
third partial derivatives coefficient by coefficient under the
cyclotomic change of variables.  Every number is an exact rational or
cyclotomic quantity; there is no floating point anywhere.

The public names of ``_EXPORTS`` are resolved from their modules on first
access (``__getattr__``), so ``import crepant``, like each CLI
subcommand, loads only the modules it uses.
"""
import importlib

_EXPORTS = {
    "algebra": ("CycElement", "CycField"),
    "hurwitz": ("ComponentMismatchError", "HodgeTable", "build_hodge_table", "delta",
                "delta_direct", "gamma_direct", "gamma_formula", "solve_components",
                "theta_check"),
    "mckay": ("DuValTransform", "check_n3_specialization", "duval_transform"),
    "oracles": ("BiSeries", "USeries", "a_closed", "abullet_functional", "b_closed",
                "compose_linear", "fx_third_partial", "fy_third_partial",
                "tangent_series", "tau_series", "theta_pair"),
    "potentials": ("ChangeOfVars", "Cyc3", "DegreeOverflowError", "FixedPointData",
                   "I_OVER_SQRT3", "InverseT1T2", "LinT", "OMEGA", "OMEGA_BAR",
                   "orbifold_invariant", "triple_intersection", "verify_crc"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
