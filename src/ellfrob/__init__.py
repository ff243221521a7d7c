"""Exact arithmetic for Lie invariant Frobenius lifts on p-adic completions
of affine elliptic curves y^2 = x^3 + a x + b, p >= 5."""

from .errors import DomainError, EllfrobError, InternalError
from .forms import classify_pair, hasse_poly, j_invariant
from .liftp import (CurveContext, FrobLift, build_lift_mod_p,
                    eigen_forcing_check, extendability_certificate,
                    lie_verify, lie_verify_commutator, mu_correct)
from .liftp2 import (build_lift_mod_p2, solve_eigen_numeric,
                     solve_eigen_symbolic, lambda_properties)
from .psi import conjecture_scan, exact_psi_table, psi_table
from .residue import PrimePower
from .upoly import FracPoly, UPoly
from .verify import exhaustive_verify, verify_pair
from .wpoly import LocFrac, LocalizerSet, WPoly, discriminant

__all__ = [
    "DomainError", "EllfrobError", "InternalError",
    "classify_pair", "hasse_poly", "j_invariant",
    "CurveContext", "FrobLift", "build_lift_mod_p", "eigen_forcing_check",
    "extendability_certificate", "lie_verify", "lie_verify_commutator",
    "mu_correct",
    "build_lift_mod_p2", "solve_eigen_numeric", "solve_eigen_symbolic",
    "lambda_properties",
    "conjecture_scan", "exact_psi_table", "psi_table",
    "PrimePower", "FracPoly", "UPoly",
    "exhaustive_verify", "verify_pair",
    "LocFrac", "LocalizerSet", "WPoly", "discriminant",
]
