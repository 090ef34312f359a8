"""Exact irreducibility certificates for y'' = x*y + y^n*P(x,y) and a
Painleve III case, via variational equations and differential Galois
obstructions."""

from .field import FieldElem
from .grammar import ParseError, parse_ratfun
from .jets import (EquationFamily, JetSystem, VectorFieldSpec,
                   build_lnve_airy_family, build_p3_chain, linearize,
                   normal_restrict, prolong, restrict_along_curve)
from .liealg import (LieAlgebraBasis, adjoint_action_matrix,
                     associated_lie_algebra, classify_lnve_lie_algebra,
                     lie_closure, lie_dimension)
from .linops import (DiffOp, cyclic_vector_scalarize, parse_operator,
                     sym_power_chain, sym_power_matrix, sym_power_operator)
from .poly import Poly, RatFun, ratfun
from .ratsolve import (SolutionSpace, denominator_bound, degree_bound,
                       indicial_polynomial, rational_solutions,
                       system_rational_solutions)
from .screen import (ExpWitness, ScreenVerdict, certify_sl2,
                     exponential_solutions_restricted, has_log_at)
from .verdict import (Certificate, CertificateError, INCONCLUSIVE,
                      IRREDUCIBLE, check_p2, check_p3,
                      criterion_airy_family, lnve_group_dimension,
                      reduced_form_obstruction, replay)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "CertificateError", "DiffOp", "EquationFamily",
    "ExpWitness", "FieldElem", "INCONCLUSIVE", "IRREDUCIBLE", "JetSystem",
    "LieAlgebraBasis", "ParseError", "Poly", "RatFun", "ScreenVerdict",
    "SolutionSpace", "VectorFieldSpec", "adjoint_action_matrix",
    "associated_lie_algebra", "build_lnve_airy_family", "build_p3_chain",
    "certify_sl2", "check_p2", "check_p3", "classify_lnve_lie_algebra",
    "criterion_airy_family", "cyclic_vector_scalarize", "degree_bound",
    "denominator_bound", "exponential_solutions_restricted", "has_log_at",
    "indicial_polynomial", "lie_closure", "lie_dimension", "linearize",
    "lnve_group_dimension", "normal_restrict", "parse_operator",
    "parse_ratfun", "prolong", "ratfun",
    "rational_solutions", "reduced_form_obstruction", "replay",
    "restrict_along_curve", "sym_power_chain", "sym_power_matrix",
    "sym_power_operator",
    "system_rational_solutions",
]
