"""Weighted Boolean Max CSP: constraint analysis, reductions, kernelization.

The package follows one fixed convention everywhere: truth tables and
assignments are indexed with variable 1 in the most significant bit
position.
"""

from .constraints import (ClassificationReport, Constraint, ConstraintFlags,
                          ConstraintLanguage, SubstitutionPattern, apply_pattern,
                          classify, classify_language, closure, make_constraint,
                          standard_constraint)
from .errors import (CapExceededError, FormatError, MaxCspError,
                     PreconditionError)
from .expressibility import (DegreeWitness, LinearCombination, decompose,
                             find_degree_witness, language_denominator)
from .formulas import Formula, empty_formula, random_formula
from .implementations import (Implementation, search_implementation,
                              verify_implementation)
from .languages import builtin_language, gamma_d_and, gamma_d_sat
from .polynomials import (MultilinearPolynomial, characteristic_polynomial,
                          degree_of_constraint, degree_of_language)
from .solver import (SolveResult, brute_force, check_equivalence, decide,
                     decide_exact)
from .transforms import (KernelResult, TransformCertificate, apply_poly, chain,
                         compress_to_polynomial, exp_cycle, implement_lit,
                         implement_tf, kernelize, neg_to_base,
                         signed_to_unsigned_neg, unsigned_lit, vc_reduce,
                         verify_transform)

__version__ = "0.1.0"
